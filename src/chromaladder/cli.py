"""Command-line pipeline: validate data, synthesize corpora, build ladders,
compare methods with Bjontegaard deltas, sweep alpha, and report chroma usage.

Exit codes: 0 success, 1 input/validation error, 2 computation error.
All reports are deterministic: titles are processed in lexicographic order and
JSON is emitted with a fixed field order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .bdmetrics import CurveAxis, aggregate, bd_delta, build_curve
from .errors import (
    ChromaLadderError,
    CurveError,
    DatasetError,
    InvalidPlan,
    InvalidSpec,
    LadderError,
    PlanTargetUnknown,
)
from .ladder import (
    CandidateIndex,
    Ladder,
    Method,
    OptimizerMode,
    build_default,
    build_dynres,
    build_fixed,
    chroma_pmf,
    load_plan,
    optimize_arcs,
)
from .measurements import (
    ChromaFormat,
    QualityMetric,
    TitleDataset,
    dataset_warnings,
    parse_dataset,
    serialize_dataset,
)
from .objective import Alpha
from .synth import default_spec, generate, spec_from_json, sparse_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2

SWEEP_DEFAULT_ALPHAS = (0.0, 0.01, 0.02, 0.04, 0.08)

# Methods whose ladder depends on the trade-off weight.
ALPHA_METHODS = frozenset({Method.ARCS, Method.DYNRES_JOD})


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[Path, ...]
    alphas: tuple[float, ...] = (0.0,)
    tolerance: float = 0.10
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP
    methods: tuple[Method, ...] = (Method.ARCS,)
    reference: Method = Method.DEFAULT
    plan_path: Path | None = None
    chroma_fixed: ChromaFormat = ChromaFormat.C444
    out_dir: Path | None = None
    formats: tuple[str, ...] = ("json",)
    cross_target: bool = False

    def __post_init__(self):
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"--alpha must be in [0, 1], got {a}")
        if not 0.0 <= self.tolerance <= 0.5:
            raise ValueError(f"--tolerance must be in [0, 0.5], got {self.tolerance}")
        for f in self.formats:
            if f not in ("json", "csv", "markdown"):
                raise ValueError(f"unknown format {f!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Bad flags are input errors (exit 1), not argparse's default exit 2.
    def error(self, message):
        raise _UsageError(message)


def to_json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# -- data loading -------------------------------------------------------------


def _load_datasets(cfg: RunConfig) -> dict[tuple[str, QualityMetric], TitleDataset]:
    merged: dict[tuple[str, QualityMetric], list] = {}
    for path in cfg.inputs:
        text = Path(path).read_text(encoding="utf-8")
        for ds in parse_dataset(text):
            key = (ds.title_id, ds.metric)
            merged.setdefault(key, []).extend(ds.records)
    out = {}
    for key in sorted(merged, key=lambda k: (k[0], k[1].value)):
        out[key] = TitleDataset.from_records(merged[key])
    return out


def _load_plan(cfg: RunConfig, methods: tuple[Method, ...] = ()) -> list[tuple[float, int]] | None:
    if cfg.plan_path is None:
        if Method.FIXED_LADDER in methods:
            raise InvalidPlan("--plan is required for the fixed method")
        return None
    return load_plan(Path(cfg.plan_path).read_text(encoding="utf-8"))


class _LadderCache:
    """Ladders of one title, and the title's candidate index.

    Both are dropped when a different title is requested, so callers loop
    title-first and only one title's index is alive at a time.
    """

    def __init__(self, cfg: RunConfig, plan):
        self.cfg = cfg
        self.plan = plan
        self._key: tuple[str, QualityMetric] | None = None
        self._index: CandidateIndex | None = None
        self._cache: dict[tuple, Ladder] = {}

    def get(self, key: tuple[str, QualityMetric], ds: TitleDataset,
            method: Method, alpha: float | None) -> Ladder:
        if key != self._key:
            self._key, self._index, self._cache = key, None, {}
        alpha = alpha if method in ALPHA_METHODS else None
        ck = (method, alpha)
        if ck not in self._cache:
            self._cache[ck] = self._build(ds, method, alpha)
        return self._cache[ck]

    def _build(self, ds: TitleDataset, method: Method, alpha: float | None) -> Ladder:
        cfg = self.cfg
        if method in ALPHA_METHODS and self._index is None:
            self._index = CandidateIndex(ds, cfg.tolerance, cross_target=cfg.cross_target)
        if method is Method.ARCS:
            return optimize_arcs(ds, Alpha(alpha), cfg.tolerance, cfg.mode,
                                 cross_target=cfg.cross_target, index=self._index)
        if method is Method.DYNRES_JOD:
            return build_dynres(ds, Alpha(alpha), cfg.tolerance, cfg.chroma_fixed,
                                cfg.mode, cross_target=cfg.cross_target, index=self._index)
        if method is Method.DEFAULT:
            return build_default(ds, cfg.tolerance, cross_target=cfg.cross_target)
        if self.plan is None:
            raise InvalidPlan("--plan is required for the fixed method")
        return build_fixed(ds, self.plan, cfg.tolerance, cfg.chroma_fixed,
                           cross_target=cfg.cross_target)


# -- payload helpers -----------------------------------------------------------


def _ladder_payload(ladder: Ladder, metric: QualityMetric, cfg: RunConfig) -> dict:
    rungs = []
    for rung in ladder.rungs:
        if rung.choice is None:
            rungs.append({"target_kbps": rung.target_bitrate, "present": False})
            continue
        rec = rung.choice
        rungs.append(
            {
                "target_kbps": rung.target_bitrate,
                "present": True,
                "height": rec.resolution.height,
                "width": rec.resolution.pixel_width,
                "chroma": rec.chroma.value,
                "actual_kbps": rec.actual_bitrate,
                "quality": rec.quality.value,
                "decode_s_per_frame": rec.decode_time,
                "j_prime": rung.j_prime,
            }
        )
    return {
        "title": ladder.title_id,
        "metric": metric.value,
        "method": ladder.method.value,
        "alpha": None if ladder.alpha is None else ladder.alpha.value,
        "mode": cfg.mode.value if ladder.method in ALPHA_METHODS else None,
        "tolerance": cfg.tolerance,
        "rungs": rungs,
    }


def _config_payload(cfg: RunConfig) -> dict:
    return {
        "inputs": [str(p) for p in cfg.inputs],
        "alphas": list(cfg.alphas),
        "tolerance": cfg.tolerance,
        "mode": cfg.mode.value,
        "methods": [m.value for m in cfg.methods],
        "reference": cfg.reference.value,
        "plan": None if cfg.plan_path is None else str(cfg.plan_path),
        "chroma_fixed": cfg.chroma_fixed.value,
        "cross_target": cfg.cross_target,
    }


def _alpha_tag(alpha: float | None) -> str:
    return "" if alpha is None else f"__alpha{alpha:g}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- commands ------------------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    errors, warns = [], []
    datasets = []
    for path in cfg.inputs:
        try:
            text = Path(path).read_text(encoding="utf-8")
            datasets.extend(parse_dataset(text))
        except (DatasetError, OSError) as exc:
            errors.append(f"{path}: {exc}")
    for ds in datasets:
        warns.extend(dataset_warnings(ds, cfg.tolerance))
    for e in errors:
        print(f"ERROR {e}")
    for w in warns:
        print(f"WARN {w}")
    n_rec = sum(len(d.records) for d in datasets)
    print(
        f"validated {len(cfg.inputs)} file(s): {len(datasets)} title dataset(s), "
        f"{n_rec} record(s), {len(errors)} error(s), {len(warns)} warning(s)"
    )
    return EXIT_INPUT if errors else EXIT_OK


def cmd_synth(args) -> int:
    if args.spec is not None:
        spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    elif args.preset == "sparse":
        spec = sparse_spec()
    else:
        spec = default_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.titles is not None:
        spec = replace(spec, titles=args.titles)
    datasets = generate(spec)
    text = serialize_dataset(datasets, fmt=args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
        n = sum(len(d.records) for d in datasets)
        print(f"wrote {len(datasets)} title(s), {n} record(s) to {args.out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    datasets = _load_datasets(cfg)
    if not datasets:
        print("error: no datasets in input", file=sys.stderr)
        return EXIT_INPUT
    cache = _LadderCache(cfg, _load_plan(cfg, cfg.methods))
    payloads, failures = [], []
    for key, ds in datasets.items():
        title, metric = key
        for method in cfg.methods:
            alphas = cfg.alphas if method in ALPHA_METHODS else (None,)
            for alpha in alphas:
                try:
                    ladder = cache.get(key, ds, method, alpha)
                except LadderError as exc:
                    failures.append(f"{title}/{metric.value}/{method.value}"
                                    f"{_alpha_tag(alpha)}: {exc}")
                    continue
                payloads.append(_ladder_payload(ladder, metric, cfg))
    for line in failures:
        print(f"SKIP {line}")
    if not payloads:
        print("error: every ladder construction failed", file=sys.stderr)
        return EXIT_COMPUTE
    if cfg.out_dir is None:
        sys.stdout.write(to_json_text(payloads))
    else:
        for p in payloads:
            name = f"{p['title']}__{p['metric']}__{p['method']}{_alpha_tag(p['alpha'])}.json"
            _write_text(Path(cfg.out_dir) / name, to_json_text(p))
        print(f"wrote {len(payloads)} ladder file(s) to {cfg.out_dir}")
    return EXIT_OK


def _bd_pair(ref: Ladder, test: Ladder):
    """(delta-rate, delta-decode-time) results of test vs ref."""
    rate = bd_delta(build_curve(ref, CurveAxis.QUALITY_VS_LOG_RATE),
                    build_curve(test, CurveAxis.QUALITY_VS_LOG_RATE))
    time = bd_delta(build_curve(ref, CurveAxis.QUALITY_VS_LOG_TIME),
                    build_curve(test, CurveAxis.QUALITY_VS_LOG_TIME))
    return rate, time


def _compare_report(cfg: RunConfig, datasets, methods: tuple[Method, ...]) -> dict:
    cache = _LadderCache(cfg, _load_plan(cfg, methods + (cfg.reference,)))
    titles, excluded = [], []
    rows_by_group: dict[tuple, list[tuple[float, float]]] = {}
    for key, ds in datasets.items():
        title, metric = key
        entry = {"title": title, "metric": metric.value, "ladders": [], "bd": {"rows": []}}
        seen_ladders = set()
        for method in methods:
            alphas = cfg.alphas if (method in ALPHA_METHODS or cfg.reference in ALPHA_METHODS) else (None,)
            for alpha in alphas:
                # alpha is None unless the method or the reference is built with it.
                group = (method, alpha, metric)
                try:
                    ref = cache.get(key, ds, cfg.reference, alpha)
                    test = cache.get(key, ds, method, alpha)
                except LadderError as exc:
                    excluded.append(_exclusion(title, metric, method, alpha, exc))
                    continue
                for ladder in (ref, test):
                    lk = (ladder.method, None if ladder.alpha is None else ladder.alpha.value)
                    if lk not in seen_ladders:
                        seen_ladders.add(lk)
                        entry["ladders"].append(_ladder_payload(ladder, metric, cfg))
                try:
                    rate, time = _bd_pair(ref, test)
                except CurveError as exc:
                    excluded.append(_exclusion(title, metric, method, alpha, exc))
                    continue
                entry["bd"]["rows"].append(
                    {
                        "method": method.value,
                        "alpha": alpha,
                        "metric": metric.value,
                        "reference": cfg.reference.value,
                        "bdr_percent": rate.value_percent,
                        "bddt_percent": time.value_percent,
                        "overlap_quality": [rate.overlap[0], rate.overlap[1]],
                    }
                )
                rows_by_group.setdefault(group, []).append((rate, time))
        titles.append(entry)
    agg_rows = []
    group_keys = sorted(
        rows_by_group,
        key=lambda g: (g[0].value, -1.0 if g[1] is None else g[1], g[2].value),
    )
    # Titles are counted per metric: a title measured in both metrics has a
    # dataset, and a row, for each.
    n_titles = Counter(metric for _, metric in datasets)
    for group in group_keys:
        vals = rows_by_group[group]
        method, alpha, metric = group
        agg_rows.append(
            {
                "method": method.value,
                "alpha": alpha,
                "metric": metric.value,
                "reference": cfg.reference.value,
                "mean_bdr_percent": aggregate([rate for rate, _ in vals]),
                "mean_bddt_percent": aggregate([time for _, time in vals]),
                "titles_used": len(vals),
                "titles_excluded": n_titles[metric] - len(vals),
            }
        )
    return {
        "config": _config_payload(cfg),
        "titles": titles,
        "aggregate": {"rows": agg_rows, "excluded": excluded},
    }


def _exclusion(title, metric, method, alpha, exc) -> dict:
    return {
        "title": title,
        "metric": metric.value,
        "method": method.value,
        "alpha": alpha,
        "reason": str(exc),
    }


_COLUMN_LABEL = {("cvvdp", "bdr"): "BDR_C", ("psnr", "bdr"): "BDR_P",
                 ("cvvdp", "bddt"): "BDDT_C", ("psnr", "bddt"): "BDDT_P"}


def _render_aggregate_markdown(report: dict, heading: str) -> str:
    lines = [f"# {heading}", ""]
    lines.append(f"Reference method: `{report['config']['reference']}`")
    lines.append("")
    lines.append("| method | alpha | metric | mean BDR [%] | mean BDDT [%] | titles | excluded |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in report["aggregate"]["rows"]:
        bdr_label = _COLUMN_LABEL[(row["metric"], "bdr")]
        bddt_label = _COLUMN_LABEL[(row["metric"], "bddt")]
        alpha = "-" if row["alpha"] is None else f"{row['alpha']:g}"
        lines.append(
            f"| {row['method']} | {alpha} | {bdr_label}/{bddt_label} "
            f"| {row['mean_bdr_percent']:.2f} | {row['mean_bddt_percent']:.2f} "
            f"| {row['titles_used']} | {row['titles_excluded']} |"
        )
    if report["aggregate"]["excluded"]:
        lines.append("")
        lines.append("Excluded title evaluations:")
        for ex in report["aggregate"]["excluded"]:
            alpha = "-" if ex["alpha"] is None else f"{ex['alpha']:g}"
            lines.append(
                f"- {ex['title']}/{ex['metric']} {ex['method']} alpha={alpha}: {ex['reason']}"
            )
    lines.append("")
    return "\n".join(lines)


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join("" if v is None else (f"{v!r}" if isinstance(v, float) else str(v)) for v in row))
    return "\n".join(out) + "\n"


def _write_compare_outputs(cfg: RunConfig, report: dict, stem: str) -> None:
    out = Path(cfg.out_dir)
    if "json" in cfg.formats:
        _write_text(out / f"{stem}.json", to_json_text(report))
    if "markdown" in cfg.formats:
        _write_text(out / f"{stem}.md", _render_aggregate_markdown(report, stem))
    if "csv" in cfg.formats:
        bd_rows = []
        curve_rows = []
        for entry in report["titles"]:
            for row in entry["bd"]["rows"]:
                bd_rows.append(
                    [entry["title"], row["metric"], row["method"], row["alpha"],
                     row["bdr_percent"], row["bddt_percent"],
                     row["overlap_quality"][0], row["overlap_quality"][1]]
                )
            for ladder in entry["ladders"]:
                for rung in ladder["rungs"]:
                    if not rung["present"]:
                        continue
                    curve_rows.append(
                        [entry["title"], ladder["metric"], ladder["method"],
                         ladder["alpha"], rung["target_kbps"], rung["actual_kbps"],
                         rung["quality"], rung["decode_s_per_frame"], rung["chroma"],
                         rung["height"]]
                    )
        _write_text(
            out / f"{stem}_bd.csv",
            _csv_lines(
                ["title", "metric", "method", "alpha", "bdr_percent",
                 "bddt_percent", "overlap_q_low", "overlap_q_high"],
                bd_rows,
            ),
        )
        _write_text(
            out / f"{stem}_curves.csv",
            _csv_lines(
                ["title", "metric", "method", "alpha", "target_kbps", "actual_kbps",
                 "quality", "decode_s_per_frame", "chroma", "height"],
                curve_rows,
            ),
        )
        _write_text(
            out / f"{stem}_aggregate.csv",
            _csv_lines(
                ["method", "alpha", "metric", "mean_bdr_percent",
                 "mean_bddt_percent", "titles_used", "titles_excluded"],
                [
                    [r["method"], r["alpha"], r["metric"], r["mean_bdr_percent"],
                     r["mean_bddt_percent"], r["titles_used"], r["titles_excluded"]]
                    for r in report["aggregate"]["rows"]
                ],
            ),
        )


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    datasets = _load_datasets(cfg)
    if not datasets:
        print("error: no datasets in input", file=sys.stderr)
        return EXIT_INPUT
    report = _compare_report(cfg, datasets, cfg.methods)
    if not report["aggregate"]["rows"]:
        print("error: no comparison could be computed", file=sys.stderr)
        return EXIT_COMPUTE
    if cfg.out_dir is None:
        sys.stdout.write(to_json_text(report))
    else:
        _write_compare_outputs(cfg, report, "report")
        _print_aggregate(report)
        print(f"report written to {cfg.out_dir}")
    return EXIT_OK


def _print_aggregate(report: dict) -> None:
    print(f"reference: {report['config']['reference']}")
    print(f"{'method':<8} {'alpha':>6} {'metric':<6} {'mean BDR%':>10} {'mean BDDT%':>11} {'titles':>7}")
    for row in report["aggregate"]["rows"]:
        alpha = "-" if row["alpha"] is None else f"{row['alpha']:g}"
        print(
            f"{row['method']:<8} {alpha:>6} {row['metric']:<6} "
            f"{row['mean_bdr_percent']:>10.2f} {row['mean_bddt_percent']:>11.2f} "
            f"{row['titles_used']:>7}"
        )
    for ex in report["aggregate"]["excluded"]:
        print(f"excluded {ex['title']}/{ex['metric']} {ex['method']}: {ex['reason']}")


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args, default_alphas=SWEEP_DEFAULT_ALPHAS)
    if len(cfg.alphas) < 2:
        print("error: sweep needs at least two --alpha values", file=sys.stderr)
        return EXIT_INPUT
    cfg = replace(cfg, alphas=tuple(sorted(cfg.alphas)))
    datasets = _load_datasets(cfg)
    if not datasets:
        print("error: no datasets in input", file=sys.stderr)
        return EXIT_INPUT
    report = _compare_report(cfg, datasets, (Method.ARCS, Method.DYNRES_JOD))
    rows = sorted(
        report["aggregate"]["rows"],
        key=lambda r: (r["alpha"], r["method"], r["metric"]),
    )
    frontier = {
        "config": report["config"],
        "frontier": rows,
        "excluded": report["aggregate"]["excluded"],
    }
    if not rows:
        print("error: no comparison could be computed", file=sys.stderr)
        return EXIT_COMPUTE
    if cfg.out_dir is None:
        sys.stdout.write(to_json_text(frontier))
        return EXIT_OK
    out = Path(cfg.out_dir)
    if "json" in cfg.formats:
        _write_text(out / "frontier.json", to_json_text(frontier))
    if "csv" in cfg.formats:
        _write_text(
            out / "frontier.csv",
            _csv_lines(
                ["alpha", "method", "metric", "mean_bdr_percent",
                 "mean_bddt_percent", "titles_used", "titles_excluded"],
                [
                    [r["alpha"], r["method"], r["metric"], r["mean_bdr_percent"],
                     r["mean_bddt_percent"], r["titles_used"], r["titles_excluded"]]
                    for r in rows
                ],
            ),
        )
    if "markdown" in cfg.formats:
        _write_text(out / "frontier.md", _render_aggregate_markdown(
            {"config": report["config"], "aggregate": {"rows": rows, "excluded": frontier["excluded"]}},
            "frontier",
        ))
    _print_aggregate({"config": report["config"], "aggregate": {"rows": rows, "excluded": frontier["excluded"]}})
    print(f"frontier written to {cfg.out_dir}")
    return EXIT_OK


def cmd_pmf(args) -> int:
    cfg = _config_from_args(args)
    datasets = _load_datasets(cfg)
    if not datasets:
        print("error: no datasets in input", file=sys.stderr)
        return EXIT_INPUT
    cache = _LadderCache(cfg, _load_plan(cfg, cfg.methods))
    groups = [(method, alpha) for method in cfg.methods
              for alpha in (cfg.alphas if method in ALPHA_METHODS else (None,))]
    ladders = {group: [] for group in groups}
    failures = {group: [] for group in groups}
    for key, ds in datasets.items():
        for method, alpha in groups:
            try:
                ladders[method, alpha].append(cache.get(key, ds, method, alpha))
            except LadderError as exc:
                failures[method, alpha].append(_exclusion(key[0], key[1], method, alpha, exc))
    rows, excluded = [], []
    for method, alpha in groups:
        excluded.extend(failures[method, alpha])
        built = ladders[method, alpha]
        if not built:
            continue
        pmf = chroma_pmf(built)
        rows.append(
            {
                "method": method.value,
                "alpha": alpha,
                "pmf": {fmt.value: pmf[fmt] for fmt in ChromaFormat},
                "present_rungs": sum(len(l.present_rungs) for l in built),
            }
        )
    if not rows:
        print("error: no ladder could be built", file=sys.stderr)
        return EXIT_COMPUTE
    payload = {"config": _config_payload(cfg), "pmf": rows, "excluded": excluded}
    if cfg.out_dir is None:
        sys.stdout.write(to_json_text(payload))
        return EXIT_OK
    out = Path(cfg.out_dir)
    if "json" in cfg.formats:
        _write_text(out / "pmf.json", to_json_text(payload))
    if "csv" in cfg.formats:
        _write_text(
            out / "pmf.csv",
            _csv_lines(
                ["method", "alpha", "share_420", "share_422", "share_444", "present_rungs"],
                [
                    [r["method"], r["alpha"], r["pmf"]["420"], r["pmf"]["422"],
                     r["pmf"]["444"], r["present_rungs"]]
                    for r in rows
                ],
            ),
        )
    for r in rows:
        alpha = "-" if r["alpha"] is None else f"{r['alpha']:g}"
        print(
            f"{r['method']:<8} alpha={alpha:>6}  420:{r['pmf']['420']:.3f}  "
            f"422:{r['pmf']['422']:.3f}  444:{r['pmf']['444']:.3f}"
        )
    print(f"pmf written to {cfg.out_dir}")
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


def _config_from_args(args, default_alphas: tuple[float, ...] = (0.0,)) -> RunConfig:
    return RunConfig(
        inputs=tuple(Path(p) for p in args.input),
        alphas=tuple(dict.fromkeys(args.alpha)) if args.alpha else default_alphas,
        tolerance=args.tolerance,
        mode=OptimizerMode(args.mode),
        methods=(tuple(dict.fromkeys(Method(m) for m in args.method))
                 if getattr(args, "method", None) else (Method.ARCS,)),
        reference=Method(getattr(args, "reference", "default")),
        plan_path=Path(args.plan) if getattr(args, "plan", None) else None,
        chroma_fixed=ChromaFormat(args.chroma_fixed),
        out_dir=Path(args.out) if getattr(args, "out", None) else None,
        formats=tuple(args.format) if getattr(args, "format", None) else ("json",),
        cross_target=bool(getattr(args, "cross_target", False)),
    )


def _add_common(sub, *, methods=True, reference=True):
    sub.add_argument("--input", action="append", required=True,
                     help="dataset file (CSV or JSON); repeatable")
    sub.add_argument("--alpha", action="append", type=float,
                     help="trade-off weight in [0, 1]; repeatable")
    sub.add_argument("--tolerance", type=float, default=0.10,
                     help="bitrate window as a fraction (default 0.10)")
    sub.add_argument("--mode", choices=["dp", "greedy"], default="dp",
                     help="optimizer mode (default dp)")
    if methods:
        sub.add_argument("--method", action="append",
                         choices=[m.value for m in Method],
                         help="ladder method; repeatable (default arcs)")
    if reference:
        sub.add_argument("--reference", choices=[m.value for m in Method],
                         default="default", help="reference method (default: default)")
    sub.add_argument("--plan", help="fixed-ladder plan CSV (target_kbps,height)")
    sub.add_argument("--chroma-fixed", dest="chroma_fixed",
                     choices=["420", "422", "444"], default="444",
                     help="chroma format for fixed/dynres methods (default 444)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--format", action="append",
                     choices=["json", "csv", "markdown"],
                     help="output format; repeatable (default json)")
    sub.add_argument("--cross-target", dest="cross_target", action="store_true",
                     help="let encodes serve other targets whose window they hit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chromaladder",
                     description="Energy-aware bitrate ladders with adaptive chroma subsampling.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check dataset files, list errors and warnings")
    _add_common(p, methods=False, reference=False)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("synth", help="emit a seeded synthetic measurement corpus")
    p.add_argument("--spec", help="synthesis spec JSON file")
    p.add_argument("--preset", choices=["default", "sparse"], default="default")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--titles", type=int, help="override the title count")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("optimize", help="build ladders, one file per (title, method, alpha)")
    _add_common(p, reference=False)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("compare", help="Bjontegaard deltas of methods vs a reference")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("sweep", help="alpha sweep frontier for arcs and dynres")
    _add_common(p, methods=False)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("pmf", help="chroma-format usage share per alpha")
    _add_common(p)
    p.set_defaults(func=cmd_pmf)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (DatasetError, InvalidSpec, InvalidPlan, PlanTargetUnknown,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChromaLadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
