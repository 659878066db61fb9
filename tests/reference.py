"""A slow reference of the ladder commands ``optimize``, ``compare``, ``sweep``
and ``pmf``, from chromaladder's public API alone.

``run(argv)`` returns what ``cli.main(argv)`` gives: the exit code, stdout,
stderr and the text of each file written under ``--out``. Each (method, alpha)
builds its ladders and BD deltas afresh; pmf counts the rungs of the built
ladders. Text comes from ``json.dumps``, f-strings and ``csv_text``, which
quotes a field that holds ``,``, ``"``, ``\r`` or ``\n``. Inputs are read
with their line ends as written, a plan without its byte-order mark. It
covers the command lines that the CLI accepts, with readable inputs, and
the input errors that exit 1 with an ``error:`` line: an alpha outside
[0, 1] or a tolerance outside [0, 0.5], sweep with one alpha, inputs without
a record, a plan that ``load_plan`` rejects or none for the fixed method,
and, with ``optimize --out``, a title that holds ``/`` or a control
character, or two ladders that would share a file name.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from chromaladder import (CandidateIndex, ChromaFormat, CurveAxis, OptimizerMode, aggregate,
                          bd_delta, build_curve, build_default, build_dynres, build_fixed,
                          load_plan, optimize_arcs, parse_dataset)
from chromaladder.errors import CurveError, InvalidPlan, LadderError
from chromaladder.ladder import chroma_shares, count_chroma

ALPHA_METHODS = ("arcs", "dynres")
CONFIG_KEYS = ("inputs", "alphas", "tolerance", "mode", "methods", "reference", "plan",
               "chroma_fixed", "cross_target")


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    payload: object = field(default=None, compare=False)  # also when the command exits 2


def parse_argv(argv) -> SimpleNamespace:
    """The command's settings, defaults filled in, as the CLI reads them."""
    command, *flags = map(str, argv)
    lists, values = {"--input": [], "--alpha": [], "--method": [], "--format": []}, {}
    flags = iter(flags)
    for flag in flags:
        if flag in lists:
            lists[flag].append(next(flags))
        else:
            values[flag] = flag == "--cross-target" or next(flags)
    # -0.0 == 0.0, so a repeat goes whatever its sign; + 0.0 turns -0.0 into 0.0.
    alphas = [a + 0.0 for a in dict.fromkeys(map(float, lists["--alpha"]))]
    sweep = command == "sweep"
    return SimpleNamespace(
        command=command, inputs=[str(Path(p)) for p in lists["--input"]],
        alphas=alphas or ([0.0, 0.01, 0.02, 0.04, 0.08] if sweep else [0.0]),
        tolerance=float(values.get("--tolerance", 0.1)) + 0.0, mode=values.get("--mode", "dp"),
        methods=["arcs", "dynres"] if sweep else list(dict.fromkeys(lists["--method"])) or ["arcs"],
        reference=values.get("--reference", "default") if command in ("compare", "sweep") else None,
        plan=values.get("--plan") and str(Path(values["--plan"])),
        chroma_fixed=values.get("--chroma-fixed", "444"), cross_target="--cross-target" in values,
        out=values.get("--out") and str(Path(values["--out"])), formats=lists["--format"] or ["json"])


def run(argv) -> Outcome:
    cfg = parse_argv(argv)
    errors = [f"--alpha must be in [0, 1], got {a}" for a in cfg.alphas if not 0 <= a <= 1]
    errors += [f"--tolerance must be in [0, 0.5], got {cfg.tolerance}"] * (
        not 0 <= cfg.tolerance <= 0.5)
    if errors:
        return Outcome(1, stderr=f"error: {errors[0]}\n")
    if cfg.command == "sweep":
        if len(cfg.alphas) < 2:
            return Outcome(1, stderr="error: sweep needs at least two --alpha values\n")
        cfg.alphas.sort()
    datasets = parse_dataset([read_text(p) for p in cfg.inputs])
    if not datasets:
        return Outcome(1, stderr="error: no datasets in input\n")
    if cfg.plan is None and "fixed" in (*cfg.methods, cfg.reference):
        return Outcome(1, stderr="error: --plan is required for the fixed method\n")
    try:
        plan = cfg.plan and load_plan(Path(cfg.plan).read_text(encoding="utf-8-sig"))
    except InvalidPlan as exc:
        return Outcome(1, stderr=f"error: {exc}\n")
    command = {"optimize": _optimize, "pmf": _pmf}.get(cfg.command, _compare)
    return command(cfg, datasets, [_evaluate(cfg, ds, plan) for ds in datasets])


def groups(cfg) -> list[tuple]:
    """The (method, alpha) groups that the command evaluates for each title."""
    return [(m, a) for m in cfg.methods
            for a in (cfg.alphas if {m, cfg.reference} & set(ALPHA_METHODS) else [None])]


def _build(cfg, plan, index, method: str, alpha):
    mode, chroma = OptimizerMode(cfg.mode), ChromaFormat(cfg.chroma_fixed)
    if method == "arcs":
        return optimize_arcs(index, alpha, mode)
    if method == "dynres":
        return build_dynres(index, alpha, chroma, mode)
    return build_default(index) if method == "default" else build_fixed(index, plan, chroma)


def _evaluate(cfg, ds, plan) -> list[tuple]:
    """The title's (method, alpha, ladders, exclusion) per group: the ladders
    are (reference's, method's), or (method's,) with no reference; when a
    build fails they are None and the exclusion says why."""
    index, evaluations = CandidateIndex(ds, cfg.tolerance, cross_target=cfg.cross_target), []
    for method, alpha in groups(cfg):
        try:
            evaluations.append((method, alpha, [
                _build(cfg, plan, index, side, alpha if side in ALPHA_METHODS else None)
                for side in ([cfg.reference] if cfg.reference else []) + [method]], None))
        except LadderError as exc:
            evaluations.append((method, alpha, None, _exclusion(ds, method, alpha, exc)))
    return evaluations


def _exclusion(ds, method, alpha, exc) -> dict:
    return {"title": ds.title_id, "metric": ds.metric.value, "method": method, "alpha": alpha,
            "reason": str(exc)}


def ladder_payload(ladder, metric: str, mode: str, tolerance: float) -> dict:
    rungs = [{"target_kbps": rung.target_bitrate, "present": False} if rung.choice is None else {
        "target_kbps": rung.target_bitrate, "present": True,
        "height": rung.choice.resolution.height, "width": rung.choice.resolution.pixel_width,
        "chroma": rung.choice.chroma.value, "actual_kbps": rung.choice.actual_bitrate,
        "quality": rung.choice.quality.value, "decode_s_per_frame": rung.choice.decode_time,
        "j_prime": rung.j_prime} for rung in ladder.rungs]
    method = ladder.method.value
    return {"title": ladder.title_id, "metric": metric, "method": method, "alpha": ladder.alpha,
            "mode": mode if method in ALPHA_METHODS else None, "tolerance": tolerance,
            "rungs": rungs}


# -- commands -----------------------------------------------------------------------


def _optimize(cfg, datasets, evaluated) -> Outcome:
    ladders = [ladder_payload(built[0], ds.metric.value, cfg.mode, cfg.tolerance)
               for ds, evaluations in zip(datasets, evaluated) for *_, built, _ in evaluations
               if built]
    excluded = [x for evaluations in evaluated for *_, x in evaluations if x]
    payload = {"ladders": ladders, "excluded": excluded}
    stdout = "".join(f"SKIP {_title(x['title'])}/{x['metric']}/{x['method']}{_tag(x['alpha'])}: "
                     f"{x['reason']}\n" for x in excluded)
    if not ladders:
        return Outcome(2, stdout, "error: every ladder construction failed\n", payload=payload)
    if cfg.out is None:
        return Outcome(0, stdout + json_text(ladders), payload=payload)
    for l in ladders:
        if "/" in l["title"] or any(ord(c) < 32 for c in l["title"]):
            return Outcome(1, stderr=f"error: title {l['title']!r} contains '/' or a control "
                                     f"character and cannot name a ladder file in {cfg.out}\n")
    names = [f"{l['title']}__{l['metric']}__{l['method']}{_tag(l['alpha'])}.json" for l in ladders]
    for name, n in Counter(names).items():
        if n > 1:
            return Outcome(1, stderr=f"error: {n} ladders would be written to the same file "
                                     f"{Path(cfg.out) / name}; file names give an alpha to 6 "
                                     "significant digits\n")
    return Outcome(0, stdout + f"wrote {len(ladders)} ladder file(s) to {cfg.out}\n", payload=payload,
                   files=dict(zip(names, map(json_text, ladders))))


def _compare(cfg, datasets, evaluated) -> Outcome:
    """compare, or sweep: its frontier is compare's aggregate in alpha order."""
    entries, excluded, by_group = [], [], {}
    for ds, evaluations in zip(datasets, evaluated):
        metric, ladders, rows = ds.metric.value, {}, []
        for method, alpha, pair, exclusion in evaluations:
            for ladder in pair or ():
                ladders.setdefault((ladder.method, ladder.alpha), ladder)
            try:
                rate, time = (bd_delta(build_curve(pair[0], axis), build_curve(pair[1], axis))
                              for axis in CurveAxis) if pair else (None, None)
            except CurveError as exc:
                exclusion = _exclusion(ds, method, alpha, exc)
            if exclusion is not None:
                excluded.append(exclusion)
                continue
            rows.append({"method": method, "alpha": alpha, "metric": metric,
                         "reference": cfg.reference, "bdr_percent": rate.value_percent,
                         "bddt_percent": time.value_percent, "overlap_quality": list(rate.overlap)})
            by_group.setdefault((method, alpha, metric), []).append((rate, time))
        entries.append({"title": ds.title_id, "metric": metric, "ladders": [
            ladder_payload(ladder, metric, cfg.mode, cfg.tolerance) for ladder in ladders.values()],
            "bd": {"rows": rows}})
    n_titles = Counter(ds.metric.value for ds in datasets)
    rows = [{"method": method, "alpha": alpha, "metric": metric, "reference": cfg.reference,
             "mean_bdr_percent": aggregate(rate for rate, _ in results),
             "mean_bddt_percent": aggregate(time for _, time in results),
             "titles_used": len(results), "titles_excluded": n_titles[metric] - len(results)}
            for (method, alpha, metric), results in sorted(by_group.items(), key=lambda item: (
                item[0][0], -1.0 if item[0][1] is None else item[0][1], item[0][2]))]
    sweep, config = cfg.command == "sweep", {key: getattr(cfg, key) for key in CONFIG_KEYS}
    if sweep:
        rows.sort(key=lambda r: (r["alpha"], r["method"], r["metric"]))
    payload = ({"config": config, "frontier": rows, "excluded": excluded} if sweep else
               {"config": config, "titles": entries, "aggregate": {"rows": rows, "excluded": excluded}})
    if not rows:
        return Outcome(2, stderr="error: no comparison could be computed\n", payload=payload)
    name = "frontier" if sweep else "report"
    columns = ["alpha", "method"] if sweep else ["method", "alpha"]
    columns += ["metric", "mean_bdr_percent", "mean_bddt_percent", "titles_used", "titles_excluded"]
    bd_columns = ["title", "metric", "method", "alpha", "bdr_percent", "bddt_percent",
                  "overlap_q_low", "overlap_q_high"]
    curve_columns = ["title", "metric", "method", "alpha", "target_kbps", "actual_kbps", "quality",
                     "decode_s_per_frame", "chroma", "height"]
    files = [("json", f"{name}.json", json_text(payload)),
             ("markdown", f"{name}.md", _markdown(name, cfg.reference, rows, excluded)),
             ("csv", "frontier.csv" if sweep else "report_aggregate.csv",
              csv_text(columns, [[r[c] for c in columns] for r in rows])),
             ("csv", "report_bd.csv", csv_text(bd_columns, [
                 [e["title"], *(r[c] for c in bd_columns[1:6]), *r["overlap_quality"]]
                 for e in entries for r in e["bd"]["rows"]])),
             ("csv", "report_curves.csv", csv_text(curve_columns, [
                 [e["title"], *(l[c] for c in curve_columns[1:4]), *(r[c] for c in curve_columns[4:])]
                 for e in entries for l in e["ladders"] for r in l["rungs"] if r["present"]]))]
    summary = [f"reference: {cfg.reference}", f"{'method':<8} {'alpha':>6} {'metric':<6} "
               f"{'mean BDR%':>10} {'mean BDDT%':>11} {'titles':>7}"]
    summary += [f"{r['method']:<8} {_label(r['alpha']):>6} {r['metric']:<6} "
                f"{r['mean_bdr_percent']:>10.2f} {r['mean_bddt_percent']:>11.2f} "
                f"{r['titles_used']:>7}" for r in rows]
    summary += [f"excluded {_excluded_line(x)}" for x in excluded]
    return _emit(cfg, payload, files[:3] if sweep else files,
                 [*summary, f"{name} written to {cfg.out}"])


def _pmf(cfg, datasets, evaluated) -> Outcome:
    counts = {group: [0] * len(ChromaFormat) for group in groups(cfg)}
    failed = {group: [] for group in groups(cfg)}
    for method, alpha, built, exclusion in (e for evaluations in evaluated for e in evaluations):
        if exclusion is None:
            counts[method, alpha] = list(map(sum, zip(counts[method, alpha], count_chroma(built[0]))))
        else:
            failed[method, alpha].append(exclusion)
    rows = [{"method": method, "alpha": alpha,
             "pmf": {fmt.value: share for fmt, share in chroma_shares(n).items()},
             "present_rungs": sum(n)}
            for (method, alpha), n in counts.items() if len(failed[method, alpha]) < len(datasets)]
    payload = {"config": {key: getattr(cfg, key) for key in CONFIG_KEYS}, "pmf": rows,
               "excluded": [x for group in failed.values() for x in group]}
    if not rows:
        return Outcome(2, stderr="error: no ladder could be built\n", payload=payload)
    files = [("json", "pmf.json", json_text(payload)), ("csv", "pmf.csv", csv_text(
        ["method", "alpha", "share_420", "share_422", "share_444", "present_rungs"],
        [[r["method"], r["alpha"], *r["pmf"].values(), r["present_rungs"]] for r in rows]))]
    summary = [f"{r['method']:<8} alpha={_label(r['alpha']):>6}  420:{r['pmf']['420']:.3f}  "
               f"422:{r['pmf']['422']:.3f}  444:{r['pmf']['444']:.3f}" for r in rows]
    return _emit(cfg, payload, files, [*summary, f"pmf written to {cfg.out}"])


# -- text ---------------------------------------------------------------------------


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def read_text(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def csv_text(header, rows) -> str:
    def field(value) -> str:
        text = "" if value is None else str(value)
        return f'"{text.replace(chr(34), 2 * chr(34))}"' if any(c in text for c in ',"\r\n') else text

    return "".join(",".join(map(field, row)) + "\n" for row in [header, *rows])


def _emit(cfg, payload, files, summary) -> Outcome:
    if cfg.out is None:
        return Outcome(0, json_text(payload), payload=payload)
    return Outcome(0, "\n".join(summary) + "\n", payload=payload,
                   files={name: text for fmt, name, text in files if fmt in cfg.formats})


def _tag(alpha) -> str:
    return "" if alpha is None else f"__alpha{alpha:g}"


def _label(alpha) -> str:
    return "-" if alpha is None else f"{alpha:g}"


def _title(title: str) -> str:
    """A title as a printed line shows it: a JSON string if it holds a control character."""
    return json.dumps(title, ensure_ascii=False) if any(ord(c) < 32 for c in title) else title


def _excluded_line(x: dict) -> str:
    return f"{_title(x['title'])}/{x['metric']} {x['method']} alpha={_label(x['alpha'])}: {x['reason']}"


def _markdown(heading: str, reference: str, rows, excluded) -> str:
    label = {"cvvdp": "BDR_C/BDDT_C", "psnr": "BDR_P/BDDT_P"}
    lines = [f"# {heading}", "", f"Reference method: `{reference}`", "",
             "| method | alpha | metric | mean BDR [%] | mean BDDT [%] | titles | excluded |",
             "|---|---|---|---|---|---|---|"]
    lines += [f"| {r['method']} | {_label(r['alpha'])} | {label[r['metric']]} "
              f"| {r['mean_bdr_percent']:.2f} | {r['mean_bddt_percent']:.2f} "
              f"| {r['titles_used']} | {r['titles_excluded']} |" for r in rows]
    if excluded:
        lines += ["", "Excluded title evaluations:", *(f"- {_excluded_line(x)}" for x in excluded)]
    return "\n".join(lines) + "\n"
