"""Command-line pipeline: validate data, synthesize corpora, build ladders,
compare methods with Bjontegaard deltas, sweep alpha, and report chroma usage.

The four ladder commands (optimize, compare, sweep, pmf) share one evaluation
pass, ``_evaluate``: it parses every input file in one ``parse_dataset`` call,
so a title's metrics and records may be split over files in any way, loads the
plan, then runs each (method, alpha) builder of the command's table title by
title and turns per-title failures into exclusions. optimize, compare and
sweep build validated ``Ladder`` objects, and compare and sweep add
Bjontegaard deltas on top. pmf needs only chroma counts: arcs and dynres count
the solver's chosen rungs (``chroma_counts``) without building a ladder, and
default and fixed count their one built ladder. Every command hands its
payload to ``_emit``, which prints JSON or, with ``--out``, writes the
requested files and prints a summary. A value that JSON cannot encode fails
every command with exit 1 before any file is written, whatever ``--format``
asks for.

Ladders are rendered one title at a time, from ``str.format`` templates made
once per indent, with no payload dict per ladder or rung. A title's
``_RungText`` makes the texts of each distinct (record, target) once; they
fill both the rung's JSON and its ``report_curves.csv`` row, and each rung
adds only its ``j_prime``. ``_ladder_json`` writes a ladder for compare's
title entries and for optimize's ladder files alike. compare and optimize
make a title's text once, while the title is evaluated, and keep only that
text: compare its ``report.json`` entry and its ``report_bd.csv`` and
``report_curves.csv`` rows (``_report_title``), each BD value made into text
once for both files, and optimize each ladder's file or printed list item.

Exit codes: 0 success, 1 input/validation error, 2 computation error.
All reports are deterministic: titles are processed in lexicographic order and
JSON is emitted with a fixed field order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .bdmetrics import CurveAxis, aggregate, bd_delta, build_curve
from .errors import (
    ChromaLadderError,
    CurveError,
    DatasetError,
    DuplicateRecord,
    InvalidPlan,
    InvalidSpec,
    LadderError,
    MalformedRow,
    NonPositiveValue,
)
from .ladder import (
    CandidateIndex,
    Ladder,
    Method,
    OptimizerMode,
    build_default,
    build_dynres,
    build_fixed,
    chroma_counts,
    chroma_shares,
    count_chroma,
    graph_memo,
    load_plan,
    optimize_arcs,
)
from .measurements import (
    ChromaFormat,
    QualityMetric,
    TitleDataset,
    csv_line_writer,
    dataset_warnings,
    parse_dataset,
    serialized_pieces,
    source_records,
    title_text,
)
from .synth import default_spec, spec_from_json, sparse_spec, titles_in_order

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
    reference: Method | None = None
    plan_path: Path | None = None
    chroma_fixed: ChromaFormat = ChromaFormat.C444
    out_dir: Path | None = None
    formats: tuple[str, ...] = ("json",)
    cross_target: bool = False

    def __post_init__(self):
        # ``+ 0.0`` turns -0.0 into 0.0, which reports and file names then
        # echo; every command's config is made here.
        object.__setattr__(self, "alphas", tuple(a + 0.0 for a in self.alphas))
        object.__setattr__(self, "tolerance", self.tolerance + 0.0)
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"--alpha must be in [0, 1], got {a}")
        if not 0.0 <= self.tolerance <= 0.5:
            raise ValueError(f"--tolerance must be in [0, 0.5], got {self.tolerance}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Bad flags are input errors (exit 1), not argparse's default exit 2.
    def error(self, message):
        raise _UsageError(message)


def to_json_text(payload) -> str:
    """``json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False)``
    plus a final newline, byte for byte, except that a list of ``_JsonText``
    items, as the payload or as a value of a top-level dict (whose keys must
    be strings), is written as the items' texts: compare's title entries and
    optimize's printed ladders, each made for its place while its title was
    evaluated. The pieces are joined once, so no item's text is copied.
    """
    out: list[str] = []
    if type(payload) is dict and payload:
        sep = "{\n  "
        for key, value in payload.items():
            out += (sep, _encode_str(key), ": ")
            _value_json(value, "\n  ", out)
            sep = ",\n  "
        out.append("\n}")
    else:
        _value_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _value_json(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``, its lines after the
    first indented as ``newline``: a non-empty list of ``_JsonText`` items
    as their texts, anything else as ``json.dumps`` writes it."""
    if type(value) is list and value and all(type(item) is _JsonText for item in value):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out += (sep, item.text)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)
                   .replace("\n", newline))


def _finite_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


_encode_str = json.encoder.encode_basestring

# JSON text of each scalar type, as ``json.dumps`` writes it.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _finite_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _scalar(value) -> str:
    """JSON text of a plain scalar, as ``to_json_text`` writes it."""
    return _SCALAR_TEXT[type(value)](value)


class _JsonText:
    """A JSON value given as its finished text, made for the indent of its
    place. The text is held, not subclassed: a ``str`` subclass would copy
    it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# -- the evaluation pass ---------------------------------------------------------


# Each method's builder, given the run's config and plan, the title's candidate
# index and the alpha (None for the alpha-free methods). The index fixes the
# tolerance window, so each entry passes only what its method adds.
_BUILDERS = {
    Method.ARCS: lambda cfg, plan, index, alpha: optimize_arcs(index, alpha, cfg.mode),
    Method.DYNRES_JOD: lambda cfg, plan, index, alpha: build_dynres(
        index, alpha, cfg.chroma_fixed, cfg.mode),
    Method.DEFAULT: lambda cfg, plan, index, alpha: build_default(index),
    Method.FIXED_LADDER: lambda cfg, plan, index, alpha: build_fixed(index, plan, cfg.chroma_fixed),
}


# pmf's table: each method's present rungs counted by fidelity rank. The alpha
# methods count the solver's choices and build no ladder.
_PMF_BUILDERS = {
    Method.ARCS: lambda cfg, plan, index, alpha: chroma_counts(index, alpha, None, cfg.mode),
    Method.DYNRES_JOD: lambda cfg, plan, index, alpha: chroma_counts(
        index, alpha, cfg.chroma_fixed, cfg.mode),
    Method.DEFAULT: lambda cfg, plan, index, alpha: count_chroma(build_default(index)),
    Method.FIXED_LADDER: lambda cfg, plan, index, alpha: count_chroma(
        build_fixed(index, plan, cfg.chroma_fixed)),
}


def _datasets(sources: Iterable[str]) -> list[TitleDataset]:
    """``parse_dataset(sources)``; an input without a record raises ``DatasetError``."""
    datasets = parse_dataset(sources)
    if not datasets:
        raise DatasetError("no datasets in input")
    return datasets


def _read_datasets(paths: Iterable[Path]) -> list[TitleDataset]:
    """``_datasets`` of the files at ``paths``. A row error, or text that is
    not UTF-8, names its file: ``parse_dataset`` reads a file only when the
    parse reaches it, so the fault is in the file read last. A duplicate
    record, or a title with a lone surrogate (a JSON escape such as
    ``"\\ud800"``), which no UTF-8 report can hold, names every file that
    holds it: each file is then read again on its own."""
    read: list[Path] = []

    def texts():
        for path in paths:
            read.append(path)
            yield _read_text(path)

    def holders(match) -> str:
        return ", ".join(str(path) for path in dict.fromkeys(read)
                         if any(map(match, source_records(_read_text(path)))))

    try:
        datasets = _datasets(texts())
    except (MalformedRow, NonPositiveValue, UnicodeDecodeError) as exc:
        raise DatasetError(f"{read[-1]}: {exc}") from exc
    except DuplicateRecord as exc:
        key, metric = exc.key, exc.record.quality.metric
        raise DatasetError(f"{holders(lambda r: r.key == key and r.quality.metric is metric)}: "
                           f"{exc}") from exc
    for ds in datasets:
        title = ds.title_id
        try:
            title.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetError(f"{holders(lambda r: r.title_id == title)}: title "
                               f"{json.dumps(title)} holds a lone surrogate, which UTF-8 "
                               "cannot encode") from None
    return datasets


def _read_text(path: Path) -> str:
    """The text of an input file with its line ends as written: a quoted
    ``"\r"`` in a CSV field stays ``"\r"``, as it does in a JSON string."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _read_utf8(path: Path, error: type[ChromaLadderError]) -> str:
    """The text of a plan or spec file. Text that is not UTF-8 raises
    ``error``, naming the file as a measurement file's error does."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


def _evaluate(cfg: RunConfig, builders: dict[Method, Callable]
              ) -> Iterator[tuple[tuple[str, QualityMetric], list[tuple]]]:
    """Run ``builders`` (``_BUILDERS`` or ``_PMF_BUILDERS``) for every
    (title, method, alpha), one title at a time.

    Yields ``((title, metric), evaluations)`` in title order, each evaluation
    being ``(method, alpha, built, exclusion)`` in (method, alpha) order over
    ``cfg.methods``. ``built`` is ``(reference's result, method's result)``,
    or ``(method's result,)`` when ``cfg.reference`` is None; when a build
    fails it is None and ``exclusion`` says why. ``alpha`` is None unless the
    method or the reference is built with it. Every build of a title reads
    the title's one candidate index, each runs once, and only the current
    title's results are kept. The run's indexes share one ``graph_memo``.
    """
    datasets = _read_datasets(cfg.inputs)
    if cfg.plan_path is not None:
        plan = load_plan(_read_utf8(Path(cfg.plan_path), InvalidPlan))
    elif Method.FIXED_LADDER in (*cfg.methods, cfg.reference):
        raise InvalidPlan("--plan is required for the fixed method")
    else:
        plan = None
    # Each group lists its builds as (builder, alpha or None), and a title's
    # builds are memoized by them, not by method: hashing an enum member runs
    # in Python.
    sides = () if cfg.reference is None else (cfg.reference,)
    groups = [(method, alpha, tuple((builders[side], alpha if side in ALPHA_METHODS else None)
                                    for side in (*sides, method)))
              for method in cfg.methods
              for alpha in (cfg.alphas if ALPHA_METHODS & {method, cfg.reference} else (None,))]
    graphs = graph_memo()
    for ds in datasets:
        title, metric = key = ds.title_id, ds.metric
        index = CandidateIndex(ds, cfg.tolerance, cross_target=cfg.cross_target, graphs=graphs)
        build = functools.cache(lambda builder, alpha: builder(cfg, plan, index, alpha))
        evaluations = []
        for method, alpha, builds in groups:
            try:
                built = tuple(build(builder, side_alpha) for builder, side_alpha in builds)
            except LadderError as exc:
                evaluations.append((method, alpha, None, _exclusion(title, metric, method, alpha, exc)))
            else:
                evaluations.append((method, alpha, built, None))
        yield key, evaluations


def _exclusion(title, metric, method, alpha, exc) -> dict:
    return {
        "title": title,
        "metric": metric.value,
        "method": method.value,
        "alpha": alpha,
        "reason": str(exc),
    }


# -- payloads and output ---------------------------------------------------------


def _list_json(items: Sequence[str], newline: str) -> str:
    """The JSON list of the item texts ``items``, closing after ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


# A value that a template leaves open: ``_template`` writes a ``{}`` for it.
_SLOT = "\0"

# The objects that compare and optimize write from templates, a slot for
# each value that varies, with their keys in report order.
_SHAPES = {
    "rung": {"target_kbps": _SLOT, "present": True, "height": _SLOT, "width": _SLOT,
             "chroma": _SLOT, "actual_kbps": _SLOT, "quality": _SLOT,
             "decode_s_per_frame": _SLOT, "j_prime": _SLOT},
    "absent rung": {"target_kbps": _SLOT, "present": False},
    "ladder": {"title": _SLOT, "metric": _SLOT, "method": _SLOT, "alpha": _SLOT, "mode": _SLOT,
               "tolerance": _SLOT, "rungs": _SLOT},
    "title entry": {"title": _SLOT, "metric": _SLOT, "ladders": _SLOT, "bd": {"rows": _SLOT}},
    "bd row": {"method": _SLOT, "alpha": _SLOT, "metric": _SLOT, "reference": _SLOT,
               "bdr_percent": _SLOT, "bddt_percent": _SLOT, "overlap_quality": [_SLOT, _SLOT]},
}


@functools.cache
def _template(shape: str, newline: str) -> str:
    """The ``str.format`` template of ``_SHAPES[shape]`` closing after
    ``newline``: its ``json.dumps`` text, re-indented for its place, with a
    ``{}`` for each slot."""
    text = json.dumps(_SHAPES[shape], indent=2).replace("\n", newline)
    return text.replace("{", "{{").replace("}", "}}").replace('"\\u0000"', "{}")


@functools.cache
def _rung_head_template(newline: str) -> str:
    """The template of a present rung's text up to ``"j_prime": ``."""
    rung = _template("rung", newline)
    return rung[:rung.rindex("{}")]


def _rung_fields(rung) -> tuple[str, ...]:
    """The JSON texts of a rung's target and record values, made once per
    distinct (record, target) of a title: (target, height, width, chroma,
    actual, quality, decode time), or (target,) for an absent rung. Its
    ``report_curves.csv`` row shares the number texts, since json and csv
    write ints and finite floats alike; a non-finite value fails as JSON
    fails."""
    target = _scalar(rung.target_bitrate)
    rec = rung.choice
    if rec is None:
        return (target,)
    return (target, _scalar(rec.resolution.height), _scalar(rec.resolution.pixel_width),
            _encode_str(rec.chroma.value), _scalar(rec.actual_bitrate),
            _scalar(rec.quality.value), _scalar(rec.decode_time))


class _RungText:
    """One title's rung text, each distinct (record, target) made once.

    Every field of a present rung but ``j_prime`` depends only on its record
    and its target. So each distinct pair's values become texts once
    (``_rung_fields``); they fill the rung's JSON up to ``"j_prime": `` (per
    indent, from ``_rung_head_template``) and its curve row's fields. Each rung
    then adds its own ``j_prime``, or its ladder's row prefix. Absent rungs
    are keyed by target. Records are keyed by id and targets by their repr,
    so values that print differently (1000 and 1000.0) never share an entry.
    Ids are unique only while the title's ladders are alive, so a memo
    serves one title and is dropped with it.
    """

    def __init__(self):
        self.fields: dict = {}
        self.heads: dict[str, dict] = {}
        self.rows: dict = {}

    def _fields(self, rung, key) -> tuple[str, ...]:
        fields = self.fields.get(key)
        if fields is None:
            fields = self.fields[key] = _rung_fields(rung)
        return fields

    def json(self, ladder: Ladder, newline: str) -> str:
        """The JSON list of the ladder's rungs, closing after ``newline``."""
        inner = newline + "  "
        heads = self.heads.get(inner)
        if heads is None:
            heads = self.heads[inner] = {}
        present, absent = _rung_head_template(inner), _template("absent rung", inner)
        close = inner + "}"
        items = []
        for rung in ladder.rungs:
            rec = rung.choice
            target = repr(rung.target_bitrate)
            key = target if rec is None else (id(rec), target)
            head = heads.get(key)
            if head is None:
                head = heads[key] = (absent if rec is None else present).format(
                    *self._fields(rung, key))
            items.append(head if rec is None else head + _scalar(rung.j_prime) + close)
        return _list_json(items, newline)

    def csv(self, ladder: Ladder, prefix: str) -> str:
        """The curve rows of the ladder's present rungs, each ``prefix`` (its
        ladder's fields and a comma) plus the rung's fields."""
        rows, text = self.rows, []
        for rung in ladder.rungs:
            rec = rung.choice
            if rec is None:
                continue
            key = (id(rec), repr(rung.target_bitrate))
            row = rows.get(key)
            if row is None:
                target, height, _, _, actual, quality, decode = self._fields(rung, key)
                row = rows[key] = ",".join(
                    (target, actual, quality, decode, rec.chroma.value, height)) + "\n"
            text.append(prefix + row)
        return "".join(text)


def _ladder_json(ladder: Ladder, metric: QualityMetric, cfg: RunConfig, rungs: _RungText,
                 newline: str) -> str:
    """JSON text of a ladder, closing after ``newline``; its rungs come from
    the title's ``rungs``. Both compare's title entries and optimize's ladder
    files are written with it."""
    return _template("ladder", newline).format(
        _encode_str(ladder.title_id), _encode_str(metric.value), _encode_str(ladder.method.value),
        _scalar(ladder.alpha),
        _scalar(cfg.mode.value if ladder.method in ALPHA_METHODS else None),
        _scalar(cfg.tolerance), rungs.json(ladder, newline + "  "))


def _report_title(cfg: RunConfig, title: str, metric: QualityMetric, ladders: Sequence[Ladder],
                  bd_rows: Sequence[tuple]) -> tuple[_JsonText | None, str, str]:
    """compare's text of one evaluated title: its ``report.json`` entry (None
    when no JSON is written) and its ``report_bd.csv`` and
    ``report_curves.csv`` rows (empty without ``--format csv``), all from one
    ``_RungText``. ``bd_rows`` are ``(method, alpha, rate, time)``. Each BD
    value becomes text once, for both files and in every run, so a value
    that JSON cannot encode fails every ``--format``."""
    rungs = _RungText()
    values = [(method.value, alpha,
               *map(_scalar, (rate.value_percent, time.value_percent, *rate.overlap)))
              for method, alpha, rate, time in bd_rows]
    bd_csv = curves_csv = ""
    if cfg.out_dir is not None and "csv" in cfg.formats:
        # Only the title may need quoting: tags and numbers never do.
        head = csv_line_writer()([title, metric.value])[:-1] + ","
        bd_csv = "".join(f"{head}{method},{_csv_alpha(alpha)},{bdr},{bddt},{low},{high}\n"
                         for method, alpha, bdr, bddt, low, high in values)
        curves_csv = "".join(
            rungs.csv(ladder, f"{head}{ladder.method.value},{_csv_alpha(ladder.alpha)},")
            for ladder in ladders)
    if cfg.out_dir is not None and "json" not in cfg.formats:
        return None, bd_csv, curves_csv
    # A title entry is an item of report.json's "titles" list.
    newline = "\n    "
    inner = newline + "  "
    row_template = _template("bd row", inner + "    ")
    metric_text, reference = _encode_str(metric.value), _encode_str(cfg.reference.value)
    entry = _template("title entry", newline).format(
        _encode_str(title), metric_text,
        _list_json([_ladder_json(ladder, metric, cfg, rungs, inner + "  ")
                    for ladder in ladders], inner),
        _list_json([row_template.format(_encode_str(method), _scalar(alpha), metric_text,
                                        reference, *texts)
                    for method, alpha, *texts in values], inner + "  "))
    return _JsonText(entry), bd_csv, curves_csv


def _csv_alpha(alpha: float | None) -> str:
    """An alpha as csv writes it: empty for None."""
    return "" if alpha is None else _scalar(alpha)


def _config_payload(cfg: RunConfig) -> dict:
    return {
        "inputs": [str(p) for p in cfg.inputs],
        "alphas": list(cfg.alphas),
        "tolerance": cfg.tolerance,
        "mode": cfg.mode.value,
        "methods": [m.value for m in cfg.methods],
        "reference": None if cfg.reference is None else cfg.reference.value,
        "plan": None if cfg.plan_path is None else str(cfg.plan_path),
        "chroma_fixed": cfg.chroma_fixed.value,
        "cross_target": cfg.cross_target,
    }


def _alpha_tag(alpha: float | None) -> str:
    return "" if alpha is None else f"__alpha{alpha:g}"


def _alpha_label(alpha: float | None) -> str:
    return "-" if alpha is None else f"{alpha:g}"


# Characters written per call: a whole report encoded at once would hold its
# text twice, as str and as UTF-8 bytes.
_WRITE_SLICE = 1 << 20


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start:start + _WRITE_SLICE])


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    line = csv_line_writer()
    return line(header) + "".join(map(line, rows))


def _check_finite(values: Iterable[float]) -> None:
    """Raise json's ValueError for the first non-finite value, so that a
    report that JSON cannot encode fails in every ``--format``."""
    for value in values:
        _finite_float(value)


def _emit(cfg: RunConfig, payload, files: Sequence[tuple[str, str, Callable[[], str]]],
          summary: Sequence[str]) -> int:
    """Print ``payload`` as JSON when there is no ``--out``. Otherwise write
    each ``(format, name, render)`` file whose format was requested, then
    print the summary lines."""
    if cfg.out_dir is None:
        sys.stdout.write(to_json_text(payload))
        return EXIT_OK
    for fmt, name, render in files:
        if fmt in cfg.formats:
            _write_text(cfg.out_dir / name, render())
    print("\n".join(summary))
    return EXIT_OK


_COLUMN_LABEL = {"cvvdp": "BDR_C/BDDT_C", "psnr": "BDR_P/BDDT_P"}


def _render_markdown(heading: str, reference: Method, rows: list[dict], excluded: list[dict]) -> str:
    lines = [f"# {heading}", "", f"Reference method: `{reference.value}`", "",
             "| method | alpha | metric | mean BDR [%] | mean BDDT [%] | titles | excluded |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['method']} | {_alpha_label(row['alpha'])} | {_COLUMN_LABEL[row['metric']]} "
            f"| {row['mean_bdr_percent']:.2f} | {row['mean_bddt_percent']:.2f} "
            f"| {row['titles_used']} | {row['titles_excluded']} |"
        )
    if excluded:
        lines += ["", "Excluded title evaluations:"]
        lines += [f"- {title_text(ex['title'])}/{ex['metric']} {ex['method']} "
                  f"alpha={_alpha_label(ex['alpha'])}: {ex['reason']}" for ex in excluded]
    lines.append("")
    return "\n".join(lines)


def _render_summary(reference: Method, rows: list[dict], excluded: list[dict]) -> list[str]:
    lines = [f"reference: {reference.value}",
             f"{'method':<8} {'alpha':>6} {'metric':<6} {'mean BDR%':>10} {'mean BDDT%':>11} {'titles':>7}"]
    for row in rows:
        lines.append(
            f"{row['method']:<8} {_alpha_label(row['alpha']):>6} {row['metric']:<6} "
            f"{row['mean_bdr_percent']:>10.2f} {row['mean_bddt_percent']:>11.2f} "
            f"{row['titles_used']:>7}"
        )
    lines += [f"excluded {title_text(ex['title'])}/{ex['metric']} {ex['method']} "
              f"alpha={_alpha_label(ex['alpha'])}: {ex['reason']}" for ex in excluded]
    return lines


# -- commands ------------------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = RunConfig(inputs=tuple(Path(p) for p in args.input), tolerance=args.tolerance)
    errors, warns = [], []
    try:
        datasets = _read_datasets(cfg.inputs)
    except (DatasetError, OSError):
        # Name each file that fails to parse on its own, then parse the files
        # that did together, as the ladder commands read them.
        datasets, parsed = [], []  # parsed: (path, whether it holds a record)
        for path in cfg.inputs:
            try:
                parsed.append((path, bool(parse_dataset(_read_text(path)))))
            except (DatasetError, OSError, UnicodeDecodeError) as exc:
                errors.append(f"{path}: {exc}")
        if any(found for _, found in parsed) or not errors:
            try:
                datasets = _read_datasets(path for path, _ in parsed)
            except DatasetError as exc:
                errors.append(str(exc))
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
        spec = spec_from_json(_read_utf8(Path(args.spec), InvalidSpec))
    elif args.preset == "sparse":
        spec = sparse_spec()
    else:
        spec = default_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.titles is not None:
        spec = replace(spec, titles=args.titles)
    # Each title is written as it is made, then dropped. The text goes to a
    # temporary file first, so a title that fails leaves no output. Imported
    # here: the ladder commands do not pay for loading them.
    import shutil
    import tempfile

    pieces = serialized_pieces(titles_in_order(spec), args.format)
    if args.out is None:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
            spool.writelines(pieces)
            spool.seek(0)
            shutil.copyfileobj(spool, sys.stdout)
        return EXIT_OK
    path = Path(args.out)
    # The text is renamed onto --out, which would replace a device or pipe
    # and fail on a directory: refuse them before any title is made.
    if path.exists() and not path.is_file():
        raise ValueError(f"{args.out}: not a regular file; to write to a pipe, use stdout")
    path = path.resolve()  # a symlink's target is replaced, not the link
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=".synth-", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        # mkstemp's file is private; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp, 0o666 & ~umask)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    n = spec.titles * len(spec.resolutions) * len(spec.chromas) * len(spec.targets_kbps)
    print(f"wrote {spec.titles} title(s), {n} record(s) to {args.out}")
    return EXIT_OK


# The longest file name, in UTF-8 bytes, that a ladder may have: the limit of
# the common file systems, fixed so that the outcome is the same everywhere.
_NAME_BYTES = 255


def cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    # Each ladder's text is made for its place while its title is evaluated:
    # a file of its own with --out, else an item of the printed list.
    place = "\n  " if cfg.out_dir is None else "\n"
    ladders, skipped = [], []  # ladders: (title, file name, text)
    for (_, metric), evaluations in _evaluate(cfg, _BUILDERS):
        rungs = _RungText()
        for _, _, built, ex in evaluations:
            if ex is not None:
                skipped.append(f"{title_text(ex['title'])}/{ex['metric']}/{ex['method']}"
                               f"{_alpha_tag(ex['alpha'])}: {ex['reason']}")
                continue
            ladder = built[0]
            ladders.append((ladder.title_id, f"{ladder.title_id}__{metric.value}__"
                            f"{ladder.method.value}{_alpha_tag(ladder.alpha)}.json",
                            _ladder_json(ladder, metric, cfg, rungs, place)))
    if cfg.out_dir is not None:
        # A title names its ladder files, so it must not lead out of --out,
        # put a control character (NUL and line breaks among them) in a file
        # name or make one too long, and no two ladders may share a file.
        for title, name, _ in ladders:
            if "/" in title or any(c < " " for c in title):
                raise ValueError(f"title {title!r} contains '/' or a control character "
                                 f"and cannot name a ladder file in {cfg.out_dir}")
            if len(name.encode("utf-8")) > _NAME_BYTES:
                raise ValueError(f"title {title!r} is too long to name a ladder file in "
                                 f"{cfg.out_dir}: a file name has at most {_NAME_BYTES} bytes")
        for name, count in Counter(name for _, name, _ in ladders).items():
            if count > 1:
                raise ValueError(f"{count} ladders would be written to the same file "
                                 f"{cfg.out_dir / name}; file names give an alpha to 6 "
                                 "significant digits")
    for line in skipped:
        print(f"SKIP {line}")
    if not ladders:
        print("error: every ladder construction failed", file=sys.stderr)
        return EXIT_COMPUTE
    return _emit(cfg, [_JsonText(text) for _, _, text in ladders],
                 [("json", name, lambda text=text: text + "\n") for _, name, text in ladders],
                 [f"wrote {len(ladders)} ladder file(s) to {cfg.out_dir}"])


_BD_AXES = (CurveAxis.QUALITY_VS_LOG_RATE, CurveAxis.QUALITY_VS_LOG_TIME)


class _TitleMemo:
    """One title's BD curves and deltas, each computed once: ``curves`` maps
    the ids of a ladder's chosen records, in rung order, to its (rate, time)
    curves, whichever ladder chose them, and ``deltas`` maps a (ref, test)
    pair of such keys to its (rate, time) deltas. ``keys`` holds each
    ladder's key by the ladder's id, so the reference ladder, which every
    group of a title shares, is keyed once. Ids are unique only while the
    title's ladders and records are alive, so a memo serves one title."""

    def __init__(self):
        self.curves, self.deltas, self.keys = {}, {}, {}

    def key(self, ladder: Ladder) -> tuple:
        key = self.keys.get(id(ladder))
        if key is None:
            key = self.keys[id(ladder)] = tuple(
                id(rung.choice) for rung in ladder.rungs if rung.choice is not None)
        return key


def _bd_pair(memo: _TitleMemo, ref: Ladder, test: Ladder):
    """(delta-rate, delta-decode-time) results of test vs ref.

    Only successes are stored: a failing fit or delta raises again for each
    ladder that reaches it, with that ladder's own message. Both axes fit the
    same Pareto-filtered qualities, so they fail together, with one message.
    """
    keys = (memo.key(ref), memo.key(test))
    for key, ladder in zip(keys, (ref, test)):
        if key not in memo.curves:
            memo.curves[key] = tuple(build_curve(ladder, axis) for axis in _BD_AXES)
    if keys not in memo.deltas:
        ref_curves, test_curves = map(memo.curves.__getitem__, keys)
        memo.deltas[keys] = tuple(map(bd_delta, ref_curves, test_curves))
    return memo.deltas[keys]


def _compare(cfg: RunConfig, title_done: Callable[..., None] | None = None
             ) -> tuple[list[dict], list[dict]]:
    """Bjontegaard deltas of ``cfg.methods`` against ``cfg.reference``.

    Returns the aggregate rows per (method, alpha, metric) and the exclusions
    in title order. Once a title is evaluated, ``title_done``, if given, is
    called with the title, its metric, each distinct (method, alpha) ladder
    once, and its BD rows ``(method, alpha, rate, time)``; no more of the
    title is kept. Within a title, each distinct set of chosen records is
    fitted once per axis and each distinct pair of curves is compared once,
    whichever groups share them.
    """
    excluded = []
    rows_by_group: dict[tuple, list[tuple[float, float]]] = {}
    # Titles are counted per metric: a title measured in both metrics has a
    # dataset, and a row, for each.
    n_titles: Counter = Counter()
    for (title, metric), evaluations in _evaluate(cfg, _BUILDERS):
        n_titles[metric] += 1
        ladders, bd_rows, memo = {}, [], _TitleMemo()
        for method, alpha, pair, exclusion in evaluations:
            if pair is not None:
                for ladder in pair:
                    ladders.setdefault((ladder.method, ladder.alpha), ladder)
                try:
                    rate, time = _bd_pair(memo, *pair)
                except CurveError as exc:
                    exclusion = _exclusion(title, metric, method, alpha, exc)
            if exclusion is not None:
                excluded.append(exclusion)
                continue
            bd_rows.append((method, alpha, rate, time))
            rows_by_group.setdefault((method, alpha, metric), []).append((rate, time))
        if title_done is not None:
            title_done(title, metric, tuple(ladders.values()), bd_rows)
    agg_rows = []
    for method, alpha, metric in sorted(
        rows_by_group, key=lambda g: (g[0].value, -1.0 if g[1] is None else g[1], g[2].value)
    ):
        vals = rows_by_group[method, alpha, metric]
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
    return agg_rows, excluded


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    texts = []  # per title: its report.json entry, report_bd.csv and report_curves.csv rows
    rows, excluded = _compare(cfg, lambda *title: texts.append(_report_title(cfg, *title)))
    if not rows:
        print("error: no comparison could be computed", file=sys.stderr)
        return EXIT_COMPUTE
    _check_finite(value for row in rows for value in (row["mean_bdr_percent"], row["mean_bddt_percent"]))
    report = {
        "config": _config_payload(cfg),
        "titles": [entry for entry, _, _ in texts],
        "aggregate": {"rows": rows, "excluded": excluded},
    }
    bd_columns = ["title", "metric", "method", "alpha", "bdr_percent",
                  "bddt_percent", "overlap_q_low", "overlap_q_high"]
    curve_columns = ["title", "metric", "method", "alpha", "target_kbps", "actual_kbps",
                     "quality", "decode_s_per_frame", "chroma", "height"]
    aggregate_columns = ["method", "alpha", "metric", "mean_bdr_percent",
                         "mean_bddt_percent", "titles_used", "titles_excluded"]
    files = [
        ("json", "report.json", lambda: to_json_text(report)),
        ("markdown", "report.md", lambda: _render_markdown("report", cfg.reference, rows, excluded)),
        ("csv", "report_bd.csv", lambda: "".join([_csv_lines(bd_columns, []),
                                                  *(bd for _, bd, _ in texts)])),
        ("csv", "report_curves.csv", lambda: "".join([_csv_lines(curve_columns, []),
                                                      *(curves for _, _, curves in texts)])),
        ("csv", "report_aggregate.csv", lambda: _csv_lines(
            aggregate_columns, [[r[c] for c in aggregate_columns] for r in rows])),
    ]
    summary = _render_summary(cfg.reference, rows, excluded)
    return _emit(cfg, report, files, [*summary, f"report written to {cfg.out_dir}"])


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args, default_alphas=SWEEP_DEFAULT_ALPHAS)
    if len(cfg.alphas) < 2:
        print("error: sweep needs at least two --alpha values", file=sys.stderr)
        return EXIT_INPUT
    cfg = replace(cfg, alphas=tuple(sorted(cfg.alphas)), methods=(Method.ARCS, Method.DYNRES_JOD))
    rows, excluded = _compare(cfg)
    if not rows:
        print("error: no comparison could be computed", file=sys.stderr)
        return EXIT_COMPUTE
    rows.sort(key=lambda r: (r["alpha"], r["method"], r["metric"]))
    _check_finite(value for row in rows for value in (row["mean_bdr_percent"], row["mean_bddt_percent"]))
    frontier = {"config": _config_payload(cfg), "frontier": rows, "excluded": excluded}
    columns = ["alpha", "method", "metric", "mean_bdr_percent",
               "mean_bddt_percent", "titles_used", "titles_excluded"]
    files = [
        ("json", "frontier.json", lambda: to_json_text(frontier)),
        ("csv", "frontier.csv", lambda: _csv_lines(columns, [[r[c] for c in columns] for r in rows])),
        ("markdown", "frontier.md", lambda: _render_markdown("frontier", cfg.reference, rows, excluded)),
    ]
    summary = _render_summary(cfg.reference, rows, excluded)
    return _emit(cfg, frontier, files, [*summary, f"frontier written to {cfg.out_dir}"])


def cmd_pmf(args) -> int:
    cfg = _config_from_args(args)
    # Every title yields every (method, alpha) group in the same order, so the
    # first title fixes the order of the rows and of the exclusions, and a
    # group is found by its position. Each title gives its present rungs
    # counted by fidelity rank; they are added to its group's counts.
    groups: list[tuple[Method, float | None, list[int], list[dict]]] = []
    n_titles = 0
    for _, evaluations in _evaluate(cfg, _PMF_BUILDERS):
        if not groups:
            groups = [(method, alpha, [0] * len(ChromaFormat), [])
                      for method, alpha, _, _ in evaluations]
        n_titles += 1
        for (_, _, counts, failed), (_, _, built, exclusion) in zip(groups, evaluations):
            if exclusion is None:
                for rank, n in enumerate(built[0]):
                    counts[rank] += n
            else:
                failed.append(exclusion)
    rows, excluded = [], []
    for method, alpha, counts, failed in groups:
        excluded.extend(failed)
        if len(failed) == n_titles:
            continue
        pmf = chroma_shares(counts)
        rows.append(
            {
                "method": method.value,
                "alpha": alpha,
                "pmf": {fmt.value: pmf[fmt] for fmt in ChromaFormat},
                "present_rungs": sum(counts),
            }
        )
    if not rows:
        print("error: no ladder could be built", file=sys.stderr)
        return EXIT_COMPUTE
    payload = {"config": _config_payload(cfg), "pmf": rows, "excluded": excluded}
    files = [
        ("json", "pmf.json", lambda: to_json_text(payload)),
        ("csv", "pmf.csv", lambda: _csv_lines(
            ["method", "alpha", "share_420", "share_422", "share_444", "present_rungs"],
            [[r["method"], r["alpha"], r["pmf"]["420"], r["pmf"]["422"],
              r["pmf"]["444"], r["present_rungs"]] for r in rows],
        )),
    ]
    summary = [
        f"{r['method']:<8} alpha={_alpha_label(r['alpha']):>6}  420:{r['pmf']['420']:.3f}  "
        f"422:{r['pmf']['422']:.3f}  444:{r['pmf']['444']:.3f}"
        for r in rows
    ]
    return _emit(cfg, payload, files, [*summary, f"pmf written to {cfg.out_dir}"])


# -- argument plumbing ---------------------------------------------------------


def _config_from_args(args, default_alphas: tuple[float, ...] = (0.0,)) -> RunConfig:
    # -0.0 == 0.0, so duplicates collapse whichever sign comes first.
    return RunConfig(
        inputs=tuple(Path(p) for p in args.input),
        alphas=tuple(dict.fromkeys(args.alpha)) if args.alpha else default_alphas,
        tolerance=args.tolerance,
        mode=OptimizerMode(args.mode),
        methods=(tuple(dict.fromkeys(Method(m) for m in args.method))
                 if getattr(args, "method", None) else (Method.ARCS,)),
        reference=Method(args.reference) if getattr(args, "reference", None) else None,
        plan_path=Path(args.plan) if args.plan else None,
        chroma_fixed=ChromaFormat(args.chroma_fixed),
        out_dir=Path(args.out) if args.out else None,
        formats=tuple(args.format) if getattr(args, "format", None) else ("json",),
        cross_target=args.cross_target,
    )


# The dataset commands' flags, in help order. Each command registers only the
# flags it reads, and --format only with the formats it writes.
_FLAGS = {
    "--input": dict(action="append", required=True,
                    help="dataset file (CSV or JSON); repeatable"),
    "--alpha": dict(action="append", type=float,
                    help="trade-off weight in [0, 1]; repeatable"),
    "--tolerance": dict(type=float, default=0.10,
                        help="bitrate window as a fraction (default 0.10)"),
    "--mode": dict(choices=["dp", "greedy"], default="dp",
                   help="optimizer mode (default dp)"),
    "--method": dict(action="append", choices=[m.value for m in Method],
                     help="ladder method; repeatable (default arcs)"),
    "--reference": dict(choices=[m.value for m in Method], default="default",
                        help="reference method (default: default)"),
    "--plan": dict(help="fixed-ladder plan CSV (target_kbps,height)"),
    "--chroma-fixed": dict(choices=["420", "422", "444"], default="444",
                           help="chroma format for fixed/dynres methods (default 444)"),
    "--out": dict(help="output directory"),
    "--format": dict(action="append", help="output format; repeatable (default json)"),
    "--cross-target": dict(action="store_true",
                           help="let encodes serve other targets whose window they hit"),
}
_LADDER_FLAGS = ("--input", "--alpha", "--tolerance", "--mode", "--plan",
                 "--chroma-fixed", "--out", "--cross-target")
_REPORT_FORMATS = ("json", "csv", "markdown")


def _add_flags(sub, *names: str, formats: tuple[str, ...] = ()) -> None:
    for name, kwargs in _FLAGS.items():
        if name == "--format" and formats:
            sub.add_argument(name, choices=formats, **kwargs)
        elif name in names:
            sub.add_argument(name, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chromaladder",
                     description="Energy-aware bitrate ladders with adaptive chroma subsampling.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check dataset files, list errors and warnings")
    _add_flags(p, "--input", "--tolerance")
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
    _add_flags(p, *_LADDER_FLAGS, "--method")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("compare", help="Bjontegaard deltas of methods vs a reference")
    _add_flags(p, *_LADDER_FLAGS, "--method", "--reference", formats=_REPORT_FORMATS)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("sweep", help="alpha sweep frontier for arcs and dynres")
    _add_flags(p, *_LADDER_FLAGS, "--reference", formats=_REPORT_FORMATS)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("pmf", help="chroma-format usage share per alpha")
    _add_flags(p, *_LADDER_FLAGS, "--method", formats=("json", "csv"))
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
    except (DatasetError, InvalidSpec, InvalidPlan, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChromaLadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
