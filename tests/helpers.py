"""Shared constructors for hand-built and randomized measurement datasets,
ladder summaries (present rungs, summed objective, chroma shares), a
vectorized PCHIP evaluator for quadrature checks, a frozen numpy-scalar PCHIP
integrator that the float implementation must match, a frozen row-by-row
ingest that the parser's fast path must match, the frozen per-ladder BD
curves that the CLI's per-record-set memo must match, a frozen DP graph
compiler that keeps every reachable state, which the live-state graphs must
solve alike, and a frozen report renderer (a dict payload per rung, through
``json.dumps`` and ``csv.writer``) that the per-title rung text must match."""

from __future__ import annotations

import csv
import io
import json
import math
import operator

import numpy as np

from chromaladder import (
    ChromaFormat,
    MeasurementRecord,
    QualityMetric,
    QualityScore,
    Resolution,
    TitleDataset,
    bounds_for,
    candidates_for,
    normalized_log_time,
    normalized_quality,
)
from chromaladder import cli
from chromaladder.bdmetrics import CurveAxis, bd_delta, build_curve
from chromaladder.errors import (
    DatasetError,
    DuplicateRecord,
    MalformedRow,
    NonPositiveValue,
)
from chromaladder.ladder import _Graph, _step_ok, chroma_shares, count_chroma
from chromaladder.measurements import CSV_HEADER

JOD = QualityMetric.CVVDP_JOD
C420, C422, C444 = ChromaFormat.C420, ChromaFormat.C422, ChromaFormat.C444


def record(
    title="t",
    height=1080,
    chroma=C420,
    target=600.0,
    actual=None,
    quality=7.0,
    decode=0.05,
    metric=JOD,
):
    return MeasurementRecord(
        title_id=title,
        resolution=Resolution(height),
        chroma=chroma,
        target_bitrate=float(target),
        actual_bitrate=float(target if actual is None else actual),
        quality=QualityScore(metric, float(quality)),
        decode_time=float(decode),
    )


def grid_dataset(
    quality_fn,
    decode_fn,
    *,
    title="t",
    heights=(1080, 2160),
    chromas=(C420, C422, C444),
    targets=(600.0, 2400.0, 9000.0),
    actual_fn=None,
):
    """Full (resolution, chroma, target) grid with caller-supplied laws."""
    recs = []
    for h in heights:
        for c in chromas:
            for b in targets:
                recs.append(
                    record(
                        title,
                        h,
                        c,
                        b,
                        actual=None if actual_fn is None else actual_fn(h, c, b),
                        quality=quality_fn(h, c, b),
                        decode=decode_fn(h, c, b),
                    )
                )
    return TitleDataset.from_records(recs)


def random_dataset(
    rng: np.random.Generator,
    *,
    title="rand",
    max_targets=6,
    p_missing=0.3,
    tie_prob=0.3,
    jitter=0.15,
):
    """Adversarial random instance: sparse pools, off-window encodes, exact ties."""
    while True:
        n = int(rng.integers(1, max_targets + 1))
        targets = sorted({float(round(b, 1)) for b in rng.uniform(300.0, 20000.0, size=n)})
        recs = []
        for t in targets:
            for h in (1080, 2160):
                for c in (C420, C422, C444):
                    if rng.random() < p_missing:
                        continue
                    actual = t * (1.0 + jitter * (2.0 * rng.random() - 1.0))
                    q = float(rng.uniform(2.0, 9.5))
                    if rng.random() < tie_prob:
                        q = round(q * 4.0) / 4.0
                    d = float(rng.uniform(0.01, 0.6))
                    if rng.random() < tie_prob:
                        d = max(round(d * 50.0) / 50.0, 0.02)
                    recs.append(record(title, h, c, t, actual, q, d))
        if not recs:
            continue
        ds = TitleDataset.from_records(recs)
        if any(candidates_for(ds, t, 0.10) for t in ds.bitrate_targets):
            return ds


def present_rungs(ladder):
    """The ladder's present rungs, in target order."""
    return tuple(r for r in ladder.rungs if r.present)


def sum_j_prime(ladder):
    """The summed objective of the rungs that carry one."""
    return sum(r.j_prime for r in ladder.rungs if r.j_prime is not None)


def chroma_pmf(ladders):
    """Share of present rungs per chroma format across ``ladders``."""
    return chroma_shares([sum(n) for n in zip(*map(count_chroma, ladders))])


def ladder_sums(ladder, dataset):
    """(sum of normalized quality, sum of normalized log time) over present rungs."""
    b = bounds_for(dataset)
    sq = sum(
        normalized_quality(r.choice.quality.value, b)
        for r in ladder.rungs
        if r.choice is not None
    )
    sd = sum(
        normalized_log_time(r.choice.decode_time, b)
        for r in ladder.rungs
        if r.choice is not None
    )
    return sq, sd


# -- frozen numpy-scalar PCHIP: the reference for bit-exact BD integration --------


def oracle_pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    h = np.diff(x)
    delta = np.diff(y) / h
    n = x.size
    if n == 2:
        return np.array([delta[0], delta[0]])
    d = np.zeros(n)
    for k in range(1, n - 1):
        if delta[k - 1] == 0.0 or delta[k] == 0.0 or (delta[k - 1] < 0) != (delta[k] < 0):
            d[k] = 0.0
        else:
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            d[k] = (w1 + w2) / (w1 / delta[k - 1] + w2 / delta[k])
    d[0] = oracle_edge_slope(h[0], h[1], delta[0], delta[1])
    d[-1] = oracle_edge_slope(h[-1], h[-2], delta[-1], delta[-2])
    return d


def oracle_edge_slope(h0, h1, d0, d1):
    d = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(d) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(d) > 3 * abs(d0):
        return 3 * d0
    return float(d)


def oracle_segment_integral(x, y, d, k, a, b):
    h = x[k + 1] - x[k]
    ta = (a - x[k]) / h
    tb = (b - x[k]) / h

    def antiderivative(t):
        t2 = t * t
        t3 = t2 * t
        t4 = t2 * t2
        h00 = 0.5 * t4 - t3 + t
        h10 = 0.25 * t4 - (2.0 / 3.0) * t3 + 0.5 * t2
        h01 = -0.5 * t4 + t3
        h11 = 0.25 * t4 - t3 / 3.0
        return h00 * y[k] + h10 * h * d[k] + h01 * y[k + 1] + h11 * h * d[k + 1]

    return h * (antiderivative(tb) - antiderivative(ta))


def oracle_integrate(xs, ys, a, b):
    """PCHIP integral of (xs, ys) over [a, b], evaluated on numpy scalars."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    d = oracle_pchip_slopes(x, y)
    total = 0.0
    lo = int(np.clip(np.searchsorted(x, a, side="right") - 1, 0, x.size - 2))
    hi = int(np.clip(np.searchsorted(x, b, side="right") - 1, 0, x.size - 2))
    for k in range(lo, hi + 1):
        seg_a = max(a, x[k])
        seg_b = min(b, x[k + 1])
        if seg_b <= seg_a:
            continue
        total += oracle_segment_integral(x, y, d, k, seg_a, seg_b)
    return total


def oracle_bd_percent(ref_points, test_points):
    """BD percentage of test vs reference point lists, through ``oracle_integrate``."""
    (rq, ry), (tq, ty) = zip(*ref_points), zip(*test_points)
    q_low, q_high = max(rq[0], tq[0]), min(rq[-1], tq[-1])
    mean_log_diff = (oracle_integrate(tq, ty, q_low, q_high)
                     - oracle_integrate(rq, ry, q_low, q_high)) / (q_high - q_low)
    return (math.exp(mean_log_diff) - 1.0) * 100.0


def pchip_values(curve, t) -> np.ndarray:
    """A fitted ``PchipCurve`` evaluated at the points ``t`` (Hermite form)."""
    x, y, d = np.array(curve.x), np.array(curve.y), np.array(curve.d)
    t = np.asarray(t, dtype=float)
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    s = (t - x[k]) / h
    h00 = (2 * s - 3) * s * s + 1
    h10 = ((s - 2) * s + 1) * s
    h01 = (3 - 2 * s) * s * s
    h11 = (s - 1) * s * s
    return h00 * y[k] + h10 * h * d[k] + h01 * y[k + 1] + h11 * h * d[k + 1]


# -- frozen row-by-row ingest: the reference for the parser's fast path ---------
#
# The parser as it was before rows took a fast path: every row is checked and
# built through the public constructors, then grouped by (title, metric) over
# the rows of every text as one stream. Kept as it was apart from names, from
# the row that ``NonPositiveValue`` now names (with "finite and" for the three
# float values), from the grouping, which was by title within one text, from
# a ``csv.Error``, which now becomes a ``MalformedRow``, and from the format
# argument, which the parser no longer takes.


def oracle_parse_dataset(texts: str | list[str]) -> list[TitleDataset]:
    texts = [texts] if isinstance(texts, str) else texts
    return _oracle_group_records(_oracle_records(
        row for text in texts for row in _oracle_rows(text)))


def _oracle_rows(text: str):
    text = text.removeprefix("\ufeff")
    if text.lstrip()[:1] in ("[", "{"):
        return _oracle_rows_from_json(text)
    return _oracle_rows_from_csv(text)


def _oracle_rows_from_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise MalformedRow(0, f"invalid CSV: {exc}") from None
    if header is None:
        raise MalformedRow(0, "empty input, header required")
    got = [name.strip() for name in header]
    if sorted(got) != sorted(CSV_HEADER):
        raise MalformedRow(0, f"header must contain exactly {','.join(CSV_HEADER)}; got {','.join(got)}")
    in_header_order = operator.itemgetter(*(got.index(name) for name in CSV_HEADER))
    row = 0
    try:
        for values in reader:
            if not values:
                continue
            row += 1
            if len(values) != len(got):
                raise MalformedRow(row, "wrong number of fields")
            yield row, in_header_order(values)
    except csv.Error as exc:
        raise MalformedRow(row + 1, f"invalid CSV: {exc}") from None


def _oracle_rows_from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRow(0, f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedRow(0, "JSON input must be an array of objects")
    in_header_order = operator.itemgetter(*CSV_HEADER)
    for row, obj in enumerate(data, start=1):
        if not isinstance(obj, dict):
            raise MalformedRow(row, "array entry is not an object")
        if obj.keys() != frozenset(CSV_HEADER):
            raise MalformedRow(row, f"object keys must be exactly {','.join(CSV_HEADER)}")
        yield row, in_header_order(obj)


def _oracle_records(rows) -> list[MeasurementRecord]:
    chroma_by_tag = {c.value: c for c in ChromaFormat}
    metric_by_tag = {m.value: m for m in QualityMetric}
    resolutions: dict[int, Resolution] = {}
    records = []
    for row, (title, height, chroma, target, actual, metric, quality, decode) in rows:
        if not isinstance(title, str):
            raise MalformedRow(row, f"title {title!r} is not a string")
        title = title.strip()
        if not title:
            raise MalformedRow(row, "empty title")
        try:
            height_px = int(str(height).strip())
        except ValueError:
            raise MalformedRow(row, f"height {height!r} is not an integer") from None
        chroma_tag = str(chroma).strip()
        chroma_format = chroma_by_tag.get(chroma_tag)
        if chroma_format is None:
            raise MalformedRow(row, f"chroma {chroma_tag!r} not one of 420/422/444")
        metric_tag = str(metric).strip()
        quality_metric = metric_by_tag.get(metric_tag)
        if quality_metric is None:
            raise MalformedRow(row, f"metric {metric_tag!r} not one of cvvdp/psnr")
        target_kbps = _oracle_number(row, "target_kbps", target)
        actual_kbps = _oracle_number(row, "actual_kbps", actual)
        value = _oracle_number(row, "quality", quality)
        decode_s = _oracle_number(row, "decode_s_per_frame", decode)
        try:
            score = QualityScore(quality_metric, value)
        except ValueError as exc:
            raise MalformedRow(row, str(exc)) from None
        resolution = resolutions.get(height_px)
        if resolution is None:
            try:
                resolution = Resolution(height_px)
            except NonPositiveValue as exc:
                raise NonPositiveValue(exc.field, row=row) from None
            try:
                resolution.pixel_width
            except OverflowError:
                raise MalformedRow(row, "height is an integer too large for a float") from None
            resolutions[height_px] = resolution
        try:
            records.append(MeasurementRecord(
                title, resolution, chroma_format, target_kbps, actual_kbps, score, decode_s))
        except NonPositiveValue as exc:
            raise NonPositiveValue(exc.field, f"title {title!r}", row=row, finite=True) from None
    return records


def _oracle_number(row: int, name: str, value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
        except OverflowError:
            raise MalformedRow(row, f"{name} is an integer too large for a float") from None
    raise MalformedRow(row, f"{name} {value!r} is not a number")


def _oracle_group_records(records) -> list[TitleDataset]:
    seen = set()
    by_key: dict[tuple[str, str], list[MeasurementRecord]] = {}
    for rec in records:
        if (rec.key, rec.quality.metric) in seen:
            raise DuplicateRecord(rec)
        seen.add((rec.key, rec.quality.metric))
        by_key.setdefault((rec.title_id, rec.quality.metric.value), []).append(rec)
    return [TitleDataset.from_records(by_key[k]) for k in sorted(by_key)]


def oracle_datasets(texts: list[str]) -> list[TitleDataset]:
    """The CLI's parse of its input files; an input without a record raises
    ``DatasetError``."""
    datasets = oracle_parse_dataset(texts)
    if not datasets:
        raise DatasetError("no datasets in input")
    return datasets


# -- frozen per-ladder BD curves --------------------------------------------
# ``cli._curve`` and ``cli._bd_pair`` as they were before curves were shared
# by record set: each (method, alpha) ladder's two curves are fitted once per
# title into ``curves``, a plain dict per title, and every (method, alpha)
# group computes its deltas afresh.


def oracle_curve(curves: dict, ladder, axis: CurveAxis):
    key = (ladder.method, ladder.alpha, axis)
    if key not in curves:
        curves[key] = build_curve(ladder, axis)
    return curves[key]


def oracle_bd_pair(curves: dict, ref, test):
    return tuple(bd_delta(oracle_curve(curves, ref, axis), oracle_curve(curves, test, axis))
                 for axis in (CurveAxis.QUALITY_VS_LOG_RATE, CurveAxis.QUALITY_VS_LOG_TIME))


# -- frozen DP graph compiler ------------------------------------------------------


def oracle_compile(shape) -> _Graph:
    """Every reachable (last, cap) state and its edges, found by scanning each
    pool; final states are those with no pending cap."""
    states: dict[tuple, int] = {(None, None): 0}
    layers, widths = [], []
    for pool in shape:
        nxt: dict[tuple, int] = {}
        edges = []
        for (last, cap), src in states.items():
            feasible = [k for k, hf in enumerate(pool) if last is None or _step_ok(last, hf)]
            new_cap = cap
            if feasible:
                m = min(pool[k] for k in feasible)
                new_cap = m if cap is None or m < cap else cap
            edges.append((src, nxt.setdefault((last, new_cap), len(nxt)), -1))
            for k in feasible:
                hf = pool[k]
                if cap is None or hf < cap:
                    edges.append((src, nxt.setdefault((hf, None), len(nxt)), k))
        layers.append(tuple(edges))
        widths.append(len(nxt))
        states = nxt
    finals = tuple(i for (_, cap), i in states.items() if cap is None)
    return _Graph(tuple(layers), tuple(widths), finals)


# -- frozen report renderer: a dict payload per rung -------------------------------


def oracle_json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def oracle_ladder_payload(ladder, metric, cfg) -> dict:
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
        "alpha": ladder.alpha,
        "mode": cfg.mode.value if ladder.method in cli.ALPHA_METHODS else None,
        "tolerance": cfg.tolerance,
        "rungs": rungs,
    }


def _oracle_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def oracle_compare_files(cfg) -> dict[str, str]:
    """``report.json``, ``report_bd.csv`` and ``report_curves.csv`` of a
    compare run, rendered from a dict payload per ladder and rung."""
    titles, rows, excluded = cli._compare(cfg, per_title=True)
    entries = [{"title": title, "metric": metric.value,
                "ladders": [oracle_ladder_payload(ladder, metric, cfg) for ladder in ladders],
                "bd": {"rows": bd_rows}}
               for title, metric, ladders, bd_rows in titles]
    report = {"config": cli._config_payload(cfg), "titles": entries,
              "aggregate": {"rows": rows, "excluded": excluded}}
    return {
        "report.json": oracle_json_text(report),
        "report_bd.csv": _oracle_csv(
            ["title", "metric", "method", "alpha", "bdr_percent", "bddt_percent",
             "overlap_q_low", "overlap_q_high"],
            [[entry["title"], row["metric"], row["method"], row["alpha"], row["bdr_percent"],
              row["bddt_percent"], row["overlap_quality"][0], row["overlap_quality"][1]]
             for entry in entries for row in entry["bd"]["rows"]]),
        "report_curves.csv": _oracle_csv(
            ["title", "metric", "method", "alpha", "target_kbps", "actual_kbps",
             "quality", "decode_s_per_frame", "chroma", "height"],
            [[entry["title"], ladder["metric"], ladder["method"], ladder["alpha"],
              rung["target_kbps"], rung["actual_kbps"], rung["quality"],
              rung["decode_s_per_frame"], rung["chroma"], rung["height"]]
             for entry in entries for ladder in entry["ladders"]
             for rung in ladder["rungs"] if rung["present"]]),
    }


def oracle_optimize_payloads(cfg) -> tuple[list[dict], str]:
    """The ladder payloads of an optimize run, in output order, and the
    ``SKIP`` lines it prints for the excluded ladders."""
    payloads, skips = [], []
    for (_, metric), evaluations in cli._evaluate(cfg, cli._BUILDERS):
        for _, _, ladders, ex in evaluations:
            if ex is None:
                payloads.append(oracle_ladder_payload(ladders[0], metric, cfg))
            else:
                skips.append(f"SKIP {ex['title']}/{ex['metric']}/{ex['method']}"
                             f"{cli._alpha_tag(ex['alpha'])}: {ex['reason']}\n")
    return payloads, "".join(skips)
