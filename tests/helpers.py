"""Shared constructors for hand-built, randomized and edge-case measurement
datasets, ladder summaries (present rungs, summed objective, chroma shares),
the exhaustive ladder oracle ``definitional_best``, a vectorized PCHIP
evaluator for quadrature checks, and the frozen layers that
the live ones must match: a numpy-scalar PCHIP integrator for bit-exact BD
integration, a row-by-row ingest for the parser's fast path, and a DP graph
compiler that keeps every reachable state for the live-state graphs. The
ladder commands' bytes are checked against ``reference.py`` instead."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import operator
from dataclasses import replace
from pathlib import Path

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
    composite_normalized,
    normalized_log_time,
    normalized_quality,
)
from chromaladder.errors import (
    DuplicateRecord,
    MalformedRow,
    NonPositiveValue,
)
from chromaladder.cli import main
from chromaladder.ladder import _Graph, chroma_shares, count_chroma
from chromaladder.measurements import CSV_HEADER
from reference import Outcome

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


SMALL_TARGETS = (600.0, 1200.0, 2400.0, 4800.0, 9600.0)
# Targets within 10% of each other, so that with --cross-target one encode
# can serve two rungs of a ladder.
CLOSE_TARGETS = (600.0, 640.0, 1200.0, 2400.0, 4800.0)
SHARED_FAILURE_TARGETS = (600.0, 2400.0, 9000.0)


def replace_title(rec, title):
    return replace(rec, title_id=title)


def lonely_title(ds) -> TitleDataset:
    """``ds`` as "zz-lonely" with its 2160p 4:4:4 encodes above 600 kbps
    dropped, so that its native-resolution (default) ladder has one point."""
    return TitleDataset.from_records(
        replace_title(rec, "zz-lonely") for rec in ds.records
        if not (rec.resolution.height == 2160 and rec.chroma is C444) or rec.target_bitrate == 600.0)


def shared_record_title() -> TitleDataset:
    """A title whose 640 kbps encode misses its window, so with --cross-target
    the 600 kbps encode serves both the 600 and the 640 kbps rung."""
    return TitleDataset.from_records([
        record("shared, \"x\"", 1080, C444, 600, actual=620, quality=6.0, decode=0.04),
        record("shared, \"x\"", 1080, C444, 640, actual=900, quality=6.5, decode=0.04),
        record("shared, \"x\"", 2160, C444, 1200, actual=1210, quality=7.0, decode=0.1),
        record("shared, \"x\"", 2160, C444, 2400, actual=2390, quality=8.0, decode=0.1),
        record("shared, \"x\"", 2160, C444, 4800, actual=4800, quality=9.0, decode=0.1),
    ])


def shared_failure_titles() -> list[TitleDataset]:
    """Two titles whose arcs and dynres ladders fail on the same records.

    1080p beats 2160p on quality and decode time, so arcs and dynres both pick
    it at every target and alpha, while the default ladder is all 2160p.
    "flat": 1080p quality never rises, so their curves keep one point.
    "apart": 1080p quality lies above the whole 2160p range.
    """
    targets = SHARED_FAILURE_TARGETS

    def title(name, low_quality):
        return grid_dataset(
            lambda h, c, b: 5.0 + targets.index(b) if h == 2160 else low_quality[targets.index(b)],
            lambda h, c, b: 0.08 if h == 2160 else 0.02,
            title=name, chromas=(C444,), targets=targets)

    return [title("apart", (8.0, 8.5, 9.0)), title("flat", (9.0, 9.0, 9.0))]


def cli_outcome(argv, out: Path | None = None) -> Outcome:
    """``main(argv)``'s exit code, stdout, stderr and the files it wrote in ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), {} if out is None or not out.exists()
                   else {path.name: path.read_bytes().decode("utf-8") for path in out.iterdir()})


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


# -- exhaustive ladder oracle: the documented rules, from public names only ----------


def _rises(prev, nxt) -> bool:
    """The chain rule between consecutive present rungs, each (height,
    fidelity rank): resolution never decreases, and within one resolution
    chroma fidelity never decreases."""
    if nxt[0] != prev[0]:
        return nxt[0] > prev[0]
    return nxt[1] >= prev[1]


def chain_feasible(chosen) -> bool:
    """Whether the present rungs of ``chosen`` (a record or None per target)
    keep the chain rule, pair by pair."""
    hfs = [(rec.resolution.height, rec.chroma.fidelity_rank) for rec in chosen if rec is not None]
    return all(_rises(a, b) for a, b in zip(hfs, hfs[1:]))


def is_maximal(chosen, pools) -> bool:
    """Whether no absent rung of ``chosen`` could take a candidate of its pool
    and keep the chain feasible."""
    return not any(
        chain_feasible([*chosen[:i], cand, *chosen[i + 1:]])
        for i, rec in enumerate(chosen) if rec is None for cand in pools[i])


def definitional_best(dataset, alpha, tolerance=0.10, chroma=None, cross_target=False):
    """The best maximal ladder, as one record or None per target, by
    exhaustive enumeration of every chain-feasible choice per rung.

    It is ranked by its summed ``composite_normalized`` objective, added in
    target order, then by its rung keys in target order, each rung's key
    being the documented tie order: present, higher objective, lower decode
    time, lower resolution, lower chroma fidelity, then lower target and
    actual bitrate. All rungs are None when no target has a candidate."""
    pools = [[r for r in candidates_for(dataset, t, tolerance, cross_target=cross_target)
              if chroma is None or r.chroma is chroma] for t in dataset.bitrate_targets]
    bounds = bounds_for(dataset)
    best = None

    def walk(chosen):
        nonlocal best
        if len(chosen) < len(pools):
            for rec in (None, *pools[len(chosen)]):
                if rec is None or chain_feasible((*chosen, rec)):
                    walk((*chosen, rec))
            return
        if not is_maximal(chosen, pools):
            return
        score, keys = 0.0, []
        for rec in chosen:
            if rec is None:
                keys.append((0, 0.0, 0.0, 0, 0, 0.0, 0.0))
                continue
            j = composite_normalized(rec, bounds, alpha)
            score += j
            keys.append((1, j, -rec.decode_time, -rec.resolution.height,
                         -rec.chroma.fidelity_rank, -rec.target_bitrate, -rec.actual_bitrate))
        if best is None or (score, keys) > best[:2]:
            best = (score, keys, chosen)

    walk(())
    return best[2]


def choices_of(ladder):
    """The ladder's choice per rung: a record, or None for an absent rung."""
    return tuple(r.choice for r in ladder.rungs)


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
            feasible = [k for k, hf in enumerate(pool) if last is None or _rises(last, hf)]
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
