"""Shared constructors for hand-built and randomized measurement datasets, a
vectorized PCHIP evaluator for quadrature checks, and a frozen numpy-scalar
PCHIP integrator that the float implementation must match."""

from __future__ import annotations

import math

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
