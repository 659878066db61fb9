"""Bjontegaard-style delta metrics over ladder operating points.

Curves map quality (abscissa) to the natural log of a cost ordinate: either
actual bitrate (delta rate) or decoding time per frame (delta decoding time).
Each curve is interpolated with a monotonicity-preserving piecewise cubic
Hermite (PCHIP, Fritsch-Carlson slopes), the difference is integrated in
closed form over the overlapping quality interval, and the mean log difference
is mapped back through ``(e^d - 1) * 100`` to a percentage. Negative values
mean the test ladder needs less rate (or less decoding time) than the
reference at equal quality.

Classic global cubic fitting is deliberately not used: with ten-rung ladders
it is ill-conditioned, and PCHIP through the points is the established
replacement.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    AxisMismatch,
    EmptyInput,
    MetricMismatch,
    NoQualityOverlap,
    TooFewPoints,
)
from .ladder import Ladder
from .measurements import QualityMetric


class CurveAxis(Enum):
    QUALITY_VS_LOG_RATE = "rate"
    QUALITY_VS_LOG_TIME = "time"


@dataclass(frozen=True)
class RQCurve:
    """Monotone-quality point set (quality, log ordinate), quality ascending.

    The curve's PCHIP interpolant is fitted on construction and kept, so a
    curve measured against many others is fitted once. Fitting is what checks
    that the points are finite with strictly increasing qualities.
    """

    axis_kind: CurveAxis
    metric: QualityMetric
    points: tuple[tuple[float, float], ...]
    fit: PchipCurve = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) < 2:
            raise TooFewPoints(f"curve needs >= 2 points, got {len(self.points)}")
        object.__setattr__(self, "fit", PchipCurve(self.qualities, self.ordinates))

    @functools.cached_property
    def qualities(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @functools.cached_property
    def ordinates(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


@dataclass(frozen=True)
class BDResult:
    value_percent: float
    overlap: tuple[float, float]
    metric: QualityMetric
    axis_kind: CurveAxis

    def __post_init__(self):
        if not self.overlap[0] < self.overlap[1]:
            raise ValueError("overlap interval must be non-empty")


def build_curve(ladder: Ladder, axis: CurveAxis) -> RQCurve:
    """Curve from a ladder's present rungs, Pareto-filtered.

    Walking rungs by ascending bitrate, a point survives only if its quality
    strictly exceeds the running maximum; this makes quality a valid abscissa
    and both axes use the same surviving operating points.
    """
    kept = []
    q_best = -math.inf
    for rung in ladder.rungs:
        if rung.choice is None:
            continue
        q = rung.choice.quality.value
        if q > q_best:
            kept.append(rung.choice)
            q_best = q
    if len(kept) < 2:
        raise TooFewPoints(
            f"ladder {ladder.title_id!r}/{ladder.method.value} has {len(kept)} "
            "usable points after Pareto filtering"
        )
    if axis is CurveAxis.QUALITY_VS_LOG_RATE:
        points = tuple((r.quality.value, math.log(r.actual_bitrate)) for r in kept)
    else:
        points = tuple((r.quality.value, math.log(r.decode_time)) for r in kept)
    return RQCurve(axis, kept[0].quality.metric, points)


class PchipCurve:
    """Monotone piecewise cubic Hermite interpolant with exact integration.

    Interior knot slopes use the Fritsch-Carlson weighted harmonic mean (zero
    at local extrema); endpoints use the three-point one-sided difference with
    the standard monotonicity clamps. Two points degrade to the linear
    interpolant. Segment integrals are evaluated in closed form from the
    quartic antiderivative of the Hermite basis.

    Knots and slopes are plain float lists: curves have a handful of knots,
    where per-element numpy calls cost more than the arithmetic. The float
    operations are those of a numpy evaluation, in the same order, so the
    results are bit-identical to it.
    """

    def __init__(self, x: Sequence[float], y: Sequence[float]):
        self.x = [float(v) for v in x]
        self.y = [float(v) for v in y]
        if len(self.x) != len(self.y) or len(self.x) < 2:
            raise ValueError("need matching 1-d x/y with at least two points")
        if not all(map(math.isfinite, self.x)) or not all(map(math.isfinite, self.y)):
            raise ValueError("knots must be finite")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("x must be strictly increasing")
        self.d = _pchip_slopes(self.x, self.y)
        self._whole: list[float | None] = [None] * (len(self.x) - 1)

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b]; both ends must lie within the knots."""
        x = self.x
        if not (x[0] - 1e-12 <= a <= b <= x[-1] + 1e-12):
            raise ValueError("integration interval outside the interpolation range")
        last = len(x) - 2
        lo = min(max(bisect.bisect_right(x, a) - 1, 0), last)
        hi = min(max(bisect.bisect_right(x, b) - 1, 0), last)
        total = 0.0
        for k in range(lo, hi + 1):
            if a <= x[k] and x[k + 1] <= b:
                # A whole segment: its integral is the same on every call.
                if self._whole[k] is None:
                    self._whole[k] = self._segment_integral(k, x[k], x[k + 1])
                total += self._whole[k]
                continue
            seg_a = max(a, x[k])
            seg_b = min(b, x[k + 1])
            if seg_b <= seg_a:
                continue
            total += self._segment_integral(k, seg_a, seg_b)
        return total

    def _segment_integral(self, k: int, a: float, b: float) -> float:
        x, y, d = self.x, self.y, self.d
        h = x[k + 1] - x[k]
        ta = (a - x[k]) / h
        tb = (b - x[k]) / h

        def antiderivative(t: float) -> float:
            t2 = t * t
            t3 = t2 * t
            t4 = t2 * t2
            h00 = 0.5 * t4 - t3 + t
            h10 = 0.25 * t4 - (2.0 / 3.0) * t3 + 0.5 * t2
            h01 = -0.5 * t4 + t3
            h11 = 0.25 * t4 - t3 / 3.0
            # (h10 * h) * d[k], not h10 * (h * d[k]): the order is part of the result.
            return h00 * y[k] + h10 * h * d[k] + h01 * y[k + 1] + h11 * h * d[k + 1]

        return h * (antiderivative(tb) - antiderivative(ta))


def _pchip_slopes(x: list[float], y: list[float]) -> list[float]:
    n = len(x)
    h = [x[k + 1] - x[k] for k in range(n - 1)]
    delta = [(y[k + 1] - y[k]) / h[k] for k in range(n - 1)]
    if n == 2:
        return [delta[0], delta[0]]
    d = [0.0] * n
    for k in range(1, n - 1):
        if delta[k - 1] == 0.0 or delta[k] == 0.0 or (delta[k - 1] < 0) != (delta[k] < 0):
            d[k] = 0.0
        else:
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            d[k] = (w1 + w2) / (w1 / delta[k - 1] + w2 / delta[k])
    d[0] = _edge_slope(h[0], h[1], delta[0], delta[1])
    d[-1] = _edge_slope(h[-1], h[-2], delta[-1], delta[-2])
    return d


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    # Three-point one-sided estimate, clamped so the end segment stays monotone.
    d = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if _sign(d) != _sign(d0):
        return 0.0
    if _sign(d0) != _sign(d1) and abs(d) > 3 * abs(d0):
        return 3 * d0
    return d


def bd_delta(reference: RQCurve, test: RQCurve) -> BDResult:
    """Average relative cost difference of ``test`` vs ``reference`` at equal
    quality, in percent; negative means the test curve is cheaper."""
    if reference.axis_kind is not test.axis_kind:
        raise AxisMismatch(
            f"{reference.axis_kind.value} vs {test.axis_kind.value}"
        )
    if reference.metric is not test.metric:
        raise MetricMismatch(f"{reference.metric.value} vs {test.metric.value}")
    q_low = max(reference.qualities[0], test.qualities[0])
    q_high = min(reference.qualities[-1], test.qualities[-1])
    if not q_low < q_high:
        raise NoQualityOverlap(
            f"quality ranges [{reference.qualities[0]:.4g}, {reference.qualities[-1]:.4g}] "
            f"and [{test.qualities[0]:.4g}, {test.qualities[-1]:.4g}] do not overlap"
        )
    int_ref = reference.fit.integrate(q_low, q_high)
    int_test = test.fit.integrate(q_low, q_high)
    mean_log_diff = (int_test - int_ref) / (q_high - q_low)
    return BDResult(
        value_percent=(math.exp(mean_log_diff) - 1.0) * 100.0,
        overlap=(q_low, q_high),
        metric=reference.metric,
        axis_kind=reference.axis_kind,
    )


def aggregate(results: Iterable[BDResult]) -> float:
    """Arithmetic mean of delta percentages across titles."""
    results = list(results)
    if not results:
        raise EmptyInput("no BD results to aggregate")
    first = results[0]
    for r in results[1:]:
        if r.axis_kind is not first.axis_kind:
            raise AxisMismatch("aggregate mixes axis kinds")
        if r.metric is not first.metric:
            raise MetricMismatch("aggregate mixes quality metrics")
    # Added left to right: ``sum()`` of floats is compensated from Python
    # 3.12 on, so it would give other last digits on other interpreters.
    total = 0.0
    for r in results:
        total += r.value_percent
    return total / len(results)
