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

A curve is fitted once and measured against many others, so its per-curve
work is done once: the fit checks the knots and keeps the segment widths
that the check computes for the slopes, and the first integral integrates
every whole segment. Each integral then adds the whole segments between its
ends and evaluates only the one or two partial end segments, with no closure
per segment. ``bd_delta`` reads the overlap from the fits' knot lists. The float
operations and their order are those of a numpy evaluation, so every result
is bit-identical to it.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    AxisMismatch,
    CurveError,
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
        object.__setattr__(self, "fit", PchipCurve(*zip(*self.points)))


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
        rec = rung.choice
        if rec is not None and rec.quality.value > q_best:
            kept.append(rec)
            q_best = rec.quality.value
    if len(kept) < 2:
        raise TooFewPoints(
            f"ladder {ladder.title_id!r}/{ladder.method.value} has {len(kept)} "
            "usable points after Pareto filtering"
        )
    log = math.log
    if axis is CurveAxis.QUALITY_VS_LOG_RATE:
        points = tuple([(r.quality.value, log(r.actual_bitrate)) for r in kept])
    else:
        points = tuple([(r.quality.value, log(r.decode_time)) for r in kept])
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
        self.x = x = list(map(float, x))
        self.y = y = list(map(float, y))
        if len(x) != len(y) or len(x) < 2:
            raise ValueError("need matching 1-d x/y with at least two points")
        if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
            raise ValueError("knots must be finite")
        h = list(map(operator.sub, x[1:], x))
        # Of finite floats, b - a > 0 exactly when b > a.
        if min(h) <= 0.0:
            raise ValueError("x must be strictly increasing")
        self.d = _pchip_slopes(h, list(map(operator.truediv, map(operator.sub, y[1:], y), h)))

    @functools.cached_property
    def whole(self) -> list[float]:
        """Each segment's whole integral, made for all segments at the first
        integral: its t runs from 0 to 1."""
        x, y, d = self.x, self.y, self.d
        return [_segment_integral(w, y0, y1, d0, d1, _AT_0, _AT_1)
                for w, y0, y1, d0, d1 in zip(map(operator.sub, x[1:], x), y, y[1:], d, d[1:])]

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b]; both ends must lie within the knots."""
        x = self.x
        if not (x[0] - 1e-12 <= a <= b <= x[-1] + 1e-12):
            raise ValueError("integration interval outside the interpolation range")
        last = len(x) - 2
        lo = min(max(bisect.bisect_right(x, a) - 1, 0), last)
        hi = min(max(bisect.bisect_right(x, b) - 1, 0), last)
        total = 0.0
        if lo == hi:
            seg_a, seg_b = max(a, x[lo]), min(b, x[lo + 1])
            if seg_a < seg_b:
                total += self._part(lo, seg_a, seg_b)
            return total
        # Segments strictly between lo and hi lie inside [a, b]; lo ends at
        # x[lo + 1] <= b and hi starts at x[hi] > a.
        whole = self.whole
        total += whole[lo] if a <= x[lo] else self._part(lo, a, x[lo + 1])
        for k in range(lo + 1, hi):
            total += whole[k]
        if x[hi + 1] <= b:
            total += whole[hi]
        elif x[hi] < b:
            total += self._part(hi, x[hi], b)
        return total

    def _part(self, k: int, a: float, b: float) -> float:
        """The integral of segment ``k`` over [a, b], a part of it."""
        x = self.x
        h = x[k + 1] - x[k]
        return _segment_integral(h, self.y[k], self.y[k + 1], self.d[k], self.d[k + 1],
                                 _antiderivative_basis((a - x[k]) / h),
                                 _antiderivative_basis((b - x[k]) / h))


def _antiderivative_basis(t: float) -> tuple[float, float, float, float]:
    """The antiderivatives of the Hermite basis h00, h10, h01, h11 at ``t``."""
    t2 = t * t
    t3 = t2 * t
    t4 = t2 * t2
    return (0.5 * t4 - t3 + t, 0.25 * t4 - (2.0 / 3.0) * t3 + 0.5 * t2,
            -0.5 * t4 + t3, 0.25 * t4 - t3 / 3.0)


def _segment_integral(h: float, y0: float, y1: float, d0: float, d1: float,
                      at_a: tuple[float, ...], at_b: tuple[float, ...]) -> float:
    """The integral of the segment of width ``h`` from knot (y0, d0) to knot
    (y1, d1), between the points whose basis antiderivatives are ``at_a`` and
    ``at_b``."""
    a00, a10, a01, a11 = at_a
    b00, b10, b01, b11 = at_b
    # (h10 * h) * d0, not h10 * (h * d0): the order is part of the result.
    return h * ((b00 * y0 + b10 * h * d0 + b01 * y1 + b11 * h * d1)
                - (a00 * y0 + a10 * h * d0 + a01 * y1 + a11 * h * d1))


_AT_0 = _antiderivative_basis(0.0)
_AT_1 = _antiderivative_basis(1.0)


def _pchip_slopes(h: list[float], delta: list[float]) -> list[float]:
    """Knot slopes from the segment widths ``h`` and secants ``delta``."""
    if len(h) == 1:
        return [delta[0], delta[0]]
    d = [_edge_slope(h[0], h[1], delta[0], delta[1])]
    # Each interior knot, from the segments on its left (0) and right (1).
    for h0, h1, s0, s1 in zip(h, h[1:], delta, delta[1:]):
        if s0 == 0.0 or s1 == 0.0 or (s0 < 0) != (s1 < 0):
            d.append(0.0)
        else:
            w1 = 2 * h1 + h0
            w2 = h1 + 2 * h0
            d.append((w1 + w2) / (w1 / s0 + w2 / s1))
    d.append(_edge_slope(h[-1], h[-2], delta[-1], delta[-2]))
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
    ref_x, test_x = reference.fit.x, test.fit.x
    q_low = max(ref_x[0], test_x[0])
    q_high = min(ref_x[-1], test_x[-1])
    if not q_low < q_high:
        raise NoQualityOverlap(
            f"quality ranges [{ref_x[0]:.4g}, {ref_x[-1]:.4g}] "
            f"and [{test_x[0]:.4g}, {test_x[-1]:.4g}] do not overlap"
        )
    int_ref = reference.fit.integrate(q_low, q_high)
    int_test = test.fit.integrate(q_low, q_high)
    mean_log_diff = (int_test - int_ref) / (q_high - q_low)
    try:
        percent = (math.exp(mean_log_diff) - 1.0) * 100.0
    except OverflowError:
        percent = math.inf
    if not math.isfinite(percent):
        raise CurveError(f"the BD value is not a finite float "
                         f"(mean log difference {mean_log_diff:.4g})")
    return BDResult(
        value_percent=percent,
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
