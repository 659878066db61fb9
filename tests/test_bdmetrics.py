"""Curve building, PCHIP interpolation, and Bjontegaard delta tests."""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from chromaladder import (
    BDResult,
    CandidateIndex,
    CurveAxis,
    PchipCurve,
    QualityMetric,
    RQCurve,
    TitleDataset,
    aggregate,
    bd_delta,
    build_curve,
    optimize_arcs,
)
from chromaladder.errors import (
    AxisMismatch,
    CurveError,
    EmptyInput,
    MetricMismatch,
    NoQualityOverlap,
    TooFewPoints,
)
from helpers import (
    oracle_bd_percent,
    oracle_integrate,
    oracle_pchip_slopes,
    pchip_values,
    record,
)

RATE = CurveAxis.QUALITY_VS_LOG_RATE
TIME = CurveAxis.QUALITY_VS_LOG_TIME
JOD = QualityMetric.CVVDP_JOD


def ladder_from(points):
    """points: list of (target, actual, quality, decode)."""
    recs = [
        record(target=t, actual=a, quality=q, decode=d) for (t, a, q, d) in points
    ]
    return optimize_arcs(CandidateIndex(TitleDataset.from_records(recs)), 0.0)


def curve(qualities, ordinates, axis=RATE, metric=JOD):
    return RQCurve(axis, metric, tuple(zip(qualities, ordinates)))


def rate_curve(qualities, rates, **kw):
    return curve(qualities, [math.log(r) for r in rates], **kw)


class TestBuildCurve:
    def test_strictly_increasing_quality_keeps_all(self):
        lad = ladder_from(
            [(600, 610, 5.0, 0.05), (1200, 1150, 6.0, 0.06), (2400, 2300, 7.0, 0.08), (4800, 4900, 8.0, 0.1)]
        )
        c = build_curve(lad, RATE)
        assert len(c.points) == 4
        assert c.fit.y == [math.log(r.choice.actual_bitrate) for r in lad.rungs]

    def test_quality_dip_dropped(self):
        lad = ladder_from([(600, 600, 5.0, 0.05), (1200, 1200, 4.9, 0.06), (2400, 2400, 6.0, 0.08)])
        c = build_curve(lad, RATE)
        assert c.fit.x == [5.0, 6.0]

    def test_time_axis_uses_decode_time(self):
        lad = ladder_from([(600, 610, 5.0, 0.05), (1200, 1190, 6.0, 0.07)])
        c = build_curve(lad, TIME)
        assert c.fit.y == [math.log(0.05), math.log(0.07)]

    def test_single_survivor_rejected(self):
        lad = ladder_from([(600, 610, 5.0, 0.05), (1200, 1190, 4.0, 0.07)])
        with pytest.raises(TooFewPoints, match="has 1 usable points after Pareto filtering$"):
            build_curve(lad, RATE)
        with pytest.raises(TooFewPoints, match="got 1$"):
            RQCurve(RATE, JOD, ((5.0, 6.4),))


class TestPchip:
    def random_xy(self, rng, n=None):
        n = n or int(rng.integers(3, 9))
        x = np.sort(rng.uniform(0.0, 10.0, size=n))
        while np.any(np.diff(x) < 1e-6):
            x = np.sort(rng.uniform(0.0, 10.0, size=n))
        y = rng.uniform(-5.0, 5.0, size=n)
        return x, y

    def test_passes_through_knots_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = self.random_xy(rng)
            p = PchipCurve(x, y)
            assert np.all(pchip_values(p, x) == y)

    def test_matches_scipy_values(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = self.random_xy(rng)
            p = PchipCurve(x, y)
            ref = PchipInterpolator(x, y)
            grid = np.linspace(x[0], x[-1], 500)
            assert np.allclose(pchip_values(p, grid), ref(grid), rtol=1e-12, atol=1e-12)

    def test_matches_scipy_integral(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = self.random_xy(rng)
            a, b = sorted(rng.uniform(x[0], x[-1], size=2))
            if b - a < 1e-9:
                continue
            p = PchipCurve(x, y)
            ref = PchipInterpolator(x, y)
            assert p.integrate(a, b) == pytest.approx(float(ref.integrate(a, b)), rel=1e-12, abs=1e-12)

    def test_monotone_data_no_overshoot(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = self.random_xy(rng)
            y = np.sort(y)
            p = PchipCurve(x, y)
            dense = pchip_values(p, np.linspace(x[0], x[-1], 2000))
            assert np.all(np.diff(dense) >= -1e-12)
            assert dense.min() >= y[0] - 1e-12 and dense.max() <= y[-1] + 1e-12

    def test_two_points_linear(self):
        p = PchipCurve([0.0, 2.0], [1.0, 5.0])
        assert pchip_values(p, 1.0) == pytest.approx(3.0, abs=1e-15)
        assert p.integrate(0.0, 2.0) == pytest.approx(6.0, abs=1e-12)

    def test_closed_form_integral_matches_dense_trapezoid(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = self.random_xy(rng)
            p = PchipCurve(x, y)
            grid = np.linspace(x[0], x[-1], 100_001)
            approx = np.trapezoid(pchip_values(p, grid), grid)
            exact = p.integrate(x[0], x[-1])
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-9)


def random_knots(rng, n):
    """Strictly increasing knots over (2, 10) with spacings from 1e-4 to a few
    units, and ordinates that are flat, monotone or oscillating by turns."""
    while True:
        x = np.cumsum(rng.uniform(1e-4, 1.0, size=n) ** rng.uniform(1.0, 4.0)) + rng.uniform(2.0, 3.0)
        if np.all(np.diff(x) > 0):
            break
    y = rng.uniform(4.0, 10.0, size=n)
    shape = rng.integers(4)
    if shape == 1:
        y = np.sort(y)
    elif shape == 2:
        y = np.round(y * 2.0) / 2.0  # exact repeats give zero secant slopes
    elif shape == 3:
        y = np.sort(y)[::-1]
    return x.tolist(), y.tolist()


def sub_intervals(rng, x):
    """Random, knot-touching and end-slack intervals inside [x0 - 1e-12, xn + 1e-12],
    plus the cases that split whole segments from parts: both ends inside one
    segment, and zero-width intervals on a knot and inside a segment."""
    i, j = sorted(rng.integers(len(x), size=2))
    a, b = sorted(rng.uniform(x[0], x[-1], size=2).tolist())
    k = int(rng.integers(len(x) - 1))
    c, e = sorted(rng.uniform(x[k], x[k + 1], size=2).tolist())
    return [
        (x[0], x[-1]),
        (x[0] - 1e-12, x[-1] + 1e-12),
        (x[i], x[j]),
        (a, b),
        (x[i], max(b, x[i])),
        (x[0] - 1e-12, a),
        (b, x[-1] + 1e-12),
        (c, e),
        (x[k], e),
        (c, x[k + 1]),
        (x[i], x[i]),
        (c, c),
    ]


class TestFloatPchipMatchesNumpy:
    """The float PCHIP must give the frozen numpy-scalar evaluation's bits."""

    def test_integrate_bit_identical(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            x, y = random_knots(rng, int(rng.integers(2, 13)))
            p = PchipCurve(x, y)
            for a, b in sub_intervals(rng, x):
                assert p.integrate(a, b) == oracle_integrate(x, y, a, b), (x, y, a, b)

    def test_integrate_order_does_not_matter(self):
        # Intervals in reverse order reach each whole segment in another
        # order; every result keeps its bits, the sign of a zero too.
        rng = np.random.default_rng(2027)
        for _ in range(1000):
            x, y = random_knots(rng, int(rng.integers(2, 13)))
            intervals = sub_intervals(rng, x) + sub_intervals(rng, x)
            want = [oracle_integrate(x, y, a, b).hex() for a, b in intervals]
            forward, backward = PchipCurve(x, y), PchipCurve(x, y)
            assert [forward.integrate(a, b).hex() for a, b in intervals] == want
            assert [backward.integrate(a, b).hex() for a, b in reversed(intervals)] == want[::-1]

    def test_reused_curves_in_reverse_order_match_oracle(self):
        rng = np.random.default_rng(2028)
        curves = [curve(*random_knots(rng, int(rng.integers(2, 13)))) for _ in range(40)]
        pairs = [(ref, test) for ref in curves for test in curves
                 if max(ref.fit.x[0], test.fit.x[0]) < min(ref.fit.x[-1], test.fit.x[-1])]
        assert len(pairs) > 100
        for ref, test in reversed(pairs):
            assert bd_delta(ref, test).value_percent == oracle_bd_percent(ref.points, test.points)

    def test_bd_delta_bit_identical(self):
        rng = np.random.default_rng(2025)
        checked = 0
        while checked < 2000:
            ref = curve(*random_knots(rng, int(rng.integers(2, 13))))
            test = curve(*random_knots(rng, int(rng.integers(2, 13))))
            if not max(ref.fit.x[0], test.fit.x[0]) < min(ref.fit.x[-1], test.fit.x[-1]):
                continue
            assert bd_delta(ref, test).value_percent == oracle_bd_percent(ref.points, test.points)
            checked += 1

    def test_reused_curve_equals_fresh_curves(self):
        rng = np.random.default_rng(2026)
        ref = curve(*random_knots(rng, 8))
        fit = ref.fit
        for _ in range(200):
            test = curve(*random_knots(rng, int(rng.integers(2, 13))))
            if not max(ref.fit.x[0], test.fit.x[0]) < min(ref.fit.x[-1], test.fit.x[-1]):
                continue
            fresh = bd_delta(curve(ref.fit.x, ref.fit.y), curve(test.fit.x, test.fit.y))
            assert bd_delta(ref, test) == fresh
            assert bd_delta(test, ref) == bd_delta(curve(test.fit.x, test.fit.y),
                                                   curve(ref.fit.x, ref.fit.y))
        assert ref.fit is fit

    @pytest.mark.parametrize("y", [[0.0, -0.0, 1.0], [-1.0, 0.0, -0.0]])
    def test_end_slope_of_a_signed_zero_secant_is_the_oracles(self, y):
        # The end secant is -0.0, and the end slope +0.0, as the oracle's.
        x = [2.0, 3.0, 5.0]
        assert [v.hex() for v in PchipCurve(x, y).d] == [
            float(v).hex() for v in oracle_pchip_slopes(np.array(x), np.array(y))]

    @pytest.mark.parametrize("x, y", [([0.0], [1.0]), ([0.0, 1.0, 2.0], [0.0, 1.0])])
    def test_needs_two_knots_of_each_coordinate(self, x, y):
        with pytest.raises(ValueError, match="at least two points"):
            PchipCurve(x, y)

    def test_interval_outside_the_knots_rejected(self):
        fit = PchipCurve([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        for a, b in ((-0.5, 1.0), (1.0, 2.5), (1.5, 0.5)):
            with pytest.raises(ValueError, match="outside the interpolation range"):
                fit.integrate(a, b)

    @pytest.mark.parametrize("x, y", [
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, math.inf, 2.0]),
        ([-math.inf, 1.0, 2.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0], [math.nan, 1.0]),
    ])
    def test_non_finite_knots_rejected(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            PchipCurve(x, y)

    @pytest.mark.parametrize("x, y, match", [
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "increasing"),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "increasing"),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0], "finite"),
        ([0.0, 1.0], [0.0, -math.inf], "finite"),
    ])
    def test_curve_points_checked_by_its_fit(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            curve(x, y)
        with pytest.raises(ValueError, match=match):
            PchipCurve(x, y)


class TestBdDelta:
    def test_identical_curves_zero(self):
        c = rate_curve([5.0, 6.0, 7.0, 8.0], [600, 1200, 2400, 4800])
        assert abs(bd_delta(c, c).value_percent) <= 1e-12

    def test_doubled_rates_plus_hundred(self):
        qs = [5.0, 6.1, 7.3, 8.0]
        rates = [610.0, 1150.0, 2500.0, 4700.0]
        ref = rate_curve(qs, rates)
        test = rate_curve(qs, [2 * r for r in rates])
        assert bd_delta(ref, test).value_percent == pytest.approx(100.0, abs=1e-9)

    def test_scaled_rates_k_minus_one(self):
        qs = [4.0, 5.5, 6.0, 7.7, 9.0]
        rates = [500.0, 900.0, 1800.0, 4000.0, 9000.0]
        for k in (0.25, 0.5, 1.5, 3.0):
            got = bd_delta(rate_curve(qs, rates), rate_curve(qs, [k * r for r in rates]))
            assert got.value_percent == pytest.approx((k - 1) * 100.0, rel=1e-9, abs=1e-9)

    def test_antisymmetry_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            qs1 = np.sort(rng.uniform(3, 9, size=5))
            qs2 = np.sort(rng.uniform(3, 9, size=5))
            if np.any(np.diff(qs1) < 1e-3) or np.any(np.diff(qs2) < 1e-3):
                continue
            if max(qs1[0], qs2[0]) >= min(qs1[-1], qs2[-1]) - 1e-3:
                continue
            a = curve(qs1, rng.uniform(5, 10, size=5))
            b = curve(qs2, rng.uniform(5, 10, size=5))
            fwd = bd_delta(a, b).value_percent
            rev = bd_delta(b, a).value_percent
            assert (1 + fwd / 100.0) * (1 + rev / 100.0) == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance_of_both_curves(self):
        qs1 = [4.0, 5.0, 6.0, 8.0]
        qs2 = [4.5, 5.5, 7.0, 8.5]
        r1 = [500.0, 1000.0, 2100.0, 4400.0]
        r2 = [400.0, 800.0, 1900.0, 5000.0]
        base = bd_delta(rate_curve(qs1, r1), rate_curve(qs2, r2)).value_percent
        for k in (1e-3, 0.5, 40.0):
            scaled = bd_delta(
                rate_curve(qs1, [k * r for r in r1]),
                rate_curve(qs2, [k * r for r in r2]),
            ).value_percent
            assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_overlap_interval_reported(self):
        ref = rate_curve([4.0, 6.0, 8.0], [500, 1500, 4000])
        test = rate_curve([5.0, 7.0, 9.0], [450, 1400, 3800])
        out = bd_delta(ref, test)
        assert out.overlap == (5.0, 8.0)
        with pytest.raises(ValueError, match="overlap interval must be non-empty"):
            BDResult(0.0, (5.0, 5.0), JOD, RATE)

    def test_disjoint_ranges_rejected(self):
        ref = rate_curve([4.0, 4.5, 5.0], [500, 800, 1000])
        test = rate_curve([6.0, 6.5, 7.0], [500, 800, 1000])
        with pytest.raises(NoQualityOverlap, match=r"^quality ranges \[4, 5\] and \[6, 7\] do not"):
            bd_delta(ref, test)

    def test_touching_ranges_rejected(self):
        # One shared quality is an empty interval, not an overlap to average over.
        ref = rate_curve([4.0, 5.0], [500, 1000])
        test = rate_curve([5.0, 7.0], [500, 1000])
        for a, b in ((ref, test), (test, ref)):
            with pytest.raises(NoQualityOverlap):
                bd_delta(a, b)

    @pytest.mark.parametrize("ref, test, mean", [
        # exp of the mean log difference overflows.
        (([1.0, 2.0], [-690.8, -690.1]), ([1.2, 2.5], [690.8, 691.5]), "1381"),
        # The quality span overflows, and the mean is inf / inf.
        (([-1e308, 1e308], [0.0, 1.0]), ([-1e308, 1e308], [1.0, 2.0]), "nan"),
    ], ids=["overflow", "nan"])
    def test_value_beyond_float_range_rejected(self, ref, test, mean):
        with pytest.raises(CurveError, match=rf"^the BD value is not a finite float "
                                             rf"\(mean log difference {mean}\)$"):
            bd_delta(curve(*ref), curve(*test))

    def test_axis_mismatch_rejected(self):
        a = curve([4.0, 5.0], [6.0, 7.0], axis=RATE)
        b = curve([4.0, 5.0], [6.0, 7.0], axis=TIME)
        with pytest.raises(AxisMismatch):
            bd_delta(a, b)

    def test_metric_mismatch_rejected(self):
        a = curve([4.0, 5.0], [6.0, 7.0])
        b = curve([4.0, 5.0], [6.0, 7.0], metric=QualityMetric.YUVPSNR_DB)
        with pytest.raises(MetricMismatch):
            bd_delta(a, b)

    def test_value_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            n1, n2 = rng.integers(4, 7, size=2)
            qs1 = np.sort(rng.uniform(3, 9, size=n1))
            qs2 = np.sort(rng.uniform(3, 9, size=n2))
            if np.any(np.diff(qs1) < 1e-3) or np.any(np.diff(qs2) < 1e-3):
                continue
            lo, hi = max(qs1[0], qs2[0]), min(qs1[-1], qs2[-1])
            if hi - lo < 0.1:
                continue
            y1 = rng.uniform(4, 10, size=n1)
            y2 = rng.uniform(4, 10, size=n2)
            got = bd_delta(curve(qs1, y1), curve(qs2, y2)).value_percent
            grid = np.linspace(lo, hi, 100_001)
            v1 = pchip_values(PchipCurve(qs1, y1), grid)
            v2 = pchip_values(PchipCurve(qs2, y2), grid)
            delta = (np.trapezoid(v2, grid) - np.trapezoid(v1, grid)) / (hi - lo)
            want = (math.exp(delta) - 1) * 100.0
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)
            checked += 1


class TestAggregate:
    def res(self, v):
        return bd_delta(
            rate_curve([4.0, 6.0], [1000, 2000]),
            rate_curve([4.0, 6.0], [1000 * (1 + v / 100), 2000 * (1 + v / 100)]),
        )

    def test_mean(self):
        got = aggregate([self.res(-10.0), self.res(-20.0)])
        assert got == pytest.approx(-15.0, rel=1e-9)

    def test_single_result_identity(self):
        r = self.res(7.5)
        assert aggregate([r]) == r.value_percent

    def test_fifteen_values_match_recomputation(self):
        rng = np.random.default_rng(8)
        results = [self.res(float(v)) for v in rng.uniform(-40, 40, size=15)]
        want = sum(r.value_percent for r in results) / 15
        assert aggregate(results) == pytest.approx(want, rel=1e-12)

    def test_values_added_left_to_right(self):
        # A compensated sum (``sum()`` from Python 3.12 on, ``math.fsum``)
        # gives 1/3 here; adding in order loses the 1.0 on every version.
        results = [BDResult(v, (4.0, 6.0), JOD, RATE) for v in (1e16, 1.0, -1e16)]
        assert aggregate(results) == 0.0
        assert math.fsum(r.value_percent for r in results) / 3 == 1 / 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_mixed_axis_rejected(self):
        a = self.res(1.0)
        b = bd_delta(
            curve([4.0, 6.0], [1.0, 2.0], axis=TIME),
            curve([4.0, 6.0], [1.0, 2.0], axis=TIME),
        )
        with pytest.raises(AxisMismatch):
            aggregate([a, b])

    def test_mixed_metric_rejected(self):
        results = [BDResult(1.0, (4.0, 6.0), metric, RATE) for metric in QualityMetric]
        with pytest.raises(MetricMismatch):
            aggregate(results)
