"""Composite objective and normalization tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromaladder import (
    CandidateIndex,
    NormalizationBounds,
    TitleDataset,
    bounds_for,
    build_dynres,
    candidates_for,
    chroma_counts,
    composite_normalized,
    normalized_log_time,
    normalized_quality,
    normalized_terms,
    optimize_arcs,
)
from chromaladder.errors import BoundsMismatch, EmptyDataset, NonPositiveDecodeTime
from helpers import C420, C422, C444, grid_dataset, random_dataset, record


def _alpha_entry_points():
    """Each public function that takes an alpha, as a call on one title."""
    ds = grid_dataset(lambda h, c, b: 5.0 + h / 2160 + c.fidelity_rank / 10 + b / 20000,
                      lambda h, c, b: 0.01 * (h / 1080) * (1 + c.fidelity_rank))
    index, bounds = CandidateIndex(ds), bounds_for(ds)
    return [
        lambda alpha: optimize_arcs(index, alpha),
        lambda alpha: build_dynres(index, alpha),
        lambda alpha: chroma_counts(index, alpha),
        lambda alpha: composite_normalized(ds.records[0], bounds, alpha),
    ]


class TestAlpha:
    """Every entry point takes alpha as a plain float and checks it."""

    @staticmethod
    def _rejected(alpha, shown):
        for call in _alpha_entry_points():
            with pytest.raises(ValueError, match=f"^alpha must be finite and >= 0, got {shown}$"):
                call(alpha)

    def test_negative_rejected(self):
        self._rejected(-0.1, r"-0\.1")

    def test_non_finite_rejected(self):
        self._rejected(math.nan, "nan")
        self._rejected(math.inf, "inf")

    def test_above_one_allowed_by_library(self):
        arcs, *others = _alpha_entry_points()
        assert arcs(2.5).alpha == 2.5
        for call in others:
            call(2.5)


class TestBounds:
    def test_single_record_degenerate(self):
        ds = TitleDataset.from_records([record(quality=6.25, decode=0.125)])
        b = bounds_for(ds)
        assert b.q_min == b.q_max == 6.25
        assert b.log_d_min == b.log_d_max == math.log(0.125)

    def test_decode_time_extrema(self):
        recs = [
            record(chroma=c, decode=d)
            for c, d in zip((C420, C422, C444), (0.1, 0.2, 0.4))
        ]
        b = bounds_for(TitleDataset.from_records(recs))
        assert b.log_d_min == math.log(0.1)
        assert b.log_d_max == math.log(0.4)

    def test_twelve_record_fixture_matches_exhaustive_scan(self):
        ds = grid_dataset(
            lambda h, c, b: 4.0 + h / 1000 + c.fidelity_rank * 0.7 + b / 5000,
            lambda h, c, b: 0.02 * (1 + c.fidelity_rank) * (h / 1080) ** 2 + b / 1e6,
            targets=(600.0, 2400.0),
        )
        b = bounds_for(ds)
        qs, lds = [], []
        for r in ds.records:  # brute-force scan oracle
            qs.append(r.quality.value)
            lds.append(math.log(r.decode_time))
        assert (b.q_min, b.q_max) == (min(qs), max(qs))
        assert (b.log_d_min, b.log_d_max) == (min(lds), max(lds))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="q_min must be <= q_max"):
            NormalizationBounds(5.0, 3.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="log_d_min must be <= log_d_max"):
            NormalizationBounds(3.0, 5.0, 1.0, 0.0)

    def test_empty_dataset_rejected(self):
        # Rejected where it is made, so bounds_for never sees one.
        with pytest.raises(EmptyDataset):
            TitleDataset("t", (), ())


class TestNormalizedTerms:
    def test_nonpositive_decode_time_rejected(self):
        b = NormalizationBounds(3.0, 5.0, math.log(0.1), math.log(0.4))
        with pytest.raises(NonPositiveDecodeTime):
            normalized_log_time(0.0, b)

    def test_equal_to_scalar_functions_per_record(self):
        rng = np.random.default_rng(21)
        corpus = [random_dataset(rng) for _ in range(20)]
        # Degenerate bounds: every q' and d' is 0.0.
        corpus.append(grid_dataset(lambda h, c, b: 5.0, lambda h, c, b: 0.05))
        # The 900 kbps encode lies outside every window, yet sets both maxima.
        stray = record(chroma=C444, target=600.0, actual=900.0, quality=9.5, decode=0.3)
        corpus.append(TitleDataset.from_records([
            record(target=600.0, quality=6.0, decode=0.05), stray,
            record(target=1200.0, quality=8.0, decode=0.1)]))
        assert not any(stray in candidates_for(corpus[-1], t, 0.10, cross_target=cross)
                       for t in (600.0, 1200.0) for cross in (False, True))
        for ds in corpus:
            b = bounds_for(ds)
            qs, dls = normalized_terms(ds, b, [r.log_decode_time for r in ds.records])
            assert len(qs) == len(dls) == len(ds.records)
            for r, q, d in zip(ds.records, qs, dls):
                assert q == normalized_quality(r.quality.value, b)
                assert d == normalized_log_time(r.decode_time, b)
        i = corpus[-1].records.index(stray)
        assert (qs[i], dls[i]) == (1.0, 1.0)
        flat = corpus[-2]
        zeros = [0.0] * len(flat.records)
        assert normalized_terms(flat, bounds_for(flat), [r.log_decode_time for r in flat.records]
                                ) == (zeros, zeros)


class TestCompositeNormalized:
    bounds = NormalizationBounds(3.0, 5.0, math.log(0.1), math.log(0.4))

    def test_best_corner_is_one(self):
        rec = record(quality=5.0, decode=0.1)
        assert composite_normalized(rec, self.bounds, 0.7) == 1.0

    def test_worst_corner_alpha_one_is_minus_one(self):
        rec = record(quality=3.0, decode=0.4)
        assert composite_normalized(rec, self.bounds, 1.0) == -1.0

    def test_midpoint_algebra(self):
        rec = record(quality=4.0, decode=0.2)  # 0.2 = sqrt(0.1 * 0.4)
        got = composite_normalized(rec, self.bounds, 0.04)
        assert got == pytest.approx(0.48, abs=1e-12)

    def test_record_outside_bounds_rejected(self):
        rec = record(quality=5.5, decode=0.2)
        with pytest.raises(BoundsMismatch):
            composite_normalized(rec, self.bounds, 0.0)
        rec = record(quality=4.0, decode=0.5)
        with pytest.raises(BoundsMismatch, match="log decode time"):
            composite_normalized(rec, self.bounds, 0.0)

    def test_record_at_the_tolerance_edge_accepted(self):
        tolerance, ld = 1e-9, math.log(0.2)
        for rec, bounds in (
            (record(quality=3.0 - tolerance, decode=0.2), self.bounds),
            (record(quality=5.0 + tolerance, decode=0.2), self.bounds),
            (record(quality=4.0, decode=0.2), NormalizationBounds(3.0, 5.0, ld + tolerance, 1.0)),
            (record(quality=4.0, decode=0.2), NormalizationBounds(3.0, 5.0, -5.0, ld - tolerance)),
        ):
            composite_normalized(rec, bounds, 0.5)

    def test_degenerate_quality_bounds_zero_term(self):
        b = NormalizationBounds(4.0, 4.0, math.log(0.1), math.log(0.4))
        rec = record(quality=4.0, decode=0.4)
        assert composite_normalized(rec, b, 1.0) == -1.0
        assert normalized_quality(4.0, b) == 0.0

    def test_degenerate_time_bounds_zero_term(self):
        b = NormalizationBounds(3.0, 5.0, math.log(0.2), math.log(0.2))
        rec = record(quality=5.0, decode=0.2)
        assert composite_normalized(rec, b, 1.0) == 1.0
        assert normalized_log_time(0.2, b) == 0.0


finite_quality = st.floats(min_value=0.0, max_value=10.0)
decode_times = st.floats(min_value=1e-4, max_value=10.0)
alphas = st.floats(min_value=0.0, max_value=1.0)


class TestProperties:
    @given(
        qs=st.lists(finite_quality, min_size=2, max_size=10, unique=True),
        ds=st.lists(decode_times, min_size=2, max_size=10, unique=True),
        alpha=alphas,
    )
    def test_terms_in_unit_interval_and_j_range(self, qs, ds, alpha):
        recs = [
            record(target=600.0 + i, quality=q, decode=d)
            for i, (q, d) in enumerate(zip(qs, ds))
        ]
        dataset = TitleDataset.from_records(recs)
        b = bounds_for(dataset)
        for r in recs:
            qn = normalized_quality(r.quality.value, b)
            dn = normalized_log_time(r.decode_time, b)
            assert 0.0 <= qn <= 1.0
            assert 0.0 <= dn <= 1.0
            j = composite_normalized(r, b, alpha)
            assert -alpha - 1e-12 <= j <= 1.0 + 1e-12

    @given(alpha=st.floats(min_value=1e-3, max_value=1.0))
    def test_strictly_increasing_in_quality_decreasing_in_time(self, alpha):
        b = NormalizationBounds(2.0, 9.0, math.log(0.02), math.log(0.5))
        base = composite_normalized(record(quality=5.0, decode=0.1), b, alpha)
        assert composite_normalized(record(quality=5.5, decode=0.1), b, alpha) > base
        assert composite_normalized(record(quality=5.0, decode=0.2), b, alpha) < base

    @given(
        qs=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=8, unique=True),
        a=st.sampled_from([0.5, 2.0, 3.0, 10.0]),
        shift=st.sampled_from([-5.0, 0.0, 1.25, 40.0]),
    )
    def test_affine_quality_rescale_keeps_argmax_at_alpha_zero(self, qs, a, shift):
        recs = [
            record(target=600.0 + i, quality=float(q), decode=0.05 + 0.01 * i)
            for i, q in enumerate(qs)
        ]
        scaled = [
            record(target=600.0 + i, quality=a * float(q) + shift, decode=0.05 + 0.01 * i)
            for i, q in enumerate(qs)
        ]
        b1 = bounds_for(TitleDataset.from_records(recs))
        b2 = bounds_for(TitleDataset.from_records(scaled))
        j1 = [composite_normalized(r, b1, 0.0) for r in recs]
        j2 = [composite_normalized(r, b2, 0.0) for r in scaled]
        assert j1.index(max(j1)) == j2.index(max(j2))

    @given(
        ds=st.lists(decode_times, min_size=2, max_size=8, unique=True),
        k=st.sampled_from([1e-3, 0.25, 3.0, 1e3]),
        alpha=alphas,
    )
    def test_decode_time_scale_invariance(self, ds, k, alpha):
        recs = [record(target=600.0 + i, quality=5.0 + i, decode=d) for i, d in enumerate(ds)]
        scaled = [
            record(target=600.0 + i, quality=5.0 + i, decode=d * k) for i, d in enumerate(ds)
        ]
        b1 = bounds_for(TitleDataset.from_records(recs))
        b2 = bounds_for(TitleDataset.from_records(scaled))
        for r1, r2 in zip(recs, scaled):
            j1 = composite_normalized(r1, b1, alpha)
            j2 = composite_normalized(r2, b2, alpha)
            assert abs(j1 - j2) <= 1e-12
