"""Synthetic corpus generator tests."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromaladder import (
    ChromaFormat,
    QualityMetric,
    candidates_for,
    default_spec,
    generate,
    parse_dataset,
    serialize_dataset,
    sparse_spec,
    spec_from_json,
    spec_to_json,
)
from chromaladder.errors import InvalidSpec
from chromaladder.synth import _Stream, _in_title_order, _title_id
from helpers import C420, C444


def noise_free():
    return replace(default_spec(titles=3), noise=0.0, jitter=0.0, title_variation=0.0)


class TestDeterminism:
    def test_same_seed_identical(self):
        spec = default_spec(titles=4)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        assert generate(default_spec(titles=2)) != generate(default_spec(seed=1, titles=2))

    def test_titles_independent_of_count(self):
        # Adding titles must not change earlier ones (per-title sub-seeds).
        small = generate(default_spec(titles=2))
        large = generate(default_spec(titles=5))
        assert large[:2] == small


# Ordered (lo, hi) pairs, as synth draws them: numpy's uniform refuses hi < lo.
BOUNDS = st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted),
                  min_size=1, max_size=200)
SYNTH_BOUNDS = [(-0.12, 0.12), (0.94, 1.06), (-1.0, 1.0)] * 20


class TestStream:
    @given(st.integers(0, 2**64 - 1), st.integers(min_value=0), BOUNDS)
    @example(0, 0, SYNTH_BOUNDS)
    @example(2**64 - 1, 0, SYNTH_BOUNDS)
    # The first seed of three 32-bit words, and an index of two.
    @example(2**64, 0, SYNTH_BOUNDS)
    @example(20250809, 2**32, SYNTH_BOUNDS)
    # More than the pool's four words of entropy.
    @example(2**200 - 1, 2**150 + 7, SYNTH_BOUNDS)
    @example(-1, 0, SYNTH_BOUNDS)
    def test_equals_numpy_default_rng_uniform(self, seed, index, bounds):
        """The stream draws what ``default_rng([seed, index]).uniform`` draws,
        bit for bit, and refuses a negative seed with numpy's error."""
        try:
            want = np.random.default_rng([seed, index])
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _Stream((seed, index))
            assert str(got.value) == str(exc) == "expected non-negative integer"
            return
        stream = _Stream((seed, index))
        for lo, hi in bounds:
            got = stream.uniform(lo, hi)
            assert type(got) is float and got.hex() == float(want.uniform(lo, hi)).hex()


class TestClosedFormModels:
    def test_noise_free_values_follow_models_pointwise(self):
        spec = noise_free()
        for ds in generate(spec):
            for rec in ds.records:
                model = spec.quality[(rec.resolution.height, rec.chroma)]
                assert rec.quality.value == model.score(rec.target_bitrate)
                want_tau = (
                    spec.time_base_s[rec.resolution.height]
                    * spec.time_chroma_factor[rec.chroma]
                    * (1.0 + spec.time_rate_slope * rec.target_bitrate)
                )
                assert rec.decode_time == want_tau
                assert rec.actual_bitrate == rec.target_bitrate

    def test_full_chroma_decodes_twice_as_slow(self):
        ds = generate(noise_free())[0]
        by_key = {(r.resolution.height, r.chroma, r.target_bitrate): r for r in ds.records}
        for b in (600.0, 4500.0, 16800.0):
            ratio = by_key[(2160, C444, b)].decode_time / by_key[(2160, C420, b)].decode_time
            assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_quality_crossover_low_fidelity_wins_low_rates(self):
        spec = noise_free()
        q420 = spec.quality[(2160, C420)]
        q444 = spec.quality[(2160, C444)]
        assert q420.score(600.0) > q444.score(600.0)
        assert q444.score(16800.0) > q420.score(16800.0)


class TestTitleOrder:
    @settings(deadline=None)
    @given(st.integers(1, 12000))
    @example(1)
    @example(100)
    @example(1000)
    @example(1002)
    @example(1011)
    @example(10000)
    @example(10001)
    def test_indices_come_in_title_id_order(self, n):
        assert list(_in_title_order(n)) == sorted(range(n), key=_title_id)


class TestMeasurementsIntegration:
    def test_round_trips_through_parser(self):
        datasets = generate(default_spec(titles=3))
        parsed = parse_dataset(serialize_dataset(datasets))
        assert parsed == datasets

    def test_default_jitter_never_misses_window(self):
        for ds in generate(default_spec(titles=3)):
            for t in ds.bitrate_targets:
                assert len(candidates_for(ds, t, 0.10)) == 6

    def test_sparse_preset_exercises_absent_rungs(self):
        datasets = generate(sparse_spec())
        misses = sum(
            len(candidates_for(ds, t, 0.10)) < 6
            for ds in datasets
            for t in ds.bitrate_targets
        )
        assert misses > 0


class TestSpecValidation:
    def test_zero_titles_rejected(self):
        with pytest.raises(InvalidSpec):
            replace(default_spec(), titles=0)

    def test_unsorted_targets_rejected(self):
        with pytest.raises(InvalidSpec):
            replace(default_spec(), targets_kbps=(900.0, 600.0))

    def test_chroma_factor_order_enforced(self):
        spec = default_spec()
        bad = dict(spec.time_chroma_factor)
        bad[ChromaFormat.C444] = 0.5
        with pytest.raises(InvalidSpec):
            replace(spec, time_chroma_factor=bad)

    def test_ceiling_order_enforced(self):
        spec = default_spec()
        bad = dict(spec.quality)
        low = bad[(2160, C444)]
        bad[(2160, C444)] = replace(low, ceiling=1.0)
        with pytest.raises(InvalidSpec):
            replace(spec, quality=bad)

    def test_missing_model_rejected(self):
        spec = default_spec()
        bad = dict(spec.quality)
        del bad[(2160, C444)]
        with pytest.raises(InvalidSpec):
            replace(spec, quality=bad)

    def test_excessive_jitter_rejected(self):
        with pytest.raises(InvalidSpec):
            replace(default_spec(), jitter=1.0)


class TestSpecJson:
    def test_round_trip(self):
        spec = default_spec()
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_sparse_round_trip(self):
        spec = sparse_spec(seed=5, titles=7)
        assert spec_from_json(spec_to_json(spec)) == spec

    @pytest.mark.parametrize("omitted", ["noise", "jitter", "title_variation", "metric"])
    def test_omitted_optional_key_takes_dataclass_default(self, omitted):
        payload = json.loads(spec_to_json(default_spec()))
        del payload[omitted]
        assert spec_from_json(json.dumps(payload)) == default_spec()

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidSpec):
            spec_from_json("{not json")

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidSpec):
            spec_from_json("{}")

    def test_psnr_flavor(self):
        spec = default_spec(metric=QualityMetric.YUVPSNR_DB)
        ds = generate(replace(spec, titles=1))[0]
        assert ds.metric is QualityMetric.YUVPSNR_DB
        assert all(r.quality.value > 15.0 for r in ds.records)
