"""Ladder optimizer, oracle, benchmark builders, and constraint tests.

The definitional oracle here re-derives everything from the documented rules:
it enumerates every per-rung choice combination, keeps those whose present
rungs satisfy the chain constraints and where no absent rung could be flipped
to a present candidate (absences only where forced), and picks the best by
(summed objective, documented tie order). It shares nothing with the package's
dynamic program or its pruned enumeration beyond the objective values.
"""

import contextlib
import gc
import importlib.util
import itertools
import math
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromaladder.ladder as ladder_module
from chromaladder import (
    Alpha,
    CandidateIndex,
    Ladder,
    Method,
    OptimizerMode,
    Rung,
    TitleDataset,
    bounds_for,
    build_default,
    build_dynres,
    build_fixed,
    candidates_for,
    chroma_counts,
    chroma_pmf,
    composite_normalized,
    default_spec,
    enumerate_optimal,
    generate,
    load_plan,
    optimize_arcs,
    sparse_spec,
)
from chromaladder.errors import (
    AllRungsAbsent,
    InvalidLadder,
    LadderError,
    InvalidPlan,
    NoPresentRungs,
    PlanTargetUnknown,
    SearchSpaceTooLarge,
)
from chromaladder.measurements import QualityScore
from helpers import (
    C420,
    C422,
    C444,
    grid_dataset,
    ladder_sums,
    oracle_compile,
    random_dataset,
    record,
)


# -- definitional oracle -------------------------------------------------------


def _hf(rec):
    return (rec.resolution.height, rec.chroma.fidelity_rank)


def _step_ok(prev, nxt):
    if nxt[0] != prev[0]:
        return nxt[0] > prev[0]
    return nxt[1] >= prev[1]


def _chain_feasible(chosen):
    prev = None
    for rec in chosen:
        if rec is None:
            continue
        cur = _hf(rec)
        if prev is not None and not _step_ok(prev, cur):
            return False
        prev = cur
    return True


def _is_maximal(chosen, pools):
    for i, rec in enumerate(chosen):
        if rec is not None:
            continue
        for cand in pools[i]:
            trial = list(chosen)
            trial[i] = cand
            if _chain_feasible(trial):
                return False
    return True


def definitional_best(dataset, alpha, tolerance=0.10, chroma=None):
    """Best maximal assignment by exhaustive subset enumeration."""
    pools = [candidates_for(dataset, t, tolerance) for t in dataset.bitrate_targets]
    if chroma is not None:
        pools = [[r for r in pool if r.chroma is chroma] for pool in pools]
    bounds = bounds_for(dataset)
    jval = {r.key: composite_normalized(r, bounds, alpha) for p in pools for r in p}
    best = None
    for combo in itertools.product(*[[None] + list(p) for p in pools]):
        if not _chain_feasible(combo) or not _is_maximal(combo, pools):
            continue
        score = 0.0
        keys = []
        for rec in combo:
            if rec is None:
                keys.append((0, 0.0, 0.0, 0, 0, 0.0, 0.0))
            else:
                score += jval[rec.key]
                keys.append(
                    (
                        1,
                        jval[rec.key],
                        -rec.decode_time,
                        -rec.resolution.height,
                        -rec.chroma.fidelity_rank,
                        -rec.target_bitrate,
                        -rec.actual_bitrate,
                    )
                )
        entry = (score, tuple(keys), combo)
        if best is None or entry[:2] > best[:2]:
            best = entry
    assert best is not None
    return best[2]


def choices_of(ladder):
    return tuple(r.choice for r in ladder.rungs)


# -- engineered fixtures -------------------------------------------------------


class TestOptimizeArcs:
    def test_alpha_zero_unconstrained_equals_quality_argmax(self):
        # Quality strictly increases with (height, fidelity) at every target,
        # so the per-target argmax is constant (2160, C444): constraints idle.
        ds = grid_dataset(
            lambda h, c, b: 5.0 + (h / 2160) + 0.3 * c.fidelity_rank + b / 1e5,
            lambda h, c, b: 0.02 * (h / 1080) * (1 + c.fidelity_rank),
        )
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        for rung, t in zip(ladder.rungs, ds.bitrate_targets):
            per_target = candidates_for(ds, t, 0.10)
            best = max(per_target, key=lambda r: r.quality.value)
            assert rung.choice == best
            assert (rung.choice.resolution.height, rung.choice.chroma) == (2160, C444)

    def test_high_alpha_picks_low_chroma_at_lowest_rung(self):
        # At the lowest target the full-chroma encode costs twice the decode
        # time for nearly identical quality, so a large alpha flips it.
        ds = grid_dataset(
            lambda h, c, b: 5.0 + b / 4000 + 0.01 * c.fidelity_rank,
            lambda h, c, b: 0.1 * (1.0 + c.fidelity_rank / 2.0) * (1 + b / 1e5),
            heights=(2160,),
            targets=(600.0, 1200.0, 2400.0),
        )
        assert (
            ds.records[2].decode_time / ds.records[0].decode_time == 2.0
        )  # C444 vs C420 at 600
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.8))
        assert ladder.rungs[0].choice.chroma is C420
        assert choices_of(ladder) == definitional_best(ds, Alpha(0.8))

    def test_chroma_refresh_chain(self):
        vals = {
            (600.0, 1080, C420): 6.0,
            (600.0, 1080, C444): 7.0,
            (600.0, 2160, C420): 5.0,
            (1200.0, 1080, C444): 7.2,
            (1200.0, 2160, C420): 7.5,
            (2400.0, 2160, C420): 8.0,
            (2400.0, 2160, C422): 8.5,
            (2400.0, 2160, C444): 9.0,
        }
        recs = [
            record(height=h, chroma=c, target=t, quality=q, decode=0.05 * (1 + c.fidelity_rank))
            for (t, h, c), q in vals.items()
        ]
        ds = TitleDataset.from_records(recs)
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        got = [(r.choice.resolution.height, r.choice.chroma) for r in ladder.rungs]
        assert got == [(1080, C444), (2160, C420), (2160, C444)]
        assert choices_of(ladder) == definitional_best(ds, Alpha(0.0))

    def test_single_target_is_plain_argmax(self):
        ds = grid_dataset(
            lambda h, c, b: 5.0 + 0.5 * c.fidelity_rank - (h / 2160),
            lambda h, c, b: 0.05 * (1 + c.fidelity_rank),
            targets=(900.0,),
        )
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.2))
        bounds = bounds_for(ds)
        best = max(
            candidates_for(ds, 900.0, 0.10),
            key=lambda r: composite_normalized(r, bounds, Alpha(0.2)),
        )
        assert ladder.rungs[0].choice == best

    def test_single_target_with_negative_objective_still_present(self):
        # The only candidate has the worst quality and time of the title, so
        # its objective is negative; an absent rung is still not an option.
        recs = [
            record(target=600.0, quality=3.0, decode=0.5),
            record(target=900.0, quality=8.0, decode=0.1, chroma=C422),
        ]
        ds = TitleDataset.from_records(recs)
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(1.0))
        assert all(r.present for r in ladder.rungs)

    def test_conflicting_single_candidates_drop_lower_value_rung(self):
        high = record(height=2160, target=600.0, quality=9.0, decode=0.2)
        low = record(height=1080, target=1200.0, quality=5.0, decode=0.1)
        ds = TitleDataset.from_records([high, low])
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        assert ladder.rungs[0].choice == high
        assert ladder.rungs[1].choice is None
        # and the mirror image
        high2 = record(height=2160, target=600.0, quality=5.0, decode=0.2)
        low2 = record(height=1080, target=1200.0, quality=9.0, decode=0.1)
        ds2 = TitleDataset.from_records([high2, low2])
        ladder2 = optimize_arcs(CandidateIndex(ds2), Alpha(0.0))
        assert ladder2.rungs[0].choice is None
        assert ladder2.rungs[1].choice == low2

    def test_missing_window_yields_absent_rung(self):
        recs = [
            record(target=600.0, actual=800.0),  # misses +-10%
            record(target=1200.0, actual=1180.0),
        ]
        ds = TitleDataset.from_records(recs)
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        assert [r.present for r in ladder.rungs] == [False, True]

    def test_all_rungs_absent_raises(self):
        ds = TitleDataset.from_records([record(target=600.0, actual=900.0)])
        with pytest.raises(AllRungsAbsent):
            optimize_arcs(CandidateIndex(ds), Alpha(0.0))

    def test_exact_tie_broken_toward_cheaper_then_lower(self):
        # Identical quality and decode time: lower resolution, then lower
        # fidelity wins. Distinct decode time wins outright.
        recs = [
            record(height=2160, chroma=C444, target=600.0, quality=7.0, decode=0.2),
            record(height=1080, chroma=C422, target=600.0, quality=7.0, decode=0.2),
            record(height=1080, chroma=C420, target=600.0, quality=7.0, decode=0.2),
            record(height=2160, chroma=C420, target=600.0, quality=7.0, decode=0.25),
        ]
        ds = TitleDataset.from_records(recs)
        ladder = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        assert (ladder.rungs[0].choice.resolution.height, ladder.rungs[0].choice.chroma) == (1080, C420)

    def test_greedy_is_feasible_but_can_be_myopic(self):
        recs = [
            record(height=1080, chroma=C444, target=600.0, quality=7.0, decode=0.08),
            record(height=1080, chroma=C420, target=600.0, quality=6.9, decode=0.05),
            record(height=1080, chroma=C420, target=1200.0, quality=9.0, decode=0.06),
        ]
        ds = TitleDataset.from_records(recs)
        greedy = optimize_arcs(CandidateIndex(ds), Alpha(0.0), mode=OptimizerMode.GREEDY_SEQUENTIAL)
        dp = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        assert greedy.rungs[0].choice.chroma is C444  # locks high chroma
        assert greedy.rungs[1].choice is None
        assert dp.rungs[0].choice.chroma is C420
        assert dp.rungs[1].present
        assert greedy.sum_j_prime() <= dp.sum_j_prime()

    def test_determinism_identical_outputs(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng)
        a = optimize_arcs(CandidateIndex(ds), Alpha(0.3))
        b = optimize_arcs(CandidateIndex(ds), Alpha(0.3))
        assert a == b


class TestOracleAgreement:
    def test_dp_matches_definitional_oracle_on_random_instances(self):
        rng = np.random.default_rng(20250809)
        for trial in range(150):
            ds = random_dataset(rng, max_targets=3, p_missing=0.5)
            alpha = Alpha(float(rng.choice([0.0, 0.01, 0.08, 0.5, 1.0])))
            want = definitional_best(ds, alpha)
            assert choices_of(optimize_arcs(CandidateIndex(ds), alpha)) == want, f"trial {trial}"
            assert choices_of(enumerate_optimal(CandidateIndex(ds), alpha)) == want, f"trial {trial}"

    def test_enumerate_matches_dp_on_larger_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            ds = random_dataset(rng, max_targets=6)
            alpha = Alpha(float(rng.uniform(0.0, 1.0)))
            dp = optimize_arcs(CandidateIndex(ds), alpha)
            oracle = enumerate_optimal(CandidateIndex(ds), alpha)
            assert dp.rungs == oracle.rungs, f"trial {trial}"

    def test_greedy_never_beats_dp(self):
        rng = np.random.default_rng(4242)
        for _ in range(120):
            ds = random_dataset(rng)
            alpha = Alpha(float(rng.uniform(0.0, 1.0)))
            dp = optimize_arcs(CandidateIndex(ds), alpha)
            greedy = optimize_arcs(CandidateIndex(ds), alpha, mode=OptimizerMode.GREEDY_SEQUENTIAL)
            assert greedy.sum_j_prime() <= dp.sum_j_prime() + 1e-12

    def test_search_space_guard(self):
        ds = grid_dataset(
            lambda h, c, b: 5.0 + b / 20000,
            lambda h, c, b: 0.05,
            targets=tuple(600.0 * (1.3**i) for i in range(10)),
        )
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_optimal(CandidateIndex(ds), Alpha(0.0))


class TestScalarizationMonotonicity:
    def test_sums_non_increasing_in_alpha(self):
        rng = np.random.default_rng(11)
        alphas = [0.0, 0.05, 0.2, 0.5, 1.0]
        for _ in range(40):
            ds = random_dataset(rng)
            sums = [ladder_sums(optimize_arcs(CandidateIndex(ds), Alpha(a)), ds) for a in alphas]
            for (q1, d1), (q2, d2) in zip(sums, sums[1:]):
                assert d2 <= d1 + 1e-12
                assert q2 <= q1 + 1e-12


class TestBuildDefault:
    def full(self):
        return grid_dataset(
            lambda h, c, b: 5.0 + b / 20000 + 0.1 * c.fidelity_rank,
            lambda h, c, b: 0.05 * (h / 1080),
        )

    def test_every_rung_native_full_chroma(self):
        ladder = build_default(CandidateIndex(self.full()))
        assert all(
            (r.choice.resolution.height, r.choice.chroma) == (2160, C444)
            for r in ladder.rungs
        )
        assert ladder.method is Method.DEFAULT
        assert ladder.alpha is None

    def test_low_bitrate_overshoot_leaves_gap(self):
        recs = [
            r
            for r in self.full().records
            if not (
                r.resolution.height == 2160
                and r.chroma is C444
                and r.target_bitrate == 600.0
            )
        ]
        recs.append(record(height=2160, chroma=C444, target=600.0, actual=700.0, quality=5.0, decode=0.1))
        ladder = build_default(CandidateIndex(TitleDataset.from_records(recs)))
        assert not ladder.rungs[0].present
        assert all(r.present for r in ladder.rungs[1:])

    def test_empty_dataset_all_absent(self):
        with pytest.raises(AllRungsAbsent):
            build_default(CandidateIndex(TitleDataset("t", (), ())))

    def test_window_is_the_index_window(self):
        # The native 600 kbps encode lands 7% over its target: inside a 10%
        # window, outside a 5% one.
        recs = [
            r
            for r in self.full().records
            if (r.resolution.height, r.chroma, r.target_bitrate) != (2160, C444, 600.0)
        ]
        recs.append(record(height=2160, chroma=C444, target=600.0, actual=642.0, quality=5.0, decode=0.1))
        ds = TitleDataset.from_records(recs)
        assert build_default(CandidateIndex(ds, 0.10)).rungs[0].present
        assert not build_default(CandidateIndex(ds, 0.05)).rungs[0].present
        fixed = build_fixed(CandidateIndex(ds, 0.05), [(600.0, 2160), (2400.0, 2160)])
        assert fixed.rungs[0] == Rung(600.0) and fixed.rungs[1].present

    @pytest.mark.parametrize("cross_target", [False, True])
    def test_is_the_native_height_fixed_plan(self, cross_target):
        rng = np.random.default_rng(919)
        corpus = [random_dataset(rng) for _ in range(25)]
        corpus += generate(sparse_spec(seed=0, titles=6))
        for ds in corpus:
            height = max(r.resolution.height for r in ds.records)
            try:
                fixed = build_fixed(CandidateIndex(ds, cross_target=cross_target),
                                    [(t, height) for t in ds.bitrate_targets])
            except AllRungsAbsent as absent:
                with pytest.raises(AllRungsAbsent, match=f"no \\({height}, 444\\) encode") as got:
                    build_default(CandidateIndex(ds, cross_target=cross_target))
                assert str(got.value) == str(absent)
                continue
            want = Ladder(ds.title_id, Method.DEFAULT, fixed.rungs, None)
            assert build_default(CandidateIndex(ds, cross_target=cross_target)) == want


class TestBuildDynres:
    def test_low_rate_low_resolution_crossover(self):
        ds = grid_dataset(
            lambda h, c, b: 6.0 + (0.8 if h == 1080 else -0.8) * (1.0 if b < 2000 else -1.0),
            lambda h, c, b: 0.05 * (h / 1080),
            targets=(600.0, 1200.0, 4800.0, 9600.0),
        )
        ladder = build_dynres(CandidateIndex(ds), Alpha(0.0))
        heights = [r.choice.resolution.height for r in ladder.rungs]
        assert heights == [1080, 1080, 2160, 2160]
        assert all(r.choice.chroma is C444 for r in ladder.rungs)
        want = definitional_best(ds, Alpha(0.0), chroma=C444)
        assert choices_of(ladder) == want

    def test_alpha_zero_top_resolution_everywhere(self):
        ds = grid_dataset(
            lambda h, c, b: 5.0 + h / 2160 + b / 1e5,
            lambda h, c, b: 0.05 * (h / 1080),
        )
        ladder = build_dynres(CandidateIndex(ds), Alpha(0.0))
        assert all(r.choice.resolution.height == 2160 for r in ladder.rungs)

    def test_missing_pinned_chroma_raises(self):
        ds = grid_dataset(
            lambda h, c, b: 6.0,
            lambda h, c, b: 0.05,
            chromas=(C420, C422),
        )
        with pytest.raises(AllRungsAbsent):
            build_dynres(CandidateIndex(ds), Alpha(0.0))


class TestBuildFixed:
    def full(self):
        return grid_dataset(
            lambda h, c, b: 5.0 + b / 20000,
            lambda h, c, b: 0.05,
        )

    def test_plan_lookup(self):
        ladder = build_fixed(CandidateIndex(self.full()), [(600.0, 1080), (2400.0, 2160)])
        assert [(r.target_bitrate, r.choice.resolution.height) for r in ladder.rungs] == [
            (600.0, 1080),
            (2400.0, 2160),
        ]
        assert all(r.choice.chroma is C444 for r in ladder.rungs)

    def test_unknown_plan_target(self):
        with pytest.raises(PlanTargetUnknown):
            build_fixed(CandidateIndex(self.full()), [(7000.0, 2160)])

    def test_decreasing_plan_rejected(self):
        with pytest.raises(InvalidPlan):
            build_fixed(CandidateIndex(self.full()), [(600.0, 2160), (2400.0, 1080)])

    def test_duplicate_plan_target_rejected(self):
        with pytest.raises(InvalidPlan):
            build_fixed(CandidateIndex(self.full()), [(600.0, 1080), (600.0, 2160)])

    def test_unmatched_plan_rung_absent(self):
        ladder = build_fixed(CandidateIndex(self.full()), [(600.0, 1080)], fixed_chroma=C420)
        assert ladder.rungs[0].present  # C420 exists in the grid
        # C420 only at 600 kbps: the 2400 kbps rung finds no encode.
        sparse = TitleDataset.from_records(
            r for r in self.full().records if r.chroma is C444 or r.target_bitrate == 600.0)
        plan = [(600.0, 1080), (2400.0, 1080)]
        ladder2 = build_fixed(CandidateIndex(sparse), plan, fixed_chroma=C420)
        assert ladder2.rungs[0].present and not ladder2.rungs[1].present

    def test_plan_without_a_present_rung_raises(self):
        # The grid has no 540p or 720p encode.
        index = CandidateIndex(self.full())
        with pytest.raises(AllRungsAbsent) as got:
            build_fixed(index, [(600.0, 540), (2400.0, 720), (9000.0, 720)], C420)
        assert str(got.value) == "title 't': no (540/720, 420) encode within tolerance at any target"
        with pytest.raises(AllRungsAbsent, match=r"^title 't': no \(None, 444\) encode"):
            build_fixed(index, [])

    def test_plan_file_round_trip(self, tmp_path):
        text = "target_kbps,height\n600,1080\n2400,2160\n"
        plan = load_plan(text)
        assert plan == [(600.0, 1080), (2400.0, 2160)]
        with pytest.raises(InvalidPlan):
            load_plan("bad,header\n1,2\n")

    # Plans that no title can use: load_plan and build_fixed share one check.
    BAD_PLANS = {
        "decreasing heights": ([(600.0, 2160), (900.0, 1080)], "resolutions decrease"),
        "repeated target": ([(600.0, 1080), (600.0, 2160)], "repeats a target"),
        "zero height": ([(600.0, 0)], "height 0 is not positive"),
        "negative height": ([(600.0, -1080)], "height -1080 is not positive"),
        "nan target": ([(float("nan"), 1080)], "target nan is not a positive bitrate"),
        "infinite target": ([(float("inf"), 1080)], "target inf is not a positive bitrate"),
        "zero target": ([(0.0, 1080)], "target 0 is not a positive bitrate"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_PLANS))
    def test_load_plan_rejects_a_plan_build_fixed_rejects(self, case):
        plan, message = self.BAD_PLANS[case]
        text = "target_kbps,height\n" + "".join(f"{t:g},{h}\n" for t, h in plan)
        with pytest.raises(InvalidPlan, match=message):
            load_plan(text)
        with pytest.raises(InvalidPlan, match=message):
            build_fixed(CandidateIndex(self.full()), plan)

    def test_load_plan_rejects_rows_with_other_field_counts(self):
        with pytest.raises(InvalidPlan, match="plan row 2 has 3 fields, not 2"):
            load_plan("target_kbps,height\n600,1080\n900,1080,extra\n")
        with pytest.raises(InvalidPlan, match="plan row 1 has 1 fields, not 2"):
            load_plan("target_kbps,height\n600\n")

    def test_load_plan_drops_one_byte_order_mark(self):
        text = "target_kbps,height\n600,1080\n2400,2160\n"
        assert load_plan("\ufeff" + text) == load_plan(text) == [(600.0, 1080), (2400.0, 2160)]
        with pytest.raises(InvalidPlan, match="plan header must be"):
            load_plan("\ufeff\ufeff" + text)

    def test_load_plan_rejects_a_plan_without_rows(self):
        for text in ("target_kbps,height\n", "target_kbps,height\n\n\n"):
            with pytest.raises(InvalidPlan, match="^plan has no rows$"):
                load_plan(text)

    def test_load_plan_sorts_by_target(self):
        assert load_plan("target_kbps,height\n2400,2160\n\n600,1080\n") == [
            (600.0, 1080), (2400.0, 2160)]

    def test_plan_target_below_one_kbps_accepted(self):
        # Any positive bitrate is a target, 1 kbps and below included.
        assert load_plan("target_kbps,height\n0.5,1080\n1,2160\n") == [
            (0.5, 1080), (1.0, 2160)]
        ds = TitleDataset.from_records([record(target=0.5), record(target=1.0, height=2160)])
        ladder = build_fixed(CandidateIndex(ds), [(0.5, 1080), (1.0, 2160)], fixed_chroma=C420)
        assert [r.choice.target_bitrate for r in ladder.rungs] == [0.5, 1.0]

    def test_cross_target_borrows_the_encode_nearest_the_target(self):
        # The 700 kbps encode missed its window; of the two encodes of other
        # targets inside it, the one at 705 kbps is nearer 700 than the one
        # at 650, though its bitrate is the higher.
        ds = TitleDataset.from_records([
            record(chroma=C444, target=600.0, actual=650.0),
            record(chroma=C444, target=700.0, actual=900.0),
            record(chroma=C444, target=800.0, actual=705.0),
        ])
        ladder = build_fixed(CandidateIndex(ds, cross_target=True), [(700.0, 1080)])
        assert (ladder.rungs[0].choice.target_bitrate, ladder.rungs[0].choice.actual_bitrate) == (
            800.0, 705.0)


class TestValidator:
    def test_resolution_decrease_rejected(self):
        with pytest.raises(InvalidLadder):
            Ladder(
                "t",
                Method.ARCS,
                (
                    Rung(600.0, record(height=2160, target=600.0), 0.5),
                    Rung(1200.0, record(height=1080, target=1200.0), 0.5),
                ),
                Alpha(0.0),
            )

    def test_chroma_decrease_within_run_rejected(self):
        with pytest.raises(InvalidLadder):
            Ladder(
                "t",
                Method.ARCS,
                (
                    Rung(600.0, record(chroma=C444, target=600.0), 0.5),
                    Rung(1200.0, record(chroma=C420, target=1200.0), 0.5),
                ),
                Alpha(0.0),
            )

    def test_chroma_refresh_at_resolution_step_allowed(self):
        ladder = Ladder(
            "t",
            Method.ARCS,
            (
                Rung(600.0, record(height=1080, chroma=C444, target=600.0), 0.5),
                Rung(1200.0, record(height=2160, chroma=C420, target=1200.0), 0.5),
            ),
            Alpha(0.0),
        )
        assert len(ladder.present_rungs) == 2

    def test_constraints_apply_across_gaps(self):
        with pytest.raises(InvalidLadder):
            Ladder(
                "t",
                Method.ARCS,
                (
                    Rung(600.0, record(height=2160, target=600.0), 0.5),
                    Rung(1200.0),
                    Rung(2400.0, record(height=1080, target=2400.0), 0.5),
                ),
                Alpha(0.0),
            )

    def test_unsorted_targets_rejected(self):
        with pytest.raises(InvalidLadder):
            Ladder("t", Method.ARCS, (Rung(1200.0), Rung(600.0)), Alpha(0.0))


class TestChromaPmf:
    def one_format_ladder(self, chroma, n=4):
        recs = [
            record(chroma=chroma, target=600.0 * (i + 1), quality=5.0 + i, decode=0.05)
            for i in range(n)
        ]
        ds = TitleDataset.from_records(recs)
        return optimize_arcs(CandidateIndex(ds), Alpha(0.0))

    def test_uniform_case(self):
        pmf = chroma_pmf([self.one_format_ladder(C420)])
        assert pmf == {C420: 1.0, C422: 0.0, C444: 0.0}

    def test_counting(self):
        ladders = [
            self.one_format_ladder(C420, 5),
            self.one_format_ladder(C422, 3),
            self.one_format_ladder(C444, 2),
        ]
        pmf = chroma_pmf(ladders)
        assert pmf == {C420: 0.5, C422: 0.3, C444: 0.2}
        assert abs(sum(pmf.values()) - 1.0) <= 1e-12

    def test_no_present_rungs_rejected(self):
        with pytest.raises(NoPresentRungs):
            chroma_pmf([])


def _rung_key_tie_title(targets):
    """Two 600 kbps encodes of equal score, and a 2400 kbps encode that both
    can step to; the records at ``targets``."""
    recs = [
        record(height=1080, chroma=C420, target=600.0, quality=6.0, decode=0.05),
        record(height=1080, chroma=C422, target=600.0, quality=6.0, decode=0.05),
        record(height=2160, chroma=C420, target=2400.0, quality=8.0, decode=0.1),
    ]
    return TitleDataset.from_records(r for r in recs if r.target_bitrate in targets)


@contextlib.contextmanager
def _kernels(solves):
    """Offer every DP solve to a kernel from a graph's ``solves``-th solve on.

    Yields ``(made, results)``: each graph given a kernel, with its solve
    count then, and each kernel's result, in order. DP graphs are compiled
    afresh on entry and dropped on exit, so build indexes inside."""
    made, results = [], []
    real = ladder_module._kernel

    def kernel(graph):
        made.append((graph, graph.solves))
        solve = real(graph)

        def run(*args):
            results.append(solve(*args))
            return results[-1]
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder_module, "KERNEL_SOLVES", solves)
        patch.setattr(ladder_module, "_kernel", kernel)
        ladder_module._compile.cache_clear()
        try:
            yield made, results
        finally:
            ladder_module._compile.cache_clear()


@contextlib.contextmanager
def _path_keys_calls():
    """The calls ``_relax`` makes to ``_path_keys`` while open."""
    calls = []
    real = ladder_module._path_keys

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder_module, "_path_keys", counted)
        yield calls


class TestCandidateIndex:
    """The per-title index and compiled DP graph reused across alphas."""

    ALPHAS = (0.0, 0.01, 0.02, 0.04, 0.08, 0.3, 1.0)

    @staticmethod
    def _ladder_or_error(build, *args, **kwargs):
        try:
            return build(*args, **kwargs)
        except AllRungsAbsent:
            return AllRungsAbsent

    @staticmethod
    def _rising_plan(ds):
        # Every target, at heights that rise from the smallest to the largest.
        heights = sorted({r.resolution.height for r in ds.records})
        n = len(ds.bitrate_targets)
        return [(t, heights[i * len(heights) // n]) for i, t in enumerate(ds.bitrate_targets)]

    @pytest.mark.parametrize("cross_target", [False, True])
    def test_shared_index_equals_fresh_builds(self, cross_target):
        # One index per title shared across all builders, modes and alphas,
        # as the CLI loops; every ladder must equal a build from a fresh index.
        rng = np.random.default_rng(515)
        corpus = [random_dataset(rng) for _ in range(25)]
        corpus += generate(sparse_spec(seed=0, titles=6))
        for ds in corpus:
            index = CandidateIndex(ds, 0.10, cross_target=cross_target)
            plan = self._rising_plan(ds)
            for mode in OptimizerMode:
                builders = (
                    lambda ix, a: optimize_arcs(ix, a, mode),
                    lambda ix, a: build_dynres(ix, a, C444, mode),
                    lambda ix, a: build_dynres(ix, a, C420, mode),
                    lambda ix, a: build_default(ix),
                    lambda ix, a: build_fixed(ix, plan, C444),
                    lambda ix, a: build_fixed(ix, plan, C420),
                )
                for build in builders:
                    for alpha in self.ALPHAS:
                        shared = self._ladder_or_error(build, index, Alpha(alpha))
                        fresh = self._ladder_or_error(
                            build, CandidateIndex(ds, 0.10, cross_target=cross_target), Alpha(alpha))
                        assert shared == fresh, (ds.title_id, mode, alpha)

    def test_sparse_corpus_has_absent_rungs(self):
        # Guards the test above: the sparse titles must put both kinds of
        # absent rung (empty window, blocked by the chain) through the DP.
        kinds = set()
        for ds in generate(sparse_spec(seed=0, titles=6)):
            for r in optimize_arcs(CandidateIndex(ds), Alpha(0.04)).rungs:
                if not r.present:
                    kinds.add(bool(candidates_for(ds, r.target_bitrate, 0.10)))
        assert kinds == {False, True}

    @pytest.mark.parametrize(
        "targets",
        [
            # Paths through 420 and 422 at 600 kbps meet at the 2160p rung.
            (600.0, 2400.0),
            # The equal-score paths end in different final states.
            (600.0,),
        ],
    )
    def test_exact_score_tie_broken_by_rung_keys(self, targets):
        ds = _rung_key_tie_title(targets)
        with _path_keys_calls() as calls:
            dp = optimize_arcs(CandidateIndex(ds), Alpha(0.0))
        assert calls, "the tie-break on rung keys was not reached"
        assert dp.rungs[0].choice.chroma is C420  # equal score: lower fidelity wins
        assert dp.rungs == enumerate_optimal(CandidateIndex(ds), Alpha(0.0)).rungs
        assert choices_of(dp) == definitional_best(ds, Alpha(0.0))

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_present_rung_of_zero_score_beats_an_equal_absent_one(self, alpha):
        # The 600 kbps encode has the title's lowest quality and decode time,
        # so j = 0. Skipping it for the 420 encode at 900 kbps, which blocks
        # it, scores as much as taking it and then the 444 encode.
        a = record(height=1080, chroma=C422, target=600.0, quality=5.0, decode=0.01)
        c = record(height=1080, chroma=C444, target=900.0, quality=7.0, decode=0.05)
        ds = TitleDataset.from_records(
            [a, c, record(height=1080, chroma=C420, target=900.0, quality=7.0, decode=0.05)])
        with _path_keys_calls() as calls:
            dp = optimize_arcs(CandidateIndex(ds), Alpha(alpha))
        assert calls, "the tie-break on rung keys was not reached"
        assert choices_of(dp) == (a, c) == definitional_best(ds, Alpha(alpha))
        assert dp.rungs == enumerate_optimal(CandidateIndex(ds), Alpha(alpha)).rungs

    def test_tie_between_candidates_entering_one_state_keeps_the_lower_target(self):
        # With --cross-target both encodes, of one (height, fidelity) and
        # equal score, serve both rungs and enter the same DP state.
        low = record(height=1080, chroma=C420, target=1000.0, quality=7.0, decode=0.05)
        high = record(height=1080, chroma=C420, target=1050.0, quality=7.0, decode=0.05)
        ds = TitleDataset.from_records([low, high])
        with _path_keys_calls() as calls:
            dp = optimize_arcs(CandidateIndex(ds, 0.10, cross_target=True), Alpha(0.0))
        assert calls, "the tie-break on rung keys was not reached"
        assert choices_of(dp) == (low, low)
        assert dp.rungs == enumerate_optimal(
            CandidateIndex(ds, 0.10, cross_target=True), Alpha(0.0)).rungs

    def test_index_scores_equal_composite_normalized(self):
        rng = np.random.default_rng(616)
        corpus = [random_dataset(rng) for _ in range(20)]
        # Degenerate bounds: every q' and d' is 0.0.
        corpus.append(grid_dataset(lambda h, c, b: 5.0, lambda h, c, b: 0.05))
        solved = []
        for ds in corpus:
            bounds = bounds_for(ds)
            for cross_target in (False, True):
                index = CandidateIndex(ds, 0.10, cross_target=cross_target)
                for alpha in self.ALPHAS:
                    for pool in index.pools:
                        for rec, q, d, hf in pool:
                            assert q - alpha * d == composite_normalized(rec, bounds, alpha)
                            assert hf == (rec.resolution.height, rec.chroma.fidelity_rank)
                # The rungs' j_prime on the interpreted pass, then with every
                # DP solve offered to a kernel first.
                for solves in (math.inf, 1):
                    with _kernels(solves) as (_, results):
                        index = CandidateIndex(ds, 0.10, cross_target=cross_target)
                        for alpha in self.ALPHAS:
                            for build in (optimize_arcs, build_dynres):
                                ladder = self._ladder_or_error(build, index, Alpha(alpha))
                                if ladder is AllRungsAbsent:
                                    continue
                                for rung in ladder.present_rungs:
                                    assert rung.j_prime == composite_normalized(
                                        rung.choice, bounds, alpha)
                    solved += results
        # Kernels chose rungs, and declined ties to the interpreted pass.
        assert {choices is None for choices in solved} == {False, True}

    def test_index_pools_follow_candidates_for(self):
        rng = np.random.default_rng(717)
        for _ in range(10):
            ds = random_dataset(rng)
            for cross_target in (False, True):
                index = CandidateIndex(ds, 0.10, cross_target=cross_target)
                assert [[c[0] for c in pool] for pool in index.pools] == [
                    candidates_for(ds, t, 0.10, cross_target=cross_target)
                    for t in ds.bitrate_targets
                ]


# -- DP graphs shared across titles ------------------------------------------------


def _shape(index, chroma):
    return tuple(tuple(c[3] for c in pool) for pool in index._pools(chroma))


def _with_other_values(ds, rng, title):
    """``ds`` renamed, with the same windows but new quality and decode values."""
    return TitleDataset.from_records(
        replace(r, title_id=title,
                quality=QualityScore(r.quality.metric, float(rng.uniform(2.0, 9.5))),
                decode_time=float(rng.uniform(0.01, 0.6)))
        for r in ds.records
    )


class TestSharedGraph:
    """``_compile`` is memoized on the pools' (height, fidelity_rank) pairs."""

    def test_one_compile_per_shape_and_chroma_view(self):
        compile_ = ladder_module._compile
        compile_.cache_clear()
        shapes = set()
        for ds in generate(default_spec(titles=30)):
            index = CandidateIndex(ds)
            for alpha in (0.0, 0.04):
                optimize_arcs(index, Alpha(alpha))
                build_dynres(index, Alpha(alpha))
            shapes |= {_shape(index, None), _shape(index, C444)}
        # One encoding grid: one shape per chroma view.
        assert len(shapes) == 2
        assert compile_.cache_info().misses == len(shapes)

    def test_title_with_other_windows_gets_its_own_graph(self):
        def title(name, cells):
            return TitleDataset.from_records(
                record(name, h, c, t, quality=q, decode=0.02 * (1 + c.fidelity_rank) * h / 1080)
                for t, h, c, q in cells
            )

        first = title("first", [(600, 1080, C420, 6.0), (600, 2160, C444, 6.5),
                                (2400, 1080, C444, 7.0), (2400, 2160, C420, 8.0)])
        # The same heights, other fidelities.
        refidelity = title("refidelity", [(600, 1080, C444, 6.0), (600, 2160, C420, 6.5),
                                          (2400, 1080, C420, 7.0), (2400, 2160, C444, 8.0)])
        # The same pool lengths, other heights.
        reheight = title("reheight", [(600, 1080, C420, 6.0), (600, 1080, C444, 6.5),
                                      (2400, 2160, C420, 7.0), (2400, 2160, C444, 8.0)])
        compile_ = ladder_module._compile
        compile_.cache_clear()
        for ds in (first, refidelity, reheight, first, refidelity, reheight):
            for alpha in (0.0, 0.2, 1.0):
                assert optimize_arcs(CandidateIndex(ds), Alpha(alpha)).rungs == (
                    enumerate_optimal(CandidateIndex(ds), Alpha(alpha)).rungs)
                assert choices_of(optimize_arcs(CandidateIndex(ds), Alpha(alpha))) == (
                    definitional_best(ds, Alpha(alpha)))
        assert compile_.cache_info().misses == 3

    @pytest.mark.parametrize("cross_target", [False, True])
    def test_shared_graph_ladders_equal_oracle_and_fresh_compile(self, cross_target):
        rng = np.random.default_rng(929)
        corpus = [random_dataset(rng, title=f"r{i}") for i in range(30)]
        corpus += generate(replace(sparse_spec(seed=5, titles=6),
                                   targets_kbps=(600.0, 1600.0, 3400.0, 8100.0)))
        # Each title is followed by one with its windows and other values.
        titles = [t for ds in corpus for t in (ds, _with_other_values(ds, rng, ds.title_id + "'"))]
        alphas = (0.0, 0.05, 0.3)
        build = TestCandidateIndex._ladder_or_error

        def index(ds):
            return CandidateIndex(ds, cross_target=cross_target)

        def ladders(ds):
            return [(build(optimize_arcs, index(ds), Alpha(a)), build(build_dynres, index(ds), Alpha(a)))
                    for a in alphas]

        compile_ = ladder_module._compile
        compile_.cache_clear()
        shared = []
        for ds in titles:
            misses = compile_.cache_info().misses
            shared.append(ladders(ds))
            if ds.title_id.endswith("'"):
                assert compile_.cache_info().misses == misses, ds.title_id
        for ds, got in zip(titles, shared):
            compile_.cache_clear()
            assert got == ladders(ds), ds.title_id
            for alpha, (arcs, _) in zip(alphas, got):
                assert arcs == build(enumerate_optimal, index(ds), Alpha(alpha)), (ds.title_id, alpha)

    def test_memo_is_bounded(self):
        compile_ = ladder_module._compile
        compile_.cache_clear()
        for ds in generate(sparse_spec(seed=0, titles=20)):
            optimize_arcs(CandidateIndex(ds), Alpha(0.0))
            build_dynres(CandidateIndex(ds), Alpha(0.0))
        info = compile_.cache_info()
        # Every sparse title has windows of its own.
        assert info.misses == 40
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


# -- live-state DP graphs ------------------------------------------------------------


def _views(ds):
    """(candidate index, chroma view) of ``ds`` for both ``cross_target`` values
    and the arcs, 4:2:0 and 4:4:4 views."""
    for cross_target in (False, True):
        index = CandidateIndex(ds, 0.10, cross_target=cross_target)
        for chroma in (None, C420, C444):
            yield index, chroma


def _paths_to_finals(graph):
    """Number of paths from the start state to a final state."""
    counts = [1]
    for edges, width in zip(graph.layers, graph.widths):
        nxt = [0] * width
        for src, dst, _ in edges:
            nxt[dst] += counts[src]
        counts = nxt
    return sum(counts[f] for f in graph.finals)


def _maximal_assignments(pools):
    """Number of chain-feasible maximal assignments, by the definition."""
    return sum(
        1 for combo in itertools.product(*[[None] + list(p) for p in pools])
        if _chain_feasible(combo) and _is_maximal(combo, pools)
    )


class TestLiveStateGraph:
    """``_compile`` keeps exactly the states on some path to a final state."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(4242)
        titles = generate(default_spec(titles=2)) + generate(sparse_spec(seed=2, titles=12))
        return titles + [random_dataset(rng, title=f"r{i}") for i in range(30)]

    def test_every_state_is_reachable_and_reaches_a_final_state(self):
        for ds in self.corpus():
            for index, chroma in _views(ds):
                graph = ladder_module._compile(_shape(index, chroma))
                assert graph.finals == tuple(range(graph.widths[-1]))
                reach = {0}
                for edges, width in zip(graph.layers, graph.widths):
                    assert {src for src, _, _ in edges} <= reach
                    reach = {dst for _, dst, _ in edges}
                    assert reach == set(range(width))
                ends = set(graph.finals)
                for edges, width in zip(graph.layers[::-1], (1, *graph.widths)[-2::-1]):
                    assert {dst for _, dst, _ in edges} <= ends
                    ends = {src for src, _, _ in edges}
                    assert ends == set(range(width))

    def test_complete_grid_has_no_cap_state(self):
        # Only an absent rung sets a cap, so a graph without absent edges has
        # no cap state.
        full = grid_dataset(lambda h, c, b: h / 1000 + b / 1000, lambda h, c, b: 0.05,
                            heights=(540, 1080, 2160), targets=(600.0, 1200.0, 2400.0, 4800.0))
        for ds in (full, *generate(default_spec(titles=2))):
            for index, chroma in _views(ds):
                graph = ladder_module._compile(_shape(index, chroma))
                assert graph.layers and all(k >= 0 for edges in graph.layers for _, _, k in edges)
        old = oracle_compile(_shape(CandidateIndex(full), None))
        assert any(k < 0 for edges in old.layers for _, _, k in edges)

    def test_paths_are_the_maximal_assignments(self):
        rng = np.random.default_rng(5353)
        titles = [random_dataset(rng, title=f"r{i}", max_targets=4) for i in range(40)]
        titles += generate(replace(sparse_spec(seed=7, titles=6),
                                   targets_kbps=(600.0, 1600.0, 3400.0, 8100.0)))
        for ds in titles:
            for index, chroma in _views(ds):
                shape = _shape(index, chroma)
                count = _maximal_assignments([[c[0] for c in pool] for pool in index._pools(chroma)])
                assert _paths_to_finals(ladder_module._compile(shape)) == count, ds.title_id
                assert _paths_to_finals(oracle_compile(shape)) == count, ds.title_id

    def test_step_ok_is_the_tuple_order(self):
        pairs = [(h, f) for h in (540, 1080, 1080, 2160) for f in (0, 1, 2)]
        for a in pairs:
            for b in pairs:
                assert ladder_module._step_ok(a, b) == (b >= a), (a, b)


@st.composite
def _titles(draw):
    """A small title: any subset of a (target, height, chroma) grid, actual
    rates that may miss or hit other windows, and values with exact ties."""
    targets = draw(st.lists(st.sampled_from([600.0, 700.0, 1600.0, 1700.0, 3400.0]),
                            min_size=1, max_size=4, unique=True))
    cells = [(t, h, c) for t in targets for h in (1080, 2160) for c in (C420, C422, C444)]
    present = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    recs = [
        record("h", h, c, t, actual=t * draw(st.sampled_from([0.85, 0.95, 1.0, 1.04, 1.12])),
               quality=draw(st.sampled_from([4.0, 5.5, 6.0, 7.25, 9.0])),
               decode=draw(st.sampled_from([0.02, 0.05, 0.1, 0.3])))
        for (t, h, c), keep in zip(cells, present) if keep
    ]
    if not recs:
        recs = [record("h", 1080, C444, targets[0])]
    return TitleDataset.from_records(recs)


class TestLiveStateGraphSolves:
    """Relaxing the live-state graph chooses what relaxing every reachable
    state chose, and what the enumeration oracle chooses."""

    @settings(max_examples=150, deadline=None)
    @given(
        ds=_titles(),
        cross_target=st.booleans(),
        chroma=st.sampled_from([None, C420, C444]),
        alphas=st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0]), min_size=1, max_size=3),
    )
    def test_same_choices_as_frozen_compile_and_enumeration(self, ds, cross_target, chroma,
                                                              alphas):
        index = CandidateIndex(ds, 0.10, cross_target=cross_target)
        pools = index._pools(chroma)
        shape = _shape(index, chroma)
        graph, old = ladder_module._compile(shape), oracle_compile(shape)
        for alpha in alphas:
            js = [[q - alpha * d for _, q, d, _ in pool] for pool in pools]
            choices = ladder_module._relax(graph, pools, js)
            assert choices == ladder_module._relax(old, pools, js)
            assert choices == ladder_module._solve_enumerate(pools, js)

    def test_sparse_and_cross_target_titles(self):
        titles = generate(sparse_spec(seed=11, titles=8))
        for ds in titles:
            for index, chroma in _views(ds):
                pools = index._pools(chroma)
                shape = _shape(index, chroma)
                graph, old = ladder_module._compile(shape), oracle_compile(shape)
                for alpha in (0.0, 0.02, 0.08, 0.5):
                    js = [[q - alpha * d for _, q, d, _ in pool] for pool in pools]
                    assert ladder_module._relax(graph, pools, js) == (
                        ladder_module._relax(old, pools, js)), (ds.title_id, alpha)


def _counted_or_error(count):
    """``count()``, or the class and message of the ``LadderError`` it raises."""
    try:
        return count()
    except LadderError as exc:
        return type(exc), str(exc)


def _ladder_counts(index, alpha, chroma, mode):
    """``count_chroma`` of the public builder's ladder."""
    if chroma is None:
        return ladder_module.count_chroma(optimize_arcs(index, alpha, mode))
    return ladder_module.count_chroma(build_dynres(index, alpha, chroma, mode))


def _one_sparse_title(seed):
    return generate(sparse_spec(seed=seed, titles=1))[0]


# The cases of ``TestChromaCounts``' property, also run on kernels.
_COUNT_CASES = dict(
    ds=_titles() | st.integers(0, 2**16).map(_one_sparse_title),
    cross_target=st.booleans(),
    chroma=st.sampled_from([None, C444]),
    mode=st.sampled_from(list(OptimizerMode)),
    alpha=st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0]),
)


class TestChromaCounts:
    """``chroma_counts`` counts the chosen rungs as ``count_chroma`` counts
    the public builders' ladders, and fails as they fail."""

    @settings(max_examples=200, deadline=None)
    @given(**_COUNT_CASES)
    def test_equals_count_chroma_of_the_builders_ladder(self, ds, cross_target, chroma, mode,
                                                         alpha):
        index = CandidateIndex(ds, 0.10, cross_target=cross_target)
        got = _counted_or_error(lambda: chroma_counts(index, Alpha(alpha), chroma, mode))
        assert got == _counted_or_error(lambda: _ladder_counts(index, Alpha(alpha), chroma, mode))

    def test_title_without_the_view_raises_all_rungs_absent(self):
        ds = grid_dataset(lambda h, c, b: h / 1000, lambda h, c, b: 0.05, chromas=(C420,))
        for mode in OptimizerMode:
            got = _counted_or_error(lambda: chroma_counts(CandidateIndex(ds), 0.0, C444, mode))
            assert got[0] is AllRungsAbsent
            assert got == _counted_or_error(
                lambda: _ladder_counts(CandidateIndex(ds), Alpha(0.0), C444, mode))

    @pytest.mark.parametrize("mode", list(OptimizerMode))
    def test_decreasing_choice_raises_what_validate_rungs_raises(self, monkeypatch, mode):
        ds = grid_dataset(lambda h, c, b: h / 1000 + b / 1000, lambda h, c, b: 0.05)
        pools = CandidateIndex(ds)._pools(None)

        def swapped(solve):
            def run(*args):
                # The last rung takes a candidate below the rung before it.
                choices = solve(*args)
                if choices is None:  # a kernel declined a tie
                    return None
                prev = pools[-2][choices[-2]][3]
                choices[-1] = next(k for k, c in enumerate(pools[-1]) if c[3] < prev)
                return choices
            return run

        if mode is OptimizerMode.GLOBAL_DP:
            # A DP solve runs the graph's kernel, if it has one, or ``_relax``;
            # a fresh graph gets its kernel from the patched ``_kernel``.
            ladder_module._compile.cache_clear()
            kernel = ladder_module._kernel
            monkeypatch.setattr(ladder_module, "_kernel", lambda graph: swapped(kernel(graph)))
            monkeypatch.setattr(ladder_module, "_relax", swapped(ladder_module._relax))
        else:
            monkeypatch.setattr(ladder_module, "_solve_greedy",
                                swapped(ladder_module._solve_greedy))
        got = _counted_or_error(lambda: chroma_counts(CandidateIndex(ds), 0.0, None, mode))
        assert got[0] is InvalidLadder
        assert got == _counted_or_error(
            lambda: _ladder_counts(CandidateIndex(ds), Alpha(0.0), None, mode))


@st.composite
def _planned_titles(draw):
    """A random or sparse title and a plan over some of its targets whose
    heights, 540p and 720p among them, the title may lack."""
    ds = draw(st.integers(0, 2**16).map(lambda seed: random_dataset(np.random.default_rng(seed)))
              | st.integers(0, 2**16).map(_one_sparse_title))
    targets = draw(st.lists(st.sampled_from(ds.bitrate_targets), unique=True))
    heights = draw(st.lists(st.sampled_from([540, 720, 1080, 2160]),
                            min_size=len(targets), max_size=len(targets)))
    return ds, list(zip(sorted(targets), sorted(heights)))


class TestPresentRungRule:
    """Every builder returns a ladder with a present rung or raises
    ``AllRungsAbsent``, so ``chroma_counts`` never counts zero rungs."""

    @settings(max_examples=200, deadline=None)
    @given(case=_planned_titles(), cross_target=st.booleans(),
           mode=st.sampled_from(list(OptimizerMode)), chroma=st.sampled_from([C420, C422, C444]),
           alpha=st.sampled_from([0.0, 0.04, 1.0]))
    def test_every_ladder_has_a_present_rung(self, case, cross_target, mode, chroma, alpha):
        ds, plan = case
        index = CandidateIndex(ds, 0.10, cross_target=cross_target)
        builds = (
            lambda: optimize_arcs(index, alpha, mode),
            lambda: build_dynres(index, alpha, chroma, mode),
            lambda: build_default(index),
            lambda: build_fixed(index, plan, chroma),
            lambda: chroma_counts(index, alpha, None, mode),
            lambda: chroma_counts(index, alpha, chroma, mode),
        )
        for build in builds:
            try:
                built = build()
            except AllRungsAbsent:
                continue
            assert any(built) if isinstance(built, tuple) else built.present_rungs


# -- generated relaxation kernels ----------------------------------------------------


class TestOracleAgreementOnKernels(TestOracleAgreement):
    """``TestOracleAgreement`` with every DP solve offered to a kernel first."""

    @pytest.fixture(autouse=True, scope="class")
    def _kernel_on_every_solve(self):
        with _kernels(1):
            yield


class TestChromaCountsOnKernels(TestChromaCounts):
    """``TestChromaCounts`` with every DP solve offered to a kernel first."""

    @pytest.fixture(autouse=True, scope="class")
    def _kernel_on_every_solve(self):
        with _kernels(1):
            yield

    # Hypothesis runs a property for one class only: this class's is its own.
    test_equals_count_chroma_of_the_builders_ladder = settings(max_examples=200, deadline=None)(
        given(**_COUNT_CASES)(
            TestChromaCounts.test_equals_count_chroma_of_the_builders_ladder.hypothesis.inner_test))


class TestKernel:
    """A graph's kernel makes ``_relax``'s choices, or declines at the first
    exact score tie, and ``_relax`` then breaks the tie."""

    @settings(max_examples=200, deadline=None)
    @given(
        ds=st.integers(0, 2**32 - 1).map(lambda seed: random_dataset(np.random.default_rng(seed)))
        | st.integers(0, 2**16).map(_one_sparse_title),
        cross_target=st.booleans(),
        chroma=st.sampled_from([None, C444]),
        alphas=st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0]), min_size=1, max_size=3),
    )
    def test_kernel_makes_relax_choices_or_declines_at_a_tie(self, ds, cross_target, chroma,
                                                             alphas):
        with _kernels(1) as (made, results):
            index = CandidateIndex(ds, 0.10, cross_target=cross_target)
            pools = index._pools(chroma)
            if not any(pools):
                return
            graph = index._graph(chroma)
            for alpha in alphas:
                _, choices = ladder_module._choose(index, Alpha(alpha), chroma,
                                                   ladder_module._relax)
                js = [[q - alpha * d for _, q, d, _ in pool] for pool in pools]
                with _path_keys_calls() as calls:
                    want = ladder_module._relax(graph, pools, js)
                assert choices == want
                assert (results[-1] is None) == bool(calls)
            assert [g for g, _ in made] == [graph] and len(results) == len(alphas)

    @pytest.mark.parametrize("ds", [
        _rung_key_tie_title((600.0, 2400.0)),
        _rung_key_tie_title((600.0,)),
        # Degenerate bounds: every q' and d' is 0.0.
        grid_dataset(lambda h, c, b: 5.0, lambda h, c, b: 0.05),
    ], ids=["tie-at-a-state", "tie-among-finals", "all-zero"])
    def test_declines_ties_to_relax(self, ds):
        for build in (optimize_arcs, build_dynres):
            if build is build_dynres and not any(CandidateIndex(ds)._pools(C444)):
                continue
            with _kernels(1) as (_, results), _path_keys_calls() as calls:
                dp = build(CandidateIndex(ds), Alpha(0.0))
            assert results == [None]
            assert calls, "the tie-break on rung keys was not reached"
            with _kernels(math.inf):
                assert dp == build(CandidateIndex(ds), Alpha(0.0))
        assert optimize_arcs(CandidateIndex(ds), Alpha(0.0)).rungs == (
            enumerate_optimal(CandidateIndex(ds), Alpha(0.0)).rungs)

    def test_kernel_source_holds_only_graph_integers(self, monkeypatch):
        # Input values reach a kernel as arguments, never as source text.
        sources = []
        monkeypatch.setattr(ladder_module, "compile",
                            lambda text, *args: sources.append(text) or compile(text, *args),
                            raising=False)
        ds = generate(default_spec(titles=1))[0]
        with _kernels(1):
            optimize_arcs(CandidateIndex(ds), Alpha(0.04))
        assert len(sources) == 1
        words = set(re.findall(r"[A-Za-z_]\w*", sources[0]))
        generated = {w for w in words if re.fullmatch(r"[qdjvb]\d+(_\d+)?", w)}
        assert words - generated == {"def", "kernel", "qs", "ds", "a", "x", "if", "elif", "return",
                                     "None", "end", "backs", "choices", "for", "i", "in", "range",
                                     "f", "k"}
        numbers = set(re.findall(r"\b\d[\d.]*", sources[0]))
        assert numbers - {"0.0"} == {n for n in numbers if n.isdigit()}


class TestKernelTrigger:
    """A graph gets its kernel on its ``KERNEL_SOLVES``-th solve."""

    N = ladder_module.KERNEL_SOLVES

    def test_shared_grid_makes_one_kernel_per_graph_on_the_nth_solve(self):
        alphas = [Alpha(i / 100) for i in range(17)]
        corpus = generate(default_spec(titles=30))
        assert len(corpus) * len(alphas) > self.N
        with _kernels(self.N) as (made, results):
            for ds in corpus:
                index = CandidateIndex(ds)
                for alpha in alphas:
                    chroma_counts(index, alpha)
                    chroma_counts(index, alpha, C444)
        assert [solves for _, solves in made] == [self.N, self.N]
        assert made[0][0] is not made[1][0]
        assert len(results) == 2 * (len(corpus) * len(alphas) - self.N + 1)

    def test_sparse_corpus_makes_none(self):
        with _kernels(self.N) as (made, _):
            for ds in generate(sparse_spec(seed=0, titles=40)):
                index = CandidateIndex(ds)
                for alpha in (0.0, 0.01, 0.02, 0.04, 0.08):
                    for build in (optimize_arcs, build_dynres):
                        TestCandidateIndex._ladder_or_error(build, index, Alpha(alpha))
        assert made == []

    def test_shipped_experiment_makes_none(self, tmp_path, capsys):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_frontier_experiment.py"
        spec = importlib.util.spec_from_file_location("run_frontier_experiment", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.RESULTS = tmp_path
        with _kernels(self.N) as (made, _):
            module.run()
        capsys.readouterr()
        assert made == []

    def test_evicted_graph_and_kernel_are_freed(self):
        with _kernels(1) as (made, _):
            index = CandidateIndex(generate(default_spec(titles=1))[0])
            optimize_arcs(index, Alpha(0.04))
            graph = weakref.ref(made[0][0])
            kernel = weakref.ref(graph().kernel)
            made.clear()
            del index
            # Sparse titles have graphs of their own, enough to evict it.
            for ds in generate(sparse_spec(seed=0, titles=ladder_module.GRAPH_CACHE_SIZE)):
                optimize_arcs(CandidateIndex(ds), Alpha(0.04))
            assert len(made) == ladder_module.GRAPH_CACHE_SIZE
            made.clear()
            gc.collect()
            assert graph() is None and kernel() is None


def test_greedy_vs_dp_script():
    """``scripts/greedy_vs_dp.py`` runs, and its check that greedy never beats
    the exact optimizer holds on every title and alpha."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "greedy_vs_dp.py"
    spec = importlib.util.spec_from_file_location("greedy_vs_dp", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.run()
