"""Ladder optimizer, oracle, benchmark builders, and constraint tests.

The DP is checked against ``helpers.definitional_best``, which re-derives
everything from the documented rules: it enumerates every per-rung choice
combination, keeps those whose present rungs satisfy the chain constraints
and where no absent rung could be flipped to a present candidate (absences
only where forced), and picks the best by (summed objective, documented tie
order). It shares nothing with the package's dynamic program beyond the
public names it reads.
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
    composite_normalized,
    default_spec,
    generate,
    load_plan,
    optimize_arcs,
    sparse_spec,
)
from chromaladder.errors import (
    AllRungsAbsent,
    EmptyDataset,
    InvalidLadder,
    LadderError,
    InvalidPlan,
    NoPresentRungs,
    PlanTargetUnknown,
)
from chromaladder.ladder import graph_memo
from chromaladder.measurements import QualityScore
from helpers import (
    C420,
    C422,
    C444,
    _rises,
    chain_feasible,
    choices_of,
    chroma_pmf,
    definitional_best,
    grid_dataset,
    is_maximal,
    ladder_sums,
    oracle_compile,
    present_rungs,
    random_dataset,
    record,
    sum_j_prime,
)


# -- engineered fixtures -------------------------------------------------------


class TestOptimizeArcs:
    def test_alpha_zero_unconstrained_equals_quality_argmax(self):
        # Quality strictly increases with (height, fidelity) at every target,
        # so the per-target argmax is constant (2160, C444): constraints idle.
        ds = grid_dataset(
            lambda h, c, b: 5.0 + (h / 2160) + 0.3 * c.fidelity_rank + b / 1e5,
            lambda h, c, b: 0.02 * (h / 1080) * (1 + c.fidelity_rank),
        )
        ladder = optimize_arcs(CandidateIndex(ds), 0.0)
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
        ladder = optimize_arcs(CandidateIndex(ds), 0.8)
        assert ladder.rungs[0].choice.chroma is C420
        assert choices_of(ladder) == definitional_best(ds, 0.8)

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
        ladder = optimize_arcs(CandidateIndex(ds), 0.0)
        got = [(r.choice.resolution.height, r.choice.chroma) for r in ladder.rungs]
        assert got == [(1080, C444), (2160, C420), (2160, C444)]
        assert choices_of(ladder) == definitional_best(ds, 0.0)

    def test_single_target_is_plain_argmax(self):
        ds = grid_dataset(
            lambda h, c, b: 5.0 + 0.5 * c.fidelity_rank - (h / 2160),
            lambda h, c, b: 0.05 * (1 + c.fidelity_rank),
            targets=(900.0,),
        )
        ladder = optimize_arcs(CandidateIndex(ds), 0.2)
        bounds = bounds_for(ds)
        best = max(
            candidates_for(ds, 900.0, 0.10),
            key=lambda r: composite_normalized(r, bounds, 0.2),
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
        ladder = optimize_arcs(CandidateIndex(ds), 1.0)
        assert all(r.present for r in ladder.rungs)

    def test_conflicting_single_candidates_drop_lower_value_rung(self):
        high = record(height=2160, target=600.0, quality=9.0, decode=0.2)
        low = record(height=1080, target=1200.0, quality=5.0, decode=0.1)
        ds = TitleDataset.from_records([high, low])
        ladder = optimize_arcs(CandidateIndex(ds), 0.0)
        assert ladder.rungs[0].choice == high
        assert ladder.rungs[1].choice is None
        # and the mirror image
        high2 = record(height=2160, target=600.0, quality=5.0, decode=0.2)
        low2 = record(height=1080, target=1200.0, quality=9.0, decode=0.1)
        ds2 = TitleDataset.from_records([high2, low2])
        ladder2 = optimize_arcs(CandidateIndex(ds2), 0.0)
        assert ladder2.rungs[0].choice is None
        assert ladder2.rungs[1].choice == low2

    def test_missing_window_yields_absent_rung(self):
        recs = [
            record(target=600.0, actual=800.0),  # misses +-10%
            record(target=1200.0, actual=1180.0),
        ]
        ds = TitleDataset.from_records(recs)
        ladder = optimize_arcs(CandidateIndex(ds), 0.0)
        assert [r.present for r in ladder.rungs] == [False, True]

    def test_all_rungs_absent_raises(self):
        ds = TitleDataset.from_records([record(target=600.0, actual=900.0)])
        with pytest.raises(AllRungsAbsent):
            optimize_arcs(CandidateIndex(ds), 0.0)

    def test_exact_tie_broken_toward_cheaper_then_lower(self):
        # Identical quality and decode time: lower resolution, then lower
        # fidelity wins. Distinct decode time wins outright. In the second
        # title the lower resolution has the higher fidelity, so resolution
        # must break the tie before chroma. In the third, with --cross-target,
        # the lower fidelity has the higher target, so chroma must break the
        # tie before the target. In the fourth the cheaper encode has the
        # higher resolution, so decode time must break the tie before it.
        titles = [
            ((1080, C420), False, [
                record(height=2160, chroma=C444, target=600.0, quality=7.0, decode=0.2),
                record(height=1080, chroma=C422, target=600.0, quality=7.0, decode=0.2),
                record(height=1080, chroma=C420, target=600.0, quality=7.0, decode=0.2),
                record(height=2160, chroma=C420, target=600.0, quality=7.0, decode=0.25),
            ]),
            ((1080, C444), False, [
                record(height=2160, chroma=C420, target=600.0, quality=7.0, decode=0.2),
                record(height=1080, chroma=C444, target=600.0, quality=7.0, decode=0.2),
            ]),
            ((1080, C420), True, [
                record(height=1080, chroma=C444, target=1000.0, quality=7.0, decode=0.2),
                record(height=1080, chroma=C420, target=1050.0, actual=1000.0, quality=7.0,
                       decode=0.2),
            ]),
            ((2160, C420), False, [
                record(height=1080, chroma=C420, target=600.0, quality=7.0, decode=0.2),
                record(height=2160, chroma=C420, target=600.0, quality=7.0, decode=0.1),
            ]),
        ]
        for want, cross_target, recs in titles:
            ds = TitleDataset.from_records(recs)
            ladder = optimize_arcs(CandidateIndex(ds, cross_target=cross_target), 0.0)
            choice = ladder.rungs[0].choice
            assert (choice.resolution.height, choice.chroma) == want
            assert choices_of(ladder) == definitional_best(ds, 0.0, cross_target=cross_target)

    def test_greedy_is_feasible_but_can_be_myopic(self):
        recs = [
            record(height=1080, chroma=C444, target=600.0, quality=7.0, decode=0.08),
            record(height=1080, chroma=C420, target=600.0, quality=6.9, decode=0.05),
            record(height=1080, chroma=C420, target=1200.0, quality=9.0, decode=0.06),
        ]
        ds = TitleDataset.from_records(recs)
        greedy = optimize_arcs(CandidateIndex(ds), 0.0, mode=OptimizerMode.GREEDY_SEQUENTIAL)
        dp = optimize_arcs(CandidateIndex(ds), 0.0)
        assert greedy.rungs[0].choice.chroma is C444  # locks high chroma
        assert greedy.rungs[1].choice is None
        assert dp.rungs[0].choice.chroma is C420
        assert dp.rungs[1].present
        assert sum_j_prime(greedy) <= sum_j_prime(dp)

    def test_determinism_identical_outputs(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng)
        a = optimize_arcs(CandidateIndex(ds), 0.3)
        b = optimize_arcs(CandidateIndex(ds), 0.3)
        assert a == b


class TestScalarizationMonotonicity:
    def test_sums_non_increasing_in_alpha(self):
        rng = np.random.default_rng(11)
        alphas = [0.0, 0.05, 0.2, 0.5, 1.0]
        for _ in range(40):
            ds = random_dataset(rng)
            sums = [ladder_sums(optimize_arcs(CandidateIndex(ds), a), ds) for a in alphas]
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
        # A title without records cannot be made, so no builder sees one.
        with pytest.raises(EmptyDataset):
            TitleDataset("t", (), ())

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
        ladder = build_dynres(CandidateIndex(ds), 0.0)
        heights = [r.choice.resolution.height for r in ladder.rungs]
        assert heights == [1080, 1080, 2160, 2160]
        assert all(r.choice.chroma is C444 for r in ladder.rungs)
        want = definitional_best(ds, 0.0, chroma=C444)
        assert choices_of(ladder) == want

    def test_alpha_zero_top_resolution_everywhere(self):
        ds = grid_dataset(
            lambda h, c, b: 5.0 + h / 2160 + b / 1e5,
            lambda h, c, b: 0.05 * (h / 1080),
        )
        ladder = build_dynres(CandidateIndex(ds), 0.0)
        assert all(r.choice.resolution.height == 2160 for r in ladder.rungs)

    def test_missing_pinned_chroma_raises(self):
        ds = grid_dataset(
            lambda h, c, b: 6.0,
            lambda h, c, b: 0.05,
            chromas=(C420, C422),
        )
        with pytest.raises(AllRungsAbsent):
            build_dynres(CandidateIndex(ds), 0.0)


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
        with pytest.raises(InvalidPlan, match="^plan row 2 is not numeric$"):
            load_plan("target_kbps,height\n600,1080\n900,tall\n")

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
        # Any positive bitrate is a target, 1 kbps and below included, and
        # any positive height, 1 px included.
        assert load_plan("target_kbps,height\n0.5,1\n1,2160\n") == [(0.5, 1), (1.0, 2160)]
        ds = TitleDataset.from_records([record(target=0.5), record(target=1.0, height=2160)])
        ladder = build_fixed(CandidateIndex(ds), [(0.5, 1080), (1.0, 2160)], fixed_chroma=C420)
        assert [r.choice.target_bitrate for r in ladder.rungs] == [0.5, 1.0]

    def test_cross_target_borrows_the_encode_nearest_the_target(self):
        # The 700 kbps encode missed its window; of the two encodes of other
        # targets inside it, the one at 705 kbps is nearer 700 than the one
        # at 650, though its bitrate is the higher. The 600 kbps rung keeps
        # its own encode, though the 650 kbps one's is nearer 600.
        ds = TitleDataset.from_records([
            record(chroma=C444, target=600.0, actual=650.0),
            record(chroma=C444, target=650.0, actual=605.0),
            record(chroma=C444, target=700.0, actual=900.0),
            record(chroma=C444, target=800.0, actual=705.0),
        ])
        ladder = build_fixed(CandidateIndex(ds, cross_target=True), [(600.0, 1080), (700.0, 1080)])
        assert [(r.choice.target_bitrate, r.choice.actual_bitrate) for r in ladder.rungs] == [
            (600.0, 650.0), (800.0, 705.0)]


class TestValidator:
    def test_resolution_decrease_rejected(self):
        # The message names the decreasing pair, not the equal pair before it.
        with pytest.raises(InvalidLadder, match="^resolution decreases 2160 -> 1080 with"):
            Ladder(
                "t",
                Method.ARCS,
                (
                    Rung(600.0, record(height=2160, target=600.0), 0.5),
                    Rung(900.0, record(height=2160, target=900.0), 0.5),
                    Rung(1200.0, record(height=1080, target=1200.0), 0.5),
                ),
                0.0,
            )

    def test_chroma_decrease_within_run_rejected(self):
        with pytest.raises(InvalidLadder, match="^chroma fidelity decreases within the 1080p run$"):
            Ladder(
                "t",
                Method.ARCS,
                (
                    Rung(600.0, record(chroma=C444, target=600.0), 0.5),
                    Rung(1200.0, record(chroma=C420, target=1200.0), 0.5),
                ),
                0.0,
            )

    def test_chroma_refresh_at_resolution_step_allowed(self):
        ladder = Ladder(
            "t",
            Method.ARCS,
            (
                Rung(600.0, record(height=1080, chroma=C444, target=600.0), 0.5),
                Rung(1200.0, record(height=2160, chroma=C420, target=1200.0), 0.5),
            ),
            0.0,
        )
        assert len(present_rungs(ladder)) == 2

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
                0.0,
            )

    def test_unsorted_targets_rejected(self):
        with pytest.raises(InvalidLadder):
            Ladder("t", Method.ARCS, (Rung(1200.0), Rung(600.0)), 0.0)


class TestChromaPmf:
    def one_format_ladder(self, chroma, n=4):
        recs = [
            record(chroma=chroma, target=600.0 * (i + 1), quality=5.0 + i, decode=0.05)
            for i in range(n)
        ]
        ds = TitleDataset.from_records(recs)
        return optimize_arcs(CandidateIndex(ds), 0.0)

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
    count then, and each kernel's result, in order. A graph's ``kernel``
    wraps the generated one, kept as its ``generated``. An index compiles its
    graphs, or takes them from the ``graph_memo()`` it is handed, on first
    use, so build indexes and memos inside."""
    made, results = [], []
    real = ladder_module._kernel

    def kernel(graph):
        made.append((graph, graph.solves))
        solve = real(graph)

        def run(*args):
            results.append(solve(*args))
            return results[-1]
        run.generated = solve
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder_module, "KERNEL_SOLVES", solves)
        patch.setattr(ladder_module, "_kernel", kernel)
        yield made, results


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

    def test_sparse_corpus_has_absent_rungs(self):
        # Guards ``TestSolvePaths``' sparse titles: they must put both kinds
        # of absent rung (empty window, blocked by the chain) through the DP.
        kinds = set()
        for ds in generate(sparse_spec(seed=0, titles=6)):
            for r in optimize_arcs(CandidateIndex(ds), 0.04).rungs:
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
            dp = optimize_arcs(CandidateIndex(ds), 0.0)
        assert calls, "the tie-break on rung keys was not reached"
        assert dp.rungs[0].choice.chroma is C420  # equal score: lower fidelity wins
        assert choices_of(dp) == definitional_best(ds, 0.0)

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
            dp = optimize_arcs(CandidateIndex(ds), alpha)
        assert calls, "the tie-break on rung keys was not reached"
        assert choices_of(dp) == (a, c) == definitional_best(ds, alpha)

    def test_present_rung_of_negative_score_beats_an_equal_absent_one(self):
        # At alpha 1 the 600 kbps encode scores 0 - 1 = -1 and the 900 kbps
        # 444 encode 1 - 0 = 1, so taking both scores 0, as does skipping the
        # first for the 420 encode, which blocks it and scores 0 - 0.
        a = record(height=1080, chroma=C422, target=600.0, quality=7.0, decode=0.2)
        c = record(height=1080, chroma=C444, target=900.0, quality=9.0, decode=0.05)
        ds = TitleDataset.from_records(
            [a, c, record(height=1080, chroma=C420, target=900.0, quality=7.0, decode=0.05)])
        with _path_keys_calls() as calls:
            dp = optimize_arcs(CandidateIndex(ds), 1.0)
        assert calls, "the tie-break on rung keys was not reached"
        assert [r.j_prime for r in dp.rungs] == [-1.0, 1.0]
        assert choices_of(dp) == (a, c) == definitional_best(ds, 1.0)

    def test_tie_between_candidates_entering_one_state_keeps_the_lower_target(self):
        # With --cross-target both encodes, of one (height, fidelity) and
        # equal score, serve both rungs and enter the same DP state. The
        # lower target's encode has the higher actual bitrate.
        low = record(height=1080, chroma=C420, target=1000.0, actual=1040.0, quality=7.0,
                     decode=0.05)
        high = record(height=1080, chroma=C420, target=1050.0, actual=990.0, quality=7.0,
                      decode=0.05)
        ds = TitleDataset.from_records([low, high])
        with _path_keys_calls() as calls:
            dp = optimize_arcs(CandidateIndex(ds, 0.10, cross_target=True), 0.0)
        assert calls, "the tie-break on rung keys was not reached"
        assert choices_of(dp) == (low, low) == definitional_best(ds, 0.0, cross_target=True)

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
                                try:
                                    ladder = build(index, alpha)
                                except AllRungsAbsent:
                                    continue
                                for rung in present_rungs(ladder):
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
    return tuple(tuple(c[3] for c in pool) for pool in index._view(chroma).pools)


def _with_other_values(ds, rng, title):
    """``ds`` renamed, with the same windows but new quality and decode values."""
    return TitleDataset.from_records(
        replace(r, title_id=title,
                quality=QualityScore(r.quality.metric, float(rng.uniform(2.0, 9.5))),
                decode_time=float(rng.uniform(0.01, 0.6)))
        for r in ds.records
    )


class TestSharedGraph:
    """A ``graph_memo`` compiles one graph per (height, fidelity_rank) shape
    of the pools for the indexes it is handed."""

    def test_one_compile_per_shape_and_chroma_view(self):
        graphs = graph_memo()
        shapes = set()
        for ds in generate(default_spec(titles=30)):
            index = CandidateIndex(ds, graphs=graphs)
            for alpha in (0.0, 0.04):
                optimize_arcs(index, alpha)
                build_dynres(index, alpha)
            shapes |= {_shape(index, None), _shape(index, C444)}
        # One encoding grid: one shape per chroma view.
        assert len(shapes) == 2
        assert graphs.cache_info().misses == len(shapes)

    def test_indexes_share_graphs_only_through_one_memo(self):
        first, second = generate(default_spec(titles=2))
        graphs = graph_memo()
        shared = [CandidateIndex(ds, graphs=graphs)._view(None).graph() for ds in (first, second)]
        assert shared[0] is shared[1]
        # Without a memo, or with another one, an index compiles its own
        # graph, and keeps it per chroma view.
        own = CandidateIndex(first)
        assert own._view(None).graph() is own._view(None).graph() is not shared[0]
        assert CandidateIndex(first, graphs=graph_memo())._view(None).graph() is not shared[0]

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
        graphs = graph_memo()
        for ds in (first, refidelity, reheight, first, refidelity, reheight):
            for alpha in (0.0, 0.2, 1.0):
                assert choices_of(optimize_arcs(CandidateIndex(ds, graphs=graphs), alpha)) == (
                    definitional_best(ds, alpha))
        assert graphs.cache_info().misses == 3

    def test_memo_is_bounded(self):
        graphs = graph_memo()
        for ds in generate(sparse_spec(seed=0, titles=20)):
            optimize_arcs(CandidateIndex(ds, graphs=graphs), 0.0)
            build_dynres(CandidateIndex(ds, graphs=graphs), 0.0)
        info = graphs.cache_info()
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
        if chain_feasible(combo) and is_maximal(combo, pools)
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
                count = _maximal_assignments([[c[0] for c in pool] for pool in index._view(chroma).pools])
                assert _paths_to_finals(ladder_module._compile(shape)) == count, ds.title_id
                assert _paths_to_finals(oracle_compile(shape)) == count, ds.title_id

    def test_rises_is_the_tuple_order(self):
        # The documented chain rule is the tuple order that src/ codes it as.
        pairs = [(h, f) for h in (540, 1080, 1080, 2160) for f in (0, 1, 2)]
        for a in pairs:
            for b in pairs:
                assert _rises(a, b) == (b >= a), (a, b)


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


def _or_error(make):
    """``make()``, or the class and message of the ``LadderError`` it raises."""
    try:
        return make()
    except LadderError as exc:
        return type(exc), str(exc)


def _built(index, alpha, chroma, mode):
    """The ladder of ``chroma``'s view: ``optimize_arcs``'s for None, else
    ``build_dynres``'s with ``chroma`` pinned."""
    if chroma is None:
        return optimize_arcs(index, alpha, mode)
    return build_dynres(index, alpha, chroma, mode)


def _one_sparse_title(seed):
    return generate(sparse_spec(seed=seed, titles=1))[0]


@st.composite
def _planned_titles(draw):
    """A small, random or sparse title, and a plan over some of its targets
    whose heights, 540p and 720p among them, the title may lack."""
    ds = draw(_titles()
              | st.integers(0, 2**32 - 1).map(lambda seed: random_dataset(np.random.default_rng(seed)))
              | st.integers(0, 2**16).map(_one_sparse_title))
    targets = draw(st.lists(st.sampled_from(ds.bitrate_targets), unique=True))
    heights = draw(st.lists(st.sampled_from([540, 720, 1080, 2160]),
                            min_size=len(targets), max_size=len(targets)))
    return ds, list(zip(sorted(targets), sorted(heights)))


# A view with at most this many choice combinations (a candidate or None per
# rung) is checked against the enumeration oracle, which takes about 1 ms on it.
ENUMERABLE = 10_000


class TestSolvePaths:
    """Every path that solves a title makes the same choices: one index on a
    shared ``graph_memo`` or a fresh index per solve, the generated kernel or
    ``_relax``, ``_compile``'s graph or ``oracle_compile``'s, a ladder or
    ``chroma_counts``. In dp mode they are the enumeration oracle's, and
    greedy never scores more. Every builder returns a ladder with a present
    rung or raises ``AllRungsAbsent``."""

    @settings(max_examples=400, deadline=None)
    @given(
        case=_planned_titles(),
        cross_target=st.booleans(),
        chroma=st.sampled_from([None, C420, C444]),
        alphas=st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.08, 0.3, 0.5, 1.0]),
                        min_size=1, max_size=3),
        solves=st.sampled_from([1, math.inf]),
        seed=st.integers(0, 2**16),
    )
    def test_every_solve_path_makes_the_oracles_choices(self, case, cross_target, chroma, alphas,
                                                        solves, seed):
        ds, plan = case
        dp = OptimizerMode.GLOBAL_DP
        with _kernels(solves) as (_, results):
            # The memo first serves a title with the same windows and other
            # values, so the title's solves compile no graph.
            graphs = graph_memo()
            twin = _with_other_values(ds, np.random.default_rng(seed), ds.title_id + "'")
            _or_error(lambda: _built(
                CandidateIndex(twin, cross_target=cross_target, graphs=graphs), 0.0, chroma, dp))
            misses = graphs.cache_info().misses
            index = CandidateIndex(ds, cross_target=cross_target, graphs=graphs)

            def outcome(build):
                # The shared index's ladder or error, which a fresh index's equals.
                got = _or_error(lambda: build(index))
                assert got == _or_error(lambda: build(CandidateIndex(ds, cross_target=cross_target)))
                assert present_rungs(got) if isinstance(got, Ladder) else got[0] is AllRungsAbsent
                return got

            outcome(build_default)
            outcome(lambda ix: build_fixed(ix, plan, chroma or C444))
            pools = index._view(chroma).pools
            shape = _shape(index, chroma)
            graph, old = ladder_module._compile(shape), oracle_compile(shape)
            enumerable = math.prod(len(pool) + 1 for pool in pools) <= ENUMERABLE
            for alpha in alphas:
                js = [[q - alpha * d for _, q, d, _ in pool] for pool in pools]
                with _path_keys_calls() as calls:
                    relaxed = ladder_module._relax(graph, pools, js)
                assert ladder_module._relax(old, pools, js) == relaxed
                ladders = {}
                for mode in OptimizerMode:
                    solved = len(results)
                    got = ladders[mode] = outcome(lambda ix: _built(ix, alpha, chroma, mode))
                    counts = _or_error(lambda: chroma_counts(index, alpha, chroma, mode))
                    assert counts == (ladder_module.count_chroma(got) if isinstance(got, Ladder)
                                      else got)
                    # A kernel solves the shared and the fresh index's build and
                    # the count alike: it declines exactly at a tie of _relax's.
                    kernel_solves = 3 if solves == 1 and mode is dp and any(pools) else 0
                    assert results[solved:] == [None if calls else relaxed] * kernel_solves
                    if mode is dp:
                        choices = (choices_of(got) if isinstance(got, Ladder)
                                   else (None,) * len(pools))
                        assert choices == tuple(
                            None if k is None else pool[k][0] for pool, k in zip(pools, relaxed))
                        if enumerable:
                            assert choices == definitional_best(
                                ds, alpha, chroma=chroma, cross_target=cross_target)
                if isinstance(ladders[dp], Ladder):
                    greedy = ladders[OptimizerMode.GREEDY_SEQUENTIAL]
                    assert sum_j_prime(greedy) <= sum_j_prime(ladders[dp]) + 1e-12
            assert graphs.cache_info().misses == misses


class TestChromaCounts:
    """``chroma_counts`` fails as the public builders fail, with no DP solve
    offered to a kernel (``TestSolvePaths`` checks that it counts as
    ``count_chroma`` counts)."""

    SOLVES = math.inf  # the ``KERNEL_SOLVES`` the tests run with

    def test_title_without_the_view_raises_all_rungs_absent(self):
        ds = grid_dataset(lambda h, c, b: h / 1000, lambda h, c, b: 0.05, chromas=(C420,))
        with _kernels(self.SOLVES):
            for mode in OptimizerMode:
                got = _or_error(lambda: chroma_counts(CandidateIndex(ds), 0.0, C444, mode))
                assert got[0] is AllRungsAbsent
                assert got == _or_error(lambda: _built(CandidateIndex(ds), 0.0, C444, mode))

    @pytest.mark.parametrize("mode", list(OptimizerMode))
    def test_decreasing_choice_raises_what_validate_rungs_raises(self, mode):
        ds = grid_dataset(lambda h, c, b: h / 1000 + b / 1000, lambda h, c, b: 0.05)
        pools = CandidateIndex(ds)._view(None).pools

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

        with _kernels(self.SOLVES), pytest.MonkeyPatch.context() as patch:
            if mode is OptimizerMode.GLOBAL_DP:
                # A DP solve runs the graph's kernel, if it has one, or
                # ``_relax``; the index's fresh graph gets its kernel from the
                # patched ``_kernel``.
                kernel = ladder_module._kernel
                patch.setattr(ladder_module, "_kernel", lambda graph: swapped(kernel(graph)))
                patch.setattr(ladder_module, "_relax", swapped(ladder_module._relax))
            else:
                patch.setattr(ladder_module, "_solve_greedy", swapped(ladder_module._solve_greedy))
            got = _or_error(lambda: chroma_counts(CandidateIndex(ds), 0.0, None, mode))
            assert got[0] is InvalidLadder
            assert got == _or_error(lambda: _built(CandidateIndex(ds), 0.0, None, mode))


class TestChromaCountsOnKernels(TestChromaCounts):
    """``TestChromaCounts`` with every DP solve offered to a kernel first."""

    SOLVES = 1


_SOLVES = st.lists(st.tuples(
    st.sampled_from(["arcs", "dynres", "counts"]),
    st.sampled_from([None, C420, C444]),
    st.sampled_from(list(OptimizerMode)),
    st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0]),
), min_size=1, max_size=12)


class TestView:
    """Each chroma view of an index keeps its pools, graph and kernel columns."""

    @pytest.mark.parametrize("solves", [1, math.inf])
    def test_index_views_and_graphs_go_by_reference_counting(self, solves):
        ds = generate(default_spec(titles=1))[0]
        gc.disable()
        try:
            with _kernels(solves) as (made, _):
                index = CandidateIndex(ds)
                for alpha in (0.0, 0.04):
                    optimize_arcs(index, alpha)
                    build_dynres(index, alpha, C420)
                    chroma_counts(index, alpha, C444)
                build_fixed(index, [(600.0, 1080)], C422)
                made.clear()
                assert len(index._views) == 4
                graphs = [weakref.ref(view.graph()) for view in index._views.values()
                          if view.compiled is not None]
                assert len(graphs) == 3
                ref = weakref.ref(index)
                del index
                assert ref() is None
                assert [graph() for graph in graphs] == [None] * 3
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(ds=_titles(), cross_target=st.booleans(), solves=_SOLVES)
    def test_each_view_compiles_its_graph_at_most_once(self, ds, cross_target, solves):
        memo, shapes = graph_memo(), []

        def graphs(shape):
            shapes.append(shape)
            return memo(shape)

        index = CandidateIndex(ds, 0.10, cross_target=cross_target, graphs=graphs)
        solved = set()  # the views that had an exact solve
        for kind, chroma, mode, alpha in solves:
            if kind == "arcs":
                chroma = None
                run = lambda: optimize_arcs(index, alpha, mode)
            elif kind == "dynres":
                chroma = chroma or C444
                run = lambda: build_dynres(index, alpha, chroma, mode)
            else:
                run = lambda: chroma_counts(index, alpha, chroma, mode)
            _or_error(run)
            if mode is OptimizerMode.GLOBAL_DP and any(index._view(chroma).pools):
                solved.add(chroma)
        assert len(shapes) == len(solved)
        assert sorted(shapes) == sorted(_shape(index, chroma) for chroma in solved)
        for chroma in solved:
            assert index._view(chroma).graph() is memo(_shape(index, chroma))
        # The views kept their graphs.
        assert len(shapes) == len(solved)


# -- generated relaxation kernels ----------------------------------------------------


class TestKernel:
    """A graph's kernel makes ``_relax``'s choices, or declines at the first
    exact score tie, and ``_relax`` then breaks the tie."""

    @pytest.mark.parametrize("ds", [
        _rung_key_tie_title((600.0, 2400.0)),
        _rung_key_tie_title((600.0,)),
        # Degenerate bounds: every q' and d' is 0.0.
        grid_dataset(lambda h, c, b: 5.0, lambda h, c, b: 0.05),
    ], ids=["tie-at-a-state", "tie-among-finals", "all-zero"])
    def test_declines_ties_to_relax(self, ds):
        for build in (optimize_arcs, build_dynres):
            if build is build_dynres and not any(CandidateIndex(ds)._view(C444).pools):
                continue
            with _kernels(1) as (_, results), _path_keys_calls() as calls:
                dp = build(CandidateIndex(ds), 0.0)
            assert results == [None]
            assert calls, "the tie-break on rung keys was not reached"
            with _kernels(math.inf):
                assert dp == build(CandidateIndex(ds), 0.0)
        assert choices_of(optimize_arcs(CandidateIndex(ds), 0.0)) == definitional_best(ds, 0.0)

    def test_kernel_source_holds_only_graph_integers(self, monkeypatch):
        # Input values reach a kernel as arguments, never as source text.
        sources = []
        monkeypatch.setattr(ladder_module, "compile",
                            lambda text, *args: sources.append(text) or compile(text, *args),
                            raising=False)
        ds = generate(default_spec(titles=1))[0]
        with _kernels(1):
            optimize_arcs(CandidateIndex(ds), 0.04)
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
        alphas = [i / 100 for i in range(17)]
        corpus = generate(default_spec(titles=30))
        assert len(corpus) * len(alphas) > self.N
        with _kernels(self.N) as (made, results):
            graphs = graph_memo()
            for ds in corpus:
                index = CandidateIndex(ds, graphs=graphs)
                for alpha in alphas:
                    chroma_counts(index, alpha)
                    chroma_counts(index, alpha, C444)
        assert graphs.cache_info().misses == 2
        assert [solves for _, solves in made] == [self.N, self.N]
        assert made[0][0] is not made[1][0]
        assert len(results) == 2 * (len(corpus) * len(alphas) - self.N + 1)

    def test_sparse_corpus_makes_none(self):
        with _kernels(self.N) as (made, _):
            graphs = graph_memo()
            for ds in generate(sparse_spec(seed=0, titles=40)):
                index = CandidateIndex(ds, graphs=graphs)
                for alpha in (0.0, 0.01, 0.02, 0.04, 0.08):
                    for build in (optimize_arcs, build_dynres):
                        with contextlib.suppress(AllRungsAbsent):
                            build(index, alpha)
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
        # With the collector off, reference counting alone must free them.
        gc.disable()
        try:
            with _kernels(1) as (made, _):
                graphs = graph_memo()
                index = CandidateIndex(generate(default_spec(titles=1))[0], graphs=graphs)
                optimize_arcs(index, 0.04)
                graph = weakref.ref(made[0][0])
                kernel = weakref.ref(graph().kernel.generated)
                made.clear()
                del index
                # Sparse titles have graphs of their own, enough to evict it.
                for ds in generate(sparse_spec(seed=0, titles=ladder_module.GRAPH_CACHE_SIZE)):
                    optimize_arcs(CandidateIndex(ds, graphs=graphs), 0.04)
                assert len(made) == ladder_module.GRAPH_CACHE_SIZE
                assert graphs.cache_info().currsize == ladder_module.GRAPH_CACHE_SIZE
                made.clear()
                assert graph() is None and kernel() is None
        finally:
            gc.enable()


def test_greedy_vs_dp_script():
    """``scripts/greedy_vs_dp.py`` runs, and its check that greedy never beats
    the exact optimizer holds on every title and alpha."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "greedy_vs_dp.py"
    spec = importlib.util.spec_from_file_location("greedy_vs_dp", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.run()
