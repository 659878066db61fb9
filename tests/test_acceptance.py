"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from chromaladder import (
    CandidateIndex,
    ChromaFormat,
    CurveAxis,
    PchipCurve,
    QualityMetric,
    RQCurve,
    TitleDataset,
    bd_delta,
    bounds_for,
    build_curve,
    build_default,
    build_dynres,
    build_fixed,
    composite_normalized,
    default_spec,
    generate,
    normalized_log_time,
    normalized_quality,
    optimize_arcs,
    validate_rungs,
)
from chromaladder.cli import main as cli_main
from chromaladder.errors import AllRungsAbsent
from chromaladder.ladder import OptimizerMode
from helpers import (C420, choices_of, chroma_pmf, definitional_best, ladder_sums, pchip_values,
                     random_dataset)

SWEEP = (0.0, 0.01, 0.02, 0.04, 0.08)


def ok(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def test_oracle_equivalence_on_random_instances():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    n = 220
    for trial in range(n):
        ds = random_dataset(rng, max_targets=6)
        alpha = float(rng.choice([0.0, 0.01, 0.02, 0.04, 0.08, 0.3, 1.0]))
        dp = optimize_arcs(CandidateIndex(ds), alpha)
        assert choices_of(dp) == definitional_best(ds, alpha), f"divergence on trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    ok("oracle equivalence", f"{n} instances, {elapsed:.2f}s")


def _random_plan(rng, targets):
    k = int(rng.integers(1, len(targets) + 1))
    chosen = sorted(rng.choice(len(targets), size=k, replace=False))
    split = int(rng.integers(0, k + 1))
    return [
        (targets[i], 1080 if pos < split else 2160)
        for pos, i in enumerate(chosen)
    ]


def test_constraint_suite_all_builders():
    rng = np.random.default_rng(202)
    built = 0
    for _ in range(1000):
        ds = random_dataset(rng, max_targets=5)
        alpha = float(rng.uniform(0.0, 1.0))
        chroma = list(ChromaFormat)[int(rng.integers(0, 3))]
        attempts = [
            lambda: optimize_arcs(CandidateIndex(ds), alpha),
            lambda: optimize_arcs(CandidateIndex(ds), alpha, mode=OptimizerMode.GREEDY_SEQUENTIAL),
            lambda: build_dynres(CandidateIndex(ds), alpha, fixed_chroma=chroma),
            lambda: build_default(CandidateIndex(ds)),
            lambda: build_fixed(CandidateIndex(ds), _random_plan(rng, ds.bitrate_targets)),
        ]
        for build in attempts:
            try:
                ladder = build()
            except AllRungsAbsent:
                continue
            validate_rungs(ladder.rungs)  # raises on any violation
            built += 1
    assert built > 3000
    ok("constraint suite", f"1000 instances, {built} ladders, 0 violations")


def test_scalarization_monotonicity():
    corpus = generate(replace(default_spec(seed=777), titles=100))
    violations = 0
    for ds in corpus:
        sums = [ladder_sums(optimize_arcs(CandidateIndex(ds), a), ds) for a in SWEEP]
        for (q1, d1), (q2, d2) in zip(sums, sums[1:]):
            if d2 > d1 + 1e-12 or q2 > q1 + 1e-12:
                violations += 1
    assert violations == 0
    ok("scalarization monotonicity", f"100 titles x {len(SWEEP)} alphas, 0 violations")


def test_bd_exactness():
    jod = QualityMetric.CVVDP_JOD
    rate = CurveAxis.QUALITY_VS_LOG_RATE

    def curve(qs, ys):
        return RQCurve(rate, jod, tuple(zip(qs, ys)))

    # identical curves -> exactly zero
    c = curve([4.0, 5.5, 7.0, 8.5], [math.log(r) for r in (600, 1400, 3000, 7000)])
    assert abs(bd_delta(c, c).value_percent) <= 1e-12

    # doubled rates -> +100%
    qs = [4.0, 5.5, 7.0, 8.5]
    rates = [610.0, 1390.0, 3100.0, 6900.0]
    ref = curve(qs, [math.log(r) for r in rates])
    test = curve(qs, [math.log(2 * r) for r in rates])
    assert abs(bd_delta(ref, test).value_percent - 100.0) <= 1e-9

    # antisymmetry and dense-quadrature oracle on random pairs
    rng = np.random.default_rng(303)
    pairs = 0
    while pairs < 500:
        n1, n2 = rng.integers(4, 7, size=2)
        q1 = np.sort(rng.uniform(3.0, 9.0, size=n1))
        q2 = np.sort(rng.uniform(3.0, 9.0, size=n2))
        if np.any(np.diff(q1) < 1e-3) or np.any(np.diff(q2) < 1e-3):
            continue
        lo, hi = max(q1[0], q2[0]), min(q1[-1], q2[-1])
        if hi - lo < 0.1:
            continue
        y1 = rng.uniform(4.0, 10.0, size=n1)
        y2 = rng.uniform(4.0, 10.0, size=n2)
        a, b = curve(q1, y1), curve(q2, y2)
        fwd = bd_delta(a, b).value_percent
        rev = bd_delta(b, a).value_percent
        assert abs((1 + fwd / 100.0) * (1 + rev / 100.0) - 1.0) <= 1e-9
        grid = np.linspace(lo, hi, 100_001)
        delta = (
            np.trapezoid(pchip_values(PchipCurve(q2, y2), grid), grid)
            - np.trapezoid(pchip_values(PchipCurve(q1, y1), grid), grid)
        ) / (hi - lo)
        want = (math.exp(delta) - 1.0) * 100.0
        assert abs(fwd - want) <= 1e-6 * max(1.0, abs(want))
        pairs += 1
    ok("bd exactness", "zero/doubled/antisymmetry identities + 500 quadrature pairs")


def test_normalization_terms_and_scale_invariance():
    rng = np.random.default_rng(404)
    for _ in range(200):
        ds = random_dataset(rng)
        bounds = bounds_for(ds)
        for rec in ds.records:
            qn = normalized_quality(rec.quality.value, bounds)
            dn = normalized_log_time(rec.decode_time, bounds)
            assert 0.0 <= qn <= 1.0
            assert 0.0 <= dn <= 1.0
    for k in (1e-3, 0.5, 7.0, 1e3):
        ds = random_dataset(np.random.default_rng(505))
        scaled = TitleDataset.from_records(
            [replace(rec, decode_time=rec.decode_time * k) for rec in ds.records]
        )
        b1, b2 = bounds_for(ds), bounds_for(scaled)
        for alpha in SWEEP:
            for r1, r2 in zip(ds.records, scaled.records):
                j1 = composite_normalized(r1, b1, alpha)
                j2 = composite_normalized(r2, b2, alpha)
                assert abs(j1 - j2) <= 1e-12
    ok("normalization", "terms in [0,1]; decode-time scaling leaves J' unchanged")


def test_qualitative_trend_reproduction():
    start = time.perf_counter()
    corpus = generate(default_spec())
    means = []
    for alpha in SWEEP:
        deltas = []
        for ds in corpus:
            ref = build_curve(build_default(CandidateIndex(ds)), CurveAxis.QUALITY_VS_LOG_TIME)
            test = build_curve(optimize_arcs(CandidateIndex(ds), alpha), CurveAxis.QUALITY_VS_LOG_TIME)
            deltas.append(bd_delta(ref, test).value_percent)
        means.append(sum(deltas) / len(deltas))
    assert all(m < 0.0 for m in means), f"BDDT_C not all negative: {means}"
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 1e-9, f"BDDT_C not non-increasing: {means}"

    share = {}
    for alpha in (0.0, 0.08):
        ladders = [optimize_arcs(CandidateIndex(ds), alpha) for ds in corpus]
        share[alpha] = chroma_pmf(ladders)[C420]
    assert share[0.08] > share[0.0], f"C420 share did not grow: {share}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"trend check took {elapsed:.1f}s"
    ok(
        "qualitative trends",
        f"BDDT_C {means[0]:.1f}% -> {means[-1]:.1f}%, "
        f"C420 share {share[0.0]:.2f} -> {share[0.08]:.2f}, {elapsed:.2f}s",
    )


def test_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus.csv"
    assert cli_main(["synth", "--titles", "6", "--out", str(corpus)]) == 0
    artifacts = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main([
            "compare", "--input", str(corpus), "--method", "arcs", "--method", "dynres",
            "--alpha", "0", "--alpha", "0.04", "--out", str(out / "cmp"),
        ]) == 0
        assert cli_main([
            "sweep", "--input", str(corpus),
            "--alpha", "0", "--alpha", "0.02", "--alpha", "0.08", "--out", str(out / "sw"),
        ]) == 0
        assert cli_main([
            "pmf", "--input", str(corpus), "--alpha", "0", "--alpha", "0.08",
            "--out", str(out / "pmf"),
        ]) == 0
        artifacts.append(
            (
                (out / "cmp" / "report.json").read_bytes(),
                (out / "sw" / "frontier.json").read_bytes(),
                (out / "pmf" / "pmf.json").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    report = json.loads(artifacts[0][0])
    assert json.loads(json.dumps(report)) == report
    ok("determinism", "byte-identical reports across two pipeline runs")
