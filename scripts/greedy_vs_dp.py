#!/usr/bin/env python3
"""Quantify the optimality gap of the greedy optimizer mode.

Runs both modes over the sparse corpus (15% bitrate jitter, so rungs go
absent and the chain constraints actually bite) and reports how often the
greedy scan falls short of the exact dynamic program, and by how much.
"""

from dataclasses import replace

from chromaladder import (
    CandidateIndex,
    OptimizerMode,
    generate,
    optimize_arcs,
    sparse_spec,
)

ALPHAS = (0.0, 0.01, 0.02, 0.04, 0.08, 0.2, 0.5)


def run():
    # One candidate index per title serves both modes at every alpha.
    indexes = [CandidateIndex(ds) for ds in generate(replace(sparse_spec(), titles=40))]
    print(f"{'alpha':>6} {'titles':>7} {'greedy<dp':>10} {'mean gap':>10} {'max gap':>10}")
    for alpha in ALPHAS:
        gaps = []
        for index in indexes:
            dp = optimize_arcs(index, alpha)
            greedy = optimize_arcs(index, alpha, OptimizerMode.GREEDY_SEQUENTIAL)
            dp_sum, greedy_sum = (sum(r.j_prime for r in ladder.rungs if r.present)
                                  for ladder in (dp, greedy))
            gap = dp_sum - greedy_sum
            assert gap >= -1e-12, "greedy must never beat the exact optimizer"
            gaps.append(gap)
        worse = sum(g > 1e-12 for g in gaps)
        print(
            f"{alpha:>6g} {len(gaps):>7} {worse:>10} "
            f"{sum(gaps) / len(gaps):>10.4f} {max(gaps):>10.4f}"
        )


if __name__ == "__main__":
    run()
