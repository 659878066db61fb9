"""Bitrate-ladder construction under resolution/chroma monotonicity constraints.

A ladder assigns each target bitrate either one measured operating point or
nothing (an absent rung, when no encode landed in the tolerance window or the
chain constraints rule every candidate out). Present rungs must satisfy, in
order of ascending target bitrate:

  * resolution never decreases;
  * within a run of equal resolution, chroma fidelity never decreases; a
    resolution increase "refreshes" chroma, which may then restart low.

The main optimizer maximizes the summed normalized objective over all
*maximal* constraint-satisfying assignments: a rung may be absent only if no
candidate could be flipped into it while keeping the chain feasible. This
makes absences exactly the forced ones, so a single-target ladder is always
the plain per-target argmax. Ties are broken deterministically: higher
objective, then lower decode time, then lower resolution, then lower chroma
fidelity.

Three benchmark builders mirror common practice: a fixed plan of
(bitrate, resolution) pairs, the native-resolution ladder (that plan with
every target at the title's largest height, in 4:4:4), and a resolution-only
optimizer with the chroma format pinned.

Every builder takes the title as its ``CandidateIndex``, which fixes the
tolerance window and ``cross_target`` once; one index serves every method
and alpha of the title::

    index = CandidateIndex(dataset, 0.10, cross_target=False)
    ladder = optimize_arcs(index, Alpha(0.04))

``chroma_counts`` runs the same solve as ``optimize_arcs``/``build_dynres``
and counts the chosen rungs by chroma format without building a ladder.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence, TextIO

from .errors import (
    AllRungsAbsent,
    InvalidLadder,
    InvalidPlan,
    NoPresentRungs,
    PlanTargetUnknown,
    SearchSpaceTooLarge,
)
from .measurements import (
    ChromaFormat,
    MeasurementRecord,
    Resolution,
    TitleDataset,
    candidates_for,
)
from .objective import (
    Alpha,
    as_alpha,
    bounds_for,
    check_in_bounds,
    normalized_log_time,
    normalized_quality,
)

ENUMERATION_GUARD = 10**7

# Compiled DP graphs kept for reuse. Titles encoded on one grid need one graph
# per chroma view; a title with windows of its own needs its own graph, so the
# memo stays small instead of keeping one graph (~10 KB) per title.
GRAPH_CACHE_SIZE = 8


class Method(Enum):
    ARCS = "arcs"
    DYNRES_JOD = "dynres"
    FIXED_LADDER = "fixed"
    DEFAULT = "default"


class OptimizerMode(Enum):
    GLOBAL_DP = "dp"
    GREEDY_SEQUENTIAL = "greedy"


@dataclass(frozen=True)
class Rung:
    """One ladder entry; ``choice`` is None when the rung is absent.

    ``j_prime`` carries the normalized objective of the choice for
    objective-driven builders; benchmark builders leave it None.
    """

    target_bitrate: float
    choice: MeasurementRecord | None = None
    j_prime: float | None = None

    @property
    def present(self) -> bool:
        return self.choice is not None


@dataclass(frozen=True)
class Ladder:
    title_id: str
    method: Method
    rungs: tuple[Rung, ...]
    alpha: Alpha | None = None

    def __post_init__(self):
        validate_rungs(self.rungs)

    @property
    def present_rungs(self) -> tuple[Rung, ...]:
        return tuple(r for r in self.rungs if r.present)

    def sum_j_prime(self) -> float:
        return sum(r.j_prime for r in self.rungs if r.j_prime is not None)


def validate_rungs(rungs: Sequence[Rung]) -> None:
    """Raise InvalidLadder unless the rung sequence satisfies all invariants."""
    targets = [r.target_bitrate for r in rungs]
    if not all(map(operator.lt, targets, targets[1:])):
        raise InvalidLadder("rung targets must be strictly increasing")
    _check_chain([(r.choice.resolution.height, r.choice.chroma.fidelity_rank)
                  for r in rungs if r.choice is not None])


def _check_chain(hfs: Sequence[tuple[int, int]]) -> None:
    """Raise InvalidLadder unless the (height, fidelity_rank) pairs of the
    present rungs, in target order, pass ``_step_ok`` pair by pair, which is
    to say that they never decrease."""
    if all(map(operator.le, hfs, hfs[1:])):
        return
    prev, hf = next((a, b) for a, b in zip(hfs, hfs[1:]) if a > b)
    if hf[0] < prev[0]:
        raise InvalidLadder(f"resolution decreases {prev[0]} -> {hf[0]} with rising bitrate")
    raise InvalidLadder(f"chroma fidelity decreases within the {hf[0]}p run")


def _step_ok(prev: tuple[int, int], nxt: tuple[int, int]) -> bool:
    """Chain constraint between consecutive present rungs.

    ``prev``/``nxt`` are (height, fidelity_rank). A resolution increase allows
    any chroma (refresh); equal resolution requires non-decreasing fidelity.
    """
    if nxt[0] != prev[0]:
        return nxt[0] > prev[0]
    return nxt[1] >= prev[1]


# -- candidate index -----------------------------------------------------------


class CandidateIndex:
    """The alpha-free part of ladder building for one title.

    ``pools[i]`` holds the window candidates of the i-th target bitrate, in
    ``candidates_for`` order, as ``(record, q', d', (height, fidelity_rank))``.
    ``q'`` and ``d'`` are the normalized quality and log decode time over all
    records of the title, so ``q' - alpha * d'`` equals
    ``composite_normalized(record, bounds_for(dataset), alpha)`` bit for bit.
    Chroma-filtered pools and the DP graphs are made on first use and kept, so
    building ladders for many alphas repeats only the scoring and one
    relaxation pass each. A graph depends only on the pools' (height,
    fidelity_rank) pairs and is shared with other titles whose pools have the
    same ones.

    The index is the one title argument of every builder, so ``tolerance``
    and ``cross_target`` (see ``candidates_for``) are fixed here, once, for
    every ladder built from it.
    """

    def __init__(
        self, dataset: TitleDataset, tolerance: float = 0.10, *, cross_target: bool = False
    ):
        self.dataset = dataset
        terms = {}
        # A title without records has empty pools and no bounds.
        bounds = bounds_for(dataset) if dataset.records else None
        for r in dataset.records:
            check_in_bounds(r, bounds)
            terms[id(r)] = (
                normalized_quality(r.quality.value, bounds),
                normalized_log_time(r.decode_time, bounds),
            )
        self.pools = tuple(
            tuple(
                (r, *terms[id(r)], (r.resolution.height, r.chroma.fidelity_rank))
                for r in candidates_for(dataset, t, tolerance, cross_target=cross_target)
            )
            for t in dataset.bitrate_targets
        )
        # Keyed by fidelity rank, -1 for the view of every chroma: hashing an
        # enum member runs in Python.
        self._filtered: dict[int, tuple] = {-1: self.pools}
        self._graphs: dict[int, _Graph] = {}

    def _pools(self, chroma: ChromaFormat | None) -> tuple:
        rank = -1 if chroma is None else chroma.fidelity_rank
        pools = self._filtered.get(rank)
        if pools is None:
            pools = self._filtered[rank] = tuple(
                tuple(c for c in pool if c[3][1] == rank) for pool in self.pools
            )
        return pools

    def _graph(self, chroma: ChromaFormat | None) -> _Graph:
        rank = -1 if chroma is None else chroma.fidelity_rank
        graph = self._graphs.get(rank)
        if graph is None:
            shape = tuple(tuple(c[3] for c in pool) for pool in self._pools(chroma))
            graph = self._graphs[rank] = _compile(shape)
        return graph


def _rung_key(cand: tuple, j: float) -> tuple:
    # Greater tuple = preferred. Present beats absent; then the documented
    # tie order; target/actual tails make the key unique per record.
    record, _, _, hf = cand
    return (
        1,
        j,
        -record.decode_time,
        -hf[0],
        -hf[1],
        -record.target_bitrate,
        -record.actual_bitrate,
    )


_ABSENT_KEY = (0, 0.0, 0.0, 0, 0, 0.0, 0.0)


# -- solvers -----------------------------------------------------------------
#
# Every solver takes the pools of one chroma view and ``js``, the objective of
# each candidate for one alpha (``_relax`` also takes the compiled graph), and
# returns one candidate position per rung (None for an absent rung).
#
# Both exact solvers search the space of maximal assignments. An absent rung
# whose pool still holds candidates feasible w.r.t. the previous present rung
# is allowed only if the *next* present rung blocks every such candidate
# (i.e. stepping from the candidate to that rung would violate the chain);
# with no later present rung such a candidate could simply be flipped in, so
# the assignment is not maximal and is rejected.
#
# Blocking has a convenient shape: choice y blocks candidate x exactly when
# (height, fidelity) of y is lexicographically below x. The DP therefore only
# needs the lexicographic minimum of the pending candidates as a cap on the
# next present choice, while the enumeration oracle keeps the literal pending
# list and applies the definition directly.
#
# The DP states are (last present (height, fidelity), cap), each None when
# unset. Which states are reachable, and the edges between them, depend only
# on the candidates' (height, fidelity), so ``_compile`` builds that graph
# once per distinct (height, fidelity) shape of the pools: titles encoded on
# one grid share it. The graph keeps only the states from which a final state
# can be reached; where every window holds every encode no rung may be
# absent, so no state has a cap. ``_relax`` then runs one max-plus pass over the edges per
# alpha. Each state keeps its best path by (summed objective,
# then the sequence of rung keys) as a backpointer; the key sequences are
# rebuilt from the backpointers only when two sums are exactly equal.


@dataclass(frozen=True)
class _Graph:
    # Per rung: edges (source state, destination state, candidate position or
    # -1 for an absent rung); states are numbered per layer, the start is 0.
    layers: tuple[tuple[tuple[int, int, int], ...], ...]
    widths: tuple[int, ...]  # number of states after each rung
    finals: tuple[int, ...]  # states after the last rung with no pending cap


@functools.lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _compile(shape: tuple[tuple[tuple[int, int], ...], ...]) -> _Graph:
    """The DP graph of pools whose candidates have these (height,
    fidelity_rank) pairs, pool by pool in candidate order, cut down to the
    states from which a maximal ladder can still be finished."""
    # Forward: the reachable states and their edges. A pool's pairs never
    # decrease and ``_step_ok(last, hf)`` is ``hf >= last``, so the candidates
    # feasible after ``last`` are a suffix whose first pair is their minimum,
    # and those below ``cap`` are a prefix.
    states: dict[tuple, int] = {(None, None): 0}
    layers, sizes = [], [1]
    for pool in shape:
        nxt: dict[tuple, int] = {}
        edges = []
        for (last, cap), src in states.items():
            lo = 0 if last is None else bisect_left(pool, last)
            new_cap = cap
            if lo < len(pool) and (cap is None or pool[lo] < cap):
                new_cap = pool[lo]
            edges.append((src, nxt.setdefault((last, new_cap), len(nxt)), -1))
            hi = len(pool) if cap is None else bisect_left(pool, cap)
            for k in range(lo, hi):
                edges.append((src, nxt.setdefault((pool[k], None), len(nxt)), k))
        layers.append(edges)
        sizes.append(len(nxt))
        states = nxt
    # Backward: keep the states that reach a final state (no cap pending after
    # the last rung), renumbered densely in forward order. Every state on a
    # path to a final state is kept, so the best path is unchanged.
    ids = [-1] * len(states)
    live = 0
    for (_, cap), i in states.items():
        if cap is None:
            ids[i] = live
            live += 1
    finals = tuple(range(live))
    kept_layers, widths = [], []
    for edges, size in zip(reversed(layers), reversed(sizes[:-1])):
        widths.append(live)
        kept = [(src, ids[dst], k) for src, dst, k in edges if ids[dst] >= 0]
        used = [False] * size
        for src, _, _ in kept:
            used[src] = True
        ids, live = [-1] * size, 0
        for i in range(size):
            if used[i]:
                ids[i] = live
                live += 1
        kept_layers.append(tuple((ids[src], dst, k) for src, dst, k in kept))
    kept_layers.reverse()
    widths.reverse()
    return _Graph(tuple(kept_layers), tuple(widths), finals)


def _relax(graph: _Graph, pools, js) -> list[int | None]:
    score = [0.0]
    backs: list[list[tuple[int, int]]] = []  # per rung: (source state, candidate)
    for edges, width, jl in zip(graph.layers, graph.widths, js):
        best: list = [None] * width
        back: list = [None] * width
        for src, dst, k in edges:
            s = score[src] if k < 0 else score[src] + jl[k]
            b = best[dst]
            if (
                b is None
                or s > b
                or (
                    s == b
                    and _path_keys(backs, pools, js, src, k)
                    > _path_keys(backs, pools, js, *back[dst])
                )
            ):
                best[dst] = s
                back[dst] = (src, k)
        score = best
        backs.append(back)
    end = None
    for f in graph.finals:
        if (
            end is None
            or score[f] > score[end]
            or (
                score[f] == score[end]
                and _path_keys(backs, pools, js, f) > _path_keys(backs, pools, js, end)
            )
        ):
            end = f
    choices: list[int | None] = [None] * len(backs)
    state = end
    for i in range(len(backs) - 1, -1, -1):
        state, k = backs[i][state]
        choices[i] = None if k < 0 else k
    return choices


def _path_keys(backs, pools, js, state: int, last: int | None = None) -> list[tuple]:
    """Rung keys, first rung first, of the path kept for ``state`` after the
    ``len(backs)`` rungs relaxed so far; ``last`` appends one more rung's
    choice (-1 for absent)."""
    keys = []
    if last is not None:
        i = len(backs)
        keys.append(_ABSENT_KEY if last < 0 else _rung_key(pools[i][last], js[i][last]))
    for i in range(len(backs) - 1, -1, -1):
        state, k = backs[i][state]
        keys.append(_ABSENT_KEY if k < 0 else _rung_key(pools[i][k], js[i][k]))
    keys.reverse()
    return keys


def _solve_greedy(pools, js) -> list[int | None]:
    last: tuple[int, int] | None = None
    out: list[int | None] = []
    for pool, jl in zip(pools, js):
        feasible = [k for k, c in enumerate(pool) if last is None or _step_ok(last, c[3])]
        if feasible:
            pick = max(feasible, key=lambda k: _rung_key(pool[k], jl[k]))
            out.append(pick)
            last = pool[pick][3]
        else:
            out.append(None)
    return out


def _solve_enumerate(pools, js) -> list[int | None]:
    size = 1
    for pool in pools:
        size *= max(1, len(pool))
    if size > ENUMERATION_GUARD:
        raise SearchSpaceTooLarge(
            f"candidate-count product {size} exceeds {ENUMERATION_GUARD}"
        )
    n = len(pools)
    best: tuple | None = None

    def walk(i, last, pending, score, keys, choices):
        nonlocal best
        if i == n:
            if pending:
                return  # a trailing absence could still be flipped in
            if best is None or (score, keys) > (best[0], best[1]):
                best = (score, keys, choices)
            return
        pool, jl = pools[i], js[i]
        feasible = tuple(k for k, c in enumerate(pool) if last is None or _step_ok(last, c[3]))
        walk(
            i + 1,
            last,
            pending + tuple(pool[k][3] for k in feasible),
            score,
            keys + (_ABSENT_KEY,),
            choices + (None,),
        )
        for k in feasible:
            hf = pool[k][3]
            if any(_step_ok(x, hf) for x in pending):
                continue  # some skipped candidate would still fit before this one
            walk(i + 1, hf, (), score + jl[k], keys + (_rung_key(pool[k], jl[k]),),
                 choices + (k,))

    walk(0, None, (), 0.0, (), ())
    assert best is not None
    return list(best[2])


# -- builders -----------------------------------------------------------------


def _choose(
    index: CandidateIndex, alpha: Alpha, chroma: ChromaFormat | None, solver
) -> tuple[tuple, list[list[float]], list[int | None]]:
    """The pools of the chroma view, each candidate's objective at ``alpha``
    and the solver's candidate position per rung (None for an absent rung)."""
    pools = index._pools(chroma)
    if all(not pool for pool in pools):
        raise AllRungsAbsent(
            f"title {index.dataset.title_id!r}: no candidate at any target bitrate"
        )
    a = alpha.value
    js = [[q - a * d for _, q, d, _ in pool] for pool in pools]
    if solver is _relax:
        return pools, js, _relax(index._graph(chroma), pools, js)
    return pools, js, solver(pools, js)


def _build(
    index: CandidateIndex,
    method: Method,
    alpha: Alpha | float,
    chroma: ChromaFormat | None,
    solver,
) -> Ladder:
    alpha = as_alpha(alpha)
    dataset = index.dataset
    pools, js, choices = _choose(index, alpha, chroma, solver)
    rungs = tuple(
        Rung(t, pools[i][k][0], js[i][k]) if k is not None else Rung(t)
        for i, (t, k) in enumerate(zip(dataset.bitrate_targets, choices))
    )
    return Ladder(dataset.title_id, method, rungs, alpha)


def optimize_arcs(
    index: CandidateIndex,
    alpha: Alpha | float,
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP,
) -> Ladder:
    """Jointly select (resolution, chroma) per target bitrate.

    ``GLOBAL_DP`` maximizes the summed normalized objective exactly over all
    maximal feasible assignments via dynamic programming; ``GREEDY_SEQUENTIAL``
    scans targets in ascending order, picking the objective argmax among
    candidates feasible w.r.t. the previous present rung.
    """
    solver = _relax if mode is OptimizerMode.GLOBAL_DP else _solve_greedy
    return _build(index, Method.ARCS, alpha, None, solver)


def enumerate_optimal(index: CandidateIndex, alpha: Alpha | float) -> Ladder:
    """Exhaustive-search oracle; identical contract and tie-breaking as
    ``optimize_arcs`` with ``GLOBAL_DP``. Guarded against large search spaces."""
    return _build(index, Method.ARCS, alpha, None, _solve_enumerate)


def build_dynres(
    index: CandidateIndex,
    alpha: Alpha | float,
    fixed_chroma: ChromaFormat = ChromaFormat.C444,
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP,
) -> Ladder:
    """Resolution-only ablation: same machinery, candidate pool pinned to one
    chroma format (default the full-fidelity source format)."""
    solver = _relax if mode is OptimizerMode.GLOBAL_DP else _solve_greedy
    return _build(index, Method.DYNRES_JOD, alpha, fixed_chroma, solver)


def chroma_counts(
    index: CandidateIndex,
    alpha: Alpha | float,
    chroma: ChromaFormat | None = None,
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP,
) -> tuple[int, ...]:
    """The present rungs of ``optimize_arcs(index, alpha, mode)`` (``chroma``
    None) or ``build_dynres(index, alpha, chroma, mode)``, counted by fidelity
    rank as ``count_chroma`` counts them, without building the ladder.

    Raises what the builder raises: ``AllRungsAbsent`` when no target has a
    candidate, and ``InvalidLadder`` when the chosen rungs break the chain.
    Targets need no check: a ``TitleDataset``'s are strictly increasing.
    """
    solver = _relax if mode is OptimizerMode.GLOBAL_DP else _solve_greedy
    pools, _, choices = _choose(index, as_alpha(alpha), chroma, solver)
    hfs = [pools[i][k][3] for i, k in enumerate(choices) if k is not None]
    _check_chain(hfs)
    counts = [0] * len(ChromaFormat)
    for _, rank in hfs:
        counts[rank] += 1
    return tuple(counts)


def build_default(index: CandidateIndex) -> Ladder:
    """Native-resolution-only benchmark: the fixed plan that puts every target
    at the title's largest height, with 4:4:4 chroma.

    Targets whose encode missed the tolerance window get absent rungs, so this
    ladder may fail to cover the low end of the bitrate range.
    """
    dataset = index.dataset
    height = max((r.resolution.height for r in dataset.records), default=None)
    plan = [(t, height) for t in dataset.bitrate_targets] if dataset.records else []
    ladder = build_fixed(index, plan)
    if not ladder.present_rungs:
        raise AllRungsAbsent(
            f"title {dataset.title_id!r}: no ({height}, 444) encode within tolerance "
            "at any target"
        )
    return replace(ladder, method=Method.DEFAULT)


def _closest(pool: list[MeasurementRecord], target: float) -> MeasurementRecord:
    # Without cross-target borrowing the pool has at most one record.
    return min(
        pool,
        key=lambda r: (r.target_bitrate != target, abs(r.actual_bitrate - target), r.actual_bitrate),
    )


PLAN_HEADER = ("target_kbps", "height")


def _sorted_plan(plan: Iterable[tuple[float, Resolution | int]]) -> list[tuple[float, int]]:
    """``plan`` as (target, height) pairs in target order.

    Raises ``InvalidPlan`` unless every target is a finite positive bitrate
    that appears once and every height is positive and at least the height
    planned for the target below it: a plan that breaks any of these cannot
    form a valid ladder for any title.
    """
    entries: list[tuple[float, int]] = []
    for target, res in plan:
        target = float(target)
        height = res.height if isinstance(res, Resolution) else int(res)
        if not (math.isfinite(target) and target > 0):
            raise InvalidPlan(f"plan target {target:g} is not a positive bitrate")
        if height <= 0:
            raise InvalidPlan(f"plan height {height} is not positive")
        entries.append((target, height))
    entries.sort(key=lambda e: e[0])
    targets = [t for t, _ in entries]
    if len(set(targets)) != len(targets):
        raise InvalidPlan("plan repeats a target bitrate")
    heights = [h for _, h in entries]
    if any(h2 < h1 for h1, h2 in zip(heights, heights[1:])):
        raise InvalidPlan("plan resolutions decrease with rising bitrate")
    return entries


def build_fixed(
    index: CandidateIndex,
    plan: Iterable[tuple[float, Resolution | int]],
    fixed_chroma: ChromaFormat = ChromaFormat.C444,
) -> Ladder:
    """Fixed (bitrate, resolution) plan benchmark; the plan is config input.

    Planned targets must be finite, positive and distinct and planned heights
    positive and non-decreasing with bitrate, else ``InvalidPlan``; every
    planned target must exist in the title, else ``PlanTargetUnknown``. Each
    rung takes the window candidate of the planned height and
    ``fixed_chroma`` closest to its target.
    """
    dataset = index.dataset
    entries = _sorted_plan(plan)
    known = set(dataset.bitrate_targets)
    for t, _ in entries:
        if t not in known:
            raise PlanTargetUnknown(t)
    pools = dict(zip(dataset.bitrate_targets, index._pools(fixed_chroma)))
    rungs = []
    for t, h in entries:
        pool = [c[0] for c in pools[t] if c[3][0] == h]
        rungs.append(Rung(t, _closest(pool, t)) if pool else Rung(t))
    return Ladder(dataset.title_id, Method.FIXED_LADDER, tuple(rungs), None)


def load_plan(source: str | TextIO) -> list[tuple[float, int]]:
    """Read a fixed-ladder plan from CSV with header ``target_kbps,height``.

    One leading UTF-8 byte-order mark is dropped and blank lines are skipped.
    A row that does not hold exactly two numbers, or a plan that fails the
    checks of ``build_fixed``, raises ``InvalidPlan``; the plan comes back in
    target order.
    """
    text = source if isinstance(source, str) else source.read()
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    header = next(reader, None)
    if header is None or tuple(n.strip() for n in header) != PLAN_HEADER:
        raise InvalidPlan(f"plan header must be {','.join(PLAN_HEADER)}")
    plan = []
    for i, row in enumerate((row for row in reader if row), start=1):
        if len(row) != len(PLAN_HEADER):
            raise InvalidPlan(f"plan row {i} has {len(row)} fields, not {len(PLAN_HEADER)}")
        try:
            plan.append((float(row[0]), int(row[1])))
        except ValueError:
            raise InvalidPlan(f"plan row {i} is not numeric") from None
    return _sorted_plan(plan)


def count_chroma(ladders: Iterable[Ladder], counts: list[int]) -> None:
    """Add the present rungs of ``ladders`` to ``counts``, indexed by the
    chroma format's fidelity rank."""
    # Counted by fidelity rank: hashing an enum member runs in Python.
    for ladder in ladders:
        for rung in ladder.rungs:
            if rung.choice is not None:
                counts[rung.choice.chroma.fidelity_rank] += 1


def chroma_shares(counts: Sequence[int]) -> dict[ChromaFormat, float]:
    """Share of each chroma format in ``counts`` (see ``count_chroma``)."""
    total = sum(counts)
    if total == 0:
        raise NoPresentRungs("no present rungs in any ladder")
    return {fmt: counts[fmt.fidelity_rank] / total for fmt in ChromaFormat}


def chroma_pmf(ladders: Iterable[Ladder]) -> dict[ChromaFormat, float]:
    """Share of present rungs per chroma format across the given ladders."""
    counts = [0] * len(ChromaFormat)
    count_chroma(ladders, counts)
    return chroma_shares(counts)
