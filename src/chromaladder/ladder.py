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

Every builder returns a ladder with a present rung or raises
``AllRungsAbsent``; maximality gives the optimizers one whenever some target
has a candidate.

Every builder takes the title as its ``CandidateIndex``, which fixes the
tolerance window and ``cross_target`` once and holds each window candidate
with its q' and d' from ``objective.normalized_terms``; one index serves
every method and alpha of the title::

    index = CandidateIndex(dataset, 0.10, cross_target=False)
    ladder = optimize_arcs(index, 0.04)

``chroma_counts`` runs the same solve as ``optimize_arcs``/``build_dynres``
and counts the chosen rungs by chroma format without building a ladder;
``count_chroma`` counts a built ladder alike, and ``chroma_shares`` turns
summed counts into each format's share of the present rungs.

Each solve runs on one chroma view of the index, which keeps its pools, DP
graph and kernel columns across alphas; a run's titles on one grid share the
graph (``graph_memo``). From a graph's ``KERNEL_SOLVES``-th solve on, its
relaxation is straight-line Python generated from the graph's integers and
compiled; that kernel gives the same choices and hands any instance with an
exact score tie back to the interpreted pass, which alone breaks ties.
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
from typing import Callable, Iterable, Sequence, TextIO

from .errors import (
    AllRungsAbsent,
    InvalidLadder,
    InvalidPlan,
    NoPresentRungs,
    PlanTargetUnknown,
)
from .measurements import (
    ChromaFormat,
    MeasurementRecord,
    Resolution,
    TitleDataset,
    candidates_for,
)
from .objective import bounds_for, checked_alpha, normalized_terms

_DECODE_TIME = operator.attrgetter("decode_time")

# Compiled DP graphs a ``graph_memo`` keeps for reuse. Titles encoded on one
# grid need one graph per chroma view; a title with windows of its own needs
# its own graph, so the memo stays small instead of keeping one graph (~10 KB)
# per title. A graph's kernel (about 170 B per edge: 34 KB for the default
# grid's arcs graph) lives on the graph and leaves the memo with it.
GRAPH_CACHE_SIZE = 8

# Solves a graph serves before it gets a kernel: the break-even of generating
# one (see the solvers below).
KERNEL_SOLVES = 400


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
    alpha: float | None = None

    def __post_init__(self):
        validate_rungs(self.rungs)


def validate_rungs(rungs: Sequence[Rung]) -> None:
    """Raise InvalidLadder unless the rung sequence satisfies all invariants."""
    targets = [r.target_bitrate for r in rungs]
    if not all(map(operator.lt, targets, targets[1:])):
        raise InvalidLadder("rung targets must be strictly increasing")
    _check_chain([(r.choice.resolution.height, r.choice.chroma.fidelity_rank)
                  for r in rungs if r.choice is not None])


def _check_chain(hfs: Sequence[tuple[int, int]]) -> None:
    """Raise InvalidLadder unless the (height, fidelity_rank) pairs of the
    present rungs, in target order, never decrease as tuples: that is the
    chain rule between consecutive present rungs, under which a resolution
    increase allows any chroma (refresh) and equal resolution requires
    non-decreasing fidelity. ``_compile`` and ``_solve_greedy`` use the same
    tuple order."""
    if all(map(operator.le, hfs, hfs[1:])):
        return
    prev, hf = next((a, b) for a, b in zip(hfs, hfs[1:]) if a > b)
    if hf[0] < prev[0]:
        raise InvalidLadder(f"resolution decreases {prev[0]} -> {hf[0]} with rising bitrate")
    raise InvalidLadder(f"chroma fidelity decreases within the {hf[0]}p run")


# -- candidate index -----------------------------------------------------------


class CandidateIndex:
    """The alpha-free part of ladder building for one title.

    ``pools[i]`` holds the window candidates of the i-th target bitrate, in
    ``candidates_for`` order, as ``(record, q', d', (height, fidelity_rank))``.
    ``q'`` and ``d'`` are the record's entries of ``normalized_terms`` under
    ``bounds_for(dataset)``: the normalized quality and log decode time over
    all records of the title. Each record's log decode time is taken once,
    for the bounds and for ``d'``.
    Each chroma view is a ``_View``, made on first use and kept with its
    pools, DP graph and kernel columns, so building ladders for many alphas
    repeats only the scoring and one relaxation pass each. A graph depends
    only on the pools' (height, fidelity_rank) pairs; given ``graphs``, a
    ``graph_memo()``, the views share their graphs with the other titles of
    the run whose pools have the same ones, and otherwise compile their own.

    The index is the one title argument of every builder, so ``tolerance``
    and ``cross_target`` (see ``candidates_for``) are fixed here, once, for
    every ladder built from it.
    """

    def __init__(
        self, dataset: TitleDataset, tolerance: float = 0.10, *, cross_target: bool = False,
        graphs: Callable[[tuple], _Graph] | None = None,
    ):
        self.dataset = dataset
        self._compile = _compile if graphs is None else graphs
        records = dataset.records
        log_times = list(map(math.log, map(_DECODE_TIME, records)))
        terms = dict(zip(map(id, records), zip(
            *normalized_terms(dataset, bounds_for(dataset, log_times), log_times))))
        self.pools = tuple(
            tuple([(r, *terms[id(r)], (r.resolution.height, r.chroma.fidelity_rank))
                   for r in candidates_for(dataset, t, tolerance, cross_target=cross_target)])
            for t in dataset.bitrate_targets
        )
        # Keyed by fidelity rank, -1 for the view of every chroma: hashing an
        # enum member runs in Python.
        self._views = {-1: _View(dataset.title_id, self.pools, self._compile)}

    def _view(self, chroma: ChromaFormat | None) -> _View:
        rank = -1 if chroma is None else chroma.fidelity_rank
        view = self._views.get(rank)
        if view is None:
            pools = tuple(tuple(c for c in pool if c[3][1] == rank) for pool in self.pools)
            view = self._views[rank] = _View(self.dataset.title_id, pools, self._compile)
        return view


class _View:
    """One chroma view of a title: its pools and, made on first use, its DP
    graph and kernel ``columns`` (q' and d', one tuple per rung each). It holds
    no index, so reference counting alone frees an index and its graphs."""

    __slots__ = ("title_id", "pools", "present", "_compile", "compiled", "columns")

    def __init__(self, title_id: str, pools: tuple, compile_: Callable[[tuple], _Graph]):
        self.title_id = title_id
        self.pools = pools
        self.present = any(pools)  # some target has a candidate
        self._compile = compile_
        self.compiled = self.columns = None

    def graph(self) -> _Graph:
        """The view's DP graph, compiled on the first call."""
        if self.compiled is None:
            self.compiled = self._compile(tuple(tuple(c[3] for c in pool) for pool in self.pools))
        return self.compiled

    def choose(self, alpha: float, solver) -> list[int | None]:
        """The solver's candidate position per rung (None for an absent
        rung) at ``alpha``; ``solver`` is ``_relax`` or ``_solve_greedy``."""
        if not self.present:
            raise AllRungsAbsent(f"title {self.title_id!r}: no candidate at any target bitrate")
        pools = self.pools
        if solver is _relax:
            graph = self.graph()
            graph.solves += 1
            if graph.solves >= KERNEL_SOLVES:
                if graph.kernel is None:
                    graph.kernel = _kernel(graph)
                if self.columns is None:
                    self.columns = (tuple(tuple(c[1] for c in pool) for pool in pools),
                                    tuple(tuple(c[2] for c in pool) for pool in pools))
                choices = graph.kernel(*self.columns, alpha)
                if choices is not None:
                    return choices
        js = [[q - alpha * d for _, q, d, _ in pool] for pool in pools]
        return _relax(graph, pools, js) if solver is _relax else solver(pools, js)


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
# ``_View.choose`` runs every solve. A solver takes the view's pools and ``js``,
# the objective of each candidate for one alpha (``_relax`` takes the view's
# graph first), and returns one candidate position per rung (None for an
# absent rung). A graph's kernel (see below) returns the same from the view's
# q'/d' columns and alpha.
#
# The exact solver searches the space of maximal assignments. An absent rung
# whose pool still holds candidates feasible w.r.t. the previous present rung
# is allowed only if the *next* present rung blocks every such candidate
# (i.e. stepping from the candidate to that rung would violate the chain);
# with no later present rung such a candidate could simply be flipped in, so
# the assignment is not maximal and is rejected.
#
# Blocking has a convenient shape: choice y blocks candidate x exactly when
# (height, fidelity) of y is lexicographically below x. The DP therefore only
# needs the lexicographic minimum of the pending candidates as a cap on the
# next present choice.
#
# The DP states are (last present (height, fidelity), cap), each None when
# unset. Which states are reachable, and the edges between them, depend only
# on the candidates' (height, fidelity), so ``_compile`` builds that graph
# once per distinct (height, fidelity) shape of the pools: titles encoded on
# one grid share it through their run's ``graph_memo``, so its solve count is
# the run's. The graph keeps only the states from which a final state
# can be reached; where every window holds every encode no rung may be
# absent, so no state has a cap. ``_relax`` then runs one max-plus pass over
# the edges per alpha. Each state keeps its best path by (summed objective,
# then the sequence of rung keys) as a backpointer; the key sequences are
# rebuilt from the backpointers only when two sums are exactly equal.
#
# A graph gets a kernel on its ``KERNEL_SOLVES``-th solve: ``_kernel`` writes
# its relaxation out as straight-line Python, one local variable per state
# and per candidate objective, and compiles it once. The kernel scores each
# candidate as ``q' - alpha * d'`` from the view's q'/d' columns, the same
# two float operations as ``_relax``'s ``js``, and adds and compares in
# ``_relax``'s edge order, so every partial sum and every comparison is the
# same. It does not break ties: at the first exact score tie, at a state or
# among the finals, it returns None and ``_relax`` solves the instance, so
# ``_relax`` stays the one definition of the ``_path_keys`` order. ``exec``
# runs only text built from the graph's integers (state numbers and candidate
# positions), never from input data.
#
# The trigger is the break-even. Generating costs about 50 us per edge, nearly
# all of it in ``compile``: 10 ms for the 195-edge arcs graph of the default
# grid and 1.7 ms for its 29-edge 4:4:4 graph (up to 17 and 3 ms in a fresh
# command). A kernel saves about 34 us and 15 us per solve of those graphs,
# so they pay back after 300 and 120 solves; ``KERNEL_SOLVES`` sits above
# both. A grid shared by a corpus is solved thousands of times (``pmf`` over
# 17 alphas: 5100 per graph at 300 titles; ``compare`` over 5 alphas: 1500).
# A title with windows of its own has a graph of its own, solved once per
# alpha, and stays on ``_relax``: on sparse corpora even compiling that graph
# costs about what its few solves use (CHANGES.md, the FOUND line on sparse
# corpora), and a kernel would cost more again.


@dataclass(eq=False)
class _Graph:
    # Per rung: edges (source state, destination state, candidate position or
    # -1 for an absent rung); states are numbered per layer, the start is 0.
    layers: tuple[tuple[tuple[int, int, int], ...], ...]
    widths: tuple[int, ...]  # number of states after each rung
    finals: tuple[int, ...]  # states after the last rung with no pending cap
    solves: int = 0  # DP solves served so far
    kernel: object = None  # made by ``_kernel`` on the KERNEL_SOLVES-th solve


def _compile(shape: tuple[tuple[tuple[int, int], ...], ...]) -> _Graph:
    """The DP graph of pools whose candidates have these (height,
    fidelity_rank) pairs, pool by pool in candidate order, cut down to the
    states from which a maximal ladder can still be finished."""
    # Forward: the reachable states and their edges. A pool's pairs never
    # decrease and the chain rule after ``last`` is ``hf >= last``, so the
    # candidates feasible after ``last`` are a suffix whose first pair is
    # their minimum, and those below ``cap`` are a prefix.
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


def graph_memo() -> Callable[[tuple], _Graph]:
    """A fresh LRU memo of ``GRAPH_CACHE_SIZE`` graphs around ``_compile``, for one run."""
    return functools.lru_cache(maxsize=GRAPH_CACHE_SIZE)(_compile)


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


def _kernel(graph: _Graph):
    """``graph``'s relaxation as straight-line code: ``kernel(qs, ds, a)``
    returns ``_relax``'s choices for the objectives ``qs[i][k] - a * ds[i][k]``,
    or None at the first exact score tie, which ``_relax`` must break."""
    n = len(graph.layers)
    out = [
        "def kernel(qs, ds, a):",
        f"    {''.join(f'q{i}, ' for i in range(n))}= qs",
        f"    {''.join(f'd{i}, ' for i in range(n))}= ds",
        "    v0_0 = 0.0",
    ]

    def best(var, back, entries):
        # The running maximum of ``entries`` (value, backpointer), in edge
        # order, as ``_relax`` takes it; an equal value is a tie.
        for m, (value, b) in enumerate(entries):
            if m == 0:
                out.append(f"    {var} = {value}; {back} = {b}")
            else:
                out.append(f"    x = {value}")
                out.append(f"    if x > {var}: {var} = x; {back} = {b}")
                out.append(f"    elif x == {var}: return None")

    for i, (edges, width) in enumerate(zip(graph.layers, graph.widths)):
        for k in sorted({k for _, _, k in edges if k >= 0}):
            out.append(f"    j{i}_{k} = q{i}[{k}] - a * d{i}[{k}]")
        incoming: list[list] = [[] for _ in range(width)]
        for src, dst, k in edges:
            value = f"v{i}_{src}" if k < 0 else f"v{i}_{src} + j{i}_{k}"
            incoming[dst].append((value, (src, k)))
        for dst, entries in enumerate(incoming):
            best(f"v{i + 1}_{dst}", f"b{i + 1}_{dst}", entries)
    best("end", "f", [(f"v{n}_{f}", f) for f in graph.finals])
    out += [
        "    backs = (" + "".join(
            "(" + "".join(f"b{i}_{s}, " for s in range(w)) + "), "
            for i, w in enumerate(graph.widths, start=1)) + ")",
        f"    choices = [None] * {n}",
        f"    for i in range({n - 1}, -1, -1):",
        "        f, k = backs[i][f]",
        "        if k >= 0:",
        "            choices[i] = k",
        "    return choices",
    ]
    namespace: dict = {}
    exec(compile("\n".join(out), "<dp kernel>", "exec"), namespace)
    # Popped, so that the kernel's globals do not hold the kernel: reference
    # counting alone frees it with its graph.
    return namespace.pop("kernel")


def _solve_greedy(pools, js) -> list[int | None]:
    last: tuple[int, int] | None = None
    out: list[int | None] = []
    for pool, jl in zip(pools, js):
        feasible = [k for k, c in enumerate(pool) if last is None or c[3] >= last]
        if feasible:
            pick = max(feasible, key=lambda k: _rung_key(pool[k], jl[k]))
            out.append(pick)
            last = pool[pick][3]
        else:
            out.append(None)
    return out


# -- builders -----------------------------------------------------------------


def _solver(mode: OptimizerMode):
    """The solver of ``mode``: the exact DP or the greedy scan."""
    return _relax if mode is OptimizerMode.GLOBAL_DP else _solve_greedy


def _build(
    index: CandidateIndex,
    method: Method,
    alpha: float,
    chroma: ChromaFormat | None,
    solver,
) -> Ladder:
    alpha = checked_alpha(alpha)
    dataset = index.dataset
    view = index._view(chroma)
    rungs = []
    for pool, t, k in zip(view.pools, dataset.bitrate_targets, view.choose(alpha, solver)):
        if k is None:
            rungs.append(Rung(t))
        else:
            record, q, d, _ = pool[k]
            rungs.append(Rung(t, record, q - alpha * d))
    return Ladder(dataset.title_id, method, tuple(rungs), alpha)


def optimize_arcs(
    index: CandidateIndex,
    alpha: float,
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP,
) -> Ladder:
    """Jointly select (resolution, chroma) per target bitrate.

    ``GLOBAL_DP`` maximizes the summed normalized objective exactly over all
    maximal feasible assignments via dynamic programming; ``GREEDY_SEQUENTIAL``
    scans targets in ascending order, picking the objective argmax among
    candidates feasible w.r.t. the previous present rung.
    """
    return _build(index, Method.ARCS, alpha, None, _solver(mode))


def build_dynres(
    index: CandidateIndex,
    alpha: float,
    fixed_chroma: ChromaFormat = ChromaFormat.C444,
    mode: OptimizerMode = OptimizerMode.GLOBAL_DP,
) -> Ladder:
    """Resolution-only ablation: same machinery, candidate pool pinned to one
    chroma format (default the full-fidelity source format)."""
    return _build(index, Method.DYNRES_JOD, alpha, fixed_chroma, _solver(mode))


def chroma_counts(
    index: CandidateIndex,
    alpha: float,
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
    view = index._view(chroma)
    choices = view.choose(checked_alpha(alpha), _solver(mode))
    hfs = [pool[k][3] for pool, k in zip(view.pools, choices) if k is not None]
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
    height = max(r.resolution.height for r in dataset.records)
    plan = [(t, height) for t in dataset.bitrate_targets]
    return replace(build_fixed(index, plan), method=Method.DEFAULT)


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
    ``fixed_chroma`` closest to its target, or is absent when there is none;
    with no rung present, ``AllRungsAbsent`` names the planned heights.
    """
    dataset = index.dataset
    entries = _sorted_plan(plan)
    known = set(dataset.bitrate_targets)
    for t, _ in entries:
        if t not in known:
            raise PlanTargetUnknown(t)
    pools = dict(zip(dataset.bitrate_targets, index._view(fixed_chroma).pools))
    rungs = []
    for t, h in entries:
        pool = [c[0] for c in pools[t] if c[3][0] == h]
        rungs.append(Rung(t, _closest(pool, t)) if pool else Rung(t))
    if all(r.choice is None for r in rungs):
        heights = "/".join(map(str, dict.fromkeys(h for _, h in entries))) or None
        raise AllRungsAbsent(f"title {dataset.title_id!r}: no ({heights}, {fixed_chroma.value}) "
                             "encode within tolerance at any target")
    return Ladder(dataset.title_id, Method.FIXED_LADDER, tuple(rungs), None)


def load_plan(source: str | TextIO) -> list[tuple[float, int]]:
    """Read a fixed-ladder plan from CSV with header ``target_kbps,height``.

    One leading UTF-8 byte-order mark is dropped and blank lines are skipped.
    A plan without rows, a row that does not hold exactly two numbers, or a
    plan that fails the checks of ``build_fixed`` raises ``InvalidPlan``; the
    plan comes back in target order.
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
    if not plan:
        raise InvalidPlan("plan has no rows")
    return _sorted_plan(plan)


def count_chroma(ladder: Ladder) -> tuple[int, ...]:
    """The present rungs of ``ladder`` counted by the chroma format's fidelity
    rank, as ``chroma_counts`` counts them."""
    # Counted by fidelity rank: hashing an enum member runs in Python.
    counts = [0] * len(ChromaFormat)
    for rung in ladder.rungs:
        if rung.choice is not None:
            counts[rung.choice.chroma.fidelity_rank] += 1
    return tuple(counts)


def chroma_shares(counts: Sequence[int]) -> dict[ChromaFormat, float]:
    """Share of each chroma format in ``counts`` (see ``count_chroma``)."""
    total = sum(counts)
    if total == 0:
        raise NoPresentRungs("no present rungs in any ladder")
    return {fmt: counts[fmt.fidelity_rank] / total for fmt in ChromaFormat}
