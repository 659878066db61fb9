"""Mutation analysis: which test kills each one-place edit of the library.

Run from anywhere, with no flags::

    python scripts/mutation.py

It makes a fixed, seeded sample of mutants of ``ladder.py``, ``bdmetrics.py``,
``measurements.py``, ``objective.py`` and two parts of ``cli.py``: its
renderer (the text and file writers, from ``to_json_text`` to
``_render_summary``) and its command code (``RunConfig``, the evaluation
pass, the ``cmd_*`` functions and ``main``), at most ``PER_SAMPLE`` per
sample. A mutant is one edit at one place:

* ``cmp``: flip a comparison, ``<`` and ``<=``, ``>`` and ``>=``, ``==``
  and ``!=``;
* ``arith``: swap ``+`` and ``-``, or ``*`` and ``/`` (augmented assignments
  too);
* ``int+1``: add 1 to an int constant;
* ``raise->pass`` and ``continue->pass``: replace the statement with ``pass``;
* ``swap``: swap two adjacent entries of a returned tuple.

Each sample's sites are found with ``ast`` and edited in the source text at
that place only. A mutant's id names its site without a line or column, so
that an edit elsewhere in the module leaves it as it is::

    ladder.py:_relax:cmp:> => >=#2

that is the file, the top-level name (function, class or assigned name) that
holds the site, the operator, the original text and its replacement (runs of
white space as one space), and ``#n`` for the n-th such edit within that name,
in source order. The sample takes the operators in turn, each in the order of
a seeded hash of its sites' ids, so that every operator with a site in a
sample is sampled there and a new site displaces at most one other;
``PINNED`` mutants are always in it. ``PINNED`` and ``EQUIVALENT`` are keyed
by id, and the script stops if one of their ids names no site.

Each mutant runs in a fresh temporary copy of the repository (without
``.git`` or ``.hypothesis``), where pyproject's ``pythonpath = ["src"]``
imports the mutated file. The sample's own test files run first, with
``pytest -q -x -p no:cacheprovider --hypothesis-seed=0``; the other test files
run only if they all pass. A row records the first failing test
(``killed_by``), ``survived``, or, for the mutants in ``EQUIVALENT``,
``equivalent`` with the reason, and those are not run. The table, with the
sha256 of each mutated file, is written to ``MUTATION_kill_table.json`` at the
repository root; nothing else is written in the working tree. Before any
mutant, the unmutated copy must pass the whole suite.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "MUTATION_kill_table.json"
SEED = 1978
PER_SAMPLE = 40
WORKERS = 2
TIMEOUT_S = 600
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")

# The cli names that render and write text: the renderer.
RENDERER = frozenset({
    "to_json_text", "_finite_float", "_encode_str", "_SCALAR_TEXT", "_write_json", "_scalar",
    "_JsonText", "_list_json", "_SLOT", "_SHAPES", "_template", "_rung_head_template",
    "_rung_fields", "_RungText", "_ladder_json", "_report_title", "_csv_alpha", "_config_payload",
    "_alpha_tag", "_alpha_label", "_WRITE_SLICE", "_write_text", "_csv_lines", "_check_finite",
    "_emit", "_COLUMN_LABEL", "_render_markdown", "_render_summary",
})

# The cli names that read the inputs, evaluate the titles and run the commands.
COMMAND_CODE = frozenset({
    "RunConfig", "_read_datasets", "_evaluate", "_compare", "cmd_validate", "cmd_synth",
    "_NAME_BYTES", "cmd_optimize", "cmd_compare", "cmd_sweep", "cmd_pmf", "main",
})

CLI_TESTS = ("tests/test_cli.py", "tests/test_reference.py")
# Each sample: (mutated file, top-level names mutated, None for all; its own test files).
SAMPLES = (
    ("src/chromaladder/ladder.py", None, ("tests/test_ladder.py",)),
    ("src/chromaladder/bdmetrics.py", None, ("tests/test_bdmetrics.py",)),
    ("src/chromaladder/measurements.py", None, ("tests/test_measurements.py",)),
    ("src/chromaladder/objective.py", None, ("tests/test_objective.py",)),
    ("src/chromaladder/cli.py", RENDERER, CLI_TESTS),
    ("src/chromaladder/cli.py", COMMAND_CODE, CLI_TESTS),
)

# Always sampled: the documented tie order's resolution and chroma keys, and
# the end-slope clamp.
PINNED = (
    "ladder.py:_rung_key:swap:-hf[0], -hf[1] => -hf[1], -hf[0]#1",
    "bdmetrics.py:_edge_slope:cmp:> => >=#1",
)

# Mutants that no input can tell from the original, by id, with the reason.
EQUIVALENT = {
    "ladder.py:_ABSENT_KEY:int+1:0 => 1#2":
        "_ABSENT_KEY is compared only with itself, which ties whatever it holds, or with a "
        "present rung's key, from which its first entry (0 against 1) already differs",
    "ladder.py:_compile:int+1:1 => 2#1":
        "sizes[0] only bounds the start layer's state numbers when the backward pass "
        "renumbers them; the extra state is never used, so it gets no number",
    "ladder.py:_compile:cmp:< => <=#2":
        "when pool[lo] == cap the new cap is assigned the value it already has",
    "ladder.py:_relax:cmp:> => >=#4":
        "two final states are reached by paths that differ at some rung, and rung keys are "
        "unique per record (a record's key holds its target, height and fidelity) and absent "
        "against present differs in the first entry, so their key sequences are never equal",
    "bdmetrics.py:PchipCurve:cmp:< => <=#2":
        "at seg_a == seg_b the part integral is exactly +0.0, and 0.0 + 0.0 is 0.0",
    "bdmetrics.py:PchipCurve:cmp:<= => <#5":
        "at a == x[lo] the part integral runs t from (a - x[lo]) / h = 0.0 to "
        "(x[lo + 1] - x[lo]) / h = 1.0, the operations that make whole[lo], so it equals "
        "whole[lo] bit for bit",
    "bdmetrics.py:PchipCurve:cmp:<= => <#6":
        "at x[hi + 1] == b the part integral runs t from (x[hi] - x[hi]) / h = 0.0 to "
        "(x[hi + 1] - x[hi]) / h = 1.0, the operations that make whole[hi], so it equals "
        "whole[hi] bit for bit",
    "bdmetrics.py:PchipCurve:cmp:< => <=#3":
        "at x[hi] == b the part integral is exactly +0.0, and a sum that starts at 0.0 "
        "is never -0.0, so adding it changes nothing",
    "bdmetrics.py:_pchip_slopes:cmp:< => <=#1":
        "s0 == 0.0 is handled by the test before it, so s0 <= 0 and s0 < 0 agree here",
    "bdmetrics.py:_pchip_slopes:cmp:< => <=#2":
        "s1 == 0.0 is handled by the test before it, so s1 <= 0 and s1 < 0 agree here",
    "bdmetrics.py:_edge_slope:cmp:> => >=#1":
        "the line runs only when _sign(d) == _sign(d0) != 0, so abs(d) == 3 * abs(d0) "
        "means d == 3 * d0 and both branches return the same float",
    "cli.py:_WRITE_SLICE:int+1:1 => 2#1":
        "_WRITE_SLICE sets how many characters each write call takes; the file's bytes "
        "are the same",
    "cli.py:_WRITE_SLICE:int+1:20 => 21#1":
        "_WRITE_SLICE sets how many characters each write call takes; the file's bytes "
        "are the same",
    "cli.py:_compare:int+1:1 => 2#2":
        "it keys an alpha-free group by None instead of -1.0; a method's groups all have an "
        "alpha or all have none, so keys that tie on the method compare two equal Nones, "
        "which need no ordering, or two floats as before, and the rows keep their order",
}

_OP = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
       ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*"}
_OP_TEXT = re.compile(r"<=|>=|==|!=|<|>|[-+*/]=?")


class _Source:
    """A module's text, with ``ast`` positions (1-based lines, UTF-8 byte
    columns) turned into string offsets."""

    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, lineno: int, col: int) -> int:
        line = self.lines[lineno - 1]
        return self.starts[lineno - 1] + len(line.encode("utf-8")[:col].decode("utf-8"))

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.offset(node.lineno, node.col_offset),
                self.offset(node.end_lineno, node.end_col_offset))

    def position(self, offset: int) -> tuple[int, int]:
        """(line, column), both 1-based, of a string offset."""
        lineno = next(i for i, start in enumerate(self.starts) if start > offset)
        return lineno, offset - self.starts[lineno - 1] + 1


def _operator_site(src: _Source, operator: str, left: ast.AST, op: ast.AST, right: ast.AST,
                   suffix: str = "") -> list[tuple]:
    """The site of ``op`` (written with ``suffix``, "=" in an augmented
    assignment) between two operands, which hold only brackets, spaces and
    the operator between them; none if ``op`` is not flipped."""
    text = _OP.get(type(op))
    if text is not None:
        for match in _OP_TEXT.finditer(src.text, src.span(left)[1], src.span(right)[0]):
            if match.group() == text + suffix:
                return [(operator, match.start(), match.start() + len(text), _FLIP[text])]
    return []


def _sites(src: _Source, tree: ast.Module, names) -> list[tuple]:
    """Every mutation site of the module's top-level statements that bind one
    of ``names`` (all when None), as (top-level name, operator, start, end,
    replacement), a replacement of ``text[start:end]``."""
    sites = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            name = stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            name = targets[0].id if isinstance(targets[0], ast.Name) else None
        else:
            continue
        if name is None or (names is not None and name not in names):
            continue
        for node in ast.walk(stmt):
            sites.extend((name, *site) for site in _node_sites(src, node))
    return sites


def _node_sites(src: _Source, node: ast.AST) -> list[tuple]:
    out = []
    if isinstance(node, ast.Compare):
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            out += _operator_site(src, "cmp", left, op, right)
    elif isinstance(node, ast.BinOp):
        out += _operator_site(src, "arith", node.left, node.op, node.right)
    elif isinstance(node, ast.AugAssign):
        out += _operator_site(src, "arith", node.target, node.op, node.value, "=")
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        start, end = src.span(node)
        out.append(("int+1", start, end, repr(node.value + 1)))
    elif isinstance(node, (ast.Raise, ast.Continue)):
        start, end = src.span(node)
        out.append(("raise->pass" if isinstance(node, ast.Raise) else "continue->pass",
                    start, end, "pass"))
    elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
        for a, b in zip(node.value.elts, node.value.elts[1:]):
            (a0, a1), (b0, b1) = src.span(a), src.span(b)
            first, second = src.text[a0:a1], src.text[b0:b1]
            if first != second:
                out.append(("swap", a0, b1, second + src.text[a1:b0] + first))
    return out


def keyed_sites(path: str, names, text: str) -> list[tuple]:
    """Every mutation site of ``names`` (all when None) in the module
    ``path``, whose source is ``text``, in source order, as (id, start, end,
    replacement, operator)."""
    sites = sorted(_sites(_Source(text), ast.parse(text), names), key=lambda s: s[2:] + s[:2])
    seen: Counter = Counter()
    out = []
    for name, operator, start, end, replacement in sites:
        edit = f"{' '.join(text[start:end].split())} => {' '.join(replacement.split())}"
        seen[name, operator, edit] += 1
        site_id = f"{Path(path).name}:{name}:{operator}:{edit}#{seen[name, operator, edit]}"
        out.append((site_id, start, end, replacement, operator))
    return out


def _rank(site: tuple) -> str:
    return hashlib.sha256(f"{SEED}:{site[0]}".encode("utf-8")).hexdigest()


def mutants(path: str, names, text: str) -> list[dict]:
    """The sampled mutants of ``names`` (all when None) in the module
    ``path``, whose source is ``text``, in source order: ``id``, ``start``,
    ``end``, ``replacement`` and ``edit`` (the changed lines before and
    after)."""
    sites = keyed_sites(path, names, text)
    by_operator: dict[str, list] = {}
    for site in sites:
        by_operator.setdefault(site[4], []).append(site)
    # Each operator's sites, lowest rank last, as ``pop`` takes them.
    queues = [sorted(group, key=_rank, reverse=True) for _, group in sorted(by_operator.items())]
    chosen = {site for site in sites if site[0] in PINNED}
    while len(chosen) < PER_SAMPLE and any(queues):
        for group in queues:
            if group and len(chosen) < PER_SAMPLE:
                chosen.add(group.pop())
    src = _Source(text)
    out = []
    for site_id, start, end, replacement, _ in sorted(chosen, key=lambda s: s[1:3] + s[:1]):
        lineno, _ = src.position(start)
        first, last = src.starts[lineno - 1], src.starts[src.position(end)[0]]
        mutated = text[first:start] + replacement + text[end:last]
        out.append({
            "id": site_id, "start": start, "end": end, "replacement": replacement,
            "edit": {"from": text[first:last].strip(), "to": mutated.strip()},
        })
    return out


def _copy(into: Path) -> Path:
    repo = into / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__", TABLE.name))
    return repo


def _pytest(repo: Path, files) -> str | None:
    """The first failing test of ``files`` in ``repo``, or None if all pass."""
    try:
        proc = subprocess.run(
            [sys.executable, *PYTEST, *files], cwd=repo, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def _other_tests(own) -> list[str]:
    return [str(p.relative_to(ROOT)) for p in sorted((ROOT / "tests").glob("test_*.py"))
            if str(p.relative_to(ROOT)) not in own]


def run_mutant(path: str, own, text: str, mutant: dict) -> dict:
    """The mutant's row: its id, edit, and ``killed_by`` or ``survived``,
    its own test files ``own`` run first."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        repo = _copy(Path(tmp))
        (repo / path).write_text(
            text[:mutant["start"]] + mutant["replacement"] + text[mutant["end"]:], encoding="utf-8")
        killer = _pytest(repo, own) or _pytest(repo, _other_tests(own))
    row = {"id": mutant["id"], "edit": mutant["edit"]}
    if killer is None:
        row["survived"] = True
    else:
        row["killed_by"] = killer
    return row


def main() -> int:
    texts = {path: (ROOT / path).read_text(encoding="utf-8") for path, _, _ in SAMPLES}
    known = {site[0] for path, names, _ in SAMPLES for site in keyed_sites(path, names, texts[path])}
    stale = sorted({*PINNED, *EQUIVALENT} - known)
    if stale:
        print(f"PINNED or EQUIVALENT names no site: {stale}", file=sys.stderr)
        return 1
    jobs = [(path, own, m) for path, names, own in SAMPLES for m in mutants(path, names, texts[path])]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        failing = _pytest(_copy(Path(tmp)), ["tests"])
    if failing is not None:
        print(f"the unmutated suite fails ({failing}); no mutant was run", file=sys.stderr)
        return 1
    start = time.monotonic()

    def row(job):
        path, own, mutant = job
        if mutant["id"] in EQUIVALENT:
            return {"id": mutant["id"], "edit": mutant["edit"],
                    "equivalent": EQUIVALENT[mutant["id"]]}
        got = run_mutant(path, own, texts[path], mutant)
        print(f"{got['id']}: {got.get('killed_by', 'survived')}", file=sys.stderr, flush=True)
        return got

    with ThreadPoolExecutor(WORKERS) as pool:
        rows = list(pool.map(row, jobs))
    status = [next(k for k in ("killed_by", "survived", "equivalent") if k in r) for r in rows]
    table = {
        "command": " ".join(["python", *PYTEST]),
        "seed": SEED,
        "per_sample": PER_SAMPLE,
        "files": {path: {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                         "own_tests": list(next(own for p, _, own in SAMPLES if p == path)),
                         "mutants": sum(p == path for p, _, _ in jobs)}
                  for path, text in texts.items()},
        "counts": {k: status.count(k) for k in ("killed_by", "survived", "equivalent")},
        "rows": rows,
    }
    TABLE.write_text(json.dumps(table, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(rows)} mutants in {time.monotonic() - start:.0f} s: {table['counts']}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
