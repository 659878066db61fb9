"""The ladder commands print the same bytes on every supported Python.

Records are slotted dataclasses, which need Python 3.10, and the parser's
float and string handling and the report encoders must agree from 3.10 to
3.13. Each other interpreter found (pyenv's ``versions/3.1x.*``, else
``python3.1x`` on the PATH) runs ``optimize``, ``compare``, ``sweep`` and
``pmf`` on the shipped corpus in one process, and ``sweep`` once more on the
shipped corpus plus a PSNR copy of it, so that each title's two metrics come
from two files; what they print must equal what the running interpreter
prints. None of these commands needs numpy. A version that is not installed
is skipped.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = "results/corpus.csv"
PLAN = "configs/fixed_plan.csv"
INPUT = ["--input", CORPUS, "--alpha", "0", "--alpha", "0.04"]
COMMANDS = [
    ["optimize", *INPUT, "--method", "arcs", "--method", "dynres", "--method", "fixed",
     "--method", "default", "--plan", PLAN],
    ["compare", *INPUT, "--method", "arcs", "--method", "dynres", "--method", "fixed",
     "--plan", PLAN, "--format", "json"],
    ["sweep", *INPUT, "--format", "json"],
    ["pmf", *INPUT, "--format", "json"],
]
# Runs every command through cli.main and prints each one's exit code and
# stdout, under a header line.
RUN_ALL = """\
import contextlib, io, json, sys
from chromaladder.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(f"$ {' '.join(argv)} -> {code}\\n{out.getvalue()}")
"""
MINORS = (10, 11, 12, 13)


def _interpreter(minor: int) -> str | None:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(versions.glob(f"3.{minor}.*/bin/python3"))
    return str(found[-1]) if found else shutil.which(f"python3.{minor}")


@pytest.fixture(scope="module")
def commands(tmp_path_factory) -> list[list[str]]:
    """``COMMANDS`` and a ``sweep`` of the shipped corpus next to a PSNR copy
    of it (each quality q read as 20 + 5q dB)."""
    with open(ROOT / CORPUS, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    metric, quality = header.index("metric"), header.index("quality")
    for row in rows:
        row[metric], row[quality] = "psnr", repr(20.0 + 5.0 * float(row[quality]))
    psnr = tmp_path_factory.mktemp("psnr") / "corpus_psnr.csv"
    with open(psnr, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return [*COMMANDS, ["sweep", *INPUT, "--input", str(psnr), "--format", "json"]]


def _stdout(python: str, commands: list[list[str]]) -> bytes:
    proc = subprocess.run(
        [python, "-c", RUN_ALL, json.dumps(commands)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def reference(commands) -> bytes:
    out = _stdout(sys.executable, commands)
    # Every command ran and exited 0.
    assert out.count(b" -> 0\n") == len(commands)
    return out


@pytest.mark.parametrize("minor", MINORS, ids=[f"3.{m}" for m in MINORS])
def test_ladder_commands_print_the_same_bytes(minor, commands, reference):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no Python 3.{minor} found")
    if Path(python).resolve() == Path(sys.executable).resolve():
        pytest.skip(f"Python 3.{minor} is the running interpreter")
    assert _stdout(python, commands) == reference
