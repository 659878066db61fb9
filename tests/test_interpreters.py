"""The ladder commands print the same bytes on every supported Python.

Records are slotted dataclasses, which need Python 3.10, and the parser's
float and string handling and the report encoders must agree from 3.10 to
3.13. Each other interpreter found (pyenv's ``versions/3.1x.*``, else
``python3.1x`` on the PATH) runs ``optimize``, ``compare``, ``sweep`` and
``pmf`` on the shipped corpus in one process, ``sweep`` once more on the
shipped corpus plus a PSNR copy of it, so that each title's two metrics come
from two files, ``compare`` on the shipped corpus plus a file with a bad
row, which fails, and each command with ``--out`` on titles that hold
``\r``, ``\n``, ``\r\n``, ``"``, ``,`` and non-ASCII text, whose records are
split over one CSV and one JSON file. The exit codes, what they print on
stdout and stderr, and the bytes of every file written under ``--out`` must
equal those of the running interpreter. None of these commands needs numpy.
A version that is not installed is skipped.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
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
# Runs every command through cli.main and prints each one's exit code,
# stdout and stderr, under a header line, then the name and bytes of each
# file it wrote. An "{out}" argument names a fresh directory in the temporary
# directory sys.argv[2], which prints as "{out}".
RUN_ALL = """\
import contextlib, io, json, os, sys
from chromaladder.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    out_dir = os.path.join(sys.argv[2], f"out{i}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([out_dir if a == "{out}" else a for a in argv])
    text = f"$ {' '.join(argv)} -> {code}\\n{out.getvalue()}{err.getvalue()}"
    sys.stdout.buffer.write(text.replace(out_dir, "{out}").encode("utf-8"))
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            sys.stdout.buffer.write(f"--- {name!r}\\n".encode("utf-8") + fh.read())
"""
# Titles that CSV must quote and JSON must escape.
AWKWARD_TITLES = ("cr\rtitle", "lf\ntitle", "crlf\r\ntitle", 'quote "q", comma', "é 中文 😀")
BAD_ROW = "quality 'oops' is not a number"
MINORS = (10, 11, 12, 13)


def _interpreter(minor: int) -> str | None:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = sorted(versions.glob(f"3.{minor}.*/bin/python3"))
    return str(found[-1]) if found else shutil.which(f"python3.{minor}")


@pytest.fixture(scope="module")
def commands(tmp_path_factory) -> list[list[str]]:
    """``COMMANDS``, a ``sweep`` of the shipped corpus next to a PSNR copy of
    it (each quality q read as 20 + 5q dB), each command with ``--out`` on the
    shipped corpus's first titles renamed to ``AWKWARD_TITLES``, their records
    split over a CSV and a JSON file, and, last, a ``compare`` of the shipped
    corpus next to a file whose first row has quality ``oops``."""
    with open(ROOT / CORPUS, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    metric, quality = header.index("metric"), header.index("quality")
    for row in rows:
        row[metric], row[quality] = "psnr", repr(20.0 + 5.0 * float(row[quality]))
    psnr = tmp_path_factory.mktemp("psnr") / "corpus_psnr.csv"
    with open(psnr, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    bad = psnr.with_name("bad.csv")
    with open(bad, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, [*rows[0][:quality], "oops",
                                                                 *rows[0][quality + 1:]]])
    # The corpus's first titles renamed, their rows split over a CSV file,
    # written with "\r\n" line ends so that every interpreter quotes "\r",
    # and a JSON file.
    firsts = list(dict.fromkeys(row[0] for row in rows))[:len(AWKWARD_TITLES)]
    renamed = [[AWKWARD_TITLES[firsts.index(row[0])], *row[1:]] for row in rows if row[0] in firsts]
    split = [psnr.with_name("awkward.csv"), psnr.with_name("awkward.json")]
    with open(split[0], "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([header, *renamed[::2]])
    with open(split[1], "w", encoding="utf-8", newline="") as fh:
        json.dump([dict(zip(header, row)) for row in renamed[1::2]], fh, ensure_ascii=False)
    awkward = ["--input", str(split[0]), "--input", str(split[1]), "--alpha", "0", "--alpha",
               "0.04", "--out", "{out}"]
    reports = ["--format", "json", "--format", "csv"]
    return [*COMMANDS, ["sweep", *INPUT, "--input", str(psnr), "--format", "json"],
            ["optimize", *awkward, "--method", "arcs", "--method", "dynres"],
            ["compare", *awkward, "--method", "arcs", "--method", "dynres", *reports,
             "--format", "markdown"],
            ["sweep", *awkward, *reports, "--format", "markdown"],
            ["pmf", *awkward, *reports],
            ["compare", *INPUT, "--input", str(bad), "--format", "json"]]


def _stdout(python: str, commands: list[list[str]]) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [python, "-c", RUN_ALL, json.dumps(commands), out],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=300,
        )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def reference(commands) -> bytes:
    out = _stdout(sys.executable, commands)
    # Every command exited 0 but the last, whose error names the file with
    # the bad row, its second input.
    assert out.count(b" -> 0\n") == len(commands) - 1
    bad = commands[-1][-3]
    assert out.endswith(f" -> 1\nerror: {bad}: row 1: {BAD_ROW}\n".encode())
    return out


@pytest.mark.parametrize("minor", MINORS, ids=[f"3.{m}" for m in MINORS])
def test_ladder_commands_print_the_same_bytes(minor, commands, reference):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no Python 3.{minor} found")
    if Path(python).resolve() == Path(sys.executable).resolve():
        pytest.skip(f"Python 3.{minor} is the running interpreter")
    assert _stdout(python, commands) == reference
