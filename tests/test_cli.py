"""End-to-end CLI tests of what ``test_reference``'s outcome check cannot
state: ``validate`` and ``synth``, argparse's usage errors, the paper's
properties of the reports, invariance to the input layout, the call-count
pins that guard speed, injected faults, and the JSON emitter. What the four
ladder commands print, write and exit with is checked there, by
``commands_equal_reference``, and their named cases are pinned examples of
``test_commands_equal_reference`` with the exit codes they pin. The cases
here that call it need what an example cannot hold: a title under
``tmp_path``, or a ``cli.CandidateIndex`` that fails."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromaladder import (
    Ladder,
    Method,
    QualityMetric,
    Rung,
    TitleDataset,
    default_spec,
    generate,
    parse_dataset,
    serialize_dataset,
    sparse_spec,
    spec_to_json,
)
import chromaladder.cli as cli
import chromaladder.ladder as ladder_module
from chromaladder.cli import main, to_json_text
from chromaladder.bdmetrics import BDResult, CurveAxis
from chromaladder.errors import DuplicateRecord
from chromaladder.measurements import CSV_HEADER
import reference
from helpers import (
    C420,
    C444,
    SMALL_TARGETS,
    cli_outcome,
    definitional_best,
    grid_dataset,
    lonely_title,
    record,
)
from test_reference import SMALL, Command, commands_equal_reference


@pytest.fixture()
def small_corpus(tmp_path):
    """Four titles, five targets: small enough for the enumeration oracle."""
    spec = replace(default_spec(titles=4), targets_kbps=SMALL_TARGETS)
    path = tmp_path / "corpus.csv"
    path.write_text(serialize_dataset(generate(spec)), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_valid_corpus_exits_zero(self, small_corpus, capsys):
        assert run("validate", "--input", small_corpus) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_duplicate_row_exits_one(self, tmp_path, capsys):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "m,2160,444,4500,4400,cvvdp,8.5,0.2\n"
            "m,2160,444,4500,4600,cvvdp,8.6,0.2\n"
        )
        path = tmp_path / "dup.csv"
        path.write_text(text, encoding="utf-8")
        assert run("validate", "--input", path) == 1
        assert "duplicate" in capsys.readouterr().out.lower()

    def test_warning_only_dataset_exits_zero(self, tmp_path, capsys):
        ds = TitleDataset.from_records([record(quality=10.4), record(target=900.0, quality=10.6)])
        path = tmp_path / "warn.csv"
        path.write_text(serialize_dataset([ds]), encoding="utf-8")
        assert run("validate", "--input", path) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "plausible" in out

    def test_warnings_print_a_title_with_a_line_break_on_one_line(self, tmp_path, capsys):
        ds = TitleDataset.from_records([record("two\nlines", quality=11.0, actual=900.0)])
        path = tmp_path / "warn.csv"
        path.write_text(serialize_dataset([ds]), encoding="utf-8")
        assert run("validate", "--input", path) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            'WARN "two\\nlines": quality 11.0 outside plausible [0.0, 10.0] for cvvdp '
            "(1080p/420 @ 600 kbps)",
            'WARN "two\\nlines": no encode within ±10% of 600 kbps; this rung will be absent',
        ]

    def test_missing_file_exits_one(self, tmp_path):
        assert run("validate", "--input", tmp_path / "nope.csv") == 1

    def test_tolerance_out_of_range_exits_one(self, small_corpus, capsys):
        assert run("validate", "--input", small_corpus, "--tolerance", 0.9) == 1
        assert "--tolerance must be in [0, 0.5]" in capsys.readouterr().err

    def test_title_split_over_files_counts_once(self, small_corpus, tmp_path, capsys):
        ds = parse_dataset(small_corpus.read_text(encoding="utf-8"))[0]
        half = len(ds.records) // 2
        # A CSV-quoted "\r" in a title is read as written, as a JSON string's is.
        for title, formats in ((ds.title_id, ("csv", "csv")), ("a\rb", ("csv", "json"))):
            records = [replace(r, title_id=title) for r in ds.records]
            paths = [tmp_path / f"a.{formats[0]}", tmp_path / f"b.{formats[1]}"]
            for path, fmt, part in zip(paths, formats, (records[:half], records[half:])):
                path.write_text(serialize_dataset([TitleDataset.from_records(part)], fmt),
                                encoding="utf-8")
            assert run("validate", "--input", paths[0], "--input", paths[1]) == 0
            assert (f"validated 2 file(s): 1 title dataset(s), {len(ds.records)} record(s), "
                    "0 error(s)") in capsys.readouterr().out

    def test_record_repeated_across_files_exits_one_as_compare_does(self, small_corpus, capsys):
        assert run("validate", "--input", small_corpus, "--input", small_corpus) == 1
        out = capsys.readouterr().out
        assert f"ERROR {small_corpus}: duplicate record: title " in out and "1 error(s)" in out
        assert run("compare", "--input", small_corpus, "--input", small_corpus) == 1
        assert capsys.readouterr().err.startswith(f"error: {small_corpus}: duplicate record: title ")

    DUPLICATE = "duplicate record: title 'm', metric cvvdp, height 2160, chroma 444, target 4500 kbps"

    @staticmethod
    def _files(tmp_path, *rows_per_file):
        paths = []
        for i, rows in enumerate(rows_per_file):
            paths.append(tmp_path / f"part{i}.csv")
            paths[-1].write_text(",".join(CSV_HEADER) + "\n" + "".join(rows), encoding="utf-8")
        return [flag for path in paths for flag in ("--input", path)], paths

    def test_repeat_across_files_names_each_file(self, tmp_path, capsys):
        # part1 also repeats a record of its own, after its copy of the first
        # repeat: the files are named by the record, not by a file's own parse.
        row, other = "m,2160,444,4500,4400,cvvdp,8.5,0.2\n", "m,1080,420,900,905,cvvdp,6,0.1\n"
        inputs, paths = self._files(tmp_path, [row], [other, row.replace("4400", "4600"), other],
                                    ["n,1080,420,900,905,cvvdp,6,0.1\n"])
        assert run("compare", *inputs) == 1
        assert capsys.readouterr().err == f"error: {paths[0]}, {paths[1]}: {self.DUPLICATE}\n"
        inputs, paths = self._files(tmp_path, [row, other], [row])
        assert run("validate", *inputs) == 1
        assert f"ERROR {paths[0]}, {paths[1]}: {self.DUPLICATE}\n" in capsys.readouterr().out

    def test_repeat_within_one_file_names_that_file(self, tmp_path, capsys):
        row = "m,2160,444,4500,4400,cvvdp,8.5,0.2\n"
        inputs, paths = self._files(tmp_path, ["n,1080,420,900,905,cvvdp,6,0.1\n"], [row, row])
        for command in ("validate", "optimize"):
            assert run(command, *inputs) == 1
        out, err = capsys.readouterr()
        assert f"ERROR {paths[1]}: {self.DUPLICATE}\n" in out
        assert err == f"error: {paths[1]}: {self.DUPLICATE}\n"

    @pytest.mark.parametrize("name, text", [
        ("header.csv", "title,height,chroma,target_kbps,actual_kbps,metric,quality,"
                       "decode_s_per_frame\n"),
        ("empty.json", "[]"),
    ])
    def test_input_without_a_record_exits_one_as_compare_does(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert run("validate", "--input", path) == 1
        assert capsys.readouterr().out == (
            "ERROR no datasets in input\n"
            "validated 1 file(s): 0 title dataset(s), 0 record(s), 1 error(s), 0 warning(s)\n")
        assert _captured(["compare", "--input", path]) == (1, "", "error: no datasets in input\n")

    def test_empty_file_next_to_a_title_passes(self, small_corpus, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert run("validate", "--input", path, "--input", small_corpus) == 0
        assert "4 title dataset(s)" in capsys.readouterr().out

    def test_unparsable_file_is_reported_once(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[{", encoding="utf-8")
        assert run("validate", "--input", path) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.startswith(f"ERROR {path}: ") for line in out[:-1]] == [True]
        assert "1 error(s)" in out[-1]

    def test_integer_too_large_for_a_float_exits_one(self, tmp_path, capsys):
        obj = {"title": "movie", "height": 1080, "chroma": 420, "target_kbps": 600,
               "actual_kbps": 10**400, "metric": "cvvdp", "quality": 6.5,
               "decode_s_per_frame": 0.02}
        path = tmp_path / "big.json"
        path.write_text(json.dumps([obj]), encoding="utf-8")
        reason = "row 1: actual_kbps is an integer too large for a float"
        assert run("validate", "--input", path) == 1
        assert capsys.readouterr().out.splitlines()[0] == f"ERROR {path}: {reason}"
        assert run("pmf", "--input", path) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("height", [10**400, 15 * 10**307],
                             ids=["past-float", "width-past-float"])
    def test_height_too_large_for_a_float_exits_one(self, tmp_path, capsys, height):
        # A whole grid, so that optimize and compare reach the ladders' widths.
        entries = json.loads(serialize_dataset(
            [grid_dataset(lambda h, c, b: h / 1000 + b / 1000, lambda h, c, b: h / 40000)],
            fmt="json"))
        for entry in entries:
            if entry["height"] == 2160:
                entry["height"] = height
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        row = 1 + [e["height"] for e in entries].index(height)
        reason = f"row {row}: height is an integer too large for a float"
        assert run("validate", "--input", path) == 1
        assert capsys.readouterr().out.splitlines()[0] == f"ERROR {path}: {reason}"
        for command in ("optimize", "compare"):
            assert _captured([command, "--input", path]) == (1, "", f"error: {path}: {reason}\n")

    @pytest.mark.parametrize("title, quality, decode, reason", [
        ("movie", "oops", "0.02", "row 2: quality 'oops' is not a number"),
        ("movie", "7", "-1", "row 2: decode_s_per_frame must be finite and > 0 (title 'movie')"),
        # The bytes 0xff 0xfe, which no UTF-8 text holds, as the first row's title.
        ("\udcff\udcfe", "7", "0.02",
         "'utf-8' codec can't decode byte 0xff in position 78: invalid start byte"),
    ], ids=["malformed", "non-positive", "not-utf-8"])
    @pytest.mark.parametrize("bad_first", [False, True], ids=["bad-last", "bad-first"])
    def test_row_error_names_its_file_as_validate_does(self, small_corpus, tmp_path, capsys, title,
                                                        quality, decode, reason, bad_first):
        # A file is read only when the parse reaches it, so the error is the
        # bad file's whichever place it has.
        bad = tmp_path / "bad.csv"
        bad.write_bytes((",".join(CSV_HEADER) + f"\n{title},1080,420,600,610,cvvdp,7,0.02\n"
                         f"{title},1080,420,900,910,cvvdp,{quality},{decode}\n"
                         ).encode("utf-8", "surrogateescape"))
        paths = [bad, small_corpus] if bad_first else [small_corpus, bad]
        flags = [f for path in paths for f in ("--input", path)]
        assert run("validate", *flags) == 1
        out = capsys.readouterr().out.splitlines()
        # One ERROR line, the first, and a summary that counts it.
        assert [line for line in out if line.startswith("ERROR")] == out[:1] == [f"ERROR {bad}: {reason}"]
        assert " 1 error(s), " in out[-1]
        for command in ("optimize", "compare", "sweep", "pmf"):
            assert _captured([command, *flags]) == (1, "", f"error: {bad}: {reason}\n")

    def test_window_warnings_on_merged_title(self, tmp_path, capsys):
        # The 600 kbps encode in a.csv misses the window; b.csv's hits it.
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        recs = [record(chroma=C420, actual=700.0), record(chroma=C444)]
        for path, rec in zip(paths, recs):
            path.write_text(serialize_dataset([TitleDataset.from_records([rec])]), encoding="utf-8")
        assert run("validate", "--input", paths[0]) == 0
        assert "this rung will be absent" in capsys.readouterr().out
        assert run("validate", "--input", paths[0], "--input", paths[1]) == 0
        assert "WARN" not in capsys.readouterr().out


class TestSynth:
    def test_emits_parseable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("synth", "--titles", 2, "--out", out) == 0
        datasets = parse_dataset(out.read_text(encoding="utf-8"))
        assert len(datasets) == 2 and len(datasets[0].records) == 60

    def test_spec_file_respected(self, tmp_path):
        spec = replace(default_spec(titles=1), targets_kbps=(500.0, 1000.0))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(spec), encoding="utf-8")
        out = tmp_path / "data.csv"
        assert run("synth", "--spec", spec_path, "--out", out) == 0
        [ds] = parse_dataset(out.read_text(encoding="utf-8"))
        assert ds.bitrate_targets == (500.0, 1000.0)

    def test_bad_spec_exits_one(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}", encoding="utf-8")
        assert run("synth", "--spec", spec_path, "--out", tmp_path / "x.csv") == 1

    def test_spec_that_is_not_utf8_names_its_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(b"\xff" + spec_to_json(default_spec()).encode("utf-8"))
        assert _captured(["synth", "--spec", spec_path, "--out", tmp_path / "x.csv"]) == (
            1, "", f"error: {spec_path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("make", [Path.mkdir, os.mkfifo])
    def test_out_that_is_not_a_regular_file_is_refused(self, tmp_path, make):
        out = tmp_path / "corpus"
        make(out)
        assert _captured(["synth", "--out", out]) == (
            1, "", f"error: {out}: not a regular file; to write to a pipe, use stdout\n")
        assert list(tmp_path.iterdir()) == [out]

    def test_out_through_a_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "corpus.csv", tmp_path / "link.csv"
        target.write_text("old", encoding="utf-8")
        link.symlink_to(target)
        assert run("synth", "--titles", 2, "--out", link) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == serialize_dataset(generate(default_spec(titles=2)))

    def test_sparse_preset(self, tmp_path):
        out = tmp_path / "sparse.csv"
        assert run("synth", "--preset", "sparse", "--titles", 2, "--out", out) == 0
        datasets = parse_dataset(out.read_text(encoding="utf-8"))
        assert len(datasets) == 2

    @staticmethod
    def tiny_spec(**changes):
        """One height, one chroma and one target; 1002 titles, so that
        synth1000 and synth1001 come between synth100 and synth101."""
        spec = default_spec(titles=1002)
        return replace(spec, **{
            "resolutions": (1080,), "chromas": (C420,), "targets_kbps": (600.0,),
            "quality": {(1080, C420): spec.quality[1080, C420]}, "time_base_s": {1080: 0.04},
            "time_chroma_factor": {C420: 1.0}, **changes})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_corpus_is_the_serialized_one(self, tmp_path, fmt):
        spec = self.tiny_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(spec), encoding="utf-8")
        want = serialize_dataset(generate(spec), fmt)
        argv = ["synth", "--spec", spec_path, "--format", fmt]
        assert _captured(argv) == (0, want, "")
        out = tmp_path / "new" / "corpus"
        got = cli_outcome([*map(str, argv), "--out", str(out)], out.parent)
        assert got == reference.Outcome(
            0, f"wrote 1002 title(s), 1002 record(s) to {out}\n", "", {"corpus": want})
        assert out.read_bytes() == want.encode("utf-8")
        # The file has the mode of any new file that open() makes.
        plain = tmp_path / "plain"
        plain.write_text("")
        assert out.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_title_that_fails_late_leaves_no_output(self, tmp_path, fmt):
        # Without noise or rate term, each title's decode time is
        # time_base_s[1080] times its base multiplier: only the title of the
        # largest multiplier overflows to inf.
        exact = dict(noise=0.0, time_rate_slope=0.0)
        mults = {ds.title_id: ds.records[0].decode_time
                 for ds in generate(self.tiny_spec(time_base_s={1080: 1.0}, **exact))}
        second, top = sorted(mults.values())[-2:]
        spec = self.tiny_spec(time_base_s={1080: sys.float_info.max / ((top + second) / 2)},
                              **exact)
        (late,) = [title for title, mult in mults.items() if mult == top]
        assert sorted(mults).index(late) > 0  # titles before it are written first
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(spec), encoding="utf-8")
        error = f"error: decode_s_per_frame must be finite and > 0 (title '{late}')\n"
        argv = ["synth", "--spec", spec_path, "--format", fmt]
        assert _captured(argv) == (1, "", error)
        out = tmp_path / "new" / "corpus"
        assert cli_outcome([*map(str, argv), "--out", str(out)], out.parent) == reference.Outcome(
            1, "", error, {})
        # A file already there is left as it was.
        out.write_text("kept", encoding="utf-8")
        assert cli_outcome([*map(str, argv), "--out", str(out)], out.parent) == reference.Outcome(
            1, "", error, {"corpus": "kept"})


class TestOptimize:
    def test_ladders_match_enumeration_oracle(self, small_corpus, tmp_path):
        out = tmp_path / "ladders"
        assert run("optimize", "--input", small_corpus, "--alpha", 0, "--out", out) == 0
        datasets = parse_dataset(small_corpus.read_text(encoding="utf-8"))
        for ds in datasets:
            payload = json.loads(
                (out / f"{ds.title_id}__cvvdp__arcs__alpha0.json").read_text(encoding="utf-8")
            )
            got = [
                (r["height"], r["chroma"]) if r["present"] else None
                for r in payload["rungs"]
            ]
            assert got == [
                None if rec is None else (rec.resolution.height, rec.chroma.value)
                for rec in definitional_best(ds, 0.0)
            ]

    @pytest.mark.parametrize("title", ["../../escaped", "<absolute>"])
    def test_title_cannot_lead_out_of_out_dir(self, tmp_path, title):
        if title == "<absolute>":
            title = str(tmp_path / "abs" / "escaped")
        commands_equal_reference(SMALL._replace(titles=(title,)),
                                 [Command(("optimize",), out=True, code=1)])
        assert not any(tmp_path.iterdir())


class TestPlan:
    """A plan without rows is an input error before any title is built, and
    a plan that is not UTF-8 names its file."""

    @pytest.mark.parametrize("command", ["optimize", "compare", "sweep", "pmf"])
    def test_plan_without_rows_exits_one_before_any_title_is_built(self, monkeypatch, command):
        def no_index(*args, **kwargs):
            raise AssertionError("a title was built")

        monkeypatch.setattr(cli, "CandidateIndex", no_index)
        methods = () if command == "sweep" else ("--method", "arcs", "--method", "fixed")
        commands_equal_reference(SMALL, [Command((command, *methods, "--alpha", "0", "--alpha", "0.04"),
                                                 plan="target_kbps,height\n", out=True, code=1)])

    def test_plan_that_is_not_utf8_names_its_file(self, small_corpus, tmp_path):
        plan = tmp_path / "plan.csv"
        plan.write_bytes(b"target_kbps,height\n\xff600,1080\n")
        assert _captured(["compare", "--input", small_corpus, "--method", "fixed", "--plan", plan]) == (
            1, "", f"error: {plan}: 'utf-8' codec can't decode byte 0xff in position 19: "
                   "invalid start byte\n")


class TestCompare:
    def test_method_vs_itself_all_zeros(self, small_corpus, tmp_path):
        out = tmp_path / "rep"
        code = run(
            "compare", "--input", small_corpus, "--method", "default",
            "--reference", "default", "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for row in report["aggregate"]["rows"]:
            assert row["mean_bdr_percent"] == 0.0
            assert row["mean_bddt_percent"] == 0.0

    def test_arcs_vs_default_saves_decode_time(self, small_corpus, tmp_path):
        out = tmp_path / "rep"
        code = run(
            "compare", "--input", small_corpus, "--method", "arcs",
            "--alpha", 0, "--alpha", 0.08, "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = report["aggregate"]["rows"]
        assert len(rows) == 2
        assert all(r["mean_bddt_percent"] < 0 for r in rows)
        assert all(r["titles_used"] == 4 and r["titles_excluded"] == 0 for r in rows)


class TestSweep:
    def test_bddt_non_increasing_between_endpoints(self, small_corpus, tmp_path):
        out = tmp_path / "sw"
        code = run(
            "sweep", "--input", small_corpus, "--alpha", 0, "--alpha", 0.08, "--out", out,
        )
        assert code == 0
        frontier = json.loads((out / "frontier.json").read_text(encoding="utf-8"))["frontier"]
        arcs = {r["alpha"]: r for r in frontier if r["method"] == "arcs"}
        assert arcs[0.08]["mean_bddt_percent"] <= arcs[0.0]["mean_bddt_percent"]
        methods = {r["method"] for r in frontier}
        assert methods == {"arcs", "dynres"}

    def test_alpha_zero_row_matches_compare(self, small_corpus, tmp_path):
        sweep_out = tmp_path / "sw"
        cmp_out = tmp_path / "cmp"
        run("sweep", "--input", small_corpus, "--alpha", 0, "--alpha", 0.08, "--out", sweep_out)
        run("compare", "--input", small_corpus, "--method", "arcs", "--alpha", 0, "--out", cmp_out)
        frontier = json.loads((sweep_out / "frontier.json").read_text(encoding="utf-8"))["frontier"]
        sweep_row = next(r for r in frontier if r["method"] == "arcs" and r["alpha"] == 0.0)
        report = json.loads((cmp_out / "report.json").read_text(encoding="utf-8"))
        cmp_row = next(r for r in report["aggregate"]["rows"] if r["alpha"] == 0.0)
        assert sweep_row["mean_bdr_percent"] == cmp_row["mean_bdr_percent"]
        assert sweep_row["mean_bddt_percent"] == cmp_row["mean_bddt_percent"]


class TestPmf:
    def test_only_benchmark_methods_build_ladders(self, small_corpus, monkeypatch):
        # arcs and dynres are counted from the solver's choices; default and
        # fixed count the one ladder their builder returns per title.
        made, defaults, counted = [], [], []
        post_init, real_default, real_count = Ladder.__post_init__, cli.build_default, cli.count_chroma

        def watched_post_init(ladder):
            made.append(ladder.method)
            post_init(ladder)

        def watched_default(index):
            defaults.append(real_default(index))
            return defaults[-1]

        def watched_count(ladder):
            counted.append(ladder)
            return real_count(ladder)

        monkeypatch.setattr(Ladder, "__post_init__", watched_post_init)
        monkeypatch.setattr(cli, "build_default", watched_default)
        monkeypatch.setattr(cli, "count_chroma", watched_count)
        assert _captured(["pmf", "--input", small_corpus, "--method", "arcs", "--method",
                          "dynres", "--alpha", 0, "--alpha", 0.04])[0] == 0
        assert (made, defaults, counted) == ([], [], [])
        assert _captured(["pmf", "--input", small_corpus, "--method", "default"])[0] == 0
        assert [l.title_id for l in defaults] == [f"synth{i:03d}" for i in range(4)]
        assert [id(l) for l in counted] == [id(l) for l in defaults]
        assert made and {l.method for l in counted} == {Method.DEFAULT}

    def test_decreasing_choice_excludes_the_title(self, small_corpus, monkeypatch):
        # A solver that breaks the chain gets the title excluded with the
        # message validate_rungs gives a ladder built from the same choices,
        # as the reference builds it.
        real = ladder_module._relax

        def decreasing(graph, pools, js):
            choices = real(graph, pools, js)
            if pools[0][0][0].title_id == "synth001":
                # The first rung's largest candidate, the last rung's smallest.
                choices[0], choices[-1] = len(pools[0]) - 1, 0
            return choices

        monkeypatch.setattr(ladder_module, "_relax", decreasing)
        argv = [str(a) for a in ("pmf", "--input", small_corpus, "--method", "arcs", "--method",
                                 "dynres", "--alpha", 0, "--alpha", 0.08)]
        outcome = cli_outcome(argv)
        assert outcome == reference.run(argv)
        assert outcome.code == 0
        excluded = json.loads(outcome.stdout)["excluded"]
        assert [(x["title"], x["method"], x["alpha"]) for x in excluded] == [
            ("synth001", method, alpha) for method in ("arcs", "dynres") for alpha in (0.0, 0.08)]
        assert {x["reason"] for x in excluded} == {"resolution decreases 2160 -> 1080 with rising bitrate"}


class TestGraphsPerRun:
    """Each run compiles its own DP graphs, so a graph's solve count, and with
    it whether a solve takes the graph's kernel, depends on that run alone."""

    def test_second_run_in_a_process_takes_the_first_runs_path(self, monkeypatch):
        corpus = Path(__file__).resolve().parents[1] / "results" / "corpus.csv"
        alphas = [i / 100 for i in range(17)]
        # One grid: each graph is solved once per title and alpha, fewer times
        # than a kernel needs in one run, but more in two.
        solves = len(parse_dataset(corpus.read_text(encoding="utf-8"))) * len(alphas)
        assert solves < ladder_module.KERNEL_SOLVES <= 2 * solves
        kernels = []
        real = ladder_module._kernel
        monkeypatch.setattr(ladder_module, "_kernel",
                            lambda graph: kernels.append(graph.solves) or real(graph))
        argv = ["pmf", "--input", corpus, "--method", "arcs", "--method", "dynres",
                *(f for a in alphas for f in ("--alpha", a))]
        first = _captured(argv)
        assert first[0] == 0
        assert _captured(argv) == first
        assert kernels == []

    def test_sweep_keeps_at_most_graph_cache_size_graphs_alive(self, tmp_path, monkeypatch):
        corpus = tmp_path / "sparse.csv"
        corpus.write_text(serialize_dataset(generate(sparse_spec(seed=1, titles=20))),
                          encoding="utf-8")
        compiled, alive = [], []
        real = ladder_module._compile

        def compile_(shape):
            alive.append(sum(ref() is not None for ref in compiled))
            graph = real(shape)
            compiled.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(ladder_module, "_compile", compile_)
        assert run("sweep", "--input", corpus, "--out", tmp_path / "out") == 0
        # Sparse titles have graphs of their own.
        assert len(compiled) > ladder_module.GRAPH_CACHE_SIZE
        assert max(alive) == ladder_module.GRAPH_CACHE_SIZE
        # The run's graphs go with it.
        assert [ref() for ref in compiled] == [None] * len(compiled)


class TestNegativeZero:
    """``-0`` reads as ``0`` wherever a weight or tolerance is echoed."""

    def test_validate_minus_zero_tolerance_prints_as_zero(self, small_corpus, capsys):
        printed = []
        for tolerance in ("-0", "0"):
            assert run("validate", "--input", small_corpus, "--tolerance", tolerance) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "±0% of 600 kbps" in printed[0]


class TestExitCodes:
    def test_unknown_flag_is_input_error(self, small_corpus):
        assert run("compare", "--input", small_corpus, "--nope") == 1

    @pytest.mark.parametrize("command, fmt", [("pmf", "markdown"), ("optimize", "csv")])
    def test_format_the_command_cannot_write_is_input_error(self, small_corpus, tmp_path, command, fmt):
        out = tmp_path / "o"
        assert run(command, "--input", small_corpus, "--format", fmt, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("validate", "--alpha", 0),
        ("validate", "--mode", "greedy"),
        ("validate", "--plan", "plan.csv"),
        ("validate", "--chroma-fixed", "420"),
        ("validate", "--out", "o"),
        ("validate", "--format", "json"),
        ("validate", "--cross-target"),
        ("pmf", "--reference", "arcs"),
    ], ids=lambda argv: " ".join(map(str, argv[:2])))
    def test_flag_the_command_does_not_read_is_input_error(self, small_corpus, capsys, argv):
        assert run(*argv, "--input", small_corpus) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def lonely_corpus(tmp_path_factory):
    """Two synthetic titles plus one whose native-resolution reference
    degenerates, so some evaluations are excluded."""
    datasets = generate(replace(default_spec(titles=2), targets_kbps=SMALL_TARGETS))
    corpus = tmp_path_factory.mktemp("lonely") / "corpus.csv"
    corpus.write_text(serialize_dataset(datasets + [lonely_title(datasets[0])]), encoding="utf-8")
    return corpus


def record_calls(monkeypatch, name):
    """Wrap ``chromaladder.cli.<name>`` so each call's arguments are recorded."""
    calls, fn = [], getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


class TestCurvesPerTitle:
    """Each ladder's two BD curves are built once per title and shared by every
    (method, alpha) group that compares it."""

    @pytest.mark.parametrize("command", [
        ("compare", "--method", "arcs", "--method", "dynres", "--method", "default"),
        ("sweep",),
    ], ids=lambda argv: argv[0])
    def test_two_curves_per_distinct_ladder(self, small_corpus, monkeypatch, command):
        built = record_calls(monkeypatch, "build_curve")
        assert run(*command, "--input", small_corpus, "--alpha", 0, "--alpha", 0.08) == 0
        keys = Counter((ladder.title_id, ladder.method, ladder.alpha, axis) for ladder, axis in built)
        assert set(keys.values()) == {1}
        # default, plus arcs and dynres at two alphas: five distinct ladders.
        titles = [ds.title_id for ds in parse_dataset(small_corpus.read_text(encoding="utf-8"))]
        assert Counter(ladder.title_id for ladder, _ in built) == {t: 2 * 5 for t in titles}

    def test_sweep_builds_no_ladder_payloads(self, small_corpus, monkeypatch):
        # Neither sweep nor pmf renders ladder text: no ladder, no rung text.
        payloads = record_calls(monkeypatch, "_ladder_json")
        heads = record_calls(monkeypatch, "_rung_fields")
        assert run("sweep", "--input", small_corpus, "--alpha", 0, "--alpha", 0.08) == 0
        assert run("pmf", "--input", small_corpus, "--alpha", 0, "--alpha", 0.08) == 0
        assert (payloads, heads) == ([], [])
        assert run("compare", "--input", small_corpus, "--method", "arcs", "--alpha", 0) == 0
        assert len(payloads) == 4 * 2
        assert heads


def _chosen(ladder) -> tuple:
    return (ladder.title_id,
            tuple(rung.choice.key for rung in ladder.rungs if rung.choice is not None))


BD_AXES = tuple(CurveAxis)


class TestBdMemo:
    """Within a title, each distinct set of chosen records is fitted once per
    axis and each distinct pair of curves is compared once."""

    @pytest.mark.parametrize("command", [
        ("compare", "--method", "arcs", "--method", "dynres", "--method", "default"),
        ("sweep",),
    ], ids=lambda argv: argv[0])
    def test_one_fit_per_record_set_and_one_delta_per_pair(self, small_corpus, monkeypatch,
                                                            command):
        groups, ladders, fits, deltas, memos = [], set(), [], [], []
        real_pair, real_fit, real_delta = cli._bd_pair, cli.build_curve, cli.bd_delta
        # Curve ids name curves only while they live, so ``fits`` keeps them.
        fitted = {}

        def bd_pair(memo, ref, test):
            memos.append((memo, ref.title_id))
            groups.append((_chosen(ref), _chosen(test)))
            ladders.update((l.title_id, l.method, l.alpha) for l in (ref, test))
            return real_pair(memo, ref, test)

        def fit(ladder, axis):
            curve = real_fit(ladder, axis)
            fits.append((_chosen(ladder), axis, curve))
            fitted[id(curve)] = (_chosen(ladder), axis)
            return curve

        def delta(ref, test):
            deltas.append((fitted[id(ref)], fitted[id(test)]))
            return real_delta(ref, test)

        monkeypatch.setattr(cli, "_bd_pair", bd_pair)
        monkeypatch.setattr(cli, "build_curve", fit)
        monkeypatch.setattr(cli, "bd_delta", delta)
        # 0 and 0.001 pick the same records for most titles.
        assert run(*command, "--input", small_corpus, "--alpha", 0, "--alpha", 0.001,
                   "--alpha", 0.08) == 0

        # Ladder and record ids are unique only within a title: one memo each.
        titles_of = {}
        for memo, title in memos:
            titles_of.setdefault(id(memo), set()).add(title)
        assert [len(titles) for titles in titles_of.values()] == [1] * len(titles_of)
        fit_keys = Counter((chosen, axis) for chosen, axis, _ in fits)
        assert set(fit_keys.values()) == {1}
        assert set(fit_keys) == {(chosen, axis) for pair in groups for chosen in pair
                                 for axis in BD_AXES}
        delta_keys = Counter(deltas)
        assert set(delta_keys.values()) == {1}
        assert set(delta_keys) == {((ref, axis), (test, axis)) for ref, test in groups
                                   for axis in BD_AXES}
        # Ladders share records here: fewer fits than ladders, fewer deltas than groups.
        assert len(fits) < 2 * len(ladders)
        assert len(deltas) < 2 * len(groups)


def _captured(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one run."""
    outcome = cli_outcome([str(a) for a in argv])
    return outcome.code, outcome.stdout, outcome.stderr


LAYOUT_COMMANDS = (
    ("optimize", "--method", "arcs", "--method", "dynres", "--method", "default"),
    ("compare", "--method", "arcs", "--method", "dynres"),
    ("sweep",),
    ("pmf", "--method", "arcs", "--method", "dynres"),
)


def _stdout_without_inputs(argv) -> str:
    """Printed output of ``argv``, with ``config.inputs`` (the file names) blanked."""
    code, out, _ = _captured(argv)
    assert code == 0
    payload = json.loads(out)
    if isinstance(payload, dict):
        payload["config"]["inputs"] = None
    return to_json_text(payload)


def _write_measurements(path: Path, header, rows, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return
    types = {"title": str, "metric": str, "height": int, "chroma": int}
    objs = [{name: types.get(name, float)(value) for name, value in zip(header, row)}
            for row in rows]
    path.write_text(json.dumps(objs), encoding="utf-8")


class TestInputLayout:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), cross_target=st.booleans())
    def test_stdout_ignores_record_order_columns_and_files(self, lonely_corpus, data, cross_target):
        corpus = lonely_corpus
        header, *rows = list(csv.reader(io.StringIO(corpus.read_text(encoding="utf-8"))))
        order = data.draw(st.permutations(range(len(rows))))
        n_files = data.draw(st.integers(1, 3))
        # Each record goes to any file, or each title to one file.
        if data.draw(st.booleans()):
            owner = data.draw(st.lists(st.integers(0, n_files - 1), min_size=len(rows),
                                       max_size=len(rows)))
        else:
            file_of = data.draw(st.fixed_dictionaries(
                {row[0]: st.integers(0, n_files - 1) for row in rows}))
            owner = [file_of[row[0]] for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            inputs = []
            for f in range(n_files):
                fmt = data.draw(st.sampled_from(["csv", "json"]))
                columns = data.draw(st.permutations(range(len(header))))
                path = Path(tmp) / f"part{f}.{fmt}"
                _write_measurements(path, [header[c] for c in columns],
                                    [[rows[i][c] for c in columns] for i in order if owner[i] == f],
                                    fmt)
                inputs += ["--input", path]
            flags = ["--alpha", 0, "--alpha", 0.04] + (["--cross-target"] if cross_target else [])
            for command in LAYOUT_COMMANDS:
                assert _stdout_without_inputs([*command, *inputs, *flags]) == (
                    _stdout_without_inputs([*command, "--input", corpus, *flags]))


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reports_do_not_depend_on_how_a_titles_metrics_are_split(self, data):
        seed, titles = data.draw(st.integers(0, 99)), data.draw(st.integers(1, 3))
        jitter = data.draw(st.sampled_from([0.05, 0.15]))
        corpora = {metric: generate(replace(default_spec(seed, titles, metric),
                                            targets_kbps=SMALL_TARGETS, jitter=jitter))
                   for metric in QualityMetric}
        # Each title is measured in one metric or in both.
        measured = data.draw(st.lists(st.sampled_from([(QualityMetric.CVVDP_JOD,),
                                                       (QualityMetric.YUVPSNR_DB,),
                                                       tuple(QualityMetric)]),
                                      min_size=titles, max_size=titles))
        records = [r for i, metrics in enumerate(measured) for m in metrics
                   for r in corpora[m][i].records]
        if data.draw(st.sampled_from([False, False, False, True])):
            records.append(data.draw(st.sampled_from(records)))
        rows = [[r.title_id, r.resolution.height, r.chroma.value, repr(r.target_bitrate),
                 repr(r.actual_bitrate), r.quality.metric.value, repr(r.quality.value),
                 repr(r.decode_time)] for r in records]
        order = data.draw(st.permutations(range(len(rows))))
        n_files = data.draw(st.integers(1, 3))
        owner = data.draw(st.lists(st.integers(0, n_files - 1), min_size=len(rows),
                                   max_size=len(rows)))
        with tempfile.TemporaryDirectory() as tmp:
            whole = Path(tmp) / "whole.csv"
            _write_measurements(whole, CSV_HEADER, rows, "csv")
            paths = []
            for f in range(n_files):
                fmt = data.draw(st.sampled_from(["csv", "json"]))
                paths.append(Path(tmp) / f"part{f}.{fmt}")
                _write_measurements(paths[-1], CSV_HEADER,
                                    [rows[i] for i in order if owner[i] == f], fmt)
            texts = [path.read_text(encoding="utf-8") for path in paths]
            try:
                want = parse_dataset(whole.read_text(encoding="utf-8"))
            except DuplicateRecord as exc:
                parsed = False
                with pytest.raises(DuplicateRecord, match=re.escape(str(exc))):
                    parse_dataset(texts)
            else:
                parsed = True
                assert parse_dataset(texts) == want
            inputs = [flag for path in paths for flag in ("--input", path)]
            assert (_captured(["validate", *inputs])[0] == 0) is parsed
            flags = ["--alpha", 0, "--alpha", 0.04]
            for command in LAYOUT_COMMANDS:
                got = _without_inputs(_captured([*command, *inputs, *flags]))
                assert (got[0] == 1) is not parsed
                assert got == _without_inputs(_captured([*command, "--input", whole, *flags]))


def _without_inputs(outcome: tuple[int, str, str]) -> tuple[int, str, str]:
    """``_captured``'s outcome with the ``config.inputs`` echo and the file
    names of a duplicate-record error blanked."""
    code, out, err = outcome
    return (code, re.sub(r'"inputs": \[[^\]]*\]', '"inputs": null', out),
            re.sub(r"^error: .*?: duplicate record: ", "error: duplicate record: ", err))


_json_scalars = (
    st.text()
    | st.sampled_from(['"', "\\", "\x00", "\x1f", " ", "é", "中文", "😀", 'a "b" \\ c\n\t'])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e-320, 5e-324, 1e300, -1e300, 1e16, 0.1])
    | st.integers()
    | st.sampled_from([2**64, -(2**100), True, False, None, 1, 0])
)
_json_keys = st.text() | st.sampled_from(["é\"\\", "\x00"])
_json_payloads = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_json_keys, children, max_size=5)),
    max_leaves=40,
)


class TestJsonEmitter:
    """``to_json_text`` writes what ``json.dumps(indent=2)`` writes for plain
    values, and fails as it fails."""

    @settings(max_examples=400, deadline=None)
    @given(_json_payloads)
    @example({})
    @example([])
    @example(())
    @example({"a": [], "b": {}, "c": [[], {}], "d": ()})
    @example([True, 1, False, 0, None, 1.0, 0.0, -0.0])
    @example({"t": "clip \"A\", 4k — é", "v": [1e-320, 1e300, 2**70]})
    @example("top-level string")
    @example(-0.0)
    @example(None)
    def test_equals_json_dumps(self, payload):
        assert to_json_text(payload) == reference.json_text(payload)

    def test_repeated_container_is_not_circular(self):
        shared = {"q": [1.5, 2.5]}
        payload = [shared, shared, {"again": shared}]
        assert to_json_text(payload) == reference.json_text(payload)

    @pytest.mark.parametrize("make", [
        lambda: math.nan,
        lambda: [1.0, math.inf],
        lambda: {"a": {"b": -math.inf}},
        lambda: {1, 2},
        lambda: {"ok": 1, "bad": {1}},
        lambda: [1.0, object()],
        lambda: [1.0, math.inf, {1}],
    ], ids=["nan", "inf", "neg-inf", "set", "nested-set", "object", "first-error-wins"])
    def test_fails_as_json_dumps_fails(self, make):
        with pytest.raises((TypeError, ValueError)) as want:
            reference.json_text(make())
        with pytest.raises(want.type) as got:
            to_json_text(make())
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value, name", [
        (QualityMetric.CVVDP_JOD, "QualityMetric"),
        (np.float64(0.25), "float64"),
        ({1.0}, "set"),
    ], ids=["enum", "np-float64", "set"])
    def test_only_plain_types_are_encoded(self, value, name):
        # Exact types only: a subclass of a plain type is not encoded as its
        # base, as json would encode an IntEnum or a numpy float.
        with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
            to_json_text({"rows": [1.0, value]})

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_keys_must_be_strings(self, key):
        with pytest.raises(TypeError):
            to_json_text({"ok": [1], "nested": {key: 0}})


def _nan_j_primes(build):
    """``build`` with every rung's ``j_prime`` made NaN."""
    def nan_ladder(*args):
        ladder = build(*args)
        return replace(ladder, rungs=tuple(replace(r, j_prime=math.nan) for r in ladder.rungs))

    return nan_ladder


class TestJsonErrorPath:
    """A report value json cannot encode is an input error, reported before any
    file is written."""

    @pytest.fixture()
    def nan_bd(self, monkeypatch):
        real = cli.bd_delta
        monkeypatch.setattr(cli, "bd_delta",
                            lambda ref, test: replace(real(ref, test), value_percent=math.nan))

    @pytest.mark.parametrize("command", [("compare", "--method", "arcs"), ("sweep",)],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("to_dir", [None, (), ("--format", "csv"), ("--format", "markdown")],
                             ids=["stdout", "out", "csv", "markdown"])
    def test_non_finite_value_exits_one(self, small_corpus, tmp_path, capsys, nan_bd, command, to_dir):
        # Every format fails as JSON does: no format writes "nan".
        out = tmp_path / "rep"
        argv = [*command, "--input", small_corpus, "--alpha", 0, "--alpha", 0.08,
                *([] if to_dir is None else ["--out", out, *to_dir])]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [("compare", "--method", "arcs"), ("optimize",)],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("to_dir", [False, True], ids=["stdout", "out"])
    def test_non_finite_j_prime_exits_one(self, small_corpus, tmp_path, capsys, monkeypatch,
                                          command, to_dir):
        # A rung's j_prime is spliced into its cached text, not encoded by
        # _json, so it is checked on its own.
        monkeypatch.setattr(cli, "optimize_arcs", _nan_j_primes(cli.optimize_arcs))
        out = tmp_path / "rep"
        argv = [*command, "--input", small_corpus, "--alpha", 0, "--alpha", 0.08,
                *(["--out", out] if to_dir else [])]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"
        assert not out.exists()

    def test_optimize_writes_no_file_when_a_later_ladder_fails(self, small_corpus, tmp_path,
                                                                capsys, monkeypatch):
        # Only dynres, the second method, has NaN j_primes: the arcs ladder
        # file that comes first must not be written either.
        monkeypatch.setattr(cli, "build_dynres", _nan_j_primes(cli.build_dynres))
        out = tmp_path / "ladders"
        assert run("optimize", "--input", small_corpus, "--method", "arcs", "--method", "dynres",
                   "--alpha", 0, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"
        assert not out.exists()


def _assert_matches_reference(flags, out: Path) -> None:
    """compare (JSON and CSV, stdout and --out) and optimize (stdout and
    ladder files) print and write what ``reference.run`` gives."""
    for command, to in (("compare", ["--format", "json", "--format", "csv", "--out", out / "report"]),
                        ("compare", []), ("optimize", ["--out", out / "ladders"]), ("optimize", [])):
        argv = [str(a) for a in (command, *flags, *to)]
        assert cli_outcome(argv, to[-1] if to else None) == reference.run(argv)


class TestRungText:
    """The report and ladder files, rendered from one rung text per distinct
    (record, target) of a title, equal what ``reference.run`` renders from a
    dict payload per rung with ``json.dumps`` and ``csv.writer``; the drawn
    corpora and command lines are ``test_reference``'s."""

    def test_targets_that_print_differently_do_not_share_text(self):
        # 1000 and 1000.0 are equal keys in a dict but print differently.
        rec = record("t", 1080, C444, 1000.0)
        ladders = (Ladder("t", Method.DEFAULT, (Rung(1000, rec), Rung(2000))),
                   Ladder("t", Method.ARCS, (Rung(1000.0, rec, 0.5), Rung(2000.0)), 0.0))
        cfg, metric = cli.RunConfig(inputs=()), QualityMetric.CVVDP_JOD
        rungs = cli._RungText()
        for ladder in ladders:
            assert cli._ladder_json(ladder, metric, cfg, rungs, "\n") + "\n" == reference.json_text(
                reference.ladder_payload(ladder, metric.value, cfg.mode.value, cfg.tolerance))
        assert [rungs.csv(ladder, "") for ladder in ladders] == [
            "1000,1000.0,7.0,0.05,444,1080\n", "1000.0,1000.0,7.0,0.05,444,1080\n"]

    def test_one_rung_text_per_record_and_target_per_title(self, small_corpus, monkeypatch):
        fields, calls, alive = [], [], []
        memos: dict[str, list] = {}
        real_json, real_csv, real_fields = cli._RungText.json, cli._RungText.csv, cli._rung_fields

        def watch(memo, ladder):
            # Ids are unique only within a title: every earlier title's memo is gone.
            title = ladder.title_id
            alive.append(sum(ref() is not None for other, refs in memos.items()
                             if other != title for ref in refs))
            memos.setdefault(title, []).append(weakref.ref(memo))
            calls.append(ladder)

        def json_text(memo, ladder, newline):
            watch(memo, ladder)
            return real_json(memo, ladder, newline)

        def csv_rows(memo, ladder, prefix):
            watch(memo, ladder)
            return real_csv(memo, ladder, prefix)

        def rung_fields(rung):
            fields.append((calls[-1].title_id, rung.target_bitrate,
                           None if rung.choice is None else rung.choice.key))
            return real_fields(rung)

        monkeypatch.setattr(cli._RungText, "json", json_text)
        monkeypatch.setattr(cli._RungText, "csv", csv_rows)
        monkeypatch.setattr(cli, "_rung_fields", rung_fields)
        out = Path(tempfile.mkdtemp(dir=small_corpus.parent))
        assert run("compare", "--input", small_corpus, "--method", "arcs", "--method", "dynres",
                   "--alpha", 0, "--alpha", 0.001, "--alpha", 0.08, "--format", "json",
                   "--format", "csv", "--out", out) == 0

        assert set(alive) == {0}
        ladders = {(l.title_id, l.method, l.alpha): l for l in calls}
        # Each ladder is rendered once as JSON and once as curve rows.
        assert len(calls) == 2 * len(ladders)
        # One text per distinct (record, target) of a title, shared by the
        # rung's JSON and its curve row.
        distinct = {(title, rung.target_bitrate, None if rung.choice is None else rung.choice.key)
                    for (title, _, _), ladder in ladders.items() for rung in ladder.rungs}
        assert Counter(fields) == dict.fromkeys(distinct, 1)
        # Ladders share records here: fewer texts than rungs.
        assert len(fields) < sum(len(l.rungs) for l in ladders.values())

    def test_awkward_number_texts_equal_frozen_renderer(self, tmp_path, monkeypatch):
        # Texts that json and csv write in their own ways: huge, tiny,
        # subnormal and largest floats, negative zero, an int target beside
        # a float one and a None j_prime beside a float, in one ladder and
        # one BD row of compare's title entry, optimize's ladder file and
        # both CSV files.
        title = "awkward"
        low = record(title, 1080, C444, 1000.0, actual=1e16, quality=-0.0, decode=5e-324)
        high = record(title, 2160, C444, 2000.0, actual=1.7976931348623157e+308,
                      quality=1e-07, decode=1e-07)
        ladders = {
            Method.DEFAULT: Ladder(title, Method.DEFAULT, (Rung(1000, low), Rung(2000.0, high))),
            Method.ARCS: Ladder(title, Method.ARCS, (Rung(1000.0, low, -0.0), Rung(2000.0, high),
                                                     Rung(4000.0)), 1e-07),
        }
        values = {CurveAxis.QUALITY_VS_LOG_RATE: 1e16, CurveAxis.QUALITY_VS_LOG_TIME: -0.0}
        # The CLI and the reference both call these by their module's name.
        for module in (cli, reference):
            monkeypatch.setattr(module, "optimize_arcs", lambda *_: ladders[Method.ARCS])
            monkeypatch.setattr(module, "build_default", lambda *_: ladders[Method.DEFAULT])
            monkeypatch.setattr(module, "bd_delta", lambda ref, test: BDResult(
                values[ref.axis_kind], (5e-324, 1.7976931348623157e+308), ref.metric, ref.axis_kind))
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(serialize_dataset([TitleDataset.from_records(
            [record(title, 1080, C444, t) for t in (1000.0, 2000.0, 4000.0)])]), encoding="utf-8")
        flags = ["--input", corpus, "--alpha", 1e-07, "--method", "arcs", "--method", "default"]
        _assert_matches_reference(flags, tmp_path)
        written = {path.name: path.read_text(encoding="utf-8")
                   for path in (tmp_path / "report").iterdir()}
        for text in (written["report.json"], written["report_curves.csv"]):
            for number in ("1e+16", "-0.0", "5e-324", "1.7976931348623157e+308", "1e-07"):
                assert number in text
        assert '"target_kbps": 1000,' in written["report.json"]
        assert '"j_prime": null' in written["report.json"]
        assert written["report_bd.csv"].splitlines()[1:] == [
            "awkward,cvvdp,arcs,1e-07,1e+16,-0.0,5e-324,1.7976931348623157e+308",
            "awkward,cvvdp,default,,1e+16,-0.0,5e-324,1.7976931348623157e+308",
        ]

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_report_without_json_renders_no_json(self, small_corpus, tmp_path, monkeypatch, fmt):
        texts = record_calls(monkeypatch, "to_json_text")
        heads = record_calls(monkeypatch, "_ladder_json")
        assert run("compare", "--input", small_corpus, "--method", "arcs", "--alpha", 0,
                   "--format", fmt, "--out", tmp_path / fmt) == 0
        assert (texts, heads) == ([], [])
        assert run("compare", "--input", small_corpus, "--method", "arcs", "--alpha", 0,
                   "--out", tmp_path / "json") == 0
        assert len(texts) == 1 and heads

    def test_no_ladder_is_alive_when_the_report_is_written(self, tmp_path, monkeypatch):
        # Each title's text is made while the title is evaluated; then its
        # ladders go, before report.json is rendered.
        ladders, alive = [], []
        for name in ("optimize_arcs", "build_default"):
            def kept(*args, build=getattr(cli, name)):
                ladder = build(*args)
                ladders.append(weakref.ref(ladder))
                return ladder

            monkeypatch.setattr(cli, name, kept)
        real = cli.to_json_text

        def to_json_text(payload):
            alive.append(sum(ref() is not None for ref in ladders))
            return real(payload)

        monkeypatch.setattr(cli, "to_json_text", to_json_text)
        corpus = Path(__file__).resolve().parents[1] / "results" / "corpus.csv"
        assert run("compare", "--input", corpus, "--alpha", 0, "--alpha", 0.04,
                   "--out", tmp_path) == 0
        assert (len(ladders), alive) == (45, [0])


def test_tracer_wraps_every_cli_binding_but_chroma_pmf():
    """The benchmark's tracer replaces names bound in ``chromaladder.cli``; a
    name that a refactor unbinds is reported unwrapped. ``chroma_pmf`` is the
    one known gap: pmf counts with ``count_chroma``/``chroma_shares``."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import Tracer\n"
        "import chromaladder.cli as cli\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps([cli.__file__, tracer.unwrapped]))\n"
    )
    src = root / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, str(root / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cli_file, unwrapped = json.loads(proc.stdout)
    assert Path(cli_file).resolve().parent.parent == src
    assert unwrapped == ["chromaladder.cli.chroma_pmf"]


def test_ladder_commands_do_not_import_numpy(small_corpus, tmp_path):
    """No command needs numpy: importing the CLI, running a comparison and
    synthesizing a corpus must not load it, nor ``fractions`` and the
    ``decimal`` and ``numbers`` modules it imports."""
    script = (
        "import json, sys\n"
        "import chromaladder.cli as cli\n"
        "unused = ('numpy', 'fractions', 'decimal', 'numbers')\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "if loaded: sys.exit(f'import chromaladder.cli loaded {loaded}')\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if cli.main(argv) != 0: sys.exit(f'{argv[0]} failed')\n"
        "    loaded = [m for m in unused if m in sys.modules]\n"
        "    if loaded: sys.exit(f'{argv[0]} loaded {loaded}')\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    commands = [["compare", "--input", str(small_corpus), "--method", "arcs", "--alpha", "0",
                 "--out", str(tmp_path / "rep")],
                ["synth", "--titles", "2", "--out", str(tmp_path / "corpus.csv")]]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
