"""``cli.main`` against ``reference.run``, a slow reference of the ladder
commands built from the public API: on drawn corpora and command lines of
``optimize``, ``compare``, ``sweep`` and ``pmf``, both give the same exit
code, stdout, stderr and written bytes, and every (title, metric, method,
alpha) is reported once. ``commands_equal_reference`` is that check. The
named cases of these commands are pinned ``@example``s here, each with a
comment that names it and the exit code it pins (``Command.code``); a new
output case is one more, not hand-written assertions."""

import json
import random
import re
import tempfile
from collections import Counter
from dataclasses import replace
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from chromaladder import QualityMetric, TitleDataset, default_spec, generate, parse_dataset
from chromaladder.measurements import CSV_HEADER
from helpers import (C420, C444, CLOSE_TARGETS, SMALL_TARGETS, cli_outcome, grid_dataset,
                     lonely_title, record, replace_title, shared_failure_titles,
                     shared_record_title)

# Titles that CSV must quote and JSON must escape.
AWKWARD_TITLES = ['clip "A", 4k — é', "line\nbreak", "cr\rreturn,comma", "中文 😀", "back\\slash'"]
# Titles that some evaluations exclude: one encode serving two rungs with
# --cross-target; curves with one point or apart from the reference's; no
# 4:4:4 encode; a native-resolution (default) ladder with one point; every
# encode outside its target's window; rates so far apart that a BD value
# overflows.
EDGE_TITLES = {
    "shared": lambda: [shared_record_title()],
    "failing": shared_failure_titles,
    "no444": lambda: [grid_dataset(lambda h, c, b: h / 1000 + b / 1000, lambda h, c, b: 0.05,
                                   title="no444", chromas=(C420,))],
    "lonely": lambda: [lonely_title(
        generate(replace(default_spec(titles=1), targets_kbps=SMALL_TARGETS))[0])],
    "miss": lambda: [TitleDataset.from_records([record("miss", target=600, actual=900, quality=5),
                                                record("miss", target=1200, actual=1700)])],
    "overflow": lambda: [TitleDataset.from_records([
        record("overflow", 2160, C444, 1e-300, quality=1.0), record("overflow", 2160, C444, 2e-300,
                                                                    quality=2.0),
        record("overflow", 1080, C420, 1e300, quality=1.2), record("overflow", 1080, C420, 2e300,
                                                                   quality=2.5)])],
}
EDGE_NAMES = {ds.title_id for make in EDGE_TITLES.values() for ds in make()}
METHODS = ("arcs", "dynres", "default", "fixed")


class Corpus(NamedTuple):
    sparse: bool  # sparse_spec's jitter, else default_spec's
    seed: int
    targets: tuple
    titles: tuple  # the synthetic titles' names; none: the edge titles alone
    metrics: tuple = ("cvvdp",)  # each synthetic title is measured in these
    edges: tuple = ()  # keys of EDGE_TITLES
    files: tuple = ("csv",)  # one format per input file
    split: int = 0  # seeds the record order and which file each record goes to

    def write(self, tmp: Path) -> list[Path]:
        datasets = [ds for edge in self.edges for ds in EDGE_TITLES[edge]()]
        for metric in map(QualityMetric, self.metrics if self.titles else ()):
            spec = default_spec(self.seed, len(self.titles), metric)
            spec = replace(spec, targets_kbps=self.targets, jitter=0.15 if self.sparse else spec.jitter)
            datasets += [TitleDataset.from_records(replace_title(rec, name) for rec in ds.records)
                         for ds, name in zip(generate(spec), self.titles)]
        rng, parts = random.Random(self.split), [[] for _ in self.files]
        records = [rec for ds in datasets for rec in ds.records]
        rng.shuffle(records)
        for rec in records:
            parts[rng.randrange(len(parts))].append(dict(zip(CSV_HEADER, (
                rec.title_id, rec.resolution.height, int(rec.chroma.value), rec.target_bitrate,
                rec.actual_bitrate, rec.quality.metric.value, rec.quality.value, rec.decode_time))))
        paths = [tmp / f"part{i}.{fmt}" for i, fmt in enumerate(self.files)]
        for path, rows in zip(paths, parts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                if path.suffix == ".json":
                    json.dump(rows, fh)
                else:
                    fh.write(reference.csv_text(CSV_HEADER, [row.values() for row in rows]))
        return paths

    def plan(self) -> str:
        """Heights that rise once, as a plan's must; titles on other targets fail it."""
        return "target_kbps,height\n" + "".join(
            f"{t:g},{1080 if i < 3 else 2160}\n" for i, t in enumerate(self.targets))


class Command(NamedTuple):
    argv: tuple  # the command and its flags but --input, --plan and --out
    plan: bool | str = True  # the corpus's plan, none, or the plan file's text
    out: bool = False
    code: int | None = None  # the exit code a pinned example expects


corpora = st.builds(
    Corpus, st.booleans(), st.integers(0, 2**16), st.sampled_from([SMALL_TARGETS, CLOSE_TARGETS]),
    st.lists(st.sampled_from(AWKWARD_TITLES) | st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), min_size=1,
        max_size=8).filter(lambda t: t.strip() and t.strip() not in EDGE_NAMES),
        min_size=1, max_size=4, unique_by=str.strip).map(tuple),
    st.sampled_from([("cvvdp",), ("psnr",), ("cvvdp", "psnr")]),
    st.lists(st.sampled_from(sorted(EDGE_TITLES)), max_size=2, unique=True).map(tuple),
    st.lists(st.sampled_from(["csv", "json"]), min_size=1, max_size=3).map(tuple),
    st.integers(0, 2**16))


@st.composite
def command_lines(draw, command: str) -> Command:
    def flags(name, values, min_size=0, max_size=1):
        return [f for value in draw(st.lists(st.sampled_from(values), min_size=min_size,
                                             max_size=max_size)) for f in (name, value)]

    # sweep needs two distinct alphas, so it draws at least two.
    argv = [command, *flags("--alpha", ["0", "-0.0", "1e-07", "0.001", "0.04", "0.08", "1"],
                            1 + (command == "sweep"), 3)]
    argv += flags("--method", METHODS, 0, 3) if command != "sweep" else []
    argv += flags("--reference", METHODS) if command in ("compare", "sweep") else []
    argv += flags("--mode", ["dp", "greedy"]) + flags("--tolerance", ["-0", "0.05", "0.15", "0.3"])
    argv += flags("--chroma-fixed", ["444", "420"]) + ["--cross-target"] * draw(st.booleans())
    out = draw(st.booleans())
    if out and command != "optimize":
        argv += flags("--format", ["json", "csv"] + ["markdown"] * (command != "pmf"), 0, 3)
    return Command(tuple(argv), plan=draw(st.sampled_from([True, True, True, False])), out=out)


def _assert_each_evaluation_once(argv, datasets, want) -> None:
    """Each (title, metric, method, alpha) is reported once, as a result or an
    exclusion, each aggregate row counts every dataset of its metric, and a
    markdown report lists each exclusion on one line."""
    cfg, payload = reference.parse_argv(argv), want.payload
    excluded = payload["aggregate"]["excluded"] if "aggregate" in payload else payload["excluded"]
    results = [*payload.get("ladders", []), *(dict(row, title=entry["title"])
                                              for entry in payload.get("titles", [])
                                              for row in entry["bd"]["rows"])]
    seen = Counter(itemgetter("title", "metric", "method", "alpha")(x) for x in excluded + results)
    expected = Counter((ds.title_id, ds.metric.value, *group)
                       for ds in datasets for group in reference.groups(cfg))
    if cfg.command in ("sweep", "pmf"):
        seen += expected - seen  # no per-title results: the rest is used or counted
    assert seen == expected
    n_titles = Counter(ds.metric.value for ds in datasets)
    rows = payload["aggregate"]["rows"] if "aggregate" in payload else payload.get("frontier", [])
    group_excluded = Counter(itemgetter("method", "alpha", "metric")(x) for x in excluded)
    assert all(r["titles_excluded"] == group_excluded[r["method"], r["alpha"], r["metric"]]
               and r["titles_used"] + r["titles_excluded"] == n_titles[r["metric"]] for r in rows)
    for text in filter(None, map(want.files.get, ["report.md", "frontier.md"] * bool(excluded))):
        lines = re.split("[\r\n]", text)
        assert lines[-len(excluded) - 2] == "Excluded title evaluations:"
        assert all(line.startswith("- ") for line in lines[-len(excluded) - 1:-1])


SMALL = Corpus(False, 0, SMALL_TARGETS, ("synth000", "synth001", "synth002", "synth003"))
LONELY = Corpus(False, 0, SMALL_TARGETS, ("synth000", "synth001"), edges=("lonely",))
# Titles in both metrics, split over a CSV and a JSON file; one title CSV quotes.
REPORTS = SMALL._replace(titles=('clip "A", 4k', "synth001"), metrics=("cvvdp", "psnr"),
                         files=("csv", "json"))
# One encode that serves two close targets.
SHARED = SMALL._replace(targets=CLOSE_TARGETS, titles=(), edges=("shared",))
PLAN_720 = "target_kbps,height\n600,720\n1200,720\n"  # a height that no title has
FIXED = ("--method", "arcs", "--method", "fixed")
# No sparse seed-869 title has a 1080p or 2160p 444 encode, so its fixed
# ladder is excluded.
SEED_869 = Corpus(True, 869, SMALL_TARGETS, ("line\nbreak", "cr\rreturn,comma"))


def commands_equal_reference(corpus: Corpus, commands) -> None:
    """Run each command on ``corpus`` through ``cli.main`` and ``reference.run``:
    both give the same exit code, stdout, stderr and written bytes, the exit
    code is the one the command pins, if any, nothing is written outside
    ``--out``, which exists only when files are written, and each evaluation
    is reported once."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = [f for path in corpus.write(tmp) for f in ("--input", path)]
        datasets = parse_dataset([reference.read_text(path) for path in tmp.glob("part*")])
        runs = tmp / "runs"
        for i, command in enumerate(commands):
            # Two levels below runs, so that a title "../../x" stays in tmp.
            out, plan = runs / str(i) / "out", tmp / f"plan{i}.csv"
            if command.plan:
                plan.write_text(corpus.plan() if command.plan is True else command.plan,
                                encoding="utf-8")
            argv = [str(a) for a in (*command.argv, *inputs, *["--out", out] * command.out,
                                     *["--plan", plan] * bool(command.plan))]
            want = reference.run(argv)
            assert cli_outcome(argv, out) == want
            assert command.code in (None, want.code)
            assert out.exists() == bool(want.files)
            if want.payload is not None:  # None: it stopped before it evaluated a title
                _assert_each_evaluation_once(argv, datasets, want)
        assert {path.parent for path in runs.rglob("*") if path.is_file()} <= {
            runs / str(i) / "out" for i in range(len(commands))}


@settings(max_examples=100, deadline=None)
# A drawn corpus goes through each command; a pinned example names its own.
@given(corpora, st.tuples(*map(command_lines, ["optimize", "compare", "sweep", "pmf"])))
# Repeated alphas and methods, and an alpha-free method against an alpha one.
@example(LONELY, [Command(("compare", "--alpha", "0.04", "--alpha", "0.04", "--method", "arcs"),
                          out=True)])
@example(LONELY, [Command(("compare", "--alpha", "0", "--alpha", "0.08", "--method", "default",
                           "--reference", "arcs"))])
@example(LONELY, [Command(("pmf", "--alpha", "0.04", "--method", "arcs", "--method", "arcs",
                           "--method", "fixed"), out=True)])
# The fixed ladder excluded next to an arcs ladder, with titles that hold line
# breaks, in SKIP lines and frontier.md; such titles cannot name ladder files;
# and the fixed ladder as the only one, so that optimize fails.
@example(SEED_869, [Command(("optimize", "--alpha", "0", "--method", "arcs", "--method", "fixed")),
                    Command(("optimize", "--alpha", "0"), out=True),
                    Command(("sweep", "--alpha", "0", "--alpha", "0.04", "--reference", "fixed",
                             "--format", "markdown"), out=True)])
@example(SEED_869._replace(titles=('clip "A", 4k — é',)),
         [Command(("optimize", "--alpha", "0", "--method", "fixed"))])
# A BD value beyond float range excludes its group.
@example(SMALL._replace(titles=("synth000",), edges=("overflow",)),
         [Command(("compare", "--alpha", "0", "--method", "arcs")),
          Command(("sweep", "--alpha", "0", "--alpha", "0.04"), out=True)])
# A file name of 256 UTF-8 bytes (141 characters): no file is written, not even
# the one of the title before it; one of 255 bytes is written.
@example(SMALL._replace(titles=("synth000", "é" * 115)),
         [Command(("optimize", "--alpha", "0"), out=True)])
@example(SMALL._replace(titles=("synth000", "é" * 115), metrics=("psnr",)),
         [Command(("optimize", "--alpha", "0"), out=True)])
# The named cases of the ladder commands, each with the exit code it pins.
# test_empty_input_exits_one: no record, in a CSV and a JSON file.
@example(SMALL._replace(titles=(), files=("csv", "json")),
         [Command((command,), out=True, code=1) for command in ("optimize", "compare", "sweep", "pmf")])
# test_alphas_sharing_a_file_name_exit_one_before_writing: both are "0.1" in a file name.
@example(SMALL, [Command(("optimize", "--alpha", "0.1", "--alpha", "0.1000001"), out=True, code=1),
                 Command(("optimize", "--alpha", "0.1", "--alpha", "0.1000001"), code=0)])
# test_fixed_without_plan_exits_one
@example(SMALL, [Command(("optimize", "--method", "fixed"), plan=False, out=True, code=1)])
# test_unusable_plan_exits_one: load_plan's messages are test_ladder's.
@example(SMALL, [Command(("compare", *FIXED), plan="target_kbps,height\n" + rows, out=True, code=1)
                 for rows in ("600,2160\n900,1080\n", "600,1080\n600,2160\n", "600,1080\n900,1080,extra\n",
                              "600,0\n", "nan,1080\n")])
# test_plan_without_a_present_rung_excludes_each_title_alike: no title has 720p.
@example(SMALL, [Command(("optimize", *FIXED), plan=PLAN_720, out=True, code=0),
                 Command(("compare", *FIXED), plan=PLAN_720, code=0),
                 Command(("pmf", *FIXED), plan=PLAN_720, code=0)])
# test_plan_with_byte_order_mark_is_read
@example(SMALL, [Command(("compare", "--method", "fixed", "--alpha", "0"), plan="\ufeff" + SMALL.plan(),
                         code=0)])
# test_unknown_planned_target_excludes_the_title: the lonely title lacks 640 kbps.
@example(LONELY._replace(targets=CLOSE_TARGETS), [Command(("compare", "--method", "fixed"), code=0)])
# test_report_schema_and_round_trip
@example(SMALL, [Command(("compare", "--method", "arcs", "--alpha", "0.04"), out=True, code=0)])
# test_title_without_usable_reference_excluded: the lonely title's reference has one point.
@example(LONELY, [Command(("compare", "--method", "arcs", "--alpha", "0"), out=True, code=0)])
# test_titles_counted_per_metric
@example(REPORTS, [Command(("compare", "--method", "arcs", "--alpha", "0"), out=True, code=0)])
# test_csv_fields_are_quoted
@example(REPORTS, [Command(("compare", "--method", "arcs", "--alpha", "0", "--format", "csv"),
                           out=True, code=0)])
# test_single_alpha_exits_one
@example(SMALL, [Command(("sweep", "--alpha", "0"), out=True, code=1)])
# test_pmf_rows_per_alpha
@example(SMALL, [Command(("pmf", "--alpha", "0", "--alpha", "0.08", "--format", "json", "--format",
                          "csv"), out=True, code=0)])
# test_fixed_ladder_without_present_rung_excludes_the_title: with fixed alone, no row is left.
@example(SMALL, [Command(("pmf", *FIXED), plan=PLAN_720, code=0),
                 Command(("pmf", "--method", "fixed"), plan=PLAN_720, code=2)])
# test_minus_zero_alpha_prints_as_zero[optimize|compare|sweep|pmf]
@example(SMALL, [Command((*argv, *alphas), code=0)
                 for argv in (("optimize", "--method", "arcs", "--method", "dynres"),
                              ("compare", "--method", "arcs"), ("sweep",), ("pmf", "--method", "arcs"))
                 for alphas in (("--alpha", "-0", "--alpha", "0.02"),
                                ("--alpha", "0", "--alpha", "-0", "--alpha", "0.02"))])
# test_minus_zero_names_no_file_alpha_minus_zero
@example(SMALL, [Command(("optimize", "--alpha", "-0"), out=True, code=0)])
# test_minus_zero_tolerance_is_zero: one encode of the shared title meets it.
@example(SHARED, [Command(("pmf", "--tolerance", "-0"), code=0)])
# test_alpha_out_of_range_is_input_error
@example(SMALL, [Command(("optimize", "--alpha", "1.5"), out=True, code=1),
                 Command(("optimize", "--alpha", "1"), code=0)])
# test_tolerance_out_of_range_is_input_error
@example(SMALL, [Command(("optimize", "--tolerance", "0.9"), out=True, code=1),
                 Command(("optimize", "--tolerance", "0.5"), code=0)])
# test_uncomputable_comparison_is_compute_error: every encode misses its window.
@example(SMALL._replace(titles=(), edges=("miss",)),
         [Command(("compare", "--method", "arcs"), out=True, code=2)])
# test_degenerate_reference_excludes_every_group
@example(LONELY, [Command(("compare", "--method", "arcs", "--method", "dynres", "--alpha", "0",
                           "--alpha", "0.04"), out=True, code=0)])
# test_exclusion_lines_name_the_alpha
@example(LONELY, [Command(("compare", "--alpha", "0", "--alpha", "0.04", "--alpha", "0.08", "--format",
                           "markdown"), out=True, code=0)])
# test_failures_name_each_ladder_and_exclude_each_group: curves with one point or apart.
@example(SMALL._replace(titles=(), edges=("failing",)),
         [Command(("compare", "--method", "arcs", "--method", "dynres", "--method", "default",
                   "--alpha", "0", "--alpha", "0.04"), out=True, code=0)])
# test_two_runs_byte_identical
@example(SMALL, [Command(("compare", "--method", "arcs", "--alpha", "0", "--alpha", "0.04"), out=True,
                         code=0)] * 2)
# test_one_record_serves_two_rungs_of_a_ladder
@example(SHARED, [Command((command, "--alpha", "0", *FIXED, "--cross-target", *formats * out), out=out,
                          code=0)
                  for command, formats in (("compare", ("--format", "json", "--format", "csv")),
                                           ("optimize", ())) for out in (True, False)])
def test_commands_equal_reference(corpus, commands):
    commands_equal_reference(corpus, commands)
