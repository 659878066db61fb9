#!/usr/bin/env python3
"""chromaladder CLI benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a seeded synthetic corpus with ``synth.generate``, writes it as the
CSV/JSON files the CLI reads, then runs the workload's ``chromaladder`` command
repeatedly for ``--seconds`` seconds, one fresh child interpreter per
invocation (closed loop, one client). Input generation is never timed in an
end-to-end metric.

``--trace 0`` reports the end-to-end metrics ``cmd_s`` (one ``cli.main``
call, after import), ``setup_s`` (child interpreter start through
``import chromaladder.cli``) and ``peak_rss_mb`` (the child's ``ru_maxrss``).
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones (see tracer.py), plus
``tracing_overhead_s``.

Every invocation is checked: exit code 0, output bytes identical to the run's
first invocation, and for the first one a digest of the result fields (pinned
per workload and seed in digests.json), the aggregate title-count invariant
and ``validate_rungs`` on every ladder. A failed check counts toward
``failed``; ``error_rate`` is ``failed / attempted``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record (samples,
environment, digest) goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
DIGESTS = HERE / "digests.json"

TITLES = 300
# Not used while the benchmark was written; re-check claims on it.
HELD_OUT_SEED = 7919
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 60
MIN_REPORT_BYTES = 10_000_000
# Span self times must cover at least this share of the traced cmd_s.
MIN_ACCOUNTED_SHARE = 0.98

SWEEP_ALPHAS = ("0", "0.01", "0.02", "0.04", "0.08")
GRID_ALPHAS = tuple(f"{i / 100:g}" for i in range(17))


def _alpha_flags(alphas):
    return [flag for a in alphas for flag in ("--alpha", a)]


@dataclass(frozen=True)
class Workload:
    preset: str  # synth spec: "default" or "sparse"
    input_format: str
    input_files: int  # titles are split evenly over this many files
    command: tuple[str, ...]  # everything but --input and --out
    report: str  # main JSON output, the one digested and checked


WORKLOADS = {
    # Mirrors scripts/run_frontier_experiment.py; the only write-heavy one.
    "compare_full": Workload(
        "default", "csv", 1,
        ("compare", *_alpha_flags(SWEEP_ALPHAS),
         "--method", "arcs", "--method", "dynres", "--method", "fixed",
         "--plan", "configs/fixed_plan.csv",
         "--format", "json", "--format", "csv", "--format", "markdown"),
        "report.json",
    ),
    # JSON parsing and the multi-file merge; absent rungs; no rendering.
    "sweep_sparse": Workload(
        "sparse", "json", 2,
        ("sweep", *_alpha_flags(SWEEP_ALPHAS), "--format", "json"),
        "frontier.json",
    ),
    # Ladder building over a dense alpha grid; no BD work at all.
    "pmf_alpha_grid": Workload(
        "default", "csv", 1,
        ("pmf", *_alpha_flags(GRID_ALPHAS),
         "--method", "arcs", "--method", "dynres", "--format", "json"),
        "pmf.json",
    ),
}

# Which workload must still exercise what it was chosen for, read from the
# traced run's counts.
GUARDS = {
    "compare_full": ("cli.to_json_text.bytes", lambda v: v > MIN_REPORT_BYTES,
                     f"> {MIN_REPORT_BYTES}"),
    "sweep_sparse": ("ladder.rungs_absent", lambda v: v > 0, "> 0"),
    "pmf_alpha_grid": ("bdmetrics.bd_delta.calls", lambda v: v == 0, "== 0"),
}


# -- inputs --------------------------------------------------------------------


def make_inputs(workload: Workload, seed: int, run_dir: Path) -> tuple[list[str], float]:
    """Write the seeded corpus; return input paths (relative to the root) and
    the seconds ``synth.generate`` took."""
    from chromaladder.measurements import serialize_dataset
    from chromaladder.synth import default_spec, generate, sparse_spec

    spec = sparse_spec() if workload.preset == "sparse" else default_spec()
    start = time.perf_counter()
    datasets = generate(replace(spec, titles=TITLES, seed=seed))
    generate_s = time.perf_counter() - start
    per_file = math.ceil(len(datasets) / workload.input_files)
    paths = []
    for i in range(workload.input_files):
        path = run_dir / f"input_{i}.{workload.input_format}"
        chunk = datasets[i * per_file:(i + 1) * per_file]
        path.write_text(serialize_dataset(chunk, fmt=workload.input_format), encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    return paths, generate_s


def command_line(workload: Workload, inputs: list[str], out_dir: Path) -> list[str]:
    return [*workload.command, *(a for p in inputs for a in ("--input", p)),
            "--out", str(out_dir.relative_to(ROOT))]


# -- child invocations -----------------------------------------------------------


def spawn(run_dir: Path, argv: list[str] | None, trace: bool = False,
          spans: Path | None = None) -> dict:
    """Run child.py once; return its measurements, or an ``error`` entry."""
    result = run_dir / "child.json"
    result.unlink(missing_ok=True)
    request = {"argv": argv, "trace": trace, "result": str(result),
               "spans": None if spans is None else str(spans)}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    data = json.loads(result.read_text(encoding="utf-8"))
    if Path(data["module_file"]).resolve().parent != SRC / "chromaladder":
        return {"error": f"imported chromaladder from {data['module_file']}"}
    sample = {
        "setup_s": data["imported_at"] - started,
        "peak_rss_mb": data["peak_rss_kb"] / 1024,
    }
    if argv is not None:
        sample["cmd_s"] = data["cmd_s"]
        sample["cpu_s"] = data["cpu_s"]
        if data["exit_code"] != 0:
            sample["error"] = f"cli.main returned {data['exit_code']}: {proc.stderr.strip()[-500:]}"
        if "trace" in data:
            sample["trace"] = data["trace"]
    return sample


# -- correctness -------------------------------------------------------------------


def output_hash(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _rows(rows, fields):
    return [[row[f] for f in fields] for row in rows]


_AGGREGATE_FIELDS = ("method", "alpha", "metric", "reference", "mean_bdr_percent",
                     "mean_bddt_percent", "titles_used", "titles_excluded")
_EXCLUDED_FIELDS = ("title", "metric", "method", "alpha")


def result_fields(name: str, report: dict) -> dict:
    """The result part of a report. The ``config`` block (it echoes input
    paths) and free-text exclusion reasons are left out."""
    if name == "compare_full":
        ladders, bd = [], []
        for entry in report["titles"]:
            for ladder in entry["ladders"]:
                rungs = [[r["target_kbps"], r.get("height"), r.get("chroma"), r.get("actual_kbps")]
                         for r in ladder["rungs"]]
                ladders.append([entry["title"], ladder["metric"], ladder["method"],
                                ladder["alpha"], rungs])
            for row in entry["bd"]["rows"]:
                bd.append([entry["title"], row["metric"], row["method"], row["alpha"],
                           row["reference"], row["bdr_percent"], row["bddt_percent"],
                           row["overlap_quality"]])
        return {
            "ladders": ladders,
            "bd": bd,
            "aggregate": _rows(report["aggregate"]["rows"], _AGGREGATE_FIELDS),
            "excluded": _rows(report["aggregate"]["excluded"], _EXCLUDED_FIELDS),
        }
    if name == "sweep_sparse":
        return {
            "frontier": _rows(report["frontier"], _AGGREGATE_FIELDS),
            "excluded": _rows(report["excluded"], _EXCLUDED_FIELDS),
        }
    return {
        "pmf": _rows(report["pmf"], ("method", "alpha", "pmf", "present_rungs")),
        "excluded": _rows(report["excluded"], _EXCLUDED_FIELDS),
    }


def digest(fields: dict) -> str:
    # Each list is hashed as a sorted multiset, so a change of row order alone
    # does not change the digest.
    canonical = {k: sorted(json.dumps(item, sort_keys=True) for item in v)
                 for k, v in fields.items()}
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def _check_ladder(title: str, ladder: dict) -> None:
    from chromaladder import (ChromaFormat, MeasurementRecord, QualityMetric,
                              QualityScore, Resolution, Rung, validate_rungs)

    rungs = []
    for r in ladder["rungs"]:
        choice = None
        if r["present"]:
            choice = MeasurementRecord(
                title, Resolution(r["height"], r["width"]), ChromaFormat(r["chroma"]),
                r["target_kbps"], r["actual_kbps"],
                QualityScore(QualityMetric(ladder["metric"]), r["quality"]),
                r["decode_s_per_frame"],
            )
        rungs.append(Rung(r["target_kbps"], choice, r.get("j_prime")))
    validate_rungs(rungs)


def check_report(name: str, report: dict) -> list[str]:
    """Invariants of one workload's main report; returns the broken ones."""
    from chromaladder.errors import ChromaLadderError

    errors = []
    if name == "compare_full":
        rows = report["aggregate"]["rows"]
    elif name == "sweep_sparse":
        rows = report["frontier"]
    else:
        rows = None
    for row in rows or ():
        if row["titles_used"] + row["titles_excluded"] != TITLES:
            errors.append(f"aggregate row {row['method']}/{row['alpha']}/{row['metric']}: "
                          f"titles_used + titles_excluded != {TITLES}")
    if name == "compare_full":
        if len(report["titles"]) != TITLES:
            errors.append(f"report has {len(report['titles'])} titles, not {TITLES}")
        for entry in report["titles"]:
            for ladder in entry["ladders"]:
                try:
                    _check_ladder(entry["title"], ladder)
                except (ChromaLadderError, ValueError) as exc:
                    errors.append(f"ladder {entry['title']}/{ladder['method']}/"
                                  f"{ladder['alpha']}: {exc}")
    if name == "pmf_alpha_grid":
        for row in report["pmf"]:
            if abs(sum(row["pmf"].values()) - 1.0) > 1e-9 or row["present_rungs"] <= 0:
                errors.append(f"pmf row {row['method']}/{row['alpha']} is not a distribution")
    if rows == []:
        errors.append("report has no aggregate rows")
    return errors


def load_pins() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}


def check_first_output(name: str, seed: int, out_dir: Path) -> tuple[str, list[str]]:
    """Deep checks on the run's first output: digest against the pin, then
    the report invariants. Returns (digest, errors)."""
    report = json.loads((out_dir / WORKLOADS[name].report).read_text(encoding="utf-8"))
    got = digest(result_fields(name, report))
    errors = check_report(name, report)
    pinned = load_pins().get(name, {}).get(str(seed))
    if pinned is not None and pinned != got:
        errors.append(f"result digest {got[:16]} != pinned {pinned[:16]} for seed {seed}")
    return got, errors


def trace_errors(name: str, sample: dict) -> list[str]:
    metrics = layer_metrics(sample["trace"])
    errors = []
    metric, ok, expect = GUARDS[name]
    if not ok(metrics[metric]):
        errors.append(f"workload guard: {metric} = {metrics[metric]}, expected {expect}")
    accounted = sum(layer["self_s"] for layer in sample["trace"]["layers"].values())
    if accounted < MIN_ACCOUNTED_SHARE * sample["cmd_s"]:
        errors.append(f"span self times cover {accounted:.3f} s of the traced call's "
                      f"{sample['cmd_s']:.3f} s")
    return errors


# -- metrics -----------------------------------------------------------------------


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    out = {}
    for span, layer in trace["layers"].items():
        out[f"{span}.self_s"] = layer["self_s"]
        if span != "cli.main":
            out[f"{span}.calls"] = layer["calls"]
    for span in ("bdmetrics.build_curve", "bdmetrics.bd_delta"):
        out[f"{span}.failed"] = trace["layers"][span]["failed"]
    counters = trace["counters"]
    calls = trace["layers"]["measurements.candidates_for"]["calls"]
    out["measurements.records"] = counters["measurements.records"]
    out["measurements.candidates_per_rung"] = (
        counters["measurements.candidates"] / calls if calls else 0.0)
    out["ladder.rungs_total"] = counters["ladder.rungs_total"]
    out["ladder.rungs_absent"] = counters["ladder.rungs_absent"]
    out["cli.to_json_text.bytes"] = counters["cli.to_json_text.bytes"]
    return out


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def declared_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and of the per-layer metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


# -- run ---------------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "titles": TITLES,
        "git_commit": git_commit(),
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs, generate_s = make_inputs(workload, seed, run_dir)
        spawn(run_dir, None)  # warm-up: byte-compile, fill the page cache
        probes = [spawn(run_dir, None) for _ in range(SETUP_PROBES)]
        invocations = []
        first_hash = result_digest = None
        start = time.monotonic()
        while True:
            i = len(invocations)
            elapsed = time.monotonic() - start
            # Stop when another round would end past --seconds by more than
            # half a round, so a run lasts --seconds on average.
            if i >= (2 if trace else 1) and elapsed + elapsed / i / 2 >= seconds:
                break
            probe = spawn(run_dir, None)
            probes.append(probe)
            traced = trace and i % 2 == 1
            out_dir = run_dir / f"out{i}"
            spans = RESULTS / f"{name}-seed{seed}.spans.json" if traced else None
            sample = spawn(run_dir, command_line(workload, inputs, out_dir), traced, spans)
            sample["traced"] = traced
            problems = [sample["error"]] if "error" in sample else []
            if "error" in probe:
                problems.append(f"setup probe: {probe['error']}")
            if not problems:
                got = output_hash(out_dir)
                if first_hash is None:
                    first_hash = got
                    result_digest, deep = check_first_output(name, seed, out_dir)
                    problems += deep
                elif got != first_hash:
                    problems.append("output bytes differ from the first invocation")
                if traced:
                    problems += trace_errors(name, sample)
            sample["errors"] = problems
            invocations.append(sample)
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    errors = [f"setup probe: {p['error']}" for p in probes[:SETUP_PROBES] if "error" in p]
    ok = [s for s in invocations if not s["errors"]]
    plain = [s for s in ok if not s["traced"]]
    stats = {}
    for key in ("cmd_s", "setup_s", "peak_rss_mb"):
        values = [s[key] for s in plain] + ([p["setup_s"] for p in probes if "error" not in p]
                                            if key == "setup_s" else [])
        if values:
            stats[key] = summarize(values)
    metrics = {}
    if not trace:
        metrics = {key: stats[key]["median"] for key in stats}
    else:
        traced_ok = [s for s in ok if s["traced"]]
        if traced_ok and plain:
            per_run = [layer_metrics(s["trace"]) for s in traced_ok]
            metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
            metrics["synth.generate.s"] = generate_s
            metrics["tracing_overhead_s"] = (statistics.median(s["cmd_s"] for s in traced_ok)
                                             - stats["cmd_s"]["median"])
    failed = len(invocations) - len(ok)
    return {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "inputs": inputs,
        "synth_generate_s": generate_s,
        "result_digest": result_digest,
        "digest_pinned": str(seed) in load_pins().get(name, {}),
        "stats": stats,
        "metrics": metrics,
        "attempted": len(invocations),
        "failed": failed,
        "error_rate": failed / len(invocations),
        "errors": errors + [e for s in invocations for e in s["errors"]],
        "unwrapped": sorted({u for s in ok if s["traced"] for u in s["trace"]["unwrapped"]}),
        "probes": probes,
        "invocations": invocations,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "chromaladder" / "cli.py").is_file():
        print(f"error: no chromaladder sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "compare_full" and not (ROOT / "configs" / "fixed_plan.csv").is_file():
        print("error: configs/fixed_plan.csv is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind so subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    end_to_end, per_layer = declared_units()
    units = per_layer if args.trace else end_to_end
    RESULTS.mkdir(exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  commit {env['git_commit']}")
    for key, s in record["stats"].items():
        print(f"{key:<12} median {s['median']:.4f} {end_to_end[key]}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"error_rate   {record['error_rate']:.4f} ({record['failed']}/{record['attempted']})")
    for err in record["errors"]:
        print(f"ERROR {err}")
    for name in record["unwrapped"]:
        print(f"unwrapped {name} (calls=0)")
    print(f"details in {out.relative_to(ROOT)}")

    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        print(f"ERROR no value for {', '.join(missing)}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["errors"] and not missing,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": u}
                    for n, u in units.items() if n in record["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
