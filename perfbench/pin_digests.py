#!/usr/bin/env python3
"""Pin the result digest of each workload for the given seeds in digests.json.

Usage (from the repository root):

    python3 perfbench/pin_digests.py SEED [SEED ...]

Runs every workload once per seed, untimed, and refuses to pin an output that
breaks a report invariant. Pin only from a commit whose results are trusted:
run.py then fails any later output of that (workload, seed) that differs.
"""

import json
import shutil
import sys

import run


def pin(seeds: list[int]) -> int:
    sys.path.insert(0, str(run.SRC))
    pins = run.load_pins()
    status = 0
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            run_dir = run.WORK / f"pin-{name}-{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            try:
                inputs, _ = run.make_inputs(workload, seed, run_dir)
                out_dir = run_dir / "out"
                sample = run.spawn(run_dir, run.command_line(workload, inputs, out_dir))
                if "error" in sample:
                    print(f"{name} seed {seed}: {sample['error']}")
                    status = 1
                    continue
                report = json.loads((out_dir / workload.report).read_text(encoding="utf-8"))
                errors = run.check_report(name, report)
                if errors:
                    print(f"{name} seed {seed}: not pinned: {errors[0]}")
                    status = 1
                    continue
                got = run.digest(run.result_fields(name, report))
                pins.setdefault(name, {})[str(seed)] = got
                print(f"{name} seed {seed}: {got}")
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(pin([int(s) for s in sys.argv[1:]]))
