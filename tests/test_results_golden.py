"""Golden test: ``scripts/run_frontier_experiment.py`` reproduces the tracked
``results/`` tree.

CSV, markdown and ladder files must match byte for byte. The JSON reports
echo the input and plan paths in ``config``; those two fields are masked,
since they depend on where the experiment was run.
"""

import importlib.util
import json
from pathlib import Path

from chromaladder.cli import to_json_text

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_frontier_experiment.py"
TRACKED = ROOT / "results"
REPORTS = {"compare/report.json", "sweep/frontier.json", "pmf/pmf.json"}


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _masked(data: bytes) -> str:
    report = json.loads(data)
    report["config"]["inputs"] = report["config"]["plan"] = "<path>"
    return to_json_text(report)


def test_frontier_experiment_reproduces_results(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_frontier_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.RESULTS = tmp_path
    script.run()
    capsys.readouterr()

    assert _files(tmp_path) == _files(TRACKED)
    for name in _files(TRACKED):
        want = (TRACKED / name).read_bytes()
        got = (tmp_path / name).read_bytes()
        if name in REPORTS:
            assert _masked(got) == _masked(want), name
        else:
            assert got == want, name
