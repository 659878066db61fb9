"""The shipped files under ``configs/`` load as the README documents them."""

from pathlib import Path

from chromaladder import default_spec, load_plan, sparse_spec, spec_from_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_default_spec_file_is_the_default_preset():
    assert spec_from_json((CONFIGS / "synth_default.json").read_text(encoding="utf-8")) == default_spec()


def test_sparse_spec_file_is_the_sparse_preset():
    assert spec_from_json((CONFIGS / "synth_sparse.json").read_text(encoding="utf-8")) == sparse_spec()


def test_fixed_plan_is_ten_rungs_switching_to_2160_from_8100_kbps():
    plan = load_plan((CONFIGS / "fixed_plan.csv").read_text(encoding="utf-8"))
    assert plan == [(600.0, 1080), (900.0, 1080), (1600.0, 1080), (2400.0, 1080),
                    (3400.0, 1080), (4500.0, 1080), (5800.0, 1080),
                    (8100.0, 2160), (11600.0, 2160), (16800.0, 2160)]
