"""The scripts under scripts/ still load against the package: every name
they import exists, and the walkthrough runs end to end."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernel_imports():
    assert callable(_load("bench_kernel").main)


def test_stabilizer_walkthrough_runs(capsys):
    _load("stabilizer_walkthrough").main()
    out = capsys.readouterr().out
    assert "places at infinity: 2" in out
    assert "algorithms agree: True" in out
