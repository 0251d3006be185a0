"""Smoke test: every experiment script runs end to end at small inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,marker",
    [
        ("probe_normalization", ["--bases", "5"], "--- b = 5"),
        ("table1_experiment", [], "the table's family"),
        ("table1_experiment", ["--check-series"], "series cross-check b=7"),
    ],
)
def test_script_runs(capsys, name, argv, marker):
    assert load(name).main(argv) == 0
    out = capsys.readouterr().out
    assert marker in out
    assert "UNEXPECTED" not in out
