"""The user-facing quickstart example runs and solves its problem, so a
change of the package it reaches into cannot break it unnoticed."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_quickstart_converges_to_the_manufactured_solution(capsys):
    spec = importlib.util.spec_from_file_location("quickstart", EXAMPLES / "quickstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result, err = module.main()
    assert result.converged and result.n_iterations == 9
    assert err < 1e-4
    assert "CG converged in 9 iterations" in capsys.readouterr().out
