"""Fixtures of the ``parallel`` tier's CLI runs."""

import pytest

from ..conftest import run_cli


@pytest.fixture(scope="session")
def lung_cli(tmp_path_factory):
    """``repro lung --steps 2 *flags --log-file LOG`` (:func:`run_cli`),
    run once per flag tuple per session; returns the run log's path.
    Every run's working directory is the log's directory, so relative
    output paths in ``flags`` land beside it."""
    root = tmp_path_factory.mktemp("lung_cli")
    logs = {}

    def run(*flags):
        if flags not in logs:
            log = root / f"run{len(logs)}.jsonl"
            run_cli("lung", "--steps", "2", *flags, "--log-file", log, cwd=root)
            logs[flags] = log
        return logs[flags]

    return run
