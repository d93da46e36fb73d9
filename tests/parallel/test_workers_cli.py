"""``repro`` on two workers equals ``repro`` serially: through the CLI,
the fp64 distributed CG and lung steps reproduce the serial ones bit
for bit (JSON floats round-trip exactly), single run and two members
alike, and no run leaves a ``/dev/shm`` segment behind."""

import glob
import json

import pytest

from ..conftest import assert_same_steps, run_cli, step_records

pytestmark = pytest.mark.parallel


def test_poisson_two_workers_equal_serial(tmp_path):
    a, b = (json.loads(run_cli("poisson", "--refinements", "1", *flags, "--json",
                               cwd=tmp_path).stdout)
            for flags in ([], ["--workers", "2"]))
    for key in ("converged", "n_iterations", "residuals"):
        assert a[key] == b[key], (key, a[key], b[key])


@pytest.mark.parametrize("flags", [(), ("--resistance-scales", "1.0,1.5")],
                         ids=["single", "members"])
def test_lung_two_workers_equal_serial(lung_cli, flags):
    assert_same_steps(step_records(lung_cli(*flags)),
                      step_records(lung_cli("--workers", "2", *flags)))
    assert glob.glob("/dev/shm/repro*") == [], "leaked /dev/shm segments"
