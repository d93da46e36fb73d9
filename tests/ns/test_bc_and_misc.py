"""Coverage of the boundary-condition containers and small model APIs."""

import numpy as np
import pytest

from repro.lung.performance import (
    estimate_cells,
    estimate_time_steps,
    nodes_for_strong_scaling_limit,
)
from repro.ns.bc import BoundaryConditions, PressureDirichlet, VelocityDirichlet
from repro.perf.flops import chebyshev_iteration_flops


class TestBoundaryConditions:
    def test_default_is_no_slip(self):
        bcs = BoundaryConditions()
        bc = bcs.get(42)
        assert isinstance(bc, VelocityDirichlet)
        g = np.asarray(bc.g(np.ones(3), np.ones(3), np.ones(3), 0.0))
        assert np.allclose(g, 0.0)

    def test_classification(self):
        bcs = BoundaryConditions({1: PressureDirichlet(2.0),
                                  2: VelocityDirichlet.no_slip()})
        present = (1, 2, 3)
        assert bcs.pressure_dirichlet_ids(present) == (1,)
        assert bcs.velocity_dirichlet_ids(present) == (2, 3)  # 3 defaults

    def test_constant_pressure_value(self):
        bc = PressureDirichlet(5.0)
        v = bc.value(np.zeros(4), np.zeros(4), np.zeros(4), 1.0)
        assert np.allclose(v, 5.0)

    def test_callable_pressure_value(self):
        bc = PressureDirichlet(lambda x, y, z, t: x + t)
        v = bc.value(np.array([1.0, 2.0]), 0, 0, 0.5)
        assert np.allclose(v, [1.5, 2.5])

    def test_wrong_kind_access_raises(self):
        bcs = BoundaryConditions({1: PressureDirichlet(0.0)})
        with pytest.raises(KeyError):
            bcs.velocity_value(1, 0, 0, 0, 0)
        with pytest.raises(KeyError):
            bcs.pressure_value(2, 0, 0, 0, 0)  # id 2 defaults to velocity

    def test_set_overrides(self):
        bcs = BoundaryConditions()
        bcs.set(7, PressureDirichlet(1.0))
        assert isinstance(bcs.get(7), PressureDirichlet)


class TestPerformanceModelPieces:
    def test_chebyshev_update_flops(self):
        assert chebyshev_iteration_flops(3, 64) == 6 * 64

    def test_estimate_cells_monotone(self):
        cells = [estimate_cells(g) for g in (3, 5, 7, 9, 11)]
        assert all(b > a for a, b in zip(cells, cells[1:]))

    def test_estimate_time_steps_tracks_tidal_volume(self):
        n1 = estimate_time_steps(7, tidal_volume=250e-6)
        n2 = estimate_time_steps(7, tidal_volume=500e-6)
        assert np.isclose(n2 / n1, 2.0, rtol=1e-12)  # Eq. (8): N ~ V_T

    def test_nodes_power_of_two(self):
        for cells in (1e3, 1e4, 3.5e5):
            n = nodes_for_strong_scaling_limit(cells)
            assert n >= 1 and (n & (n - 1)) == 0
