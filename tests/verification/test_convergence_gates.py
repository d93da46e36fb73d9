"""Refinement-ladder rate gates (convergence tier — minutes, not seconds).

Run with ``pytest --run-convergence`` or ``pytest -m convergence``.

These are the acceptance gates of the verification subsystem: the DG
Poisson ladder must deliver L2 order k+1, the dual-splitting scheme
order 2 in dt, and — just as important — a deliberately broken operator
must FAIL the gate, proving the machinery can catch order-destroying
bugs (dropped face terms) and not merely bless whatever rate appears.
"""

import numpy as np
import pytest

from repro.core.operators import DGLaplaceOperator
from repro.verification import (
    ConvergenceFailure,
    assert_rate,
    beltrami_temporal_gate,
    poisson_spatial_ladder,
    womersley_temporal_ladder,
)

pytestmark = pytest.mark.convergence


class TestPoissonSpatialOrder:
    def test_k2_rate_is_cubic(self):
        study = poisson_spatial_ladder(degree=2, levels=(1, 2, 3))
        assert_rate(study)
        assert study.fitted_rate > 2.6

    def test_k3_rate_is_quartic(self):
        study = poisson_spatial_ladder(degree=3, levels=(1, 2))
        assert_rate(study)
        assert study.fitted_rate > 3.6


class _LaplaceWithoutConsistencyTerms(DGLaplaceOperator):
    """Injected bug: the SIP face flux with the consistency and
    adjoint-consistency terms dropped — only the jump penalty survives.
    This is exactly the class of bug (a lost face-integral term) the
    rate gate exists to catch: the operator stays symmetric positive
    definite and produces plausible-looking solutions, but the scheme is
    inconsistent and the L2 order collapses.  The coefficient hook
    keeps the penalty ``a`` and zeroes ``b``, the weight of every
    normal derivative."""

    def _face_coefficients(self, c, w, tau):
        a, b = super()._face_coefficients(c, w, tau)
        return a, np.zeros_like(b)


class TestGateCatchesInjectedBug:
    def test_dropped_face_terms_fail_the_gate(self):
        study = poisson_spatial_ladder(
            degree=2,
            levels=(1, 2, 3),
            operator_cls=_LaplaceWithoutConsistencyTerms,
            preconditioner="inverse_mass",
        )
        with pytest.raises(ConvergenceFailure) as exc:
            assert_rate(study)
        assert "poisson_dg_k2" in str(exc.value)
        # the healthy operator clears 2.6 (see above); the broken one
        # must land far below it, not just graze the tolerance
        assert study.fitted_rate < 2.0


class TestTemporalOrder:
    def test_dual_splitting_beltrami_is_second_order(self):
        study = beltrami_temporal_gate()
        assert_rate(study)
        # the dt^2 signal must dominate the spatial floor: errors keep
        # falling at the finest step instead of flattening out
        assert study.pairwise[-1] > 1.6

    def test_dual_splitting_womersley_is_second_order(self):
        study = womersley_temporal_ladder()
        assert_rate(study)


@pytest.mark.nightly
class TestNightlyDeepLadders:
    """Deeper, slower ladders than the convergence tier affords —
    scheduled CI only (``--run-nightly``)."""

    def test_poisson_k3_three_level_ladder(self):
        study = poisson_spatial_ladder(degree=3, levels=(1, 2, 3))
        assert_rate(study)
        assert study.fitted_rate > 3.6

    def test_beltrami_gate_extended_ladder(self):
        study = beltrami_temporal_gate(steps=(16, 32, 64, 128))
        assert_rate(study)
