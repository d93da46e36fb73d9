"""Tests of divergence detection, rollback/retry, and StepFailure."""

import numpy as np
import pytest

from repro.mesh.generators import box
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    SolverSettings,
    VelocityDirichlet,
)
from repro.robustness import (
    RobustnessSettings,
    StepFailure,
    recoverable_step,
    validate_scheme_state,
)
from repro.telemetry import METRICS, render_robustness, snapshot_doc


@pytest.fixture
def metrics():
    """The global metric registry, enabled and zeroed for one test."""
    METRICS.reset()
    METRICS.enable()
    yield METRICS
    METRICS.disable()
    METRICS.reset()


def beltrami_solver(robustness=None):
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(1)
    flow = BeltramiFlow(0.05)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
    )
    s = IncompressibleNavierStokesSolver(
        forest, 2, 0.05, bcs, SolverSettings(solver_tolerance=1e-8),
        robustness=robustness,
    )
    s.initialize(flow.velocity)
    return s


class FaultyConvective:
    """Proxy around the convective operator that poisons the result of
    selected ``apply`` calls (1-based), or of every call from
    ``persistent_from`` on."""

    def __init__(self, inner, fail_calls=(), persistent_from=None):
        self.inner = inner
        self.fail_calls = set(fail_calls)
        self.persistent_from = persistent_from
        self.calls = 0

    def apply(self, u, t):
        self.calls += 1
        out = self.inner.apply(u, t)
        if self.calls in self.fail_calls or (
            self.persistent_from is not None and self.calls >= self.persistent_from
        ):
            out = np.array(out)
            out[0] = np.nan
        return out


class FakeScheme:
    def __init__(self, u, p=None, conv=None):
        self.u_history = [np.asarray(u, dtype=float)]
        self.p_history = [np.asarray(p, dtype=float)] if p is not None else []
        self.conv_history = [np.asarray(conv, dtype=float)] if conv is not None \
            else [np.zeros_like(self.u_history[0])]


class TestValidateSchemeState:
    def setup_method(self):
        self.settings = RobustnessSettings()

    def test_clean_state_passes(self):
        s = FakeScheme([1.0, 2.0], p=[0.5], conv=[0.1, 0.2])
        assert validate_scheme_state(s, 1.0, self.settings) is None

    def test_nan_velocity(self):
        s = FakeScheme([1.0, np.nan])
        assert validate_scheme_state(s, 1.0, self.settings) == "non_finite_velocity"

    def test_inf_pressure(self):
        s = FakeScheme([1.0, 2.0], p=[np.inf])
        assert validate_scheme_state(s, 1.0, self.settings) == "non_finite_pressure"

    def test_nan_convective_eval_caught(self):
        # velocity and pressure are fine, but the cached convective term
        # would poison the next step's extrapolation
        s = FakeScheme([1.0, 2.0], p=[0.5], conv=[np.nan, 0.0])
        assert validate_scheme_state(s, 1.0, self.settings) == "non_finite_convective"

    def test_energy_blowup(self):
        s = FakeScheme([1e6, 1e6])
        settings = RobustnessSettings(energy_growth_limit=100.0)
        assert validate_scheme_state(s, 1.0, settings) == "energy_blowup"

    def test_energy_check_disabled_from_rest(self):
        # prev_energy == 0 (start from rest): growth factor is undefined
        s = FakeScheme([1e6, 1e6])
        settings = RobustnessSettings(energy_growth_limit=100.0)
        assert validate_scheme_state(s, 0.0, settings) is None


class TestRecoverableStep:
    def test_transient_fault_recovers_with_backoff(self, metrics):
        solver = beltrami_solver()
        scheme = solver.scheme
        scheme.ops.convective = FaultyConvective(
            scheme.ops.convective, fail_calls={1}
        )
        settings = RobustnessSettings(max_step_retries=2, dt_backoff=0.5)
        events = []
        stats = recoverable_step(scheme, 0.01, settings, events=events)
        # first attempt failed on the convective evaluation, the retry
        # ran at the backed-off step size
        assert stats.dt == pytest.approx(0.005)
        assert scheme.t == pytest.approx(0.005)
        assert np.isfinite(scheme.velocity).all()
        assert len(events) == 1
        assert events[0].kind == "step_retry"
        assert events[0].reason == "non_finite_convective"
        assert events[0].dt == pytest.approx(0.01)
        retries = metrics.get("repro_recovery_step_retries_total")
        assert retries.labels("non_finite_convective").value == 1
        assert metrics.get("repro_recovery_step_failures_total").children == {}

    def test_step_failure_counted_by_reason(self, metrics):
        """Every failed validation is counted once under its reason: the
        retries plus the abandoning failure add up to the attempts."""
        solver = beltrami_solver()
        scheme = solver.scheme
        scheme.ops.convective = FaultyConvective(
            scheme.ops.convective, persistent_from=1
        )
        settings = RobustnessSettings(max_step_retries=2, dt_backoff=0.5)
        with pytest.raises(StepFailure) as exc_info:
            recoverable_step(scheme, 0.01, settings)
        err = exc_info.value
        retries = metrics.get("repro_recovery_step_retries_total")
        failures = metrics.get("repro_recovery_step_failures_total")
        assert retries.labels(err.reason).value == 2
        assert failures.labels(err.reason).value == 1
        assert (retries.labels(err.reason).value
                + failures.labels(err.reason).value) == err.attempts
        out = render_robustness(snapshot_doc(metrics)["metrics"])
        assert "step retries [reason=non_finite_convective]" in out
        assert "step failures [reason=non_finite_convective]" in out

    def test_persistent_fault_raises_step_failure(self):
        solver = beltrami_solver()
        scheme = solver.scheme
        scheme.ops.convective = FaultyConvective(
            scheme.ops.convective, persistent_from=1
        )
        settings = RobustnessSettings(max_step_retries=2, dt_backoff=0.5)
        t0 = scheme.t
        u0 = scheme.u_history[0].copy()
        n_stats = len(scheme.statistics)
        events = []
        with pytest.raises(StepFailure) as exc_info:
            recoverable_step(scheme, 0.01, settings, events=events)
        err = exc_info.value
        assert err.reason == "non_finite_convective"
        assert err.attempts == 3  # 1 try + 2 retries
        assert err.dt == pytest.approx(0.01 * 0.5**2)
        # the scheme is rolled back to its pre-step state
        assert scheme.t == t0
        assert np.array_equal(scheme.u_history[0], u0)
        assert len(scheme.statistics) == n_stats
        kinds = [e.kind for e in events]
        assert kinds == ["step_retry", "step_retry", "step_failure"]

    def test_clean_step_takes_no_events(self):
        solver = beltrami_solver()
        events = []
        settings = RobustnessSettings()
        stats = recoverable_step(solver.scheme, 0.01, settings, events=events)
        assert stats.dt == pytest.approx(0.01)
        assert events == []


class TestSolverIntegration:
    def test_solver_routes_steps_through_recovery(self):
        rb = RobustnessSettings(max_step_retries=2, dt_backoff=0.5)
        solver = beltrami_solver(robustness=rb)
        scheme = solver.scheme
        scheme.ops.convective = FaultyConvective(
            scheme.ops.convective, fail_calls={1}
        )
        stats = solver.step(0.01)
        assert stats.dt == pytest.approx(0.005)
        assert len(solver.recovery_log) == 1
        assert solver.recovery_log[0].reason == "non_finite_convective"
        # subsequent clean steps add nothing
        solver.step(0.01)
        assert len(solver.recovery_log) == 1

    def test_zero_retries_disables_the_harness(self):
        # a zero retry budget bypasses the validation harness entirely
        rb = RobustnessSettings(max_step_retries=0)
        solver = beltrami_solver(robustness=rb)
        stats = solver.step(0.01)
        assert np.isfinite(stats.dt)
        assert solver.recovery_log == []
