"""Tests of the compute-dtype policy (:mod:`repro.core.backend`)."""

import numpy as np
import pytest

from repro.core.backend import DEFAULT_DTYPE, kernel_dtype, resolve_dtype


class TestDtypePolicy:
    def test_default_is_double(self):
        assert DEFAULT_DTYPE == np.dtype(np.float64)

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_dtype(np.float16)
        with pytest.raises(ValueError):
            resolve_dtype("int32")

    def test_resolve_accepts_spellings(self):
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        assert resolve_dtype(None) == DEFAULT_DTYPE

    def test_kernel_dtype(self):
        assert kernel_dtype(np.dtype(np.float32)) == np.dtype(np.float32)
        assert kernel_dtype(np.dtype(np.float64)) == np.dtype(np.float64)
        # integer/other inputs compute in double
        assert kernel_dtype(np.dtype(np.int64)) == np.dtype(np.float64)

    def test_precision_bytes(self):
        """Bytes per value follow the operator's compute dtype."""
        from repro.core.dof_handler import DGDofHandler
        from repro.core.operators import MassOperator
        from repro.mesh.generators import unit_cube
        from repro.mesh.mapping import GeometryField
        from repro.mesh.octree import Forest
        from repro.solvers.multigrid import operator_to_dtype

        forest = Forest(unit_cube())
        op = MassOperator(DGDofHandler(forest, 2), GeometryField(forest, 2))
        assert op.precision_bytes == 8
        assert operator_to_dtype(op, np.float32).precision_bytes == 4


class TestDtypeDefaults:
    def test_dof_handler_zeros_follow_compute_dtype(self):
        from repro.core.dof_handler import DGDofHandler
        from repro.mesh.generators import unit_cube
        from repro.mesh.octree import Forest

        dof = DGDofHandler(Forest(unit_cube()), 2)
        assert dof.zeros().dtype == np.float64
        assert dof.zeros(dtype=np.float32).dtype == np.float32

    def test_shape_matrices_for_dtype(self):
        from repro.core.basis import shape_matrices, shape_matrices_for_dtype

        sm64 = shape_matrices_for_dtype(3)
        # float64 returns the cached original, no copy
        assert sm64 is shape_matrices_for_dtype(3, dtype=np.float64)
        assert sm64.interp.dtype == np.float64
        sm32 = shape_matrices_for_dtype(3, dtype=np.float32)
        assert sm32.interp.dtype == np.float32
        assert sm32.grad.dtype == np.float32
        # cast once, cached: repeated calls return the same object
        assert shape_matrices_for_dtype(3, dtype=np.float32) is sm32
        # tabulated in double, cast after: values match to fp32 eps
        np.testing.assert_allclose(sm32.interp, sm64.interp, rtol=1e-6)

    def test_workspace_allocates_at_requested_dtype(self):
        from repro.core.plans import Workspace

        ws = Workspace()
        assert ws.take("a", (4, 4)).dtype == np.float64
        assert ws.take("b", (4, 4), dtype=np.float32).dtype == np.float32
        assert ws.zeros("c", (2,), dtype=np.float32).dtype == np.float32


class TestRunConfigDtype:
    def test_roundtrip_and_validation(self):
        from repro.robustness import RunConfig

        cfg = RunConfig(generations=1, compute_dtype="float32")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig().compute_dtype == "float64"
        with pytest.raises(ValueError):
            RunConfig(compute_dtype="float16")
