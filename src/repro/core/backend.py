"""Compute-dtype policy of the kernel layer.

The kernels run on NumPy arrays in one of two precisions.  Which one is
decided by the *data*: an operator carries its ``dtype``
(``operator_to_dtype`` / ``RunConfig.compute_dtype`` choose it at
construction) and every kernel computes in the precision of the array it
is handed — there is no process-wide precision switch.

``kernel_dtype(input_dtype)``
    The precision a kernel computes in for a given input: float32 stays
    float32 (the whole point of the single-precision path — tabulated
    1D factors are cast once and cached, never promoted), everything
    else computes in float64.  Integer and half inputs are *promoted*
    to float64 rather than truncated.

``resolve_dtype(spec)``
    Normalizes ``"float32" | "float64" | np.dtype | None`` to a
    supported numpy dtype (``None`` → :data:`DEFAULT_DTYPE`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "kernel_dtype",
]

#: compute precision of everything not told otherwise (double, matching
#: the seed repo)
DEFAULT_DTYPE = np.dtype("float64")

#: dtypes the compute path is validated for
SUPPORTED_DTYPES = (np.dtype("float32"), np.dtype("float64"))

_FLOAT32 = np.dtype("float32")
_FLOAT64 = np.dtype("float64")


def resolve_dtype(spec) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float32``, ``None``…)
    to a supported numpy dtype.  ``None`` resolves to
    :data:`DEFAULT_DTYPE`."""
    if spec is None:
        return DEFAULT_DTYPE
    dt = np.dtype(spec)
    if dt not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dt} "
            f"(supported: {[d.name for d in SUPPORTED_DTYPES]})"
        )
    return dt


def kernel_dtype(input_dtype) -> np.dtype:
    """The dtype a kernel computes in for a given input dtype: float32
    inputs stay float32, everything else computes in float64."""
    return _FLOAT32 if np.dtype(input_dtype) == _FLOAT32 else _FLOAT64
