"""Pauli matrices and the two-qubit partial trace.

Everything here operates on plain numpy arrays (complex128).  Matrices are
row-major; composite systems use the (system x environment) Kronecker
ordering of ``np.kron``.  Basis convention: Z|0> = +|0>, Z|1> = -|1>.
``partial_trace_env`` is the dense reference the protocol's single-einsum
coherence readout is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# Largest deviation of a density matrix's trace from 1, and its smallest
# eigenvalue, that _check_density accepts.
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-10


def _check_density(rho: np.ndarray) -> np.ndarray:
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidDensityMatrix("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidDensityMatrix(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    if np.min(np.linalg.eigvalsh(rho)) < PSD_FLOOR:
        raise InvalidDensityMatrix("density matrix has a negative eigenvalue")
    return rho


def partial_trace_env(rho) -> np.ndarray:
    """Trace out the second qubit of a 4x4 two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"expected 4x4, got {rho.shape}")
    r = _check_density(rho).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)
