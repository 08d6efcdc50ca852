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


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_density(rho, trace_tol: float = 1e-10, psd_floor: float = -1e-10) -> np.ndarray:
    rho = _as_square(rho)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidDensityMatrix("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise InvalidDensityMatrix(f"trace {tr!r} deviates from 1 beyond {trace_tol}")
    if np.min(np.linalg.eigvalsh(rho)) < psd_floor:
        raise InvalidDensityMatrix("density matrix has a negative eigenvalue")
    return rho


def partial_trace_env(rho) -> np.ndarray:
    """Trace out the second qubit of a 4x4 two-qubit density matrix."""
    rho = _check_density(rho)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"expected 4x4, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)
