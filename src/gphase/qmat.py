"""Dense complex linear algebra for small quantum systems.

Everything here operates on plain numpy arrays (complex128).  Matrices are
row-major; composite systems use the (system x environment) Kronecker
ordering.  Basis convention: Z|0> = +|0>, Z|1> = -|1>.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix, NonHermitianInput

HERMITICITY_TOL = 1e-12
MAX_DIM = 2**11  # dense oracle ceiling

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def check_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising NonHermitianInput beyond ``tol``."""
    m = _as_square(m)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol or not np.all(np.isfinite(m)):
        raise NonHermitianInput(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.1e}")
    return m


def expm_hermitian(h, t: float) -> np.ndarray:
    """Unitary propagator exp(-i*h*t) of a Hermitian generator ``h``.

    Computed by eigendecomposition, which is exact (to roundoff) for the
    long products of propagators used elsewhere in the package.
    """
    h = check_hermitian(h)
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def kron(a, b) -> np.ndarray:
    """Tensor product a (x) b with the row-major index convention."""
    a = _as_square(a)
    b = _as_square(b)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise DimensionMismatch(f"product dimension {dim} exceeds ceiling {MAX_DIM}")
    return np.kron(a, b)


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


def partial_trace_env(rho, validate: bool = True) -> np.ndarray:
    """Trace out the second qubit of a 4x4 two-qubit density matrix."""
    rho = _check_density(rho) if validate else _as_square(rho)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"expected 4x4, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)
