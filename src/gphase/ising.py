"""Decoherence factor of a transverse-field Ising chain environment.

The chain H(lam) = -J (sum_n Z_n Z_{n+1} + lam X_n), periodic, N even, is
free-fermion solvable; momentum modes k = (2m-1) pi/N decouple into 2x2
blocks.  A system spin dephasing against the chain shifts the transverse
field between its two branches, so the decoherence factor is a product of
per-mode overlaps

    r(t) = prod_{k>0} R_k(t) exp(i (phi_k(t) - eps_k t)),

with eps_k = 2 J sqrt(1 + lam^2 - 2 lam cos k) and the Bogoliubov angle
theta_k = atan2(sin k, lam - cos k).  The chain starts in its ground state
at lam and the branch fields are (lam, lam+delta), the one-sided Loschmidt
echo under which the closed forms in :mod:`gphase.perturbative` are written.
``brute_force_oracle`` checks the product against dense 2^N diagonalization
for N <= 11.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, MagnitudeUnderflow, ValidationError
from .qmat import I2, X, Z

_LOG_FLOOR = -700.0
# mode-samples per block of the streamed product: a few MB of temporaries
_BLOCK_SAMPLES = 2**16


@dataclass(frozen=True)
class IsingBathParams:
    """Transverse-field Ising chain environment and its field-shift coupling."""

    n_spins: int       # N, even, >= 2
    j_coupling: float  # J, rad/s
    lam: float         # dimensionless transverse field, critical at 1
    coupling: float    # delta, dimensionless shift of lam

    def __post_init__(self):
        if not np.all(np.isfinite([self.j_coupling, self.lam, self.coupling])):
            raise ValidationError(f"j_coupling, lam and coupling must be finite, got {self}")
        if self.n_spins < 2 or self.n_spins % 2 != 0:
            raise ValidationError(f"n_spins must be even and >= 2, got {self.n_spins}")
        if not (self.j_coupling > 0):
            raise ValidationError(f"j_coupling must be positive, got {self.j_coupling}")


def momenta(n_spins: int) -> np.ndarray:
    """Positive momenta k = (2m - 1) pi / N, m = 1 .. N/2."""
    m = np.arange(1, n_spins // 2 + 1)
    return (2.0 * m - 1.0) * np.pi / n_spins


def dispersion(lam, k, j_coupling: float = 1.0):
    """Quasiparticle energy eps_k = 2 J sqrt(1 + lam^2 - 2 lam cos k)."""
    return 2.0 * j_coupling * np.sqrt(1.0 + lam**2 - 2.0 * lam * np.cos(k))


def bogoliubov_angle(lam, k):
    """theta_k with tan(theta_k) = sin k / (lam - cos k), quadrant-aware."""
    return np.arctan2(np.sin(k), lam - np.cos(k))


def decoherence_product(p: IsingBathParams, t):
    """Decoherence factor as the product over positive momenta.

    Accumulates sum(log R_k) and the total phase in log space, so deep
    collapses do not underflow mode by mode.  If the summed log magnitude
    falls below -700 a MagnitudeUnderflow warning is issued and the value is
    flushed to zero.  delta = 0 returns exactly 1.  Vectorized in t: the
    result has t's shape (a complex for scalar t).

    Mode k contributes z_k = cos(x) + i cos(D) sin(x), with x = e_hi t at the
    upper field and D = theta_hi - theta_lo.  Both parts come from the one
    half-angle tangent u = tan(x / 2), with sin(x) = 2u / (1 + u^2):

        log|z_k| = 1/2 log1p(-sin^2(D) 4u^2 / (1 + u^2)^2),
        arg z_k  = atan2(2 cos(D) u, 1 - u^2).

    At weak coupling |z_k|^2 = 1 - sin^2(D) sin^2(x) lies within O(delta^2)
    of 1, where rounding |z_k|^2 itself would lose the digits of the small
    term; log1p takes that term directly.  At the pole x = pi of the
    tangent, u is huge but finite and both forms stay finite (z_k = -1).

    The modes are streamed in blocks of about ``_BLOCK_SAMPLES`` mode-samples
    and each block's rows are added into the two length-M sums in mode order,
    so memory is O(M) for M times rather than O(N M), and the result does not
    depend on the block size.
    """
    t = np.asarray(t, dtype=float)
    tt = t.reshape(-1)
    k = momenta(p.n_spins)[:, None]
    lam_hi = p.lam + p.coupling
    rows = max(1, _BLOCK_SAMPLES // max(tt.size, 1))

    # |g_k> is an eigenstate of the lower branch: per-mode closed form
    log_mag = np.zeros(tt.size)
    phase = np.zeros(tt.size)
    for start in range(0, k.shape[0], rows):
        kb = k[start:start + rows]
        d = bogoliubov_angle(lam_hi, kb) - bogoliubov_angle(p.lam, kb)
        u = np.tan(0.5 * dispersion(lam_hi, kb, p.j_coupling) * tt)
        u2 = u * u
        sin_wt = 2.0 * u / (1.0 + u2)
        with np.errstate(divide="ignore"):  # a mode overlap of exactly 0 gives -inf
            log_z = 0.5 * np.log1p(-np.sin(d) ** 2 * sin_wt * sin_wt)
        angle_z = np.arctan2(2.0 * np.cos(d) * u, 1.0 - u2)
        # row by row: a per-block np.sum would make the bits depend on the block size
        for row_mag, row_angle in zip(log_z, angle_z):
            log_mag += row_mag
            phase += row_angle
    phase -= np.sum(dispersion(p.lam, k, p.j_coupling)) * tt

    under = log_mag < _LOG_FLOOR
    if np.any(under):
        warnings.warn(
            f"product magnitude underflowed exp({_LOG_FLOOR}); flushed to 0",
            MagnitudeUnderflow,
            stacklevel=2,
        )
    out = np.where(under, 0.0, np.exp(np.maximum(log_mag, _LOG_FLOOR))) * np.exp(1j * phase)
    return out.reshape(t.shape) if t.ndim else complex(out[0])


def _dense_chain(n: int, lam: float, j_coupling: float) -> np.ndarray:
    """Dense -J (sum Z_n Z_{n+1} + lam sum X_n) with periodic boundaries."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        zz = np.ones((1, 1), dtype=complex)
        for m in range(n):
            on = Z if m in (site, (site + 1) % n) else I2
            zz = np.kron(zz, on)
        h -= j_coupling * zz
        xs = np.ones((1, 1), dtype=complex)
        for m in range(n):
            xs = np.kron(xs, X if m == site else I2)
        h -= j_coupling * lam * xs
    return h


def brute_force_oracle(p: IsingBathParams, t):
    """Exact 2^N decoherence factor <g| e^{+i H(lam) t} e^{-i H(lam+delta) t} |g>.

    |g> is the dense ground state of the chain at field lam.  N <= 11 only.
    """
    if p.n_spins > 11:
        raise DimensionTooLarge(f"dense oracle limited to N <= 11, got {p.n_spins}")
    t = np.asarray(t, dtype=float)
    tt = t if t.ndim else t.reshape(1)

    w_g, v_g = np.linalg.eigh(_dense_chain(p.n_spins, p.lam, p.j_coupling))
    g = v_g[:, 0]

    # e^{+i H(lam) t}|g> is a pure phase e^{-i E_g t} acting leftwards
    w_hi, v_hi = np.linalg.eigh(_dense_chain(p.n_spins, p.lam + p.coupling, p.j_coupling))
    weights = np.abs(v_hi.conj().T @ g) ** 2
    out = np.exp(1j * w_g[0] * tt) * (weights @ np.exp(-1j * np.outer(w_hi, tt)))
    return out if t.ndim else complex(out[0])
