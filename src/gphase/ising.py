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
Its second route, dense 2^N diagonalization for N <= 11, is
``reference.brute_force_oracle``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeUnderflow, ValidationError

_LOG_FLOOR = -700.0
# mode-samples per block of the streamed product: 512 KB per work buffer
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

        log|z_k| = 1/2 log1p(-4 sin^2(D) (u / (1 + u^2))^2),
        arg z_k  = atan2(2 cos(D) u, 1 - u^2).

    At weak coupling |z_k|^2 = 1 - sin^2(D) sin^2(x) lies within O(delta^2)
    of 1, where rounding |z_k|^2 itself would lose the digits of the small
    term; log1p takes that term directly.  At the pole x = pi of the
    tangent, u is huge but finite and both forms stay finite (z_k = -1).

    The mode constants e_hi/2, -4 sin^2(D) and 2 cos(D) are formed once per
    call and the 1/2 of log|z_k| is applied to the sum, exact scalings that
    keep every bit.  Blocks of about ``_BLOCK_SAMPLES`` mode-samples are
    evaluated in place in four reused buffers (11 array passes per
    mode-sample) and their rows added into the two length-M sums in mode
    order (2 more): O(M) memory for M times, bits independent of block size.
    """
    t = np.asarray(t, dtype=float)
    tt = t.reshape(-1)
    k = momenta(p.n_spins)[:, None]
    lam_hi = p.lam + p.coupling
    rows = min(k.shape[0], max(1, _BLOCK_SAMPLES // max(tt.size, 1)))

    # |g_k> is an eigenstate of the lower branch: per-mode closed form
    d = bogoliubov_angle(lam_hi, k) - bogoliubov_angle(p.lam, k)
    half_e = 0.5 * dispersion(lam_hi, k, p.j_coupling)
    c_mag, c_arg = 4.0 * -np.sin(d) ** 2, 2.0 * np.cos(d)
    work = np.empty((4, rows, tt.size))
    log_mag, phase = np.zeros((2, tt.size))
    for start in range(0, k.shape[0], rows):
        blk = slice(start, start + rows)
        u, u2, s, v = work[:, :half_e[blk].shape[0]]
        np.tan(np.multiply(half_e[blk], tt, out=u), out=u)
        np.multiply(u, u, out=u2)
        np.divide(u, np.add(1.0, u2, out=s), out=s)  # sin(x) / 2
        np.multiply(np.multiply(c_mag[blk], s, out=v), s, out=v)
        with np.errstate(divide="ignore"):  # a mode overlap of exactly 0 gives -inf
            np.log1p(v, out=v)
        np.multiply(c_arg[blk], u, out=u)
        np.arctan2(u, np.subtract(1.0, u2, out=u2), out=u)
        # row by row: a per-block np.sum would make the bits depend on the block size
        for row_mag, row_angle in zip(v, u):
            log_mag += row_mag
            phase += row_angle
    log_mag *= 0.5
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
