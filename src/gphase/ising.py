"""Decoherence factor of a transverse-field Ising chain environment.

The chain H(lam) = -J (sum_n Z_n Z_{n+1} + lam X_n), periodic, N even, is
free-fermion solvable; momentum modes k = (2m-1) pi/N decouple into 2x2
blocks.  A system spin dephasing against the chain shifts the transverse
field between its two branches, so the decoherence factor is a product of
per-mode overlaps

    r(t) = prod_{k>0} [cos(e_hi t) + i cos(D_k) sin(e_hi t)] e^{-i e_lo t},

with e_k = 2 J sqrt(1 + lam^2 - 2 lam cos k) at each branch and D_k the
angle between the mode's ground-state directions, each in closed form.  The
chain starts in its ground state at lam and the branch fields are (lam,
lam+delta), the one-sided Loschmidt echo under which the closed forms in
:mod:`gphase.perturbative` are written.  Where |r| falls below exp(-700)
its phase is lost, and MagnitudeUnderflow names the time.  Its second routes
are D_k as a difference of Bogoliubov angles (``reference.bogoliubov_angle``)
and dense 2^N diagonalization for N <= 11 (``reference.brute_force_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MagnitudeUnderflow, ValidationError
from .gp import DecoherenceTrace, SystemParams, build_trace

_LOG_FLOOR = -700.0
# mode-samples per block of the streamed product: 256 KB per work buffer, cache-sized;
# at 4097 times a smaller block pays its dozen numpy calls per block too often
_BLOCK_SAMPLES = 2**15


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


def dispersion(lam: float, k, j_coupling: float = 1.0):
    """Quasiparticle energy e_k = 2 J sqrt(1 + lam^2 - 2 lam cos k) at a scalar field, as
    2 J sqrt((1 - lam)^2 + 4 lam sin^2(k/2)) for lam >= 0, else 2 J sqrt((1 + lam)^2
    + 4 |lam| cos^2(k/2)): two non-negative terms, accurate where the gap closes."""
    if lam >= 0:
        return 2.0 * j_coupling * np.sqrt((1.0 - lam) ** 2 + 4.0 * lam * np.sin(0.5 * k) ** 2)
    return 2.0 * j_coupling * np.sqrt((1.0 + lam) ** 2 - 4.0 * lam * np.cos(0.5 * k) ** 2)


def _mode_constants(p: IsingBathParams):
    """Columns e_hi, sin^2 D, cos D, cos D - 1 and sum(e_hi - e_lo) of the product."""
    k = momenta(p.n_spins)[:, None]
    # |g_k> is an eigenstate of the lower branch: per-mode closed form
    lam, delta = (p.lam, p.coupling) if p.lam >= 0 else (-p.lam, -p.coupling)
    sin_k, two_s2 = np.sin(k), 2.0 * np.sin(0.5 * k) ** 2
    a_lo, a_hi = (lam - 1.0) + two_s2, (lam - 1.0 + delta) + two_s2
    e_lo, e_hi = dispersion(lam, k, p.j_coupling), dispersion(lam + delta, k, p.j_coupling)
    jj = 4.0 * p.j_coupling**2
    norm = jj / (e_lo * e_hi)
    sin2_d = (delta * sin_k * norm) ** 2
    cos_d = (a_lo * a_hi + sin_k**2) * norm
    # np.where evaluates both branches: 1 + |cos D| keeps the dropped one finite
    cos_d_m1 = np.where(cos_d > 0.0, -sin2_d / (1.0 + np.abs(cos_d)), cos_d - 1.0)
    return e_hi, sin2_d, cos_d, cos_d_m1, np.sum(delta * jj * (a_lo + a_hi) / (e_lo + e_hi))


def phase_rate_bound(p: IsingBathParams) -> float:
    """Bound on |d arg r / dt| in rad/s, attained at N = 2.  d(arg z_k - e_hi t)/dt =
    e_hi [cos D / (1 - sin^2 D sin^2(e_hi t)) - 1] lies between e_hi (cos D - 1) and e_hi
    (1/cos D - 1), so sum(e_hi |cos D - 1| / |cos D|) + |sum(e_hi - e_lo)|: inf at cos D = 0."""
    e_hi, _, cos_d, cos_d_m1, gap_sum = _mode_constants(p)
    with np.errstate(divide="ignore"):
        return float(np.sum(e_hi * np.abs(cos_d_m1) / np.abs(cos_d)) + abs(gap_sum))


def chain_trace(p: IsingBathParams, sysp: SystemParams, samples: int) -> DecoherenceTrace:
    """``build_trace`` of ``decoherence_product`` under its declared ``phase_rate_bound``."""
    return build_trace(lambda t: decoherence_product(p, t), sysp, samples, phase_rate_bound(p))


def decoherence_product(p: IsingBathParams, t):
    """Decoherence factor as the product over positive momenta.

    Accumulates sum(log R_k) and the total phase in log space, so deep
    collapses do not underflow mode by mode.  If the summed log magnitude
    falls below -700 at some time (-inf included: a mode overlap of exactly
    0), MagnitudeUnderflow names the first such time and its log|r|; a NaN
    is returned as it is.  delta = 0 returns exactly 1.  Vectorized in t: the
    result has t's shape (a complex for scalar t).

    With a = lam - cos k = (lam - 1) + 2 sin^2(k/2), the mode constants are
    sin D = -4 J^2 delta sin k / (e_lo e_hi), cos D = 4 J^2 (a_lo a_hi +
    sin^2 k) / (e_lo e_hi), cos D - 1 = -sin^2 D / (1 + cos D) where cos D > 0
    and e_hi - e_lo = 4 J^2 delta (a_lo + a_hi) / (e_lo + e_hi): each vanishes
    with delta, and none is a difference of angles or energies.  A negative
    lam is taken at (-lam, -delta), where a has no cancellation at the gap:
    k -> pi - k maps the momenta onto themselves and r(lam, delta) onto
    r(-lam, -delta).  From T = tan(e_hi t), mode k contributes

        log|z_k|^2 = log1p(-sin^2 D T^2 / (1 + T^2)),
        arg z_k - e_hi t = atan2((cos D - 1) T, 1 + cos D T^2),

    and the phase is t sum(e_hi - e_lo) plus these bounded angles.  log1p
    keeps the O(delta^2) term that forming |z_k|^2 would round away, and at
    the tangent's pole T is huge but finite.  Blocks of about
    ``_BLOCK_SAMPLES`` mode-samples are evaluated in place in three reused
    buffers (11 array passes per mode-sample), and one reduction per block,
    down the rows of two of them, adds the block into the two length-M sums
    in mode order (2 more): a work set of 3 (rows + 1) M doubles for M
    times, bits independent of block size.
    """
    t = np.asarray(t, dtype=float)
    # a lone time is evaluated twice: with one column numpy would run the reduction
    # along the modes as its inner loop, which sums pairwise, not in mode order
    tt = np.repeat(t.reshape(-1), 2) if t.size == 1 else t.reshape(-1)
    e_hi, sin2_d, cos_d, cos_d_m1, gap_sum = _mode_constants(p)
    rows = min(e_hi.shape[0], max(1, _BLOCK_SAMPLES // max(tt.size, 1)))
    # row 0 of each buffer carries the running sums into the next block's reduction
    work = np.empty((3, rows + 1, tt.size))
    sums = np.zeros((2, tt.size))  # phase, log|r|^2
    for start in range(0, e_hi.shape[0], rows):
        blk = slice(start, start + rows)
        end = 1 + e_hi[blk].shape[0]
        u, u2, v = work[:, 1:end]
        np.tan(np.multiply(e_hi[blk], tt, out=u), out=u)
        np.multiply(u, u, out=u2)
        np.divide(u2, np.add(1.0, u2, out=v), out=v)  # sin^2(e_hi t)
        np.multiply(-sin2_d[blk], v, out=v)
        with np.errstate(divide="ignore"):  # a mode overlap of exactly 0 gives -inf
            np.log1p(v, out=v)
        np.add(1.0, np.multiply(cos_d[blk], u2, out=u2), out=u2)
        np.arctan2(np.multiply(cos_d_m1[blk], u, out=u), u2, out=u)
        # across C-ordered rows numpy adds row after row, in mode order, onto the
        # running sums: the bits do not depend on the block size
        work[::2, 0] = sums
        np.add.reduce(work[::2, :end], axis=1, out=sums)
    phase, log_mag = sums
    log_mag *= 0.5
    phase += gap_sum * tt

    under = np.flatnonzero(log_mag < _LOG_FLOOR)
    if under.size:
        i = under[0]
        raise MagnitudeUnderflow(
            f"log|r({float(tt[i])!r})| = {log_mag[i]:.6g} is below {_LOG_FLOOR}")
    out = (np.exp(log_mag) * np.exp(1j * phase))[:t.size]
    return out.reshape(t.shape) if t.ndim else complex(out[0])
