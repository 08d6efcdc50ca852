"""Second routes: the independent computations the runtime is checked against.

Every quantity the command line computes has a second route here, which the
tests and demos set beside it:

- the cycle phase by discrete parallel transport along rho(t)
  (``density_trajectory``, ``gp_from_trajectory``) against the closed form
  ``gp.geometric_phase``;
- the chain's decoherence factor by dense 2^N diagonalization
  (``brute_force_oracle``) against the mode product
  ``ising.decoherence_product``, and the mode's angle D as a difference of
  Bogoliubov angles (``bogoliubov_angle``) against its closed forms there;
- the weak-coupling expansion coefficients by Richardson finite differences
  in the coupling (``extract_coefficients_numeric``, ``gp_third_order``) and
  per mode (``mode_coefficients``) against the Ising closed forms of
  ``perturbative``;
- the smallest Trotter step count that meets the 0.3% fidelity budget
  (``find_min_trotter_steps``), frozen as ``PINNED_TROTTER_STEPS``;
- the dense two-qubit partial trace (``partial_trace_env``) against the
  protocol's single-einsum coherence readout;
- the complete elliptic integrals of the first and second kind
  (``elliptic_K``, ``elliptic_E``, each behind its domain check), which
  Legendre's relation sets side by side.

The errors that only these routes raise are defined here too.

The runtime never imports this module, so the code the command line runs
holds no checker of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import ellipe, ellipk

from .errors import GphaseError, InvalidDensityMatrix, ValidationError
from .gp import DecoherenceTrace, SystemParams, _simpson
from .ising import IsingBathParams, dispersion
from .perturbative import PerturbativeGp, _assemble
from .protocol import ProtocolParams, step_counts, worst_cycle_fidelity


class DimensionMismatch(GphaseError):
    """Operands have incompatible or unsupported dimensions."""


class EigenbranchCrossing(GphaseError):
    """Eigenvalue branches of the trajectory (nearly) cross; gauge smoothing unreliable."""


class DimensionTooLarge(GphaseError):
    """Dense many-body oracle requested beyond its size ceiling."""


class StencilConditioning(GphaseError):
    """Finite-difference coefficient extraction produced unphysical values."""


class DomainError(GphaseError):
    """Function argument outside its mathematical domain."""


# Smallest power-of-two step count for which the full-cycle Trotter fidelity
# stays at or above 0.997 across B in [-0.2 W, 0.2 W] at the reference
# parameters (G = 0.02 W, d = 0.1 W); found by find_min_trotter_steps and
# frozen here as a regression anchor.  One step per cycle already misses the
# 0.3% budget (worst fidelity 0.9947); two steps give 0.99979.
PINNED_TROTTER_STEPS = 2

# The 0.3% fidelity budget and the largest step count find_min_trotter_steps
# tries.
TROTTER_FIDELITY_THRESHOLD = 0.997
MAX_TROTTER_STEPS = 512


def density_trajectory(trace: DecoherenceTrace, params: SystemParams) -> np.ndarray:
    """Reduced density matrices rho(t_i) reconstructed from a trace.

    The coherence rotates once per cycle (e^{-i omega t} r(t)), the
    convention under which the trajectory route and the closed form agree.
    """
    theta = params.theta
    a = np.sin(theta / 2.0) ** 2
    c = 0.5 * np.sin(theta) * np.exp(-1j * params.omega * trace.times) * trace.r_values
    rho = np.zeros((len(trace.times), 2, 2), dtype=complex)
    rho[:, 0, 0] = a
    rho[:, 1, 1] = 1.0 - a
    rho[:, 0, 1] = c
    rho[:, 1, 0] = c.conj()
    return rho


def gp_from_trajectory(rho_t) -> float:
    """Geometric phase by discrete parallel transport of the + eigenbranch.

    Diagonalizes every rho(t_i), gauge-smooths the + eigenvectors by maximal
    overlap with the previous step, accumulates the parallel-transport factor
    through the overlap chain and returns the argument of the + mode summand.
    Result is defined mod 2*pi.  Raises EigenbranchCrossing if the two
    eigenvalue branches approach within 1e-8 anywhere on the grid.
    """
    rho = np.asarray(rho_t, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise ValidationError("expected an (M+1, 2, 2) stack of density matrices")
    if np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) > 1e-10:
        raise InvalidDensityMatrix("trajectory contains a non-Hermitian matrix")
    if np.max(np.abs(np.einsum("tii->t", rho).real - 1.0)) > 1e-10:
        raise InvalidDensityMatrix("trajectory contains a matrix with trace != 1")

    w, v = np.linalg.eigh(rho)
    if np.min(w[:, 1] - w[:, 0]) < 1e-8:
        raise EigenbranchCrossing("eigenvalue gap below 1e-8 on the trajectory")

    plus = v[:, :, 1]
    # gauge smoothing: rotate each vector so the step overlap is real positive
    ov = np.einsum("ti,ti->t", plus[:-1].conj(), plus[1:])
    gauge = np.concatenate([[1.0], np.exp(1j * np.cumsum(np.angle(ov)))])
    plus = plus * gauge[:, None].conj()

    transported = np.einsum("ti,ti->t", plus[:-1].conj(), plus[1:])
    # parallel-transport exponential: e^{-sum log <k_i|k_{i+1}>}; the smoothed
    # overlaps are real positive so only the endpoint overlap carries phase
    weight = np.sqrt(w[-1, 1] * w[0, 1]) * np.exp(-np.sum(np.log(transported.real)))
    summand = weight * np.vdot(plus[0], plus[-1])
    return float(np.angle(summand))


def bogoliubov_angle(lam, k):
    """theta_k with tan(theta_k) = sin k / (lam - cos k), quadrant-aware."""
    return np.arctan2(np.sin(k), lam - np.cos(k))


def _dense_chain(n: int, lam: float, j_coupling: float) -> np.ndarray:
    """Dense -J (sum Z_n Z_{n+1} + lam sum X_n) with periodic boundaries, built
    from the bits of each basis state (bit m is Z_m = +1 at 0, -1 at 1)."""
    state = np.arange(2**n)
    z = 1 - 2 * ((state[:, None] >> np.arange(n)) & 1)
    h = np.diag(-j_coupling * np.sum(z * np.roll(z, -1, axis=1), axis=1).astype(float))
    for m in range(n):
        h[state, state ^ (1 << m)] -= j_coupling * lam
    return h


def brute_force_oracle(p: IsingBathParams, t):
    """Exact 2^N decoherence factor <g| e^{+i H(lam) t} e^{-i H(lam+delta) t} |g>.

    |g> is the dense ground state of the chain at field lam.  N <= 11 only.
    The mode product's ground state is even under the parity prod X_n, which
    flips every spin, and both branches conserve it, so both are diagonalized
    in that sector, on the basis (|s> + |~s>)/sqrt(2): there the ground state
    stays defined where the odd sector's lies within rounding of it (lam near
    0, where the two are degenerate).
    """
    if p.n_spins > 11:
        raise DimensionTooLarge(f"dense oracle limited to N <= 11, got {p.n_spins}")
    t = np.asarray(t, dtype=float)
    tt = t if t.ndim else t.reshape(1)

    dim = 2**p.n_spins
    s = np.arange(dim // 2)
    even = np.zeros((dim, dim // 2))
    even[s, s] = even[dim - 1 - s, s] = np.sqrt(0.5)
    w_g, v_g = np.linalg.eigh(even.T @ _dense_chain(p.n_spins, p.lam, p.j_coupling) @ even)
    w_hi, v_hi = np.linalg.eigh(
        even.T @ _dense_chain(p.n_spins, p.lam + p.coupling, p.j_coupling) @ even)
    weights = (v_hi.T @ v_g[:, 0]) ** 2
    # e^{+i H(lam) t}|g> is a pure phase e^{-i E_g t} acting leftwards
    out = np.exp(1j * w_g[0] * tt) * (weights @ np.exp(-1j * np.outer(w_hi, tt)))
    return out if t.ndim else complex(out[0])


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention K(m)."""
    if not 0.0 <= m < 1.0:
        raise DomainError(f"K(m) requires 0 <= m < 1, got {m}")
    return float(ellipk(m))


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), parameter convention."""
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"E(m) requires 0 <= m <= 1, got {m}")
    return float(ellipe(m))


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coupling-expansion coefficients sampled on a time grid."""

    times: np.ndarray = field(repr=False)
    R2: np.ndarray = field(repr=False)     # d^2 decay coefficient of |r|^2
    R3: np.ndarray = field(repr=False)     # d^3 decay coefficient of |r|^2
    phi1: np.ndarray = field(repr=False)   # linear coefficient of arg r


def extract_coefficients_numeric(
    bath_sampler: Callable[[float, np.ndarray], np.ndarray],
    times,
    h: float,
) -> ExpansionCoefficients:
    """Expansion coefficients by Richardson finite differences in the coupling.

    ``bath_sampler(delta, times)`` must return the complex r(t) samples for
    coupling strength delta.  Even/odd separation over the +-h, +-2h stencil
    isolates R2 and R3 from 1 - |r|^2; phi1 comes from a fourth-order central
    difference of the unwrapped argument.  Raises StencilConditioning when
    the extracted R2 dips below -1e-9 (a symptom of a badly chosen h).
    """
    times = np.asarray(times, dtype=float)
    if h <= 0:
        raise ValidationError("stencil step h must be positive")

    def _g_and_phi(delta):
        r = np.asarray(bath_sampler(delta, times), dtype=complex)
        return 1.0 - np.abs(r) ** 2, np.unwrap(np.angle(r))

    g_p1, phi_p1 = _g_and_phi(h)
    g_m1, phi_m1 = _g_and_phi(-h)
    g_p2, phi_p2 = _g_and_phi(2.0 * h)
    g_m2, phi_m2 = _g_and_phi(-2.0 * h)

    even1 = (g_p1 + g_m1) / (2.0 * h**2)       # R2 + R4 h^2 + ...
    even2 = (g_p2 + g_m2) / (8.0 * h**2)       # R2 + 4 R4 h^2 + ...
    r2 = (4.0 * even1 - even2) / 3.0

    odd1 = (g_p1 - g_m1) / (2.0 * h**3)        # R3 + R5 h^2 + ...
    odd2 = (g_p2 - g_m2) / (16.0 * h**3)       # R3 + 4 R5 h^2 + ...
    r3 = (4.0 * odd1 - odd2) / 3.0

    phi1 = (8.0 * (phi_p1 - phi_m1) - (phi_p2 - phi_m2)) / (12.0 * h)

    if np.min(r2) < -1e-9:
        raise StencilConditioning(
            f"extracted R2 reaches {np.min(r2):.3e} < -1e-9; adjust the stencil step"
        )
    return ExpansionCoefficients(times=times, R2=r2, R3=r3, phi1=phi1)


def gp_third_order(
    coeffs: ExpansionCoefficients, sys: SystemParams, delta: float
) -> PerturbativeGp:
    """Assemble the weak-coupling phase correction from expansion coefficients.

    The coefficient grid must cover exactly one cycle [0, tau].
    """
    t = coeffs.times
    if abs(t[0]) > 0 or abs(t[-1] - sys.tau) > 1e-9 * sys.tau:
        raise ValidationError("coefficient grid must cover [0, tau]")
    dt = t[1] - t[0]
    return _assemble(
        sys.theta, sys.omega, delta, int_r2=_simpson(coeffs.R2, dt), r2_end=coeffs.R2[-1],
        p1_end=coeffs.phi1[-1], int_r3=_simpson(coeffs.R3, dt),
        int_cross=_simpson(coeffs.R2 * np.gradient(coeffs.phi1, dt, edge_order=2), dt),
    )


def mode_coefficients(lam: float, k, t):
    """Validated per-mode expansion coefficients (R2_k, R3_k, p1_k), J = 1 units."""
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    e = dispersion(lam, k)
    a = lam - np.cos(k)
    s2 = np.sin(k) ** 2
    et = e * t
    r2 = 16.0 * s2 * np.sin(et) ** 2 / e**4
    r3 = -128.0 * a * s2 * np.sin(et) * (np.sin(et) - et * np.cos(et)) / e**6
    p1 = 4.0 * t * a / e
    return r2, r3, p1


def find_min_trotter_steps(p: ProtocolParams, b_values) -> int:
    """Smallest power-of-two step count up to MAX_TROTTER_STEPS whose worst
    cycle fidelity over ``b_values`` meets TROTTER_FIDELITY_THRESHOLD."""
    for n in step_counts(MAX_TROTTER_STEPS):
        worst = worst_cycle_fidelity(replace(p, trotter_steps=n), b_values)
        if worst >= TROTTER_FIDELITY_THRESHOLD:
            return n
    raise ValidationError(
        f"no power-of-two step count <= {MAX_TROTTER_STEPS} reaches fidelity "
        f"{TROTTER_FIDELITY_THRESHOLD}"
    )


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
