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
- the protocol's dense 4x4 model (``build_target_hamiltonian`` from the
  Pauli strings ``ZI``, ``ZZ``, ``IZ`` and ``IX``, and ``strang_product``,
  the Strang step as a product of ``_rotation`` matrices) against its
  closed-form blocks in ``protocol``;
- the smallest Trotter step count that meets the 0.3% fidelity budget
  (``find_min_trotter_steps``), frozen as ``PINNED_TROTTER_STEPS``, and the
  fidelity the commutator bound certifies over a whole field interval
  (``fidelity_bound``) against the scan on a grid;
- the dense two-qubit partial trace (``partial_trace_env``) against the
  protocol's single-einsum coherence readout;
- the one-qubit bath's second-order correction in closed form
  (``two_level_order2``; at that order the bath is one chain mode) against
  its oracle trace.

The errors that only these routes raise are defined here too.

The runtime never imports this module, so the code the command line runs
holds no checker of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import GphaseError, InvalidDensityMatrix, ValidationError
from .gp import DecoherenceTrace, SystemParams, _simpson
from .ising import IsingBathParams, dispersion
from .perturbative import PerturbativeGp, _assemble, _one_minus_sinc
from .protocol import ProtocolParams, step_counts, worst_cycle_fidelity
from .two_level import TwoLevelBathParams


# Pauli matrices, Z|0> = +|0>, and the Pauli strings of the protocol's H in the
# (system x environment) Kronecker order of np.kron.
I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ZI = np.kron(Z, I2)
ZZ = np.kron(Z, Z)
IZ = np.kron(I2, Z)
IX = np.kron(I2, X)


class DimensionMismatch(GphaseError):
    """Operands have incompatible or unsupported dimensions."""


class EigenbranchCrossing(GphaseError):
    """Eigenvalue branches of the trajectory (nearly) cross; gauge smoothing unreliable."""


class DimensionTooLarge(GphaseError):
    """Dense many-body oracle requested beyond its size ceiling."""


class StencilConditioning(GphaseError):
    """Finite-difference coefficient extraction produced unphysical values."""


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


def two_level_order2(p: TwoLevelBathParams, sys: SystemParams) -> float:
    """Second-order phase correction of the one-qubit bath in closed form,
    -pi cos th sin^2 th (d Delta)^2/E^4 (1 - sinc(2 E tau)), with E = hypot(B, Delta).

    At second order the bath is one chain mode: |r|^2 = 1 - 4 d^2 Delta^2 sin^2(E t)/E^4
    is the chain's R2_k at coupling 2d, gap 2 sin k and e_k = E, and ``_assemble``'s
    order2 integrates it over the cycle.
    """
    e = np.hypot(p.b_field, p.delta_gap)
    pref = np.cos(sys.theta) * np.sin(sys.theta) ** 2
    return float(-np.pi * pref * (p.coupling * p.delta_gap) ** 2 / e**4
                 * _one_minus_sinc(2.0 * e * sys.tau))


def build_target_hamiltonian(p: ProtocolParams) -> np.ndarray:
    """Dense 4x4 H = W Z_S + d Z_S Z_E + B Z_E + G X_E."""
    b = p.bath
    return p.sys.omega * ZI + b.coupling * ZZ + b.b_field * IZ + b.delta_gap * IX


def _rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """e^{-i angle P} = cos(angle) I - i sin(angle) P of a Pauli string P (P^2 = I)."""
    return np.cos(angle) * np.eye(len(pauli)) - 1j * np.sin(angle) * pauli


def strang_product(p: ProtocolParams, dt: float) -> np.ndarray:
    """The Strang step for time dt as the product of its dense Pauli rotations, left to
    right: e^{-i G dt X_E / 2} e^{-i d dt Z_S Z_E} e^{-i W dt Z_S} e^{-i B dt Z_E}
    e^{-i G dt X_E / 2}."""
    half_x = _rotation(IX, p.bath.delta_gap * dt / 2.0)
    return (half_x @ _rotation(ZZ, p.bath.coupling * dt) @ _rotation(ZI, p.sys.omega * dt)
            @ _rotation(IZ, p.bath.b_field * dt) @ half_x)


def fidelity_bound(p: ProtocolParams, b_min: float, b_max: float) -> float:
    """Lower bound on the cycle fidelity of ``p.trotter_steps`` Strang steps, for every
    input state and every field in [b_min, b_max].

    Block s of the step splits b_s Z + G X (b_s = B + s d) into A = G X, the outer half
    steps, and B_s = b_s Z, with ||[B_s, [B_s, A]]|| = 4 b_s^2 G and ||[A, [A, B_s]]|| =
    4 G^2 |b_s|.  The second-order commutator bound of Childs et al., PRX 11, 011020
    (2021), puts n steps over the cycle tau within eps = (tau^3 / n^2)(b^2 G / 3 +
    G^2 |b| / 6) of the exact evolution, largest at the largest |b_s|, max(|b_min|,
    |b_max|) + |d|.  Two unit vectors that far apart overlap with F >= 1 - eps^2.
    """
    g = p.bath.delta_gap
    b = max(abs(b_min), abs(b_max)) + abs(p.bath.coupling)
    eps = p.sys.tau**3 / p.trotter_steps**2 * (b**2 * g / 3.0 + g**2 * b / 6.0)
    return 1.0 - eps**2


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
