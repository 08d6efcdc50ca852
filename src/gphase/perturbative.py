"""Small-coupling expansion of the geometric phase and Ising closed forms.

For weak dephasing the decoherence factor expands as

    |r(t)|^2 = 1 - R2(t) d^2 - R3(t) d^3 + O(d^4),
    arg r(t) = p1(t) d + O(d^2),

and the cycle geometric phase differs from its uncoupled value pi(1 - cos th)
by the correction

    dPhi = - cos th sin^2 th * [ d^2 (W/4) Int R2
           + (d^3/24) (3 R2(T) p1(T) + p1(T)^3 + 6 W Int R3 - 6 Int R2 p1') ],

with W the cycle frequency and T the period (``gp_third_order``).  The
coefficients are extracted from any bath sampler by Richardson finite
differences in the coupling (``extract_coefficients_numeric``).

For the Ising chain the time integrals close analytically.  Expanding the
mode product gives the per-mode coefficients (J = 1 units, a = lam - cos k)

    R2_k  = 16 sin^2 k sin^2(e_k t) / e_k^4,
    R3_k  = -128 a sin^2 k sin(e_k t) [sin(e_k t) - e_k t cos(e_k t)] / e_k^6,
    p1_k  = 4 t a / e_k,

whose k-integrals are the closed forms f2, F2, F3, G1 below; G1 reduces to
complete elliptic integrals and is singular in slope at the critical point
lam = 1.  These coefficients are cross-validated against the numeric
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ellipe, ellipk

from .errors import (
    DomainError,
    QuadratureNonconvergence,
    StencilConditioning,
    ValidationError,
)
from .gp import SystemParams, _simpson
from .ising import IsingBathParams, dispersion

_QUAD_TOL = 1e-10


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


@dataclass(frozen=True)
class PerturbativeGp:
    """Phase correction truncated at second and at third order in the coupling."""

    order2: float
    order3: float


def _assemble(theta, omega, delta, int_r2, r2_end, p1_end, int_r3, int_cross) -> PerturbativeGp:
    """The cycle phase correction to second and to third order, from Int R2,
    R2(T), p1(T), Int R3 and Int R2 p1' over one cycle, with ``omega`` in the
    times' units."""
    pref = np.cos(theta) * np.sin(theta) ** 2
    order2 = -pref * delta**2 * (omega / 4.0) * int_r2
    cubic = 3.0 * r2_end * p1_end + p1_end**3 + 6.0 * omega * int_r3 - 6.0 * int_cross
    order3 = order2 - pref * delta**3 / 24.0 * cubic
    return PerturbativeGp(order2=float(order2), order3=float(order3))


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


def _panel_quad(f, n_osc: float) -> float:
    """Adaptive quadrature of f over (0, pi), split against oscillation."""
    panels = max(8, int(np.ceil(2.0 * n_osc)))
    edges = np.linspace(0.0, np.pi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = quad(f, a, b, epsabs=_QUAD_TOL / panels, epsrel=1e-12, limit=200)
        if err > 100.0 * max(_QUAD_TOL / panels, abs(val) * 1e-9):
            raise QuadratureNonconvergence(
                f"panel [{a:.3f}, {b:.3f}] error estimate {err:.2e}"
            )
        total += val
    return total


@dataclass(frozen=True)
class IsingClosedForms:
    """Closed-form k-integrals of the chain's expansion coefficients.

    All quantities are in J = 1 units: the dispersion is ``ising.dispersion``
    at J = 1, e_k = 2 sqrt(1 + lam^2 - 2 lam cos k), and ``t_period`` is the
    cycle period measured in 1/J.  Each carries the N/(2 pi) mode density.
    """

    n_spins: int
    t_period: float

    def _density(self) -> float:
        return self.n_spins / (2.0 * np.pi)

    def _n_osc(self, lam) -> float:
        return 2.0 * (1.0 + abs(lam)) * self.t_period / np.pi

    def f2(self, lam: float) -> float:
        """R2 evaluated at the cycle end: (N/2pi) Int 16 sin^2 k sin^2(e T)/e^4 dk."""
        T = self.t_period

        def integrand(k):
            e = dispersion(lam, k)
            return 16.0 * np.sin(k) ** 2 * np.sin(e * T) ** 2 / e**4

        return self._density() * _panel_quad(integrand, self._n_osc(lam))

    def F2(self, lam: float) -> float:
        """Time integral of R2: (N/2pi) Int (8 T sin^2 k/e^4)(1 - sinc(2 e T)) dk."""
        T = self.t_period

        def integrand(k):
            e = dispersion(lam, k)
            x = 2.0 * e * T
            return 8.0 * T * np.sin(k) ** 2 / e**4 * (1.0 - np.sin(x) / x)

        return self._density() * _panel_quad(integrand, self._n_osc(lam))

    def F3(self, lam: float) -> float:
        """Time integral of R3:
        (N/2pi) Int (lam - cos k) sin^2 k [48 sin(2eT) - 32 T e (2 + cos(2eT))]/e^7 dk.
        """
        T = self.t_period

        def integrand(k):
            e = dispersion(lam, k)
            a = lam - np.cos(k)
            x = 2.0 * e * T
            return a * np.sin(k) ** 2 * (48.0 * np.sin(x) - 32.0 * T * e * (2.0 + np.cos(x))) / e**7

        return self._density() * _panel_quad(integrand, self._n_osc(lam))

    def g1(self, lam: float) -> float:
        """Slope of the linear phase coefficient: (N/2pi) Int 4 (lam - cos k)/e dk.

        Equals (N/(pi lam)) [(lam+1) E(m) + (lam-1) K(m)] with m = 4 lam/(1+lam)^2;
        its lam-derivative diverges logarithmically at the critical point lam = 1,
        where the value itself is 2N/pi by continuity.
        """
        n = self.n_spins
        if lam < 1e-6:
            # elliptic form is 0/0 here; the integral expands as N lam / 2
            def integrand(k):
                return 4.0 * (lam - np.cos(k)) / dispersion(lam, k)

            return self._density() * _panel_quad(integrand, 1.0)
        if abs(lam - 1.0) < 1e-9:
            return 2.0 * n / np.pi
        m = 4.0 * lam / (1.0 + lam) ** 2
        return n / (np.pi * lam) * ((lam + 1.0) * elliptic_E(m) + (lam - 1.0) * elliptic_K(m))


def ising_closed_forms(p: IsingBathParams, sys: SystemParams) -> IsingClosedForms:
    """Closed forms for the chain ``p`` over the cycle of ``sys`` (T = tau)."""
    return IsingClosedForms(n_spins=p.n_spins, t_period=sys.tau * p.j_coupling)


def gp_approx_ising(p: IsingBathParams, sys: SystemParams) -> PerturbativeGp:
    """Weak-coupling phase correction of a spin against the Ising chain.

    Evaluates, with W = Omega/J, T = 2 pi / W and d the dimensionless field
    shift,

        dPhi = - cos th sin^2 th [ d^2 W F2/4
               + (d^3/24)(3 T f2 G1 + T^3 G1^3 + 6 W F3 - 6 G1 F2) ],

    truncated at second and at third order; each closed form is evaluated once.
    """
    cf = ising_closed_forms(p, sys)
    lam = p.lam
    f2, F2, F3, g1 = cf.f2(lam), cf.F2(lam), cf.F3(lam), cf.g1(lam)
    # the chain's coefficients: R2(T) = f2, p1(t) = t G1, so Int R2 p1' = G1 F2
    return _assemble(
        sys.theta, sys.omega / p.j_coupling, p.coupling,
        int_r2=F2, r2_end=f2, p1_end=cf.t_period * g1, int_r3=F3, int_cross=g1 * F2,
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

