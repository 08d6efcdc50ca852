"""Small-coupling expansion of the geometric phase and Ising closed forms.

For weak dephasing the decoherence factor expands as

    |r(t)|^2 = 1 - R2(t) d^2 - R3(t) d^3 + O(d^4),
    arg r(t) = p1(t) d + O(d^2),

and the cycle geometric phase differs from its uncoupled value pi(1 - cos th)
by the correction

    dPhi = - cos th sin^2 th * [ d^2 (W/4) Int R2
           + (d^3/24) (3 R2(T) p1(T) + p1(T)^3 + 6 W Int R3 - 6 Int R2 p1') ],

with W the cycle frequency and T the period (``_assemble``).  Its second
route takes the coefficients from any bath sampler by Richardson finite
differences in the coupling (``reference.extract_coefficients_numeric``).

For the Ising chain the time integrals close analytically.  Expanding the
mode product gives the per-mode coefficients (J = 1 units, a = lam - cos k)

    R2_k  = 16 sin^2 k sin^2(e_k t) / e_k^4,
    R3_k  = -128 a sin^2 k sin(e_k t) [sin(e_k t) - e_k t cos(e_k t)] / e_k^6,
    p1_k  = 4 t a / e_k,

whose k-integrals are the closed forms f2, F2, F3, G1 below; G1 reduces to
complete elliptic integrals and is singular in slope at the critical point
lam = 1.  The per-mode coefficients are ``reference.mode_coefficients``,
checked against the numeric extraction.

The k-integrals f2, F2, F3 are taken by ``_panel_quad``: (0, pi) is cut into
panels against the integrand's oscillation, and each level of an adaptive
bisection is one vectorised pass of the QUADPACK qk21 Gauss-Kronrod rule over
every open interval, so the integrands take arrays of k.  An interval is
accepted under an absolute target (its width's share of the total) or a
relative one on its own value, and otherwise bisected; a panel that reaches
the subdivision limit is held to a looser bound, and QuadratureNonconvergence
is raised beyond it.  Near lam = 1 the integrands have a dip of width
|1 - lam| at k = 0, which bisection resolves because they are written
without cancellation there (``_energy``, ``_one_minus_sinc``, ``_f3_bracket``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import ellipe, ellipk

from .errors import (
    DomainError,
    PerturbativeBreakdown,
    QuadratureNonconvergence,
)
from .gp import SystemParams
from .ising import IsingBathParams

_QUAD_TOL = 1e-10
_QUAD_LIMIT = 200       # intervals per panel, QUADPACK's usual subdivision limit
# ~2 kB peak memory per panel (0.39 GB measured at 2.4e5 panels, 1.6 GB at 8e5),
_MAX_PANELS = 1_000_000  # so about 2 GB; the presets need 24 panels

# QUADPACK qk21 (Piessens et al. 1983): the 10-point Gauss rule and its
# 21-point Kronrod extension on [-1, 1], tabulated for x >= 0 and mirrored.
_QK21_X = np.array([
    0.000000000000000000000000000000000, 0.148874338981631210884826001129720,
    0.294392862701460198131126603103866, 0.433395394129247190799265943165784,
    0.562757134668604683339000099272694, 0.679409568299024406234327365114874,
    0.780817726586416897063717578345042, 0.865063366688984510732096688423493,
    0.930157491355708226001207180059508, 0.973906528517171720077964012084452,
    0.995657163025808080735527280689003,
])
_QK21_WK = np.array([
    0.149445554002916905664936468389821, 0.147739104901338491374841515972068,
    0.142775938577060080797094273138717, 0.134709217311473325928054001771707,
    0.123491976262065851077958109831074, 0.109387158802297641899210590325805,
    0.093125454583697605535065465083366, 0.075039674810919952767043140916190,
    0.054755896574351996031381300244580, 0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
])
_QK21_WG = np.array([  # zero at the Kronrod-only nodes
    0.0, 0.295524224714752870173892994651338,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.066671344308688137593568809893332,
    0.0,
])
_QK21_NODES = np.concatenate((-_QK21_X[:0:-1], _QK21_X))
_QK21_KRONROD = np.concatenate((_QK21_WK[:0:-1], _QK21_WK))
_QK21_GAUSS = np.concatenate((_QK21_WG[:0:-1], _QK21_WG))


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


def _qk21(f, lo, hi):
    """QUADPACK qk21 on every interval [lo_i, hi_i] from one call of ``f``.

    Returns the Kronrod sums and QUADPACK's error estimates: the Kronrod-Gauss
    difference, rescaled by the spread of f about its mean and floored at the
    rounding level of the Kronrod sum.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(c[:, None] + h[:, None] * _QK21_NODES)
    resk = fx @ _QK21_KRONROD
    val = resk * h
    err = np.abs((resk - fx @ _QK21_GAUSS) * h)
    resabs = np.abs(fx) @ _QK21_KRONROD * h
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _QK21_KRONROD * h
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return val, np.maximum(50.0 * np.finfo(float).eps * resabs, err)


def _panel_quad(f, n_osc: float) -> float:
    """Adaptive Gauss-Kronrod quadrature of f over (0, pi), split against oscillation.

    (0, pi) is cut into max(8, ceil(2 n_osc)) equal panels, and ``f`` takes an
    array of k: each level of the refinement is one qk21 pass, one call of
    ``f`` on the 21 nodes of every open interval.  An interval of width w is
    accepted when its error estimate is at most max(_QUAD_TOL w / pi,
    1e-12 |val|), so a panel's accepted estimates sum to at most
    _QUAD_TOL / panels + 1e-12 sum |val|; the others are bisected.  A panel
    whose bisection would take it past _QUAD_LIMIT intervals stops there, and
    its open intervals are accepted only under the loose bound
    100 max(_QUAD_TOL w / pi, 1e-9 |val|); QuadratureNonconvergence names the
    first one that misses it (NaN included).  A panel count above
    _MAX_PANELS raises QuadratureNonconvergence before anything is allocated.
    """
    if not 2.0 * n_osc <= _MAX_PANELS:
        raise QuadratureNonconvergence(f"{np.ceil(2.0 * n_osc):.6g} panels needed against "
                                       f"the oscillation, above the ceiling of {_MAX_PANELS}")
    panels = max(8, int(np.ceil(2.0 * n_osc)))
    edges = np.linspace(0.0, np.pi, panels + 1)
    lo, hi, owner = edges[:-1], edges[1:], np.arange(panels)
    count = np.ones(panels, dtype=int)      # intervals in each panel's partition
    total = 0.0
    while True:
        val, err = _qk21(f, lo, hi)
        tol_abs = _QUAD_TOL / np.pi * (hi - lo)
        done = err <= np.maximum(tol_abs, 1e-12 * np.abs(val))
        total += np.sum(val[done])
        if done.all():
            return float(total)
        lo, hi, owner = lo[~done], hi[~done], owner[~done]
        val, err, tol_abs = val[~done], err[~done], tol_abs[~done]
        count += np.bincount(owner, minlength=panels)
        stop = (count > _QUAD_LIMIT)[owner]
        if stop.any():
            bad = np.flatnonzero(stop & ~(err <= 100.0 * np.maximum(tol_abs, 1e-9 * np.abs(val))))
            if bad.size:
                i = bad[0]
                raise QuadratureNonconvergence(
                    f"interval [{lo[i]:.3e}, {hi[i]:.3e}] error estimate {err[i]:.2e} "
                    f"with its panel at the limit of {_QUAD_LIMIT} intervals"
                )
            total += np.sum(val[stop])
            lo, hi, owner = lo[~stop], hi[~stop], owner[~stop]
            if not lo.size:
                return float(total)
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner = np.concatenate((owner, owner))


def _energy(lam, k):
    """e_k = 2 sqrt(1 + lam^2 - 2 lam cos k), the J = 1 dispersion, written for
    lam >= 0 as 2 sqrt((1 - lam)^2 + 4 lam sin^2(k/2)): a sum of two
    non-negative terms, so it keeps its relative accuracy where the gap
    |1 - lam| closes at k = 0."""
    return 2.0 * np.sqrt((1.0 - lam) ** 2 + 4.0 * lam * np.sin(0.5 * k) ** 2)


# Taylor coefficients in y = x^2, for x <= 2 where the direct forms cancel:
# 1 - sin(x)/x = y sum_j (-1)^j y^j / (2j+3)!, and
# 48 sin x - 16 x (2 + cos x) = x^5 sum_j (-1)^(j+1) 32 (j+1) y^j / (2j+5)!.
_SINC_TAIL = np.array([(-1) ** j / factorial(2 * j + 3) for j in range(13)])
_F3_TAIL = np.array([(-1) ** (j + 1) * 32 * (j + 1) / factorial(2 * j + 5) for j in range(13)])
# G1 / (N lam) for lam < 0.5 in y = lam^2, to rounding at 30 terms (0.25^30 ~ 1e-18)
_G1_SERIES = np.array([comb(2 * j, j) ** 2 / 16**j / (2 * j + 2) for j in range(30)])


def _one_minus_sinc(x):
    """1 - sin(x)/x, by its Taylor series for x <= 2."""
    x = np.asarray(x)
    out = np.asarray(1.0 - np.sin(x) / x)
    small = x <= 2.0
    if small.any():
        y = x[small] ** 2
        out[small] = y * polyval(y, _SINC_TAIL)
    return out


def _f3_bracket(x):
    """48 sin x - 16 x (2 + cos x), by its Taylor series for x <= 2."""
    x = np.asarray(x)
    out = np.asarray(48.0 * np.sin(x) - 16.0 * x * (2.0 + np.cos(x)))
    small = x <= 2.0
    if small.any():
        xs = x[small]
        out[small] = xs**5 * polyval(xs**2, _F3_TAIL)
    return out


@dataclass(frozen=True)
class IsingClosedForms:
    """Closed-form k-integrals of the chain's expansion coefficients.

    All quantities are in J = 1 units: the dispersion is ``ising.dispersion``
    at J = 1, e_k = 2 sqrt(1 + lam^2 - 2 lam cos k), and ``t_period`` is the
    cycle period measured in 1/J.  Each carries the N/(2 pi) mode density.
    The integrands take e_k from ``_energy`` and the small-e_k T brackets of
    F2 and F3 from their Taylor series, so they keep full relative accuracy
    at the k = 0 feature of width |1 - lam| that bisection resolves.  Under
    k -> pi - k, lam -> -lam maps e_k to itself and lam - cos k to its
    negative, so f2 and F2 are even in lam and F3 and G1 are odd: a negative
    lam is taken at |lam|, where the feature sits at k = 0 and not at k = pi.
    """

    n_spins: int
    t_period: float

    def _density(self) -> float:
        return self.n_spins / (2.0 * np.pi)

    def _n_osc(self, lam) -> float:
        return 2.0 * (1.0 + abs(lam)) * self.t_period / np.pi

    def f2(self, lam: float) -> float:
        """R2 evaluated at the cycle end: (N/2pi) Int 16 sin^2 k sin^2(e T)/e^4 dk."""
        T, lam = self.t_period, abs(lam)

        def integrand(k):
            e = _energy(lam, k)
            return 16.0 * np.sin(k) ** 2 * np.sin(e * T) ** 2 / e**4

        return self._density() * _panel_quad(integrand, self._n_osc(lam))

    def F2(self, lam: float) -> float:
        """Time integral of R2: (N/2pi) Int (8 T sin^2 k/e^4)(1 - sinc(2 e T)) dk."""
        T, lam = self.t_period, abs(lam)

        def integrand(k):
            e = _energy(lam, k)
            return 8.0 * T * np.sin(k) ** 2 / e**4 * _one_minus_sinc(2.0 * e * T)

        return self._density() * _panel_quad(integrand, self._n_osc(lam))

    def F3(self, lam: float) -> float:
        """Time integral of R3:
        (N/2pi) Int (lam - cos k) sin^2 k [48 sin(2eT) - 32 T e (2 + cos(2eT))]/e^7 dk.
        """
        T, sign, lam = self.t_period, (-1.0 if lam < 0.0 else 1.0), abs(lam)

        def integrand(k):
            e = _energy(lam, k)
            a = lam - np.cos(k)
            return a * np.sin(k) ** 2 * _f3_bracket(2.0 * e * T) / e**7

        return sign * self._density() * _panel_quad(integrand, self._n_osc(lam))

    def g1(self, lam: float) -> float:
        """Slope of the linear phase coefficient: (N/2pi) Int 4 (lam - cos k)/e dk.

        Equals (N/(pi lam)) [(lam+1) E(m) + (lam-1) K(m)] with m = 4 lam/(1+lam)^2,
        which Landen's transformation turns into (2N/(pi lam)) [E(lam^2) -
        (1-lam^2) K(lam^2)] below lam = 1 and 2N E(1/lam^2)/pi above it.  Its
        lam-derivative diverges logarithmically at the critical point lam = 1,
        where the value is 2N/pi.  Below lam = 0.5 the E and K terms cancel to
        O(lam), and their power series, N lam sum_j c_j lam^2j / (2j + 2) with
        c_j = (binom(2j, j) / 4^j)^2, is taken instead: its terms are positive.
        """
        n, sign, lam = self.n_spins, (-1.0 if lam < 0.0 else 1.0), abs(lam)
        if lam < 0.5:
            return sign * n * lam * polyval(lam**2, _G1_SERIES)
        if lam < 1.0:
            m = lam**2
            return sign * 2.0 * n / (np.pi * lam) * (
                elliptic_E(m) - (1.0 - lam) * (1.0 + lam) * elliptic_K(m))
        return sign * 2.0 * n * elliptic_E(1.0 / lam**2) / np.pi


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
    Warns PerturbativeBreakdown when the first-order cycle phase |d T G1| is
    1 rad or more, where the expansion in d p1(T) stops converging.
    """
    cf = ising_closed_forms(p, sys)
    lam = p.lam
    f2, F2, F3, g1 = cf.f2(lam), cf.F2(lam), cf.F3(lam), cf.g1(lam)
    phase1 = abs(p.coupling * cf.t_period * g1)
    if phase1 >= 1.0:
        warnings.warn(
            f"first-order cycle phase |d T G1| = {phase1:.3g} rad >= 1 at N = {p.n_spins}, "
            f"lam = {lam}; the weak-coupling orders are outside their range of validity",
            PerturbativeBreakdown,
            stacklevel=2,
        )
    # the chain's coefficients: R2(T) = f2, p1(t) = t G1, so Int R2 p1' = G1 F2
    return _assemble(
        sys.theta, sys.omega / p.j_coupling, p.coupling,
        int_r2=F2, r2_end=f2, p1_end=cf.t_period * g1, int_r3=F3, int_cross=g1 * F2,
    )
