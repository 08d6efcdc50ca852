"""Kinematic geometric phase of a dephased qubit from its decoherence factor.

A system spin precessing at angular frequency Omega while dephasing against
an environment has the reduced density matrix

    rho(t) = [[sin^2(theta/2),            c(t)],
              [c*(t),            cos^2(theta/2)]],   c(t) = (sin(theta)/2) e^{-i w t} r(t),

with r(t) the complex decoherence factor, r(0) = 1.  Over one cycle
tau = 2*pi/Omega the geometric phase splits into a quadrature term plus a
quadrant-aware arctangent closing term (``geometric_phase``).  Its second
route, discrete parallel transport along the eigenvector trajectory of
rho(t), is ``reference.gp_from_trajectory``; the two agree mod 2*pi.

Phase bookkeeping: a trace stores phi with r = |r| e^{-i phi}, unwrapped and
phi(0) = 0.  The closed-form engine consumes arg r = -phi; that single sign
flip happens inside ``geometric_phase`` and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CancellationFloor,
    DegenerateEigenvector,
    InvalidInitialValue,
    UnwrapFailure,
    ValidationError,
)

_POLE_TOL = 1e-12          # theta pinned to 0 or pi
_DEGENERACY_TOL = 1e-14    # Bloch radius below which the + eigenbranch is undefined
_UNWRAP_STEP_LIMIT = np.pi / 2
_MAX_INTERVALS = 2**18     # reach: the finest grid a trace may be refined to
MIN_SAMPLES = 64           # coarsest grid build_trace accepts


@dataclass(frozen=True)
class SystemParams:
    """System-spin cycle: precession frequency, Bloch polar angle."""

    omega: float            # rad/s, > 0
    theta: float            # rad, in [0, pi]

    def __post_init__(self):
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not (0.0 <= self.theta <= np.pi):
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def tau(self) -> float:
        """Cycle period 2*pi/omega."""
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class DecoherenceTrace:
    """Complex decoherence factor sampled on a uniform grid over one cycle.

    ``phase_unwrapped`` follows the r = |r| e^{-i phi} convention: it is the
    negated, continuously unwrapped argument of r with phi(0) = 0.
    """

    times: np.ndarray = field(repr=False)
    r_values: np.ndarray = field(repr=False)
    magnitude: np.ndarray = field(repr=False)
    phase_unwrapped: np.ndarray = field(repr=False)

    @property
    def samples(self) -> int:
        return len(self.times) - 1


def trace_from_samples(times, r_values) -> DecoherenceTrace:
    """Validate sampled r(t) values and build a trace with unwrapped phase.

    Raises ValidationError naming the first time whose sample is not finite,
    InvalidInitialValue if r(0) deviates from 1, UnwrapFailure if the grid is
    too coarse to unwrap the phase unambiguously.
    """
    times = np.asarray(times, dtype=float)
    r = np.asarray(r_values, dtype=complex)
    if times.ndim != 1 or times.shape != r.shape:
        raise ValidationError("times and r_values must be matching 1-D arrays")
    bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(r)))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"sample {i} is not finite: r({float(times[i])!r}) = {complex(r[i])!r}")
    if len(times) < 3:
        raise ValidationError("need at least 3 samples")
    dt = np.diff(times)
    if times[0] != 0.0 or np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValidationError("times must be a uniform grid starting at 0")
    if abs(r[0] - 1.0) > 1e-9:
        raise InvalidInitialValue(f"r(0) = {r[0]!r} is not 1 within 1e-9")
    mag = np.abs(r)
    if np.max(mag) > 1.0 + 1e-9:
        raise ValidationError(f"|r| exceeds 1 beyond tolerance: max {np.max(mag)}")
    arg = np.unwrap(np.angle(r))
    steps = np.abs(np.diff(arg))
    if np.max(steps, initial=0.0) >= _UNWRAP_STEP_LIMIT:
        raise UnwrapFailure(
            f"phase step {np.max(steps):.3f} rad >= {_UNWRAP_STEP_LIMIT:.3f}; "
            "refine the grid or r(t) passes too close to 0"
        )
    phi = -(arg - arg[0])  # r = |r| e^{-i phi}, phi(0) = 0
    return DecoherenceTrace(times=times, r_values=r, magnitude=mag, phase_unwrapped=phi)


def first_grid(samples: int, need: float, cause: str) -> int:
    """The first of m, 2m, 4m, ... intervals (m = ``samples`` made even) over ``need``: the one
    grid rule of every trace, ``need`` the intervals that its engine's declared rate (``cause``)
    needs.  Where it would double past the reach ``_MAX_INTERVALS``, or for a NaN need,
    UnwrapFailure names the cause, the need and the reach; a request above the reach is kept if
    it exceeds its need.  ``samples`` below MIN_SAMPLES raises ValidationError."""
    if samples < MIN_SAMPLES:
        raise ValidationError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    grid = samples + (samples % 2)  # composite Simpson needs an even interval count
    while not grid > need:  # so that a NaN need fails too
        if 2 * grid > _MAX_INTERVALS:
            raise UnwrapFailure(f"{cause} needs more than {need:.6g} intervals, past the reach "
                                f"of {_MAX_INTERVALS}")
        grid *= 2
    return grid


def build_trace(sampler, params: SystemParams, samples: int = 256,
                rate_bound: float = np.inf) -> DecoherenceTrace:
    """Sample ``sampler(t)`` on [0, tau] and unwrap it.

    ``sampler`` is called with the full time grid (an ndarray) and must return the complex r
    values.  ``first_grid`` picks every grid.  A finite ``rate_bound`` (rad/s) on |d arg r / dt|
    needs rate_bound * dt < pi/2: that grid is sampled once, and a phase step over it (plus 1e-9
    of it and 2^10 ulp of the largest phase, for rounding) raises UnwrapFailure.  Without a
    bound each try samples a grid of twice the density once; its even points are the trace.
    Both grids must unwrap with every phase step under pi/2 (so the two unwraps agree at the
    even points), or the grid is doubled up to the reach; a persistent step near pi (e.g. r
    crossing zero) raises UnwrapFailure naming the last grid tried.  That loop passes a winding
    aliased on both grids, so ``two_level.oracle_trace`` starts it on the first grid that
    resolves its sampler's bandwidth.
    """
    if rate_bound != np.inf:
        grid = first_grid(samples, rate_bound * params.tau / _UNWRAP_STEP_LIMIT,
                          f"rate_bound {rate_bound:.6g} rad/s")
        times = np.linspace(0.0, params.tau, grid + 1)
        trace = trace_from_samples(times, sampler(times))
        phi = trace.phase_unwrapped
        limit = rate_bound * times[1] * (1 + 1e-9) + 2.0**10 * np.spacing(np.max(np.abs(phi)))
        if np.max(np.abs(np.diff(phi))) > limit:
            raise UnwrapFailure(f"a phase step exceeds rate_bound {rate_bound:.6g} rad/s * dt")
        return trace
    m = first_grid(samples, 0.0, "")
    while True:
        times = np.linspace(0.0, params.tau, 2 * m + 1)
        r = np.asarray(sampler(times), dtype=complex)
        if r.shape != times.shape:
            raise ValidationError("sampler must return one value per time point")
        try:
            trace = trace_from_samples(times[::2], r[::2])
            trace_from_samples(times, r)
        except UnwrapFailure:
            m = first_grid(m, m, f"a phase step >= {_UNWRAP_STEP_LIMIT:.3f} rad")
            continue
        return trace


@dataclass(frozen=True)
class GpResult:
    """Total geometric phase and its decomposition over one cycle.

    ``correction`` is the one place the uncoupled (r = 1) phase, known in
    closed form, is subtracted.
    """

    phi_total: float       # rad
    phi_unitary: float     # pi*(1 - cos theta)
    correction: float      # phi_total - phi_unitary
    integral_part: float   # quadrature term, not reduced mod 2*pi
    arctan_part: float     # quadrant-aware closing term
    eps_plus_final: float  # larger eigenvalue of rho at t = tau


def unitary_result(params: SystemParams) -> GpResult:
    """The cycle at r = 1 in closed form: an uncoupled bath, and the poles
    theta = 0, pi for any bath.  Its correction is exactly 0."""
    phi0 = np.pi * (1.0 - np.cos(params.theta))
    return GpResult(phi0, phi0, 0.0, phi0, 0.0, 1.0)


def checked_correction(g: GpResult) -> float:
    """``g.correction``, or CancellationFloor where it is under 2^10 ulp of the
    largest of the phases it is the difference of, and so rounding noise.  The
    unitary record subtracts nothing: its 0 passes."""
    if g.integral_part == g.phi_unitary and g.arctan_part == 0.0:
        return g.correction
    floor = 2.0**10 * np.spacing(max(abs(g.phi_unitary), abs(g.integral_part), abs(g.arctan_part)))
    if abs(g.correction) < floor:
        raise CancellationFloor(f"correction {g.correction:.3g} rad is below the rounding floor "
                                f"{floor:.3g} rad of the phases it is the difference of")
    return g.correction


def _simpson(y: np.ndarray, dt: float) -> float:
    n = len(y) - 1
    if n % 2 != 0:
        raise ValidationError("composite Simpson needs an even number of intervals")
    return dt / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def geometric_phase(trace: DecoherenceTrace, params: SystemParams) -> GpResult:
    """Geometric phase over one cycle from a sampled decoherence factor.

    The + eigenbranch of rho(t) is closed form in its Bloch radius
    R = sqrt(cos^2 theta + |r|^2 sin^2 theta): eigenvalue (1 + R)/2 and
    g = sin^2(theta+/2) = (1 - cos(theta)/R)/2.  Evaluates the quadrature
    term integral((Omega - dphi/dt) g) with the dphi/dt part integrated by
    parts (no differentiation of sampled phases), plus the quadrant-aware
    arctangent closing term.  The poles theta = 0, pi carry no bath
    dependence and return the unitary value.  A trajectory through the fully
    mixed state (R = 0: theta = pi/2 with |r| = 0) has no + eigenbranch and
    raises DegenerateEigenvector.
    """
    theta = params.theta
    if theta < _POLE_TOL or np.pi - theta < _POLE_TOL:
        return unitary_result(params)
    cos_t = np.cos(theta)
    phi0 = np.pi * (1.0 - cos_t)

    tau = params.tau
    if abs(trace.times[-1] - tau) > 1e-9 * tau:
        raise ValidationError("trace must cover exactly one period tau")

    dt = trace.times[1] - trace.times[0]
    # engine-side sign flip: the closed form wants arg r = -phi
    phi = -trace.phase_unwrapped
    sin2_t = np.sin(theta) ** 2
    radius = np.sqrt(cos_t**2 + trace.magnitude**2 * sin2_t)
    if np.min(radius) < _DEGENERACY_TOL:
        raise DegenerateEigenvector(
            "eigenvector direction undefined (fully mixed point on the trajectory)"
        )
    g = 0.5 * (1.0 - cos_t / radius)

    # integral (Omega - phi') g dt = Omega*S(g) - [phi*g]_0^tau + S(phi*g')
    g_dot = np.gradient(g, dt, edge_order=2)
    int_phi_term = phi[-1] * g[-1] - _simpson(phi * g_dot, dt)
    integral_part = params.omega * _simpson(g, dt) - int_phi_term

    # arg(cos(theta/2) cos(theta+/2) + sin(theta/2) sin(theta+/2) e^{i phi}),
    # scaled by the positive sqrt(2 R (R + cos theta)) / cos(theta/2)
    r_end, radius_end = trace.magnitude[-1], radius[-1]
    # R + cos theta; for cos theta < 0 the direct sum cancels to rounding noise
    lift = radius_end + cos_t if cos_t >= 0 else r_end**2 * sin2_t / (radius_end - cos_t)
    a = (1.0 - cos_t) * r_end
    arctan_part = np.arctan2(a * np.sin(phi[-1]), a * np.cos(phi[-1]) + lift)

    total = integral_part + arctan_part
    return GpResult(
        phi_total=total,
        phi_unitary=phi0,
        correction=total - phi0,
        integral_part=integral_part,
        arctan_part=arctan_part,
        eps_plus_final=float(0.5 * (1.0 + radius_end)),
    )
