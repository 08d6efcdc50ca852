"""Properties over drawn parameters (hypothesis): the chain's mode product and
its phase-rate bound, the protocol's closed-form blocks against its dense
model, the correction's invariance under a common rescaling of every
frequency, and the correction's envelope.

Each property runs a fixed set of examples (``derandomize``, no example
database), so Tier-1 stays deterministic: the same draws on every run until
the property or hypothesis changes.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import gphase.ising
from gphase.errors import GphaseError
from gphase.gp import SystemParams, checked_correction, geometric_phase
from gphase.ising import IsingBathParams, chain_trace, decoherence_product, phase_rate_bound
from gphase.protocol import ProtocolParams, _exact_states, correction_point, trotter_step
from gphase.reference import brute_force_oracle, build_target_hamiltonian, strang_product
from gphase.two_level import TwoLevelBathParams, oracle_trace

FIXED = settings(derandomize=True, database=None, deadline=None)
CYCLE = np.linspace(0.0, 2.0 * np.pi, 17)
DENSE = np.linspace(0.0, 2.0 * np.pi, 20001)


def log_uniform(lo, hi):
    """Floats spread evenly in log10 over [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def signed_log_uniform(lo, hi):
    """``log_uniform`` of either sign."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(lo, hi)).map(np.prod)


def max_secant_slope(p, t):
    """Largest |step| / dt of the unwrapped phase of r on the uniform grid t."""
    return np.max(np.abs(np.diff(np.unwrap(np.angle(decoherence_product(p, t)))))) / t[1]


@settings(FIXED, max_examples=30)
@given(n=st.sampled_from([2, 4, 6, 8, 10]), lam=st.floats(-2.0, 2.0),
       delta=st.floats(-1.0, 1.0))
def test_product_matches_dense_oracle(n, lam, delta):
    p = IsingBathParams(n, 1.0, lam, delta)
    assert np.max(np.abs(decoherence_product(p, CYCLE) - brute_force_oracle(p, CYCLE))) <= 1e-12


@settings(FIXED, max_examples=50)
@given(n=st.integers(1, 2000).map(lambda m: 2 * m), lam=st.floats(-100.0, 100.0),
       t=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=16))
def test_uncoupled_is_exactly_one(n, lam, t):
    assert np.all(decoherence_product(IsingBathParams(n, 1.0, lam, 0.0), np.array(t)) == 1.0)


@settings(FIXED, max_examples=50)
@given(n=st.integers(1, 200).map(lambda m: 2 * m), lam=st.floats(-2.0, 2.0),
       delta=st.floats(-1.0, 1.0))
def test_field_reversal_symmetry(n, lam, delta):
    # k -> pi - k maps the momenta onto themselves and the chain at
    # (lam, delta) onto the chain at (-lam, -delta)
    r = decoherence_product(IsingBathParams(n, 1.0, lam, delta), CYCLE)
    mirrored = decoherence_product(IsingBathParams(n, 1.0, -lam, -delta), CYCLE)
    assert np.max(np.abs(r - mirrored)) <= 1e-13


@settings(FIXED, max_examples=100)
@given(n=st.integers(1, 100).map(lambda m: 2 * m), lam=st.floats(-2.0, 2.0),
       delta=st.floats(-1.0, 1.0), times=st.integers(1, 1200), data=st.data())
def test_block_size_invariance(n, lam, delta, times, data):
    # up to 100 modes by 1200 times: more than one default block of 2^15
    # mode-samples, and any block from one mode-sample to the whole array
    p = IsingBathParams(n, 1.0, lam, delta)
    t = np.linspace(0.0, 2.0 * np.pi, times + 1)[1:]
    block = data.draw(st.integers(1, n // 2 * times), label="block")

    def outcome():
        try:
            return decoherence_product(p, t)
        except GphaseError as exc:  # an underflow names the same time and log|r|
            return str(exc)

    default = outcome()
    with mock.patch.object(gphase.ising, "_BLOCK_SAMPLES", block):
        blocked = outcome()
    assert type(blocked) is type(default) and np.array_equal(blocked, default)


@settings(FIXED, max_examples=40)
@given(n=st.integers(1, 32).map(lambda m: 2 * m), lam=st.floats(-2.0, 2.0),
       delta=st.floats(-1.0, 1.0))
def test_phase_rate_bound_holds(n, lam, delta):
    p = IsingBathParams(n, 1.0, lam, delta)
    bound = phase_rate_bound(p)
    # near r = 0 the sampled phase is not the continuous one
    assume(np.isfinite(bound) and np.min(np.abs(decoherence_product(p, DENSE))) >= 1e-6)
    assert max_secant_slope(p, DENSE) <= bound * (1.0 + 1e-9)


def test_phase_rate_bound_is_attained_at_two_spins():
    # one mode with cos D > 0 and e_hi > e_lo: both parts of the bound peak
    # together where sin^2(e_hi t) = 1
    p = IsingBathParams(2, 1.0, 0.5, 0.2)
    slope = max_secant_slope(p, np.linspace(0.0, 2.0 * np.pi, 200001))
    assert slope == pytest.approx(phase_rate_bound(p), rel=1e-8)


def test_uncoupled_phase_rate_bound_is_zero():
    for n, lam in [(2, 0.0), (100, 1.0), (1000, -0.7)]:
        assert phase_rate_bound(IsingBathParams(n, 1.0, lam, 0.0)) == 0.0


@settings(FIXED, max_examples=100)
@given(omega=log_uniform(-2.0, 3.0), gap=log_uniform(-3.0, 3.0),
       b=st.one_of(st.just(0.0), signed_log_uniform(-3.0, 3.0)),
       delta=signed_log_uniform(-3.0, 3.0), t=st.floats(0.0, 10.0), dt=log_uniform(-4.0, 0.0),
       amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_closed_form_evolution_matches_the_dense_model(omega, gap, b, delta, t, dt, amplitudes):
    # each system block in closed form against the dense 4x4 model: the exact
    # evolution against scipy's expm of H, and the Strang step against the
    # product of its Pauli rotations, in the step's order; rounding grows with
    # the phases ||H|| t, so the tolerance does too
    p = ProtocolParams(SystemParams(omega=omega, theta=np.pi / 4.0),
                       TwoLevelBathParams(delta_gap=gap, b_field=b, coupling=delta))
    psi0 = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
    assume(np.linalg.norm(psi0) > 0.1)
    psi0 /= np.linalg.norm(psi0)
    norm = omega + gap + abs(b) + abs(delta)
    expected = scipy.linalg.expm(-1j * t * build_target_hamiltonian(p)) @ psi0
    assert np.max(np.abs(_exact_states(p, np.array([t]), psi0)[0] - expected)) <= (
        1e-12 * (1.0 + norm * t))
    assert np.max(np.abs(trotter_step(p, dt) - strang_product(p, dt))) <= 1e-12 * (1.0 + norm * dt)


@settings(FIXED, max_examples=25)
@given(scale=log_uniform(-2.0, 2.0), b=st.floats(-0.2, 0.2), lam=st.floats(-2.0, 2.0))
def test_rescaling_every_frequency_leaves_the_correction(scale, b, lam):
    # every scale is a frequency, so Omega and the bath's scales rescaled
    # together only stretch time: the exact protocol's and the oracle's
    # (Delta, B, delta), the two columns of correction_point, and the chain's J
    def two_level(s):
        sysp = SystemParams(omega=100.0 * np.pi * s, theta=np.pi / 4.0)
        bath = TwoLevelBathParams(delta_gap=0.02 * sysp.omega, b_field=b * sysp.omega,
                                  coupling=0.1 * sysp.omega)
        return correction_point(ProtocolParams(sysp, bath))

    def chain(s):
        sysp = SystemParams(omega=s, theta=np.pi / 4.0)
        trace = chain_trace(IsingBathParams(100, s, lam, 0.1), sysp, 256)
        return checked_correction(geometric_phase(trace, sysp))

    assert np.max(np.abs(np.subtract(two_level(scale), two_level(1.0)))) <= 1e-10
    assert abs(chain(scale) - chain(1.0)) <= 1e-10


@settings(FIXED, max_examples=150)
@given(theta=st.floats(0.0, np.pi), gap=log_uniform(-4.0, 6.0),
       b=st.one_of(st.just(0.0), signed_log_uniform(-4.0, 6.0)),
       delta=signed_log_uniform(-4.0, 6.0))
def test_correction_is_finite_or_a_typed_error(theta, gap, b, delta):
    # every scale in units of Omega = 1, across the reach of the sampling grid
    sysp = SystemParams(omega=1.0, theta=theta)
    bath = TwoLevelBathParams(delta_gap=gap, b_field=b, coupling=delta)
    try:
        correction = checked_correction(geometric_phase(oracle_trace(bath, sysp, 256), sysp))
    except GphaseError:
        return
    assert np.isfinite(correction)
