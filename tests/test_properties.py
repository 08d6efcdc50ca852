"""Properties of the chain's mode product and its phase-rate bound over drawn
parameters (hypothesis).

Each property runs a fixed set of examples (``derandomize``, no example
database), so Tier-1 stays deterministic: the same draws on every run until
the property or hypothesis changes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gphase.ising import IsingBathParams, decoherence_product, phase_rate_bound
from gphase.reference import brute_force_oracle

FIXED = settings(derandomize=True, database=None, deadline=None)
CYCLE = np.linspace(0.0, 2.0 * np.pi, 17)
DENSE = np.linspace(0.0, 2.0 * np.pi, 20001)


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
