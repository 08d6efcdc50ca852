"""Properties of the chain's mode product over drawn parameters (hypothesis).

Each property runs a fixed set of examples (``derandomize``, no example
database), so Tier-1 stays deterministic: the same draws on every run until
the property or hypothesis changes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gphase.ising import IsingBathParams, decoherence_product
from gphase.reference import brute_force_oracle

FIXED = settings(derandomize=True, database=None, deadline=None)
CYCLE = np.linspace(0.0, 2.0 * np.pi, 17)


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
