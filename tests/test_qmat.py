import numpy as np
import pytest
import scipy.linalg

from gphase.errors import DimensionMismatch, InvalidDensityMatrix, NonHermitianInput
from gphase.qmat import (
    I2,
    X,
    Z,
    expm_hermitian,
    kron,
    partial_trace_env,
)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestExpm:
    def test_zero_generator(self):
        u = expm_hermitian(np.zeros((4, 4)), 1.234)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_diagonal_z(self):
        u = expm_hermitian(Z, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_against_pade_oracle(self):
        # scipy's expm is an independent scaling-and-squaring algorithm
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_hermitian(4, rng)
            u = expm_hermitian(h, 0.37)
            np.testing.assert_allclose(u, scipy.linalg.expm(-1j * h * 0.37), atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(4, rng)
        u = expm_hermitian(h, 2.9)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            h = random_hermitian(4, rng)
            s, t = rng.uniform(-2, 2, 2)
            lhs = expm_hermitian(h, s + t)
            rhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(2, rng)
        psi = np.array([0.6, 0.8], dtype=complex)
        out = expm_hermitian(h, 1.7) @ psi
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(I2, I2), np.eye(4), atol=0)

    def test_zz_diagonal(self):
        np.testing.assert_allclose(kron(Z, Z), np.diag([1, -1, -1, 1.0]), atol=0)

    def test_index_formula(self):
        # (A (x) B)[i*db+k, j*db+l] = A[i,j] B[k,l], all 16 entries
        out = kron(X, Z)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert out[i * 2 + k, j * 2 + l] == X[i, j] * Z[k, l]

    def test_dimension_ceiling(self):
        big = np.eye(2**10)
        with pytest.raises(DimensionMismatch):
            kron(big, np.eye(4))


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        np.testing.assert_allclose(partial_trace_env(rho), np.diag([1.0, 0.0]), atol=1e-14)

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace_env(rho), np.eye(2) / 2, atol=1e-14)

    def test_dephasing_structure(self):
        # evolving a product state under a dephasing Hamiltonian must give a
        # reduced matrix whose coherence is (sin th / 2) e^{-2i w t} r(t) with
        # r the branch overlap; build both sides independently
        from gphase.two_level import TwoLevelBathParams, decoherence_factor_oracle, ground_state

        omega = 100 * np.pi
        theta = np.pi / 3
        bath = TwoLevelBathParams(delta_gap=0.02 * omega, lam=2.5, coupling=0.1 * omega)
        h = (
            omega * kron(Z, I2)
            + bath.coupling * kron(Z, Z)
            + bath.b_field * kron(I2, Z)
            + bath.delta_gap * kron(I2, X)
        )
        psi_s = np.array([np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
        psi0 = np.kron(psi_s, ground_state(bath))
        for t in (0.0, 0.003, 0.011):
            psi = expm_hermitian(h, t) @ psi0
            rho_r = partial_trace_env(np.outer(psi, psi.conj()))
            expected = (
                np.sin(theta) / 2
                * np.exp(-2j * omega * t)
                * decoherence_factor_oracle(bath, t)
            )
            assert abs(rho_r[0, 1] - expected) < 1e-12

    def test_linearity_on_tensor_products(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            out = partial_trace_env(np.kron(a, b), validate=False)
            np.testing.assert_allclose(out, a * np.trace(b), atol=1e-12)

    def test_unit_trace_result(self):
        rng = np.random.default_rng(29)
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        p = np.abs(w) / np.sum(np.abs(w))
        rho = (v * p) @ v.conj().T
        out = partial_trace_env(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidDensityMatrix):
            partial_trace_env(np.eye(4))  # trace 4
        rho = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            partial_trace_env(rho)  # negative eigenvalue
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 0.5
        with pytest.raises(InvalidDensityMatrix):
            partial_trace_env(bad)  # not Hermitian
