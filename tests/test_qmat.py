import numpy as np
import pytest
import scipy.linalg

from gphase.errors import DimensionMismatch, InvalidDensityMatrix
from gphase.gp import SystemParams
from gphase.protocol import IX, IZ, ZI, ZZ, ProtocolParams, _rotation, build_target_hamiltonian
from gphase.qmat import I2, X, Z, partial_trace_env
from gphase.two_level import TwoLevelBathParams

# every Pauli string a protocol step exponentiates: the four of H
STEP_PAULIS = {"ZI": ZI, "ZZ": ZZ, "IZ": IZ, "IX": IX}


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestExpm:
    """The closed-form Pauli rotation e^{-i a P} = cos a - i sin a P of the
    protocol gates, against scipy's scaling-and-squaring matrix exponential."""

    def test_zero_generator(self):
        for p in STEP_PAULIS.values():
            np.testing.assert_array_equal(_rotation(p, 0.0), np.eye(4))

    def test_diagonal_z(self):
        u = _rotation(Z, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_against_pade_oracle(self):
        rng = np.random.default_rng(11)
        angles = np.concatenate([[0.0, np.pi / 4.0], rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 20)])
        for p in STEP_PAULIS.values():
            for a in angles:
                np.testing.assert_allclose(
                    _rotation(p, a), scipy.linalg.expm(-1j * a * p), rtol=0, atol=1e-15
                )

    def test_unitarity(self):
        for p in STEP_PAULIS.values():
            u = _rotation(p, 2.9)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-15

    def test_group_property(self):
        rng = np.random.default_rng(17)
        for p in STEP_PAULIS.values():
            s, t = rng.uniform(-2, 2, 2)
            lhs = _rotation(p, s + t)
            rhs = _rotation(p, s) @ _rotation(p, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_norm_preserved(self):
        psi = np.array([0.6, 0.48, 0.0, 0.64], dtype=complex)
        for p in STEP_PAULIS.values():
            out = _rotation(p, 1.7) @ psi
            assert abs(np.linalg.norm(out) - 1.0) < 1e-15


class TestKron:
    """The (system x environment) ordering of ``np.kron`` that the target
    Hamiltonian and ``partial_trace_env`` share."""

    def test_identity(self):
        # a maximally mixed environment traces out to the system state
        rho_s = random_density(2, np.random.default_rng(31))
        np.testing.assert_allclose(partial_trace_env(np.kron(rho_s, I2 / 2)), rho_s, atol=1e-15)

    def test_zz_diagonal(self):
        # the coupling term alone is d diag(1, -1, -1, 1)
        bath = TwoLevelBathParams(delta_gap=1e-300, b_field=0.0, coupling=0.3)
        p = ProtocolParams(sys=SystemParams(omega=1e-300, theta=0.5), bath=bath)
        np.testing.assert_allclose(build_target_hamiltonian(p), np.diag([0.3, -0.3, -0.3, 0.3]),
                                   rtol=0, atol=1e-15)

    def test_index_formula(self):
        # (A (x) B)[i*2+k, j*2+l] = A[i,j] B[k,l]; the trace runs over k = l
        rng = np.random.default_rng(37)
        rho = random_density(4, rng)
        out = partial_trace_env(rho)
        for i in range(2):
            for j in range(2):
                assert out[i, j] == pytest.approx(rho[i * 2, j * 2] + rho[i * 2 + 1, j * 2 + 1],
                                                  abs=1e-16)


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
        bath = TwoLevelBathParams(delta_gap=0.02 * omega, b_field=0.05 * omega,
                                  coupling=0.1 * omega)
        h = (
            omega * np.kron(Z, I2)
            + bath.coupling * np.kron(Z, Z)
            + bath.b_field * np.kron(I2, Z)
            + bath.delta_gap * np.kron(I2, X)
        )
        psi_s = np.array([np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
        psi0 = np.kron(psi_s, ground_state(bath))
        for t in (0.0, 0.003, 0.011):
            psi = scipy.linalg.expm(-1j * h * t) @ psi0
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
            a, b = random_density(2, rng), random_density(2, rng)
            out = partial_trace_env(np.kron(a, b))
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
        for wrong in (np.eye(2) / 2, np.zeros((4, 2)), np.zeros((2, 4, 4))):
            with pytest.raises(DimensionMismatch):
                partial_trace_env(wrong)
