from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from gphase.errors import InvalidDensityMatrix, UnwrapFailure, ValidationError
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.protocol import (
    I2,
    IX,
    IZ,
    READOUT_SAMPLES,
    THEORY_SAMPLES,
    ZI,
    ZZ,
    Decomposition,
    ProtocolParams,
    X,
    Z,
    _initial_state,
    _rotation,
    _stepped_states,
    build_target_hamiltonian,
    correction_point,
    cycle_fidelity,
    run_protocol,
    step_counts,
    trotter_step,
    worst_cycle_fidelity,
)
from gphase.reference import (
    PINNED_TROTTER_STEPS,
    DimensionMismatch,
    find_min_trotter_steps,
    partial_trace_env,
)
from gphase.two_level import (
    CouplingConvention,
    TwoLevelBathParams,
    decoherence_factor_oracle,
    ground_state,
)

OMEGA = 100.0 * np.pi
B_GRID = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 21)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# every Pauli string a protocol step exponentiates: the four of H
STEP_PAULIS = {"ZI": ZI, "ZZ": ZZ, "IZ": IZ, "IX": IX}


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def propagator(h, t):
    """exp(-i h t) by scipy's scaling and squaring, independent of the gates."""
    return scipy.linalg.expm(-1j * t * h)


def make_params(b_over_omega=0.05, theta=np.pi / 4, **kw):
    sysp = SystemParams(omega=OMEGA, theta=theta)
    bath = TwoLevelBathParams(
        delta_gap=0.02 * OMEGA, b_field=b_over_omega * OMEGA, coupling=0.1 * OMEGA
    )
    return ProtocolParams(sys=sysp, bath=bath, **kw)


def corrections(p, b_grid):
    """(protocol, theory) correction columns of ``p`` over ``b_grid``."""
    return np.array([correction_point(replace(p, bath=replace(p.bath, b_field=b)))
                     for b in b_grid]).T


class TestHamiltonian:
    def test_commuting_diagonal(self):
        p = make_params(b_over_omega=0.3)
        p = replace(p, bath=replace(p.bath, coupling=0.0, delta_gap=1e-300))
        h = build_target_hamiltonian(p)
        b = p.bath.b_field
        np.testing.assert_allclose(
            np.diag(h).real, [OMEGA + b, OMEGA - b, -OMEGA + b, -OMEGA - b], atol=1e-9
        )
        np.testing.assert_allclose(h - np.diag(np.diag(h)), 0.0, atol=1e-12)

    def test_uncoupled_spectrum(self):
        p = make_params()
        p = replace(p, bath=replace(p.bath, coupling=0.0))
        h = build_target_hamiltonian(p)
        w = np.linalg.eigvalsh(h)
        e = np.hypot(p.bath.b_field, p.bath.delta_gap)
        expected = np.sort([OMEGA + e, OMEGA - e, -OMEGA + e, -OMEGA - e])
        np.testing.assert_allclose(w, expected, atol=1e-9)

    def test_only_the_zz_coupling(self):
        # a projector-convention bath would be simulated with the zz coupling
        # and read out against a theory column of the other convention
        p = make_params()
        with pytest.raises(ValidationError):
            replace(p, bath=replace(p.bath, convention=CouplingConvention.PROJECTOR))

    def test_hermiticity(self):
        h = build_target_hamiltonian(make_params())
        assert np.max(np.abs(h - h.conj().T)) < 1e-15


class TestTrotterStep:
    def test_commuting_limit_exact(self):
        p = make_params()
        p = replace(p, bath=replace(p.bath, delta_gap=1e-300),
                    decomposition=Decomposition.COARSE_TROTTER)
        dt = p.sys.tau / 16
        u = trotter_step(p, dt)
        u_exact = propagator(build_target_hamiltonian(p), dt)
        assert np.max(np.abs(u - u_exact)) < 1e-12

    def test_single_step_third_order(self):
        p = make_params(decomposition=Decomposition.COARSE_TROTTER)
        h = build_target_hamiltonian(p)
        errs, dts = [], [p.sys.tau / n for n in (64, 128, 256, 512, 1024)]
        for dt in dts:
            errs.append(np.max(np.abs(trotter_step(p, dt) - propagator(h, dt))))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_unitarity(self):
        u = trotter_step(make_params(), 0.001)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_cycle_error_second_order(self):
        p = make_params(b_over_omega=0.1)
        h = build_target_hamiltonian(p)
        u_exact = propagator(h, p.sys.tau)
        ns = [8, 16, 32, 64, 128, 256, 512]
        errs = []
        for n in ns:
            u = trotter_step(replace(p, decomposition=Decomposition.COARSE_TROTTER),
                             p.sys.tau / n)
            errs.append(np.max(np.abs(np.linalg.matrix_power(u, n) - u_exact)))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestPulseIdentities:
    def test_z_rotation_matches_expm(self):
        # the NMR pulse form of a Z rotation, e^{-i pi X/4} e^{-i a Y} e^{+i pi X/4}
        # = e^{-i a Z}, is the Z gate of the Strang step on either qubit
        rng = np.random.default_rng(7)
        angles = np.concatenate([[0.0, np.pi / 3.0], rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 100)])
        for x, y, z in ((np.kron(I2, X), np.kron(I2, Y), np.kron(I2, Z)),
                        (np.kron(X, I2), np.kron(Y, I2), np.kron(Z, I2))):
            wrap = _rotation(x, np.pi / 4.0)
            for a in angles:
                pulse = wrap @ _rotation(y, a) @ wrap.conj().T
                assert np.max(np.abs(pulse - propagator(z, a))) < 1e-12


class TestRunProtocol:
    def test_uncoupled_trivial(self):
        p = make_params()
        p = replace(p, bath=replace(p.bath, coupling=0.0))
        trace = run_protocol(p)
        np.testing.assert_allclose(trace.r_values, 1.0, atol=1e-12)
        phi0 = np.pi * (1 - np.cos(p.sys.theta))
        assert geometric_phase(trace, p.sys).phi_total == pytest.approx(phi0, abs=1e-8)

    def test_readout_matches_oracle(self):
        for b in (-0.15, 0.0, 0.05, 0.2):
            p = make_params(b_over_omega=b)
            trace = run_protocol(p)
            expected = decoherence_factor_oracle(p.bath, trace.times)
            assert np.max(np.abs(trace.r_values - expected)) < 1e-10

    def test_readout_input_angle_independent(self):
        p = make_params(b_over_omega=0.07)
        traces = [run_protocol(p, input_theta=th) for th in (np.pi / 6, np.pi / 4, np.pi / 2)]
        for tr in traces[1:]:
            assert np.max(np.abs(tr.r_values - traces[0].r_values)) < 1e-10

    def test_energy_conservation_exact(self):
        p = make_params(b_over_omega=0.12)
        h = build_target_hamiltonian(p)
        from gphase.protocol import _exact_states

        psi0 = _initial_state(p, np.pi / 2)
        states = _exact_states(p, np.linspace(0, p.sys.tau, 65), psi0)
        energies = np.einsum("ti,ij,tj->t", states.conj(), h, states).real
        assert np.max(np.abs(energies - energies[0])) < 1e-10 * max(1.0, abs(energies[0]))

    def test_norms_preserved(self):
        p = make_params(trotter_steps=64, decomposition=Decomposition.COARSE_TROTTER)
        states = _stepped_states(p, READOUT_SAMPLES, _initial_state(p, np.pi / 2))
        assert states.shape == (READOUT_SAMPLES + 1, 4)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_incompatible_sample_grid_rejected(self):
        p = make_params(trotter_steps=3, decomposition=Decomposition.COARSE_TROTTER)
        with pytest.raises(ValidationError):
            run_protocol(p)

    @pytest.mark.parametrize("steps", [64, 128, 512])
    def test_stepped_states_one_step_at_a_time(self, steps):
        # the readout states are those of a plain loop over single steps,
        # bit for bit
        p = make_params(b_over_omega=0.13, trotter_steps=steps,
                        decomposition=Decomposition.COARSE_TROTTER)
        psi = _initial_state(p, np.pi / 2)
        u = trotter_step(p, p.sys.tau / steps)
        expected = [psi]
        for n in range(1, steps + 1):
            psi = u @ psi
            if n % (steps // READOUT_SAMPLES) == 0:
                expected.append(psi)
        states = _stepped_states(p, READOUT_SAMPLES, _initial_state(p, np.pi / 2))
        assert np.array_equal(states, np.array(expected))

    def test_coherence_matches_partial_trace(self):
        from gphase.protocol import _system_coherence

        rng = np.random.default_rng(3)
        states = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        expected = [partial_trace_env(np.outer(psi, psi.conj()))[0, 1] for psi in states]
        np.testing.assert_allclose(_system_coherence(states), expected, rtol=0, atol=1e-15)
        states[7] *= 1.0 + 1e-9
        with pytest.raises(InvalidDensityMatrix):
            _system_coherence(states)
        states[7] = np.nan
        with pytest.raises(InvalidDensityMatrix):
            _system_coherence(states)

    def test_input_theta_domain(self):
        with pytest.raises(ValidationError):
            run_protocol(make_params(), input_theta=0.0)


class TestTrotterPinning:
    def test_pinned_step_count(self):
        p = make_params()
        assert find_min_trotter_steps(p, B_GRID) == PINNED_TROTTER_STEPS

    def test_claim_holds_at_pinned(self):
        p = make_params(trotter_steps=PINNED_TROTTER_STEPS,
                        decomposition=Decomposition.COARSE_TROTTER)
        assert worst_cycle_fidelity(p, B_GRID) >= 0.997

    def test_claim_fails_below_pinned(self):
        p = make_params(trotter_steps=PINNED_TROTTER_STEPS // 2 or 1,
                        decomposition=Decomposition.COARSE_TROTTER)
        if PINNED_TROTTER_STEPS == 1:
            pytest.skip("pinned count is already the minimum")
        assert worst_cycle_fidelity(p, B_GRID) < 0.997


class TestFidelityScan:
    def test_cycle_fidelity_against_matrix_power(self):
        # the cycle readout of the stepped states against an independent
        # propagator product
        for n in (1, 3, 16):
            p = make_params(b_over_omega=0.13, trotter_steps=n,
                            decomposition=Decomposition.COARSE_TROTTER)
            psi0 = np.kron([np.sqrt(0.5), np.sqrt(0.5)], ground_state(p.bath))
            u_step = np.linalg.matrix_power(trotter_step(p, p.sys.tau / n), n)
            u_exact = propagator(build_target_hamiltonian(p), p.sys.tau)
            expected = abs(np.vdot(u_exact @ psi0, u_step @ psi0)) ** 2
            assert cycle_fidelity(p) == pytest.approx(expected, abs=1e-12)

    def test_worst_is_capped_at_one(self):
        p = make_params(trotter_steps=4, decomposition=Decomposition.COARSE_TROTTER)
        assert worst_cycle_fidelity(p, []) == 1.0
        assert worst_cycle_fidelity(p, B_GRID[::5]) <= 1.0

    def test_worst_is_the_smallest_field_value(self):
        p = make_params(trotter_steps=1, decomposition=Decomposition.COARSE_TROTTER)
        worst = worst_cycle_fidelity(p, B_GRID)
        assert worst in {worst_cycle_fidelity(p, [b]) for b in B_GRID}
        assert all(worst <= worst_cycle_fidelity(p, [b]) for b in B_GRID)

    def test_step_counts(self):
        assert step_counts(1) == [1]
        assert step_counts(5) == [1, 2, 4]
        assert step_counts(512) == [2**i for i in range(10)]
        with pytest.raises(ValidationError):
            step_counts(0)


class TestCorrectionExperiment:
    def test_uncoupled_is_zero(self):
        p = make_params()
        p = replace(p, bath=replace(p.bath, coupling=0.0))
        dphi, theory = corrections(p, B_GRID[::4])
        assert np.max(np.abs(dphi)) < 1e-8
        assert np.max(np.abs(theory)) < 1e-8

    @pytest.mark.parametrize("decomposition, steps", [
        (Decomposition.EXACT, 64),
        *[(Decomposition.COARSE_TROTTER, n) for n in (64, 128, 512)],
    ])
    def test_uncoupled_readout_is_one(self, decomposition, steps):
        # Z_S commutes with every environment factor, so at d = 0 each step
        # factorises and the readout is r = 1 to rounding: the correction
        # needs no uncoupled reference run
        for b in B_GRID:
            p = make_params(b_over_omega=b / OMEGA, trotter_steps=steps,
                            decomposition=decomposition)
            trace = run_protocol(replace(p, bath=replace(p.bath, coupling=0.0)))
            assert np.max(np.abs(trace.r_values - 1.0)) <= 1e-11
            assert abs(geometric_phase(trace, p.sys).correction) <= 1e-11

    def test_structure_and_theory_agreement(self):
        dphi, theory = corrections(make_params(), B_GRID)
        assert np.argmax(np.abs(dphi)) == np.argmin(np.abs(B_GRID))
        assert np.max(np.abs(dphi - theory)) < 1e-4 * max(1.0, np.max(np.abs(dphi)))

    def test_point_is_the_phase_of_each_trace(self):
        # the protocol column is the phase of run_protocol's trace, and the
        # theory column that of the oracle's, at the field of p
        for b in (-0.13, 0.0, 0.05):
            p = make_params(b_over_omega=b)
            oracle = build_trace(lambda t: decoherence_factor_oracle(p.bath, t), p.sys,
                                 THEORY_SAMPLES)
            assert correction_point(p) == (geometric_phase(run_protocol(p), p.sys).correction,
                                           geometric_phase(oracle, p.sys).correction)

    def test_exact_vs_trotter_robustness(self):
        # stepped evolution at the sample-grid resolution shifts the curve by
        # far less than 2% of its peak
        p_exact = make_params()
        p_trot = make_params(trotter_steps=64, decomposition=Decomposition.COARSE_TROTTER)
        grid = B_GRID[::4]
        d_exact = corrections(p_exact, grid)[0]
        d_trot = corrections(p_trot, grid)[0]
        assert np.max(np.abs(d_exact - d_trot)) < 0.02 * np.max(np.abs(d_exact))

    @pytest.mark.parametrize("d_over_omega, failure", [
        (0.1, None), (7.0, None), (15.99, "phase step"),
        (16.01, "bandwidth"), (1e3, "bandwidth"), (1e6, "bandwidth"),
    ])
    def test_readout_grid_bandwidth_bound(self, d_over_omega, failure):
        # the readout grid resolves r(t) only while its fastest frequency
        # E_+ + E_-, E_+- = hypot(B +- d, G), turns by less than pi per
        # interval; above that the readout is rejected before any evolution,
        # below it the unwrap step check still catches steps >= pi/2
        p = make_params()
        p = replace(p, bath=replace(p.bath, coupling=d_over_omega * OMEGA))
        b, g, d = p.bath.b_field, p.bath.delta_gap, p.bath.coupling
        turn = (np.hypot(b + d, g) + np.hypot(b - d, g)) * p.sys.tau / READOUT_SAMPLES
        assert (turn >= np.pi) == (failure == "bandwidth")
        if failure is None:
            assert run_protocol(p).samples == READOUT_SAMPLES
        else:
            with pytest.raises(UnwrapFailure, match=failure):
                run_protocol(p)

    def test_failing_point_raises_typed_error(self):
        p = make_params(b_over_omega=0.0)
        p = replace(p, bath=replace(p.bath, coupling=1e6 * OMEGA))
        with pytest.raises(UnwrapFailure):
            correction_point(p)


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
