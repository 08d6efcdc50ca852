from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import OMEGA, field_grid, point, points, protocol, rows, trotter, two_level
from gphase.errors import InvalidDensityMatrix, UnwrapFailure, ValidationError
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.protocol import (
    READOUT_SAMPLES,
    THEORY_SAMPLES,
    Decomposition,
    ProtocolParams,
    _exact_states,
    _initial_state,
    _stepped_states,
    correction_point,
    cycle_fidelity,
    readout_grid,
    run_protocol,
    step_counts,
    trotter_step,
    worst_cycle_fidelity,
)
from gphase.reference import (
    I2,
    IX,
    IZ,
    PINNED_TROTTER_STEPS,
    ZI,
    ZZ,
    DimensionMismatch,
    X,
    Z,
    _rotation,
    build_target_hamiltonian,
    fidelity_bound,
    find_min_trotter_steps,
    partial_trace_env,
)
from gphase.two_level import (
    TwoLevelBathParams,
    decoherence_factor_oracle,
    ground_state,
)

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


class TestHamiltonian:
    def test_commuting_diagonal(self):
        p = protocol(b_field=0.3 * OMEGA, coupling=0.0, delta_gap=1e-300)
        h = build_target_hamiltonian(p)
        b = p.bath.b_field
        np.testing.assert_allclose(
            np.diag(h).real, [OMEGA + b, OMEGA - b, -OMEGA + b, -OMEGA - b], atol=1e-9
        )
        np.testing.assert_allclose(h - np.diag(np.diag(h)), 0.0, atol=1e-12)

    def test_uncoupled_spectrum(self):
        p = protocol(b_field=0.05 * OMEGA, coupling=0.0)
        h = build_target_hamiltonian(p)
        w = np.linalg.eigvalsh(h)
        e = np.hypot(p.bath.b_field, p.bath.delta_gap)
        expected = np.sort([OMEGA + e, OMEGA - e, -OMEGA + e, -OMEGA - e])
        np.testing.assert_allclose(w, expected, atol=1e-9)

    def test_hermiticity(self):
        h = build_target_hamiltonian(protocol(b_field=0.05 * OMEGA))
        assert np.max(np.abs(h - h.conj().T)) < 1e-15


class TestTrotterStep:
    def test_commuting_limit_exact(self):
        p = protocol(b_field=0.05 * OMEGA, delta_gap=1e-300, decomposition="coarse-trotter")
        dt = p.sys.tau / 16
        u = trotter_step(p, dt)
        u_exact = propagator(build_target_hamiltonian(p), dt)
        assert np.max(np.abs(u - u_exact)) < 1e-12

    def test_single_step_third_order(self):
        p = protocol(b_field=0.05 * OMEGA, decomposition="coarse-trotter")
        h = build_target_hamiltonian(p)
        errs, dts = [], [p.sys.tau / n for n in (64, 128, 256, 512, 1024)]
        for dt in dts:
            errs.append(np.max(np.abs(trotter_step(p, dt) - propagator(h, dt))))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_unitarity(self):
        u = trotter_step(protocol(b_field=0.05 * OMEGA), 0.001)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_cycle_error_second_order(self):
        p = protocol(b_field=0.1 * OMEGA)
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
        p = protocol(b_field=0.05 * OMEGA, coupling=0.0)
        trace = run_protocol(p)
        np.testing.assert_allclose(trace.r_values, 1.0, atol=1e-12)
        phi0 = np.pi * (1 - np.cos(p.sys.theta))
        assert geometric_phase(trace, p.sys).phi_total == pytest.approx(phi0, abs=1e-8)

    def test_readout_matches_oracle(self):
        for b in (-0.15, 0.0, 0.05, 0.2):
            p = protocol(b_field=b * OMEGA)
            trace = run_protocol(p)
            expected = decoherence_factor_oracle(p.bath, trace.times)
            assert np.max(np.abs(trace.r_values - expected)) < 1e-10

    def test_readout_input_angle_independent(self):
        p = protocol(b_field=0.07 * OMEGA)
        traces = [run_protocol(p, input_theta=th) for th in (np.pi / 6, np.pi / 4, np.pi / 2)]
        for tr in traces[1:]:
            assert np.max(np.abs(tr.r_values - traces[0].r_values)) < 1e-10

    def test_energy_conservation_exact(self):
        p = protocol(b_field=0.12 * OMEGA)
        h = build_target_hamiltonian(p)
        psi0 = _initial_state(p, np.pi / 2)
        states = _exact_states(p, np.linspace(0, p.sys.tau, 65), psi0)
        energies = np.einsum("ti,ij,tj->t", states.conj(), h, states).real
        assert np.max(np.abs(energies - energies[0])) < 1e-10 * max(1.0, abs(energies[0]))

    def test_norms_preserved(self):
        p = protocol(b_field=0.05 * OMEGA, trotter_steps=64, decomposition="coarse-trotter")
        u = trotter_step(p, p.sys.tau / p.trotter_steps)
        states = _stepped_states(u, p.trotter_steps, READOUT_SAMPLES, _initial_state(p, np.pi / 2))
        assert states.shape == (READOUT_SAMPLES + 1, 4)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_incompatible_sample_grid_rejected(self):
        # the command line refuses this step count before any point runs
        p = replace(protocol(b_field=0.05 * OMEGA), trotter_steps=3,
                    decomposition=Decomposition.COARSE_TROTTER)
        with pytest.raises(ValidationError):
            run_protocol(p)

    @pytest.mark.parametrize("steps", [64, 128, 512])
    def test_stepped_states_one_step_at_a_time(self, steps):
        # the readout states are those of a plain loop over single steps,
        # bit for bit
        p = protocol(b_field=0.13 * OMEGA, trotter_steps=steps, decomposition="coarse-trotter")
        psi = _initial_state(p, np.pi / 2)
        u = trotter_step(p, p.sys.tau / steps)
        expected = [psi]
        for n in range(1, steps + 1):
            psi = u @ psi
            if n % (steps // READOUT_SAMPLES) == 0:
                expected.append(psi)
        states = _stepped_states(u, steps, READOUT_SAMPLES, _initial_state(p, np.pi / 2))
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
            run_protocol(protocol(b_field=0.05 * OMEGA), input_theta=0.0)


# the paper's 0.3% fidelity budget
BUDGET = point("trotter-check")["fidelity_threshold"]


class TestTrotterPinning:
    def test_pinned_step_count(self):
        assert find_min_trotter_steps(*trotter(1)) == PINNED_TROTTER_STEPS

    def test_claim_holds_at_pinned(self):
        assert worst_cycle_fidelity(*trotter(PINNED_TROTTER_STEPS)) >= BUDGET

    def test_claim_fails_below_pinned(self):
        if PINNED_TROTTER_STEPS == 1:
            pytest.skip("pinned count is already the minimum")
        assert worst_cycle_fidelity(*trotter(PINNED_TROTTER_STEPS // 2)) < BUDGET


class TestFidelityBound:
    """``fidelity_bound`` certifies a step count over the whole field interval,
    where the scan checks a grid of it."""

    @pytest.mark.parametrize("n, certified", [(1, 0.976348), (2, 0.998522)])
    def test_certifies_the_pinned_count_and_refuses_one_below(self, n, certified):
        # the trotter-claim preset, |B| <= 0.2 Omega
        p, b_grid = trotter(n)
        bound = fidelity_bound(p, b_grid[0], b_grid[-1])
        assert bound == pytest.approx(certified, abs=5e-7)
        assert (bound >= BUDGET) == (n >= PINNED_TROTTER_STEPS)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_below_the_scan_on_a_fine_grid(self, n):
        p, fine = trotter(n, b_points=4001)
        assert np.all(fidelity_bound(p, fine[0], fine[-1]) <= cycle_fidelity(p, fine))

    def test_bound_reaches_the_worst_field_of_either_block(self):
        # the bound rises with the largest |B +- d| over the interval, from either end
        p, b_grid = trotter(2)
        b = b_grid[-1]
        assert fidelity_bound(p, -b, b) == fidelity_bound(p, -b, 0.0) == fidelity_bound(p, 0.0, b)
        assert fidelity_bound(p, 0.0, b) < fidelity_bound(p, 0.0, b / 2) < 1.0


class TestFidelityScan:
    def test_cycle_fidelity_against_matrix_power(self):
        # the cycle readout of the stepped states against an independent
        # propagator product
        for n in (1, 3, 16):
            p = replace(protocol(b_field=0.13 * OMEGA), trotter_steps=n,
                        decomposition=Decomposition.COARSE_TROTTER)
            psi0 = np.kron([np.sqrt(0.5), np.sqrt(0.5)], ground_state(p.bath))
            u_step = np.linalg.matrix_power(trotter_step(p, p.sys.tau / n), n)
            u_exact = propagator(build_target_hamiltonian(p), p.sys.tau)
            expected = abs(np.vdot(u_exact @ psi0, u_step @ psi0)) ** 2
            (fidelity,) = cycle_fidelity(p, [p.bath.b_field])
            assert fidelity == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    @pytest.mark.parametrize("some", [slice(None), slice(13, 14)], ids=["21-fields", "one-field"])
    def test_scan_is_a_per_field_loop_bit_for_bit(self, n, some):
        # the scan, which builds the step's field-independent factors once,
        # against each field set up on its own: its bath, step and end state
        p, b_grid = trotter(n)
        b_grid = b_grid[some]
        expected = []
        for b in b_grid:
            pb = replace(p, bath=replace(p.bath, b_field=b))
            u = trotter_step(pb, pb.sys.tau / n)
            psi = psi0 = _initial_state(pb, np.pi / 2)
            exact = _exact_states(pb, np.array([pb.sys.tau]), psi0)[0]
            for _ in range(n):
                psi = u @ psi
            expected.append(np.abs((exact.conj() * psi).sum()) ** 2)
        assert np.array_equal(cycle_fidelity(p, b_grid), np.array(expected))

    def test_worst_is_capped_at_one(self):
        p, b_grid = trotter(4)
        assert worst_cycle_fidelity(p, []) == 1.0
        assert worst_cycle_fidelity(p, b_grid[::5]) <= 1.0

    def test_worst_is_the_smallest_field_value(self):
        p, b_grid = trotter(1)
        worst = worst_cycle_fidelity(p, b_grid)
        assert worst in {worst_cycle_fidelity(p, [b]) for b in b_grid}
        assert all(worst <= worst_cycle_fidelity(p, [b]) for b in b_grid)

    def test_step_counts(self):
        assert step_counts(1) == [1]
        assert step_counts(5) == [1, 2, 4]
        # the trotter-check grid: every doubling up to its max_steps, 512
        assert step_counts(point("trotter-check")["max_steps"]) == [2**i for i in range(10)]
        with pytest.raises(ValidationError):
            step_counts(0)


class TestWithoutLapack:
    """The protocol path calls no numpy.linalg routine: each block is evolved in
    closed form."""

    @pytest.fixture(autouse=True)
    def refuse_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called on the protocol path")

        for name in ("eigh", "eig", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("decomposition", list(Decomposition))
    def test_paper_fig1c(self, decomposition):
        # the correction preset: its 64 steps, at fields of its grid
        for b in field_grid()[::5]:
            p = protocol(b_field=b, decomposition=decomposition.value)
            assert run_protocol(p).samples == READOUT_SAMPLES
            assert np.all(np.isfinite(correction_point(p)))

    def test_trotter_claim(self):
        # the fidelity preset: every step count up to its max_steps
        steps = [p["n_steps"] for p in points("trotter-check")]
        worst = rows("trotter-check")[:, 0]
        assert steps == step_counts(point("trotter-check")["max_steps"])
        assert list(worst >= BUDGET) == [n >= PINNED_TROTTER_STEPS for n in steps]


class TestCorrectionExperiment:
    def test_uncoupled_is_zero(self):
        dphi, theory = rows("correction", coupling=0.0, b_points=6).T
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
        for b in field_grid():
            p = protocol(b_field=b, coupling=0.0, trotter_steps=steps,
                         decomposition=decomposition.value)
            trace = run_protocol(p)
            assert np.max(np.abs(trace.r_values - 1.0)) <= 1e-11
            assert abs(geometric_phase(trace, p.sys).correction) <= 1e-11

    def test_structure_and_theory_agreement(self):
        dphi, theory = rows("correction").T
        assert np.argmax(np.abs(dphi)) == np.argmin(np.abs(field_grid()))
        assert np.max(np.abs(dphi - theory)) <= 5e-5

    def test_point_is_the_phase_of_each_trace(self):
        # the protocol column is the phase of run_protocol's trace, and the
        # theory column that of the oracle's, at the field of p
        for b in (-0.13, 0.0, 0.05):
            p = protocol(b_field=b * OMEGA)
            oracle = build_trace(lambda t: decoherence_factor_oracle(p.bath, t), p.sys,
                                 THEORY_SAMPLES)
            assert correction_point(p) == (geometric_phase(run_protocol(p), p.sys).correction,
                                           geometric_phase(oracle, p.sys).correction)

    def test_exact_vs_trotter_robustness(self):
        # stepped evolution at the sample-grid resolution shifts the curve by
        # far less than 2% of its peak
        d_exact = rows("correction", b_points=6)[:, 0]
        d_trot = rows("correction", b_points=6, decomposition="coarse-trotter")[:, 0]
        assert np.max(np.abs(d_exact - d_trot)) < 0.02 * np.max(np.abs(d_exact))

    @pytest.mark.parametrize("d_over_omega, failure", [
        (0.1, None), (7.0, None), (15.99, "phase step"),
        (16.01, "phase step"), (1e3, "phase step"), (1e6, "bandwidth"),
    ])
    def test_readout_grid_bandwidth_bound(self, d_over_omega, failure):
        # the readout grid is the first doubling of READOUT_SAMPLES on which the
        # fastest frequency E_+ + E_-, E_+- = hypot(B +- d, G), turns by less
        # than pi per interval; the unwrap step check still catches steps >=
        # pi/2 on it (from d = 15.99 Omega up), and a bath that needs a grid past
        # the reach of 2^18 intervals is rejected before any evolution
        p = protocol(b_field=0.05 * OMEGA, coupling=d_over_omega * OMEGA)
        b, g, d = p.bath.b_field, p.bath.delta_gap, p.bath.coupling
        need = (np.hypot(b + d, g) + np.hypot(b - d, g)) * p.sys.tau / np.pi
        assert (need >= 2**18) == (failure == "bandwidth")
        if failure is None:
            assert run_protocol(p).samples == READOUT_SAMPLES
        else:
            with pytest.raises(UnwrapFailure, match=failure):
                run_protocol(p)

    def test_readout_on_the_first_grid_that_resolves_the_bath(self):
        # G = 30 Omega, d = 0.01 Omega, B = 0: the bandwidth turns by about
        # 1.9 pi per interval of the 64 and is read out on 128, where it agrees
        # with the oracle; the readout grid used to be refused.  A stepped
        # evolution needs a multiple of those 128 intervals as steps
        p = protocol(b_field=0.0, delta_gap=30.0 * OMEGA, coupling=0.01 * OMEGA)
        trace = run_protocol(p)
        assert trace.samples == readout_grid(p) == 128
        np.testing.assert_allclose(trace.r_values, decoherence_factor_oracle(p.bath, trace.times),
                                   rtol=0, atol=1e-10)
        stepped = replace(p, trotter_steps=64, decomposition=Decomposition.COARSE_TROTTER)
        with pytest.raises(ValidationError, match="multiple of the 128 readout intervals"):
            run_protocol(stepped)
        assert run_protocol(replace(stepped, trotter_steps=128)).samples == 128

    def test_failing_point_raises_typed_error(self):
        p = protocol(b_field=0.0, coupling=1e6 * OMEGA)
        with pytest.raises(UnwrapFailure):
            correction_point(p)


class TestExpm:
    """The closed-form Pauli rotation e^{-i a P} = cos a - i sin a P of the dense
    Strang product, against scipy's scaling-and-squaring matrix exponential."""

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
        sysp, bath = two_level(theta=np.pi / 3)
        omega, theta = sysp.omega, sysp.theta
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
