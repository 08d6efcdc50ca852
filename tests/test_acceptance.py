"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each test also enforces its runtime budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gphase.cli import main as cli_main
from gphase.gp import SystemParams, build_trace, geometric_phase
from gphase.ising import IsingBathParams, chain_trace, decoherence_product
from gphase.perturbative import elliptic_E, elliptic_K, gp_approx_ising
from gphase.protocol import (
    Decomposition,
    ProtocolParams,
    correction_point,
    run_protocol,
    worst_cycle_fidelity,
)
from gphase.reference import (
    PINNED_TROTTER_STEPS,
    brute_force_oracle,
    density_trajectory,
    extract_coefficients_numeric,
    find_min_trotter_steps,
    gp_from_trajectory,
    gp_third_order,
)
from gphase.two_level import TwoLevelBathParams, decoherence_factor_oracle

OMEGA = 100.0 * np.pi
B_GRID = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 21)


def paper_bath(b=0.05 * OMEGA):
    return TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=b, coupling=0.1 * OMEGA)


def ones(t):
    return np.ones_like(t, dtype=complex)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds budget {self.limit}s"
            )


def test_c01_unitary_limit():
    with Budget(1.0) as b:
        worst = 0.0
        for th in np.linspace(0.02, np.pi - 0.02, 20):
            sp = SystemParams(omega=OMEGA, theta=th)
            res = geometric_phase(build_trace(ones, sp, 128), sp)
            worst = max(worst, abs(res.phi_total - np.pi * (1.0 - np.cos(th))))
        assert worst < 1e-8
    print(f"\nC01 unitary limit: PASS (worst {worst:.2e} rad, {b.elapsed:.2f}s)")


def test_c02_dual_formula_equivalence():
    with Budget(10.0) as bud:
        cases = [(np.pi / 4, b) for b in B_GRID]
        rng = np.random.default_rng(2024)
        cases += [
            (rng.uniform(0.3, np.pi - 0.3), rng.uniform(-0.2, 0.2) * OMEGA)
            for _ in range(10)
        ]
        worst = 0.0
        for th, b in cases:
            sp = SystemParams(omega=OMEGA, theta=th)
            bath = paper_bath(b)
            eq3 = geometric_phase(
                build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096), sp
            ).phi_total
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 32768)
            eq2 = gp_from_trajectory(density_trajectory(tr, sp))
            diff = abs((eq3 - eq2 + np.pi) % (2.0 * np.pi) - np.pi)
            worst = max(worst, diff)
        assert worst < 1e-6
    print(f"\nC02 dual-formula equivalence: PASS (worst {worst:.2e} rad, {bud.elapsed:.1f}s)")


def test_c03_protocol_vs_branch_oracle():
    with Budget(10.0) as bud:
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        worst = 0.0
        for b in B_GRID:
            bath = paper_bath(b)
            trace = run_protocol(ProtocolParams(sys=sp, bath=bath))
            ref = decoherence_factor_oracle(bath, trace.times)
            worst = max(worst, float(np.max(np.abs(trace.r_values - ref))))
        assert worst < 1e-10
    print(f"\nC03 protocol vs branch oracle: PASS (worst {worst:.2e}, {bud.elapsed:.1f}s)")


def test_c04_trotter_fidelity_claim():
    with Budget(30.0) as bud:
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        proto = ProtocolParams(sys=sp, bath=paper_bath())
        n = find_min_trotter_steps(proto, B_GRID)
        assert n == PINNED_TROTTER_STEPS  # frozen regression anchor
        stepped = replace(proto, trotter_steps=n, decomposition=Decomposition.COARSE_TROTTER)
        worst = worst_cycle_fidelity(stepped, B_GRID)
        assert worst >= 0.997
    print(f"\nC04 trotter fidelity: PASS (n = {n}, worst fidelity {worst:.6f}, {bud.elapsed:.1f}s)")


def test_c05_correction_curve_structure():
    with Budget(30.0) as bud:
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        dphi = np.array([correction_point(ProtocolParams(sys=sp, bath=paper_bath(b)))[0]
                         for b in B_GRID])
        assert np.argmax(np.abs(dphi)) == np.argmin(np.abs(B_GRID))
        ip = np.argmin(np.abs(B_GRID - 0.1 * OMEGA))
        im = np.argmin(np.abs(B_GRID + 0.1 * OMEGA))
        rel = abs(abs(dphi[ip]) - abs(dphi[im])) / max(abs(dphi[ip]), abs(dphi[im]))
        assert rel > 0.05
    print(
        f"\nC05 correction-curve structure: PASS (peak at B=0, "
        f"asymmetry {100 * rel:.0f}%, {bud.elapsed:.1f}s)"
    )


def test_c06_ising_product_vs_brute_force():
    with Budget(120.0) as bud:
        t = np.linspace(0.0, 2.0, 16)
        worst = 0.0
        for n in (2, 4, 6, 8):
            for lam in (0.25, 0.75, 1.0, 1.25):
                for d in (1e-3, 1e-2):
                    p = IsingBathParams(n, 1.0, lam, d)
                    dv = np.abs(decoherence_product(p, t) - brute_force_oracle(p, t))
                    worst = max(worst, float(np.max(dv)))
        assert worst < 1e-6
    print(f"\nC06 ising product vs brute force: PASS (worst {worst:.2e}, {bud.elapsed:.1f}s)")


def _exact_ising_dphi(lam, n_spins=100, delta=5e-5, omega=1.0, theta=np.pi / 4):
    sp = SystemParams(omega=omega, theta=theta)
    p = IsingBathParams(n_spins, 1.0, lam, delta)
    return geometric_phase(chain_trace(p, sp, 4096), sp).correction


def test_c07_appendix_figure_desk_scale():
    with Budget(300.0) as bud:
        sp = SystemParams(omega=1.0, theta=np.pi / 4)
        lams = np.concatenate([np.arange(0.2, 0.901, 0.05), np.arange(1.1, 1.801, 0.05)])
        norm = 100 * 5e-5**2
        rel_errs, wins = [], 0
        for lam in lams:
            ex = _exact_ising_dphi(lam) / norm
            p = IsingBathParams(100, 1.0, float(lam), 5e-5)
            out = gp_approx_ising(p, sp)
            o3 = out.order3 / norm
            o2 = out.order2 / norm
            rel_errs.append(abs(o3 - ex) / abs(ex))
            wins += abs(o3 - ex) < abs(o2 - ex)
        assert max(rel_errs) < 0.10
        assert wins >= 0.9 * len(lams)
    print(
        f"\nC07 chain weak-coupling figure: PASS (worst 3rd-order rel err "
        f"{100 * max(rel_errs):.2f}%, 3rd beats 2nd on {wins}/{len(lams)}, {bud.elapsed:.0f}s)"
    )


def test_c08_criticality_grows_with_size():
    with Budget(120.0) as bud:
        vals = [abs(_exact_ising_dphi(1.0, n_spins=n)) for n in (20, 50, 100)]
        assert vals[0] < vals[1] < vals[2]
    print(f"\nC08 criticality vs size: PASS ({[f'{v:.2e}' for v in vals]}, {bud.elapsed:.1f}s)")


def test_c09_perturbative_order():
    with Budget(60.0) as bud:
        sp = SystemParams(omega=OMEGA, theta=np.pi / 4)
        base = paper_bath()

        def sampler(delta, t):
            return decoherence_factor_oracle(replace(base, coupling=delta), t)

        times = np.linspace(0.0, sp.tau, 2049)
        co = extract_coefficients_numeric(sampler, times, h=1e-4 * OMEGA)
        deltas = np.array([0.02, 0.01, 0.005, 0.0025]) * OMEGA
        residuals = []
        for d in deltas:
            bath = replace(base, coupling=d)
            tr = build_trace(lambda t: decoherence_factor_oracle(bath, t), sp, 4096)
            exact = geometric_phase(tr, sp).correction
            residuals.append(abs(gp_third_order(co, sp, d).order3 - exact))
        slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)
    print(f"\nC09 perturbative order: PASS (residual slope {slope:.3f}, {bud.elapsed:.1f}s)")


def test_c10_elliptic_integrals():
    with Budget(1.0) as bud:
        assert abs(elliptic_K(0.0) - np.pi / 2) < 1e-14
        assert abs(elliptic_E(0.0) - np.pi / 2) < 1e-14
        assert abs(elliptic_E(1.0) - 1.0) < 1e-14
        worst = 0.0
        for m in np.linspace(0.01, 0.99, 50):
            lhs = (
                elliptic_E(m) * elliptic_K(1.0 - m)
                + elliptic_E(1.0 - m) * elliptic_K(m)
                - elliptic_K(m) * elliptic_K(1.0 - m)
            )
            worst = max(worst, abs(lhs - np.pi / 2))
        assert worst < 1e-12
    print(f"\nC10 elliptic integrals: PASS (Legendre worst {worst:.2e}, {bud.elapsed:.2f}s)")


def test_c11_determinism(tmp_path):
    with Budget(60.0) as bud:
        def run_preset(experiment, preset, name, workers):
            path = tmp_path / name
            rc = cli_main(
                [experiment, "--preset", preset, "--output", str(path),
                 "--workers", str(workers)]
            )
            assert rc == 0
            return path.read_bytes()

        a = run_preset("correction", "paper-fig1c", "c1.csv", 1)
        b = run_preset("correction", "paper-fig1c", "c2.csv", 1)
        c = run_preset("correction", "paper-fig1c", "c3.csv", 8)
        assert a == b == c
        t1 = run_preset("trotter-check", "trotter-claim", "t1.csv", 1)
        t2 = run_preset("trotter-check", "trotter-claim", "t2.csv", 8)
        assert t1 == t2
        i1 = run_preset("ising-sweep", "paper-figA", "i1.csv", 1)
        i2 = run_preset("ising-sweep", "paper-figA", "i2.csv", 8)
        assert i1 == i2
    print(f"\nC11 determinism: PASS (3 presets byte-identical, {bud.elapsed:.0f}s)")
