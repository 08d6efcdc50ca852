import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import gphase.ising
from gphase.errors import MagnitudeUnderflow, ValidationError
from gphase.ising import (
    IsingBathParams,
    bogoliubov_angle,
    decoherence_product,
    dispersion,
    momenta,
)
from gphase.protocol import I2, X, Z
from gphase.reference import DimensionTooLarge, brute_force_oracle


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            IsingBathParams(n_spins=5, j_coupling=1.0, lam=0.5, coupling=0.01)
        with pytest.raises(ValidationError):
            IsingBathParams(n_spins=0, j_coupling=1.0, lam=0.5, coupling=0.01)
        with pytest.raises(ValidationError):
            IsingBathParams(n_spins=4, j_coupling=-1.0, lam=0.5, coupling=0.01)

    @pytest.mark.parametrize(
        "field, value",
        [("lam", np.nan), ("lam", -np.inf), ("coupling", np.nan), ("j_coupling", np.inf)],
    )
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(n_spins=4, j_coupling=1.0, lam=0.5, coupling=0.01)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            IsingBathParams(**kwargs)

    def test_momentum_grid(self):
        k = momenta(8)
        np.testing.assert_allclose(k, np.array([1, 3, 5, 7]) * np.pi / 8, atol=0)


class TestModeFactors:
    def test_flat_band_at_zero_field(self):
        np.testing.assert_allclose(dispersion(0.0, momenta(8)), 2.0, atol=1e-14)

    def test_critical_dispersion(self):
        k = momenta(16)
        np.testing.assert_allclose(dispersion(1.0, k), 4.0 * np.abs(np.sin(k / 2)), atol=1e-12)

    def test_alpha_vs_finite_difference(self):
        lam, d, k = 0.5, 1e-3, np.pi / 3
        # half the Bogoliubov angle difference across the shifted branch
        alpha = 0.5 * (bogoliubov_angle(lam + d, k) - bogoliubov_angle(lam, k))
        # midpoint derivative of the Bogoliubov angle
        h = 1e-6
        dth = (bogoliubov_angle(lam + d / 2 + h, k) - bogoliubov_angle(lam + d / 2 - h, k)) / (2 * h)
        assert alpha == pytest.approx(0.5 * d * dth, abs=1e-8)

    def test_momentum_domain(self):
        # the Bogoliubov angle is degenerate at k = 0 and pi; no mode sits there
        for n in (2, 6, 100):
            k = momenta(n)
            assert np.all((k > 0.0) & (k < np.pi))


class TestModeAmplitude:
    def test_against_mode_space_evolution(self):
        # independent 2x2 oracle: dense exponentials in each mode's (vacuum,
        # pair) block, multiplied over the momenta
        rng = np.random.default_rng(11)
        for _ in range(12):
            lam, d = rng.uniform(0, 1.8), rng.uniform(1e-3, 0.2)
            t = rng.uniform(0, 8)
            direct = 1.0
            for k in momenta(12):
                h = lambda l: 2.0 * ((l - np.cos(k)) * Z + np.sin(k) * X)
                w, v = np.linalg.eigh(h(lam))
                g = v[:, 0]
                direct *= g.conj() @ scipy.linalg.expm(1j * h(lam) * t) @ scipy.linalg.expm(
                    -1j * h(lam + d) * t
                ) @ g
            p = IsingBathParams(12, 1.0, lam, d)
            assert abs(decoherence_product(p, t) - direct) < 1e-10


class TestProduct:
    def test_uncoupled_is_exactly_one(self):
        p = IsingBathParams(100, 1.0, 0.8, 0.0)
        t = np.linspace(0, 5, 33)
        out = decoherence_product(p, t)
        np.testing.assert_allclose(out, 1.0, atol=1e-13)

    def test_initial_value_and_bound(self):
        p = IsingBathParams(100, 1.0, 1.0, 5e-3)
        assert decoherence_product(p, 0.0) == pytest.approx(1.0, abs=0)
        t = np.linspace(0, 12, 3000)
        assert np.max(np.abs(decoherence_product(p, t))) <= 1.0 + 1e-12

    # cos D < 0 in one mode at (0.5, 0.9) and at (1.5, -1.0): the hoisted
    # 2 cos D is negative there, and the atan2 of its phase turns the other way
    @pytest.mark.parametrize("lam, delta", [
        *((lam, delta) for lam in (0.5, 1.0, 1.5) for delta in (-0.3, 0.01, 0.9)),
        (1.5, -1.0),
    ])
    def test_against_dense_oracle(self, lam, delta):
        p = IsingBathParams(8, 1.0, lam, delta)
        t = np.linspace(0, 6, 25)
        assert np.max(np.abs(decoherence_product(p, t) - brute_force_oracle(p, t))) < 1e-8

    def test_mode_additivity(self):
        # log r adds over momenta: the product over two half-grids equals the
        # full product
        full = IsingBathParams(12, 1.0, 0.9, 0.02)
        t = np.linspace(0, 4, 9)
        r_full = decoherence_product(full, t)

        from gphase.ising import bogoliubov_angle as th, dispersion as eps

        k = momenta(12)
        halves = []
        for ks in (k[:3], k[3:]):
            c2a = np.cos(th(0.92, ks) - th(0.9, ks))[:, None]
            wt = eps(0.92, ks)[:, None] * t[None, :]
            z = np.cos(wt) + 1j * c2a * np.sin(wt)
            halves.append(np.prod(z, axis=0) * np.exp(-1j * np.sum(eps(0.9, ks)) * t))
        np.testing.assert_allclose(halves[0] * halves[1], r_full, atol=1e-12)

    def test_underflow_flushes_to_zero(self, monkeypatch):
        p = IsingBathParams(20000, 1.0, 1.0, 0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val = decoherence_product(p, 7.3)
        assert val == 0j
        assert any(issubclass(w.category, MagnitudeUnderflow) for w in caught)

        # the same flush when the 10000 modes stream through ten blocks
        monkeypatch.setattr(gphase.ising, "_BLOCK_SAMPLES", 2 * 1000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vals = decoherence_product(p, np.array([0.0, 7.3]))
        assert vals[0] == 1.0 and vals[1] == 0j
        assert any(issubclass(w.category, MagnitudeUnderflow) for w in caught)

    def test_block_size_invariance(self, monkeypatch):
        # 500 modes, not a multiple of 7; blocks of 1, 7 and all 500 modes (the
        # whole (N/2, M) array) give the same bits: at weak coupling, for a
        # shift down, and across lam = 1, where 74 modes have cos D < 0
        t = np.linspace(0, 2 * np.pi, 1025)
        for lam, delta in ((1.0, 5e-5), (1.0, -0.3), (0.5, 0.9)):
            p = IsingBathParams(1000, 1.0, lam, delta)
            outs = []
            for modes in (1, 7, 500):
                monkeypatch.setattr(gphase.ising, "_BLOCK_SAMPLES", modes * t.size)
                outs.append(decoherence_product(p, t))
            assert np.array_equal(outs[0], outs[1])
            assert np.array_equal(outs[0], outs[2])

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0, 2.0])
    def test_log_magnitude_against_mpmath(self, lam):
        # sum_k log|z_k| at 40 digits, with |z_k|^2 = cos^2 x + cos^2 D sin^2 x;
        # each |z_k| sits within 1e-6 of 1 here, where forming |z_k| before the
        # log loses digits.  Returning r as a complex double rounds |r| near 1
        # to about ulp(1), an absolute floor on log|r| of a few 1e-16.
        mpmath = pytest.importorskip("mpmath")
        n, delta = 100, 1e-3
        t = np.array([0.37, 1.1, 2.9, 4.4, 6.2])
        got = np.log(np.abs(decoherence_product(IsingBathParams(n, 1.0, lam, delta), t)))
        with mpmath.workdps(40):
            lo, hi = mpmath.mpf(lam), mpmath.mpf(lam) + mpmath.mpf(delta)
            want = []
            for tv in t:
                total = mpmath.mpf(0)
                for m in range(1, n // 2 + 1):
                    k = (2 * m - 1) * mpmath.pi / n
                    d = (mpmath.atan2(mpmath.sin(k), hi - mpmath.cos(k))
                         - mpmath.atan2(mpmath.sin(k), lo - mpmath.cos(k)))
                    x = 2 * mpmath.sqrt(1 + hi**2 - 2 * hi * mpmath.cos(k)) * mpmath.mpf(tv)
                    total += mpmath.log(mpmath.cos(x) ** 2 + (mpmath.cos(d) * mpmath.sin(x)) ** 2) / 2
                want.append(float(total))
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 3e-10 * np.abs(want) + np.finfo(float).eps)

    def test_half_angle_pole(self):
        # e_hi t / 2 lands on the float nearest pi/2 for one mode, where the
        # half-angle tangent is about 1e16; the product stays finite and
        # matches cos + i c sin
        p = IsingBathParams(8, 1.0, 0.7, 0.05)
        k = momenta(p.n_spins)
        half_e = 0.5 * dispersion(p.lam + p.coupling, k[:, None], p.j_coupling)[1, 0]
        t = np.pi / 2 / half_e
        for _ in range(8):
            if half_e * t == np.pi / 2:
                break
            t = np.nextafter(t, np.inf if half_e * t < np.pi / 2 else -np.inf)
        assert half_e * t == np.pi / 2 and abs(np.tan(half_e * t)) > 1e15

        r = decoherence_product(p, t)
        c = np.cos(bogoliubov_angle(p.lam + p.coupling, k) - bogoliubov_angle(p.lam, k))
        wt = dispersion(p.lam + p.coupling, k) * t
        direct = (np.prod(np.cos(wt) + 1j * c * np.sin(wt))
                  * np.exp(-1j * np.sum(dispersion(p.lam, k)) * t))
        assert np.isfinite(r)
        assert abs(r - direct) < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_multidimensional_t(self, n):
        p = IsingBathParams(n, 1.0, 0.7, 0.3)
        t = np.linspace(0.1, 2.9, 6).reshape(2, 3)
        out = decoherence_product(p, t)
        assert out.shape == (2, 3)
        scalar = np.array([[decoherence_product(p, v) for v in row] for row in t])
        np.testing.assert_allclose(out, scalar, rtol=0, atol=1e-15)

    def test_memory_flat_in_chain_size(self):
        t = np.linspace(0, 2 * np.pi, 1025)
        peaks = {}
        for n in (1000, 10_000):
            p = IsingBathParams(n, 1.0, 1.0, 5e-5)
            tracemalloc.start()
            try:
                decoherence_product(p, t)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10_000] < 16e6
        assert peaks[10_000] < 1.5 * peaks[1000]

    def test_criticality_deepens_with_size(self):
        # cycle-averaged |r|^2 at the critical field drops as the chain grows
        t = np.linspace(0, 2 * np.pi, 257)
        avgs = []
        for n in (20, 50, 100):
            p = IsingBathParams(n, 1.0, 1.0, 5e-5)
            avgs.append(np.mean(np.abs(decoherence_product(p, t)) ** 2))
        assert avgs[0] > avgs[1] > avgs[2]

    def test_critical_field_dips_deepest(self):
        t = np.linspace(0, 2 * np.pi, 513)
        mins = {}
        for lam in (0.5, 1.0, 1.5):
            p = IsingBathParams(100, 1.0, lam, 5e-5)
            mins[lam] = np.min(np.abs(decoherence_product(p, t)) ** 2)
        assert mins[1.0] < mins[0.5] and mins[1.0] < mins[1.5]


class TestDenseOracle:
    def test_uncoupled(self):
        p = IsingBathParams(6, 1.0, 0.7, 0.0)
        t = np.linspace(0, 3, 7)
        np.testing.assert_allclose(brute_force_oracle(p, t), 1.0, atol=1e-12)

    def test_two_spin_hand_construction(self):
        # independent 4x4 build: H = -J(2 Z1 Z2 + lam (X1 + X2)), periodic pair
        lam, d, t = 0.6, 0.05, 1.1
        z1z2 = np.kron(Z, Z)
        xsum = np.kron(X, I2) + np.kron(I2, X)
        h = lambda l: -(2.0 * z1z2 + l * xsum)
        w, v = np.linalg.eigh(h(lam))
        g = v[:, 0]
        direct = g.conj() @ scipy.linalg.expm(1j * h(lam) * t) @ scipy.linalg.expm(
            -1j * h(lam + d) * t
        ) @ g
        p = IsingBathParams(2, 1.0, lam, d)
        assert abs(brute_force_oracle(p, t) - direct) < 1e-12

    def test_size_ceiling(self):
        with pytest.raises(DimensionTooLarge):
            brute_force_oracle(IsingBathParams(12, 1.0, 0.5, 0.01), 1.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_product_oracle_grid(self, n):
        t = np.linspace(0.0, 2.0, 16)
        for lam in (0.25, 0.75, 1.0, 1.25):
            for d in (1e-3, 1e-2, 0.2):
                p = IsingBathParams(n, 1.0, lam, d)
                dv = np.abs(decoherence_product(p, t) - brute_force_oracle(p, t))
                assert np.max(dv) < 1e-6

    def test_j_scaling(self):
        # restoring J: r depends on J and t only through J*t
        p1 = IsingBathParams(6, 1.0, 0.8, 0.01)
        p3 = IsingBathParams(6, 3.0, 0.8, 0.01)
        assert decoherence_product(p3, 0.7) == pytest.approx(decoherence_product(p1, 2.1), abs=1e-12)
        assert brute_force_oracle(p3, 0.7) == pytest.approx(brute_force_oracle(p1, 2.1), abs=1e-12)
