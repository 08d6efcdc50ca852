"""The benchmark's workloads: the CLI calls each one makes and their output checks.

A workload seed shifts every sweep grid by a seeded fraction of one grid step
through the experiments' own range flags (``--lambda-min/--lambda-max`` or
``--b-min/--b-max``).  Seed 0 shifts by nothing and reproduces the preset
grids, whose payloads are compared against the reference files in
``reference/``: the CLI output of the seed commit for the seed-0 calls.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Scale shared by the two-level presets (paper-fig1c, trotter-claim), rad/s.
OMEGA_REF = 100.0 * math.pi
B_LO, B_HI = -0.2 * OMEGA_REF, 0.2 * OMEGA_REF

# Flags every call gets: one process, failed points flagged as NaN rows.
COMMON_FLAGS = ("--workers", "1", "--keep-going")

# The chain-approx chain (CLI defaults but N), to recompute rows by the exact
# route.  At the default N = 100 the closed forms, being continuum integrals,
# miss the mode sum by up to 4% near lambda = 1; at N = 1000 by 0.2%.
APPROX_CHAIN = {"n_spins": 1000, "j_coupling": 1.0, "coupling": 5e-5,
                "omega_over_j": 1.0, "theta": math.pi / 4.0}
SPOT_CHECK_ROWS = 3
SPOT_CHECK_SAMPLES = 4096

EXACT_VS_ORDER3_RTOL = 0.01      # about 0.2% apart at the seed commit
# 65 readout samples per cycle against 1024 for the theory column: about 5e-7
# apart typically, 1.1e-5 at worst (|B| near 0.01 omega) at the seed commit
PROTOCOL_VS_THEORY_ATOL = 5e-5
PINNED_TROTTER_STEPS = 2
FIDELITY_FLOOR = 0.997
# Reference payloads must match to this tolerance; reordered sums and
# replaced quadratures may move the last digits, a wrong formula may not.
REFERENCE_RTOL, REFERENCE_ATOL = 1e-7, 1e-9


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload."""

    name: str                 # label and payload file stem
    argv: tuple[str, ...]     # without --output
    points: int               # sweep points the call attempts


WORKLOADS = ("chain-exact", "chain-approx", "protocol")


def grid_fraction(seed: int) -> float:
    """Fraction of one grid step by which the seed shifts every sweep grid."""
    return 0.0 if seed == 0 else random.Random(seed).random()


def _shifted(flag: str, lo: float, hi: float, points: int, frac: float) -> tuple[str, ...]:
    step = (hi - lo) / (points - 1)
    return (f"--{flag}-points", str(points),
            f"--{flag}-min", repr(lo + frac * step), f"--{flag}-max", repr(hi + frac * step))


def calls(workload: str, seed: int) -> list[Call]:
    """The CLI calls one repetition of ``workload`` makes under ``seed``."""
    f = grid_fraction(seed)
    if workload == "chain-exact":
        argv = ("ising-sweep", "--preset", "paper-figA", "--n-spins", "1000",
                *_shifted("lambda", 0.0, 2.0, 7, f))
        return [Call("ising-sweep", argv + COMMON_FLAGS, 7)]
    if workload == "chain-approx":
        argv = ("ising-approx", "--n-spins", str(APPROX_CHAIN["n_spins"]),
                *_shifted("lambda", 0.0, 2.0, 401, f))
        return [Call("ising-approx", argv + COMMON_FLAGS, 401)]
    if workload == "protocol":
        corr = ("correction", "--preset", "paper-fig1c", *_shifted("b", B_LO, B_HI, 201, f))
        trot = ("trotter-check", "--preset", "trotter-claim", *_shifted("b", B_LO, B_HI, 101, f))
        # trotter-check sweeps n_steps = 1, 2, 4, ..., 512 (max_steps of the preset)
        return [Call("correction", corr + COMMON_FLAGS, 201),
                Call("trotter-check", trot + COMMON_FLAGS, 10)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# payloads

@dataclass(frozen=True)
class Payload:
    columns: list[str]
    rows: list[list[float]]    # numeric columns only
    hashes: list[str]          # config_hash column

    @property
    def failed_rows(self) -> int:
        return sum(any(math.isnan(x) for x in row) for row in self.rows)

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def parse_payload(data: bytes) -> Payload:
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    header = next(reader, [""])
    if header[-1] != "config_hash":
        raise ValueError(f"unexpected payload header {header}")
    body = [r for r in reader if r]
    return Payload(columns=header[:-1], rows=[[float(x) for x in r[:-1]] for r in body],
                   hashes=[r[-1] for r in body])


def reference_path(workload: str, call: Call) -> Path:
    return REFERENCE_DIR / f"{workload}.{call.name}.csv"


def check_reference(workload: str, call: Call, data: bytes) -> tuple[bool, str]:
    """Compare a seed-0 payload with the reference payload of the seed commit."""
    ref_bytes = reference_path(workload, call).read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    ident = "byte-identical" if data == ref_bytes else "not byte-identical"
    got, ref = parse_payload(data), parse_payload(ref_bytes)
    if got.columns != ref.columns or len(got.rows) != len(ref.rows):
        return False, f"shape differs from reference (sha256 {sha[:16]}, {ident})"
    if got.hashes != ref.hashes:
        return False, f"config_hash differs from reference (sha256 {sha[:16]}, {ident})"
    worst = max((abs(a - b) / (REFERENCE_ATOL + REFERENCE_RTOL * abs(b))
                 for ra, rb in zip(got.rows, ref.rows) for a, b in zip(ra, rb)), default=0.0)
    ok = worst <= 1.0
    return ok, f"max deviation {worst:.3g} of tolerance; sha256 {sha[:16]}, {ident}"


def _exact_chain_dphi_norm(gphase, lam: float) -> float:
    """Normalised phase shift of the ising-approx chain by the exact mode product."""
    c = APPROX_CHAIN
    bath = gphase.IsingBathParams(n_spins=c["n_spins"], j_coupling=c["j_coupling"],
                                  lam=lam, coupling=c["coupling"])
    sysp = gphase.SystemParams(omega=c["omega_over_j"] * c["j_coupling"], theta=c["theta"])
    trace = gphase.build_trace(lambda t: gphase.decoherence_product(bath, t), sysp,
                               SPOT_CHECK_SAMPLES)
    ones = gphase.build_trace(lambda t: 0j * t + 1.0, sysp, SPOT_CHECK_SAMPLES)
    dphi = (gphase.geometric_phase(trace, sysp).phi_total
            - gphase.geometric_phase(ones, sysp).phi_total)
    return dphi / (c["n_spins"] * c["coupling"] ** 2)


def check_routes(workload: str, seed: int, payloads: dict[str, Payload],
                 gphase) -> list[tuple[str, bool, str]]:
    """Two-route checks of one repetition's payloads, run for every seed."""
    out = []
    if workload == "chain-exact":
        p = payloads["ising-sweep"]
        exact, o3 = p.column("dphi_exact_norm"), p.column("dphi_order3_norm")
        worst = max(abs(a - b) / abs(a) for a, b in zip(exact, o3))
        out.append(("exact vs order 3", worst <= EXACT_VS_ORDER3_RTOL,
                    f"max relative gap {worst:.3g} (limit {EXACT_VS_ORDER3_RTOL})"))
    elif workload == "chain-approx":
        p = payloads["ising-approx"]
        picks = sorted(random.Random(seed).sample(range(len(p.rows)), SPOT_CHECK_ROWS))
        lams, o3 = p.column("lambda"), p.column("dphi_order3_norm")
        exact = {i: _exact_chain_dphi_norm(gphase, lams[i]) for i in picks}
        worst = max(abs(o3[i] - e) / abs(e) for i, e in exact.items())
        out.append(("order 3 vs exact mode product", worst <= EXACT_VS_ORDER3_RTOL,
                    f"rows {picks}: max relative gap {worst:.3g} (limit {EXACT_VS_ORDER3_RTOL})"))
    elif workload == "protocol":
        p = payloads["correction"]
        worst = max(abs(a - b) for a, b in zip(p.column("dphi_protocol"), p.column("dphi_theory")))
        out.append(("protocol vs theory", worst <= PROTOCOL_VS_THEORY_ATOL,
                    f"max |dphi_protocol - dphi_theory| {worst:.3g} (limit {PROTOCOL_VS_THEORY_ATOL})"))
        t = payloads["trotter-check"]
        fid = dict(zip(t.column("n_steps"), t.column("min_fidelity"))).get(PINNED_TROTTER_STEPS, math.nan)
        out.append((f"fidelity at {PINNED_TROTTER_STEPS} Trotter steps", fid >= FIDELITY_FLOOR,
                    f"min fidelity {fid:.6f} (floor {FIDELITY_FLOOR})"))
    return out
