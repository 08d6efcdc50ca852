"""Software replica of the two-qubit quantum-simulation protocol.

The target Hamiltonian H = W Z_S + d Z_S Z_E + B Z_E + G X_E (system x
environment ordering) is built from the four Pauli strings ZI, ZZ, IZ and
IX, and evolved either exactly or with the second-order Strang splitting

    U(dt) ~ e^{-i G dt X_E / 2} e^{-i d dt Z_S Z_E} e^{-i W dt Z_S}
            e^{-i B dt Z_E} e^{-i G dt X_E / 2}.

Every factor exponentiates one of those strings P, so it is the closed form
e^{-i a P} = cos(a) I - i sin(a) P.  The paper's NMR simulator applies its Z
rotations as X-conjugated Y pulses, e^{-i pi X/4} e^{-i a Y} e^{+i pi X/4} =
e^{-i a Z}: an exact identity, so the pulse sequence is this same step.  Its
coupling gate, an evolution time 2 d dt / (pi J) under a (pi J / 2) Z_S Z_E
coupling, is the ZZ rotation by d dt.

``run_protocol`` reads the decoherence factor out from the system coherence
and returns it as a ``DecoherenceTrace``, the same record ``build_trace``
returns for the oracle; ``geometric_phase`` takes either.  Its
coupling-induced correction is ``GpResult.correction``.  An uncoupled
(d = 0) run needs no simulating: Z_S commutes with every environment
factor, so each exact or Strang step factorises and its readout is r = 1 to
rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidDensityMatrix, ValidationError
from .gp import DecoherenceTrace, SystemParams, geometric_phase, trace_from_samples
from .two_level import (
    CouplingConvention,
    TwoLevelBathParams,
    ground_state,
    oracle_trace,
    require_resolved,
)

# Intervals per cycle of run_protocol's readout grid; a stepped evolution
# reaches every readout time only with a multiple of it as steps.
READOUT_SAMPLES = 64

# Samples per cycle of correction_point's theory column.
THEORY_SAMPLES = 1024

# Pauli matrices, Z|0> = +|0>, and the Pauli strings of H in the
# (system x environment) Kronecker order of np.kron.
I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ZI = np.kron(Z, I2)
ZZ = np.kron(Z, Z)
IZ = np.kron(I2, Z)
IX = np.kron(I2, X)


class Decomposition(enum.Enum):
    EXACT = "exact"
    COARSE_TROTTER = "coarse-trotter"


@dataclass(frozen=True)
class ProtocolParams:
    """One protocol configuration: system cycle, bath, stepping scheme."""

    sys: SystemParams
    bath: TwoLevelBathParams
    trotter_steps: int = 64
    decomposition: Decomposition = Decomposition.EXACT

    def __post_init__(self):
        if self.trotter_steps < 1:
            raise ValidationError(f"trotter_steps must be >= 1, got {self.trotter_steps}")
        if self.bath.convention is not CouplingConvention.ZZ_TARGET:
            raise ValidationError(
                "the target Hamiltonian couples through Z_S Z_E only, got convention "
                f"{self.bath.convention.value!r}"
            )


def build_target_hamiltonian(p: ProtocolParams) -> np.ndarray:
    """Dense 4x4 H = W Z_S + d Z_S Z_E + B Z_E + G X_E."""
    b = p.bath
    return p.sys.omega * ZI + b.coupling * ZZ + b.b_field * IZ + b.delta_gap * IX


def _rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """e^{-i angle P} = cos(angle) I - i sin(angle) P of a Pauli string P (P^2 = I)."""
    return np.cos(angle) * np.eye(len(pauli)) - 1j * np.sin(angle) * pauli


def trotter_step(p: ProtocolParams, dt: float) -> np.ndarray:
    """One Strang splitting step for time dt, as a product of Pauli rotations."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    b = p.bath
    half_x = _rotation(IX, b.delta_gap * dt / 2.0)
    return (half_x @ _rotation(ZZ, b.coupling * dt) @ _rotation(ZI, p.sys.omega * dt)
            @ _rotation(IZ, b.b_field * dt) @ half_x)


def _initial_state(p: ProtocolParams, input_theta: float) -> np.ndarray:
    sys_part = np.array([np.sin(input_theta / 2.0), np.cos(input_theta / 2.0)], dtype=complex)
    return np.kron(sys_part, ground_state(p.bath))


def _exact_states(p: ProtocolParams, times: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    h = build_target_hamiltonian(p)
    w, v = np.linalg.eigh(h)
    coeff = v.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * coeff) @ v.T


def _stepped_states(p: ProtocolParams, intervals: int, psi0: np.ndarray) -> np.ndarray:
    """psi0 and the state after each of ``intervals`` equal slices of the
    ``p.trotter_steps`` Strang steps of one cycle (intervals + 1 rows)."""
    per_interval, rest = divmod(p.trotter_steps, intervals)
    if rest:
        raise ValidationError(
            f"{p.decomposition.value} evolution needs trotter_steps to be a multiple of "
            f"the {intervals} readout intervals, got {p.trotter_steps}"
        )
    u = trotter_step(p, p.sys.tau / p.trotter_steps)
    states = np.empty((intervals + 1, 4), dtype=complex)
    states[0] = psi = psi0
    for j in range(1, intervals + 1):
        for _ in range(per_interval):
            psi = u @ psi
        states[j] = psi
    return states


def _system_coherence(states: np.ndarray) -> np.ndarray:
    """<0|rho_S|1> of each two-qubit pure state (rows), environment traced out.

    |psi><psi| is Hermitian and positive, so its trace (the norm) is the one
    density-matrix property left to check."""
    norms = np.einsum("ti,ti->t", states.conj(), states).real
    if not np.all(np.abs(norms - 1.0) <= 1e-10):
        raise InvalidDensityMatrix(
            f"state norms^2 span [{norms.min()!r}, {norms.max()!r}], beyond 1e-10 of 1")
    psi = states.reshape(-1, 2, 2)
    return np.einsum("te,te->t", psi[:, 0, :], psi[:, 1, :].conj())


def run_protocol(p: ProtocolParams, input_theta: float = np.pi / 2.0) -> DecoherenceTrace:
    """Simulate the full measurement protocol over one cycle; returns the readout trace.

    The input state is (sin(th_in/2)|0> + cos(th_in/2)|1>) (x) |g>, evolved by
    the chosen decomposition and read out at each sample time: the system
    coherence <0|rho|1> is rescaled by 2 e^{+2 i W t} / sin(th_in) to recover
    the decoherence factor (the system's own precession enters the coherence
    at twice the cycle frequency).  The readout does not depend on th_in,
    because the coupling is purely dephasing; its geometric phase is
    ``geometric_phase(trace, p.sys)`` at the analysis angle ``p.sys.theta``.
    The readout grid has READOUT_SAMPLES intervals; a bath whose bandwidth
    would alias on it (a phase step of pi or more per interval) raises
    UnwrapFailure before any evolution.
    """
    times = np.linspace(0.0, p.sys.tau, READOUT_SAMPLES + 1)
    if not (0.0 < input_theta < np.pi):
        raise ValidationError("input_theta must lie strictly inside (0, pi)")
    require_resolved(p.bath, p.sys.tau, READOUT_SAMPLES)

    psi0 = _initial_state(p, input_theta)
    if p.decomposition is Decomposition.EXACT:
        states = _exact_states(p, times, psi0)
    else:
        states = _stepped_states(p, READOUT_SAMPLES, psi0)

    r_hat = _system_coherence(states) * 2.0 / np.sin(input_theta)
    r_hat *= np.exp(+2j * p.sys.omega * times)

    return trace_from_samples(times, r_hat)


def cycle_fidelity(p: ProtocolParams) -> float:
    """Full-cycle state fidelity of the stepped evolution against exact, from
    run_protocol's default input state.  ``p.decomposition`` is not read:
    there is one step scheme."""
    psi0 = _initial_state(p, np.pi / 2.0)
    psi_exact = _exact_states(p, np.array([p.sys.tau]), psi0)[0]
    psi = _stepped_states(p, 1, psi0)[-1]
    return float(np.abs(np.vdot(psi_exact, psi)) ** 2)


def worst_cycle_fidelity(p: ProtocolParams, b_values) -> float:
    """Smallest cycle fidelity of ``p`` over the bath fields ``b_values``, capped at 1."""
    return min([1.0] + [cycle_fidelity(replace(p, bath=replace(p.bath, b_field=b)))
                        for b in np.asarray(b_values, dtype=float)])


def step_counts(max_steps: int) -> list[int]:
    """The powers of two up to ``max_steps``: the step counts a fidelity scan tries."""
    if int(max_steps) < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
    return [2**i for i in range(int(max_steps).bit_length())]


def correction_point(p: ProtocolParams) -> tuple[float, float]:
    """Coupling-induced phase correction at the field ``p.bath.b_field``, as
    (protocol, theory).

    The protocol column is the ``GpResult.correction`` of one protocol run's
    readout.  The theory column computes the same correction from the
    branch-overlap decoherence factor without simulating the protocol.  The
    protocol runs first, so a failing field raises its typed error there.
    """
    dphi = geometric_phase(run_protocol(p), p.sys).correction
    theory = oracle_trace(p.bath, p.sys, THEORY_SAMPLES)
    return dphi, geometric_phase(theory, p.sys).correction
