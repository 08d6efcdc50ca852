"""Open-system geometric phase of a qubit dephased by a near-critical bath.

Library layout:

- :mod:`gphase.gp`: geometric phase from a sampled decoherence factor
  (closed form in the Bloch radius of the dephased state);
  ``GpResult.correction`` is the phase minus its uncoupled value
  pi(1 - cos theta); ``first_grid`` is the one grid rule of every trace.
- :mod:`gphase.two_level`: two-level model of a critical environment, its
  exact branch-overlap decoherence factor and ``oracle_trace`` from the
  first grid that resolves it.
- :mod:`gphase.ising`: transverse-field Ising chain environment shifted from
  lam to lam + delta, via the free-fermion mode product.
- :mod:`gphase.perturbative`: small-coupling expansion of the phase
  correction and the Ising closed forms with complete elliptic integrals.
- :mod:`gphase.protocol`: software replica of the Trotterized two-qubit
  simulation protocol, its gates as closed-form rotations of the Pauli
  matrices it defines; a run returns its readout ``DecoherenceTrace``, and
  ``correction_point`` sets its phase correction beside the oracle's at one
  field.
- :mod:`gphase.cli`: one table of experiments driving parameter sweeps,
  presets and CSV/JSON output.
- :mod:`gphase.reference`: the second route of every quantity above
  (parallel transport, the dense 2^N chain, Richardson coefficients, the
  pinned Trotter step count, the dense partial trace), for tests and demos;
  the package does not import it.
"""

from .gp import (
    DecoherenceTrace,
    GpResult,
    SystemParams,
    build_trace,
    geometric_phase,
    trace_from_samples,
)
from .ising import IsingBathParams, chain_trace, decoherence_product
from .perturbative import (
    IsingClosedForms,
    gp_approx_ising,
    ising_closed_forms,
)
from .protocol import (
    Decomposition,
    ProtocolParams,
    build_target_hamiltonian,
    correction_point,
    run_protocol,
    trotter_step,
)
from .two_level import (
    TwoLevelBathParams,
    decoherence_factor_oracle,
    ground_state,
    oracle_trace,
)

__version__ = "0.1.0"
