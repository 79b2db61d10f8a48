"""Triangle-encoded exchange-only spin qubits: spectra, gates, and sweeps.

Three spin-1/2 sites with equal always-on Heisenberg couplings in a global
field host one logical qubit in their doubly degenerate S_z = +1/2 ground
doublet; the field-opened gap protects it.  This package reproduces the
spectra, the effective logical Hamiltonians, and the full gate set (single-LQ
rotations by coupling excursions, conditional phase by one adiabatic
inter-triple pulse) by exact diagonalization at Hilbert dimensions 8 and 64.
"""

from .encoding import (
    EffectiveHamiltonian,
    GroundStateReport,
    LambdaTriple,
    LogicalBasis,
    effective_h1,
    initialization_ground,
    lambda_curve,
    lambda_spectrum,
    logical_basis,
    project_effective,
    singlet_probability,
    two_lq_basis,
    verify_lambda_polynomials,
)
from .gates import (
    GateReport,
    PulseSchedule,
    Segment,
    axis120_gate,
    cphase_gate,
    decompose_su2,
    gate_report,
    propagate,
    rx_gate,
    rz_gate,
    synthesize_axis120,
    synthesize_cphase,
    synthesize_rx,
    synthesize_rz,
)
from .hamiltonian import (
    CouplingGraph,
    SectorBasis,
    build_hamiltonian,
    exchange_term,
    single_lq_graph,
    sz_sectors,
    two_lq_graph,
)
from .linalg import BudgetError
from .spectra import (
    CrossingReport,
    PhysicalUnits,
    SweepResult,
    adiabatic_leakage_curve,
    optimal_field,
    sweep_field,
    sweep_inter,
    sweep_intra,
    to_physical,
)

__version__ = "0.1.0"
