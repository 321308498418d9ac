"""Accessible-dimension analysis of quantum circuit architectures.

The package models architectures as DAGs of two-qubit gate slots, finds
causal slices, constructs all-Clifford witness points whose Jacobian rank
grows linearly with the slice count, estimates the accessible dimension
numerically at Haar-random points, and evaluates the matching closed-form
bounds.
"""

__version__ = "0.1.0"

from .architecture import (
    Architecture,
    StaircaseSliceReport,
    brickwork,
    build_family,
    detect_staircase_slices,
    from_gate_sequence,
    is_causal_slice,
    random_adjacent,
    staircase,
)
from .bounds import (
    BoundSheet,
    complexity_lower_bound,
    make_bound_sheet,
    randomized_bound_probability,
    saturation_threshold,
    staircase_slice_probability,
)
from .clifford import (
    CliffordCircuit,
    CliffordTableau,
    conjugate_pauli_by_gate,
    routing_clifford_2q,
)
from .contraction import (
    GateAssignment,
    RankReport,
    accessible_dimension,
    accessible_dimensions,
    contract,
    contract_state,
    subseed,
    tangent_frame,
)
from .errors import (
    AlphaOutOfRange,
    ArchdimError,
    CertificateMismatch,
    CountMismatch,
    DimensionMismatch,
    InvalidBoundary,
    InvalidQubit,
    NotCausal,
    OddQubitCount,
    PhasedPauli,
    SizeLimit,
    TooManySlices,
    TrivialPauli,
    ValidationError,
    VerdictError,
)
from .experiments import (
    MonteCarloSummary,
    SweepRow,
    growth_sweep,
    randomized_architecture_experiment,
    rows_to_csv,
)
from .pauli import PauliString, nontrivial_strings
from .rank import RankEstimate, TangentFrame, numerical_rank
from .sweep import pauli_coefficients
from .witness import (
    PathTree,
    WitnessCertificate,
    build_path_tree,
    verify_certificate,
    witness_point,
    witness_rank,
)
