"""vqekit: a desk-scale toolkit for variational and adiabatic eigensolvers.

Pauli and fermionic operator algebra, an exact state-vector simulator
with projective measurement, variational ansatz preparation, shot-based
expectation estimation with grouping and credible intervals, annealing
schedules, eigenvalue/overlap certificates, and derivative-free
optimizers, all wired together by the vqekit command-line tool.
"""

from .errors import (
    BoundInapplicableError,
    CapacityError,
    DimensionError,
    NonCommutingGroupError,
    ParameterError,
    ValidationError,
    VqekitError,
)
from .pauli import PauliString, PauliSum, PauliTerm, commutes, multiply
from .fermion import (
    FermionOperator,
    IntegralSet,
    RDMPair,
    assemble_observable,
    build_hamiltonian,
    commutator,
    energy_from_rdm,
    jordan_wigner,
    load_integrals,
    measure_rdm,
    normal_order,
)
from .simulator import (
    GroupSampler,
    StateVector,
    evolve_schedule,
    exact_eigensystem,
    expectation_and_variance,
    ground_state,
)
from .ansatz import (
    AnsatzConfig,
    GeneratorSet,
    ReferenceState,
    fermionic_ucc_generators,
    parameter_count,
    prepare_state,
    spin_cluster_generators,
    suquca_generators,
)
from .schedule import (
    PathRecord,
    PathStudyResult,
    Schedule,
    optimize_path,
    path_study,
    spectrum_along_path,
    success_probability,
)
from .estimate import (
    EstimateReport,
    MeasurementPlan,
    build_groups,
    convolve_posteriors,
    estimate_expectation,
    exact_covariances,
    expected_preparations,
    posterior_moments,
    truncate_terms,
)
from .bounds import (
    BoundInputs,
    SymmetryConstraint,
    delos_blinder,
    folded_spectrum,
    overlap_bound,
    penalty_lagrangian,
    weinstein_interval,
)
from .optimize import (
    Objective,
    OptResult,
    multistart,
    nelder_mead,
    noisy_benchmark,
    summarize_benchmark,
    write_study_csv,
    write_summary_csv,
)
from .rng import make_rng

__version__ = "0.1.0"
