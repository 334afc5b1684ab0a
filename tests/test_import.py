"""Importing the package stays cheap: scipy's slow submodules load only
in the functions that use them.  The public names are pinned, so removing
one from `__init__.py` has to edit the list below on purpose."""

import os
import subprocess
import sys
import types
from pathlib import Path

import vqekit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_slow_scipy_submodules_unloaded():
    # Building and evaluating a spline schedule loads none of them either.
    code = (
        "import sys, vqekit; "
        "vqekit.Schedule.spline(2.0, 0.3, 0.7).evaluate([0.5, 1.0]); "
        "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


PUBLIC_NAMES = [
    "AnsatzConfig",
    "BoundInapplicableError",
    "BoundInputs",
    "CapacityError",
    "DimensionError",
    "EstimateReport",
    "FermionOperator",
    "GeneratorSet",
    "GroupSampler",
    "IntegralSet",
    "MeasurementPlan",
    "MeasurementRecord",
    "NonCommutingGroupError",
    "Objective",
    "OptResult",
    "ParameterError",
    "PathRecord",
    "PathStudyResult",
    "PauliString",
    "PauliSum",
    "PauliTerm",
    "RDMPair",
    "ReferenceState",
    "Schedule",
    "StateVector",
    "SymmetryConstraint",
    "TermEstimator",
    "ValidationError",
    "VqekitError",
    "apply_pauli_exponential",
    "apply_pauli_string",
    "assemble_observable",
    "build_groups",
    "build_hamiltonian",
    "canonicalize_reference",
    "commutator",
    "commutes",
    "convolve_posteriors",
    "delos_blinder",
    "energy_from_rdm",
    "estimate_expectation",
    "evolve_schedule",
    "exact_covariances",
    "exact_eigensystem",
    "expectation_and_variance",
    "expected_preparations",
    "fermionic_ucc_generators",
    "folded_spectrum",
    "ground_state",
    "jordan_wigner",
    "load_integrals",
    "make_rng",
    "measure_rdm",
    "multiply",
    "multistart",
    "nelder_mead",
    "noisy_benchmark",
    "normal_order",
    "optimize_path",
    "overlap_bound",
    "parameter_count",
    "path_study",
    "penalty_lagrangian",
    "pilot_covariances",
    "posterior_moments",
    "prepare_state",
    "sample_group",
    "spawn_rngs",
    "spectrum_along_path",
    "spin_cluster_generators",
    "success_probability",
    "summarize_benchmark",
    "suquca_generators",
    "truncate_terms",
    "update_bayesian",
    "update_frequentist",
    "weinstein_interval",
    "write_study_csv",
    "write_summary_csv",
]


def test_public_names():
    got = sorted(
        name
        for name, value in vars(vqekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert got == PUBLIC_NAMES
