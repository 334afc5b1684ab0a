"""Importing the package stays cheap: scipy's slow submodules load only
in the functions that use them.  The public names are pinned, so removing
one from `__init__.py` has to edit the list below on purpose.  No module
imports a name it never uses, exports a name it does not bind, or leaves a
private helper unread."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import vqekit

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


def test_import_leaves_slow_scipy_submodules_unloaded():
    # Building and evaluating a spline schedule loads none of them either,
    # nor does a Bayesian estimate with a credible interval.  The command
    # line stays unloaded too, so library runs never pay for it.
    code = (
        "import sys, vqekit as vk; "
        "vk.Schedule.spline(2.0, 0.3, 0.7).evaluate([0.5, 1.0]); "
        "h = vk.PauliSum.hermitian([(-1, 'XX'), (-1, 'YY'), (1, 'ZZ'), (1, 'ZI'), (1, 'IZ')]); "
        "plan = vk.MeasurementPlan(groups=((0, 1), (2,), (3, 4))); "
        "rep = vk.estimate_expectation(lambda: vk.StateVector.from_label('01'), h, plan, 0.1, "
        "mode='bayesian', rng=vk.make_rng(0), credible_level=0.95); "
        "assert rep.credible_interval is not None; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate', 'vqekit.cli') if m in sys.modules))"
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
    "ValidationError",
    "VqekitError",
    "assemble_observable",
    "build_groups",
    "build_hamiltonian",
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
    "posterior_moments",
    "prepare_state",
    "spectrum_along_path",
    "spin_cluster_generators",
    "success_probability",
    "summarize_benchmark",
    "suquca_generators",
    "truncate_terms",
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


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; those in `__all__` are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    known = used | exported
    return [f"line {line}: {name}" for name, line in imported.items() if name not in known]


def test_unused_imports_checker_flags_only_unread_names():
    source = (
        "import os\nimport numpy as np\nfrom json import dumps, loads\n"
        "from typing import Any\n__all__ = ['Any']\nnp.zeros(loads('1'))\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


def test_no_unused_imports():
    # `__init__.py` imports names to re-export them.
    paths = [*sorted((SRC / "vqekit").glob("*.py")), *sorted(TESTS.glob("*.py"))]
    found = {
        p.name: bad
        for p in paths
        if p.name != "__init__.py" and (bad := unused_imports(p.read_text()))
    }
    assert found == {}


def stale_exports(source: str) -> list[str]:
    """`__all__` entries that no module-level statement binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_stale_exports_checker_flags_only_unbound_names():
    source = (
        "from json import dumps\nimport numpy as np\nX: int = 1\n"
        "def f():\n    Y = 2\n\nclass C:\n    pass\n"
        "__all__ = ['dumps', 'np', 'X', 'f', 'C', 'Y', 'Removed']\n"
    )
    assert stale_exports(source) == ["Y", "Removed"]


def test_no_stale_exports():
    # `unused_imports` counts every `__all__` entry as read, so an entry
    # left behind by a removed definition would pass unseen there.
    sources = {p.name: p.read_text() for p in sorted((SRC / "vqekit").glob("*.py"))}
    assert sum("__all__" in s for s in sources.values()) >= 10
    assert {name: bad for name, s in sources.items() if (bad := stale_exports(s))} == {}


def private_definitions(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(all, unread) module-level `_name` functions and classes, as
    "module: name".  A definition is read when a statement other than its
    own names it, as a bare name or an attribute, in any of the modules."""
    defined = []
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                if not stmt.name.startswith("__"):
                    own = stmt.name
                    defined.append((module, own))
            used |= names - {own}
    return (
        [f"{m}: {n}" for m, n in defined],
        [f"{m}: {n}" for m, n in defined if n not in used],
    )


def test_private_definitions_checker_flags_only_unread_helpers():
    sources = {
        "a": "def _loop():\n    return _loop()\n\nclass _Kept:\n    pass\n\ndef __getattr__(n):\n    pass\n",
        "b": "import a\n\ndef _local():\n    return a._Kept()\n\nx = _local()\n",
    }
    assert private_definitions(sources) == (
        ["a: _loop", "a: _Kept", "b: _local"],
        ["a: _loop"],
    )


def test_no_unread_private_helpers():
    sources = {p.name: p.read_text() for p in sorted((SRC / "vqekit").glob("*.py"))}
    defined, unread = private_definitions(sources)
    assert len(defined) > 40
    assert unread == []
