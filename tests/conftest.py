"""Shared fixtures: the shipped configs directory, the 2-spin benchmark
Hamiltonian, the H2 Hamiltonian from the shipped integrals, the wall-clock
budget, the reference action of a Pauli string, and a terminal summary that
reports each acceptance check on its own line."""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import vqekit as vk

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@contextmanager
def wall_budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"budget {seconds:g}s exceeded: {elapsed:.2f}s"


def reference_action(s: vk.PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(src, phases) with (P psi)[b] = phases[b] * psi[src[b]]: the former
    `PauliString.action` body, kept as an oracle independent of the X-mask
    kernel.  src[b] = b ^ x and phases = i^{|x & z|} (-1)^{|src & z|}."""
    src = np.arange(1 << s.n_qubits, dtype=np.intp) ^ s.x_mask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & s.z_mask) & 1)
    phases = (1.0 + 0j, 1j, -1.0 + 0j, -1j)[(s.x_mask & s.z_mask).bit_count() % 4] * signs
    return src, phases


@pytest.fixture
def twospin() -> vk.PauliSum:
    """H = -(XX + YY) + ZZ + Z1 + Z2, exact spectrum {-3, -1, 1, 3}."""
    return vk.PauliSum.hermitian(
        [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
    )


@pytest.fixture
def state01() -> vk.StateVector:
    return vk.StateVector.from_label("01")


@pytest.fixture(scope="session")
def h2_hamiltonian() -> vk.PauliSum:
    ints = vk.load_integrals(str(CONFIGS / "h2_sto3g.ints"))
    return vk.jordan_wigner(vk.build_hamiltonian(ints)).simplify()


@pytest.fixture(scope="session")
def h2_exact(h2_hamiltonian):
    """Dense-diagonalization oracle: (eigenvalues, eigenvectors)."""
    return vk.exact_eigensystem(h2_hamiltonian)


# One line per acceptance check in the terminal summary, so a run's
# pass/fail record can be read without scrolling through the dots.

_ACCEPTANCE_LABELS = {
    "test_c01_measurement_cost_worked_example": "criterion 1: measurement-cost worked example (10, 6, 8 per eps^2)",
    "test_c02_avoided_crossing": "criterion 2: avoided-crossing gap on the 1e-3 grid",
    "test_c03_path_advantage": "criterion 3: optimized schedule advantage at constrained tau",
    "test_c04_vqe_end_to_end": "criterion 4: H2 VQE converges to the exact ground eigenvalue",
    "test_c05_estimator_statistics": "criterion 5: interval coverage and mode agreement over 500 runs",
    "test_c06_bayesian_formulas": "criterion 6: Beta moments and the group loop's posterior, rational oracle",
    "test_c07_truncation_bias_variance": "criterion 7: truncation bias and mean-square-error budget",
    "test_c08_bound_validity": "criterion 8: Weinstein/overlap bounds, randomized and arithmetic",
    "test_c09_commutator_identities": "criterion 9: ladder-operator commutator identities at M=4",
    "test_c10_universality_hook": "criterion 10: relaxed two-qubit step reaches an arbitrary SU(4) action",
    "test_c11_optimizer_study": "criterion 11: noisy-optimizer study tables and exact-mode accuracy",
}


def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            label = _ACCEPTANCE_LABELS.get(name)
            if label is None:
                continue
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, f"{label} ... {status}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
