"""The compiled (X-mask grouped) form of a Pauli sum, property-tested.

Random sums of up to five qubits are checked against a dense oracle that
is rebuilt here from the 2x2 matrices with one kron per term, the
construction the compiled form replaces.  Coefficients are drawn from a
small dyadic set so duplicate strings cancel exactly and the validation
flags have exact answers.  The former term-by-term build, the former
`expected_preparations` on top of it, the former per-string action and the
former per-term `exact_covariances` are kept here as the bitwise oracles of
the vectorised X-mask kernel.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import CONFIGS, reference_action
from test_fermion import random_integrals

import vqekit.estimate as estimate
import vqekit.pauli as pauli
from vqekit.estimate import _priced_groups
from vqekit.errors import DimensionError, ValidationError
from vqekit import (
    AnsatzConfig,
    GeneratorSet,
    MeasurementPlan,
    PauliString,
    PauliSum,
    PauliTerm,
    ReferenceState,
    StateVector,
    build_groups,
    build_hamiltonian,
    commutes,
    exact_covariances,
    expectation_and_variance,
    expected_preparations,
    fermionic_ucc_generators,
    jordan_wigner,
    load_integrals,
    multiply,
    parameter_count,
    prepare_state,
)

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PARTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)

SETTINGS = settings(max_examples=60, deadline=None)


def dense(letters: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for c in letters:
        m = np.kron(m, MATS[c])
    return m


def kron_sum(h: PauliSum) -> np.ndarray:
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        m += t.coeff * dense(t.string.letters)
    return m


def letters(n: int):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


@st.composite
def pauli_sums(draw, max_terms: int = 8, imag: bool = True):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(k):
        c = complex(draw(st.sampled_from(PARTS)), draw(st.sampled_from(PARTS)) if imag else 0.0)
        terms.append(PauliTerm(c, PauliString(draw(letters(n)))))
    return PauliSum(n, terms)


@st.composite
def single_mask_generators(draw):
    """i K with K = sum_k kappa_k P_k over strings sharing one X mask."""
    n = draw(st.integers(1, 4))
    x = draw(st.integers(0, (1 << n) - 1))
    zs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    terms = [
        PauliTerm(1j * draw(st.sampled_from(PARTS)), PauliString.from_masks(n, x, z))
        for z in zs
    ]
    return PauliSum(n, terms)


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def generic_reference(n: int, seed: int) -> ReferenceState:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        pairs.append((complex(a[0]), complex(a[1])))
    return ReferenceState(n_qubits=n, qubit_pairs=tuple(pairs))


def exponentiate(g: PauliSum, scale: float, ref: ReferenceState) -> np.ndarray:
    gens = GeneratorSet(n_qubits=g.n_qubits, generators=(g,), labels=(("g",),))
    return prepare_state(ref, AnsatzConfig(generator_set=gens), np.array([scale])).amplitudes


class TestKernel:
    @SETTINGS
    @given(pauli_sums(), st.integers(0, 2**32 - 1))
    def test_apply_matches_dense(self, h, seed):
        psi = random_state(h.n_qubits, seed)
        np.testing.assert_allclose(
            h.compiled.apply(psi), kron_sum(h) @ psi, rtol=0, atol=1e-12
        )

    @SETTINGS
    @given(pauli_sums())
    def test_to_matrix_is_the_kron_sum(self, h):
        assert np.array_equal(h.to_matrix(), kron_sum(h))

    @SETTINGS
    @given(pauli_sums())
    def test_one_group_per_x_mask(self, h):
        masks = {t.string.x_mask for t in h.terms}
        assert len(h.compiled.groups) == len(masks)
        for src, _ in h.compiled.groups:
            assert len({int(b) ^ int(s) for b, s in enumerate(src)}) == 1

    @SETTINGS
    @given(pauli_sums())
    def test_flags(self, h):
        m = kron_sum(h)
        cg = h.compiled
        assert cg.hermitian == np.array_equal(m, m.conj().T)
        pairwise = all(
            np.array_equal(dense(a.string.letters) @ dense(b.string.letters),
                           dense(b.string.letters) @ dense(a.string.letters))
            for a in h.terms for b in h.terms
        )
        assert cg.commuting == pairwise

    @SETTINGS
    @given(pauli_sums(imag=False), st.integers(0, 2**32 - 1))
    def test_expectation_matches_dense(self, h, seed):
        psi = random_state(h.n_qubits, seed)
        m = kron_sum(h)
        mean, var = expectation_and_variance(StateVector(psi), h)
        want = float(np.real(np.vdot(psi, m @ psi)))
        assert mean == pytest.approx(want, abs=1e-12)
        want_var = float(np.real(np.vdot(m @ psi, m @ psi))) - want * want
        assert var == pytest.approx(max(0.0, want_var), abs=1e-10)

    def test_compiled_once_and_lazily(self, twospin):
        h = twospin + twospin
        assert h._compiled is None
        assert h.simplify()._compiled is None
        first = h.compiled
        h.to_matrix()
        h.is_hermitian()
        assert h.compiled is first

    def test_h2_is_two_groups(self, h2_hamiltonian):
        assert len(h2_hamiltonian.terms) == 15
        assert len(h2_hamiltonian.compiled.groups) == 2


class TestGeneratorExponential:
    @SETTINGS
    @given(single_mask_generators(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    def test_single_mask_closed_form(self, g, scale, seed):
        ref = generic_reference(g.n_qubits, seed)
        want = expm(scale * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, scale, ref), want, rtol=0, atol=1e-12)

    def test_zero_magnitude_diagonal_entries(self):
        # K = XX + YY has D = 0 on |00> and |11>: those amplitudes stay put.
        g = PauliSum.from_terms([(1j, "XX"), (1j, "YY")])
        diag = g.compiled.groups[0][1]
        assert np.count_nonzero(diag == 0) == 2
        ref = generic_reference(2, 5)
        want = expm(0.7 * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, 0.7, ref), want, rtol=0, atol=1e-12)

    def test_all_zero_generator_is_identity(self):
        g = PauliSum.from_terms([(1j, "ZI"), (-1j, "ZI")])
        ref = generic_reference(2, 9)
        np.testing.assert_allclose(
            exponentiate(g, 1.3, ref), ref.to_state().amplitudes, rtol=0, atol=0
        )

    @SETTINGS
    @given(pauli_sums(max_terms=5), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_any_generator(self, h, scale, seed):
        # i * (real-coefficient sum): commuting and non-commuting, any masks.
        g = PauliSum(h.n_qubits, [PauliTerm(1j * t.coeff.real, t.string) for t in h.terms])
        ref = generic_reference(g.n_qubits, seed)
        want = expm(scale * kron_sum(g)) @ ref.to_state().amplitudes
        np.testing.assert_allclose(exponentiate(g, scale, ref), want, rtol=0, atol=1e-12)


class TestStringAlgebra:
    @SETTINGS
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(letters(n), letters(n))))
    def test_multiply_matches_matrix_product(self, pair):
        a, b = pair
        phase, s = multiply(PauliString(a), PauliString(b))
        assert np.array_equal(dense(a) @ dense(b), phase * dense(s.letters))

    @SETTINGS
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(letters(n), letters(n))))
    def test_commutes_matches_matrix_commutator(self, pair):
        a, b = pair
        ma, mb = dense(a), dense(b)
        assert commutes(PauliString(a), PauliString(b)) == np.array_equal(ma @ mb, mb @ ma)

    @SETTINGS
    @given(st.integers(1, 5).flatmap(letters))
    def test_string_matrix(self, s):
        assert np.array_equal(PauliString(s).to_matrix(), dense(s))


def reference_compiled(h: PauliSum):
    """The former term-by-term build of h's compiled form, kept as the
    oracle of the X-mask kernel: (groups, hermitian, commuting)."""
    merged: dict[tuple[int, int], complex] = {}
    groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in h.terms:
        s = t.string
        key = (s.x_mask, s.z_mask)
        merged[key] = merged.get(key, 0j) + t.coeff
        src, phases = reference_action(s)
        if s.x_mask not in groups:
            groups[s.x_mask] = (src, np.zeros(src.size, dtype=complex))
        diag = groups[s.x_mask][1]
        diag += t.coeff * phases
    hermitian = all(abs(c.imag) <= 1e-10 for c in merged.values())
    commuting = pauli._first_anticommuting_pair(list(merged)) is None
    return tuple(groups.values()), hermitian, commuting


def reference_expected_preparations(plan, state, h, epsilon):
    """The former `expected_preparations`: each group's sum compiled by the
    reference build, then <Q>, Q psi and ||(Q - <Q>) psi||^2 as before."""
    psi = state.amplitudes
    total_var = 0.0
    for g in plan.groups:
        groups, hermitian, _ = reference_compiled(PauliSum(h.n_qubits, [h.terms[i] for i in g]))
        assert hermitian
        phi = np.zeros_like(psi)
        for src, diag in groups:
            phi += diag * psi[src]
        mean = complex(np.vdot(psi, phi)).real
        phi -= mean * psi
        total_var += float(np.real(np.vdot(phi, phi)))
    return len(plan.groups) * total_var / (epsilon * epsilon)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: signed zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_compiled(h: PauliSum):
    groups, hermitian, commuting = reference_compiled(h)
    got = h.compiled
    assert len(got.groups) == len(groups)
    for (src, diag), (want_src, want_diag) in zip(got.groups, groups):
        assert same_bits(src, want_src)
        assert same_bits(diag.view(float), want_diag.view(float))
    assert (got.hermitian, got.commuting) == (hermitian, commuting)


def random_sum(rng) -> PauliSum:
    """1-6 qubits, strings from a small pool so they repeat, and complex
    coefficients of mixed scales with +-0.0 parts and exact cancellations."""
    n = int(rng.integers(1, 7))
    pool = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(int(rng.integers(1, 9)))]
    parts = (0.0, -0.0, 1.0, -0.5, 0.1, -1e-13, 3.7e8)
    terms = []
    for _ in range(int(rng.integers(0, 16))):
        if rng.random() < 0.5:
            c = complex(rng.choice(parts), rng.choice(parts))
        else:
            c = complex(*(rng.normal(size=2) * 10.0 ** rng.integers(-12, 12, size=2)))
        terms.append(PauliTerm(c, PauliString(str(rng.choice(pool)))))
    return PauliSum(n, terms)


def seeded_set(m: int):
    """The seeded m-mode set: its Hamiltonian, unsimplified and simplified,
    and an order-2 UCC state at theta ~ N(0, 0.1^2)."""
    occ, virt = list(range(m // 2)), list(range(m // 2, m))
    raw = jordan_wigner(build_hamiltonian(random_integrals(np.random.default_rng(7000 + m), m)))
    acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(m, occ, virt, 2))
    theta = np.random.default_rng(m).normal(0.0, 0.1, parameter_count(acfg))
    state = prepare_state(ReferenceState.from_occupied(m, occ), acfg, theta)
    return raw, raw.simplify(), state


def shipped_sums() -> list[PauliSum]:
    """Every sum the shipped configs build: the adiabatic pair, the two-spin
    Hamiltonian, H2 as `vqe` builds it and simplified, and H2's generators."""
    adiabatic = json.loads((CONFIGS / "adiabatic_1q.json").read_text())
    h2 = jordan_wigner(build_hamiltonian(load_integrals(str(CONFIGS / "h2_sto3g.ints"))))
    gens = fermionic_ucc_generators(4, [0, 1], [2, 3], 2).generators
    return [
        PauliSum.from_json_dict(adiabatic["initial_hamiltonian"]),
        PauliSum.from_json_dict(adiabatic["problem_hamiltonian"]),
        PauliSum.loads((CONFIGS / "twospin.json").read_text()),
        h2,
        h2.simplify(),
        *(PauliSum(g.n_qubits, g.terms) for g in gens),
    ]


def benchmark_inputs(h2: PauliSum):
    """(sum, state, plan) for the plans Hamiltonian averaging runs on the
    two-spin sum at |01> and on H2 at a UCC state."""
    two = PauliSum.loads((CONFIGS / "twospin.json").read_text())
    s01 = StateVector.from_label("01")
    acfg = AnsatzConfig(generator_set=fermionic_ucc_generators(4, [0, 1], [2, 3], 2))
    theta = 0.3 + np.random.default_rng(5).uniform(-0.02, 0.02, parameter_count(acfg))
    h2_state = prepare_state(ReferenceState.from_occupied(4, [0, 1]), acfg, theta)
    out = [
        (two, s01, build_groups(two, exact_covariances(two, s01))),
        (two, s01, MeasurementPlan(groups=((0, 1), (2,), (3, 4)))),
        (h2, h2_state, build_groups(h2, exact_covariances(h2, h2_state))),
        (h2, h2_state, build_groups(h2)),
    ]
    estimate_cfg = json.loads((CONFIGS / "twospin_estimate.json").read_text())
    for p in estimate_cfg["plans"]:
        out.append((two, s01, MeasurementPlan(groups=tuple(map(tuple, p["groups"])))))
    return out


class TestCompileOracle:
    """The X-mask kernel gives the former build's compiled forms and group
    variances bit for bit."""

    def test_random_sums(self):
        rng = np.random.default_rng(1600)
        for _ in range(400):
            assert_same_compiled(random_sum(rng))

    def test_signed_zeros(self):
        # c_k * phases_k holds -0.0 parts here (Y has phase i, and c a -0.0
        # imaginary part); the former sum from zeros leaves +0.0 in their place.
        for pairs in (
            [(complex(1.0, -0.0), "Y")],
            [(complex(-0.0, -0.0), "YZ"), (complex(-0.0, 0.0), "YI")],
            [(complex(0.5, -0.0), "XY"), (complex(-0.0, -0.0), "XY")],
        ):
            assert_same_compiled(PauliSum.from_terms(pairs))

    def test_shipped_and_seeded_sums(self):
        for h in shipped_sums():
            assert_same_compiled(h)
        for m in (6, 7, 8, 9, 10):
            raw, simple, _ = seeded_set(m)
            assert_same_compiled(raw)
            assert_same_compiled(simple)

    @staticmethod
    def variance_cases(h2):
        cases = [(h, state, plan, 0.1) for h, state, plan in benchmark_inputs(h2)]
        for m in (6, 7, 8, 9, 10):
            _, h, state = seeded_set(m)
            cases.append((h, state, build_groups(h), 0.05))
        return cases

    def test_group_variances(self, h2_hamiltonian):
        # The former `expected_preparations` body, verbatim: each group's sum
        # compiled by the X-mask kernel and its exact variance.
        for h, state, plan, eps in self.variance_cases(h2_hamiltonian):
            total_var = 0.0
            for g in plan.groups:
                q = PauliSum(h.n_qubits, [h.terms[i] for i in g])
                total_var += expectation_and_variance(state, q)[1]
            got = len(plan.groups) * total_var / (eps * eps)
            assert same_bits(got, reference_expected_preparations(plan, state, h, eps))

    def test_price_is_the_enforced_one(self, h2_hamiltonian):
        # `expected_preparations` reads Var[Q_g] from the group samplers'
        # pattern probabilities, as `estimate_expectation` does: equal bits
        # on the benchmark inputs and at 6, 9 and 10 modes, and at most
        # 1.66e-16 relative from the compiled variances (7 modes).
        for h, state, plan, eps in self.variance_cases(h2_hamiltonian):
            got = expected_preparations(plan, state, h, eps)
            assert same_bits(got, _priced_groups(state, h, plan, eps, "frequentist")[1])
            want = reference_expected_preparations(plan, state, h, eps)
            assert abs(got - want) <= 4.4e-16 * abs(want)

    def test_errors_are_unchanged(self):
        # Group 0 merges to a real coefficient; group 1 does not.
        h = PauliSum.from_terms([(1 + 1j, "XX"), (-1j, "XX"), (0.5j, "ZZ")])
        state = StateVector.from_label("01")
        real = PauliSum(2, h.terms[:2])
        expected_preparations(MeasurementPlan(groups=((0, 1),)), state, real, 0.1)
        with pytest.raises(ValidationError, match="^expectation requires a Hermitian sum$"):
            expected_preparations(MeasurementPlan(groups=((0, 1), (2,))), state, h, 0.1)
        other = StateVector.from_label("011")
        with pytest.raises(DimensionError, match="^operator and state qubit counts differ$"):
            expected_preparations(MeasurementPlan(groups=((0, 1), (2,))), other, h, 0.1)


def reference_covariances(h: PauliSum, state: StateVector) -> np.ndarray:
    """The former `exact_covariances`: one reference string action per
    non-identity term, then the same cross product and outer subtraction."""
    m = len(h.terms)
    phis = np.zeros((m, state.amplitudes.size), dtype=complex)
    means = np.zeros(m)
    for i, t in enumerate(h.terms):
        if t.string.is_identity():
            continue
        src, phases = reference_action(t.string)
        phi = complex(t.coeff) * (state.amplitudes[src] * phases)
        phis[i] = phi
        means[i] = float(np.real(np.vdot(state.amplitudes, phi)))
    cross = np.real(phis.conj() @ phis.T)
    return cross - np.outer(means, means)


class TestActionOracle:
    """`PauliString.action` and `exact_covariances` run on the X-mask kernel
    and give the former per-string results bit for bit."""

    def test_every_string_of_up_to_five_qubits(self):
        count = 0
        for n in range(1, 6):
            for chars in itertools.product("IXYZ", repeat=n):
                s = PauliString("".join(chars))
                src, phases = s.action()
                want_src, want_phases = reference_action(s)
                assert same_bits(src, want_src) and same_bits(phases, want_phases), s
                count += 1
        assert count == 1364

    def test_covariances(self, h2_hamiltonian):
        inputs = benchmark_inputs(h2_hamiltonian)
        cases = [inputs[0][:2], inputs[2][:2]]  # two-spin at |01>, H2 at a UCC state
        for m in (6, 8, 10):
            raw, simple, state = seeded_set(m)
            cases += [(simple, state)] if m > 6 else [(raw, state), (simple, state)]
        # Identity rows, a signed zero and complex coefficients.
        odd = PauliSum.from_terms([(0.5, "II"), (complex(-0.0, 0.3), "XY"), (2.0 - 1j, "ZI")])
        cases.append((odd, StateVector(random_state(2, 25))))
        for h, state in cases:
            assert same_bits(exact_covariances(h, state), reference_covariances(h, state))

    def test_covariance_blocks(self, monkeypatch):
        # Blocks of one, two and three rows give the bits of a single block.
        _, h, state = seeded_set(6)
        want = reference_covariances(h, state)
        for rows in (1, 2, 3):
            monkeypatch.setattr(estimate, "_ROW_BLOCK_BYTES", rows * state.amplitudes.nbytes)
            assert same_bits(exact_covariances(h, state), want)

    @pytest.mark.parametrize("letters", ["II", "XZ"])
    def test_covariance_qubit_counts_must_match(self, letters):
        # Checked before any row: an identity-only sum forms none, and a
        # larger state would gather in-range indices into wrong numbers.
        h = PauliSum.from_terms([(1.0, letters)])
        for label in ("010", "0"):
            with pytest.raises(DimensionError, match="^string and state qubit counts differ$"):
                exact_covariances(h, StateVector.from_label(label))


class TestPairTest:
    """The pair test behind `commuting` runs on the flag's first read only."""

    @staticmethod
    def count_pair_tests(monkeypatch) -> list[int]:
        calls = []
        real = pauli._first_anticommuting_pair

        def counting(masks):
            calls.append(len(masks))
            return real(masks)

        monkeypatch.setattr(pauli, "_first_anticommuting_pair", counting)
        return calls

    def test_expectation_runs_none(self, monkeypatch):
        _, h, state = seeded_set(10)
        calls = self.count_pair_tests(monkeypatch)
        expectation_and_variance(state, h)
        assert calls == []

    def test_once_per_multi_mask_generator(self, monkeypatch):
        gens = GeneratorSet(
            n_qubits=2,
            generators=(
                PauliSum.from_terms([(0.5j, "XI"), (0.3j, "ZZ")]),  # anticommute
                PauliSum.from_terms([(0.2j, "IX"), (0.7j, "YZ")]),  # anticommute
                PauliSum.from_terms([(0.4j, "XX"), (0.6j, "ZZ")]),  # commute
                PauliSum.from_terms([(0.8j, "XY"), (0.1j, "YX")]),  # one X mask
            ),
            labels=(("a",), ("b",), ("c",), ("d",)),
        )
        cfg = AnsatzConfig(generator_set=gens)
        ref = generic_reference(2, 3)
        rng = np.random.default_rng(16)
        calls = self.count_pair_tests(monkeypatch)
        for _ in range(50):
            prepare_state(ref, cfg, rng.normal(size=4))
        # One test per generator of two or more X masks; one mask needs none.
        assert calls == [2, 2, 2]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_compiling_ten_modes_keeps_peak_memory_small(self):
        # The former build ran the pair test over all 2546 terms at once:
        # about +60 MB of peak RSS.  The groups themselves are about 6 MB.
        # The peak is the child's VmHWM, as in test_simulator.py.
        code = (
            "import sys\n"
            "import numpy as np, vqekit as vk\n"
            "from test_fermion import random_integrals\n"
            "ints = random_integrals(np.random.default_rng(7010), 10)\n"
            "h = vk.jordan_wigner(vk.build_hamiltonian(ints)).simplify()\n"
            "if sys.argv[1] == 'compile':\n"
            "    h.compiled\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        )
        here = Path(__file__).resolve().parent
        paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        peak_kb = [
            int(subprocess.run([sys.executable, "-c", code, step], capture_output=True,
                               text=True, env=env, check=True, timeout=300).stdout)
            for step in ("build", "compile")
        ]
        assert peak_kb[1] - peak_kb[0] < 20 * 1024, peak_kb
