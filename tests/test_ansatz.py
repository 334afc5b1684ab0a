"""Generator families and trial-state preparation against dense oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from vqekit import (
    AnsatzConfig,
    FermionOperator,
    GeneratorSet,
    PauliSum,
    ReferenceState,
    StateVector,
    expectation_and_variance,
    fermionic_ucc_generators,
    jordan_wigner,
    parameter_count,
    prepare_state,
    spin_cluster_generators,
    suquca_generators,
)
from vqekit.ansatz import _suquca_blocks
from vqekit.errors import DimensionError, ParameterError, ValidationError

from test_fermion import exact_terms


def assert_antihermitian(gs: GeneratorSet) -> None:
    """Dense oracle: G^dag = -G for every generator."""
    for g, label in zip(gs.generators, gs.labels):
        m = g.to_matrix()
        assert np.max(np.abs(m + m.conj().T)) <= 1e-10, label


def dense_prepare(ref, cfg, params):
    """Reference implementation as one explicit matrix product."""
    gens = [g.to_matrix() for g in cfg.generator_set.generators]
    dim = 1 << cfg.generator_set.n_qubits
    u = np.eye(dim, dtype=complex)
    n = cfg.trotter_slices
    if not cfg.relaxed:
        u_slice = np.eye(dim, dtype=complex)
        for g, theta in zip(gens, params):
            u_slice = expm((theta / n) * g) @ u_slice
        for _ in range(n):
            u = u_slice @ u
    else:
        blocks = np.asarray(params).reshape(n, len(gens))
        for t in range(n):
            total = sum(th * g for th, g in zip(blocks[t], gens))
            u = expm(total) @ u
    return u @ ref.to_state().amplitudes


class TestGeneratorSet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            GeneratorSet(n_qubits=1, generators=(), labels=())

    def test_rejects_misaligned_labels(self):
        g = PauliSum.from_terms([(1j, "X")])
        with pytest.raises(ValidationError):
            GeneratorSet(n_qubits=1, generators=(g,), labels=())

    def test_rejects_duplicate_labels(self):
        g = PauliSum.from_terms([(1j, "X")])
        h = PauliSum.from_terms([(1j, "Y")])
        with pytest.raises(ValidationError):
            GeneratorSet(n_qubits=1, generators=(g, h), labels=(("a",), ("a",)))

    def test_rejects_real_coefficients(self):
        g = PauliSum.from_terms([(1.0, "X")])
        with pytest.raises(ValidationError):
            GeneratorSet(n_qubits=1, generators=(g,), labels=(("a",),))

    def test_rejects_qubit_mismatch(self):
        g = PauliSum.from_terms([(1j, "XX")])
        with pytest.raises(DimensionError):
            GeneratorSet(n_qubits=1, generators=(g,), labels=(("a",),))


class TestSpinCluster:
    def test_counts(self):
        assert len(spin_cluster_generators(2, 1)) == 6
        assert len(spin_cluster_generators(2, 2)) == 15
        assert len(spin_cluster_generators(3, 3)) == 63

    def test_antihermitian(self):
        assert_antihermitian(spin_cluster_generators(2, 2))

    def test_order_bounds(self):
        with pytest.raises(ValidationError):
            spin_cluster_generators(2, 0)
        with pytest.raises(ValidationError):
            spin_cluster_generators(2, 3)

    def test_first_label_is_single_x(self):
        gs = spin_cluster_generators(1, 1)
        assert gs.labels[0] == (1, (0,), ("X",))
        np.testing.assert_allclose(
            gs.generators[0].to_matrix(), 1j * np.array([[0, 1], [1, 0]]), atol=1e-12
        )


class TestFermionicUcc:
    def test_counts_for_two_electron_layout(self):
        assert len(fermionic_ucc_generators(4, [0, 1], [2, 3], 1)) == 4
        assert len(fermionic_ucc_generators(4, [0, 1], [2, 3], 2)) == 6

    def test_antihermitian(self):
        assert_antihermitian(fermionic_ucc_generators(4, [0, 1], [2, 3], 2))

    def test_conserves_particle_number(self):
        gs = fermionic_ucc_generators(4, [0, 1], [2, 3], 2)
        n_mat = jordan_wigner(FermionOperator.number_operator(4)).to_matrix()
        for g in gs.generators:
            m = g.to_matrix()
            np.testing.assert_allclose(n_mat @ m, m @ n_mat, atol=1e-10)

    def test_prepared_state_keeps_filling(self):
        gs = fermionic_ucc_generators(4, [0, 1], [2, 3], 2)
        cfg = AnsatzConfig(generator_set=gs, trotter_slices=1)
        ref = ReferenceState.from_occupied(4, [0, 1])
        rng = np.random.default_rng(9)
        n_op = jordan_wigner(FermionOperator.number_operator(4)).simplify()
        for _ in range(5):
            state = prepare_state(ref, cfg, rng.normal(scale=0.4, size=6))
            mean, var = expectation_and_variance(state, n_op)
            assert mean == pytest.approx(2.0, abs=1e-9)
            assert var == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_one_call_images_equal_per_operator_maps(self, m):
        gs = fermionic_ucc_generators(m, range(m // 2), range(m // 2, m), 2)
        for g, label in zip(gs.generators, gs.labels):
            ops = [op for i, p in label[1:] for op in ((i, True), (p, False))]
            ex = FermionOperator.from_term(m, 1.0, ops)
            assert exact_terms(g) == exact_terms(jordan_wigner(ex - ex.hermitian_conjugate()))

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            fermionic_ucc_generators(4, [0, 1], [1, 2], 1)
        with pytest.raises(ValidationError):
            fermionic_ucc_generators(4, [], [2, 3], 1)
        with pytest.raises(ValidationError):
            fermionic_ucc_generators(4, [0], [5], 1)
        with pytest.raises(ValidationError):
            fermionic_ucc_generators(4, [0, 1], [2, 3], 3)


class TestSuquca:
    def test_first_order_spans_u_m(self):
        # M(M+1)/2 symmetric plus M(M-1)/2 antisymmetric blocks.
        for m in (2, 3):
            assert len(suquca_generators(m, 1)) == m * m

    def test_antihermitian(self):
        assert_antihermitian(suquca_generators(3, 2))

    def test_second_order_supports_are_disjoint(self):
        gs = suquca_generators(4, 2)
        assert len(gs) > 16
        for label in gs.labels:
            if len(label) == 2:
                a = set(label[0][1:])
                b = set(label[1][1:])
                assert not (a & b)

    def test_one_call_images_equal_per_operator_maps(self):
        blocks = dict(_suquca_blocks(4))
        gs = suquca_generators(4, 2)
        for g, label in zip(gs.generators, gs.labels):
            prod = FermionOperator.identity(4)
            for block in label:
                prod = prod * blocks[block]
            assert exact_terms(g) == exact_terms(jordan_wigner(1j * prod))

    def test_order_bounds(self):
        with pytest.raises(ValidationError):
            suquca_generators(2, 0)
        with pytest.raises(ValidationError):
            suquca_generators(2, 3)


class TestReferenceState:
    def test_from_occupied(self):
        ref = ReferenceState.from_occupied(4, [0, 1])
        assert ref.basis_index == 3
        np.testing.assert_allclose(
            ref.to_state().amplitudes, StateVector.from_label("0011").amplitudes
        )

    def test_from_occupied_errors(self):
        with pytest.raises(ValidationError):
            ReferenceState.from_occupied(4, [0, 0])
        with pytest.raises(ValidationError):
            ReferenceState.from_occupied(4, [4])

    def test_exactly_one_form(self):
        with pytest.raises(ValidationError):
            ReferenceState(n_qubits=1)
        with pytest.raises(ValidationError):
            ReferenceState(
                n_qubits=1, basis_index=0, qubit_pairs=((1.0 + 0j, 0j),)
            )

    def test_pair_validation(self):
        with pytest.raises(ValidationError):
            ReferenceState(n_qubits=2, qubit_pairs=((1.0 + 0j, 0j),))
        with pytest.raises(ValidationError):
            ReferenceState(n_qubits=1, qubit_pairs=((0.5 + 0j, 0.5 + 0j),))

    def test_pair_validation_refuses_nan(self):
        # A NaN amplitude gives a NaN norm, which compares false with any tolerance.
        for q in range(2):
            for slot in range(2):
                for part in (np.nan, complex(0.0, np.nan)):
                    pairs = [[1.0 + 0j, 0j], [1.0 + 0j, 0j]]
                    pairs[q][slot] = part
                    with pytest.raises(ValidationError, match="^qubit pair is not normalized$"):
                        ReferenceState(n_qubits=2, qubit_pairs=tuple(map(tuple, pairs)))

    def test_pair_product_state(self):
        r = 1 / np.sqrt(2)
        ref = ReferenceState(
            n_qubits=2, qubit_pairs=((r + 0j, r + 0j), (1.0 + 0j, 0j))
        )
        np.testing.assert_allclose(ref.to_state().amplitudes, [r, r, 0, 0], atol=1e-12)

    def test_canonicalize(self):
        from vqekit import canonicalize_reference

        r = 1 / np.sqrt(2)
        for ref in (
            ReferenceState.from_occupied(3, [1]),
            ReferenceState(n_qubits=2, qubit_pairs=((r + 0j, r * 1j), (0j, 1.0 + 0j))),
        ):
            rotations, canonical = canonicalize_reference(ref)
            assert canonical.basis_index == 0
            rebuilt = np.ones(1, dtype=complex)
            for q in range(ref.n_qubits - 1, -1, -1):
                np.testing.assert_allclose(
                    rotations[q] @ rotations[q].conj().T, np.eye(2), atol=1e-12
                )
                rebuilt = np.kron(rebuilt, rotations[q] @ np.array([1.0, 0.0]))
            np.testing.assert_allclose(rebuilt, ref.to_state().amplitudes, atol=1e-12)


class TestPrepareState:
    def test_parameter_count(self):
        gs = spin_cluster_generators(2, 1)
        assert parameter_count(AnsatzConfig(generator_set=gs)) == 6
        assert (
            parameter_count(AnsatzConfig(generator_set=gs, trotter_slices=3, relaxed=True))
            == 18
        )
        assert parameter_count(AnsatzConfig(generator_set=gs, trotter_slices=3)) == 6

    def test_wrong_parameter_shape(self):
        gs = spin_cluster_generators(1, 1)
        ref = ReferenceState(n_qubits=1, basis_index=0)
        with pytest.raises(ParameterError):
            prepare_state(ref, AnsatzConfig(generator_set=gs), np.zeros(2))

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters(self, relaxed, bad):
        # A NaN must neither reach the state (plain mode) nor be reported
        # as a fault of the generators (relaxed mode).
        cfg = AnsatzConfig(generator_set=spin_cluster_generators(1, 1), relaxed=relaxed)
        ref = ReferenceState(n_qubits=1, basis_index=0)
        with pytest.raises(ParameterError, match="finite"):
            prepare_state(ref, cfg, np.array([0.3, bad, 0.0]))

    def test_reference_mismatch(self):
        gs = spin_cluster_generators(2, 1)
        ref = ReferenceState(n_qubits=1, basis_index=0)
        with pytest.raises(DimensionError):
            prepare_state(ref, AnsatzConfig(generator_set=gs), np.zeros(6))

    def test_zero_parameters_fix_reference(self):
        gs = spin_cluster_generators(2, 2)
        ref = ReferenceState.from_occupied(2, [0])
        out = prepare_state(ref, AnsatzConfig(generator_set=gs), np.zeros(15))
        np.testing.assert_allclose(out.amplitudes, ref.to_state().amplitudes)

    def test_single_rotation_anchor(self):
        # exp(theta iX)|0> = cos(theta)|0> + i sin(theta)|1>
        gs = spin_cluster_generators(1, 1)
        ref = ReferenceState(n_qubits=1, basis_index=0)
        theta = 0.37
        out = prepare_state(
            ref, AnsatzConfig(generator_set=gs), np.array([theta, 0.0, 0.0])
        )
        np.testing.assert_allclose(
            out.amplitudes, [np.cos(theta), 1j * np.sin(theta)], atol=1e-12
        )

    @pytest.mark.parametrize("slices", [1, 3])
    def test_matches_dense_product(self, slices):
        gs = spin_cluster_generators(2, 2)
        cfg = AnsatzConfig(generator_set=gs, trotter_slices=slices)
        ref = ReferenceState.from_occupied(2, [1])
        rng = np.random.default_rng(31 + slices)
        for _ in range(3):
            params = rng.normal(scale=0.5, size=15)
            got = prepare_state(ref, cfg, params).amplitudes
            np.testing.assert_allclose(got, dense_prepare(ref, cfg, params), atol=1e-10)

    def test_relaxed_matches_joint_exponential(self):
        gs = spin_cluster_generators(2, 1)
        cfg = AnsatzConfig(generator_set=gs, trotter_slices=2, relaxed=True)
        ref = ReferenceState(n_qubits=2, basis_index=0)
        rng = np.random.default_rng(41)
        params = rng.normal(scale=0.6, size=12)
        got = prepare_state(ref, cfg, params).amplitudes
        np.testing.assert_allclose(got, dense_prepare(ref, cfg, params), atol=1e-10)

    def test_commuting_multi_term_generator(self):
        # XX and YY commute, so the split product is already exact.
        g = PauliSum.from_terms([(0.8j, "XX"), (0.5j, "YY")])
        gs = GeneratorSet(n_qubits=2, generators=(g,), labels=(("pair",),))
        cfg = AnsatzConfig(generator_set=gs)
        ref = ReferenceState(n_qubits=2, basis_index=1)
        got = prepare_state(ref, cfg, np.array([1.3])).amplitudes
        want = expm(1.3 * g.to_matrix()) @ ref.to_state().amplitudes
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_slicing_converges_to_joint_flow(self):
        # Shared-parameter products approach exp(sum theta G) as slices grow.
        gs = spin_cluster_generators(1, 1)
        ref = ReferenceState(n_qubits=1, basis_index=0)
        params = np.array([0.9, 0.0, 1.1])
        total = sum(
            th * g.to_matrix() for th, g in zip(params, gs.generators)
        )
        want = expm(total) @ ref.to_state().amplitudes
        errs = []
        for n in (1, 8):
            cfg = AnsatzConfig(generator_set=gs, trotter_slices=n)
            errs.append(
                np.linalg.norm(prepare_state(ref, cfg, params).amplitudes - want)
            )
        assert errs[1] < errs[0] / 4

    def test_trotter_slices_validated(self):
        with pytest.raises(ValidationError):
            AnsatzConfig(generator_set=spin_cluster_generators(1, 1), trotter_slices=0)
