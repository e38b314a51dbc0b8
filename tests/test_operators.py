import itertools

import numpy as np
import pytest

from procmat.operators import (
    A_IN,
    A_OUT,
    B_IN,
    B_OUT,
    CANONICAL_LABELS,
    HermitianOperator,
    LabelError,
    Subsystem,
    all_pauli_words,
    from_pauli_map,
    identity,
    min_eigenvalue,
    partial_trace,
    pauli_basis,
    pauli_coeff,
    pauli_coefficients,
    pauli_term,
    tensor,
    to_pauli_map,
    trace_replace,
)
from procmat.instruments import gyni_strategy
from procmat.process import FeixParams, feix_process, maximally_mixed, ocb_process

from conftest import random_hermitian
from oracles import charpoly_min_eig, naive_trace_product, word_matrix
from oracles import trace_replace as naive_trace_replace

SQRT2 = np.sqrt(2)


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator((A_IN,), np.array([[0, 1], [0, 0]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LabelError, match="duplicate"):
            HermitianOperator((A_IN, A_IN), np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            HermitianOperator((A_IN, A_OUT), np.eye(2))

    def test_matrix_is_read_only(self):
        op = identity(A_IN)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_scalar_multiply_rejects_complex(self):
        with pytest.raises(ValueError, match="non-real"):
            identity(A_IN) * 1j


class TestTensor:
    def test_identity_case(self):
        out = tensor(identity(A_IN), identity(A_OUT))
        assert out.label_names() == ("A_I", "A_O")
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_sigma_z_sigma_x_by_hand(self):
        # hand-expanded Kronecker product of diag(1,-1) with [[0,1],[1,0]]
        out = tensor(pauli_term("Z", [A_IN]), pauli_term("X", [A_OUT]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = 1
        expected[1, 0] = 1
        expected[2, 3] = -1
        expected[3, 2] = -1
        np.testing.assert_allclose(out.matrix, expected, atol=0)

    def test_trace_multiplicative(self, rng):
        for _ in range(5):
            p = random_hermitian(rng, 2, (A_IN,))
            q = random_hermitian(rng, 2, (B_IN,))
            prod = tensor(p, q)
            assert prod.trace == pytest.approx(p.trace * q.trace, abs=1e-12)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LabelError):
            tensor(identity(A_IN), identity(A_IN))


class TestPartialTrace:
    def test_traceless_factor_kills_term(self, rng):
        rho = random_hermitian(rng, 2, (A_OUT,))
        op = tensor(pauli_term("Z", [A_IN]), rho)
        out = partial_trace(op, ["A_I"])
        np.testing.assert_allclose(out.matrix, np.zeros((2, 2)), atol=1e-14)

    def test_pair_state_is_trace_preserving(self):
        # unnormalized |phi+><phi+| traced over the second factor gives I
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0
        pair = HermitianOperator((A_IN, A_OUT), np.outer(vec, vec))
        out = partial_trace(pair, ["A_O"])
        np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-14)

    def test_full_trace_of_ocb_is_four(self):
        w = ocb_process().op
        out = partial_trace(w, ["A_I", "A_O", "B_I", "B_O"])
        assert out.labels == ()
        assert out.matrix[0, 0].real == pytest.approx(4.0, abs=1e-12)

    def test_trace_preserved(self, rng):
        op = random_hermitian(rng, 16)
        out = partial_trace(op, ["A_O", "B_I"])
        assert out.trace == pytest.approx(op.trace, abs=1e-10)

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelError, match="unknown"):
            partial_trace(identity(CANONICAL_LABELS), ["C_I"])

    def test_matches_reshape_free_reference(self, rng):
        # reference: explicit sum over the traced index pair
        op = random_hermitian(rng, 4, (A_IN, A_OUT))
        ref = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    ref[i, j] += op.matrix[2 * k + i, 2 * k + j]
        out = partial_trace(op, ["A_I"])
        np.testing.assert_allclose(out.matrix, ref, atol=1e-14)


class TestTraceReplace:
    def test_identity_fixed_point(self):
        w = identity(CANONICAL_LABELS) * 0.25
        out = trace_replace(w, ["A_O"])
        np.testing.assert_allclose(out.matrix, w.matrix, atol=1e-14)

    def test_ocb_both_outputs(self):
        # every non-identity word of the OCB process has a traceless output letter
        w = ocb_process().op
        out = trace_replace(w, ["A_O", "B_O"])
        np.testing.assert_allclose(out.matrix, np.eye(16) / 4, atol=1e-13)

    def test_idempotent(self, rng):
        op = random_hermitian(rng, 16)
        once = trace_replace(op, ["B_I"])
        twice = trace_replace(once, ["B_I"])
        assert once.allclose(twice, tol=1e-12)

    def test_trace_preserved(self, rng):
        op = random_hermitian(rng, 16)
        out = trace_replace(op, ["A_I", "B_O"])
        assert out.trace == pytest.approx(op.trace, abs=1e-10)

    def test_composition_over_disjoint_sets(self, rng):
        op = random_hermitian(rng, 16)
        joint = trace_replace(op, ["A_O", "B_I"])
        nested = trace_replace(trace_replace(op, ["A_O"]), ["B_I"])
        assert joint.allclose(nested, tol=1e-12)

    def test_labels_and_shape_unchanged(self, rng):
        op = random_hermitian(rng, 16)
        out = trace_replace(op, ["B_O"])
        assert out.labels == op.labels
        assert out.side == op.side

    def test_hermiticity_preserved(self, rng):
        # construction would reject otherwise; assert the residual directly
        out = trace_replace(random_hermitian(rng, 16), ["A_O"])
        assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-12

    @staticmethod
    def subsets(n):
        return [c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]

    def test_matches_index_loop_oracle_on_every_factor_subset(self, rng):
        for _ in range(3):
            op = random_hermitian(rng, 16)
            subsets = self.subsets(4)
            assert len(subsets) == 15
            for positions in subsets:
                out = trace_replace(op, [op.labels[p].name for p in positions])
                expected = naive_trace_replace(op.matrix, op.dims, positions)
                np.testing.assert_allclose(out.matrix, expected, rtol=0, atol=1e-15)

    def test_matches_index_loop_oracle_on_mixed_dimensions(self, rng):
        labels = (Subsystem("P", 2), Subsystem("Q", 3), Subsystem("R", 2))
        op = random_hermitian(rng, 12, labels)
        for positions in self.subsets(3):
            out = trace_replace(op, [labels[p] for p in positions])
            expected = naive_trace_replace(op.matrix, op.dims, positions)
            np.testing.assert_allclose(out.matrix, expected, rtol=0, atol=1e-15)


class TestPauliTerm:
    def test_all_identity_word(self):
        np.testing.assert_array_equal(pauli_term("IIII").matrix, np.eye(16))

    def test_traceless_unless_identity(self):
        for word in ("XIII", "IZII", "ZZZI", "XYZX"):
            assert pauli_term(word).trace == pytest.approx(0.0, abs=1e-14)

    def test_matches_explicit_tensor(self):
        direct = pauli_term("ZZZI")
        built = tensor(
            pauli_term("Z", [A_IN]),
            pauli_term("Z", [A_OUT]),
            pauli_term("Z", [B_IN]),
            pauli_term("I", [B_OUT]),
        )
        assert direct.allclose(built, tol=0)

    def test_rejects_non_qubit_factor(self):
        with pytest.raises(LabelError, match="qubit"):
            pauli_term("X", [Subsystem("big", 3)])

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError, match="letters"):
            pauli_term("ABCD")


class TestPauliCoeff:
    def test_ocb_coefficients(self):
        w = ocb_process().op
        assert pauli_coeff(w, "ZZZI") == pytest.approx(1 / (4 * SQRT2), abs=1e-13)
        assert pauli_coeff(w, "IIII") == pytest.approx(0.25, abs=1e-13)
        assert pauli_coeff(w, "XXXX") == pytest.approx(0.0, abs=1e-13)

    def test_round_trip_reconstruction(self, rng):
        op = random_hermitian(rng, 16)
        rebuilt = np.zeros((16, 16), dtype=complex)
        for word in all_pauli_words(4):
            rebuilt += pauli_coeff(op, word) * pauli_term(word).matrix
        np.testing.assert_allclose(rebuilt, op.matrix, atol=1e-12)


class TestPauliBasis:
    def test_cached_read_only_in_word_order(self):
        basis = pauli_basis(2)
        assert basis is pauli_basis(2) and not basis.flags.writeable
        assert all_pauli_words(2)[:5] == ("II", "IX", "IY", "IZ", "XI")
        for k, word in enumerate(all_pauli_words(2)):
            np.testing.assert_array_equal(basis[k], word_matrix(word))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decomposition_and_composition_match_per_word_oracles(self, rng, n):
        labels = tuple(Subsystem(f"q{k}", 2) for k in range(n))
        words = all_pauli_words(n)
        for _ in range(3):
            op = random_hermitian(rng, 2**n, labels)
            coeffs = pauli_coefficients(op)
            expected = [naive_trace_product(op.matrix, word_matrix(w)).real / 2**n for w in words]
            np.testing.assert_allclose(coeffs, expected, rtol=0, atol=1e-15)
            rebuilt = np.zeros((2**n, 2**n), dtype=complex)
            for word, value in zip(words, expected):
                rebuilt += value * word_matrix(word)
            composed = from_pauli_map(dict(zip(words, expected)), labels)
            np.testing.assert_allclose(composed.matrix, rebuilt, rtol=0, atol=1e-15)

    def test_imaginary_coefficient_named(self):
        # construction rejects such a matrix, so put it past the check: its
        # Y coefficient is 1e-9 i
        op = HermitianOperator((A_IN,), np.eye(2))
        object.__setattr__(op, "matrix", np.array([[0, 1e-9], [-1e-9, 0]], dtype=complex))
        with pytest.raises(ValueError, match="'Y' is not real"):
            pauli_coefficients(op)
        with pytest.raises(ValueError, match="'Y' is not real"):
            pauli_coeff(op, "X")

    def test_rejects_non_qubit_factor(self):
        op = HermitianOperator((Subsystem("big", 3),), np.eye(3))
        with pytest.raises(LabelError, match="qubit"):
            pauli_coefficients(op)

    def test_five_qubits_rejected_before_anything_is_cached(self):
        labels = tuple(Subsystem(f"q{k}", 2) for k in range(5))
        op = HermitianOperator(labels, np.eye(32))
        cached = pauli_basis.cache_info().currsize, all_pauli_words.cache_info().currsize
        with pytest.raises(ValueError, match="5 qubits"):
            to_pauli_map(op)
        with pytest.raises(ValueError, match="5 qubits"):
            from_pauli_map({"IIIII": 1.0}, labels)
        assert (pauli_basis.cache_info().currsize, all_pauli_words.cache_info().currsize) == cached


class TestBuiltinPauliMaps:
    """Each built-in operator reads back as the literal map it is built from:
    exactly where every coefficient is dyadic, to 1e-16 otherwise."""

    GYNI = {
        (0, 0): {},
        (0, 1): {"II": 0.5, "XX": 0.5, "YY": -0.5, "ZZ": 0.5},
        (1, 0): {"II": 0.25, "IZ": 0.25, "ZI": 0.25, "ZZ": 0.25},
        (1, 1): {"II": 0.25, "IZ": 0.25, "ZI": -0.25, "ZZ": -0.25},
    }

    @staticmethod
    def assert_map(op, literal):
        mapping = to_pauli_map(op)
        assert list(mapping) == list(literal)
        for word, value in literal.items():
            assert abs(mapping[word] - value) <= 1e-16

    def test_ocb(self):
        coupling = 1 / (4 * SQRT2)
        self.assert_map(ocb_process().op, {"IIII": 0.25, "ZIXX": coupling, "ZZZI": coupling})

    def test_feix_block_ab(self):
        literal = {"IIII": 0.25, "IXXI": 1 / 12, "IYYI": 1 / 12, "IZZI": 1 / 12}
        self.assert_map(feix_process(FeixParams(1.0, 0.0)).op, literal)

    def test_dyadic_maps_exact(self):
        assert to_pauli_map(maximally_mixed().op) == {"IIII": 0.25}
        assert to_pauli_map(feix_process(FeixParams(0.0, 0.0)).op) == {"IIII": 0.25, "ZIXZ": 0.25}
        for party in "AB":
            ops = gyni_strategy(party).operators
            assert {key: to_pauli_map(op) for key, op in ops.items()} == self.GYNI


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(identity(CANONICAL_LABELS)) == pytest.approx(1.0, abs=1e-12)

    def test_ocb_is_psd_with_zero_floor(self):
        # the two coupling words anticommute, so eigenvalues are (1 +- 1)/4
        assert min_eigenvalue(ocb_process().op) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_diagonal_is_not_sufficient(self):
        op = HermitianOperator((A_IN,), np.array([[0, 2], [2, 0]], dtype=complex))
        assert op.matrix[0, 0].real >= 0 and op.matrix[1, 1].real >= 0
        assert min_eigenvalue(op) == pytest.approx(-2.0, abs=1e-12)

    def test_against_characteristic_polynomial(self, rng):
        for _ in range(20):
            op = random_hermitian(rng, 4, (A_IN, A_OUT))
            assert min_eigenvalue(op) == pytest.approx(
                charpoly_min_eig(op.matrix), abs=1e-8
            )

    def test_concave_along_affine_families(self, rng):
        ts = np.linspace(-1.0, 1.0, 21)
        for _ in range(10):
            a = random_hermitian(rng, 16)
            b = random_hermitian(rng, 16)
            values = np.array([min_eigenvalue(a + t * b) for t in ts])
            second = values[:-2] + values[2:] - 2 * values[1:-1]
            assert second.max() <= 1e-9


class TestPauliMapFormat:
    def test_ocb_map_has_three_entries(self):
        mapping = to_pauli_map(ocb_process().op)
        assert set(mapping) == {"IIII", "ZZZI", "ZIXX"}
        assert mapping["IIII"] == pytest.approx(0.25, abs=1e-13)

    def test_round_trip_bit_exact_for_decimals(self):
        mapping = {"IIII": 0.25, "ZZZI": 0.125, "IXYZ": -0.0625}
        op = from_pauli_map(mapping)
        assert to_pauli_map(op) == mapping

    def test_random_round_trip(self, rng):
        op = random_hermitian(rng, 16)
        back = from_pauli_map(to_pauli_map(op))
        assert op.allclose(back, tol=1e-11)

    def test_bad_key_named_in_error(self):
        with pytest.raises(ValueError, match="QQQQ"):
            from_pauli_map({"QQQQ": 1.0})

    def test_bad_value_named_in_error(self):
        with pytest.raises(ValueError, match="ZZZI"):
            from_pauli_map({"ZZZI": "not-a-number"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_named_in_error(self, value):
        with pytest.raises(ValueError, match="XIII.*finite"):
            from_pauli_map({"IIII": 0.25, "XIII": value})

    def test_keys_naming_the_same_word_rejected(self):
        with pytest.raises(ValueError, match="'ZZZI' and 'zzzi' name the same word"):
            from_pauli_map({"IIII": 0.25, "ZZZI": 0.1, "zzzi": 0.1})

    def test_two_letter_words_for_party_spaces(self):
        mapping = {"II": 0.5, "ZZ": 0.25}
        op = from_pauli_map(mapping, (A_IN, A_OUT))
        assert to_pauli_map(op) == mapping
