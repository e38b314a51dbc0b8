import numpy as np
import pytest

from procmat.instruments import (
    Instrument,
    choi_identity,
    gyni_strategy,
    instrument_from_pauli_maps,
    instrument_to_pauli_maps,
    kraus_to_choi,
    validate_instrument,
)
from procmat.operators import A_IN, A_OUT, B_IN, B_OUT, partial_trace


class TestChoiIdentity:
    def test_qubit_entries(self):
        op = choi_identity(2, (A_IN, A_OUT))
        expected = np.zeros((4, 4))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 1.0
        np.testing.assert_array_equal(op.matrix, expected)

    def test_trace_preserving(self):
        op = choi_identity(2, (A_IN, A_OUT))
        reduced = partial_trace(op, ["A_O"])
        np.testing.assert_allclose(reduced.matrix, np.eye(2), atol=1e-14)

    def test_trace_is_dimension(self):
        for d in (2, 3, 5):
            assert choi_identity(d).trace == pytest.approx(d, abs=1e-12)

    def test_rank_one(self):
        eigs = np.linalg.eigvalsh(choi_identity(3).matrix)
        assert (eigs > 1e-12).sum() == 1

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            choi_identity(1)


class TestKrausToChoi:
    def test_identity_channel_matches_pair_state(self):
        op = kraus_to_choi([np.eye(2)], (A_IN, A_OUT))
        assert op.allclose(choi_identity(2, (A_IN, A_OUT)), tol=1e-14)

    def test_unitary_channel_is_trace_preserving(self, rng):
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        op = kraus_to_choi([u], (B_IN, B_OUT))
        reduced = partial_trace(op, ["B_O"])
        np.testing.assert_allclose(reduced.matrix, np.eye(2), atol=1e-13)

    def test_depolarizing_kraus_family(self):
        p = 0.25
        kraus = [
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            np.sqrt(p / 4) * np.array([[0, 1], [1, 0]], dtype=complex),
            np.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.sqrt(p / 4) * np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        op = kraus_to_choi(kraus, (A_IN, A_OUT))
        reduced = partial_trace(op, ["A_O"])
        np.testing.assert_allclose(reduced.matrix, np.eye(2), atol=1e-13)
        assert np.linalg.eigvalsh(op.matrix)[0] >= -1e-12


class TestGyniStrategy:
    def test_input0_outcome0_is_zero(self):
        ins = gyni_strategy("A")
        np.testing.assert_array_equal(ins.operators[(0, 0)].matrix, np.zeros((4, 4)))

    def test_input0_outcome1_is_identity_channel(self):
        ins = gyni_strategy("A")
        assert ins.operators[(0, 1)].allclose(choi_identity(2, (A_IN, A_OUT)), tol=0)

    def test_input1_sum_fixes_outgoing_state(self):
        # measurement outcomes sum to I on the input, |0><0| on the output
        ins = gyni_strategy("A")
        total = ins.operators[(1, 0)] + ins.operators[(1, 1)]
        expected = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(total.matrix, expected, atol=1e-14)

    def test_validates_for_both_parties(self):
        for party in ("A", "B"):
            report = validate_instrument(gyni_strategy(party))
            assert report.valid, report.lines()

    def test_operators_rank_at_most_one(self):
        ins = gyni_strategy("B")
        for key, op in ins.operators.items():
            rank = (np.linalg.eigvalsh(op.matrix) > 1e-12).sum()
            assert rank <= 1, key

    def test_party_labels(self):
        assert gyni_strategy("A").labels == (A_IN, A_OUT)
        assert gyni_strategy("B").labels == (B_IN, B_OUT)

    def test_unknown_party_rejected(self):
        with pytest.raises(ValueError):
            gyni_strategy("C")


class TestValidateInstrument:
    def test_doubled_channel_breaks_trace_preservation(self):
        ins = gyni_strategy("A")
        ops = dict(ins.operators)
        ops[(0, 1)] = 2.0 * ops[(0, 1)]
        report = validate_instrument(Instrument("A", ops))
        check = report["sum_a M[a|x=0] trace-preserving"]
        assert not check.passed
        assert check.residual == pytest.approx(1.0, abs=1e-12)

    def test_negative_operator_fails_psd(self):
        ins = gyni_strategy("A")
        ops = dict(ins.operators)
        ops[(1, 0)] = -1.0 * ops[(1, 0)]
        report = validate_instrument(Instrument("A", ops))
        check = report["M[a=0|x=1] >= 0"]
        assert not check.passed
        assert check.residual == pytest.approx(1.0, abs=1e-12)

    def test_wrong_labels_rejected(self):
        with pytest.raises(ValueError, match="lives on"):
            Instrument("B", gyni_strategy("A").operators)


class TestSerialization:
    def test_round_trip(self):
        ins = gyni_strategy("A")
        data = instrument_to_pauli_maps(ins)
        back = instrument_from_pauli_maps(data, "A")
        assert back.inputs == ins.inputs
        for key, op in ins.operators.items():
            assert back.operators[key].allclose(op, tol=1e-12)

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="x,a"):
            instrument_from_pauli_maps({"zero-one": {"II": 1.0}}, "A")

    def test_keys_naming_the_same_operation_rejected(self):
        data = {"0,1": {"II": 0.5}, " 0,1": {"II": 0.25}}
        with pytest.raises(ValueError, match="'0,1' and ' 0,1' name the same"):
            instrument_from_pauli_maps(data, "A")

    def test_pauli_map_keys_naming_the_same_word_rejected(self):
        with pytest.raises(ValueError, match="'ZZ' and 'zz'"):
            instrument_from_pauli_maps({"0,0": {"ZZ": 0.5, "zz": 0.5}}, "B")
