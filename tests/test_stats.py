from types import SimpleNamespace

import numpy as np
import pytest

from procmat.instruments import PARTY_LABELS, Instrument, gyni_strategy
from procmat.operators import (
    A_OUT,
    B_IN,
    B_OUT,
    HermitianOperator,
    Subsystem,
    identity,
    pauli_coeff,
)
from procmat.process import SepParams, maximally_mixed, ocb_process, separable_from_params
from procmat.stats import (
    _CONCAVE_OBJECTIVES,
    OBJECTIVES,
    CondProbTable,
    InputDist,
    cond_probs,
    entropies,
    game_success,
    joint_dist,
    objective,
)

from test_process import random_feasible_params
from oracles import gyni_ops, naive_cond_probs, naive_kron, ocb_matrix, shannon_bits

SQRT2 = np.sqrt(2)

# Frozen pre-build oracle values (naive elementwise evaluation of the
# probability rule, see oracles.py):
H_AB_OCB = 1.8456526640405408
H_A_OCB = 0.9232681084322474
H_AB_MIXED = 1.6225562489182659
P_SUCC_OCB = 0.5334708691207961  # equals 5 (2 + sqrt 2) / 32
P_SUCC_MIXED = 0.3125


@pytest.fixture(scope="module")
def strategy():
    return gyni_strategy("A"), gyni_strategy("B")


@pytest.fixture(scope="module")
def ocb_table(strategy):
    return cond_probs(ocb_process(), *strategy)


@pytest.fixture(scope="module")
def mixed_table(strategy):
    return cond_probs(maximally_mixed(), *strategy)


class TestCondProbs:
    def test_mixed_process_input00_is_deterministic(self, mixed_table):
        # both parties forward their state and output 1
        assert mixed_table.probs[1, 1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert mixed_table.probs[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_normalization_per_input_pair(self, ocb_table):
        sums = ocb_table.probs.sum(axis=(0, 1))
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_outcome0_impossible_on_input0(self, ocb_table):
        # the transmit operation has no outcome-0 element
        np.testing.assert_allclose(ocb_table.probs[0, :, 0, :], 0.0, atol=1e-14)

    def test_dimension_mismatch_rejected(self, strategy):
        from procmat.operators import A_IN, A_OUT

        with pytest.raises(ValueError, match="factors"):
            cond_probs(identity((A_IN, A_OUT)), *strategy)

    def test_matches_naive_oracle_on_builtins(self, strategy, ocb_table, mixed_table):
        ops = gyni_ops()
        np.testing.assert_allclose(
            ocb_table.probs, naive_cond_probs(ocb_matrix(), ops, ops), atol=1e-12
        )
        np.testing.assert_allclose(
            mixed_table.probs, naive_cond_probs(np.eye(16) / 4, ops, ops), atol=1e-12
        )

    def test_matches_naive_oracle_on_random_separable(self, rng, strategy):
        ops = gyni_ops()
        for _ in range(20):
            p = random_feasible_params(rng)
            w = separable_from_params(p).mixture
            table = cond_probs(w, *strategy)
            np.testing.assert_allclose(
                table.probs, naive_cond_probs(w.op.matrix, ops, ops), atol=1e-12
            )

    def test_matches_naive_oracle_on_random_measure_and_prepare(self, rng):
        processes = [ocb_process(), maximally_mixed()]
        processes += [separable_from_params(random_feasible_params(rng)).mixture for _ in range(8)]
        for _ in range(5):
            ops_a, ops_b = random_measure_prepare(rng), random_measure_prepare(rng)
            ins_a, ins_b = as_instrument("A", ops_a), as_instrument("B", ops_b)
            # complex bases and states: the operators carry Y words
            assert any(abs(pauli_coeff(op, "YI")) > 1e-3 for op in ins_a.operators.values())
            for w in processes:
                np.testing.assert_allclose(
                    cond_probs(w, ins_a, ins_b).probs,
                    naive_cond_probs(w.op.matrix, ops_a, ops_b),
                    rtol=0,
                    atol=1e-12,
                )

    def test_single_outcome_input_padded_with_zeros(self, rng):
        # on input 0 Alice forwards her state and always reports outcome 0
        ops_a = gyni_ops()
        ops_a[(0, 0)], ops_a[(0, 1)] = ops_a[(0, 1)], np.zeros((4, 4), dtype=complex)
        ins_a = as_instrument("A", {k: m for k, m in ops_a.items() if k != (0, 1)})
        assert ins_a.outcomes(0) == (0,)
        ops_b = random_measure_prepare(rng)
        for w in (ocb_process(), separable_from_params(random_feasible_params(rng)).mixture):
            table = cond_probs(w, ins_a, as_instrument("B", ops_b))
            assert not table.probs[1, :, 0, :].any()
            np.testing.assert_allclose(
                table.probs, naive_cond_probs(w.op.matrix, ops_a, ops_b), rtol=0, atol=1e-12
            )

    def test_omitted_zero_operator_changes_nothing(self, strategy, ocb_table):
        # input 0's outcome 0 is the zero operator; without it outcome 1 keeps its row
        ins_a, ins_b = (
            Instrument(ins.party, {k: op for k, op in ins.operators.items() if k != (0, 0)})
            for ins in strategy
        )
        assert ins_a.outcomes(0) == (1,)
        table = cond_probs(ocb_process(), ins_a, ins_b)
        np.testing.assert_array_equal(table.probs, ocb_table.probs)
        assert game_success(table) == P_SUCC_OCB

    def test_qutrit_factor_with_canonical_names_rejected(self, strategy):
        labels = (Subsystem("A_I", 3), A_OUT, B_IN, B_OUT)
        with pytest.raises(ValueError, match="qubit"):
            cond_probs(HermitianOperator(labels, np.eye(24) / 6), *strategy)


def random_measure_prepare(rng):
    """Raw Choi matrices keyed (x, a): on each input a projective measurement
    in a random complex basis, and per outcome a random complex state sent."""
    ops = {}
    for x in (0, 1):
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for a in (0, 1):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            state = g @ g.conj().T
            choi = naive_kron(np.outer(basis[:, a], basis[:, a].conj()), state / np.trace(state))
            ops[(x, a)] = (choi + choi.conj().T) / 2
    return ops


def as_instrument(party, ops):
    return Instrument(party, {k: HermitianOperator(PARTY_LABELS[party], m) for k, m in ops.items()})


class TestJointDist:
    def test_ocb_closed_forms(self, ocb_table):
        joint = joint_dist(ocb_table)
        assert joint[0, 0] == pytest.approx((1 + 1 / SQRT2) / 16, abs=1e-12)
        assert joint[0, 1] == pytest.approx((3 + 1 / SQRT2) / 16, abs=1e-12)
        assert joint[1, 0] == pytest.approx((3 + 1 / SQRT2) / 16, abs=1e-12)
        assert joint[1, 1] == pytest.approx((9 - 3 / SQRT2) / 16, abs=1e-12)

    def test_mixed_process_joint(self, mixed_table):
        joint = joint_dist(mixed_table)
        np.testing.assert_allclose(
            joint, np.array([[1, 3], [3, 9]]) / 16, atol=1e-12
        )

    def test_explicit_uniform_inputs_match_default(self, ocb_table):
        np.testing.assert_array_equal(
            joint_dist(ocb_table), joint_dist(ocb_table, InputDist.uniform())
        )

    def test_skewed_inputs(self, mixed_table):
        inputs = InputDist(np.array([[1.0, 0.0], [0.0, 0.0]]))
        joint = joint_dist(mixed_table, inputs)
        assert joint[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_input_dist_validation(self):
        with pytest.raises(ValueError, match="sum"):
            InputDist(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="nonnegative"):
            InputDist(np.array([[1.5, -0.5], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_probabilities_rejected(self, bad):
        # NaN passes both `min() < 0` and `abs(sum - 1) > tol` unnoticed
        with pytest.raises(ValueError, match="finite"):
            InputDist(np.array([[bad, 0.5], [0.25, 0.25]]))

    def test_nan_joint_fails_normalization(self, ocb_table):
        # an input table that bypasses InputDist's own check
        inputs = SimpleNamespace(probs=np.array([[np.nan, 0.5], [0.25, 0.25]]))
        with pytest.raises(ValueError, match="sums to nan"):
            joint_dist(ocb_table, inputs)


class TestEntropies:
    def test_uniform_joint(self):
        report = entropies(np.full((2, 2), 0.25))
        assert report.h_ab == pytest.approx(2.0, abs=1e-12)
        assert report.i_ab == pytest.approx(0.0, abs=1e-12)

    def test_point_mass(self):
        joint = np.zeros((2, 2))
        joint[1, 1] = 1.0
        report = entropies(joint)
        for value in (report.h_ab, report.h_a, report.h_b, report.h_a_given_b, report.i_ab):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_ocb_frozen_values(self, ocb_table):
        report = entropies(joint_dist(ocb_table))
        assert report.h_ab == pytest.approx(H_AB_OCB, abs=1e-12)
        assert report.h_a == pytest.approx(H_A_OCB, abs=1e-12)
        assert report.h_b == pytest.approx(H_A_OCB, abs=1e-12)
        # the same value rounded to the usual three-decimal quote
        assert report.h_ab == pytest.approx(1.8458, abs=5e-4)

    def test_mixed_frozen_value(self, mixed_table):
        report = entropies(joint_dist(mixed_table))
        assert report.h_ab == pytest.approx(H_AB_MIXED, abs=1e-12)
        assert report.i_ab == pytest.approx(0.0, abs=1e-10)

    def test_identity_relations(self, rng):
        for _ in range(20):
            joint = rng.uniform(size=(2, 2))
            joint /= joint.sum()
            r = entropies(joint)
            assert r.i_ab == pytest.approx(r.h_a + r.h_b - r.h_ab, abs=1e-12)
            assert r.i_ab == pytest.approx(r.h_a - r.h_a_given_b, abs=1e-12)
            assert 0.0 <= r.h_ab <= 2.0 + 1e-12

    def test_relabeling_invariance(self, rng):
        joint = rng.uniform(size=(2, 2))
        joint /= joint.sum()
        swapped = joint[::-1, ::-1]
        assert entropies(swapped).h_ab == pytest.approx(entropies(joint).h_ab, abs=1e-12)
        assert entropies(joint.T).h_ab == pytest.approx(entropies(joint).h_ab, abs=1e-12)

    def test_against_independent_formula(self, rng):
        joint = rng.uniform(size=(2, 2))
        joint /= joint.sum()
        assert entropies(joint).h_ab == pytest.approx(shannon_bits(joint), abs=1e-12)

    def test_named_objectives_equal_report_fields(self, rng):
        fields = {"H_AB": "h_ab", "H_A": "h_a", "H_B": "h_b", "H_A_given_B": "h_a_given_b",
                  "I_AB": "i_ab"}
        assert tuple(fields) == OBJECTIVES
        for _ in range(10):
            joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
            report = entropies(joint)
            for name, attr in fields.items():
                assert objective(name, joint) == getattr(report, attr)

    def test_objective_clamps_negative_roundoff(self):
        joint = np.array([[0.5, -0.01], [0.25, 0.26]])
        clamped = np.maximum(joint, 0.0)
        for name in OBJECTIVES:
            assert objective(name, joint) == objective(name, clamped)
        assert objective("H_B", joint) == pytest.approx(shannon_bits([0.75, 0.26]), abs=1e-15)

    def test_stack_equals_per_joint_calls_bitwise(self, rng):
        joints = rng.dirichlet(np.full(4, 0.3), size=2000).reshape(50, 40, 2, 2)
        joints[::3, ::7, 0, 1] = 0.0
        joints[::2, ::5, 1, 0] = 3e-16
        joints[1::4, ::3, 1, 1] = 1e-15
        joints[::5, 1::6, 0, 0] = -1e-17
        for name in OBJECTIVES:
            stacked = objective(name, joints)
            assert stacked.shape == (50, 40)
            single = np.array([[objective(name, j) for j in row] for row in joints])
            assert stacked.tobytes() == single.tobytes()
            assert isinstance(objective(name, joints[0, 0]), float)

    def test_concave_objectives_are_the_concave_quantities(self, rng):
        # midpoint concavity on random segments; mutual information fails it
        pairs = rng.dirichlet(np.full(4, 0.7), size=(400, 2)).reshape(400, 2, 2, 2)
        for name in OBJECTIVES:
            ends = objective(name, pairs)
            gap = objective(name, pairs.mean(axis=1)) - ends.mean(axis=1)
            if name in _CONCAVE_OBJECTIVES:
                assert gap.min() >= -1e-12
            else:
                assert gap.min() < -1e-3
        assert set(_CONCAVE_OBJECTIVES) == set(OBJECTIVES) - {"I_AB"}


class TestGameSuccess:
    def test_perfect_guessing_table(self):
        probs = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                probs[y, x, x, y] = 1.0
        assert game_success(CondProbTable(probs)) == pytest.approx(1.0)

    def test_mixed_process_frozen_value(self, mixed_table):
        assert game_success(mixed_table) == pytest.approx(P_SUCC_MIXED, abs=1e-12)

    def test_ocb_violates_causal_bound(self, ocb_table):
        score = game_success(ocb_table)
        assert score == pytest.approx(P_SUCC_OCB, abs=1e-12)
        assert score == pytest.approx(5 * (2 + SQRT2) / 32, abs=1e-12)
        assert score > 0.5

    def test_separable_samples_respect_bound(self, rng, strategy):
        for _ in range(50):
            p = random_feasible_params(rng)
            table = cond_probs(separable_from_params(p).mixture, *strategy)
            assert game_success(table) <= 0.5 + 1e-9

    def test_non_binary_table_rejected(self):
        probs = np.zeros((3, 3, 2, 2))
        probs[0, 0] = 1.0
        with pytest.raises(ValueError, match="binary"):
            game_success(CondProbTable(probs))


class TestTableValidation:
    def test_small_negative_entries_clamped(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0, 0, 0] = -5e-13
        probs[1, 1, 0, 0] = 0.5 + 5e-13
        table = CondProbTable(probs)
        assert table.probs.min() == 0.0

    def test_large_negative_entries_rejected(self):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0, 0, 0] = -1e-6
        probs[1, 1, 0, 0] = 0.25 + 1e-6
        with pytest.raises(ValueError, match="below"):
            CondProbTable(probs)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="deviate"):
            CondProbTable(np.full((2, 2, 2, 2), 0.3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, value):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[0, 0, 1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            CondProbTable(probs)


class TestNoSignalling:
    def test_alice_marginal_ignores_bob_input_for_ab_order(self, rng, strategy):
        # any q=1 member: Bob cannot signal to Alice
        p = random_feasible_params(rng)
        p = SepParams(1.0, p.c, p.c_prime)
        table = cond_probs(separable_from_params(p).mixture, *strategy)
        marg = table.probs.sum(axis=1)  # p(a|x,y)
        np.testing.assert_allclose(marg[:, :, 0], marg[:, :, 1], atol=1e-10)

    def test_entropy_concave_along_process_segments(self, rng, strategy):
        # p(a,b) is affine in W, so H along W-segments is concave
        w0 = maximally_mixed().op
        w1 = ocb_process().op
        ts = np.linspace(0.0, 1.0, 9)
        values = []
        for t in ts:
            table = cond_probs((1 - t) * w0 + t * w1, *strategy)
            values.append(entropies(joint_dist(table)).h_ab)
        values = np.asarray(values)
        second = values[:-2] + values[2:] - 2 * values[1:-1]
        assert second.max() <= 1e-9

