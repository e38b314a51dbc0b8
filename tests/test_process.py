import inspect

import numpy as np
import pytest

import procmat.instruments as instruments
import procmat.process as process
from procmat.instruments import gyni_strategy, validate_instrument
from procmat.operators import (
    CANONICAL_LABELS,
    identity,
    min_eigenvalue,
    pauli_coeff,
    pauli_term,
    to_pauli_map,
    trace_replace,
)
from procmat.process import (
    COORDINATES,
    SEP_WORDS_AB,
    SEP_WORDS_BA,
    FeixParams,
    InfeasibleParamsError,
    SepParams,
    feix_block_ab,
    feix_block_ba,
    feix_process,
    maximally_mixed,
    nonsignalling_part,
    ocb_process,
    ordered_block_ab,
    ordered_block_ba,
    sep_feasibility,
    separable_from_params,
    validate_process,
)
from procmat.optimizer import OptimizerConfig, feasible_interval, random_feasible_init
from procmat.validation import VALIDITY_TOL

from oracles import block_matrix

SQRT2 = np.sqrt(2)


def random_feasible_params(rng, scale=0.05):
    q = rng.uniform()
    c = rng.normal(scale=scale, size=(4, 3, 3))
    cp = rng.normal(scale=scale, size=(3, 4, 3))
    while True:
        p = SepParams(q, c, cp)
        eig_ab, eig_ba = sep_feasibility(p)
        if eig_ab >= -1e-10 and eig_ba >= -1e-10:
            return p
        c = c / 2
        cp = cp / 2


class TestValidateProcess:
    def test_maximally_mixed_passes(self):
        assert maximally_mixed().valid

    def test_ocb_passes(self):
        report = ocb_process().report
        assert report.valid, report.lines()

    def test_lines_state_which_side_of_the_tolerance_passes(self):
        # the PSD residual is -lambda_min, so a healthy process prints a
        # negative residual next to "<= tol"
        assert all(" <= tol 1e-10" in line for line in ocb_process().report.lines())
        line = feix_process(FeixParams(0.5, 10.0)).report.lines()[0]
        assert line.startswith("FAIL  positive semidefinite: residual ")
        assert line.endswith(" > tol 1e-10")

    def test_pure_output_word_fails_a_side_marginal(self):
        # I/4 + IIIZ/4 carries a bare B_O term: projecting A's factors away
        # must leave something independent of B_O, and it does not.  The
        # output-output check (condition 6) is blind to this word, since the
        # term survives _{A_O} and is killed by both _{B_O} projections.
        op = identity(CANONICAL_LABELS) * 0.25 + pauli_term("IIIZ") * 0.25
        report = validate_process(op)
        assert not report.valid
        assert not report["A-side marginal ignores B_O"].passed
        assert report["no joint output-output terms"].passed
        assert report["B-side marginal ignores A_O"].passed

    def test_joint_output_word_fails_condition_six(self):
        op = identity(CANONICAL_LABELS) * 0.25 + pauli_term("IZIZ") * 0.1
        report = validate_process(op)
        assert not report["no joint output-output terms"].passed
        assert report["A-side marginal ignores B_O"].passed
        assert report["B-side marginal ignores A_O"].passed

    def test_pure_a_output_word_fails_b_side_marginal(self):
        op = identity(CANONICAL_LABELS) * 0.25 + pauli_term("IZII") * 0.1
        report = validate_process(op)
        assert not report["B-side marginal ignores A_O"].passed

    def test_wrong_labels_rejected(self, rng):
        from procmat.operators import A_IN, A_OUT

        with pytest.raises(ValueError, match="A_I,A_O,B_I,B_O"):
            validate_process(identity((A_IN, A_OUT)))

    def test_linear_conditions_hold_for_affine_mixtures(self, rng):
        # coefficients summing to one preserve conditions (3)-(6)
        w1 = ocb_process().op
        w2 = maximally_mixed().op
        p = random_feasible_params(rng)
        w3 = separable_from_params(p).mixture.op
        for _ in range(5):
            t1, t2 = rng.uniform(-0.3, 0.8, size=2)
            t3 = 1.0 - t1 - t2
            mix = t1 * w1 + t2 * w2 + t3 * w3
            report = validate_process(mix)
            for name in (
                "trace equals d_AO*d_BO",
                "B-side marginal ignores A_O",
                "A-side marginal ignores B_O",
                "no joint output-output terms",
            ):
                assert report[name].passed, name


class TestNonsignallingPart:
    def test_ocb_reduces_to_maximally_mixed(self):
        out = nonsignalling_part(ocb_process().op)
        np.testing.assert_allclose(out.matrix, np.eye(16) / 4, atol=1e-13)

    def test_idempotent(self, random_canonical):
        op = random_canonical()
        once = nonsignalling_part(op)
        assert nonsignalling_part(once).allclose(once, tol=1e-12)

    def test_linear(self, random_canonical):
        v, w = random_canonical(), random_canonical()
        lhs = nonsignalling_part(0.3 * v + 0.7 * w)
        rhs = 0.3 * nonsignalling_part(v) + 0.7 * nonsignalling_part(w)
        assert lhs.allclose(rhs, tol=1e-12)

    def test_separable_family_always_maximally_mixed(self, rng):
        for _ in range(5):
            p = random_feasible_params(rng)
            out = nonsignalling_part(separable_from_params(p).mixture.op)
            np.testing.assert_allclose(out.matrix, np.eye(16) / 4, atol=1e-12)


class TestOcbProcess:
    def test_pauli_coefficients(self):
        w = ocb_process().op
        assert pauli_coeff(w, "ZIXX") == pytest.approx(1 / (4 * SQRT2), abs=1e-13)
        assert to_pauli_map(w) == {
            "IIII": pytest.approx(0.25),
            "ZZZI": pytest.approx(1 / (4 * SQRT2)),
            "ZIXX": pytest.approx(1 / (4 * SQRT2)),
        }

    def test_trace_is_four(self):
        assert ocb_process().op.trace == pytest.approx(4.0, abs=1e-12)

    def test_psd(self):
        assert min_eigenvalue(ocb_process().op) >= -1e-10


class TestSeparableFamily:
    def test_zero_params_give_maximally_mixed(self):
        triple = separable_from_params(SepParams.zeros())
        np.testing.assert_allclose(triple.mixture.op.matrix, np.eye(16) / 4, atol=1e-14)
        assert triple.ordered_ab.valid and triple.ordered_ba.valid

    def test_single_coefficient_channel_like_block(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.25  # word I Z Z I at its extremal weight
        p = SepParams(1.0, c, np.zeros((3, 4, 3)))
        triple = separable_from_params(p)
        assert min_eigenvalue(triple.ordered_ab.op) == pytest.approx(0.0, abs=1e-12)
        assert triple.mixture.valid
        assert triple.mixture.op.allclose(
            identity(CANONICAL_LABELS) * 0.25 + pauli_term("IZZI") * 0.25, tol=1e-13
        )

    def test_ab_block_fixed_under_bo_replacement(self, rng):
        p = random_feasible_params(rng)
        block = ordered_block_ab(p)
        assert trace_replace(block, ["B_O"]).allclose(block, tol=1e-12)

    def test_blocks_are_valid_processes(self, rng):
        p = random_feasible_params(rng)
        triple = separable_from_params(p)
        assert triple.ordered_ab.valid
        assert triple.ordered_ba.valid
        assert triple.mixture.valid

    def test_infeasible_params_rejected_with_block_name(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.4
        with pytest.raises(InfeasibleParamsError, match="A<B") as err:
            separable_from_params(SepParams(0.5, c, np.zeros((3, 4, 3))))
        assert err.value.min_eig == pytest.approx(0.25 - 0.4, abs=1e-12)

    def test_feasible_set_is_convex_on_midpoints(self, rng):
        for _ in range(5):
            p1 = random_feasible_params(rng)
            p2 = random_feasible_params(rng)
            mid = SepParams(
                (p1.q + p2.q) / 2, (p1.c + p2.c) / 2, (p1.c_prime + p2.c_prime) / 2
            )
            eig_ab, eig_ba = sep_feasibility(mid)
            assert eig_ab >= -1e-10 and eig_ba >= -1e-10

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="q"):
            SepParams(1.5, np.zeros((4, 3, 3)), np.zeros((3, 4, 3)))

    def test_flat_map_round_trip(self, rng):
        p = random_feasible_params(rng)
        back = SepParams.from_flat_map(p.to_flat_map())
        assert back.q == p.q
        np.testing.assert_array_equal(back.c, p.c)
        np.testing.assert_array_equal(back.c_prime, p.c_prime)

    def test_flat_map_defaults(self):
        p = SepParams.from_flat_map({"c_0zz": 0.25})
        assert p.q == 0.5
        assert p.c[0, 2, 2] == 0.25
        assert np.abs(p.c).sum() == 0.25

    def test_flat_map_bad_key(self):
        with pytest.raises(ValueError, match="c_wzz"):
            SepParams.from_flat_map({"c_wzz": 0.1})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = bad
        with pytest.raises(ValueError, match="c must be finite"):
            SepParams(0.5, c, np.zeros((3, 4, 3)))
        with pytest.raises(ValueError, match="c_prime must be finite"):
            SepParams(0.5, np.zeros((4, 3, 3)), np.full((3, 4, 3), bad))
        with pytest.raises(ValueError, match="q"):
            SepParams(bad, np.zeros((4, 3, 3)), np.zeros((3, 4, 3)))
        with pytest.raises(ValueError, match="c must be finite"):
            SepParams.from_flat_map({"c_0zz": bad})

    def test_flat_map_keys_follow_the_coordinate_table(self):
        flat = SepParams.zeros().to_flat_map()
        assert list(flat) == [coord.name for coord in COORDINATES]
        assert list(flat)[:2] == ["q", "c_0xx"] and list(flat)[36:38] == ["c_zzz", "cp_x0x"]
        assert [coord.word for coord in COORDINATES[1:37]] == list(SEP_WORDS_AB)
        assert [coord.word for coord in COORDINATES[37:]] == list(SEP_WORDS_BA)
        # each word carries the identity on the factor its block cannot signal from
        assert all(w[3] == "I" for w in SEP_WORDS_AB) and all(w[1] == "I" for w in SEP_WORDS_BA)
        assert COORDINATES[9] == ("c_0zz", "A<B", "IZZI")
        assert COORDINATES[61] == ("cp_z0x", "B<A", "ZIIX")

    def test_blocks_match_oracle_sum_of_words(self, rng):
        for _ in range(5):
            p = random_feasible_params(rng)
            for block, words, coeffs in (
                (ordered_block_ab(p), SEP_WORDS_AB, p.c),
                (ordered_block_ba(p), SEP_WORDS_BA, p.c_prime),
            ):
                oracle = block_matrix(words, coeffs.ravel())
                np.testing.assert_allclose(block.matrix, oracle, rtol=0, atol=1e-15)


class TestFeixFamily:
    def test_pure_ab_point(self):
        w = feix_process(FeixParams(1.0, 0.0))
        assert w.valid, w.report.lines()
        assert w.op.allclose(feix_block_ab(), tol=1e-13)

    def test_pure_ba_point(self):
        w = feix_process(FeixParams(0.0, 0.0))
        assert w.valid
        assert w.op.allclose(feix_block_ba(), tol=1e-13)

    def test_trace_four_for_any_params(self, rng):
        for _ in range(10):
            p = FeixParams(rng.uniform(), rng.uniform(0, 2))
            assert feix_process(p).op.trace == pytest.approx(4.0, abs=1e-11)

    def test_linear_conditions_hold_even_when_not_psd(self):
        w = feix_process(FeixParams(0.5, 1.5))
        report = w.report
        assert not report["positive semidefinite"].passed
        for name in (
            "trace equals d_AO*d_BO",
            "B-side marginal ignores A_O",
            "A-side marginal ignores B_O",
            "no joint output-output terms",
        ):
            assert report[name].passed

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            FeixParams(0.5, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, bad):
        with pytest.raises(ValueError, match="eps"):
            FeixParams(0.5, bad)
        with pytest.raises(ValueError, match="q"):
            FeixParams(np.nan, 0.0)


class TestOneValidityTolerance:
    """The validity tolerance is stated once, as ``validation.VALIDITY_TOL``."""

    def test_every_check_is_judged_at_the_one_tolerance(self):
        reports = [ocb_process().report, validate_instrument(gyni_strategy("A"))]
        assert {check.tolerance for report in reports for check in report.checks} == {VALIDITY_TOL}
        # process and instruments read the constant and keep no copy of their own
        assert process.VALIDITY_TOL is VALIDITY_TOL and not hasattr(process, "PSD_TOL")
        assert not hasattr(instruments, "PSD_TOL") and not hasattr(instruments, "TP_TOL")

    def test_psd_tol_defaults_read_the_one_tolerance(self):
        for fn in (separable_from_params, random_feasible_init, feasible_interval):
            assert inspect.signature(fn).parameters["psd_tol"].default is VALIDITY_TOL
        assert OptimizerConfig().psd_tol is VALIDITY_TOL
