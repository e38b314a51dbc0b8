import inspect

import numpy as np
import pytest

import procmat.instruments as instruments
import procmat.process as process
from procmat.instruments import gyni_strategy, validate_instrument
from procmat.operators import (
    CANONICAL_LABELS,
    from_pauli_map,
    identity,
    min_eigenvalue,
    pauli_coeff,
    pauli_term,
    to_pauli_map,
    trace_replace,
)
from procmat.process import (
    BLOCK_WORDS,
    COORDINATES,
    BLOCK_SPANS,
    SEP_BLOCKS,
    FeixParams,
    InfeasibleParamsError,
    SepParams,
    block_min_eigs,
    block_operator,
    feix_process,
    maximally_mixed,
    nonsignalling_part,
    ocb_process,
    sep_feasibility,
    separable_from_params,
    validate_process,
)
from procmat.optimizer import OptimizerConfig, feasible_interval, random_feasible_init
from procmat.validation import VALIDITY_TOL

from oracles import block_matrix

SQRT2 = np.sqrt(2)

# each block's 4-letter Pauli words, in coordinate order
SEP_WORDS_AB, SEP_WORDS_BA = (tuple(c.word for c in COORDINATES[span]) for span in BLOCK_SPANS)


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
        assert validate_process(triple.ordered_ab).valid
        assert validate_process(triple.ordered_ba).valid

    def test_single_coefficient_channel_like_block(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.25  # word I Z Z I at its extremal weight
        p = SepParams(1.0, c, np.zeros((3, 4, 3)))
        triple = separable_from_params(p)
        assert min_eigenvalue(triple.ordered_ab) == pytest.approx(0.0, abs=1e-12)
        assert triple.mixture.valid
        assert triple.mixture.op.allclose(
            identity(CANONICAL_LABELS) * 0.25 + pauli_term("IZZI") * 0.25, tol=1e-13
        )

    def test_ab_block_fixed_under_bo_replacement(self, rng):
        p = random_feasible_params(rng)
        block = block_operator(p.vector(), 0)
        assert trace_replace(block, ["B_O"]).allclose(block, tol=1e-12)

    def test_blocks_are_valid_processes(self, rng):
        p = random_feasible_params(rng)
        triple = separable_from_params(p)
        assert validate_process(triple.ordered_ab).valid
        assert validate_process(triple.ordered_ba).valid
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
                (block_operator(p.vector(), 0), SEP_WORDS_AB, p.c),
                (block_operator(p.vector(), 1), SEP_WORDS_BA, p.c_prime),
            ):
                oracle = block_matrix(words, coeffs.ravel())
                np.testing.assert_allclose(block.matrix, oracle, rtol=0, atol=1e-15)


class TestFeixFamily:
    def test_pure_ab_point(self):
        w = feix_process(FeixParams(1.0, 0.0))
        assert w.valid, w.report.lines()
        assert w.op.allclose(feix_process(FeixParams(1.0, 0.0)).op, tol=1e-13)

    def test_pure_ba_point(self):
        w = feix_process(FeixParams(0.0, 0.0))
        assert w.valid
        assert w.op.allclose(feix_process(FeixParams(0.0, 0.0)).op, tol=1e-13)

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


class TestBlockPencil:
    """The fixed-order blocks are stated once, as the 8 x 8 pencil
    B_b(x) = I/4 + sum_k x_k BLOCK_WORDS[k] over the span BLOCK_SPANS[b] of
    the coordinate vector; every block eigenvalue reads it."""

    @staticmethod
    def full_min_eigs(p):
        return tuple(min_eigenvalue(block_operator(p.vector(), b)) for b in range(2))

    def test_pencil_is_the_block_off_its_identity_factor(self):
        p = random_feasible_init(8)
        blocks = (block_operator(p.vector(), 0), block_operator(p.vector(), 1))
        for b, (block, (_, at)) in enumerate(zip(blocks, SEP_BLOCKS)):
            # the block is the pencil with I/2 x 2 put in at its identity factor
            reduced = np.trace(block.matrix.reshape((2,) * 8), axis1=at, axis2=4 + at) / 2
            pencil = process.block_matrix(p.vector(), b)
            np.testing.assert_allclose(pencil, reduced.reshape(8, 8), rtol=0, atol=1e-15)
        assert not BLOCK_WORDS.flags.writeable

    def test_min_eigs_match_the_full_blocks_at_random_starts(self):
        for seed in range(50):
            p = random_feasible_init(seed)
            pencil = block_min_eigs(p.vector())
            assert pencil == pytest.approx(self.full_min_eigs(p), rel=0, abs=1e-14)
            assert sep_feasibility(p) == pencil

    def test_min_eigs_match_at_interval_endpoints(self, rng):
        # an endpoint leaves the moved block singular up to the endpoint slack
        names = [name for name, _ in SEP_BLOCKS]
        for seed in range(5):
            p = random_feasible_init(300 + seed)
            for k in rng.choice(np.arange(1, len(COORDINATES)), size=6, replace=False):
                for end in feasible_interval(p, int(k)):
                    x = p.vector()
                    x[k] = end
                    pencil = block_min_eigs(x)
                    full = self.full_min_eigs(SepParams.from_vector(x))
                    assert pencil == pytest.approx(full, rel=0, abs=1e-14)
                    assert abs(pencil[names.index(COORDINATES[k].block)]) <= 1e-9

    def test_infeasible_params_rejected_before_any_operator_is_built(self, monkeypatch, rng):
        cases = [SepParams.from_flat_map({"c_0zz": 0.4}), SepParams.from_flat_map({"cp_x0x": 0.4})]
        cases += [
            SepParams(0.5, rng.normal(scale=0.2, size=(4, 3, 3)), rng.normal(scale=0.2, size=(3, 4, 3)))
            for _ in range(4)
        ]
        expected = []
        for p in cases:
            name, eig = next(
                (name, eig) for (name, _), eig in zip(SEP_BLOCKS, self.full_min_eigs(p))
                if eig < -VALIDITY_TOL
            )
            expected.append((name, eig))

        def no_operator(*args, **kwargs):
            raise AssertionError("built an operator before rejecting")

        monkeypatch.setattr(process, "from_pauli_map", no_operator)
        for p, (name, eig) in zip(cases, expected):
            with pytest.raises(InfeasibleParamsError) as err:
                separable_from_params(p)
            assert err.value.block == name
            assert err.value.min_eig == pytest.approx(eig, rel=0, abs=1e-14)
        assert [name for name, _ in expected[:2]] == ["A<B", "B<A"]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
    def test_bad_psd_tol_rejected_before_any_eigensolve(self, monkeypatch, tol):
        # unchecked, psd_tol = nan accepted this block with min eigenvalue -0.65
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before psd_tol was checked")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        with pytest.raises(ValueError, match="psd_tol must be positive and finite"):
            separable_from_params(SepParams.from_flat_map({"c_0zz": 0.9}), tol)


class TestValidatedOnce:
    """``separable_from_params`` validates only the mixture it returns; its
    blocks are valid by construction, and that claim is checked here."""

    def test_one_validation_per_accepted_call(self, monkeypatch):
        calls = []
        original = process.validate_process

        def spy(op):
            calls.append(op)
            return original(op)

        monkeypatch.setattr(process, "validate_process", spy)
        for seed in range(5):
            triple = separable_from_params(random_feasible_init(seed))
            assert len(calls) == seed + 1
            assert calls[-1] is triple.mixture.op
        with pytest.raises(InfeasibleParamsError):
            separable_from_params(SepParams.from_flat_map({"c_0zz": 0.4}))
        assert len(calls) == 5

    def test_blocks_valid_at_random_feasible_starts(self):
        for seed in range(50):
            p = random_feasible_init(seed)
            triple = separable_from_params(p)
            for block in (triple.ordered_ab, triple.ordered_ba):
                assert validate_process(block).valid, validate_process(block).lines()

    def test_blocks_valid_at_interval_endpoints(self, rng):
        # an endpoint leaves the moved block singular up to the endpoint slack
        names = [name for name, _ in SEP_BLOCKS]
        for seed in range(5):
            p = random_feasible_init(400 + seed)
            for k in rng.choice(np.arange(1, len(COORDINATES)), size=4, replace=False):
                for end in feasible_interval(p, int(k)):
                    x = p.vector()
                    x[k] = end
                    triple = separable_from_params(SepParams.from_vector(x))
                    blocks = (triple.ordered_ab, triple.ordered_ba)
                    moved = blocks[names.index(COORDINATES[k].block)]
                    assert abs(min_eigenvalue(moved)) <= 1e-9
                    for block in blocks:
                        assert validate_process(block).valid, validate_process(block).lines()
                    assert triple.mixture.valid


class TestFeixPlaneMap:
    """The Feix plane is one Pauli map, W(q, eps) = I/4 + q/12 (IXXI + IYYI
    + IZZI) + (1 - q + eps)/4 ZIXZ."""

    def test_process_is_the_literal_map(self, rng):
        points = [(rng.uniform(0.01, 0.99), rng.uniform(0.0, 2.0)) for _ in range(20)]
        points += [(rng.uniform(0.01, 0.99), 0.0) for _ in range(10)]
        psd = [feix_process(FeixParams(q, eps)).valid for q, eps in points]
        assert any(psd) and not all(psd)
        for q, eps in points:
            literal = {"IIII": 0.25, "IXXI": q / 12, "IYYI": q / 12, "IZZI": q / 12}
            literal["ZIXZ"] = (1 - q + eps) / 4
            mapping = to_pauli_map(feix_process(FeixParams(q, eps)).op)
            assert mapping.keys() == literal.keys()
            for word, value in literal.items():
                assert abs(mapping[word] - value) <= 1e-15

    def test_corner_points_equal_the_fixed_order_blocks_bitwise(self):
        ab = from_pauli_map({"IIII": 0.25, "IXXI": 0.25 / 3, "IYYI": 0.25 / 3, "IZZI": 0.25 / 3})
        ba = from_pauli_map({"IIII": 0.25, "ZIXZ": 0.25})
        for (q, eps), block in (((1.0, 0.0), ab), ((0.0, 0.0), ba)):
            point = feix_process(FeixParams(q, eps))
            assert point.valid
            assert point.op.matrix.tobytes() == block.matrix.tobytes()
