import dataclasses
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import procmat.optimizer as optimizer
from procmat.instruments import (
    PARTY_LABELS,
    Instrument,
    gyni_strategy,
    instrument_from_pauli_maps,
    instrument_to_pauli_maps,
)
from procmat.operators import CANONICAL_LABELS, PAULI_LETTERS, HermitianOperator, from_pauli_map
from procmat.optimizer import (
    N_COORDS,
    OBJECTIVES,
    OptimizerConfig,
    _center_unranked,
    _coord_line,
    _Engine,
    _line_fn,
    _line_interval,
    _slack_max,
    coord_name,
    coordinate_ascent,
    feasible_interval,
    feix_eps_inert,
    feix_maximize,
    line_maximize,
    separable_floor,
    multistart,
    random_feasible_init,
)
from procmat.process import (
    BLOCK_SPANS,
    BLOCK_WORDS,
    COORDINATES,
    SEP_BLOCKS,
    FeixParams,
    InfeasibleParamsError,
    SepParams,
    block_matrix as block_pencil,
    feix_eps_max,
    feix_min_eig,
    feix_process,
    require_feasible,
    sep_feasibility,
    separable_from_params,
)
from procmat.stats import InputDist, cond_probs, entropies, joint_dist, objective, party_table
from procmat.validation import VALIDITY_TOL

from oracles import (
    bisect_interval,
    block_matrix,
    gyni_ops,
    naive_cond_probs,
    naive_trace_product,
    slack_max,
    word_matrix,
)

# each block's 4-letter Pauli words, in coordinate order
SEP_WORDS_AB, SEP_WORDS_BA = (tuple(c.word for c in COORDINATES[span]) for span in BLOCK_SPANS)

# coordinate indices used repeatedly: 0 is q, then the first block's
# coefficients in (alpha, i, j) lexicographic order, then the second block's
COORD_C_0ZZ = 1 + (0 * 9 + 2 * 3 + 2)     # word I Z Z I
COORD_CP_Z0X = 37 + (2 * 12 + 0 * 3 + 0)  # word Z I I X


def small_cfg(**kw):
    defaults = dict(restarts=3, seed=11)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestCoordNames:
    def test_round_trip_layout(self):
        assert coord_name(0) == "q"
        assert coord_name(1) == "c_0xx"
        assert coord_name(COORD_C_0ZZ) == "c_0zz"
        assert coord_name(36) == "c_zzz"
        assert coord_name(COORD_CP_Z0X) == "cp_z0x"
        assert coord_name(72) == "cp_zzz"
        with pytest.raises(ValueError):
            coord_name(N_COORDS)


class TestRandomFeasibleInit:
    def test_deterministic_bitwise(self):
        p1 = random_feasible_init(123)
        p2 = random_feasible_init(123)
        assert p1.q == p2.q
        np.testing.assert_array_equal(p1.c, p2.c)
        np.testing.assert_array_equal(p1.c_prime, p2.c_prime)

    def test_feasible_for_many_seeds(self):
        for seed in range(20):
            p = random_feasible_init(seed)
            eig_ab, eig_ba = sep_feasibility(p)
            assert eig_ab >= -1e-10 and eig_ba >= -1e-10

    def test_restricted_coords_hold_the_base(self):
        base = random_feasible_init(5)
        coords = (0, 7, 40)
        start = random_feasible_init(6, 1e-10, coords, base)
        before, after = base.to_flat_map(), start.to_flat_map()
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {coord_name(k) for k in coords}
        full = random_feasible_init(6, 1e-10, range(N_COORDS), SepParams.zeros())
        assert full.to_flat_map() == random_feasible_init(6).to_flat_map()

    def test_halving_reaches_feasibility_fast(self, rng):
        # scale-shrink oracle: the zero point is strictly interior (min eig
        # 1/4), so halving an infeasible draw must terminate quickly
        c = rng.normal(scale=10.0, size=(4, 3, 3))
        cp = rng.normal(scale=10.0, size=(3, 4, 3))
        steps = 0
        while True:
            p = SepParams(0.5, c, cp)
            eig_ab, eig_ba = sep_feasibility(p)
            if eig_ab >= -1e-10 and eig_ba >= -1e-10:
                break
            c, cp = c / 2, cp / 2
            steps += 1
            assert steps <= 60


class TestFeasibleInterval:
    def test_q_interval_is_unit(self):
        p = random_feasible_init(3)
        assert feasible_interval(p, 0) == (0.0, 1.0)

    def test_zero_params_single_word(self):
        lo, hi = feasible_interval(SepParams.zeros(), COORD_C_0ZZ)
        assert lo == pytest.approx(-0.25, abs=1e-9)
        assert hi == pytest.approx(0.25, abs=1e-9)

    def test_endpoints_sit_on_the_psd_boundary(self, rng):
        for seed in range(5):
            p = random_feasible_init(seed)
            for coord in (1, COORD_C_0ZZ, 36, 40, COORD_CP_Z0X, 72):
                lo, hi = feasible_interval(p, coord)
                for value in (lo, hi):
                    trial = _with_coord(p, coord, value)
                    eig_ab, eig_ba = sep_feasibility(trial)
                    eig = eig_ab if coord <= 36 else eig_ba
                    assert abs(eig) <= 1e-9

    def test_interval_contains_current_value(self):
        p = random_feasible_init(9)
        for coord in (2, 17, 50, 66):
            lo, hi = feasible_interval(p, coord)
            value = _coord_value(p, coord)
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_infeasible_point_rejected(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.3
        with pytest.raises(InfeasibleParamsError):
            feasible_interval(SepParams(0.5, c, np.zeros((3, 4, 3))), COORD_C_0ZZ)


class TestIntervalContract:
    """Closed-form endpoints against the bisection oracle on 16 x 16 blocks."""

    PSD_TOL = 1e-10

    @staticmethod
    def oracle(p, coord):
        def block_at(t):
            trial = _with_coord(p, coord, t)
            if coord <= 36:
                return block_matrix(SEP_WORDS_AB, trial.c.ravel())
            return block_matrix(SEP_WORDS_BA, trial.c_prime.ravel())

        return bisect_interval(block_at, _coord_value(p, coord), TestIntervalContract.PSD_TOL)

    @staticmethod
    def block_eig(p, coord):
        eig_ab, eig_ba = sep_feasibility(p)
        return eig_ab if coord <= 36 else eig_ba

    def test_interior_endpoints_match_bisection(self, rng):
        for seed in range(4):
            p = random_feasible_init(seed)
            for coord in rng.choice(np.arange(1, N_COORDS), size=5, replace=False):
                lo, hi = feasible_interval(p, int(coord), self.PSD_TOL)
                ref_lo, ref_hi = self.oracle(p, int(coord))
                assert abs(lo - ref_lo) <= 1e-9 and abs(hi - ref_hi) <= 1e-9

    def test_boundary_incumbent_interval_contains_it(self, rng):
        # an accepted endpoint move leaves the block singular up to the
        # endpoint slack; the next intervals in that block must keep the point
        for seed in range(4):
            p = random_feasible_init(100 + seed)
            for coord in (COORD_C_0ZZ, 20, COORD_CP_Z0X, 60):
                same_block = range(1, 37) if coord <= 36 else range(37, N_COORDS)
                second = int(rng.choice([k for k in same_block if k != coord]))
                for end in feasible_interval(p, coord, self.PSD_TOL):
                    edge = _with_coord(p, coord, end)
                    for probe in (coord, second):
                        lo, hi = feasible_interval(edge, probe, self.PSD_TOL)
                        assert lo <= _coord_value(edge, probe) <= hi

    def test_endpoints_recheck_feasible(self, rng):
        for seed in range(4):
            p = random_feasible_init(200 + seed)
            for coord in rng.choice(np.arange(1, N_COORDS), size=4, replace=False):
                coord = int(coord)
                for end in feasible_interval(p, coord, self.PSD_TOL):
                    edge = _with_coord(p, coord, end)
                    assert self.block_eig(edge, coord) >= -self.PSD_TOL
                    # from the boundary point, along the same coordinate
                    for again in feasible_interval(edge, coord, self.PSD_TOL):
                        trial = _with_coord(edge, coord, again)
                        assert self.block_eig(trial, coord) >= -self.PSD_TOL

    def test_incumbent_below_endpoint_slack(self):
        # feasible at psd_tol but past the level endpoints are placed at:
        # four block eigenvalues at -0.8 psd_tol
        p = _with_coord(SepParams.zeros(), COORD_C_0ZZ, 0.25 + 0.8 * self.PSD_TOL)
        for coord in (COORD_C_0ZZ, 1, 18, 36):
            lo, hi = feasible_interval(p, coord, self.PSD_TOL)
            assert lo <= _coord_value(p, coord) <= hi
            for end in (lo, hi):
                assert self.block_eig(_with_coord(p, coord, end), coord) >= -self.PSD_TOL


class TestFlatCoordinates:
    def engine(self):
        return _Engine(gyni_strategy("A"), gyni_strategy("B"), InputDist.uniform())

    def test_builtin_strategy_ranks_eight_coordinates(self):
        engine = self.engine()
        ranked = {coord_name(k) for k in range(1, N_COORDS) if not engine.is_flat(k, 0.5)}
        assert ranked == {
            "c_0zz", "c_xxz", "c_yyz", "c_zzz", "cp_z0z", "cp_zxx", "cp_zyy", "cp_zzz",
        }

    def test_zero_weight_block_is_flat(self):
        engine = self.engine()
        assert all(engine.is_flat(k, 0.0) for k in range(1, 37))
        assert all(engine.is_flat(k, 1.0) for k in range(37, N_COORDS))
        assert not engine.is_flat(COORD_C_0ZZ, 1.0)


class TestSlackMax:
    """The centering search: the largest smallest eigenvalue of A + sP."""

    LINE_TOL = OptimizerConfig().line_tol

    def test_random_lines_reach_oracle_maximum(self, monkeypatch):
        engine = TestFlatCoordinates().engine()
        rng = np.random.default_rng(4)
        solves = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: solves.append(m) or eigh(m))
        probes = []
        for seed in range(40):
            x = random_feasible_init(seed).vector()
            flat = [k for k in range(1, N_COORDS) if engine.is_flat(k, x[0])]
            coord = int(rng.choice(flat))
            block, word, t0 = _coord_line(x, coord)
            solves.clear()
            s, lam, lam0, *_ = _slack_max(block, word, self.LINE_TOL, np.linalg.eigh(block))
            probes.append(len(solves))
            # a feasible coefficient obeys |t| <= 1/4, and the maximizer is feasible
            _, best = slack_max(block, word, -0.25 - t0, 0.25 - t0)
            assert lam >= best - 1e-12
            assert lam >= lam0 == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-15)
            assert lam == pytest.approx(np.linalg.eigvalsh(block + s * word)[0], abs=1e-15)
            lo, hi = _line_interval(block, word, t0, 1e-10)
            assert lo <= t0 + s <= hi
        # measured 4.0 eigh per line; without the Newton steps it takes about 19
        assert sum(probes) <= 6 * len(probes)

    @pytest.mark.parametrize("a, b", [(0.05, 0.03), (-0.04, -0.07), (0.0, 0.12), (0.1, 0.0)])
    def test_exact_crossing_kink(self, a, b):
        # the words commute: lam(s) = 1/4 - |a| - |b + s|, with h = 0 everywhere
        block = np.eye(8) / 4 + a * word_matrix("ZII") + b * word_matrix("ZZI")
        s, lam, lam0, *_ = _slack_max(block, word_matrix("ZZI"), self.LINE_TOL, np.linalg.eigh(block))
        assert s == pytest.approx(-b, abs=1e-9)
        assert lam == pytest.approx(0.25 - abs(a), abs=1e-15)
        assert lam0 == pytest.approx(0.25 - abs(a) - abs(b), abs=1e-15)

    def test_infeasible_incumbent_raises_naming_the_block(self):
        # checked once, at the entry, before centering starts
        p = SepParams.from_flat_map({"q": 0.5, "cp_x0x": 0.4})
        with pytest.raises(InfeasibleParamsError) as err:
            coordinate_ascent(p, OptimizerConfig())
        assert err.value.block == "B<A"
        assert err.value.min_eig == pytest.approx(0.25 - 0.4, abs=1e-12)
        assert str(err.value) == str(InfeasibleParamsError("B<A", err.value.min_eig))


class TestCarriedCentering:
    """Centering carries each block's matrix and eigh from line to line
    instead of rebuilding and re-solving it at the start of every line."""

    CFG = OptimizerConfig(restarts=1, sweep_tol=1e-6)

    def test_carried_block_equals_rebuilt_block_on_every_line(self, monkeypatch):
        engine = TestFlatCoordinates().engine()
        search = optimizer._slack_max
        lines = []

        def spy(block, word, tol, eig):
            which = 0 if np.shares_memory(word, BLOCK_WORDS[BLOCK_SPANS[0]]) else 1
            rebuilt = block_pencil(x, which)
            lam, vecs = eig
            lines.append((
                np.abs(block - rebuilt).max(),
                np.abs((vecs * lam) @ vecs.conj().T - block).max(),
            ))
            return search(block, word, tol, eig)

        monkeypatch.setattr(optimizer, "_slack_max", spy)
        for seed in (0, 2, 3):
            x = random_feasible_init(seed).vector()
            _center_unranked(x, engine, self.CFG)
        # seeds 0 and 3 converge (25 and 11 passes), seed 2 reaches the pass cap
        assert len(lines) > 64 * 50
        block_drift, decomposition_error = np.max(lines, axis=0)
        assert block_drift <= 1e-14
        assert decomposition_error <= 1e-14

    def test_line_restarted_at_its_result_solves_at_most_once(self, monkeypatch):
        engine = TestFlatCoordinates().engine()
        rng = np.random.default_rng(9)
        eigh = np.linalg.eigh
        solves = []
        for seed in range(40):
            x = random_feasible_init(seed).vector()
            flat = [k for k in range(1, N_COORDS) if engine.is_flat(k, x[0])]
            block, word, _ = _coord_line(x, int(rng.choice(flat)))
            s, lam, _, matrix, eig = _slack_max(block, word, self.CFG.line_tol, eigh(block))
            # the returned pair is the probed matrix and its solve
            np.testing.assert_array_equal(matrix, block + s * word if s else block)
            np.testing.assert_array_equal(eig[0], eigh(matrix)[0])
            monkeypatch.setattr(np.linalg, "eigh", lambda m: solves.append(m) or eigh(m))
            _, lam_again, lam0_again, *_ = _slack_max(matrix, word, self.CFG.line_tol, eig)
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert lam0_again == lam <= lam_again
            assert len(solves) <= 1
            solves.clear()

    def test_infeasible_block_without_flat_coordinates_not_checked(self):
        # centering builds only the blocks that hold a flat coordinate and
        # checks none (the public entry's require_feasible does); the
        # infeasible B<A block is never read, and the zero A<B block is
        # already at its maximum slack along the line, so one pass moves
        # nothing
        engine = TestFlatCoordinates().engine()
        x = SepParams.from_flat_map({"q": 0.5, "cp_x0x": 0.4}).vector()
        cfg = OptimizerConfig(coords=(COORD_C_0ZZ - 1,))
        assert engine.is_flat(COORD_C_0ZZ - 1, 0.5)
        assert _center_unranked(x, engine, cfg) == (1, "converged")


class TestCenteringRecord:
    def test_records_converged_within_the_cap(self):
        result = multistart(OptimizerConfig(restarts=2, seed=200, sweep_tol=1e-2))
        for record in result.records:
            assert record.centering_stop == "converged"
            assert 1 <= record.centering_passes <= optimizer._CENTERING_MAX_PASSES

    def test_pass_cap_recorded(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_CENTERING_MAX_PASSES", 1)
        result = multistart(OptimizerConfig(restarts=2, seed=200, sweep_tol=1e-6, max_sweeps=1))
        stops = [(r.centering_passes, r.centering_stop) for r in result.records]
        assert stops == [(1, "pass_cap")] * 2

    def test_ascent_sweep_cap_recorded(self):
        result = multistart(OptimizerConfig(restarts=2, seed=200, sweep_tol=1e-12, max_sweeps=1))
        assert [(r.sweeps, r.ascent_stop) for r in result.records] == [(1, "max_sweeps")] * 2

    def test_records_equal_for_any_jobs(self):
        cfg = small_cfg(restarts=2, sweep_tol=1e-2)
        assert multistart(cfg, jobs=1).records == multistart(cfg, jobs=2).records

    @pytest.mark.parametrize("jobs, workers", [(64, 3), (2, 2)])
    def test_pool_has_at_most_one_worker_per_restart(self, recording_pool, jobs, workers):
        cfg = small_cfg(restarts=3, sweep_tol=1e-2)
        pooled = multistart(cfg, jobs=jobs)
        assert recording_pool == [workers]
        serial = multistart(cfg, jobs=1)
        assert recording_pool == [workers]
        assert pooled.records == serial.records
        assert pooled.best_params.to_flat_map() == serial.best_params.to_flat_map()


class TestAffineLine:
    """The ascent's line objective runs on the affine joint j0 + (t - t0) d."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_line_fn_equals_objective_of_rebuilt_joint(self, name, q):
        engine = TestFlatCoordinates().engine()
        value = partial(objective, name)
        start = random_feasible_init(17)
        params = SepParams(q, start.c, start.c_prime)
        for coord in (0, 5, COORD_C_0ZZ, COORD_CP_Z0X, 44, 72):
            x = params.vector()
            line = _line_fn(engine, value, x, coord)
            for t in np.linspace(*feasible_interval(params, coord), 7):
                probe = params.vector()
                probe[coord] = t
                assert line(t) == pytest.approx(value(engine.joint(probe)), rel=0, abs=1e-14)
            assert SepParams.from_vector(x).to_flat_map() == params.to_flat_map()


def _coord_value(p, coord):
    if coord == 0:
        return p.q
    if coord <= 36:
        return p.c.ravel()[coord - 1]
    return p.c_prime.ravel()[coord - 37]


def _with_coord(p, coord, value):
    if coord == 0:
        return SepParams(value, p.c, p.c_prime)
    if coord <= 36:
        c = p.c.copy().ravel()
        c[coord - 1] = value
        return SepParams(p.q, c.reshape(4, 3, 3), p.c_prime)
    cp = p.c_prime.copy().ravel()
    cp[coord - 37] = value
    return SepParams(p.q, p.c, cp.reshape(3, 4, 3))


class TestLineMaximize:
    def test_constant_coordinate_keeps_value_and_incumbent(self):
        z = SepParams.zeros()
        interval = feasible_interval(z, COORD_CP_Z0X)
        value, argmax = line_maximize(z, COORD_CP_Z0X, interval)
        base = _objective_at(z)
        assert value == pytest.approx(base, abs=1e-12)
        assert argmax == 0.0

    def test_known_line_from_zeros_maximizes_at_boundary(self):
        # along c_0zz from the zero point the joint tilts monotonically, so
        # the maximum sits at the upper interval endpoint (verified against
        # the naive probability oracle in test_line_profile_matches_oracle)
        z = SepParams.zeros()
        interval = feasible_interval(z, COORD_C_0ZZ)
        value, argmax = line_maximize(z, COORD_C_0ZZ, interval)
        assert argmax == pytest.approx(0.25, abs=1e-6)
        assert value == pytest.approx(1.7030351, abs=1e-5)

    def test_line_profile_matches_oracle(self):
        # brute-force: evaluate the objective through the naive Born rule on
        # a grid and compare the line maximum
        z = SepParams.zeros()
        ops = gyni_ops()
        values = []
        grid = np.linspace(-0.25, 0.25, 101)
        for t in grid:
            p = _with_coord(z, COORD_C_0ZZ, t)
            w = separable_from_params(p).mixture
            table = naive_cond_probs(w.op.matrix, ops, ops)
            joint = table.mean(axis=(2, 3))
            joint = joint[joint > 1e-15]
            values.append(float(-(joint * np.log2(joint)).sum()))
        interval = feasible_interval(z, COORD_C_0ZZ)
        value, _ = line_maximize(z, COORD_C_0ZZ, interval)
        assert value >= max(values) - 1e-6

    def test_result_at_least_endpoints_and_incumbent(self):
        p = random_feasible_init(21)
        for objective in ("H_AB", "H_A_given_B"):
            cfg = OptimizerConfig(objective=objective)
            for coord in (0, 5, COORD_C_0ZZ, 44):
                interval = feasible_interval(p, coord)
                value, argmax = line_maximize(p, coord, interval, cfg)
                for probe in (interval[0], interval[1], _coord_value(p, coord)):
                    probe_value = _objective_at(_with_coord(p, coord, probe), objective)
                    assert value >= probe_value - 1e-12

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            line_maximize(SepParams.zeros(), 1, (0.2, 0.1))

    @pytest.mark.parametrize(
        "coord, interval, feasible",
        [
            (COORD_C_0ZZ, (-1.0, 1.0), "(-0.25000000005, 0.25000000005)"),
            (0, (-0.5, 1.5), "(0.0, 1.0)"),
        ],
    )
    def test_interval_outside_the_feasible_one_rejected(self, coord, interval, feasible):
        # unchecked, (-1, 1) on c_0zz returned argmax 0.75, where the A<B
        # block's smallest eigenvalue is -0.5
        z = SepParams.zeros()
        expected = f"interval {interval} is not inside the feasible interval {feasible} of "
        with pytest.raises(ValueError) as err:
            line_maximize(z, coord, interval)
        assert str(err.value) == expected + coord_name(coord)

    def test_feasible_interval_and_sub_interval_unchanged(self):
        # the check only rejects: inside the feasible interval the result is
        # the line maximization itself, bit for bit
        p = random_feasible_init(21)
        cfg = OptimizerConfig()
        engine = _Engine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)
        for coord in (0, 5, COORD_C_0ZZ, 44):
            lo, hi = feasible_interval(p, coord)
            for interval in ((lo, hi), (0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)):
                x = p.vector()
                line = _line_fn(engine, partial(objective, cfg.objective), x, coord)
                t, v = optimizer._line_max(line, float(x[coord]), *interval, cfg.line_tol, True)
                value, argmax = line_maximize(p, coord, interval, cfg)
                assert (value.hex(), argmax.hex()) == (float(v).hex(), float(t).hex())


def _objective_at(p, objective="H_AB"):
    table = cond_probs(separable_from_params(p).mixture, gyni_strategy("A"), gyni_strategy("B"))
    report = entropies(joint_dist(table))
    return getattr(report, objective.lower())


class TestCoordinateAscent:
    def test_monotone_trace_and_feasible_result(self):
        cfg = OptimizerConfig(restarts=1, seed=31)
        init = random_feasible_init(31)
        result = multistart(cfg)
        trace = result.traces[0]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        eig_ab, eig_ba = sep_feasibility(result.best_params)
        assert eig_ab >= -1e-10 and eig_ba >= -1e-10

    def test_value_consistent_with_params(self):
        params, value, _ = coordinate_ascent(random_feasible_init(8), small_cfg())
        assert value == pytest.approx(_objective_at(params), abs=1e-9)

    def test_never_below_start(self):
        init = random_feasible_init(13)
        start_value = _objective_at(init)
        _, value, _ = coordinate_ascent(init, small_cfg())
        assert value >= start_value - 1e-12

    def test_zero_init_improves_past_base(self):
        params, value, sweeps = coordinate_ascent(SepParams.zeros(), small_cfg())
        assert value > 1.7  # far above the 1.6226 starting point

    def test_infeasible_init_rejected(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.5
        with pytest.raises(InfeasibleParamsError):
            coordinate_ascent(SepParams(0.5, c, np.zeros((3, 4, 3))), small_cfg())


class TestMultistart:
    def test_deterministic_and_schedule_independent(self):
        cfg = small_cfg()
        r1 = multistart(cfg, jobs=1)
        r2 = multistart(cfg, jobs=2)
        assert r1.best_value == r2.best_value
        assert r1.best_restart == r2.best_restart
        assert [rec.value for rec in r1.records] == [rec.value for rec in r2.records]
        np.testing.assert_array_equal(r1.best_params.c, r2.best_params.c)

    def test_single_restart_equals_plain_ascent(self):
        cfg = OptimizerConfig(restarts=1, seed=77)
        result = multistart(cfg)
        params, value, sweeps = coordinate_ascent(random_feasible_init(77), cfg)
        assert result.best_value == value
        assert result.records[0].sweeps == sweeps
        np.testing.assert_array_equal(result.best_params.c, params.c)

    def test_infeasible_base_params_same_error_for_any_jobs(self):
        c = np.zeros((4, 3, 3))
        c[0, 2, 2] = 0.3
        cfg = OptimizerConfig(
            restarts=2,
            coords=(COORD_CP_Z0X,),
            base_params=SepParams(0.5, c, np.zeros((3, 4, 3))),
        )
        errors = []
        for jobs in (1, 2):
            with pytest.raises(InfeasibleParamsError) as info:
                multistart(cfg, jobs=jobs)
            errors.append((info.value.block, info.value.min_eig))
        assert errors[0] == errors[1]
        assert errors[0][0] == "A<B"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            multistart(small_cfg(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_in_restart_order(self, jobs):
        result = multistart(small_cfg(restarts=4), jobs=jobs)
        assert [r.restart for r in result.records] == list(range(4))

    def test_records_cover_consecutive_seeds(self):
        cfg = small_cfg(restarts=4, seed=50)
        result = multistart(cfg)
        assert [r.seed for r in result.records] == [50, 51, 52, 53]
        assert result.best_value == max(r.value for r in result.records)


class TestRestrictedSubfamily:
    def test_two_parameter_search_matches_grid_oracle(self):
        # subfamily {c_0zz, cp_z0x}, others zero, q = 1/2: the optimizer's
        # best must match an exhaustive grid to 1e-3 in objective value
        cfg = OptimizerConfig(
            restarts=5,
            seed=5,
            coords=(COORD_C_0ZZ, COORD_CP_Z0X),
            base_params=SepParams.zeros(0.5),
        )
        result = multistart(cfg)

        # independent affine reconstruction of the joint from naive anchors
        ops = gyni_ops()

        def naive_joint(c1, c2):
            p = _with_coord(_with_coord(SepParams.zeros(0.5), COORD_C_0ZZ, c1), COORD_CP_Z0X, c2)
            w = separable_from_params(p).mixture
            return naive_cond_probs(w.op.matrix, ops, ops).mean(axis=(2, 3)).ravel()

        j00 = naive_joint(0.0, 0.0)
        d1 = (naive_joint(0.1, 0.0) - j00) / 0.1
        d2 = (naive_joint(0.0, 0.1) - j00) / 0.1
        check = naive_joint(0.07, -0.13)
        np.testing.assert_allclose(j00 + 0.07 * d1 - 0.13 * d2, check, atol=1e-12)

        grid = np.arange(-0.25, 0.25 + 1e-9, 1e-3)
        c1g, c2g = np.meshgrid(grid, grid, indexing="ij")
        joints = (
            j00[None, None, :]
            + c1g[..., None] * d1[None, None, :]
            + c2g[..., None] * d2[None, None, :]
        )
        joints = np.clip(joints, 1e-300, None)
        values = -(joints * np.log2(joints)).sum(axis=-1)
        assert abs(result.best_value - values.max()) <= 1e-3

    def test_restricted_init_keeps_inactive_at_base(self):
        cfg = OptimizerConfig(
            restarts=2,
            seed=3,
            coords=(COORD_C_0ZZ,),
            base_params=SepParams.zeros(0.5),
        )
        result = multistart(cfg)
        assert result.best_params.q == 0.5
        flat = result.best_params.to_flat_map()
        nonzero = {k for k, v in flat.items() if k != "q" and v != 0.0}
        assert nonzero <= {"c_0zz"}


class TestFeixMaximize:
    def test_reaches_expected_level(self):
        params, value = feix_maximize(OptimizerConfig())
        assert value == pytest.approx(1.68, abs=0.02)
        assert 0.0 <= params.q <= 1.0 and params.eps >= 0.0

    def test_beats_named_member(self):
        from procmat.process import FeixParams, feix_process

        _, value = feix_maximize(OptimizerConfig())
        table = cond_probs(feix_process(FeixParams(0.7, 0.1)), gyni_strategy("A"), gyni_strategy("B"))
        assert value >= entropies(joint_dist(table)).h_ab - 1e-9


class TestFeixSectors:
    """The closed-form smallest eigenvalue of the Feix plane against the
    16 x 16 process."""

    @pytest.fixture(scope="class")
    def engine(self):
        return _Engine(gyni_strategy("A"), gyni_strategy("B"), InputDist.uniform())

    @staticmethod
    def full_min_eig(q, eps):
        return np.linalg.eigvalsh(feix_process(FeixParams(q, eps)).op.matrix)[0]

    @staticmethod
    def plane_min_eig(q, eps):
        """Smallest eigenvalue of I/4 + q S/12 + (1 - q + eps) ZIXZ/4 at any
        real (q, eps), also where ``FeixParams`` rejects the point."""
        if 0.0 <= q <= 1.0 and eps >= 0.0:
            return TestFeixSectors.full_min_eig(q, eps)
        mat = (
            np.eye(16) * 0.25
            + q * sum(word_matrix(w) for w in ("IXXI", "IYYI", "IZZI")) / 12
            + (1.0 - q + eps) * word_matrix("ZIXZ") / 4
        )
        return np.linalg.eigvalsh(mat)[0]

    def test_two_distinct_real_four_by_four_sectors(self):
        # the premise of the closed form: both blocks are real and vanish
        # outside the four 4 x 4 sectors fixed by the Z eigenvalues of A_I
        # (the first qubit) and B_O (the last)
        sector = np.array([(i >> 3, i & 1) for i in range(16)])
        same = (sector[:, None, :] == sector[None, :, :]).all(axis=-1)
        assert np.unique(sector, axis=0, return_counts=True)[1].tolist() == [4, 4, 4, 4]
        for block in (feix_process(FeixParams(1.0, 0.0)).op, feix_process(FeixParams(0.0, 0.0)).op):
            assert not block.matrix.imag.any()
            assert not block.matrix[~same].any()
            assert block.matrix[same].any()

    def test_closed_form_matches_full_eigensolve_on_the_real_plane(self, engine):
        qs, epss = np.linspace(-1.0, 2.0, 31), np.linspace(-1.0, 3.0, 41)
        points = [(q, eps) for q in qs for eps in epss]
        for q in (0.0, 0.3, 0.77, 1.0):
            top = feix_eps_max(q, 1e-10)
            points += [(q, top - 1e-9), (q, top), (q, top + 1e-9)]
        for q, eps in points:
            assert feix_min_eig(q, eps) == pytest.approx(self.plane_min_eig(q, eps), abs=1e-14)
        # for q < 0 the minimum comes from the X x X = +1 block, 2a - |b|:
        # here q = -1 and eps = 0.5
        a, b = -1.0 / 12, (1.0 + 1.0 + 0.5) / 4
        assert 2 * a - b < -np.hypot(2 * a, b)
        assert self.plane_min_eig(-1.0, 0.5) == pytest.approx(0.25 + a - b, abs=1e-14)

    def test_min_eig_broadcasts(self, engine, rng):
        q, eps = rng.uniform(-1.0, 2.0, size=7), rng.uniform(-1.0, 3.0, size=5)
        singles = np.array([[feix_min_eig(float(x), float(y)) for y in eps] for x in q])
        assert np.ndim(feix_min_eig(0.5, 0.1)) == 0
        grid = feix_min_eig(q[:, None], eps[None, :])
        assert grid.shape == (7, 5)
        np.testing.assert_array_equal(grid, singles)
        row = feix_min_eig(q, float(eps[2]))
        assert row.shape == (7,)
        np.testing.assert_array_equal(row, singles[:, 2])

    def test_min_eig_matches_full_process(self, engine, rng):
        points = [(1.0, 0.0), (0.0, 0.0), (0.5, 0.0)]
        points += [(rng.uniform(), rng.uniform(0.0, 1.2)) for _ in range(40)]
        for q in (0.0, 0.3, 0.77, 1.0):
            top = feix_eps_max(q, 1e-10)
            points += [(q, top), (q, min(top + 1e-9, 1.0001))]
        for q, eps in points:
            assert feix_min_eig(q, eps) == pytest.approx(self.full_min_eig(q, eps), abs=1e-14)

    def test_eps_bound_endpoint_is_the_psd_edge(self, engine):
        for q in (0.0, 0.3, 0.77, 1.0):
            # the optimizer's endpoint, at -psd_tol / 2, re-checks as feasible
            top = feix_eps_max(q, 0.5e-10)
            assert feix_min_eig(q, top) == pytest.approx(-0.5e-10, abs=1e-15)
            assert self.full_min_eig(q, top) >= -1e-10
            # the -psd_tol edge lies within 1e-8 of the PSD edge
            edge = feix_eps_max(q, 1e-10)
            assert feix_min_eig(q, edge) == pytest.approx(-1e-10, abs=1e-15)
            assert self.full_min_eig(q, edge + 1e-8) < -1e-10

    def test_eps_edge_is_never_below_the_separable_edge(self):
        qs = np.linspace(0.0, 1.0, 2001)
        assert qs[0] == 0.0 and qs[-1] == 1.0
        assert (feix_min_eig(qs, 0.0) >= 0.0).all()
        for slack in (0.0, 0.5e-10, 1e-10):
            assert min(feix_eps_max(float(q), slack) for q in qs) >= 0.0
        assert feix_eps_max(0.0, 0.0) == feix_eps_max(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("slack", [0.0, 0.5e-10, 1e-10])
    def test_eps_max_broadcasts(self, slack):
        qs = np.linspace(0.0, 1.0, 2001)
        singles = np.array([feix_eps_max(float(q), slack) for q in qs])
        assert feix_eps_max(qs, slack).tobytes() == singles.tobytes()
        assert np.ndim(feix_eps_max(0.5, slack)) == 0

    @pytest.mark.parametrize("slack", [0.0, 0.5e-10, 1e-10])
    def test_unit_square_maps_into_the_psd_region(self, slack):
        # the search's points eps = r * feix_eps_max(q) are feasible by
        # construction (measured worst: 6.0e-17 below -slack)
        qs, rs = np.linspace(0.0, 1.0, 2001), np.linspace(0.0, 1.0, 51)
        eps = rs[None, :] * feix_eps_max(qs, slack)[:, None]
        assert feix_min_eig(qs[:, None], eps).min() >= -slack - 1e-15

    def test_grid_feasibility_mask_matches_full_eigensolve(self, engine):
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        qq, ee = np.meshgrid(grid, grid, indexing="ij")
        mats = (
            np.eye(16) * 0.25
            + qq[..., None, None] * sum(word_matrix(w) for w in ("IXXI", "IYYI", "IZZI")) / 12
            + (1.0 - qq + ee)[..., None, None] * word_matrix("ZIXZ") / 4
        )
        full = np.linalg.eigvalsh(mats)[..., 0]
        sector = feix_min_eig(qq, ee)
        assert np.abs(sector - full).max() <= 1e-14
        np.testing.assert_array_equal(sector >= -1e-10, full >= -1e-10)

    def test_batched_joint_equals_single_points_bitwise(self, engine, rng):
        q, eps = rng.uniform(size=30), rng.uniform(size=30)
        stacked = engine.feix_joint(q, eps)
        for k in range(30):
            single = engine.feix_joint(float(q[k]), float(eps[k]))
            assert stacked[k].tobytes() == single.tobytes()


class TestPartyTables:
    def test_tables_match_naive_traces(self):
        for party in ("A", "B"):
            ins = gyni_strategy(party)
            table = party_table(ins)
            for m, first in enumerate(PAULI_LETTERS):
                for n, second in enumerate(PAULI_LETTERS):
                    word = word_matrix(first + second)
                    for ix, x in enumerate(ins.inputs):
                        for ia, a in enumerate(ins.outcomes(x)):
                            value = naive_trace_product(ins.operators[(x, a)].matrix, word)
                            assert table[m, n, ia, ix] == pytest.approx(value.real, abs=1e-15)


class TestBlockWords:
    def test_block_words_are_the_words_off_the_identity_factor(self):
        # each 8 x 8 block word, with I put back at its block's identity
        # factor, is the 16 x 16 word of its coordinate
        rows, cols = "abcd", "efgh"
        assert [name for name, _ in SEP_BLOCKS] == ["A<B", "B<A"]
        assert [CANONICAL_LABELS[at].name for _, at in SEP_BLOCKS] == ["B_O", "A_O"]
        for b, ((name, at), words) in enumerate(zip(SEP_BLOCKS, (SEP_WORDS_AB, SEP_WORDS_BA))):
            assert {c.block for c in COORDINATES[BLOCK_SPANS[b]]} == {name}
            keep = "".join(rows[k] for k in range(4) if k != at)
            keep += "".join(cols[k] for k in range(4) if k != at)
            embed = f"{keep},{rows[at]}{cols[at]}->{rows}{cols}"
            assert len(words) == 36 and all(word[at] == "I" for word in words)
            for small, word in zip(BLOCK_WORDS[BLOCK_SPANS[b]], words):
                full = np.einsum(embed, small.reshape((2,) * 6), np.eye(2)).reshape(16, 16)
                assert np.array_equal(full, word_matrix(word))


class TestConfigValidation:
    def test_bad_objective(self):
        with pytest.raises(ValueError, match="objective"):
            OptimizerConfig(objective="entropy")

    def test_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=0)

    def test_bad_coords(self):
        with pytest.raises(ValueError, match="coords"):
            OptimizerConfig(coords=(99,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["line_tol", "psd_tol", "sweep_tol"])
    def test_non_finite_tolerance_rejected(self, name, value):
        # NaN fails every comparison: unchecked, sweep_tol = nan ran all
        # max_sweeps sweeps; line_tol and psd_tol are class constants, so
        # the constructor refuses any value for them
        if name == "sweep_tol":
            error, message = ValueError, f"{name} must be positive and finite"
        else:
            error, message = TypeError, f"unexpected keyword argument '{name}'"
        with pytest.raises(error, match=message):
            OptimizerConfig(restarts=1, max_sweeps=5, **{name: value})

    def test_line_and_psd_tolerances_are_class_constants(self):
        # no search sets them, so the constructor takes neither
        for name, value in (("line_tol", 1e-6), ("psd_tol", 1e-9)):
            with pytest.raises(TypeError, match=name):
                OptimizerConfig(**{name: value})
        assert OptimizerConfig().line_tol == 1e-7
        assert OptimizerConfig().psd_tol is VALIDITY_TOL
        assert len(dataclasses.fields(OptimizerConfig)) == 10


#: values of a fixed seeded configuration, pinned so that a change which keeps
#: the search algorithm must reproduce them (records, sweeps, best parameters)
SEEDED = json.loads((Path(__file__).parent / "seeded_results.json").read_text())


class TestSeededResults:
    @pytest.mark.parametrize("objective", ["H_AB", "I_AB"])
    def test_multistart_reproduces_pinned_records(self, objective):
        expected = SEEDED[f"multistart_{objective}"]
        result = multistart(
            OptimizerConfig(restarts=2, seed=200, sweep_tol=1e-2, objective=objective)
        )
        values = [r.value for r in result.records]
        assert values == pytest.approx(expected["values"], rel=0, abs=1e-12)
        assert [r.sweeps for r in result.records] == expected["sweeps"]
        assert result.best_restart == expected["best_restart"]
        flat = result.best_params.to_flat_map()
        assert list(flat) == list(expected["best_params"])
        pinned = list(expected["best_params"].values())
        assert list(flat.values()) == pytest.approx(pinned, rel=0, abs=1e-12)

    def test_feix_maximize_reproduces_pinned_optimum(self):
        expected = SEEDED["feix_H_AB"]
        params, value = feix_maximize(OptimizerConfig(objective="H_AB"))
        pinned = [expected["q"], expected["eps"], expected["value"]]
        assert [params.q, params.eps, value] == pytest.approx(pinned, rel=0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_feix_maximize_reproduces_pinned_optima(self, kind, objective):
        pins = SEEDED[f"feix_{kind}"]
        inputs = InputDist(np.array(pins["inputs"])) if kind == "dirichlet" else InputDist.uniform()
        params, value = feix_maximize(OptimizerConfig(objective=objective, inputs=inputs))
        expected = pins[objective]
        pinned = [expected["q"], expected["eps"], expected["value"]]
        assert [params.q, params.eps, value] == pytest.approx(pinned, rel=0, abs=1e-12)

    def test_all_coordinates_active_matches_default_search(self):
        settings = dict(restarts=2, seed=31, sweep_tol=1e-2)
        default = multistart(OptimizerConfig(**settings))
        explicit = multistart(OptimizerConfig(**settings, coords=range(N_COORDS)))
        assert [(r.value, r.sweeps) for r in explicit.records] == [
            (r.value, r.sweeps) for r in default.records
        ]
        assert explicit.best_params.to_flat_map() == default.best_params.to_flat_map()


class TestCoordinateAddress:
    """A separable coordinate has one address, its index k in
    ``COORDINATES``: the search point, the word stack and the joint increment
    table are indexed by k, and each block is a contiguous span of them."""

    def test_vector_round_trip_in_coordinate_order(self, rng):
        p = SepParams(0.3, rng.normal(size=(4, 3, 3)), rng.normal(size=(3, 4, 3)))
        x = p.vector()
        assert x.shape == (N_COORDS,)
        assert list(p.to_flat_map().values()) == x.tolist()
        back = SepParams.from_vector(x)
        assert back.vector().tobytes() == x.tobytes()
        with pytest.raises(ValueError, match="expected 73 coordinates"):
            SepParams.from_vector(x[1:])

    def test_block_spans_are_the_blocks_coordinates(self):
        x = random_feasible_init(4).vector()
        for b, (name, _) in enumerate(SEP_BLOCKS):
            ks = [k for k, coord in enumerate(COORDINATES) if coord.block == name]
            assert list(range(N_COORDS)[BLOCK_SPANS[b]]) == ks
            np.testing.assert_array_equal(x[BLOCK_SPANS[b]], x[ks])
        x[COORD_CP_Z0X] = 0.01
        assert x[BLOCK_SPANS[1]][COORD_CP_Z0X - 37] == 0.01

    def test_words_and_rows_are_indexed_by_coordinate(self, rng):
        draw = rng.dirichlet(np.ones(4)).reshape(2, 2)
        engine = _Engine(gyni_strategy("A"), gyni_strategy("B"), InputDist(draw))
        assert not BLOCK_WORDS[0].any() and not engine.rows[0].any()
        for b in range(len(SEP_BLOCKS)):
            assert np.shares_memory(BLOCK_WORDS[BLOCK_SPANS[b]], BLOCK_WORDS)
            assert np.shares_memory(engine.incs[b], engine.rows)
        for k in (1, COORD_C_0ZZ, 36, 37, COORD_CP_Z0X, 72):
            word = COORDINATES[k].word
            at = dict(SEP_BLOCKS)[COORDINATES[k].block]
            assert np.array_equal(BLOCK_WORDS[k], word_matrix(word[:at] + word[at + 1 :]))
            # the joint increment of the word, through the probability rule at
            # the PSD point I/4 + P/8
            process = from_pauli_map({"IIII": 0.25, word: 0.125})
            table = cond_probs(process, gyni_strategy("A"), gyni_strategy("B"))
            increment = 8.0 * (joint_dist(table, InputDist(draw)) - engine.base_joint)
            np.testing.assert_allclose(engine.rows[k], increment.ravel(), rtol=0, atol=1e-14)


def _bob_measuring_x():
    # on input 1 Bob measures B_I in the X basis, (I +- X)/2, and sends |0><0|
    bob = instrument_to_pauli_maps(gyni_strategy("B"))
    bob["1,0"] = {"II": 0.25, "IZ": 0.25, "XI": 0.25, "XZ": 0.25}
    bob["1,1"] = {"II": 0.25, "IZ": 0.25, "XI": -0.25, "XZ": -0.25}
    return instrument_from_pauli_maps(bob, "B")


class TestFeixEpsInert:
    def test_gyni_bob_has_no_x_z_term(self):
        x, z = PAULI_LETTERS.index("X"), PAULI_LETTERS.index("Z")
        assert not party_table(gyni_strategy("B"))[x, z].any()

    def test_inert_under_gyni_for_any_inputs(self):
        draws = np.random.default_rng(5).dirichlet(np.full(4, 0.5), size=20)
        probs = [np.array(SEEDED["feix_dirichlet"]["inputs"]), *draws.reshape(20, 2, 2)]
        for p_xy in probs:
            assert feix_eps_inert(OptimizerConfig(inputs=InputDist(p_xy)))


class TestFeixPlaneRows:
    """The plane's joint, read from ``_Engine.rows``, against the process
    route, with a Bob for whom the ZIXZ row is not zero."""

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
    def test_plane_joint_equals_process_route(self, kind):
        rng = np.random.default_rng(21)
        inputs = InputDist.uniform()
        if kind == "dirichlet":
            inputs = InputDist(rng.dirichlet(np.ones(4)).reshape(2, 2))
        alice, bob = gyni_strategy("A"), _bob_measuring_x()
        engine = _Engine(alice, bob, inputs)
        assert engine.feix_ba.any()
        for _ in range(20):
            q = rng.uniform()
            eps = rng.uniform(0.0, feix_eps_max(q, 1e-10))
            table = cond_probs(feix_process(FeixParams(q, eps)), alice, bob)
            np.testing.assert_allclose(
                engine.feix_joint(q, eps), joint_dist(table, inputs), rtol=0, atol=1e-14
            )


class TestFeixSeparableEdge:
    """The claim ``separable_floor`` rests on: the Feix plane's eps = 0 edge
    is the separable point q, c_0xx = c_0yy = c_0zz = 1/12, cp_zxz = 1/4."""

    @staticmethod
    def edge_point(q):
        twelfth = 1.0 / 12.0
        coeffs = {"c_0xx": twelfth, "c_0yy": twelfth, "c_0zz": twelfth, "cp_zxz": 0.25}
        return SepParams.from_flat_map({"q": q, **coeffs})

    def test_edge_point_is_feasible_and_its_mixture_is_the_plane(self):
        for q in np.linspace(0.0, 1.0, 11):
            p = self.edge_point(q)
            # the edge lies on the PSD boundary: both pencils read a smallest
            # eigenvalue within 3e-17 of 0
            require_feasible(p.vector(), VALIDITY_TOL)
            np.testing.assert_allclose(
                separable_from_params(p).mixture.op.matrix,
                feix_process(FeixParams(q, 0.0)).op.matrix,
                rtol=0, atol=1e-15,
            )

    @pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
    @pytest.mark.parametrize("bob", [gyni_strategy("B"), _bob_measuring_x()], ids=["gyni", "x"])
    def test_engine_joint_on_the_edge_is_the_plane_joint(self, kind, bob):
        inputs = InputDist.uniform()
        if kind == "dirichlet":
            inputs = InputDist(np.array(SEEDED["feix_dirichlet"]["inputs"]))
        engine = _Engine(gyni_strategy("A"), bob, inputs)
        for q in np.linspace(0.0, 1.0, 11):
            np.testing.assert_allclose(
                engine.joint(self.edge_point(q).vector()), engine.feix_joint(q, 0.0),
                rtol=0, atol=1e-15,
            )


def _measure_and_prepare(rng, party):
    # a random projective measurement on the input, then a random state sent
    # out per outcome: PSD and trace preserving
    ops = {}
    for x in (0, 1):
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for a in (0, 1):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            state = h @ h.conj().T
            mat = np.kron(np.outer(basis[:, a], basis[:, a].conj()), state / np.trace(state).real)
            ops[(x, a)] = HermitianOperator(PARTY_LABELS[party], (mat + mat.conj().T) / 2)
    return Instrument(party, ops)


class TestFeixOffTheSeparableEdge:
    """Seeded measure-and-prepare instruments under which eps moves the joint
    and the Feix plane's I_AB optimum lies at eps > 0.01 (from 0.077 to 0.31,
    with q from 0.24 to 0.995), on the curved PSD edge r = 1: feix_min_eig
    reads -psd_tol / 2 there."""

    @pytest.mark.parametrize("seed", [1, 3, 8, 14])
    def test_optimum_off_the_edge_validates_and_recomputes(self, seed):
        rng = np.random.default_rng(seed)
        alice, bob = _measure_and_prepare(rng, "A"), _measure_and_prepare(rng, "B")
        cfg = OptimizerConfig(objective="I_AB", instrument_a=alice, instrument_b=bob)
        assert not feix_eps_inert(cfg)
        params, value = feix_maximize(cfg)
        assert params.eps > 0.01
        process = feix_process(params)
        assert process.valid
        recomputed = objective("I_AB", joint_dist(cond_probs(process, alice, bob), cfg.inputs))
        assert value == pytest.approx(recomputed, abs=1e-12)
        assert value > separable_floor(cfg)


class TestFeixFollowsTheEdge:
    """``feix_maximize`` slides along the curved PSD edge: no point of a
    20,001-point scan of eps = feix_eps_max(q, psd_tol / 2) beats it.  With
    one-coordinate lines in (q, eps) the scan beat I_AB in 19 of these 40
    pairs, by up to 5.5e-5 bits (seed 3)."""

    def test_no_edge_point_beats_the_optimum(self):
        qs = np.linspace(0.0, 1.0, 20001)
        edge = feix_eps_max(qs, 0.5 * VALIDITY_TOL)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            alice, bob = _measure_and_prepare(rng, "A"), _measure_and_prepare(rng, "B")
            engine = _Engine(alice, bob, InputDist.uniform())
            for name in OBJECTIVES:
                cfg = OptimizerConfig(objective=name, instrument_a=alice, instrument_b=bob)
                _, value = feix_maximize(cfg)
                scan = objective(name, engine.feix_joint(qs, edge)).max()
                assert value >= scan - 1e-12, (seed, name, scan - value)


class TestFinalBlockSlack:
    """Each restart records the final smallest eigenvalue of each block (the
    records, these fields included, are equal for any jobs: see
    ``TestCenteringRecord.test_records_equal_for_any_jobs``)."""

    def test_best_restart_slack_matches_its_params(self):
        cfg = OptimizerConfig(restarts=3, seed=41, sweep_tol=1e-2)
        result = multistart(cfg)
        best = result.records[result.best_restart]
        pair = sep_feasibility(result.best_params)
        assert (best.min_eig_ab, best.min_eig_ba) == pytest.approx(pair, rel=0, abs=1e-14)
        for record in result.records:
            assert min(record.min_eig_ab, record.min_eig_ba) >= -cfg.psd_tol


class TestOneFeasibilityRule:
    """A separable point is checked once, by ``process.require_feasible``,
    at every public entry that takes one: either block's infeasibility
    raises, for every coordinate, q included."""

    # the A<B block's smallest eigenvalue is 1/4 - 0.4 at c_0zz = 0.4, the
    # B<A block's at cp_x0x = 0.4
    BAD_AB = SepParams.from_flat_map({"q": 0.5, "c_0zz": 0.4})
    BAD_BA = SepParams.from_flat_map({"q": 0.5, "cp_x0x": 0.4})

    @staticmethod
    def raised(call):
        with pytest.raises(InfeasibleParamsError) as err:
            call()
        return err.value.block, err.value.min_eig

    def test_q_line_at_an_infeasible_point_raises(self):
        # unchecked, feasible_interval returned (0, 1) and line_maximize
        # reported 1.7657 bits at q = 0.9375
        for p, block in ((self.BAD_AB, "A<B"), (self.BAD_BA, "B<A")):
            for call in (
                lambda: feasible_interval(p, 0),
                lambda: line_maximize(p, 0, (0.0, 1.0)),
            ):
                name, min_eig = self.raised(call)
                assert name == block
                assert min_eig == pytest.approx(0.25 - 0.4, abs=1e-12)

    def test_a_coordinate_of_the_feasible_block_names_the_other_block(self):
        # unchecked, feasible_interval(BAD_BA, 9) returned (-0.25, 0.25) and
        # line_maximize reported 1.7030 bits
        cases = ((self.BAD_BA, COORD_C_0ZZ, "B<A"), (self.BAD_AB, COORD_CP_Z0X, "A<B"))
        for p, coord, block in cases:
            for call in (
                lambda: feasible_interval(p, coord),
                lambda: line_maximize(p, coord, (-0.1, 0.1)),
            ):
                assert self.raised(call)[0] == block

    @pytest.mark.parametrize("bad", ["BAD_AB", "BAD_BA"])
    def test_every_entry_raises_the_same_error(self, bad):
        p = getattr(self, bad)
        cfg = small_cfg(restarts=2, coords=(COORD_C_0ZZ,), base_params=p)
        calls = (
            lambda: random_feasible_init(1, base=p),
            lambda: coordinate_ascent(p, small_cfg()),
            lambda: multistart(cfg, jobs=1),
            lambda: multistart(cfg, jobs=2),
            lambda: feasible_interval(p, COORD_C_0ZZ),
            lambda: line_maximize(p, COORD_C_0ZZ, (0.0, 0.0)),
            lambda: separable_from_params(p),
        )
        errors = {self.raised(call) for call in calls}
        expected = SEP_BLOCKS[bad == "BAD_BA"][0], sep_feasibility(p)[bad == "BAD_BA"]
        assert errors == {expected}


class TestCoordinateRange:
    """``coord_name``, ``feasible_interval`` and ``line_maximize`` share one
    coordinate-range check."""

    @pytest.mark.parametrize("coord", [-1, N_COORDS])
    def test_out_of_range_coordinate_rejected_alike(self, coord):
        # unchecked, line_maximize maximized coordinate 72 for -1 and raised
        # IndexError for 73
        p = SepParams.zeros()
        calls = (
            lambda: coord_name(coord),
            lambda: feasible_interval(p, coord),
            lambda: line_maximize(p, coord, (-0.1, 0.1)),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"coordinate index out of range: {coord}"

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint_rejected(self, end):
        for interval in ((-0.1, end), (end, 0.1)):
            with pytest.raises(ValueError, match="interval endpoints must be finite"):
                line_maximize(SepParams.zeros(), COORD_C_0ZZ, interval)


class TestPsdTolChecked:
    """The public ``psd_tol`` arguments follow the config's one rule, checked
    before any draw or eigensolve."""

    MESSAGE = "psd_tol must be positive and finite"

    @staticmethod
    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} before psd_tol was checked")

        return refused

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_random_feasible_init_rejects_before_drawing(self, monkeypatch, tol):
        # unchecked, psd_tol = nan never returned
        monkeypatch.setattr(np.random, "default_rng", self.refuse("drew"))
        monkeypatch.setattr(np.linalg, "eigvalsh", self.refuse("solved"))
        with pytest.raises(ValueError, match=self.MESSAGE):
            random_feasible_init(1, tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_feasible_interval_rejects_before_solving(self, monkeypatch, tol):
        # unchecked, psd_tol = nan raised LinAlgError
        monkeypatch.setattr(np.linalg, "eigh", self.refuse("solved"))
        with pytest.raises(ValueError, match=self.MESSAGE):
            feasible_interval(SepParams.zeros(), COORD_C_0ZZ, tol)

    def test_one_message_for_the_config_and_the_entry_points(self):
        nan = math.nan
        calls = (
            lambda: random_feasible_init(1, nan),
            lambda: feasible_interval(SepParams.zeros(), COORD_C_0ZZ, nan),
            lambda: separable_from_params(SepParams.zeros(), nan),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {f"{self.MESSAGE}, got nan"}


class TestAscentCounts:
    """Each restart records the ascent's ranked line maximizations and its
    objective evaluations (equal for any jobs: see
    ``TestCenteringRecord.test_records_equal_for_any_jobs``)."""

    def test_fields_follow_the_final_block_slack(self):
        names = [f.name for f in dataclasses.fields(optimizer.RestartRecord)]
        assert names[4:8] == ["min_eig_ab", "min_eig_ba", "line_searches", "objective_evals"]
        assert names[-3:] == ["centering_passes", "centering_stop", "ascent_stop"]

    @pytest.mark.parametrize(
        "settings",
        [
            dict(objective="H_AB", seed=200),
            dict(objective="I_AB", seed=3),
            dict(objective="H_AB", seed=5, coords=(0, COORD_C_0ZZ, COORD_CP_Z0X)),
        ],
    )
    def test_counts_match_spies(self, monkeypatch, settings):
        searches, evals = [], []
        line_max, value = optimizer._line_max, optimizer.objective

        def line_spy(*args):
            searches.append(args[1])
            return line_max(*args)

        def value_spy(*args):
            evals.append(1)
            return value(*args)

        monkeypatch.setattr(optimizer, "_line_max", line_spy)
        monkeypatch.setattr(optimizer, "objective", value_spy)
        cfg = OptimizerConfig(restarts=1, sweep_tol=1e-2, **settings)
        record = multistart(cfg).records[0]
        assert record.line_searches == len(searches) > 0
        assert record.objective_evals == len(evals) > record.line_searches
