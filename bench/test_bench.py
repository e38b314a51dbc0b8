"""Tests of the benchmark harness: output checks, percentiles, self time and
the tracer.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import procmat.optimizer as optimizer  # noqa: E402
import procmat.process as process  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, InspectItem, InspectState, RunContext  # noqa: E402


@pytest.fixture(scope="module")
def cfg():
    return optimizer.OptimizerConfig(restarts=1)


def _sep_value(params, cfg):
    return workloads.recomputed_value(process.separable_from_params(params).mixture, cfg)


class TestSeparableCheck:
    params = process.SepParams.from_flat_map({"q": 0.3, "c_0zz": 0.1, "cp_zxx": -0.05})

    def test_true_value_passes(self, cfg):
        workloads.check_sep_result(self.params, _sep_value(self.params, cfg), cfg)

    def test_perturbed_value_fails(self, cfg):
        with pytest.raises(CheckError, match="separable value"):
            workloads.check_sep_result(self.params, _sep_value(self.params, cfg) + 1e-6, cfg)

    def test_infeasible_result_fails(self, cfg):
        bad = process.SepParams.from_flat_map({"q": 0.5, "c_0zz": 0.4})
        with pytest.raises(CheckError, match="infeasible"):
            workloads.check_sep_result(bad, 2.0, cfg)


class TestFeixCheck:
    def test_perturbed_value_fails(self, cfg):
        params = process.FeixParams(0.5, 0.1)
        value = workloads.recomputed_value(process.feix_process(params), cfg)
        workloads.check_feix_result(params, value, cfg)
        with pytest.raises(CheckError, match="Feix value"):
            workloads.check_feix_result(params, value + 1e-6, cfg)

    def test_invalid_result_fails(self, cfg):
        with pytest.raises(CheckError, match="fails validation"):
            workloads.check_feix_result(process.FeixParams(0.5, 2.0), 1.0, cfg)

    def test_only_uniform_solves_give_values(self):
        from procmat.instruments import gyni_strategy

        state = workloads.FeixState(3, gyni_strategy("A"), gyni_strategy("B"))
        n = len(optimizer.OBJECTIVES)
        uniform, seeded = workloads._feix_cfg(state, 0), workloads._feix_cfg(state, n)
        assert seeded.objective == uniform.objective
        assert workloads.feix_check(state, uniform, optimizer.feix_maximize(uniform)) > 0
        assert workloads.feix_check(state, seeded, optimizer.feix_maximize(seeded)) is None


@pytest.fixture
def inspect_state(tmp_path):
    from procmat.instruments import gyni_strategy

    return InspectState(0, tmp_path, gyni_strategy("A"), gyni_strategy("B"))


def _infeasible_item(state, params):
    path = state.workdir / "params.json"
    path.write_text(json.dumps(params.to_flat_map()))
    return InspectItem(0, "sep_infeasible", ("sep", "--params", str(path)), params=params, path=path)


class TestInspectChecks:
    def test_expected_rejection_is_not_a_failure(self, inspect_state):
        item = _infeasible_item(inspect_state, process.SepParams.from_flat_map({"c_0zz": 0.4}))
        ctx = RunContext()
        result = workloads.inspect_execute(inspect_state, item, ctx)
        assert workloads.inspect_check(inspect_state, item, result) is None
        assert ctx.rejected == 1

    def test_planned_rejection_that_is_accepted_fails(self, inspect_state):
        item = _infeasible_item(inspect_state, process.SepParams.from_flat_map({"c_0zz": 0.1}))
        result = workloads.inspect_execute(inspect_state, item, RunContext())
        with pytest.raises(CheckError, match="accepted"):
            workloads.inspect_check(inspect_state, item, result)

    def test_psd_failing_feix_is_rejected(self, inspect_state):
        feix = process.FeixParams(0.5, 2.0)
        item = InspectItem(0, "feix_invalid", ("feix", "--q", "0.5", "--eps", "2.0"), feix=feix)
        ctx = RunContext()
        result = workloads.inspect_execute(inspect_state, item, ctx)
        assert workloads.inspect_check(inspect_state, item, result) is None
        assert ctx.rejected == 1

    def test_cli_disagreeing_with_library_fails(self, inspect_state):
        item = InspectItem(0, "ocb", ("ocb",))
        result = workloads.inspect_execute(inspect_state, item, RunContext())
        assert workloads.inspect_check(inspect_state, item, result) == pytest.approx(
            workloads.OCB_H_AB, abs=1e-12)
        result.p_succ += 1e-6
        with pytest.raises(CheckError, match="p_succ"):
            workloads.inspect_check(inspect_state, item, result)

    def test_stream_items_pass(self, inspect_state):
        for i in range(12):
            item = workloads._make_inspect_item(inspect_state, i)
            result = workloads.inspect_execute(inspect_state, item, RunContext())
            workloads.inspect_check(inspect_state, item, result)

    def test_kinds_and_sources_come_in_equal_counts(self, inspect_state):
        k = len(workloads.INSPECT_KINDS)
        assert workloads.INSPECT_BATCH % (2 * k) == 0
        items = [workloads._make_inspect_item(inspect_state, i) for i in range(2 * k)]
        assert sorted(item.kind for item in items) == sorted(2 * workloads.INSPECT_KINDS)
        for kind in ("pauli_file", "instruments"):
            assert sorted(item.source for item in items if item.kind == kind) == ["ocb", "sep"]

    def test_stream_is_a_function_of_the_seed(self, inspect_state, tmp_path):
        other = InspectState(0, tmp_path / "other", None, None)
        other.workdir.mkdir()
        for i in range(8):
            a = workloads._make_inspect_item(inspect_state, i)
            b = workloads._make_inspect_item(other, i)
            assert (a.kind, a.source, a.feix) == (b.kind, b.source, b.feix)
            assert (a.params is None) == (b.params is None)
            if a.params is not None:
                assert a.params.to_flat_map() == b.params.to_flat_map()


class TestTail:
    def test_ten_samples_beyond(self):
        samples = list(range(20, 0, -1))
        assert run.tail(samples) == (10, 50.0, 10)
        assert run.tail(range(100)) == (89, 90.0, 10)

    def test_eleven_samples_is_the_minimum(self):
        assert run.tail(range(11)) == (0, 100.0 / 11, 10)

    def test_too_few_samples_give_the_maximum(self):
        assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _span(i, parent, start, end, leaf=0.0, name="x"):
    return tracing.Span(i, parent, None, name, start, end, leaf_s=leaf)


class TestSelfTime:
    def test_children_and_leaf_time_are_excluded(self):
        spans = [
            _span(0, None, 0.0, 10.0, leaf=1.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 4.0, 6.0, leaf=0.5),
            _span(3, 2, 4.5, 5.0),
        ]
        selfs = tracing.self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[2] == pytest.approx(2.0 - 0.5 - 0.5)
        assert selfs[3] == pytest.approx(0.5)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 0, 2.0, 5.0),
            _span(3, 0, 9.0, 12.0),
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


class TestTracer:
    def test_spans_counts_and_restore(self):
        import procmat
        import procmat.cli

        original = process.validate_process
        eigvalsh = np.linalg.eigvalsh
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            assert procmat.cli.separable_from_params is process.separable_from_params
            process.separable_from_params(process.SepParams.zeros())
            optimizer.feasible_interval(process.SepParams.zeros(), 1)
        finally:
            uninstall()
        assert process.validate_process is original and procmat.validate_process is original
        assert np.linalg.eigvalsh is eigvalsh
        metrics = tracer.summary()
        assert metrics["process.separable_from_params.calls"][0] == 1
        # one validation per block and one for the mixture
        assert metrics["process.validate_process.calls"][0] == 3
        assert metrics["numpy.eigvalsh.n16.calls"][0] >= 5
        assert metrics["numpy.eigvalsh.n16.bytes_in"][0] == 16 * 16 * 16 * metrics[
            "numpy.eigvalsh.n16.matrices"][0]
        # 1 feasibility probe plus 2 x 31 bisection steps
        assert metrics["optimizer.feasible_interval.eig_calls"][0] == 63
        assert metrics["numpy.eigvalsh.n8.calls"][0] == 63
        parent = next(s for s in tracer.spans if s.name == "process.separable_from_params")
        children = [s for s in tracer.spans if s.parent == parent.id]
        assert [s.name for s in children] == ["process.validate_process"] * 3

    def test_traced_restarts_match_multistart_bitwise(self):
        cfg = optimizer.OptimizerConfig(restarts=1, sweep_tol=0.1, max_sweeps=2)
        wl = replace(workloads.WORKLOADS["sep_multistart"], batch=2)
        tracer = tracing.Tracer()
        outcome = wl.traced(wl, workloads.SepState(7, cfg), tracer)
        assert outcome["bitwise_mismatches"] == 0
        assert outcome["failures"] == []
        assert tracer.summary()["optimizer.coordinate_ascent.calls"][0] == 2

    def test_counts_repeat_between_traced_runs(self):
        cfg = optimizer.OptimizerConfig(restarts=1, sweep_tol=0.1, max_sweeps=2)
        wl = replace(workloads.WORKLOADS["sep_multistart"], batch=1)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            wl.traced(wl, workloads.SepState(7, cfg), tracer)
            metrics = tracer.summary()
            metrics["sweeps"] = (tracer.counters["optimizer.coordinate_ascent.sweeps"], "count")
            counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
        assert counts[0] == counts[1]
        assert counts[0]["numpy.eigvalsh.n8.calls"] > 0 and counts[0]["sweeps"] > 0

    def test_one_restart_per_call_gives_the_multistart_records(self):
        cfg = optimizer.OptimizerConfig(restarts=2, seed=7, sweep_tol=0.1, max_sweeps=2)
        batch = optimizer.multistart(cfg, jobs=1)
        for r, record in enumerate(batch.records):
            single = optimizer.multistart(replace(cfg, seed=7 + r, restarts=1), jobs=1)
            assert (single.records[0].value, single.records[0].sweeps) == (record.value, record.sweeps)
