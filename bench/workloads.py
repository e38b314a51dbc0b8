"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned, in one process, ``jobs=1``.  Every input
is generated from the run's seed; item ``i`` of a stream depends only on
``(seed, i)``, so a run that goes past the fixed batch sees the same items on
every commit.

A workload provides ``setup(seed, workdir)`` (inputs of the fixed batch plus
first-call set-up), ``item(state, i)``, ``execute(state, item, ctx)`` (the
timed part), ``check(state, item, result)``, which raises ``CheckError`` when
an output is wrong and returns the operation's value in bits, or ``None`` when
the operation has no value that counts toward the value metrics (a planned
rejection, a Feix solve under seeded inputs), and ``traced(wl, state, tracer)``
for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import procmat.cli as cli
import procmat.instruments as instruments
import procmat.operators as operators
import procmat.optimizer as optimizer
import procmat.process as process
import procmat.stats as stats
import tracing

#: |library value - recomputed value| above this is a failed check; a
#: perturbation of 1e-6 must be caught, roundoff (~1e-14) must not
VALUE_TOL = 1e-9
#: frozen values of the OCB process under the built-in strategy
OCB_H_AB = 1.8456526640405408
OCB_P_SUCC = 0.5334708691207961
FROZEN_TOL = 1e-12
CAUSAL_BOUND = 0.5
#: entries dropped by to_pauli_map (|c| <= 1e-13 each) may sum over 256 words
ROUND_TRIP_TOL = 1e-11


class CheckError(Exception):
    """An output that fails its correctness check."""


@dataclass
class RunContext:
    """Hooks a workload calls during the timed part; no-ops when untraced."""

    tracer: object | None = None
    rejected: int = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def reject(self):
        self.rejected += 1


def objective_of(report: stats.EntropyReport, name: str) -> float:
    return {
        "H_AB": report.h_ab,
        "H_A": report.h_a,
        "H_B": report.h_b,
        "H_A_given_B": report.h_a_given_b,
        "I_AB": report.i_ab,
    }[name]


def _item_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------


def recomputed_value(proc, cfg: optimizer.OptimizerConfig) -> float:
    """The objective of ``proc`` through the probability rule, independent of
    the optimizer's affine engine."""
    table = stats.cond_probs(proc, cfg.instrument_a, cfg.instrument_b)
    return objective_of(stats.entropies(stats.joint_dist(table, cfg.inputs)), cfg.objective)


def _close(value: float, expected: float, what: str):
    if not abs(value - expected) <= VALUE_TOL:
        raise CheckError(f"{what}: reported {value!r}, recomputed {expected!r}")


def check_sep_result(params: process.SepParams, value: float, cfg: optimizer.OptimizerConfig):
    """A separable optimum must be feasible and its value must be recomputable."""
    eig_ab, eig_ba = process.sep_feasibility(params)
    if min(eig_ab, eig_ba) < -cfg.psd_tol:
        raise CheckError(f"separable result infeasible: block eigenvalues {eig_ab!r}, {eig_ba!r}")
    try:
        triple = process.separable_from_params(params, cfg.psd_tol)
    except process.InfeasibleParamsError as err:
        raise CheckError(f"separable result rejected on rebuild: {err}") from None
    _close(value, recomputed_value(triple.mixture, cfg), "separable value")


def check_feix_result(params: process.FeixParams, value: float, cfg: optimizer.OptimizerConfig):
    """A Feix optimum must validate and its value must be recomputable."""
    proc = process.feix_process(params)
    if not proc.valid:
        raise CheckError(f"Feix result {params} fails validation: {proc.report.lines()}")
    _close(value, recomputed_value(proc, cfg), "Feix value")


# ---------------------------------------------------------------------------
# sep_multistart
# ---------------------------------------------------------------------------

#: Centering and sweeps stop when no coordinate moves by more than this (the
#: CLI's --tol).  At the default 1e-6 one restart takes 2.4-12.5 s on a
#: 2-core x86-64 host, so a run holds about five restarts and the spread of
#: their cost across seeds exceeds any usable bound.  At 1e-2 a restart takes
#: about 0.8 s (spread about 0.17 of the mean), still spends 59% of it in
#: centering, and ends within a few 1e-3 bits of the 1e-6 value.
SEP_SWEEP_TOL = 1e-2
SEP_BATCH = 32
#: coordinates probed per restart by feasible_interval / line_maximize in
#: the traced run
SEP_PROBES = 3


@dataclass
class SepState:
    seed_base: int
    cfg: optimizer.OptimizerConfig


def sep_setup(seed: int, workdir: Path) -> SepState:
    base = int(np.random.default_rng(seed).integers(0, 2**31 - 2**20))
    cfg = optimizer.OptimizerConfig(seed=base, restarts=1, sweep_tol=SEP_SWEEP_TOL)
    # first-call set-up: one engine build and one interval on the first start
    start = optimizer.random_feasible_init(base, cfg.psd_tol)
    optimizer.line_maximize(start, 0, optimizer.feasible_interval(start, 0), cfg)
    return SepState(base, cfg)


def sep_item(state: SepState, i: int) -> int:
    return state.seed_base + i


def sep_execute(state: SepState, restart_seed: int, ctx: RunContext):
    result = optimizer.multistart(replace(state.cfg, seed=restart_seed), jobs=1)
    return result.best_params, result.best_value


def sep_check(state: SepState, restart_seed: int, result) -> float:
    params, value = result
    check_sep_result(params, value, state.cfg)
    return value


def sep_traced_batch(wl: "Workload", state: SepState, tracer: tracing.Tracer) -> dict:
    """Each restart of the batch untraced through ``multistart``, then through
    the public per-seed path under the tracer; records must agree bitwise.

    Restart ``r`` of ``multistart`` with seed ``s`` starts from seed ``s + r``,
    so ``multistart`` with seed ``s + r`` and one restart records the same
    restart.  Untraced and traced runs of one restart follow each other, so
    drift in machine speed cancels from the tracing overhead.
    """
    failures = []
    outcomes = []
    untraced_s = traced_s = 0.0
    for r in range(wl.batch):
        seed = state.seed_base + r
        t0 = time.perf_counter()
        reference = optimizer.multistart(replace(state.cfg, seed=seed), jobs=1)
        untraced_s += time.perf_counter() - t0
        uninstall = tracing.install(tracer)
        try:
            tracer.request = r
            t0 = time.perf_counter()
            init = optimizer.random_feasible_init(seed, state.cfg.psd_tol)
            params, value, sweeps = optimizer.coordinate_ascent(init, state.cfg)
            traced_s += time.perf_counter() - t0
            outcomes.append((params, value))
            tracer.count("optimizer.coordinate_ascent.sweeps", sweeps)
            rng = _item_rng(state.seed_base, r)
            for coord in rng.choice(optimizer.N_COORDS, size=SEP_PROBES, replace=False):
                interval = optimizer.feasible_interval(params, int(coord))
                optimizer.line_maximize(params, int(coord), interval)
        finally:
            uninstall()
        record = reference.records[0]
        if (record.value, record.sweeps) != (value, sweeps) or (
            params.to_flat_map() != reference.best_params.to_flat_map()
        ):
            failures.append(f"restart {r}: traced ({value!r}, {sweeps}) != "
                            f"multistart ({record.value!r}, {record.sweeps})")
    mismatches = len(failures)
    # checked after the batch, untraced, so the checks add no spans
    for r, (params, value) in enumerate(outcomes):
        try:
            check_sep_result(params, value, state.cfg)
        except CheckError as err:
            failures.append(f"restart {r}: {err}")
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "bitwise_mismatches": mismatches,
        "failures": failures,
    }


def traced_batch(wl: "Workload", state, tracer: tracing.Tracer) -> dict:
    """Each item of the batch untraced, then again under the tracer; the
    checked values must agree.  The two runs of one item follow each other,
    so drift in machine speed cancels from the tracing overhead."""
    ctx = RunContext(tracer)
    failures = []
    mismatches = 0
    untraced_s = traced_s = 0.0
    for r in range(wl.batch):
        item = wl.item(state, r)
        t0 = time.perf_counter()
        reference = wl.execute(state, item, RunContext())
        untraced_s += time.perf_counter() - t0
        uninstall = tracing.install(tracer)
        try:
            tracer.request = r
            t0 = time.perf_counter()
            result = wl.execute(state, item, ctx)
            traced_s += time.perf_counter() - t0
        finally:
            uninstall()
        try:
            value = wl.check(state, item, result)
            if value != wl.check(state, item, reference):
                mismatches += 1
                raise CheckError(f"traced value {value!r} differs from the untraced one")
        except Exception as err:  # any exception in a check is a failed operation
            failures.append(f"op {r}: {type(err).__name__}: {err}")
    tracer.count("process.rejected", ctx.rejected)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "bitwise_mismatches": mismatches,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# feix_plane
# ---------------------------------------------------------------------------

FEIX_BATCH = 110
UNIFORM = stats.InputDist.uniform()


@dataclass
class FeixState:
    seed: int
    instrument_a: instruments.Instrument
    instrument_b: instruments.Instrument
    cfgs: list = field(default_factory=list)


def _feix_cfg(state: FeixState, i: int) -> optimizer.OptimizerConfig:
    # objectives cycle, and each objective is solved once under uniform
    # inputs and once under a seeded draw, so the two input kinds get equal
    # counts.  The draw is near uniform (Dirichlet, concentration 10), so
    # every seed's solves stay in the regime of the paper's uniform game.
    objective = optimizer.OBJECTIVES[i % len(optimizer.OBJECTIVES)]
    if (i // len(optimizer.OBJECTIVES)) % 2 == 0:
        inputs = UNIFORM
    else:
        draw = _item_rng(state.seed, i).dirichlet(np.full(4, 10.0))
        inputs = stats.InputDist(draw.reshape(2, 2))
    return optimizer.OptimizerConfig(
        objective=objective,
        inputs=inputs,
        instrument_a=state.instrument_a,
        instrument_b=state.instrument_b,
    )


def feix_setup(seed: int, workdir: Path) -> FeixState:
    state = FeixState(seed, instruments.gyni_strategy("A"), instruments.gyni_strategy("B"))
    state.cfgs = [_feix_cfg(state, i) for i in range(FEIX_BATCH)]
    return state


def feix_item(state: FeixState, i: int) -> optimizer.OptimizerConfig:
    return state.cfgs[i] if i < len(state.cfgs) else _feix_cfg(state, i)


def feix_execute(state: FeixState, cfg, ctx: RunContext):
    return optimizer.feix_maximize(cfg)


def feix_check(state: FeixState, cfg, result) -> float | None:
    """The value of a uniform-input solve; ``None`` under seeded inputs.

    The uniform-input solves are the same for every seed, so the value
    metrics read the program alone and a drop in them is the program's.
    """
    params, value = result
    check_feix_result(params, value, cfg)
    return value if cfg.inputs is UNIFORM else None


# ---------------------------------------------------------------------------
# inspect_mix
# ---------------------------------------------------------------------------

#: The item kinds of the stream.  Nothing in the repository weights one kind
#: above another, so every block of ``len(INSPECT_KINDS)`` items holds each
#: kind once; the seed shuffles their order and draws their parameters, so
#: every seed sends the same traffic mix.  ``pauli_file`` and ``instruments``
#: items alternate between a separable and the OCB process block by block.
INSPECT_KINDS = (
    "sep",
    "sep_infeasible",
    "feix",
    "feix_invalid",
    "ocb",
    "pauli_file",
    "instruments",
)
#: a whole number of block pairs, so the batch holds every (kind, source) equally
INSPECT_BATCH = 2 * len(INSPECT_KINDS) * 45

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]),
}


def _word(w: str) -> np.ndarray:
    out = np.ones((1, 1))
    for ch in w:
        out = np.kron(out, _PAULI[ch])
    return out


def _feix_min_eig(q: float, eps: float) -> float:
    # built here from Pauli matrices, independently of procmat.process
    mat = (
        np.eye(16) / 4
        + q / 12 * (_word("IXXI") + _word("IYYI") + _word("IZZI"))
        + (1 - q + eps) / 4 * _word("ZIXZ")
    )
    return float(np.linalg.eigvalsh(mat)[0])


# the two fixed-order blocks on their 8-dimensional supports, built here so
# that the generator does not rely on the code it feeds
_AXES, _SPATIAL = "IXYZ", "XYZ"
_BLOCK_A = np.stack([_word(a + i + j) for a in _AXES for i in _SPATIAL for j in _SPATIAL])
_BLOCK_B = np.stack([_word(i + a + j) for i in _SPATIAL for a in _AXES for j in _SPATIAL])


def _block_min_eig(coeffs: np.ndarray, words: np.ndarray) -> float:
    mat = np.eye(8) / 4 + np.tensordot(coeffs.ravel(), words, axes=(0, 0))
    return float(np.linalg.eigvalsh(mat)[0])


def _random_sep(rng: np.random.Generator) -> process.SepParams:
    """A point with both blocks at least 1e-6 inside the PSD cone."""
    scale = rng.uniform(0.02, 0.08)
    c = rng.normal(scale=scale, size=(4, 3, 3))
    cp = rng.normal(scale=scale, size=(3, 4, 3))
    q = float(rng.uniform())
    while min(_block_min_eig(c, _BLOCK_A), _block_min_eig(cp, _BLOCK_B)) < 1e-6:
        c, cp = c * 0.5, cp * 0.5
    return process.SepParams(q, c, cp)


def _random_infeasible_sep(rng: np.random.Generator) -> process.SepParams:
    # any feasible coefficient obeys |c| <= 1/4, so one larger entry is infeasible
    params = _random_sep(rng)
    c, cp = params.c.copy(), params.c_prime.copy()
    target = c if rng.uniform() < 0.5 else cp
    idx = tuple(int(rng.integers(n)) for n in target.shape)
    target[idx] = rng.choice([-1.0, 1.0]) * rng.uniform(0.26, 0.45)
    return process.SepParams(params.q, c, cp)


def _random_instrument(rng: np.random.Generator, party: str) -> instruments.Instrument:
    """Measure-and-prepare instruments: a random projective measurement on the
    input, a random state sent out per outcome.  PSD and trace preserving."""
    labels = instruments.PARTY_LABELS[party]
    ops = {}
    for x in (0, 1):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        for a in (0, 1):
            proj = np.outer(u[:, a], u[:, a].conj())
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sigma = h @ h.conj().T
            sigma /= np.trace(sigma).real
            mat = np.kron(proj, sigma)
            ops[(x, a)] = operators.HermitianOperator(labels, (mat + mat.conj().T) / 2)
    return instruments.Instrument(party, ops)


@dataclass
class InspectItem:
    index: int
    kind: str
    argv: tuple[str, ...]  # process arguments of the CLI commands
    params: process.SepParams | None = None
    feix: process.FeixParams | None = None
    source: str = ""  # for pauli_file / instruments: "sep" or "ocb"
    path: Path | None = None  # the file the CLI reads


@dataclass
class InspectState:
    seed: int
    workdir: Path
    instrument_a: instruments.Instrument
    instrument_b: instruments.Instrument
    items: list = field(default_factory=list)
    kinds: list = field(init=False)

    def __post_init__(self):
        self.kinds = list(np.random.default_rng(self.seed).permutation(INSPECT_KINDS))


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def _make_inspect_item(state: InspectState, i: int) -> InspectItem:
    rng = _item_rng(state.seed, i)
    kind = str(state.kinds[i % len(state.kinds)])
    item_dir = state.workdir
    if kind in ("sep", "sep_infeasible"):
        params = _random_sep(rng) if kind == "sep" else _random_infeasible_sep(rng)
        path = _write_json(item_dir / f"params-{i}.json", params.to_flat_map())
        return InspectItem(i, kind, ("sep", "--params", str(path)), params=params, path=path)
    if kind in ("feix", "feix_invalid"):
        while True:
            if kind == "feix":
                q, eps = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.0, 0.12))
                if _feix_min_eig(q, eps) >= 1e-6:
                    break
            else:
                q, eps = float(rng.uniform()), float(rng.uniform(0.5, 3.0))
                if _feix_min_eig(q, eps) <= -1e-6:
                    break
        argv = ("feix", "--q", repr(q), "--eps", repr(eps))
        return InspectItem(i, kind, argv, feix=process.FeixParams(q, eps))
    if kind == "ocb":
        return InspectItem(i, kind, ("ocb",))
    source = "sep" if (i // len(INSPECT_KINDS)) % 2 == 0 else "ocb"
    params = _random_sep(rng) if source == "sep" else None
    if kind == "pauli_file":
        path = item_dir / f"process-{i}.json"
        return InspectItem(i, kind, ("--file", str(path)), params=params, source=source, path=path)
    data = {
        "A": instruments.instrument_to_pauli_maps(_random_instrument(rng, "A")),
        "B": instruments.instrument_to_pauli_maps(_random_instrument(rng, "B")),
    }
    path = _write_json(item_dir / f"instruments-{i}.json", data)
    if source == "sep":
        params_path = _write_json(item_dir / f"params-{i}.json", params.to_flat_map())
        argv = ("sep", "--params", str(params_path))
    else:
        argv = ("ocb",)
    return InspectItem(
        i, kind, argv + ("--instruments", str(path)), params=params, source=source, path=path
    )


def inspect_setup(seed: int, workdir: Path) -> InspectState:
    workdir.mkdir(parents=True, exist_ok=True)
    state = InspectState(
        seed, workdir, instruments.gyni_strategy("A"), instruments.gyni_strategy("B")
    )
    state.items = [_make_inspect_item(state, i) for i in range(INSPECT_BATCH)]
    # first-call set-up: argument parser and output path of the CLI
    _cli(RunContext(), ("validate", "ocb", "--format", "json"))
    return state


def inspect_item(state: InspectState, i: int) -> InspectItem:
    return state.items[i] if i < len(state.items) else _make_inspect_item(state, i)


def _cli(ctx: RunContext, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with ctx.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@dataclass
class InspectResult:
    """Library outputs and the CLI's (exit code, stdout, stderr) per command."""

    report: object = None
    table: object = None
    joint: object = None
    entropy: object = None
    p_succ: float | None = None
    rejected: bool = False
    round_trip_error: float | None = None
    cli: dict = field(default_factory=dict)


def _library_chain(ctx: RunContext, out: InspectResult, op, ins_a, ins_b, gate: bool):
    """validate_process -> cond_probs -> joint_dist -> entropies -> game_success."""
    out.report = process.validate_process(op)
    if gate and not out.report.valid:
        out.rejected = True
        ctx.reject()
        return
    out.table = stats.cond_probs(op, ins_a, ins_b)
    out.joint = stats.joint_dist(out.table)
    out.entropy = stats.entropies(out.joint)
    out.p_succ = stats.game_success(out.table)


def inspect_execute(state: InspectState, item: InspectItem, ctx: RunContext) -> InspectResult:
    out = InspectResult()
    ins_a, ins_b = state.instrument_a, state.instrument_b
    commands = ("validate", "entropy", "game")
    if item.kind in ("sep", "sep_infeasible"):
        data = json.loads(item.path.read_text())
        params = process.SepParams.from_flat_map(data)
        try:
            triple = process.separable_from_params(params)
        except process.InfeasibleParamsError:
            out.rejected = True
            ctx.reject()
            commands = ("validate", "entropy")
        else:
            _library_chain(ctx, out, triple.mixture.op, ins_a, ins_b, gate=False)
    elif item.kind in ("feix", "feix_invalid"):
        op = process.feix_process(item.feix).op
        _library_chain(ctx, out, op, ins_a, ins_b, gate=True)
        if out.rejected:
            commands = ("validate", "entropy")
    elif item.kind == "ocb":
        _library_chain(ctx, out, process.ocb_process().op, ins_a, ins_b, gate=False)
    elif item.kind == "pauli_file":
        if item.source == "sep":
            original = process.separable_from_params(item.params).mixture.op
        else:
            original = process.ocb_process().op
        pauli_map = operators.to_pauli_map(original)
        item.path.write_text(json.dumps(pauli_map))
        op = operators.from_pauli_map(json.loads(item.path.read_text()))
        out.round_trip_error = float(np.abs(op.matrix - original.matrix).max())
        _library_chain(ctx, out, op, ins_a, ins_b, gate=False)
    else:  # instruments
        data = json.loads(item.path.read_text())
        ins_a = instruments.instrument_from_pauli_maps(data["A"], "A")
        ins_b = instruments.instrument_from_pauli_maps(data["B"], "B")
        for ins in (ins_a, ins_b):
            if not instruments.validate_instrument(ins).valid:
                raise CheckError(f"seeded instrument {ins.party} of item {item.index} is invalid")
        if item.source == "sep":
            op = process.separable_from_params(item.params).mixture.op
        else:
            op = process.ocb_process().op
        _library_chain(ctx, out, op, ins_a, ins_b, gate=False)
        commands = ("entropy", "game")
    for command in commands:
        out.cli[command] = _cli(ctx, (command,) + item.argv + ("--format", "json"))
    return out


def _cli_doc(result: InspectResult, command: str) -> dict:
    code, stdout, stderr = result.cli[command]
    if code != 0:
        raise CheckError(f"cli {command} exited {code}: {stderr.strip()}")
    return json.loads(stdout)


def _expect_rejected(result: InspectResult, item: InspectItem):
    if not result.rejected:
        raise CheckError(f"item {item.index} ({item.kind}) was accepted by the library")
    for command, (code, stdout, stderr) in result.cli.items():
        if code != 1:
            raise CheckError(f"cli {command} on {item.kind} exited {code}, expected 1")
    if item.kind == "feix_invalid":
        failing = [c.name for c in result.report.failures()]
        if failing != ["positive semidefinite"]:
            raise CheckError(f"Feix point {item.feix} failed {failing}")
        doc = json.loads(result.cli["validate"][1])
        if doc["valid"] or doc["checks"][0]["residual"] != result.report.checks[0].residual:
            raise CheckError("cli validate disagrees with the library on a PSD failure")
    elif "positive semidefinite" not in result.cli["validate"][2]:
        raise CheckError("cli validate did not name the PSD failure")


def inspect_check(state: InspectState, item: InspectItem, result: InspectResult) -> float | None:
    if item.kind in ("sep_infeasible", "feix_invalid"):
        _expect_rejected(result, item)
        return None
    if result.rejected:
        raise CheckError(f"item {item.index} ({item.kind}) was rejected")
    if not result.report.valid:
        raise CheckError(f"item {item.index} ({item.kind}) fails validation")
    if result.round_trip_error is not None and result.round_trip_error > ROUND_TRIP_TOL:
        raise CheckError(f"Pauli-map round trip moved an entry by {result.round_trip_error:.3e}")
    if "validate" in result.cli:
        doc = _cli_doc(result, "validate")
        residuals = [c["residual"] for c in doc["checks"]]
        if not doc["valid"] or residuals != [c.residual for c in result.report.checks]:
            raise CheckError("cli validate disagrees with the library")
    doc = _cli_doc(result, "entropy")
    e = result.entropy
    library = {name: objective_of(e, name) for name in optimizer.OBJECTIVES}
    if doc["entropies"] != library:
        raise CheckError(f"cli entropy {doc['entropies']} != library {library}")
    n_a, n_b = result.joint.shape
    joint = {f"{a},{b}": float(result.joint[a, b]) for a in range(n_a) for b in range(n_b)}
    if doc["joint"] != joint:
        raise CheckError("cli joint distribution disagrees with the library")
    game = _cli_doc(result, "game")
    if game["p_succ"] != result.p_succ:
        raise CheckError(f"cli p_succ {game['p_succ']!r} != library {result.p_succ!r}")
    separable = item.kind == "sep" or item.source == "sep" or (
        item.kind == "feix" and item.feix.eps == 0.0
    )
    if separable and result.p_succ > CAUSAL_BOUND + FROZEN_TOL:
        raise CheckError(f"separable process scores p_succ {result.p_succ!r} > 1/2")
    if item.kind == "ocb" or (item.kind == "pauli_file" and item.source == "ocb"):
        if abs(e.h_ab - OCB_H_AB) > FROZEN_TOL or abs(result.p_succ - OCB_P_SUCC) > FROZEN_TOL:
            raise CheckError(f"OCB gives H_AB {e.h_ab!r}, p_succ {result.p_succ!r}")
    return e.h_ab


@dataclass(frozen=True)
class Workload:
    """A workload's batch size and functions; why each exists is recorded in
    BENCHMARK.json."""

    name: str
    batch: int
    setup: object
    item: object
    execute: object
    check: object
    traced: object = traced_batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sep_multistart", SEP_BATCH, sep_setup, sep_item, sep_execute, sep_check,
                 sep_traced_batch),
        Workload("feix_plane", FEIX_BATCH, feix_setup, feix_item, feix_execute, feix_check),
        Workload("inspect_mix", INSPECT_BATCH, inspect_setup, inspect_item, inspect_execute,
                 inspect_check),
    )
}
