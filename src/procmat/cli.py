"""Command-line interface.

Subcommands: ``validate`` (check a process matrix), ``entropy`` (outcome
probabilities and Shannon report), ``game`` (guess-your-neighbour score),
``optimize`` (entropy maximization over the separable or Feix family).
Each builds one result document, which ``_emit`` renders as text, JSON or CSV.

Exit status: 0 on success, 1 when a validation check fails, 2 on usage or
file-parse errors or an unwritable output path (checked before any search).
Every output document embeds a run manifest (command,
config echo, library and numpy versions, CPU count, RNG generator and seed,
duration on the monotonic clock).
The environment variable ``PROCMAT_OUT_DIR`` sets the directory for default
output filenames.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .instruments import (
    gyni_strategy,
    instrument_from_pauli_maps,
    validate_instrument,
)
from .operators import from_pauli_map
from .optimizer import (
    GENERATOR_NAME,
    OptimizerConfig,
    feix_eps_inert,
    feix_maximize,
    multistart,
    separable_floor,
)
from .process import (
    FeixParams,
    InfeasibleParamsError,
    SepParams,
    as_process,
    feix_process,
    ocb_process,
    separable_from_params,
)
from .stats import (
    OBJECTIVES,
    InputDist,
    cond_probs,
    game_success,
    joint_dist,
    objective,
)

CAUSAL_BOUND = 0.5


class FileFormatError(ValueError):
    """An input file that cannot be parsed, or an output path that cannot be
    written (exit status 2)."""


class _ValidationFailure(Exception):
    """A semantic validation failure (exit status 1)."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ValueError(f"repeated key(s) {', '.join(map(repr, repeated))}")
    return obj


def _read(path: str, parse, object_of: str | None = None):
    """``parse`` applied to the JSON at ``path``, which must be an object when
    ``object_of`` is given; failures, a key repeated within one object
    included, are FileFormatErrors naming the file.
    Only the instruments file is read by key: a missing key is a missing party."""
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise FileFormatError(f"cannot parse {path}: {err}") from None
    except ValueError as err:
        raise FileFormatError(f"{path}: {err}") from None
    if object_of is not None and not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected an object {object_of}")
    try:
        return parse(data)
    except KeyError as err:
        raise FileFormatError(f"{path}: missing party key {err}") from None
    except (TypeError, ValueError) as err:
        raise FileFormatError(f"{path}: {err}") from None


def _require_valid(report, what: str):
    """Print a failed validity report to stderr and exit with status 1."""
    if not report.valid:
        print(f"{what} failed validation:", file=sys.stderr)
        for line in report.lines():
            print(line, file=sys.stderr)
        raise _ValidationFailure()


def _resolve_process(args):
    """Build the requested process matrix and an echo of how it was specified."""
    if getattr(args, "file", None):
        op = _read(args.file, from_pauli_map, "of Pauli coefficients")
        return as_process(op), {"process": "file", "file": args.file}
    kind = getattr(args, "process", None)
    if kind == "ocb":
        return ocb_process(), {"process": "ocb"}
    if kind == "feix":
        params = FeixParams(args.q, args.eps)
        return feix_process(params), {"process": "feix", "q": args.q, "eps": args.eps}
    if kind == "sep":
        if args.params:
            params = _read(args.params, SepParams.from_flat_map, "of parameters")
        else:
            params = SepParams.zeros()
        triple = separable_from_params(params)
        return triple.mixture, {"process": "sep", "params": args.params or "(zeros)"}
    raise FileFormatError("no process specified: pass ocb, feix, sep, or --file PATH")


def _resolve_instruments(args):
    if getattr(args, "instruments", None):
        ins_a, ins_b = _read(
            args.instruments,
            lambda d: [instrument_from_pauli_maps(d[party], party) for party in "AB"],
            "with keys A and B",
        )
        for ins in (ins_a, ins_b):
            _require_valid(validate_instrument(ins), f"instrument {ins.party}")
        return ins_a, ins_b, {"instruments": args.instruments}
    return gyni_strategy("A"), gyni_strategy("B"), {"instruments": "built-in"}


def _parse_inputs(data, shape) -> InputDist:
    if isinstance(data, list):
        probs = np.asarray(data, dtype=float)
    elif isinstance(data, dict):
        probs = np.zeros(shape)
        # one digit each for x and y, so that a key names one cell
        n_x, n_y = min(shape[0], 10), min(shape[1], 10)
        cells = {f"{x}{y}": (x, y) for x in range(n_x) for y in range(n_y)}
        for key, value in data.items():
            key = str(key)
            if key not in cells:
                expected = f"expected 'xy' with x in 0..{n_x - 1}, y in 0..{n_y - 1}"
                raise ValueError(f"bad input key {key!r}: {expected}")
            probs[cells[key]] = float(value)
    else:
        raise ValueError("expected a list or object")
    if probs.shape != shape:
        raise ValueError(f"expected a {shape[0]} x {shape[1]} table, got {probs.shape}")
    return InputDist(probs)


def _resolve_inputs(args, ins_a, ins_b):
    """The input distribution, checked against the instruments' (x, y) shape
    before any process is built."""
    shape = (len(ins_a.inputs), len(ins_b.inputs))
    if getattr(args, "inputs", None):
        return _read(args.inputs, lambda d: _parse_inputs(d, shape)), {"inputs": args.inputs}
    return InputDist.uniform(*shape), {"inputs": "uniform"}


def _manifest(command: str, config: dict, started: float, seed=None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "config": config,
        "rng": {"generator": GENERATOR_NAME if seed is not None else None, "seed": seed},
        "duration_s": round(time.perf_counter() - started, 3),
    }


def _g6(value: float) -> str:
    return f"{value:.6g}"


def _cell(value) -> str:
    """One CSV cell: floats at full precision, ``None`` empty."""
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def _emit(fmt: str, doc: dict, csv_header: str, csv_rows, text_lines, trailer=()):
    """Print ``doc`` as json; or as csv: manifest comment, header, rows and
    ``#`` trailer lines; or as text: two-line manifest header and text lines."""
    manifest = doc["manifest"]
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        print(f"# manifest: {json.dumps(manifest, sort_keys=True)}")
        print(csv_header)
        for row in csv_rows:
            print(",".join(_cell(v) for v in row))
        for line in trailer:
            print(f"# {line}")
    else:
        rng = manifest["rng"]
        rng_text = f"{rng['generator']} seed {rng['seed']}" if rng["seed"] is not None else "none"
        print(f"# procmat {manifest['version']}  command: {manifest['command']}  rng: {rng_text}")
        print(f"# config: {json.dumps(manifest['config'], sort_keys=True)}")
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    started = time.perf_counter()
    process, echo = _resolve_process(args)
    report = process.report
    fields = ("name", "residual", "tolerance", "passed")
    doc = {
        "manifest": _manifest("validate", echo, started),
        "checks": [{f: getattr(c, f) for f in fields} for c in report.checks],
        "valid": report.valid,
    }
    rows = (c.values() for c in doc["checks"])
    text = [*report.lines(), "valid" if report.valid else "INVALID"]
    _emit(args.format, doc, ",".join(fields), rows, text)
    return 0 if report.valid else 1


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    started = time.perf_counter()
    ins_a, ins_b, ins_echo = _resolve_instruments(args)
    inputs, in_echo = _resolve_inputs(args, ins_a, ins_b)
    process, echo = _resolve_process(args)
    _require_valid(process.report, "process matrix")
    table = cond_probs(process, ins_a, ins_b)
    joint = joint_dist(table, inputs)
    quantities = {name: objective(name, joint) for name in OBJECTIVES}
    doc = {
        "manifest": _manifest("entropy", {**echo, **ins_echo, **in_echo}, started),
        "cond_probs": {",".join(map(str, k)): p for k, p in np.ndenumerate(table.probs)},
        "joint": {",".join(map(str, k)): p for k, p in np.ndenumerate(joint)},
        "entropies": quantities,
    }
    rows = [("cond", *key.split(","), p) for key, p in doc["cond_probs"].items()]
    rows += [("joint", *key.split(","), None, None, p) for key, p in doc["joint"].items()]
    rows += [("entropy", name, None, None, None, value) for name, value in quantities.items()]
    text = ["p(a,b|x,y):"]
    for x, y in np.ndindex(table.shape[2:]):
        cells = "  ".join(
            f"p({a},{b})={_g6(table.probs[a, b, x, y])}" for a, b in np.ndindex(table.shape[:2])
        )
        text.append(f"  x={x} y={y}:  {cells}")
    text.append("p(a,b):")
    text += [f"  p({key}) = {_g6(p)}" for key, p in doc["joint"].items()]
    text += [f"{name} = {_g6(value)} bits" for name, value in quantities.items()]
    _emit(args.format, doc, "record,a,b,x,y,value", rows, text)
    return 0


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------


def cmd_game(args) -> int:
    started = time.perf_counter()
    ins_a, ins_b, ins_echo = _resolve_instruments(args)
    process, echo = _resolve_process(args)
    _require_valid(process.report, "process matrix")
    table = cond_probs(process, ins_a, ins_b)
    score = game_success(table)
    violated = score > CAUSAL_BOUND + 1e-9
    doc = {
        "manifest": _manifest("game", {**echo, **ins_echo}, started),
        "p_succ": score,
        "bound": CAUSAL_BOUND,
        "violation": violated,
    }
    text = [
        f"p_succ = {_g6(score)}   (causal bound {CAUSAL_BOUND})",
        "VIOLATION: exceeds the causal bound" if violated else "within the causal bound",
    ]
    _emit(args.format, doc, "p_succ,bound,violation", [(score, CAUSAL_BOUND, violated)], text)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    if args.sep_max is not None:
        if args.mode == "sep":
            raise ValueError("--sep-max applies only to optimize feix")
        if not math.isfinite(args.sep_max):
            raise ValueError(f"--sep-max must be finite, got {args.sep_max!r}")
    if args.mode == "feix" and args.trace:
        raise ValueError("--trace applies only to optimize sep")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    ins_a, ins_b, ins_echo = _resolve_instruments(args)
    inputs, in_echo = _resolve_inputs(args, ins_a, ins_b)
    # --restarts and --tol set the separable search only; feix neither checks
    # nor records them, nor the sweep cap
    sep_only = {}
    if args.mode == "sep":
        sep_only = dict(
            restarts=args.restarts, sweep_tol=args.tol, max_sweeps=OptimizerConfig.max_sweeps
        )
    cfg = OptimizerConfig(
        **sep_only,
        seed=args.seed,
        objective=args.objective,
        instrument_a=ins_a,
        instrument_b=ins_b,
        inputs=inputs,
    )
    out_dir = Path(os.environ.get("PROCMAT_OUT_DIR", "."))
    out_path = Path(args.out) if args.out else out_dir / f"optimize_{args.mode}.json"
    for path in map(Path, filter(None, (out_path, args.trace))):
        if path.is_dir():
            raise FileFormatError(f"cannot write {path}: it is a directory")
        if not os.access(path.parent, os.W_OK):
            raise FileFormatError(f"cannot write {path}: no writable directory {path.parent}")
    if args.trace and out_path.resolve() == Path(args.trace).resolve():
        raise FileFormatError(f"--trace and --out name the same file: {args.trace}")
    table = cond_probs(ocb_process(), cfg.instrument_a, cfg.instrument_b)
    reference = objective(cfg.objective, joint_dist(table, cfg.inputs))
    config_echo = {
        "mode": args.mode,
        **sep_only,
        **({"sep_max": args.sep_max} if args.mode == "feix" else {}),
        "line_tol": cfg.line_tol,
        "psd_tol": cfg.psd_tol,
        "objective": cfg.objective,
        "jobs": args.jobs,
        **ins_echo,
        **in_echo,
    }

    notes = []
    if args.mode == "sep":
        result = multistart(cfg, jobs=args.jobs)
        best_value = result.best_value
        verdict = (
            "inequality satisfied" if reference > best_value else "inequality not satisfied"
        )
        # one row per restart, its fields in ``RestartRecord`` order
        restarts = [dataclasses.asdict(r) for r in result.records]
        doc = {
            "manifest": _manifest("optimize", config_echo, started, seed=cfg.seed),
            "best_value": best_value,
            "best_restart": result.best_restart,
            "reference": {"process": "ocb", "objective": cfg.objective, "value": reference},
            "verdict": verdict,
            "best_params": result.best_params.to_flat_map(),
            "restarts": restarts,
        }
        csv_header = ",".join(restarts[0])
        csv_rows = (r.values() for r in doc["restarts"])
        trailer = [f"best_value: {best_value!r}  reference: {reference!r}  verdict: {verdict}"]
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write("restart,sweep,objective\n")
                for r, trace in enumerate(result.traces):
                    for s, value in enumerate(trace):
                        fh.write(f"{r},{s},{value!r}\n")
    else:
        params, best_value = feix_maximize(cfg)
        sep_floor = separable_floor(cfg)
        eps_inert = feix_eps_inert(cfg)
        if args.sep_max is not None:
            verdict = (
                "inequality satisfied" if best_value > args.sep_max else "inequality not satisfied"
            )
        elif params.eps <= 1e-9 or best_value <= sep_floor + 1e-12:
            verdict = "inequality not satisfied"
        else:
            verdict = "undetermined (supply --sep-max from an optimize sep run)"
        doc = {
            "manifest": _manifest("optimize", config_echo, started, seed=cfg.seed),
            "best_value": best_value,
            "best_params": {"q": params.q, "eps": params.eps},
            "reference": {"process": "ocb", "objective": cfg.objective, "value": reference},
            "separable_floor": sep_floor,
            "eps_inert": eps_inert,
            "verdict": verdict,
        }
        csv_header = "q,eps,value"
        csv_rows = [(params.q, params.eps, best_value)]
        trailer = [f"verdict: {verdict}"]
        if eps_inert:
            notes.append("note: eps is inert: ZIXZ leaves the joint distribution unchanged")

    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    text = [
        f"best {cfg.objective} over {args.mode} family = {_g6(best_value)} bits",
        f"reference {cfg.objective} (ocb process) = {_g6(reference)} bits",
        f"verdict: {verdict}",
        *notes,
        f"result written to {out_path}",
    ]
    _emit(args.format, doc, csv_header, csv_rows, text, trailer)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_process_arguments(sub):
    sub.add_argument(
        "process",
        nargs="?",
        choices=["ocb", "feix", "sep"],
        help="built-in process family",
    )
    sub.add_argument("--file", help="Pauli-coefficient JSON file for an arbitrary process")
    sub.add_argument("--q", type=float, default=0.5, help="feix mixing weight")
    sub.add_argument("--eps", type=float, default=0.0, help="feix offset")
    sub.add_argument("--params", help="separable-parameter JSON file (default: zeros)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procmat",
        description="Two-party process-matrix toolkit",
    )
    parser.add_argument("--version", action="version", version=f"procmat {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check process-matrix validity")
    _add_process_arguments(validate)
    validate.add_argument("--format", choices=["text", "json", "csv"], default="text")
    validate.set_defaults(handler=cmd_validate)

    entropy = commands.add_parser("entropy", help="outcome probabilities and entropies")
    _add_process_arguments(entropy)
    entropy.add_argument("--format", choices=["text", "json", "csv"], default="text")
    entropy.add_argument("--instruments", help="instrument JSON file with keys A and B")
    entropy.add_argument("--inputs", help="input-distribution JSON file (default uniform)")
    entropy.set_defaults(handler=cmd_entropy)

    game = commands.add_parser("game", help="guess-your-neighbour game score")
    _add_process_arguments(game)
    game.add_argument("--format", choices=["text", "json", "csv"], default="text")
    game.add_argument("--instruments", help="instrument JSON file with keys A and B")
    game.set_defaults(handler=cmd_game)

    optimize = commands.add_parser("optimize", help="maximize an entropy objective")
    optimize.add_argument("mode", choices=["sep", "feix"])
    optimize.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    optimize.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    optimize.add_argument(
        "--tol", type=float, default=OptimizerConfig.sweep_tol, help="sweep termination tolerance"
    )
    optimize.add_argument("--objective", choices=list(OBJECTIVES), default="H_AB")
    optimize.add_argument(
        "--jobs", type=int, default=1, help="parallel restart processes (at most one per restart)"
    )
    optimize.add_argument("--out", help="result JSON path (default optimize_<mode>.json)")
    optimize.add_argument("--trace", help="per-sweep objective CSV path")
    optimize.add_argument(
        "--sep-max",
        type=float,
        default=None,
        help="separable maximum to compare against in feix mode",
    )
    optimize.add_argument("--format", choices=["text", "json", "csv"], default="text")
    optimize.add_argument("--instruments", help="instrument JSON file with keys A and B")
    optimize.add_argument("--inputs", help="input-distribution JSON file (default uniform)")
    optimize.set_defaults(handler=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _ValidationFailure:
        return 1
    except InfeasibleParamsError as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
