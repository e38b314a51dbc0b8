"""Outcome statistics: the process-matrix probability rule, Shannon
entropies of the output distribution, and the guess-your-neighbour game
score.

Probabilities are p(a,b|x,y) = Tr[(M_{a|x} (x) M_{b|y}) W], evaluated once,
by :func:`cond_probs` from the parties' :func:`party_table` arrays; the joint
output distribution folds in an input distribution p(x,y) (uniform by
default), and all entropies are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Instrument
from .operators import HermitianOperator, pauli_coefficients
from .process import ProcessMatrix

NEGATIVITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
ZERO_PROB = 1e-15


@dataclass(frozen=True)
class CondProbTable:
    """Conditional outcome probabilities indexed (a, b, x, y).

    Entries in [-1e-12, 0) are clamped to zero (eigensolver/trace roundoff);
    anything more negative, a per-(x,y) sum off unity by more than 1e-10, or
    a non-finite entry signals an invalid process or instrument and is
    rejected.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 4:
            raise ValueError(f"table must be indexed (a, b, x, y); got shape {probs.shape}")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        low = probs.min()
        if low < -NEGATIVITY_TOL:
            raise ValueError(f"probability {low:.3e} below -{NEGATIVITY_TOL}: invalid inputs")
        probs = np.maximum(probs, 0.0)
        sums = probs.sum(axis=(0, 1))
        worst = np.abs(sums - 1.0).max()
        if worst > NORMALIZATION_TOL:
            raise ValueError(f"conditional sums deviate from 1 by {worst:.3e}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.probs.shape


@dataclass(frozen=True)
class InputDist:
    """Distribution p(x, y) over the classical inputs."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError(f"input distribution must be indexed (x, y); got {probs.shape}")
        if not np.isfinite(probs).all():
            raise ValueError("input probabilities must be finite")
        if probs.min() < 0.0:
            raise ValueError("input probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"input probabilities sum to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_x: int = 2, n_y: int = 2) -> "InputDist":
        return cls(np.full((n_x, n_y), 1.0 / (n_x * n_y)))


@dataclass(frozen=True)
class EntropyReport:
    """Shannon quantities (bits) of a joint output distribution."""

    h_ab: float
    h_a: float
    h_b: float
    h_a_given_b: float
    i_ab: float


def _as_operator(process: ProcessMatrix | HermitianOperator) -> HermitianOperator:
    return process.op if isinstance(process, ProcessMatrix) else process


def party_table(ins: Instrument) -> np.ndarray:
    """t[m, n, a, x] = Tr[M_{a|x} (sigma_m (x) sigma_n)], the Pauli
    coefficients of each operator times its side.  Row a is the a-th of the
    sorted outcomes of all inputs, so an outcome that input x lacks is a zero
    row, and an omitted zero operator changes nothing."""
    xs = ins.inputs
    outcomes = sorted({a for _, a in ins.operators})
    table = np.zeros((4, 4, len(outcomes), len(xs)))
    for (x, a), op in ins.operators.items():
        coeffs = pauli_coefficients(op) * op.side
        table[:, :, outcomes.index(a), xs.index(x)] = coeffs.reshape(4, 4)
    return table


def cond_probs(
    process: ProcessMatrix | HermitianOperator,
    instrument_a: Instrument,
    instrument_b: Instrument,
) -> CondProbTable:
    """Evaluate p(a,b|x,y) for every input/outcome combination: the package's
    one probability rule.  With W's Pauli coefficients w[m, n, p, q], the
    trace factorizes per party: p = sum w t_A[m, n, a, x] t_B[p, q, b, y] over
    the two :func:`party_table` arrays, which the optimizer reads too.  The
    instruments must live on the A and B factor pairs of the all-qubit process.
    """
    w = _as_operator(process)
    names = w.label_names()
    expected = instrument_a.labels + instrument_b.labels
    if names != tuple(s.name for s in expected):
        raise ValueError(
            f"process factors {names} do not match instruments "
            f"{tuple(s.name for s in expected)}"
        )
    coeffs = pauli_coefficients(w).reshape(4, 4, 4, 4)
    table = np.einsum(
        "mnpq,mnax,pqby->abxy", coeffs, party_table(instrument_a), party_table(instrument_b)
    )
    return CondProbTable(table)


def joint_dist(table: CondProbTable, inputs: InputDist | None = None) -> np.ndarray:
    """Joint output distribution p(a,b) = sum_{x,y} p(x,y) p(a,b|x,y)."""
    n_a, n_b, n_x, n_y = table.shape
    if inputs is None:
        inputs = InputDist.uniform(n_x, n_y)
    if inputs.probs.shape != (n_x, n_y):
        raise ValueError(
            f"input distribution shape {inputs.probs.shape} does not match table {(n_x, n_y)}"
        )
    joint = np.einsum("abxy,xy->ab", table.probs, inputs.probs)
    total = joint.sum()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # a NaN total fails too
        raise ValueError(f"joint distribution sums to {float(total)!r}")
    return joint


def _entropy(p: np.ndarray, axes: int) -> np.ndarray:
    """Entropy in bits of each distribution held in the last ``axes`` axes of
    ``p`` (one value per leading index; a 0-d array for a single one).

    Entries not above 1e-15 are replaced by 1, whose term 1 log 1 is exactly
    +0.0, so they drop out of the sum without changing it.
    """
    p = p.reshape(p.shape[: p.ndim - axes] + (-1,)).copy()
    p[~(p > ZERO_PROB)] = 1.0
    return -np.add.reduce(p * np.log2(p), axis=-1)


#: each Shannon quantity of a nonnegative joint distribution, or of a stack of
#: them indexed (..., a, b), computing only the entropies it needs; the keys
#: are the objective names, in the field order of ``EntropyReport``
_QUANTITIES = {
    "H_AB": lambda joint: _entropy(joint, 2),
    "H_A": lambda joint: _entropy(joint.sum(axis=-1), 1),
    "H_B": lambda joint: _entropy(joint.sum(axis=-2), 1),
    "H_A_given_B": lambda joint: _entropy(joint, 2) - _entropy(joint.sum(axis=-2), 1),
    "I_AB": lambda joint: (
        _entropy(joint.sum(axis=-1), 1) + _entropy(joint.sum(axis=-2), 1) - _entropy(joint, 2)
    ),
}
#: the quantities concave in the joint distribution (conditional entropy
#: included); mutual information is not
_CONCAVE_OBJECTIVES = frozenset({"H_AB", "H_A", "H_B", "H_A_given_B"})
OBJECTIVES = tuple(_QUANTITIES)


def objective(name: str, joint: np.ndarray) -> float | np.ndarray:
    """The named Shannon quantity (one of ``OBJECTIVES``) of a joint (a, b)
    distribution, in bits; of a stack of joints indexed (..., a, b), the
    array of the per-joint values, each equal bitwise to the value of its
    joint alone.

    Negative entries (roundoff of an affine map to the joint) are clamped to
    zero first.
    """
    value = _QUANTITIES[name](np.maximum(joint, 0.0))
    return float(value) if value.ndim == 0 else value


def entropies(joint: np.ndarray) -> EntropyReport:
    """All five Shannon quantities of a joint (a, b) distribution, in bits:
    the values of :func:`objective` in ``OBJECTIVES`` order.

    Uses the convention 0 log 0 = 0; entries below 1e-15 count as exact zeros,
    and negative entries are clamped to zero first, as in :func:`objective`.
    """
    joint = np.asarray(joint, dtype=float)
    return EntropyReport(*(objective(name, joint) for name in OBJECTIVES))


def game_success(table: CondProbTable) -> float:
    """Guess-your-neighbour success rate (1/4) sum_{x,y} p(a=y, b=x | x, y).

    Requires binary inputs and outputs; causally separable processes are
    bounded by 1/2.
    """
    if table.shape != (2, 2, 2, 2):
        raise ValueError(f"game needs binary alphabets; table shape {table.shape}")
    p = table.probs
    return float(sum(p[y, x, x, y] for x in range(2) for y in range(2)) / 4.0)

