"""Choi representations of the parties' local operations.

An instrument is, for each classical input x, a family {M_{a|x}} of Choi
operators on the party's input/output pair: every M_{a|x} is positive
semidefinite and, summed over outcomes, the partial trace over the output
factor gives the identity on the input factor (trace preservation).

The Choi convention is M = [I (x) M(|phi+><phi+|)]^T with the unnormalized
pair state |phi+> = sum_i |ii> and the transpose taken in the computational
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .operators import (
    A_IN,
    A_OUT,
    B_IN,
    B_OUT,
    HermitianOperator,
    Subsystem,
    from_pauli_map,
    min_eigenvalue,
    partial_trace,
    to_pauli_map,
)
from .validation import VALIDITY_TOL, CheckResult, ValidityReport

PARTY_LABELS: dict[str, tuple[Subsystem, Subsystem]] = {
    "A": (A_IN, A_OUT),
    "B": (B_IN, B_OUT),
}


@dataclass(frozen=True)
class Instrument:
    """The per-input families of Choi operators of one party's operations.

    ``operators`` maps (x, a) to the Choi operator of the operation performed
    on input x yielding outcome a.  Alphabets are arbitrary finite sets of
    ints; the shipped builders use bits.
    """

    party: str
    operators: Mapping[tuple[int, int], HermitianOperator]

    def __post_init__(self):
        if self.party not in PARTY_LABELS:
            raise ValueError(f"party must be one of {sorted(PARTY_LABELS)}, got {self.party!r}")
        ops = dict(self.operators)
        if not ops:
            raise ValueError("instrument needs at least one operator")
        labels = PARTY_LABELS[self.party]
        for key, op in ops.items():
            if op.labels != labels:
                raise ValueError(
                    f"operator {key} lives on {op.label_names()}, expected "
                    f"{tuple(s.name for s in labels)}"
                )
        object.__setattr__(self, "operators", ops)

    @property
    def labels(self) -> tuple[Subsystem, Subsystem]:
        return PARTY_LABELS[self.party]

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(sorted({x for x, _ in self.operators}))

    def outcomes(self, x: int) -> tuple[int, ...]:
        return tuple(sorted({a for xx, a in self.operators if xx == x}))


def choi_identity(d: int = 2, labels: Sequence[Subsystem] | None = None) -> HermitianOperator:
    """Choi operator of the identity channel: |phi+><phi+| with |phi+> = sum |ii>.

    Rank one, trace d, and trace-preserving (partial trace over the output
    factor is the identity on the input factor).
    """
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    if labels is None:
        labels = (Subsystem("in", d), Subsystem("out", d))
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0
    return HermitianOperator(tuple(labels), np.outer(vec, vec.conj()))


def kraus_to_choi(
    kraus: Sequence[np.ndarray], labels: Sequence[Subsystem]
) -> HermitianOperator:
    """Choi operator of the map rho -> sum_k K rho K^dag.

    General plumbing for user-defined strategies; Kraus operators map the
    input space (dim of labels[0]) to the output space (dim of labels[1]).
    """
    d_in, d_out = labels[0].dim, labels[1].dim
    vec = np.zeros(d_in * d_in, dtype=complex)
    vec[:: d_in + 1] = 1.0
    pair = np.outer(vec, vec.conj())
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (d_out, d_in):
            raise ValueError(f"Kraus operator shape {k.shape}, expected {(d_out, d_in)}")
        lifted = np.kron(np.eye(d_in, dtype=complex), k)
        choi += lifted @ pair @ lifted.conj().T
    return HermitianOperator(tuple(labels), choi.T)


#: :func:`gyni_strategy` in the instrument file format: |phi+><phi+| is
#: (II + XX - YY + ZZ)/2, and |a><a| (x) |0><0| is (I +- Z)/2 (x) (I + Z)/2.
_GYNI_MAPS = {
    "0,0": {},
    "0,1": {"II": 0.5, "XX": 0.5, "YY": -0.5, "ZZ": 0.5},
    "1,0": {"II": 0.25, "IZ": 0.25, "ZI": 0.25, "ZZ": 0.25},
    "1,1": {"II": 0.25, "IZ": 0.25, "ZI": -0.25, "ZZ": -0.25},
}


def gyni_strategy(party: str) -> Instrument:
    """The guess-your-neighbour's-input strategy, identical for both parties.

    On input 0 the party forwards its incoming state through the identity
    channel and outputs 1; on input 1 it measures in the z basis, reports the
    result, and sends out the fixed state |0><0|.
    """
    return instrument_from_pauli_maps(_GYNI_MAPS, party)


def validate_instrument(ins: Instrument) -> ValidityReport:
    """Check positivity of every operator and trace preservation per input,
    both against ``VALIDITY_TOL``.

    Invalid instruments yield failing reports, not exceptions.  Residuals are
    the most-negative eigenvalue (sign flipped) and the max deviation of the
    output-traced sum from the identity.
    """
    checks = []
    out_label = ins.labels[1]
    for x in ins.inputs:
        total = None
        for a in ins.outcomes(x):
            op = ins.operators[(x, a)]
            checks.append(
                CheckResult(f"M[a={a}|x={x}] >= 0", -min_eigenvalue(op), VALIDITY_TOL)
            )
            total = op if total is None else total + op
        reduced = partial_trace(total, [out_label])
        dev = np.abs(reduced.matrix - np.eye(reduced.side)).max()
        checks.append(CheckResult(f"sum_a M[a|x={x}] trace-preserving", float(dev), VALIDITY_TOL))
    return ValidityReport(tuple(checks))


def instrument_to_pauli_maps(ins: Instrument) -> dict[str, dict[str, float]]:
    """Serialize as a map "x,a" -> Pauli-coefficient map (2-letter words)."""
    return {f"{x},{a}": to_pauli_map(op) for (x, a), op in sorted(ins.operators.items())}


def instrument_from_pauli_maps(
    data: Mapping[str, Mapping[str, float]], party: str
) -> Instrument:
    """Inverse of :func:`instrument_to_pauli_maps`."""
    if party not in PARTY_LABELS:
        raise ValueError(f"party must be one of {sorted(PARTY_LABELS)}, got {party!r}")
    labels = PARTY_LABELS[party]
    if not isinstance(data, Mapping):
        raise ValueError(f"party {party}: expected an object of 'x,a' entries, got {data!r}")
    ops, keys = {}, {}
    for key, pmap in data.items():
        try:
            x_str, a_str = str(key).split(",")
            x, a = int(x_str), int(a_str)
        except ValueError:
            raise ValueError(f"bad instrument key {key!r}: expected 'x,a'") from None
        if (x, a) in keys:
            raise ValueError(f"instrument keys {keys[x, a]!r} and {key!r} name the same (x, a)")
        keys[x, a] = key
        if not isinstance(pmap, Mapping):
            raise ValueError(f"instrument entry {key!r}: expected a Pauli map, got {pmap!r}")
        ops[(x, a)] = from_pauli_map(pmap, labels)
    return Instrument(party, ops)
