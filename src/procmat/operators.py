"""Dense Hermitian-operator algebra over labeled tensor factors.

Operators carry an ordered tuple of subsystem labels; the matrix row/column
index is the mixed-radix encoding of the per-factor indices in label order.
The canonical four-factor order used throughout the package is
``A_I, A_O, B_I, B_O`` (party A input/output, party B input/output).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_LETTERS = "IXYZ"


class LabelError(ValueError):
    """A subsystem label is duplicated, unknown, or otherwise unusable."""


@dataclass(frozen=True)
class Subsystem:
    """A labeled tensor factor with Hilbert-space dimension ``dim``."""

    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"subsystem {self.name!r} must have dim >= 1, got {self.dim}")


A_IN = Subsystem("A_I", 2)
A_OUT = Subsystem("A_O", 2)
B_IN = Subsystem("B_I", 2)
B_OUT = Subsystem("B_O", 2)

#: Canonical factor order for two-party process matrices.
CANONICAL_LABELS = (A_IN, A_OUT, B_IN, B_OUT)


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix on an ordered tensor product of subsystems.

    Hermiticity is enforced at construction (max deviation from the conjugate
    transpose at most ``1e-12``); violations are errors, not warnings.
    Instances are immutable: the matrix buffer is copied and marked read-only,
    so values can be shared freely across threads or processes.
    """

    labels: tuple[Subsystem, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        names = [s.name for s in labels]
        if len(set(names)) != len(names):
            raise LabelError(f"duplicate subsystem labels: {names}")
        side = int(np.prod([s.dim for s in labels])) if labels else 1
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match label dims (expected {side}x{side})"
            )
        dev = np.abs(mat - mat.conj().T).max() if side else 0.0
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", mat)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.labels)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def label_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.labels)

    def _require_same_labels(self, other: "HermitianOperator"):
        if self.labels != other.labels:
            raise LabelError(
                f"label mismatch: {self.label_names()} vs {other.label_names()}"
            )

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_labels(other)
        return HermitianOperator(self.labels, self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._require_same_labels(other)
        return HermitianOperator(self.labels, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "HermitianOperator":
        value = complex(scalar)
        if value.imag != 0:
            raise ValueError("scaling by a non-real scalar breaks hermiticity")
        return HermitianOperator(self.labels, self.matrix * value.real)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(self.labels, -self.matrix)

    def allclose(self, other: "HermitianOperator", tol: float = 1e-12) -> bool:
        self._require_same_labels(other)
        return bool(np.abs(self.matrix - other.matrix).max() <= tol)


def identity(labels: Subsystem | Sequence[Subsystem]) -> HermitianOperator:
    """Identity operator on the given subsystem(s)."""
    if isinstance(labels, Subsystem):
        labels = (labels,)
    side = int(np.prod([s.dim for s in labels]))
    return HermitianOperator(tuple(labels), np.eye(side, dtype=complex))


def tensor(*factors: HermitianOperator) -> HermitianOperator:
    """Kronecker product of operators; labels are concatenated in order.

    Factor label sets must be pairwise disjoint.  The trace of the result is
    the product of the factor traces.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    labels: list[Subsystem] = []
    mat = None
    for op in factors:
        labels.extend(op.labels)
        mat = op.matrix if mat is None else np.kron(mat, op.matrix)
    return HermitianOperator(tuple(labels), mat)


def _resolve(op: HermitianOperator, over: Iterable[Subsystem | str]) -> list[int]:
    """Positions of the requested labels inside ``op.labels``."""
    names = op.label_names()
    positions = []
    for item in over:
        name = item.name if isinstance(item, Subsystem) else item
        if name not in names:
            raise LabelError(f"unknown label {name!r}; operator has {names}")
        positions.append(names.index(name))
    if len(set(positions)) != len(positions):
        raise LabelError("labels to trace over must be distinct")
    return sorted(positions)


def partial_trace(
    op: HermitianOperator, over: Iterable[Subsystem | str]
) -> HermitianOperator:
    """Trace out the given subsystems, keeping the remaining factor order.

    Tracing over all labels yields a 1x1 operator whose entry is trace(op).
    """
    positions = _resolve(op, over)
    if not positions:
        return op
    dims = op.dims
    n = len(dims)
    tensor_form = op.matrix.reshape(dims + dims)
    for removed, pos in enumerate(positions):
        ax = pos - removed
        nrem = tensor_form.ndim // 2
        tensor_form = np.trace(tensor_form, axis1=ax, axis2=ax + nrem)
    kept = [s for i, s in enumerate(op.labels) if i not in positions]
    side = int(np.prod([s.dim for s in kept])) if kept else 1
    return HermitianOperator(tuple(kept), tensor_form.reshape(side, side))


def _reorder(op: HermitianOperator, new_labels: Sequence[Subsystem]) -> HermitianOperator:
    """Permute tensor factors into ``new_labels`` order (same label set)."""
    if set(op.label_names()) != {s.name for s in new_labels}:
        raise LabelError("reordering must use the same label set")
    perm = [op.label_names().index(s.name) for s in new_labels]
    n = len(perm)
    dims = op.dims
    tensor_form = op.matrix.reshape(dims + dims)
    tensor_form = np.transpose(tensor_form, perm + [p + n for p in perm])
    side = op.side
    return HermitianOperator(tuple(new_labels), tensor_form.reshape(side, side))


def trace_replace(
    op: HermitianOperator, over: Iterable[Subsystem | str]
) -> HermitianOperator:
    """Replace the given factors by maximally mixed ones: (I_X/d_X) (x) Tr_X.

    The replaced factors are re-embedded at their original tensor positions,
    so input and output live on the same labeled space.  The map is idempotent
    and trace preserving.
    """
    positions = _resolve(op, over)
    if not positions:
        return op
    traced = [op.labels[p] for p in positions]
    rest = partial_trace(op, traced)
    pieces = [identity(s) * (1.0 / s.dim) for s in traced]
    embedded = tensor(*pieces, rest)
    return _reorder(embedded, op.labels)


def pauli_term(
    word: str, labels: Sequence[Subsystem] | None = None
) -> HermitianOperator:
    """Tensor product of single-qubit Pauli matrices named by ``word``.

    With ``labels`` omitted, a 4-letter word is placed on the canonical
    ``A_I, A_O, B_I, B_O`` factors.  All factors must have dimension 2.
    """
    word = word.upper()
    if any(ch not in PAULI_LETTERS for ch in word):
        raise ValueError(f"invalid Pauli word {word!r}: letters must be in {PAULI_LETTERS}")
    if labels is None:
        if len(word) != len(CANONICAL_LABELS):
            raise LabelError(
                f"word {word!r} has {len(word)} letters; pass explicit labels"
            )
        labels = CANONICAL_LABELS
    if _qubit_count(labels) != len(word):
        raise LabelError(f"word {word!r} does not match {len(labels)} labels")
    return HermitianOperator(tuple(labels), pauli_matrix(word))


def pauli_matrix(word: str) -> np.ndarray:
    """The 2^n x 2^n matrix of an n-letter Pauli word (letters from IXYZ):
    the Kronecker product of the letters' matrices, as a new array."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in word:
        side = 2 * mat.shape[0]
        # (M (x) P)[2i + k, 2j + l] = M[i, j] P[k, l], without np.kron's overhead
        mat = (mat[:, None, :, None] * PAULI_MATRICES[ch][None, :, None, :]).reshape(side, side)
    return mat


def pauli_coeff(op: HermitianOperator, word: str) -> float:
    """Coefficient of ``word`` in the Pauli expansion of an all-qubit operator:
    its entry of :func:`pauli_coefficients`."""
    return float(pauli_coefficients(op)[_word_index(word, len(op.labels))])


def min_eigenvalue(op: HermitianOperator) -> float:
    """Smallest eigenvalue of the operator."""
    return float(np.linalg.eigvalsh(op.matrix)[0])


@functools.cache
def all_pauli_words(n: int) -> tuple[str, ...]:
    """All 4^n Pauli words of length n, in lexicographic I<X<Y<Z order."""
    return tuple(map("".join, itertools.product(PAULI_LETTERS, repeat=n)))


def _word_index(word, n: int) -> int:
    """Position of an n-letter word (either case) in :func:`all_pauli_words`."""
    try:
        return all_pauli_words(n).index(word.upper())
    except (AttributeError, ValueError):
        raise ValueError(f"bad Pauli word {word!r}: expected {n} letters from IXYZ") from None


def _qubit_count(labels: Sequence[Subsystem]) -> int:
    for s in labels:
        if s.dim != 2:
            raise LabelError(f"Pauli words need qubit factors; {s.name} has dim {s.dim}")
    return len(labels)


#: the largest qubit count with a Pauli basis: the four canonical factors
#: (the stack holds 16^n x 16 bytes, 1 MB at n = 4 and 16 MB at n = 5)
_MAX_BASIS_QUBITS = 4


@functools.cache
def pauli_basis(n: int) -> np.ndarray:
    """The matrices of the 4^n Pauli words of n qubits, stacked in
    :func:`all_pauli_words` order: a read-only (4^n, 2^n, 2^n) array, built
    once per n (1 MB for the four canonical factors).  More than
    ``_MAX_BASIS_QUBITS`` qubits is a ValueError, raised before anything is
    built or cached."""
    if n > _MAX_BASIS_QUBITS:
        raise ValueError(
            f"Pauli basis of {n} qubits: at most {_MAX_BASIS_QUBITS} qubits are supported"
        )
    words = all_pauli_words(n)
    basis = np.empty((len(words), 2**n, 2**n), dtype=complex)
    for k, word in enumerate(words):
        basis[k] = pauli_matrix(word)
    basis.setflags(write=False)
    return basis


def pauli_coefficients(op: HermitianOperator) -> np.ndarray:
    """tr(op P) / 2^n for every word P of an all-qubit operator, in
    :func:`all_pauli_words` order; an imaginary part above 1e-10 is an error
    naming its word, one below it is roundoff and is discarded."""
    n = _qubit_count(op.labels)
    coeffs = np.einsum("ij,kji->k", op.matrix, pauli_basis(n)) / op.side
    imag = np.abs(coeffs.imag)
    if imag.max() > 1e-10:
        word = all_pauli_words(n)[int(imag.argmax())]
        raise ValueError(f"coefficient of {word!r} is not real: |Im| = {imag.max():.3e}")
    return coeffs.real


#: coefficients at or below this magnitude are trace-contraction roundoff
COEFF_DROP_TOL = 1e-13


def to_pauli_map(op: HermitianOperator) -> dict[str, float]:
    """Pauli-coefficient map of an all-qubit operator; zeros omitted.

    This is the operator exchange format: keys are words like ``"IIII"``,
    values are real coefficients, omitted words mean coefficient zero.
    Magnitudes at or below 1e-13 are treated as exact zeros (the contraction
    produces that much roundoff on entries of order one).
    """
    coeffs = pauli_coefficients(op)
    words = all_pauli_words(len(op.labels))
    return {words[k]: float(coeffs[k]) for k in np.flatnonzero(np.abs(coeffs) > COEFF_DROP_TOL)}


def from_pauli_map(
    mapping: Mapping[str, float], labels: Sequence[Subsystem] | None = None
) -> HermitianOperator:
    """Rebuild an operator from its Pauli-coefficient map: one contraction of
    the coefficient vector with :func:`pauli_basis`.

    Unknown letters, inconsistent word lengths, two keys naming the same word
    (``"ZZZI"`` and ``"zzzi"``) and non-finite coefficients are rejected with
    the offending key named.
    """
    if labels is None:
        labels = CANONICAL_LABELS
    n = _qubit_count(labels)
    basis = pauli_basis(n)  # first: too many qubits fails before any word list is cached
    coeffs = np.zeros(4**n)
    keys: dict[int, str] = {}
    for word, coeff in mapping.items():
        k = _word_index(word, n)
        if k in keys:
            raise ValueError(f"Pauli map keys {keys[k]!r} and {word!r} name the same word")
        keys[k] = word
        try:
            value = float(coeff)
        except (TypeError, ValueError):
            raise ValueError(f"bad coefficient for key {word!r}: {coeff!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"coefficient for key {word!r} must be finite, got {value}")
        coeffs[k] = value
    matrix = coeffs @ basis.reshape(4**n, -1)
    return HermitianOperator(tuple(labels), matrix.reshape(2**n, 2**n))
