"""Two-party process matrices: construction, validation, and the built-in
families (the OCB process, the 72-parameter separable family, the Feix
family).

A process matrix W on A_I (x) A_O (x) B_I (x) B_O is valid when it is
positive semidefinite, has trace d_{A_O} d_{B_O}, and satisfies three linear
conditions expressed through the trace-and-replace map _X W:

    _{B_I B_O} W = _{A_O B_I B_O} W
    _{A_I A_O} W = _{A_I A_O B_O} W
    W = _{B_O} W + _{A_O} W - _{A_O B_O} W

These make the probability rule non-negative and normalized for all local
instruments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .operators import (
    A_OUT,
    B_OUT,
    CANONICAL_LABELS,
    HermitianOperator,
    from_pauli_map,
    identity,
    min_eigenvalue,
    trace_replace,
)
from .validation import VALIDITY_TOL, CheckResult, ValidityReport

#: axis letters for the separable-family coefficient tables
AXIS_FULL = "0xyz"
AXIS_SPATIAL = "xyz"


class InfeasibleParamsError(ValueError):
    """Separable parameters whose fixed-order block is not PSD."""

    def __init__(self, block: str, min_eig: float):
        self.block = block
        self.min_eig = min_eig
        super().__init__(
            f"block {block} is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so the error crosses a
        # process-pool boundary intact
        return type(self), (self.block, self.min_eig)


@dataclass(frozen=True)
class ProcessMatrix:
    """A Hermitian operator on the canonical four factors plus its validity report."""

    op: HermitianOperator
    report: ValidityReport

    @property
    def valid(self) -> bool:
        return self.report.valid

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix


def _require_canonical(op: HermitianOperator):
    if op.label_names() != tuple(s.name for s in CANONICAL_LABELS):
        raise ValueError(
            f"process matrices live on A_I,A_O,B_I,B_O; got {op.label_names()}"
        )


def validate_process(op: HermitianOperator) -> ValidityReport:
    """Run the five validity checks and report residuals, judged at ``VALIDITY_TOL``.

    Equality residuals are max-abs deviations; the positivity residual is the
    most-negative eigenvalue with its sign flipped.
    """
    _require_canonical(op)
    tol = VALIDITY_TOL
    d_out = A_OUT.dim * B_OUT.dim
    checks = [
        CheckResult("positive semidefinite", -min_eigenvalue(op), tol),
        CheckResult("trace equals d_AO*d_BO", abs(op.trace - d_out), tol),
    ]

    def deviation(left: HermitianOperator, right: HermitianOperator) -> float:
        return float(np.abs(left.matrix - right.matrix).max())

    checks.append(
        CheckResult(
            "B-side marginal ignores A_O",
            deviation(trace_replace(op, ["B_I", "B_O"]), trace_replace(op, ["A_O", "B_I", "B_O"])),
            tol,
        )
    )
    checks.append(
        CheckResult(
            "A-side marginal ignores B_O",
            deviation(trace_replace(op, ["A_I", "A_O"]), trace_replace(op, ["A_I", "A_O", "B_O"])),
            tol,
        )
    )
    recombined = (
        trace_replace(op, ["B_O"]) + trace_replace(op, ["A_O"]) - trace_replace(op, ["A_O", "B_O"])
    )
    checks.append(CheckResult("no joint output-output terms", deviation(op, recombined), tol))
    return ValidityReport(tuple(checks))


def as_process(op: HermitianOperator) -> ProcessMatrix:
    """Wrap an operator with its validity report (invalid ones are not rejected)."""
    return ProcessMatrix(op, validate_process(op))


def nonsignalling_part(op: HermitianOperator) -> HermitianOperator:
    """The component of W insensitive to what either party sends out: _{A_O B_O} W."""
    _require_canonical(op)
    return trace_replace(op, ["A_O", "B_O"])


def maximally_mixed() -> ProcessMatrix:
    """The process with trivial correlations, I/4 on the canonical factors."""
    return as_process(from_pauli_map({"IIII": 0.25}))


def ocb_process() -> ProcessMatrix:
    """The nonseparable process violating the guess-your-neighbour bound.

    W = (I + (ZZZI + ZIXX)/sqrt(2)) / 4.
    """
    coupling = 0.25 / math.sqrt(2)
    return as_process(from_pauli_map({"IIII": 0.25, "ZZZI": coupling, "ZIXX": coupling}))


# ---------------------------------------------------------------------------
# Separable family: W_sep = q W^{A<B} + (1-q) W^{B<A}
# ---------------------------------------------------------------------------


class Coordinate(NamedTuple):
    """One coordinate of the separable family's parameter vector."""

    name: str  # flat-map key: q, c_<alpha><i><j> or cp_<i><alpha><j>
    block: str | None  # "A<B" or "B<A"; None for the mixing weight q
    word: str | None  # Pauli word on A_I, A_O, B_I, B_O; None for q


#: The separable family's fixed-order blocks, in coefficient order, each with
#: the position in A_I, A_O, B_I, B_O of the factor it holds at the identity:
#: B_O for A<B (Bob cannot signal to Alice), A_O for B<A.
SEP_BLOCKS = (("A<B", CANONICAL_LABELS.index(B_OUT)), ("B<A", CANONICAL_LABELS.index(A_OUT)))


def _coordinate_table() -> tuple[Coordinate, ...]:
    # a coefficient's word is its index letters with I put in at its block's
    # identity factor
    pauli = str.maketrans(AXIS_FULL, "IXYZ")

    def word(letters: str, at: int) -> str:
        return (letters[:at] + "0" + letters[at:]).translate(pauli)

    (ab_name, ab_at), (ba_name, ba_at) = SEP_BLOCKS
    ab = [
        Coordinate(f"c_{a}{i}{j}", ab_name, word(f"{a}{i}{j}", ab_at))
        for a in AXIS_FULL for i in AXIS_SPATIAL for j in AXIS_SPATIAL
    ]
    ba = [
        Coordinate(f"cp_{i}{a}{j}", ba_name, word(f"{i}{a}{j}", ba_at))
        for i in AXIS_SPATIAL for a in AXIS_FULL for j in AXIS_SPATIAL
    ]
    return (Coordinate("q", None, None), *ab, *ba)


#: The 73 coordinates of the separable family, in search order: q, then the
#: 36 coefficients of c in (alpha, i, j) order, then the 36 of c_prime in
#: (i, alpha, j) order.  Flat maps, coordinate indices, Pauli words and word
#: stacks are all read off this table.
COORDINATES = _coordinate_table()
_COORD_INDEX = {coord.name: k for k, coord in enumerate(COORDINATES)}

#: 4-letter Pauli words of the A<B block, in c-array (alpha, i, j) order.
SEP_WORDS_AB = tuple(coord.word for coord in COORDINATES if coord.block == "A<B")
#: 4-letter Pauli words of the B<A block, in c_prime-array (i, alpha, j) order.
SEP_WORDS_BA = tuple(coord.word for coord in COORDINATES if coord.block == "B<A")


@dataclass(frozen=True)
class SepParams:
    """Mixing weight q plus the 72 coefficients of the two fixed-order blocks.

    ``c[alpha, i, j]`` multiplies sigma_alpha^{A_I} sigma_i^{A_O} sigma_j^{B_I} I^{B_O}
    with alpha over (0, x, y, z) and i, j over (x, y, z); ``c_prime[i, alpha, j]``
    multiplies sigma_i^{A_I} I^{A_O} sigma_alpha^{B_I} sigma_j^{B_O}.
    """

    q: float
    c: np.ndarray
    c_prime: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        c = np.array(self.c, dtype=float)
        cp = np.array(self.c_prime, dtype=float)
        if c.shape != (4, 3, 3):
            raise ValueError(f"c must have shape (4, 3, 3), got {c.shape}")
        if cp.shape != (3, 4, 3):
            raise ValueError(f"c_prime must have shape (3, 4, 3), got {cp.shape}")
        for name, values in (("c", c), ("c_prime", cp)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
        c.setflags(write=False)
        cp.setflags(write=False)
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_prime", cp)

    @classmethod
    def zeros(cls, q: float = 0.5) -> "SepParams":
        return cls(q, np.zeros((4, 3, 3)), np.zeros((3, 4, 3)))

    def vector(self) -> np.ndarray:
        """The 73 coordinates, indexed as ``COORDINATES``: q, then ``c`` and
        ``c_prime`` raveled, each block one contiguous span."""
        return np.concatenate(([self.q], self.c.ravel(), self.c_prime.ravel()))

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "SepParams":
        """Inverse of :func:`vector`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(COORDINATES),):
            raise ValueError(f"expected {len(COORDINATES)} coordinates, got shape {x.shape}")
        c, c_prime = np.split(x[1:], 2)
        return cls(x[0], c.reshape(4, 3, 3), c_prime.reshape(3, 4, 3))

    def to_flat_map(self) -> dict[str, float]:
        """Flat keyed form: q plus keys like ``c_0xz`` and ``cp_x0y``."""
        return {coord.name: value for coord, value in zip(COORDINATES, self.vector().tolist())}

    @classmethod
    def from_flat_map(cls, data: Mapping[str, float]) -> "SepParams":
        """Inverse of :func:`to_flat_map`; missing coefficients default to
        zero and a missing q to 1/2."""
        values = np.zeros(len(COORDINATES))
        values[0] = 0.5
        for key, raw in data.items():
            try:
                value = float(raw)
            except (TypeError, ValueError):
                raise ValueError(f"bad value for key {key!r}: {raw!r}") from None
            if key not in _COORD_INDEX:
                raise ValueError(f"bad parameter key {key!r}")
            values[_COORD_INDEX[key]] = value
        return cls.from_vector(values)


def _block_operator(words: tuple[str, ...], coeffs: np.ndarray) -> HermitianOperator:
    return from_pauli_map({"IIII": 0.25, **dict(zip(words, coeffs.ravel().tolist()))})


def ordered_block_ab(p: SepParams) -> HermitianOperator:
    """W^{A<B}: identity on B_O, so Bob cannot signal to Alice."""
    return _block_operator(SEP_WORDS_AB, p.c)


def ordered_block_ba(p: SepParams) -> HermitianOperator:
    """W^{B<A}: identity on A_O, so Alice cannot signal to Bob."""
    return _block_operator(SEP_WORDS_BA, p.c_prime)


def sep_feasibility(p: SepParams) -> tuple[float, float]:
    """Minimum eigenvalues of the two fixed-order blocks."""
    return (
        min_eigenvalue(ordered_block_ab(p)),
        min_eigenvalue(ordered_block_ba(p)),
    )


def _require_feasible(min_eig_ab: float, min_eig_ba: float, psd_tol: float):
    """Raise :class:`InfeasibleParamsError` for the first fixed-order block
    whose smallest eigenvalue is below -psd_tol."""
    for block, min_eig in (("A<B", min_eig_ab), ("B<A", min_eig_ba)):
        if min_eig < -psd_tol:
            raise InfeasibleParamsError(block, min_eig)


@dataclass(frozen=True)
class SeparableTriple:
    ordered_ab: ProcessMatrix
    ordered_ba: ProcessMatrix
    mixture: ProcessMatrix


def separable_from_params(p: SepParams, psd_tol: float = VALIDITY_TOL) -> SeparableTriple:
    """Build W^{A<B}, W^{B<A}, and their q-mixture; reject infeasible params.

    Rejection names the offending block and its most-negative eigenvalue.
    """
    block_ab = ordered_block_ab(p)
    block_ba = ordered_block_ba(p)
    _require_feasible(min_eigenvalue(block_ab), min_eigenvalue(block_ba), psd_tol)
    mixture = p.q * block_ab + (1.0 - p.q) * block_ba
    return SeparableTriple(as_process(block_ab), as_process(block_ba), as_process(mixture))


# ---------------------------------------------------------------------------
# Feix family: W = q W^{A<B} + (1-q+eps) W^{B<A} - eps I/4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeixParams:
    """Mixing weight q in [0, 1] and the nonseparability offset eps >= 0."""

    q: float
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


#: Pauli words of the Feix blocks: the A<B block couples A_O to B_I
FEIX_WORDS_AB = ("IXXI", "IYYI", "IZZI")
FEIX_WORD_BA = "ZIXZ"


def feix_block_ab() -> HermitianOperator:
    """(I + (XX + YY + ZZ on A_O,B_I)/3) / 4: a channel-like A<B process."""
    return from_pauli_map({"IIII": 0.25, **dict.fromkeys(FEIX_WORDS_AB, 0.25 / 3)})


def feix_block_ba() -> HermitianOperator:
    """(I + ZIXZ) / 4: a B<A process."""
    return from_pauli_map({"IIII": 0.25, FEIX_WORD_BA: 0.25})


def feix_process(p: FeixParams) -> ProcessMatrix:
    """The affine Feix combination; PSD exactly when the parameters allow it.

    The linear validity conditions hold identically (the combination is
    affine with unit coefficient sum over operators that satisfy them), so
    only positivity can fail; the validity report carries that status.
    """
    op = (
        p.q * feix_block_ab()
        + (1.0 - p.q + p.eps) * feix_block_ba()
        - p.eps * (identity(CANONICAL_LABELS) * 0.25)
    )
    return as_process(op)
