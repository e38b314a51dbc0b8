"""Two-party process matrices: construction, validation, and the built-in
families (the OCB process, the 72-parameter separable family, the Feix
plane).

A process matrix W on A_I (x) A_O (x) B_I (x) B_O is valid when it is
positive semidefinite, has trace d_{A_O} d_{B_O}, and satisfies three linear
conditions expressed through the trace-and-replace map _X W:

    _{B_I B_O} W = _{A_O B_I B_O} W
    _{A_I A_O} W = _{A_I A_O B_O} W
    W = _{B_O} W + _{A_O} W - _{A_O B_O} W

These make the probability rule non-negative and normalized for all local
instruments.
The separable family and the Feix plane are built from words that satisfy
the linear conditions, so only their positivity is tested: on the 8 x 8 block
pencils and by the closed form ``feix_min_eig``.
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
    min_eigenvalue,
    pauli_matrix,
    trace_replace,
)
from .validation import VALIDITY_TOL, CheckResult, ValidityReport, require_positive_finite

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

#: The block pencil: a fixed-order block is the identity on one factor times
#: B_b(x) = I/4 + sum_{k in BLOCK_SPANS[b]} x_k BLOCK_WORDS[k] on the other
#: three, so the family is feasible where both 8 x 8 pencils are PSD.
#: ``BLOCK_SPANS`` holds each block's contiguous span of coordinate indices,
#: in ``SEP_BLOCKS`` order.
BLOCK_SPANS = tuple(
    slice(ks[0], ks[-1] + 1)
    for ks in ([k for k, c in enumerate(COORDINATES) if c.block == b] for b, _ in SEP_BLOCKS)
)
_AT = dict(SEP_BLOCKS)  # each block's identity factor
#: ``BLOCK_WORDS[k]`` is coordinate k's 8 x 8 Pauli word on the three factors
#: its block does not hold at the identity (zero for q)
BLOCK_WORDS = np.stack([np.zeros((8, 8), dtype=complex)] + [
    pauli_matrix(c.word[: _AT[c.block]] + c.word[_AT[c.block] + 1 :]) for c in COORDINATES[1:]
])
BLOCK_WORDS.setflags(write=False)
_EYE8 = np.eye(8, dtype=complex)


def block_matrix(x: np.ndarray, b: int) -> np.ndarray:
    """B_b(x), the 8 x 8 pencil of block ``b`` (an index into ``SEP_BLOCKS``)
    at the coordinate vector ``x``."""
    span = BLOCK_SPANS[b]
    return _EYE8 / 4.0 + np.tensordot(x[span], BLOCK_WORDS[span], axes=(0, 0))


def block_operator(x: np.ndarray, b: int) -> HermitianOperator:
    """The 16 x 16 block ``b`` at ``x``, the twin of :func:`block_matrix`:
    W^{A<B} (b = 0, identity on B_O, so Bob cannot signal to Alice) or
    W^{B<A} (b = 1, identity on A_O)."""
    span = BLOCK_SPANS[b]
    words = (coord.word for coord in COORDINATES[span])
    return from_pauli_map({"IIII": 0.25, **dict(zip(words, x[span].tolist()))})


def block_min_eigs(x: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of each block's pencil at ``x``, in ``SEP_BLOCKS`` order."""
    ab, ba = (float(np.linalg.eigvalsh(block_matrix(x, b))[0]) for b in range(len(SEP_BLOCKS)))
    return ab, ba


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


def sep_feasibility(p: SepParams) -> tuple[float, float]:
    """Minimum eigenvalues of the two fixed-order blocks, from their pencils."""
    return block_min_eigs(p.vector())


def require_feasible(x: np.ndarray, psd_tol: float):
    """The separable family's one feasibility rule: raise
    :class:`InfeasibleParamsError` for the first fixed-order block whose
    pencil at the coordinate vector ``x`` has its smallest eigenvalue below
    -psd_tol.  ``psd_tol`` is checked first, before any eigensolve."""
    require_positive_finite("psd_tol", psd_tol)
    for (block, _), min_eig in zip(SEP_BLOCKS, block_min_eigs(x)):
        if min_eig < -psd_tol:
            raise InfeasibleParamsError(block, min_eig)


@dataclass(frozen=True)
class SeparableTriple:
    ordered_ab: HermitianOperator
    ordered_ba: HermitianOperator
    mixture: ProcessMatrix


def separable_from_params(p: SepParams, psd_tol: float = VALIDITY_TOL) -> SeparableTriple:
    """Build W^{A<B}, W^{B<A}, and their q-mixture; reject infeasible params.

    Either block's infeasibility raises (:func:`require_feasible`), naming
    the first infeasible block and its most-negative eigenvalue, read from
    the block pencils before any 16 x 16 operator is built.  Only
    the mixture is validated.  The blocks need no report: their words keep
    the identity on the output that cannot signal, their trace is exactly 4,
    and the pencils have just shown them PSD to within ``psd_tol``.
    """
    x = p.vector()
    require_feasible(x, psd_tol)
    block_ab, block_ba = (block_operator(x, b) for b in range(len(SEP_BLOCKS)))
    mixture = p.q * block_ab + (1.0 - p.q) * block_ba
    return SeparableTriple(block_ab, block_ba, as_process(mixture))


# ---------------------------------------------------------------------------
# Feix plane: W(q, eps) = I/4 + q/12 (IXXI + IYYI + IZZI) + (1-q+eps)/4 ZIXZ
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


#: Pauli words of the Feix plane, of weights q/12 (A<B) and (1 - q + eps)/4
FEIX_WORDS_AB = ("IXXI", "IYYI", "IZZI")
FEIX_WORD_BA = "ZIXZ"


def feix_min_eig(q: float | np.ndarray, eps: float | np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of W(q, eps) at each broadcast (q, eps), in closed form.

    The Z eigenvalues of A_I and B_O split the 16 basis states into four
    sectors, each a copy of A_O x B_I.  On a sector IXXI + IYYI + IZZI =
    2 SWAP - I and ZIXZ = sigma (I x X), with sigma the product of the two Z
    eigenvalues.  X x X commutes with both and splits each sector into the
    2 x 2 blocks [[2a, b], [b, 2a]] and [[2a, b], [b, -2a]] (plus 1/4 - a on
    the diagonal), where a = q/12 and b = sigma (1 - q + eps)/4.  So the
    smallest eigenvalue is 1/4 - a + min(2a - |b|, -sqrt(4a^2 + b^2)), for
    every real q and eps.
    """
    a = q / 12.0
    b = np.abs(1.0 - q + eps) / 4.0
    return 0.25 - a + np.minimum(2.0 * a - b, -np.hypot(2.0 * a, b))


def feix_eps_max(q: float | np.ndarray, slack: float) -> np.ndarray:
    """The eps where ``feix_min_eig(q, eps) = -slack``, for q in [0, 1] and
    slack >= 0: the plane's edge at fixed q, at each q of a broadcast array.

    There a = q/12 and b = (1 - q + eps)/4 are >= 0, so the branch 2a - b is
    never below -hypot(2a, b) and the smallest eigenvalue 1/4 - a - hypot(2a, b)
    falls in eps.  It is -slack at eps = 4 sqrt((1/4 - a + slack)^2 - 4a^2) -
    (1 - q), which is >= 0: at eps = 0, (1/4 - a)^2 - 4a^2 - b^2 = q(1 - q)/12,
    so the eps = 0 edge, the separable mixture, is feasible.  The factored form
    sqrt((1 - q + 4 slack)(1 + q/3 + 4 slack)) - (1 - q) stays >= 0 in floats.
    So the plane's region with ``feix_min_eig >= -slack`` is the image of the
    unit square under (q, r) -> (q, r * feix_eps_max(q, slack)).

    An endpoint takes slack = psd_tol / 2: at the root for psd_tol = 1e-10
    the process's 16 x 16 eigensolve reads up to 2.7e-16 below -psd_tol
    (-1.0000000827e-10 at q = 0), so it would not re-check as feasible.  Where
    the edge is flat this falls short, within the tolerance band: at q = 1,
    eps = 1.63e-5 against 2.31e-5.
    """
    return np.sqrt((1.0 - q + 4.0 * slack) * (1.0 + q / 3.0 + 4.0 * slack)) - (1.0 - q)


def feix_process(p: FeixParams) -> ProcessMatrix:
    """W(q, eps), PSD exactly where :func:`feix_min_eig` is non-negative.

    The words keep the identity on an output that cannot signal, so the
    linear validity conditions hold for every (q, eps) and only positivity
    can fail; the validity report carries that status.
    """
    weights = {**dict.fromkeys(FEIX_WORDS_AB, p.q / 12.0), FEIX_WORD_BA: (1.0 - p.q + p.eps) / 4.0}
    return as_process(from_pauli_map({"IIII": 0.25, **weights}))
