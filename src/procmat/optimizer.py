"""Random-restart coordinate ascent over the causally separable family, and
grid-plus-refinement maximization over the two-parameter Feix family.

The search space is the mixing weight q plus the 72 block coefficients; the
objective is a Shannon quantity of the joint output distribution under fixed
instruments and input distribution.  Because the distribution is affine in
every coordinate, entropy objectives are concave along coordinate lines, and
the set of feasible values of one coordinate (both fixed-order blocks PSD) is
a closed interval: a line step is an exact one-dimensional concave
maximization over an interval.  Each block is I/4 plus a real combination of
Pauli words P (P^2 = I, trace 0), so along a coordinate line the block is the
pencil A + sP, and the interval's endpoints are eigenvalues of one 8 x 8
Hermitian matrix (see :func:`_line_interval`): no search is involved.

Coordinate lines along which the distribution is exactly constant cannot be
ranked by the objective.  They are read off the affine joint map (a zero
increment row, or a block of weight 0).  Before the ascent proper, such
coordinates are moved to the point maximizing the block's smallest
eigenvalue, so unranked directions do not consume feasibility slack that the
ranked ones need.  That eigenvalue is concave along the line, and one eigh
gives its first and second derivatives (v0^dagger P v0 and the second-order
perturbation sum), so a bracketed Newton search, with the tangents' meeting
point at kinks, finds the maximum in a few eigensolves (see
:func:`_slack_max`).  Each block is built and solved once per centering run;
its matrix and eigh are then carried from line to line (an accepted move
hands on the probe A + sP that found it), so a line solves only at its probes
away from s = 0, about 3.5 per line.  Every point whose smallest eigenvalue
exceeds that of the feasible incumbent is feasible, so centering needs no
interval.  Both in centering and in the ascent a coordinate moves only on
strict improvement.  The ascent's line objective is evaluated on the affine
joint, j0 + (t - t0) d, with no parameter update per evaluation.

Restarts are independent: restart i draws its start from a generator seeded
with seed + i, so results are reproducible and independent of execution
order.  The generator is numpy's default PCG64.

The Feix plane is I/4 + q M_sym + (1 - q + eps) M_ba, and its smallest
eigenvalue has a closed form (derived in ``_FeixEngine``): every feasibility
test on the plane (grid, eps bound, q interval) is a few flops, with no
eigensolve.  The 101 x 101 grid is one vectorized evaluation of that formula
and one ``stats.objective`` call on the stacked joints of its feasible points.

A coordinate's one address is its index k in ``process.COORDINATES`` (q, then
the 36 + 36 block coefficients): the search point ``SepParams.vector``, the
word stack ``_WORDS`` and the joint increments ``_Engine.rows`` are indexed
by k.  The objectives are ``stats.objective``; the joint maps are built from
``stats.party_table``, the tables of the one probability rule ``cond_probs``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .instruments import Instrument, gyni_strategy
from .operators import PAULI_LETTERS, pauli_matrix
from .process import (
    COORDINATES,
    FEIX_WORD_BA,
    FEIX_WORDS_AB,
    SEP_BLOCKS,
    FeixParams,
    InfeasibleParamsError,
    SepParams,
    _require_feasible,
)
from .stats import _CONCAVE_OBJECTIVES, OBJECTIVES, InputDist, objective, party_table
from .validation import VALIDITY_TOL

GENERATOR_NAME = "numpy PCG64 (default_rng)"

DEFAULT_SEED = 200

N_COORDS = len(COORDINATES)

#: interval endpoints put the block's smallest eigenvalue at this fraction
#: of -psd_tol: strictly inside the tolerance, so an endpoint still reads as
#: feasible after roundoff
_ENDPOINT_SLACK = 0.5

_INIT_SCALE = 0.05
#: the centering search does not probe a final Newton step whose predicted
#: gain in the smallest eigenvalue is below this (eigh resolves it to about
#: 1e-16 on these blocks)
_SLACK_RESOLUTION = 1e-14
#: a bound on eigh calls per centering line (s = 0 is read from the carried
#: decomposition); measured searches take 1-9, 3.5 on average
_SLACK_MAX_PROBES = 100
#: a bound on centering passes over the flat coordinates; a restart that
#: reaches it records the stop reason ``pass_cap``
_CENTERING_MAX_PASSES = 50
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def coord_name(coord: int) -> str:
    """Human name of a coordinate: ``q``, ``c_0xy``, ``cp_z0x``, ..."""
    if not 0 <= coord < N_COORDS:
        raise ValueError(f"coordinate index out of range: {coord}")
    return COORDINATES[coord].name


#: the two fixed-order blocks, in the order of ``_State.coeffs``, and the
#: contiguous span of coordinate indices that holds each block's coefficients
_BLOCKS = tuple(name for name, _ in SEP_BLOCKS)
_SPANS = tuple(
    slice(ks[0], ks[-1] + 1)
    for ks in ([k for k, coord in enumerate(COORDINATES) if coord.block == b] for b in _BLOCKS)
)


def _block_of(coord: int) -> int:
    """Index into ``_BLOCKS`` of a block coordinate."""
    return _BLOCKS.index(COORDINATES[coord].block)


_AT = dict(SEP_BLOCKS)  # each block's identity factor
#: ``_WORDS[k]`` is coordinate k's 8 x 8 Pauli word on the three factors its
#: block does not hold at the identity (zero for q); ``_BLOCK_WORDS`` holds
#: each block's span of it
_WORDS = np.stack([np.zeros((8, 8), dtype=complex)] + [
    pauli_matrix(c.word[: _AT[c.block]] + c.word[_AT[c.block] + 1 :]) for c in COORDINATES[1:]
])
_BLOCK_WORDS = tuple(_WORDS[span] for span in _SPANS)
_EYE8 = np.eye(8, dtype=complex)


def _block_matrix(coeffs: np.ndarray, words: np.ndarray) -> np.ndarray:
    return _EYE8 / 4.0 + np.tensordot(coeffs, words, axes=(0, 0))


def _min_eig(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


@dataclass(frozen=True)
class OptimizerConfig:
    """Free constants of the search procedure.

    ``coords`` restricts the search to a subset of coordinate indices
    (0 is q, 1-36 the first block's coefficients in lexicographic order,
    37-72 the second block's); ``None`` searches all 73.  With restricted
    coordinates, ``base_params`` fixes the inactive ones (default zeros with
    q = 1/2) and restarts randomize only the active coordinates.
    """

    restarts: int = 100
    sweep_tol: float = 1e-6
    max_sweeps: int = 500
    line_tol: float = 1e-7
    psd_tol: float = VALIDITY_TOL
    seed: int = DEFAULT_SEED
    objective: str = "H_AB"
    instrument_a: Instrument = field(default_factory=lambda: gyni_strategy("A"))
    instrument_b: Instrument = field(default_factory=lambda: gyni_strategy("B"))
    inputs: InputDist = field(default_factory=InputDist.uniform)
    coords: tuple[int, ...] | None = None
    base_params: SepParams | None = None
    record_trace: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        for name in ("sweep_tol", "line_tol", "psd_tol"):
            value = getattr(self, name)
            # NaN fails every comparison, so `value <= 0` alone would let it through
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.coords is not None:
            coords = tuple(sorted(set(int(k) for k in self.coords)))
            if not coords or coords[0] < 0 or coords[-1] >= N_COORDS:
                raise ValueError(f"coords must be a nonempty subset of 0..{N_COORDS - 1}")
            object.__setattr__(self, "coords", coords)

    def active_coords(self) -> tuple[int, ...]:
        return self.coords if self.coords is not None else tuple(range(N_COORDS))


@dataclass(frozen=True)
class RestartRecord:
    """One restart: its value and ascent sweeps, the final smallest
    eigenvalue of each block, how centering ended (``centering_stop`` is
    ``converged`` or ``pass_cap``) and how the ascent ended (``ascent_stop``
    is ``converged`` or ``max_sweeps``)."""

    restart: int
    seed: int
    value: float
    sweeps: int
    min_eig_ab: float
    min_eig_ba: float
    centering_passes: int
    centering_stop: str
    ascent_stop: str


@dataclass(frozen=True)
class OptimizerResult:
    best_params: SepParams
    best_value: float
    best_restart: int
    records: tuple[RestartRecord, ...]
    traces: tuple[tuple[float, ...], ...] | None = None


class _Engine:
    """Precomputed affine map from parameters to the joint output distribution.

    For product words the trace in the probability rule factorizes per party:
    the rule is ``stats.cond_probs``, and its per-party factors are the
    ``stats.party_table`` arrays read here.  So each of the 72 coefficients
    contributes a fixed per-unit increment to the joint table, ``rows[k]``
    for coordinate k (row 0, for q, is zero); evaluating the objective at a
    parameter point is then two 36-element dot products.
    """

    def __init__(self, instrument_a: Instrument, instrument_b: Instrument, inputs: InputDist):
        self.inputs = inputs
        t_a, t_b = party_table(instrument_a), party_table(instrument_b)
        self.n_a, self.n_b = t_a.shape[2], t_b.shape[2]
        p_xy = inputs.probs
        if p_xy.shape != (t_a.shape[3], t_b.shape[3]):
            raise ValueError("input distribution shape does not match instrument inputs")
        # fold the input distribution: u_a[m,n,a] paired with u_b[m,n,b]
        # gives the joint contribution of the product word (m,n) (x) (m',n')
        wa = np.einsum("mnax,xy->mnay", t_a, p_xy)
        base = np.einsum("ay,by->ab", wa[0, 0], t_b[0, 0]) / 4.0
        self.base_joint = base
        idx = np.array([[PAULI_LETTERS.index(ch) for ch in c.word] for c in COORDINATES[1:]]).T
        rows = np.einsum("kay,kby->kab", wa[idx[0], idx[1]], t_b[idx[2], idx[3]])
        self.rows = np.vstack([np.zeros(base.size), rows.reshape(N_COORDS - 1, -1)])
        # each block's increment rows: its span of rows, blocks as in _BLOCKS
        self.incs = tuple(self.rows[span] for span in _SPANS)
        self._base_flat = base.reshape(-1)

    def is_flat(self, coord: int, q: float) -> bool:
        """Whether moving block coordinate ``coord`` leaves the joint
        distribution unchanged: its increment row is zero, or its block's
        weight (q for the first block, 1 - q for the second) is 0."""
        return (q, 1.0 - q)[_block_of(coord)] == 0.0 or not self.rows[coord].any()

    def joint(self, state: _State) -> np.ndarray:
        """The joint (a, b) distribution at a search point."""
        q, (c, cp), (inc_a, inc_b) = state.q, state.coeffs, self.incs
        flat = self._base_flat + q * (c @ inc_a) + (1.0 - q) * (cp @ inc_b)
        return flat.reshape(self.n_a, self.n_b)

    def direction(self, state: _State, coord: int) -> np.ndarray:
        """Derivative of the joint in one coordinate at a search point:
        c inc_a - c' inc_b for q, the block's weight times the increment row
        for a block coefficient."""
        if coord == 0:
            (c, cp), (inc_a, inc_b) = state.coeffs, self.incs
            flat = c @ inc_a - cp @ inc_b
        else:
            flat = (state.q, 1.0 - state.q)[_block_of(coord)] * self.rows[coord]
        return flat.reshape(self.n_a, self.n_b)


class _State:
    """Mutable search point: the vector ``x`` of ``SepParams.vector``, and
    ``coeffs``, each block's span of it (views)."""

    __slots__ = ("x", "coeffs")

    def __init__(self, params: SepParams):
        self.x = params.vector()
        self.coeffs = tuple(self.x[span] for span in _SPANS)

    @property
    def q(self) -> float:
        return float(self.x[0])

    def to_params(self) -> SepParams:
        return SepParams.from_vector(self.x)

    def get(self, coord: int) -> float:
        return float(self.x[coord])

    def set(self, coord: int, value: float):
        self.x[coord] = value

    def min_eigs(self) -> tuple[float, float]:
        """Smallest eigenvalues of the two fixed-order blocks."""
        ab, ba = (_min_eig(_block_matrix(*pair)) for pair in zip(self.coeffs, _BLOCK_WORDS))
        return ab, ba


def _coord_line(state: _State, coord: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(block matrix at the incumbent, the coordinate's Pauli word, incumbent
    value) of a block coordinate: the block along the line is A + (t - t0) P."""
    block = _block_of(coord)
    return _block_matrix(state.coeffs[block], _BLOCK_WORDS[block]), _WORDS[coord], state.get(coord)


def _line_interval(
    block: np.ndarray, word: np.ndarray, t0: float, psd_tol: float, name: str
) -> tuple[float, float]:
    """Closed form of the feasible interval of the line A + (t - t0) P.

    With B = A + tau I (tau = _ENDPOINT_SLACK * psd_tol), the endpoints are
    the roots of det(B + sP) = det(P) det(PB + sI), i.e. s = -nu for the
    eigenvalues nu of PB.  Write B = G G^dagger with G = V diag(sqrt(lam + tau))
    from one eigh of A; PB has the eigenvalues of the Hermitian G^dagger P G,
    the inverse of the congruence B^{-1/2} P B^{-1/2}, which by Sylvester's
    law of inertia has P's four positive and four negative eigenvalues.  The
    ascending nu_1..nu_8 then split 4/4 around 0, and the feasible interval
    is t0 + [-nu_5, -nu_4].

    No inverse is taken, so a boundary incumbent (B singular, the normal
    state after an accepted endpoint move) stays in closed form: its null
    vector v adds nu = 0, which sorts 5th when v^dagger P v > 0 (the feasible
    side is s >= 0) and 4th when v^dagger P v < 0, by the inertia of P's
    compression to the range of B.  Eigenvalues of B below 0 (an incumbent
    between -psd_tol and -tau) are clamped to 0, which moves the endpoints'
    smallest eigenvalue by at most psd_tol - tau.  The interval always
    contains t0.
    """
    lam, vecs = np.linalg.eigh(block)
    if lam[0] < -psd_tol:
        raise InfeasibleParamsError(name, float(lam[0]))
    root = np.sqrt(np.maximum(lam + _ENDPOINT_SLACK * psd_tol, 0.0))
    compressed = root[:, None] * (vecs.conj().T @ word @ vecs) * root[None, :]
    nu = np.linalg.eigvalsh(compressed)
    return (t0 - max(float(nu[4]), 0.0), t0 - min(float(nu[3]), 0.0))


def _interval_of(state: _State, coord: int, psd_tol: float) -> tuple[float, float]:
    if coord == 0:
        return (0.0, 1.0)
    return _line_interval(*_coord_line(state, coord), psd_tol, COORDINATES[coord].block)


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    if b - a <= tol:
        mid = 0.5 * (a + b)
        return mid, f(mid)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _line_max(
    f: Callable[[float], float], t0: float, lo: float, hi: float, tol: float, concave: bool
) -> tuple[float, float]:
    """Best point on [lo, hi]: candidates are the incumbent, the golden-section
    argmax (seeded by a coarse grid when the objective is not concave), and
    the endpoints.  Ties keep the incumbent."""
    v0 = f(t0)
    if concave:
        xm, vm = _golden_max(f, lo, hi, tol)
    else:
        grid = np.linspace(lo, hi, 33)
        values = [f(t) for t in grid]
        k = int(np.argmax(values))
        xm, vm = _golden_max(f, grid[max(0, k - 1)], grid[min(32, k + 1)], tol)
    best_t, best_v = t0, v0
    for t, v in ((xm, vm), (lo, f(lo)), (hi, f(hi))):
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def _line_fn(
    engine: _Engine, value: Callable[[np.ndarray], float], state: _State, coord: int
) -> Callable[[float], float]:
    """The objective along one coordinate line through the incumbent, on the
    affine joint: t -> value(j0 + (t - t0) d), with j0 the joint at the
    incumbent, t0 its coordinate and d the joint's derivative in it."""
    joint0, t0 = engine.joint(state), state.get(coord)
    direction = engine.direction(state, coord)
    return lambda t: value(joint0 + (t - t0) * direction)


def random_feasible_init(
    seed: int,
    psd_tol: float = VALIDITY_TOL,
    coords: Sequence[int] = range(N_COORDS),
    base: SepParams | None = None,
) -> SepParams:
    """Feasible random start over ``coords``, the others held at ``base``
    (default zeros with q = 1/2, whose blocks have smallest eigenvalue 1/4):
    q uniform, coefficients Gaussian (scale 0.05) halved together until both
    blocks are PSD.

    The base must be feasible; then the halving loop terminates, since the
    drawn coefficients shrink towards it.  Deterministic function of seed.
    """
    state = _State(base if base is not None else SepParams.zeros())
    _require_feasible(*state.min_eigs(), psd_tol)
    rng = np.random.default_rng(seed)
    if 0 in coords:
        state.set(0, rng.uniform())
    coeff_coords = [k for k in coords if k != 0]
    draws = rng.normal(scale=_INIT_SCALE, size=len(coeff_coords))
    while True:
        state.x[coeff_coords] = draws
        if min(state.min_eigs()) >= -psd_tol:
            return state.to_params()
        draws = draws * 0.5


def feasible_interval(
    params: SepParams, coord: int, psd_tol: float = VALIDITY_TOL
) -> tuple[float, float]:
    """The closed interval of values of one coordinate keeping the search
    point feasible (its block PSD; q confined to [0, 1]).

    Endpoints are closed-form (one eigh and one eigvalsh of 8 x 8 matrices):
    the block's smallest eigenvalue there is -psd_tol / 2 up to roundoff
    (below 1e-15), so they re-check as feasible at ``psd_tol``.
    """
    if not 0 <= coord < N_COORDS:
        raise ValueError(f"coordinate index out of range: {coord}")
    return _interval_of(_State(params), coord, psd_tol)


def line_maximize(
    params: SepParams,
    coord: int,
    interval: tuple[float, float],
    cfg: OptimizerConfig | None = None,
) -> tuple[float, float]:
    """Maximize the objective along one coordinate over ``interval``.

    Returns ``(value_at_max, argmax)``.  For the entropy objectives,
    conditional entropy included, the line function is concave (the
    distribution is affine in the coordinate), so golden-section search is
    exact to ``line_tol``; for the mutual-information objective a coarse grid
    seeds the golden stage and no global-optimality guarantee is made.
    """
    cfg = cfg or OptimizerConfig()
    lo, hi = interval
    if hi < lo:
        raise ValueError(f"empty interval: {interval}")
    engine = _Engine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)
    state = _State(params)
    best_t, best_v = _line_max(
        _line_fn(engine, partial(objective, cfg.objective), state, coord),
        state.get(coord), lo, hi, cfg.line_tol, cfg.objective in _CONCAVE_OBJECTIVES,
    )
    return best_v, best_t


def _slack_probe(
    word: np.ndarray, eig: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float, float]:
    """Read-out of an eigendecomposition (lam, V) of A + sP: (lam_0, g, h,
    largest eigenvalue), with lam_0 the smallest eigenvalue, g = v0^dagger P
    v0 and h = 2 sum_k |v_k^dagger P v0|^2 / (lam_0 - lam_k), its first and
    second derivatives in s where lam_0 is simple.  The 1e-300 keeps an
    exactly degenerate pair finite: a zero coupling adds 0, a nonzero one a
    huge negative h."""
    lam, vecs = eig
    pv = (word @ vecs[:, 0]) @ vecs.conj()
    coupling = (pv * pv.conj()).real
    h = 2.0 * float((coupling[1:] / (lam[0] - lam[1:] - 1e-300)).sum())
    return float(lam[0]), float(pv[0].real), h, float(lam[-1])


def _slack_max(
    block: np.ndarray, word: np.ndarray, tol: float, eig: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float, float, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Maximize lam(s), the smallest eigenvalue of A + sP, starting from s = 0.

    ``eig`` is ``np.linalg.eigh(block)``: s = 0 is read from it, so only the
    probes at s != 0 solve, one eigh each.  lam is concave, and g from
    :func:`_slack_probe` is a supergradient of it even where two branches
    cross, so the sign of g tells on which side of s the maximum lies.  The
    search keeps a bracket [a, b] around the maximum with a line above lam at
    each end: the tangent there once the end has been probed.  Before that,
    the ends are s = +-(lam_max(A) - lam(0)) with the lines lam_max(A) -+ s,
    which bound lam from above (take u^dagger (A + sP) u for a -+1
    eigenvector u of P) and fall to lam(0) at those ends.

    Each step goes to the Newton point s - g/h if h < 0, the point lies
    inside the bracket and the quadratic model's value there is below both
    lines.  Otherwise (near a kink, or at h = 0 where the branches of
    commuting words cross exactly) it goes to where the two lines meet, which
    is the maximum at a kink, and if that point is not inside the bracket, to
    the midpoint.  The search stops after a step of at most ``tol`` or when
    the bracket is that narrow; a final Newton step that short is not probed
    when the gain it predicts is below ``_SLACK_RESOLUTION``.

    Returns (s, lam(s), lam(0), A + sP, its eigh) for the best point probed;
    with no probe above lam(0) that is s = 0 with ``block`` and ``eig``.
    """
    f, g, h, top = _slack_probe(word, eig)
    lam0 = best_f = f
    s = best_s = 0.0
    best_matrix, best_eig = block, eig
    reach = top - lam0
    # bracket ends with their upper-bounding lines: (end, value there, slope)
    a, fa, ga = -reach, lam0, 1.0
    b, fb, gb = reach, lam0, -1.0
    for _ in range(_SLACK_MAX_PROBES):
        if g > 0.0:
            a, fa, ga = s, f, g
        elif g < 0.0:
            b, fb, gb = s, f, g
        else:
            break
        if b - a <= tol:
            break
        newton = h < 0.0 and a < s - g / h < b
        if newton:
            t = s - g / h
            gain = 0.5 * g * (t - s)
            if abs(t - s) <= tol and gain <= _SLACK_RESOLUTION:
                break
            newton = f + gain <= min(fa + ga * (t - a), fb + gb * (t - b))
        if not newton:
            t = a + (fb - fa - gb * (b - a)) / (ga - gb)
            if not a < t < b:
                t = 0.5 * (a + b)
        step, s = t - s, t
        matrix = block + s * word
        probe = np.linalg.eigh(matrix)
        f, g, h, _ = _slack_probe(word, probe)
        if f > best_f:
            best_s, best_f, best_matrix, best_eig = s, f, matrix, probe
        if abs(step) <= tol:
            break
    return best_s, best_f, lam0, best_matrix, best_eig


def _center_unranked(state: _State, engine: _Engine, cfg: OptimizerConfig) -> tuple[int, str]:
    """Move objective-flat coordinates to their maximum-slack points.

    Iterated until the flat set stops moving (stop ``converged``), at most
    ``_CENTERING_MAX_PASSES`` passes (stop ``pass_cap``); returns (passes,
    stop).  Each accepted move strictly increases the block's smallest
    eigenvalue, so it keeps a feasible point feasible, and the objective value
    is unchanged by construction.

    Each block is built and solved once; after that its matrix and eigh are
    carried from line to line.  An accepted move replaces them by the probe
    that found it, A + sP with the solve already made; a rejected move keeps
    them.  So a line solves only at its probes away from s = 0.
    """
    coords = [k for k in cfg.active_coords() if k != 0 and engine.is_flat(k, state.q)]
    carried = {}
    for block in dict.fromkeys(map(_block_of, coords)):
        matrix = _block_matrix(state.coeffs[block], _BLOCK_WORDS[block])
        eig = np.linalg.eigh(matrix)
        if eig[0][0] < -cfg.psd_tol:
            raise InfeasibleParamsError(_BLOCKS[block], float(eig[0][0]))
        carried[block] = matrix, eig
    for passes in range(1, _CENTERING_MAX_PASSES + 1):
        moved = 0.0
        for coord in coords:
            block = _block_of(coord)
            matrix, eig = carried[block]
            s, lam, lam0, probed, probe = _slack_max(matrix, _WORDS[coord], cfg.line_tol, eig)
            if lam > lam0:
                moved = max(moved, abs(s))
                state.set(coord, state.get(coord) + s)
                carried[block] = probed, probe
        if moved < cfg.sweep_tol:
            return passes, "converged"
    return _CENTERING_MAX_PASSES, "pass_cap"


def _ascend(
    init: SepParams, cfg: OptimizerConfig
) -> tuple[SepParams, float, tuple[float, ...], tuple]:
    """(params, value, trace, the ``RestartRecord`` fields after value:
    sweeps, the final smallest eigenvalue of each block, centering passes,
    centering stop and ascent stop); the ascent stops ``converged`` after a
    sweep that moves no coordinate by ``sweep_tol`` or more, else at
    ``max_sweeps``."""
    engine = _Engine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)
    value = partial(objective, cfg.objective)
    state = _State(init)
    _require_feasible(*state.min_eigs(), cfg.psd_tol)

    concave = cfg.objective in _CONCAVE_OBJECTIVES
    centering = _center_unranked(state, engine, cfg)
    current = value(engine.joint(state))
    trace = [current]
    sweeps, stop = 0, "max_sweeps"
    for _ in range(cfg.max_sweeps):
        sweeps += 1
        delta = 0.0
        for coord in cfg.active_coords():
            if coord != 0 and engine.is_flat(coord, state.q):
                continue  # a constant line cannot strictly improve
            lo, hi = _interval_of(state, coord, cfg.psd_tol)
            t0 = state.get(coord)
            f = _line_fn(engine, value, state, coord)
            best_t, best_v = _line_max(f, t0, lo, hi, cfg.line_tol, concave)
            if best_t != t0 and best_v > current:
                state.set(coord, best_t)
                delta = max(delta, abs(best_t - t0))
                current = best_v
        trace.append(current)
        if delta < cfg.sweep_tol:
            stop = "converged"
            break
    return state.to_params(), current, tuple(trace), (sweeps, *state.min_eigs(), *centering, stop)


def coordinate_ascent(
    init: SepParams, cfg: OptimizerConfig | None = None
) -> tuple[SepParams, float, int]:
    """Sweep the coordinates in fixed order (q, first block lexicographic,
    second block lexicographic), maximizing along one coordinate at a time.

    The objective is nondecreasing across sweeps; iteration stops when the
    largest parameter change in a sweep falls below ``sweep_tol`` or after
    ``max_sweeps`` sweeps.  Returns (final params, final value, sweeps used).
    """
    params, value, _, (sweeps, *_) = _ascend(init, cfg or OptimizerConfig())
    return params, value, sweeps


def _run_restart(args) -> tuple[RestartRecord, SepParams, tuple[float, ...] | None]:
    cfg, restart = args
    seed = cfg.seed + restart
    init = random_feasible_init(seed, cfg.psd_tol, cfg.active_coords(), cfg.base_params)
    params, value, trace, fields = _ascend(init, cfg)
    record = RestartRecord(restart, seed, value, *fields)
    return record, params, trace if cfg.record_trace else None


def multistart(cfg: OptimizerConfig | None = None, jobs: int = 1) -> OptimizerResult:
    """Best of ``cfg.restarts`` independent ascent runs, seeds seed, seed+1, ...

    Restarts may execute in parallel (``jobs`` processes); the reduction is
    order-independent, with ties broken by the lowest restart index, so the
    result is a deterministic function of the configuration alone.
    ``jobs`` below 1 is a ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cfg = cfg or OptimizerConfig()
    work = [(cfg, r) for r in range(cfg.restarts)]
    if jobs > 1 and cfg.restarts > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_restart, work))
    else:
        outcomes = [_run_restart(item) for item in work]
    outcomes.sort(key=lambda item: item[0].restart)
    records = tuple(record for record, _, _ in outcomes)
    best_restart, best_value, best_params = None, -math.inf, None
    for record, params, _ in outcomes:
        if record.value > best_value:
            best_restart, best_value, best_params = record.restart, record.value, params
    traces = tuple(trace for _, _, trace in outcomes) if cfg.record_trace else None
    return OptimizerResult(
        best_params=best_params,
        best_value=best_value,
        best_restart=best_restart,
        records=records,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Feix-family maximization over (q, eps)
# ---------------------------------------------------------------------------

_FEIX_GRID_STEP = 0.01
#: the eps and q brackets are at most 1.0001 wide: 1.0001 / 2^31 < 5e-10
_FEIX_BISECTION_STEPS = 31


class _FeixEngine:
    """Joint distribution and feasibility over the (q, eps) plane.

    The process is I/4 + q S/12 + (1 - q + eps) ZIXZ/4 with S = IXXI + IYYI +
    IZZI (words ordered A_I A_O B_I B_O), and its smallest eigenvalue has a
    closed form.  The Z eigenvalues of A_I and B_O split the 16 basis states
    into four sectors, each a copy of A_O x B_I.  On a sector S = 2 SWAP - I
    and ZIXZ = sigma (I x X), with sigma the product of the two Z
    eigenvalues.  X x X commutes with both and splits each sector into the
    2 x 2 blocks [[2a, b], [b, 2a]] and [[2a, b], [b, -2a]] (plus 1/4 - a
    on the diagonal), where a = q/12 and b = sigma (1 - q + eps)/4.  So the
    smallest eigenvalue is 1/4 - a + min(2a - |b|, -sqrt(4a^2 + b^2)), for
    every real q and eps.
    """

    def __init__(self, instrument_a: Instrument, instrument_b: Instrument, inputs: InputDist):
        assert FEIX_WORDS_AB == ("IXXI", "IYYI", "IZZI") and FEIX_WORD_BA == "ZIXZ", (
            "the closed-form smallest eigenvalue of the Feix plane is derived for "
            f"A<B words IXXI, IYYI, IZZI and B<A word ZIXZ, got {FEIX_WORDS_AB} and {FEIX_WORD_BA}"
        )
        engine = _Engine(instrument_a, instrument_b, inputs)
        self._base = engine.base_joint
        # the Feix words are separable coordinates: c_0xx, c_0yy, c_0zz and cp_zxz
        rows = engine.rows.reshape(-1, *self._base.shape)
        words = [coord.word for coord in COORDINATES]
        self._inc_sym = sum(rows[words.index(w)] for w in FEIX_WORDS_AB) / 12.0
        self._inc_ba = rows[words.index(FEIX_WORD_BA)] / 4.0

    def joint(self, q: float | np.ndarray, eps: float | np.ndarray) -> np.ndarray:
        """The joint (a, b) distribution, or a stack of them indexed by the
        broadcast shape of q and eps."""
        q = np.asarray(q)[..., None, None]
        eps = np.asarray(eps)[..., None, None]
        return self._base + q * self._inc_sym + (1.0 - q + eps) * self._inc_ba

    def min_eig(self, q: float | np.ndarray, eps: float | np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the process at each broadcast (q, eps)."""
        a = q / 12.0
        b = np.abs(1.0 - q + eps) / 4.0
        return 0.25 - a + np.minimum(2.0 * a - b, -np.hypot(2.0 * a, b))

    def eps_bound(self, q: float, psd_tol: float) -> float:
        """Largest feasible eps at fixed q, by bisection on the smallest
        eigenvalue; -1 when eps = 0 is infeasible."""
        if self.min_eig(q, 0.0) < -psd_tol:
            return -1.0
        return _bisect_edge(lambda eps: self.min_eig(q, eps) >= -psd_tol, 0.0, 1.0001)

    def q_interval(self, q0: float, eps: float, psd_tol: float) -> tuple[float, float]:
        """Feasible q interval at fixed eps around the feasible q0, by bisection
        outward from q0 on each side."""
        def feasible(q: float) -> bool:
            return 0.0 <= q <= 1.0 and self.min_eig(q, eps) >= -psd_tol

        low, high = (_bisect_edge(feasible, q0, 0.5 + sign * 0.5001) for sign in (-1.0, 1.0))
        return min(low, q0), max(high, q0)


def _bisect_edge(feasible: Callable[[float], bool], lo: float, hi: float) -> float:
    """The feasible end of the bracket from the feasible ``lo`` to the
    infeasible ``hi`` (either side) after ``_FEIX_BISECTION_STEPS`` halvings.

    On the Feix plane each edge is the root of a quadratic in eps or q, but
    the root is not taken in closed form.  At the exact root of
    min_eig = -psd_tol the 16 x 16 eigensolve of the process reads up to
    2.7e-16 below -psd_tol (over 1001 values of q), so that endpoint would
    not re-check as feasible.  A root of min_eig = -psd_tol / 2 instead falls
    short of the edge where min_eig is flat: at q = 1 the 16 x 16 smallest
    eigenvalue 1e-8 beyond that root in eps is still -5.0e-11.  The bisection
    keeps a point that tests feasible, within 5e-10 of the edge.
    """
    for _ in range(_FEIX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def feix_maximize(
    cfg: OptimizerConfig | None = None,
) -> tuple[FeixParams, float]:
    """Maximize the objective over the PSD region of the Feix family.

    A coarse grid (step 0.01 in q and eps) locates the basin: its feasibility
    is one vectorized evaluation of the closed-form smallest eigenvalue of
    ``_FeixEngine``, and the objective at all feasible points is one
    ``stats.objective`` call on their stacked joints; the first maximum in
    row-major (q, eps) order wins.  Coordinate golden-section refinement, with
    the q and eps intervals found by bisection on that smallest eigenvalue,
    polishes it.
    """
    cfg = cfg or OptimizerConfig()
    value = partial(objective, cfg.objective)
    eng = _FeixEngine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)

    qs = np.arange(0.0, 1.0 + 1e-12, _FEIX_GRID_STEP)
    eps = np.arange(0.0, 1.0 + 1e-12, _FEIX_GRID_STEP)
    qq, ee = np.meshgrid(qs, eps, indexing="ij")
    feasible = eng.min_eig(qq, ee) >= -cfg.psd_tol
    q_grid, e_grid = qq[feasible], ee[feasible]
    grid_values = value(eng.joint(q_grid, e_grid))
    k = int(np.argmax(grid_values))
    best_q, best_e, best_v = float(q_grid[k]), float(e_grid[k]), float(grid_values[k])

    for _ in range(60):
        moved = 0.0
        lo_q, hi_q = eng.q_interval(best_q, best_e, cfg.psd_tol)
        tq, vq = _golden_max(lambda t: value(eng.joint(t, best_e)), lo_q, hi_q, cfg.line_tol)
        if vq > best_v:
            moved = max(moved, abs(tq - best_q))
            best_q, best_v = tq, vq
        top = eng.eps_bound(best_q, cfg.psd_tol)
        if top >= 0.0:
            te, ve = _golden_max(lambda t: value(eng.joint(best_q, t)), 0.0, top, cfg.line_tol)
            if ve > best_v:
                moved = max(moved, abs(te - best_e))
                best_e, best_v = te, ve
        if moved < cfg.line_tol * 10:
            break
    return FeixParams(best_q, best_e), best_v


def separable_floor(cfg: OptimizerConfig | None = None) -> float:
    """Largest objective value on the eps = 0 edge of the Feix plane (q = 0,
    0.01, ..., 1), from one ``stats.objective`` call: that edge is causally
    separable with the same non-signalling part, so this bounds the separable
    maximum from below."""
    cfg = cfg or OptimizerConfig()
    eng = _FeixEngine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)
    return float(np.max(objective(cfg.objective, eng.joint(np.linspace(0.0, 1.0, 101), 0.0))))


def feix_eps_inert(cfg: OptimizerConfig | None = None) -> bool:
    """Whether eps leaves the Feix plane's joint distribution unchanged: the
    joint increment of its B<A word ZIXZ is exactly zero.  Under the
    built-in instruments that holds for every input distribution, since
    Bob's operators have no X (x) Z term on (B_I, B_O).  Then no point of
    the plane beats its eps = 0 edge."""
    cfg = cfg or OptimizerConfig()
    return not _FeixEngine(cfg.instrument_a, cfg.instrument_b, cfg.inputs)._inc_ba.any()
