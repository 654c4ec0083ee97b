"""Cantor-set stages and thickness, in exact rational arithmetic.

A *stage* is a finite union of disjoint closed intervals: one generation of a
Cantor-set construction.  The producers here are Markov systems of rational
affine branches (the slope-3 N-map family around an m-periodic base orbit is
one).  The consumer side is gap/bridge thickness and the Gap-Lemma
trichotomy.

Every stage has `fractions.Fraction` endpoints and lives on an integer grid:
it holds one integer `scale` and its interval ends as two read-only numpy
arrays of grid integers.  The arrays are `int64` when a Python-int bound
shows that every grid value and everything computed from them (differences,
the scale) stays below 2^62, and hold Python ints (dtype `object`) otherwise;
the same array code runs on either.  Validation, Markov refinement and
`thickness` work on those integers, so every thickness identity is checked
with zero rounding error.  Its `intervals` are reduced `Fraction`s built the
first time they are read; `translate` shifts the grid integers and the
Gap-Lemma check compares them, so neither forms one.  Stages and thickness
reports are frozen values.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .maps1d import AffineBranch, n_map

__all__ = [
    "CantorStage",
    "ThicknessReport",
    "ThicknessUndefinedError",
    "EmptyStageError",
    "ConstructionError",
    "thickness",
    "build_nmap_cantor",
    "nmap_cantor_report",
    "nominal_thickness_bound",
    "GapLemmaVerdict",
    "gap_lemma_check",
    "MarkovBranchSystem",
    "markov_cantor",
    "middle_thirds_system",
]


HALF = Fraction(1, 2)
# grid arrays are int64 while a bound on their values and intermediates is below this
_INT64_BOUND = 2**62


class ConstructionError(ValueError):
    """An interval assembly violated its required ordering."""


class ThicknessUndefinedError(ValueError):
    """Thickness needs at least two intervals."""


class EmptyStageError(ValueError):
    """A stage without intervals has no hull and meets no other stage."""


class _Value:
    """Value semantics over the attributes named in `_fields`, some of which
    a subclass derives on first read: `==`, `hash` and a dataclass-style
    `repr`.  Instances are frozen: assignment raises `FrozenInstanceError`,
    and only construction and the first-read views write, through `_set`."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class CantorStage(_Value):
    """One generation of a Cantor construction: ordered disjoint closed intervals.

    The endpoints must be `Fraction`s (`TypeError` otherwise).  The stage
    holds them as integers over one integer `scale`, the interval ends in
    two read-only grid arrays (see `_grid_array`), and derives `ambient` and
    `intervals` as reduced `Fraction`s the first time they are read.
    """

    _fields = ("ambient", "intervals", "generation", "source")

    def __init__(self, ambient, intervals, generation, source="generic"):
        ends = [*ambient, *(v for iv in intervals for v in iv)]
        for v in ends:
            if not isinstance(v, Fraction):
                raise TypeError(f"endpoint {v!r} is not a Fraction")
        ends, scale = _on_grid(ends)
        bound = max(2 * max(map(abs, ends)), scale)
        self._init(
            scale, ends[:2], _grid_array(ends[2::2], bound), _grid_array(ends[3::2], bound),
            generation, source, ambient, intervals,
        )

    @classmethod
    def _from_grid(cls, scale, ambient, lows, highs, generation, source, ambient_view=None):
        """The stage whose ambient and interval ends are the integers given,
        in units of 1/scale, the ends as grid arrays; `ambient_view` is the
        ambient as the caller holds it, if it does."""
        stage = cls.__new__(cls)
        stage._init(scale, ambient, lows, highs, generation, source, ambient_view, None)
        return stage

    def _init(self, scale, ambient, lows, highs, generation, source, ambient_view, intervals_view):
        # _amb holds the ambient as grid integers, _lows and _highs the interval ends
        self._set(
            scale=scale, _amb=tuple(ambient), _lows=lows, _highs=highs, generation=generation, source=source,
            _ambient=ambient_view, _intervals=intervals_view,
        )
        (glo, ghi) = self._amb
        if len(lows) and not (
            glo <= lows[0] and highs[-1] <= ghi and np.all(lows <= highs) and np.all(highs[:-1] < lows[1:])
        ):
            self._reject()

    def _reject(self):
        """Raise for the first interval that breaks the order chain; the
        message names the stage's own endpoints."""
        (lo, hi), (glo, ghi) = self.ambient, self._amb
        prev_hi = None
        for (a, b), ga, gb in zip(self.intervals, self._lows.tolist(), self._highs.tolist()):
            if not (glo <= ga <= gb <= ghi):
                raise ConstructionError(f"interval [{a},{b}] escapes ambient [{lo},{hi}]")
            if prev_hi is not None and not (ga > prev_hi):
                raise ConstructionError(f"intervals out of order or overlapping near {a}")
            prev_hi = gb

    def _point(self, v):
        # int(): a Fraction of a numpy integer keeps it as numerator and overflows
        return Fraction(int(v), self.scale)

    @property
    def ambient(self) -> tuple:
        if self._ambient is None:
            self._set(_ambient=tuple(map(self._point, self._amb)))
        return self._ambient

    @property
    def intervals(self) -> tuple:
        if self._intervals is None:
            s = self.scale
            ends = zip(self._lows.tolist(), self._highs.tolist())
            self._set(_intervals=tuple((Fraction(a, s), Fraction(b, s)) for a, b in ends))
        return self._intervals

    def fraction_columns(self) -> tuple[list, list, list, list]:
        """The intervals as reduced fractions, in four columns of Python ints:
        left numerators, left denominators, right numerators, right
        denominators.  No `Fraction` is built."""
        columns = []
        for ends in (self._lows, self._highs):
            common = np.gcd(ends, self.scale)
            columns += [(ends // common).tolist(), (self.scale // common).tolist()]
        return tuple(columns)

    def __len__(self) -> int:
        return len(self._lows)

    @property
    def hull(self):
        if not len(self):
            raise EmptyStageError("an empty stage has no hull")
        return (self._point(self._lows[0]), self._point(self._highs[-1]))

    def gaps(self) -> list[tuple]:
        """Bounded complementary components between consecutive intervals."""
        ivals = self.intervals
        return [(b0, a1) for (_, b0), (a1, _) in zip(ivals, ivals[1:])]

    def translate(self, offset) -> "CantorStage":
        """The stage shifted by `offset`, which must sum with a `Fraction` to a
        `Fraction` (`TypeError` naming the shifted ambient end otherwise).
        The grid integers move over the scale lcm(scale, denominator)."""
        ambient = tuple(v + offset for v in self.ambient)
        for v in ambient:
            if not isinstance(v, Fraction):
                raise TypeError(f"endpoint {v!r} is not a Fraction")
        shift = ambient[0] - self.ambient[0]
        scale = math.lcm(self.scale, shift.denominator)
        factor, step = scale // self.scale, shift.numerator * (scale // shift.denominator)
        amb = [v * factor + step for v in self._amb]
        # every interval end lies in the ambient, so its ends bound the grid
        bound = max(2 * max(map(abs, amb)), scale)
        lows, highs = _rescaled(self, factor, abs(step))
        return CantorStage._from_grid(
            scale, amb, _grid_array(lows + step, bound), _grid_array(highs + step, bound),
            self.generation, self.source, ambient,
        )


class ThicknessReport(_Value):
    """Minimum bridge/gap ratio over all gap endpoints, with its witnesses.

    `endpoint_ratios` holds one (gap, endpoint, bridge, ratio) record per
    gap boundary point.  It may be passed as a function that builds it,
    called the first time the records are read.
    """

    _fields = ("thickness", "witness_gap", "witness_bridge", "endpoint_ratios")

    def __init__(self, thickness, witness_gap, witness_bridge, endpoint_ratios):
        self._set(
            thickness=thickness, witness_gap=witness_gap, witness_bridge=witness_bridge,
            _endpoint_ratios=endpoint_ratios,
        )

    @property
    def endpoint_ratios(self) -> tuple:
        if callable(self._endpoint_ratios):
            self._set(_endpoint_ratios=self._endpoint_ratios())
        return self._endpoint_ratios


def _on_grid(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact rationals as integer multiples of 1/D, D their least common
    denominator: returns (the integers, D)."""
    dens = {v.denominator for v in values}
    scale = math.lcm(*dens)
    factor = {d: scale // d for d in dens}
    return [v.numerator * factor[v.denominator] for v in values], scale


def _grid_array(values, bound: int) -> np.ndarray:
    """Grid integers as a read-only array: `int64` when the Python int `bound`
    exceeds every value and everything computed from them, Python ints
    otherwise.  numpy's own inference would not do: it makes -1 and 2**63 a
    float64 array."""
    arr = np.array(values, dtype=np.int64 if bound < _INT64_BOUND else object)
    arr.flags.writeable = False
    return arr


def _rescaled(stage: CantorStage, factor: int, slack: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The stage's grid arrays times `factor`, computed in Python ints when
    a value times `factor`, plus `slack`, could reach 2^62."""
    lows, highs = stage._lows, stage._highs
    if factor == 1 and not slack:
        return lows, highs
    if max(*map(abs, stage._amb), 1) * factor + slack >= _INT64_BOUND:
        lows, highs = lows.astype(object), highs.astype(object)
    return lows * factor, highs * factor


def _blockers(lengths: np.ndarray) -> np.ndarray:
    """For each gap, the nearest earlier gap at least as long (ties block), or
    -1.  Pointer jumping: every gap points at the previous gap, and while the
    gap pointed at is shorter, the pointer jumps to that gap's own pointer
    (every gap passed is shorter still); O(n) memory, one array step per
    round."""
    ptr = np.arange(-1, len(lengths) - 1)
    # the gaps longer than their pointer's gap, which they jump past
    live = np.flatnonzero(lengths[:-1] < lengths[1:]) + 1
    while len(live):
        ptr[live] = ptr[ptr[live]]
        live = live[ptr[live] >= 0]
        live = live[lengths[ptr[live]] < lengths[live]]
    return ptr


def thickness(stage: CantorStage) -> ThicknessReport:
    """Gap/bridge thickness of a stage.

    For each gap endpoint the bridge is the maximal interval on the far side
    of the gap that avoids every gap of length >= the current one (ties
    block), bounded by the convex hull of the stage.  The thickness is the
    minimum ratio Length(bridge)/Length(gap), an exact `Fraction`.

    The stage is measured on its grid arrays.  The blocking gaps on each side
    come from vectorized pointer jumping (`_blockers`), and every
    bridge/gap quotient is formed as a float.  `int64` operands above 2^53
    round before they divide, so a quotient may be off by a few units in the
    last place: every record within a relative 2^-49 of the least float is
    a candidate, and the candidates are settled by cross-multiplying Python
    ints, keeping the first exact minimum.  Only the minimum and its
    witnesses are formed here; `endpoint_ratios` is built when read.
    """
    if len(stage) < 2:
        raise ThicknessUndefinedError("need at least two intervals")
    lows, highs = stage._lows, stage._highs
    # gap i runs from highs[i] to lows[i + 1]; its left bridge runs from
    # lows[left[i] + 1] to highs[i], its right bridge from lows[i + 1] to
    # highs[right[i]]
    lengths = lows[1:] - highs[:-1]
    n = len(lengths)
    left = _blockers(lengths)
    right = n - 1 - _blockers(lengths[::-1])[::-1]

    # flattened, record 2i is gap i's left endpoint, record 2i + 1 its right one
    bridges = np.stack((highs[:-1] - lows[left + 1], highs[right] - lows[1:]), axis=1)
    quotients = np.asarray(bridges / lengths[:, None], dtype=float).ravel()
    least = quotients.min()
    ties = np.flatnonzero(quotients <= least + least * 2.0**-49)
    bridge, glen = bridges.ravel()[ties].tolist(), lengths[ties // 2].tolist()
    c = 0
    for t in range(1, len(ties)):
        if bridge[t] * glen[c] < bridge[c] * glen[t]:
            c = t
    i, at_right = divmod(int(ties[c]), 2)
    point = stage._point
    gap = (point(highs[i]), point(lows[i + 1]))
    witness = (gap[1], point(highs[right[i]])) if at_right else (point(lows[left[i] + 1]), gap[0])
    return ThicknessReport(
        Fraction(bridge[c], glen[c]), gap, witness, partial(_endpoint_records, stage, left, right)
    )


def _endpoint_records(stage: CantorStage, left: np.ndarray, right: np.ndarray) -> tuple:
    """`thickness`'s (gap, endpoint, bridge, ratio) records, in `Fraction`s,
    from the blocking-gap indices it found."""
    ivals, lows, highs = stage.intervals, stage._lows.tolist(), stage._highs.tolist()
    left, right = left.tolist(), right.tolist()
    shared: dict[tuple[int, int], Fraction] = {}

    def ratio(bridge: int, gap: int) -> Fraction:
        # N-map stages have few distinct ratios: one Fraction per reduced pair
        g = math.gcd(bridge, gap)
        key = (bridge // g, gap // g)
        if key not in shared:
            shared[key] = Fraction(*key)
        return shared[key]

    records = []
    for i, (jl, jr) in enumerate(zip(left, right)):
        gap = (ivals[i][1], ivals[i + 1][0])
        glen = lows[i + 1] - highs[i]
        records.append((gap, gap[0], (ivals[jl + 1][0], gap[0]), ratio(highs[i] - lows[jl + 1], glen)))
        records.append((gap, gap[1], (gap[1], ivals[jr][1]), ratio(highs[jr] - lows[i + 1], glen)))
    return tuple(records)


# ---------------------------------------------------------------------------
# N-map Cantor family
# ---------------------------------------------------------------------------

def _nmap_branch_chain(m: int) -> list[int]:
    # branch indices into n_map().branches: 0 = left, 1 = middle, 2 = right;
    # the base orbit's itinerary is middle, right, (left, right)*(m/2-2), left, middle
    return [1, 2] + [0, 2] * (m // 2 - 2) + [0, 1]


def _require_order(points: Sequence, names: Sequence[str]):
    for (a, na), (b, nb) in zip(zip(points, names), zip(points[1:], names[1:])):
        if not a < b:
            raise ConstructionError(f"ordering violated: expected {na} < {nb} but {a} >= {b}")


@dataclass(frozen=True)
class NmapCantorData:
    """Exact scaffolding of the m-interval first generation."""

    x_m: Fraction  # (1 - 3^-(m-2))/2, the left end of the base point's interval
    q: tuple  # forward orbit q0..q_{m-1}
    q_tilde: dict  # backward points, keyed by index
    first_generation: tuple  # intervals I_0..I_{m-1} in construction order
    ambient: tuple


def _build_nmap_scaffold(m: int) -> NmapCantorData:
    if m < 6 or m % 2:
        raise ValueError("m must be an even integer >= 6")
    s = n_map()
    chain = _nmap_branch_chain(m)
    # fixed point of the m-fold affine composition, rightmost branch applied first
    slope, intercept = Fraction(1), Fraction(0)
    for k in chain:
        br = s.branches[k]
        slope, intercept = br.slope * slope, br.slope * intercept + br.intercept
    q0 = intercept / (1 - slope)
    x_m = (1 - Fraction(1, 3 ** (m - 2))) / 2
    if not (x_m < q0 < HALF):
        raise ConstructionError(f"base point {q0} escapes ({x_m}, 1/2)")
    q = [q0]
    for step, k in enumerate(chain):
        br = s.branches[k]
        if not br.contains(q[-1]):
            raise ConstructionError(f"orbit point {q[-1]} left branch {k} at step {step}")
        q.append(br(q[-1]))
    if q[m] != q0:
        raise ConstructionError("orbit did not close")
    q = q[:m]

    left, mid, right = s.branches
    qt: dict[int, Fraction] = {}
    qt[0] = right.inverse(q[1])
    qt[m - 1] = mid.inverse(qt[0])
    for j in range(0, m - 4):
        src = left if j % 2 == 0 else right
        qt[m - j - 2] = src.inverse(qt[m - j - 1])
        if not src.contains(qt[m - j - 2]):
            raise ConstructionError(f"backward point qt{m-j-2} escapes its branch")
    if not (right.contains(qt[0]) and mid.contains(qt[m - 1])):
        raise ConstructionError("backward anchor points escape their branches")

    ivals: list[tuple] = [None] * m
    ivals[0] = (qt[0], q[m - 3])
    for i in range(1, m // 2 - 1):
        ivals[2 * i - 1] = (qt[2 * i + 1], q[2 * i - 1])
        ivals[2 * i] = (q[2 * i], qt[2 * i + 2])
    ivals[m - 3] = (q[m - 2], left.inverse(q[2]))
    ivals[m - 2] = (mid.inverse(q[2]), q[m - 1])
    ivals[m - 1] = (qt[m - 1], q[0])

    # the ordering chain pins the whole assembly; violations abort by name
    pts, names = [Fraction(-3, 2)], ["-3/2"]
    pts.append(q[2]); names.append("q2")
    for i in range(4, m - 1, 2):
        pts.append(qt[i]); names.append(f"qt{i}")
        pts.append(q[i]); names.append(f"q{i}")
    pts.append(Fraction(0)); names.append("0")
    pts.append(q[m - 1]); names.append(f"q{m-1}")
    pts.append(qt[m - 1]); names.append(f"qt{m-1}")
    pts.append(q[0]); names.append("q0")
    pts.append(HALF); names.append("1/2")
    pts.append(qt[0]); names.append("qt0")
    for i in range(m - 3, 1, -2):
        pts.append(q[i]); names.append(f"q{i}")
        if i >= 3:
            pts.append(qt[i]); names.append(f"qt{i}")
    pts.append(Fraction(3, 2)); names.append("3/2")
    _require_order(pts, names)

    return NmapCantorData(
        x_m=x_m,
        q=tuple(q),
        q_tilde=qt,
        first_generation=tuple(ivals),
        ambient=(q[2], q[1]),
    )


def build_nmap_cantor(m: int, generation: int) -> CantorStage:
    """Generation-`generation` stage of the affine Cantor set anchored to the
    m-periodic base orbit of the N-map: the Markov refinement of
    `nmap_restriction_system(m)`.  All endpoints exact rationals.
    """
    stage = _refine(nmap_restriction_system(m), generation, f"nmap-cantor-m{m}")
    # the turning points +-1/2 must fall in gaps at every generation
    for t in (HALF, -HALF):
        x = t * stage.scale
        i = np.searchsorted(stage._lows, math.floor(x), "right")
        if i and x <= stage._highs[i - 1]:
            raise ConstructionError(f"turning point {t} not in a gap")
    return stage


def nominal_thickness_bound(m: int) -> Fraction:
    """Nominal closed-form thickness bound (3^m - 45)/22 for the m-orbit family.

    No stage of the family reaches it.  With N = 3^m - 1 the base point is
    q0 = 1/2 - 4/N, so the left hull end is q2 = -3/2 + 36/N.  Every point
    strictly between L = -(q2 + 3)/3 and M = q2/3 maps below q2, so (L, M)
    is a gap of length 24/N at every generation (the bound assumes 22/N,
    `nominal_delta`).  The bridge left of it lies in [q2, L], at most
    1 - 48/N long, so the thickness is at most (3^m - 49)/24 at every
    generation, and (3^m - 49)/24 < (3^m - 45)/22 is the same inequality as
    3^m > 1.  Generations 1-2 attain (3^m - 49)/24; later ones fall below it
    (m=6 gives 49/3 from generation 3 on; `nmap_cantor_report` gives the
    closed form per generation).  Reports carry both numbers so the
    discrepancy is visible rather than silently resolved.
    """
    return Fraction(3**m - 45, 22)


def nmap_cantor_report(m: int, generation: int) -> dict:
    """Thickness report for the m-orbit family plus the bookkeeping that the
    verification suite compares against closed forms."""
    data = _build_nmap_scaffold(m)
    stage = build_nmap_cantor(m, generation)
    rep = thickness(stage)
    q0, qt0 = data.q[0], data.q_tilde[0]
    gap_upper = qt0 - q0  # the gap straddling +1/2
    s = n_map()
    left, mid, _ = s.branches
    gap_lower = mid.inverse(data.q[2]) - left.inverse(data.q[2])  # straddles -1/2
    bound = nominal_thickness_bound(m)
    j = min((generation - 1) // 2, (m - 4) // 2)
    return {
        "m": m,
        "generation": generation,
        "q0": q0,
        "orbit": data.q,
        "x_m": data.x_m,
        "n_intervals": len(stage),
        "thickness": rep.thickness,
        "gap_at_half": gap_upper,
        "gap_at_minus_half": gap_lower,
        "gap_at_half_closed_form": Fraction(8, 3**m - 1),
        "nominal_delta": Fraction(22, 3**m - 1),
        "nominal_bound": bound,
        "bound_holds": rep.thickness >= bound,
        # the exact thickness: (3^m-49)/24 at generations 1-2, 12*9^(j-1) lower
        # at generations 2j+1 and 2j+2, frozen at (5*3^m-117)/216 from m-3 on
        "realized_closed_form": Fraction(3**m - 49, 24) - Fraction(3 * (9**j - 1), 2),
        "stage": stage,
        "thickness_report": rep,
    }


# ---------------------------------------------------------------------------
# Gap Lemma trichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapLemmaVerdict:
    verdict: str  # K1-in-gap-of-K2 | K2-in-gap-of-K1 | intervals-intersect | inconclusive-at-this-generation
    tau_product: float


def _hull_in_gap(lows: np.ndarray, highs: np.ndarray, o_lows: np.ndarray, o_highs: np.ndarray) -> bool:
    """Whether the hull of one stage lies in a complementary component of
    the other, bounded or not; both stages' grid arrays on one scale."""
    lo, hi = lows[0], highs[-1]
    # the other's intervals before i end below lo; the component from
    # o_highs[i - 1] (or -inf) to o_lows[i] (or +inf) holds lo
    i = int(np.searchsorted(o_highs, lo))
    return i == len(o_lows) or hi < o_lows[i]


def gap_lemma_check(k1: CantorStage, k2: CantorStage) -> GapLemmaVerdict:
    """Trichotomy verdict for two stages on a common line.

    `intervals-intersect` means some closed intervals overlap at this
    generation: the checkable surrogate for nonempty Cantor intersection.
    Containment counts both bounded gaps and the unbounded components beyond
    the other stage's hull.  An empty stage raises `EmptyStageError`.

    Both stages are compared as grid integers over the lcm of their scales.
    Each stage's intervals are sorted and disjoint, so an interval of K1
    meets K2 iff it meets the first interval of K2 ending at or after its
    left end: one `searchsorted` decides every interval.
    """
    if not (len(k1) and len(k2)):
        raise EmptyStageError("the Gap Lemma check needs two nonempty stages")
    try:
        tau = float(thickness(k1).thickness) * float(thickness(k2).thickness)
    except ThicknessUndefinedError:
        tau = float("nan")
    scale = math.lcm(k1.scale, k2.scale)
    (a_lo, a_hi), (b_lo, b_hi) = (_rescaled(k, scale // k.scale) for k in (k1, k2))
    j = np.searchsorted(b_hi, a_lo)
    met = j < len(b_lo)
    if np.any(b_lo[j[met]] <= a_hi[met]):
        return GapLemmaVerdict("intervals-intersect", tau)
    if _hull_in_gap(a_lo, a_hi, b_lo, b_hi):
        return GapLemmaVerdict("K1-in-gap-of-K2", tau)
    if _hull_in_gap(b_lo, b_hi, a_lo, a_hi):
        return GapLemmaVerdict("K2-in-gap-of-K1", tau)
    return GapLemmaVerdict("inconclusive-at-this-generation", tau)


# ---------------------------------------------------------------------------
# Markov branch systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovBranchSystem:
    """Expanding affine branches over an ambient interval; each branch's own
    [lo, hi] is its domain."""

    branches: tuple
    ambient: tuple

    def __post_init__(self):
        prev_hi = None
        for br in self.branches:
            if abs(br.slope) <= 1:
                raise ValueError(f"branch on {(br.lo, br.hi)} is not expanding (|slope|={br.slope})")
            if prev_hi is not None and not br.lo >= prev_hi:
                raise ValueError("branch domains must be disjoint and ordered")
            prev_hi = br.hi


def _refine(system: MarkovBranchSystem, generation: int, source: str) -> CantorStage:
    """Generation-g survivor set of a system of rational affine branches:
    the sorted intervals of points whose first g-1 images stay in the cover.

    The refinement runs on the integer grid 1/scale.  The scale starts at the
    least common denominator of the ambient, the cover endpoints and the
    branch intercepts, and each generation multiplies it by L, the lcm of
    the slope numerators.  A branch x -> (p/q)x + c pulls a grid value Y
    back to k*Y - shift, k = (L/p)*q and shift = k*c*scale, so a generation
    costs one bisection per branch plus one array expression per branch
    over the run its image covers (reversed for a negative slope); the
    output comes out sorted.  Each generation picks the arrays' dtype from
    a Python-int bound on k*Y - shift (see `_grid_array`).
    """
    if generation < 1:
        raise ValueError("generation must be >= 1")
    branches = system.branches
    cover = [v for br in branches for v in (br.lo, br.hi)]
    intercepts = [br.intercept for br in branches]
    slopes = [br.slope for br in branches]
    if not all(isinstance(v, numbers.Rational) for v in (*system.ambient, *cover, *intercepts, *slopes)):
        raise ValueError("Markov refinement needs rational branch domains, slopes, intercepts and ambient")
    grid, scale = _on_grid([*system.ambient, *cover, *intercepts])
    amb, lows, highs = grid[:2], grid[2:2 + len(cover):2], grid[3:2 + len(cover):2]
    magnitude = max(map(abs, grid[2:2 + len(cover)]), default=0)
    mult = math.lcm(*(slope.numerator for slope in slopes))
    ks = [mult // slope.numerator * slope.denominator for slope in slopes]
    for _ in range(generation - 1):
        shifts = [int(k * br.intercept * scale) for k, br in zip(ks, branches)]
        bound = max((abs(k) * max(magnitude, 1) + abs(shift) for k, shift in zip(ks, shifts)), default=0)
        lows, highs = _grid_array(lows, bound), _grid_array(highs, bound)
        nlows, nhighs = [], []
        for br, k, shift in zip(branches, ks, shifts):
            lo, hi = br.lo, br.hi
            img_lo, img_hi = sorted((br(lo) * scale, br(hi) * scale))
            # the run of the sorted stage that meets (img_lo, img_hi) in more than a point
            first = np.searchsorted(highs, math.floor(img_lo), "right")
            stop = np.searchsorted(lows, math.ceil(img_hi), "left")
            for j in (first, stop - 1) if first < stop else ():
                if lows[j] < img_lo or highs[j] > img_hi:
                    raise ConstructionError(
                        f"branch image of [{lo},{hi}] covers "
                        f"[{Fraction(int(lows[j]), scale)},{Fraction(int(highs[j]), scale)}] only partially"
                    )
            a, b = lows[first:stop], highs[first:stop]
            if k < 0:
                a, b = b[::-1], a[::-1]
            nlows.append(k * a - shift)
            nhighs.append(k * b - shift)
        if not sum(map(len, nlows)):
            raise ValueError("branch preimages died out; system is not Markov over its cover")
        lows, highs = np.concatenate(nlows), np.concatenate(nhighs)
        magnitude = max(max(-int(a.min()), int(a.max())) for a in (lows, highs))
        scale *= mult
        amb = [mult * v for v in amb]
    bound = max(2 * magnitude, scale)
    return CantorStage._from_grid(
        scale, amb, _grid_array(lows, bound), _grid_array(highs, bound), generation, source, system.ambient
    )


def markov_cantor(system: MarkovBranchSystem, generation: int) -> CantorStage:
    """Generation-g surviving set of the branch system: points whose first
    g-1 images stay inside the branch domains.  Branch data and the ambient
    must be rational (`ValueError`), and each branch image must cover every
    domain it meets whole (`ConstructionError`)."""
    return _refine(system, generation, "markov")


def middle_thirds_system() -> MarkovBranchSystem:
    one3, two3 = Fraction(1, 3), Fraction(2, 3)
    return MarkovBranchSystem(
        branches=(
            AffineBranch(Fraction(3), Fraction(0), Fraction(0), one3),
            AffineBranch(Fraction(3), Fraction(-2), two3, Fraction(1)),
        ),
        ambient=(Fraction(0), Fraction(1)),
    )


def nmap_restriction_system(m: int) -> MarkovBranchSystem:
    """The N-map's branches restricted to the first-generation cover of the
    m-orbit family, whose refinement `build_nmap_cantor` builds."""
    data = _build_nmap_scaffold(m)
    s = n_map()
    branches = []
    for lo, hi in sorted(data.first_generation):
        br = s.branches[s.branch_index(lo)]
        if not br.contains(hi):
            raise ConstructionError(f"first-generation interval [{lo},{hi}] straddles a kink")
        branches.append(AffineBranch(br.slope, br.intercept, lo, hi))
    return MarkovBranchSystem(tuple(branches), data.ambient)

