"""One-dimensional dynamics: piecewise-affine N-shaped maps, odd cubic maps,
the sine conjugacy between them, a periodic-orbit solver, and the package's
bracketed root finder (`brentq`, and `brent_lockstep` for several
searches at once).

The maps are polymorphic over the scalar type.  Feeding `fractions.Fraction`
inputs into a map whose coefficients are rational produces exact rational
outputs, which is what keeps the Cantor-set constructions in
`tangencylab.cantor` free of rounding error.  The periodic-orbit solver is
binary64 only: it scans maps that evaluate numpy arrays, such as `Cubic1D`
with float coefficients.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "brentq",
    "brent_lockstep",
    "DomainError",
    "AffineBranch",
    "PiecewiseAffineMap",
    "n_map",
    "Cubic1D",
    "conjugacy",
    "conjugacy_defect",
    "PeriodicOrbit1D",
    "find_periodic",
]

HALF = Fraction(1, 2)
BRENT_RTOL = 4 * 2.220446049250313e-16  # relative part of brentq's tolerance
BRENT_MAXITER = 100


def brentq(f, a, b, xtol: float) -> float:
    """A root of `f` in [a, b] to within xtol + BRENT_RTOL*|root| (xtol > 0),
    by Brent's method (Brent 1973, ch. 4).

    Drives one `_brent` search, evaluating f at each point it asks for, so
    it takes the same iterates as `scipy.optimize.brentq(f, a, b,
    xtol=xtol)`; `brent_lockstep` drives several searches at once on the
    same core.  f(a) and f(b) must differ in sign (else ValueError); a NaN
    value raises ValueError and no convergence within BRENT_MAXITER
    iterations raises RuntimeError.
    """
    fx = [0.0]
    for x in _brent(a, b, xtol, fx):
        fx[0] = f(x)
    return fx[0]


def brent_lockstep(evaluate, brackets, xtol: float) -> list:
    """Brent searches on every (a, b) of `brackets` in lockstep, each taking
    `brentq`'s iterates.

    Each round calls `evaluate(rows)` once, with a (k, x) row for every live
    search k, x the point it asks for next, and reads back each row's value,
    or the exception its evaluation raised, which ends that search alone.
    Returns, per bracket, the root or the exception that ended its search:
    `brentq`'s ValueError or RuntimeError, or the evaluation's.
    """
    boxes = [[0.0] for _ in brackets]
    searches = [_brent(a, b, xtol, box) for (a, b), box in zip(brackets, boxes)]
    out: list = [None] * len(searches)
    rows = [(k, next(search)) for k, search in enumerate(searches)]
    while rows:
        asked, rows = rows, []
        for (k, _), fx in zip(asked, evaluate(asked)):
            if isinstance(fx, BaseException):
                out[k] = fx
                continue
            boxes[k][0] = fx
            try:
                x = next(searches[k], None)
            except (ValueError, RuntimeError) as exc:
                out[k] = exc
                continue
            if x is None:
                out[k] = boxes[k][0]
            else:
                rows.append((k, x))
    return out


def _brent_value(x, fx) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent(a, b, xtol, fx: list):
    """Brent's method as a generator: yields each point it needs f at and
    reads f there from fx[0] when resumed; on ending it leaves the root in
    fx[0].  A line-for-line port of scipy's `brentq.c`; raises as `brentq`
    documents."""
    xpre, xcur = float(a), float(b)
    yield xpre
    fpre = _brent_value(xpre, fx[0])
    yield xcur
    fcur = _brent_value(xcur, fx[0])
    if fpre == 0:
        fx[0] = xpre
        return
    if fcur == 0:
        fx[0] = xcur
        return
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            fx[0] = xcur
            return

        stry = math.nan  # fails the short-step test: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN here, which bisects as well
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        yield xcur
        fcur = _brent_value(xcur, fx[0])
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


class DomainError(ValueError):
    """Input lies outside a map's domain."""


@dataclass(frozen=True)
class AffineBranch:
    """One affine piece `x -> slope*x + intercept` on a half-open/closed interval."""

    slope: Fraction
    intercept: Fraction
    lo: Fraction
    hi: Fraction
    closed_lo: bool = True
    closed_hi: bool = True

    def __call__(self, x):
        return self.slope * x + self.intercept

    def inverse(self, y):
        return (y - self.intercept) / self.slope

    def contains(self, x) -> bool:
        above = x >= self.lo if self.closed_lo else x > self.lo
        below = x <= self.hi if self.closed_hi else x < self.hi
        return above and below


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """A map assembled from disjoint affine branches covering an interval."""

    branches: tuple[AffineBranch, ...]

    @property
    def domain(self):
        return self.branches[0].lo, self.branches[-1].hi

    def branch_index(self, x) -> int:
        for i, b in enumerate(self.branches):
            if b.contains(x):
                return i
        lo, hi = self.domain
        raise DomainError(f"{x} outside domain [{lo}, {hi}]")

    def __call__(self, x):
        return self.branches[self.branch_index(x)](x)


def n_map() -> PiecewiseAffineMap:
    """The N-shaped slope-3 map on [-3/2, 3/2].

    Branches: -3x-3 on [-3/2,-1/2), 3x on [-1/2,1/2], -3x+3 on (1/2,3/2].
    The half-open conventions at the turning points +-1/2 are part of the
    contract; both adjacent branches agree in value there.
    """
    f32 = Fraction(3, 2)
    return PiecewiseAffineMap(
        (
            AffineBranch(Fraction(-3), Fraction(-3), -f32, -HALF, True, False),
            AffineBranch(Fraction(3), Fraction(0), -HALF, HALF, True, True),
            AffineBranch(Fraction(-3), Fraction(3), HALF, f32, False, True),
        )
    )


@dataclass(frozen=True)
class Cubic1D:
    """The odd-leaning cubic family y -> -y^3 + mu*y + nu.

    `mu`, `nu` may be ints, Fractions or floats; evaluation preserves the
    scalar type (rational in -> rational out).  numpy arrays also pass
    through unharmed.  An array's cube is `y*y*y`, as numpy's `power` costs
    many products per element; a scalar's stays `y**3`, the C library's
    pow, which the roots and certificates are computed with.

    `iterate` is the scalar orbit loop: it writes `__call__`'s scalar
    expression inline, so n steps give the bits of n calls without n
    dispatches.  `find_periodic` runs on it.
    """

    mu: object
    nu: object = 0

    def __call__(self, y, order: int = 0):
        if order == 0:
            if isinstance(y, np.ndarray):
                return -(y * y * y) + self.mu * y + self.nu
            return -(y**3) + self.mu * y + self.nu
        if order == 1:
            return -3 * y**2 + self.mu
        if order == 2:
            return -6 * y
        if order == 3:
            return -6 + 0 * y  # constant; 0*y keeps array shape for ndarray input
        raise ValueError(f"order must be 0..3, got {order}")

    def iterate(self, y, steps: int):
        """The map applied `steps` times: an array through `__call__`, a
        scalar by the same expression inline."""
        if isinstance(y, np.ndarray):
            for _ in range(steps):
                y = self(y)
            return y
        mu, nu = self.mu, self.nu
        for _ in range(steps):
            y = -(y**3) + mu * y + nu
        return y

    def critical_points(self):
        """The pair (-sqrt(mu/3), +sqrt(mu/3)); requires mu > 0."""
        if not self.mu > 0:
            raise ValueError(f"no real critical pair for mu={self.mu} <= 0")
        c = math.sqrt(self.mu / 3)
        return (-c, c)

    def schwarzian(self, y):
        """Schwarzian derivative F'''/F' - (3/2)(F''/F')^2 from the raw derivatives."""
        d1 = self(y, 1)
        if d1 == 0:
            raise ValueError(f"Schwarzian singular at critical point y={y}")
        d2, d3 = self(y, 2), self(y, 3)
        r = d2 / d1
        return d3 / d1 - 3 * r * r / 2

    def schwarzian_closed(self, y):
        """Closed form -6(6y^2 + mu) / (-3y^2 + mu)^2.

        Expanding the defining ratio combination for this cubic gives the
        leading factor 6; the form is negative for every mu > 0 away from
        the critical points, which is all the certificate checks use.
        """
        return -6 * (6 * y**2 + self.mu) / (-3 * y**2 + self.mu) ** 2


def conjugacy(x):
    """h(x) = 2 sin(pi x / 3), the change of variable from [-3/2,3/2] to [-2,2]."""
    return 2.0 * math.sin(math.pi * x / 3.0)


def conjugacy_defect(x):
    """|h(S(x)) - F(h(x))| with F the mu=3, nu=0 cubic; zero iff the diagrams commute.

    Takes a scalar (returns a float) or an array (returns an array).  S is
    evaluated branchwise with the N-map's half-open conventions; a point
    outside [-3/2, 3/2] raises `DomainError`.
    """
    xs = np.asarray(x, dtype=float)
    inside = (xs >= -1.5) & (xs <= 1.5)
    if not inside.all():
        bad = xs[~inside].flat[0]
        raise DomainError(f"{bad} outside domain [-3/2, 3/2]")
    sx = np.where(xs < -0.5, -3.0 * xs - 3.0, np.where(xs <= 0.5, 3.0 * xs + 0.0, -3.0 * xs + 3.0))

    def h(v):  # `conjugacy` on arrays
        return 2.0 * np.sin(np.pi * v / 3.0)

    # F(y) = -y^3 + 3y as `Cubic1D(3.0, 0.0)` evaluates it on a float:
    # float_power is the C library's pow, which `y**3` calls
    hx = h(xs)
    d = np.abs(h(sx) - (-np.float_power(hx, 3) + 3.0 * hx + 0.0))
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class PeriodicOrbit1D:
    """A periodic orbit: points listed from the smallest, with its multiplier."""

    points: tuple
    period: int
    multiplier: object
    residual: float
    resolved: bool = True

    def __post_init__(self):
        if len(self.points) != self.period:
            raise ValueError("points/period mismatch")


def _divisors(p: int) -> list[int]:
    return [d for d in range(1, p) if p % d == 0]


def _cells_per_unit(period: int) -> int:
    # slope magnitude is 3 per step for the maps treated here,
    # so 4*3^p cells per unit length cannot skip a branch chain
    return 4 * 3**period


def find_periodic(fmap, period: int, domain: tuple) -> list[PeriodicOrbit1D]:
    """All period-`period` orbits of `fmap` found inside `domain`, in binary64.

    `fmap` must evaluate numpy arrays.  F^p(y) - y is evaluated on a uniform
    grid of 4*3^p cells per unit length, and the cells where it changes sign
    are visited once, in ascending order.  Brent's method narrows each one
    to width 1e-14 (robust against the slope-3^p stiffness that defeats
    Newton here), and the root is accepted or rejected at once.  Orbits are
    deduplicated by membership, represented by their smallest point, and
    carry the multiplier along the cycle.

    The grid assumes each cell holds at most one root of F^p(y) - y, which
    is what 4*3^p cells per unit buys for slope-3 maps.  So once an orbit is
    accepted, every cell that strictly holds one of its points holds no
    other root, and it is skipped unsolved: solving it would give a later
    point of that orbit, which the deduplication drops.

    Past the grid everything is scalar.  For a `Cubic1D` the multi-step
    compositions run in `Cubic1D.iterate`'s loop, with the bits of
    repeated `fmap(y)`, and the multiplier is the product of `fmap(y, 1)`
    along the cycle; any other map is called once per step.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    lo, hi = domain
    return _scan(fmap, period, float(lo), float(hi), _cells_per_unit(period))


def _iter_map(fmap, x, steps):
    if isinstance(fmap, Cubic1D):
        return fmap.iterate(x, steps)
    for _ in range(steps):
        x = fmap(x)
    return x


def _scan(fmap, period, lo, hi, cells_per_unit):
    n_cells = max(8, math.ceil(cells_per_unit * (hi - lo)))
    xs = np.linspace(lo, hi, n_cells + 1)
    ys = xs
    for _ in range(period):
        ys = np.asarray(fmap(ys), dtype=float)
    g = ys - xs
    ga, gb = g[:-1], g[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.flatnonzero(np.isfinite(ga) & np.isfinite(gb) & ((ga == 0.0) | (ga * gb < 0.0)))

    def gap(x):
        return _iter_map(fmap, x, period) - x

    orbits: list[PeriodicOrbit1D] = []
    seen: list = []  # representatives, sorted
    covered: set = set()  # cells strictly holding a point of an accepted orbit

    def accept(x):
        orbit = _accept(fmap, x, period, seen)
        if orbit is not None:
            orbits.append(orbit)
            # xs[k-1] < q <= xs[k]; the cell k-1 holds q strictly unless q == xs[k]
            for q, k in zip(orbit.points, np.searchsorted(xs, orbit.points).tolist()):
                if 0 < k <= n_cells and q < xs[k]:
                    covered.add(k - 1)

    for i in cells.tolist():
        if i in covered:
            continue
        # numpy's y**3 and the C library's pow may differ in the last bit, so
        # each flagged cell is re-checked in the scalar arithmetic brentq uses
        a, b = float(xs[i]), float(xs[i + 1])
        ga, gb = gap(a), gap(b)
        if ga == 0.0:
            accept(a)
        elif gb == 0.0:
            accept(b)
        elif (ga < 0.0) != (gb < 0.0):
            known = {a: ga, b: gb}  # brentq starts by evaluating both ends again
            accept(brentq(lambda x: known[x] if x in known else gap(x), a, b, xtol=1e-14))
        else:  # the sign change was rounding: the end nearer zero is a root to within it
            accept(a if abs(ga) <= abs(gb) else b)
    if np.isfinite(g[-1]) and g[-1] == 0.0:
        accept(float(xs[-1]))
    orbits.sort(key=lambda o: float(o.points[0]))
    return orbits


def _orbit_of(fmap, x, period):
    pts = [x]
    for _ in range(period - 1):
        pts.append(fmap(pts[-1]))
    return pts


def _multiplier(fmap, orbit):
    m = 1.0
    if isinstance(fmap, Cubic1D):
        for x in orbit:
            m *= fmap(x, 1)
        return m
    h = 1e-7
    for x in orbit:
        m *= (fmap(x + h) - fmap(x - h)) / (2 * h)
    return m


def _accept(fmap, x, period, seen):
    """The orbit of the root `x`, or None if its period is not minimal or
    its representative lies within 1e-9 of one in `seen` (sorted, and
    updated in place when the orbit is new)."""
    for d in _divisors(period):
        if abs(_iter_map(fmap, x, d) - x) <= 1e-11:
            return None
    orbit = _orbit_of(fmap, x, period)
    rep = min(orbit)
    # the nearest representative on either side decides the duplicate test
    i = bisect_left(seen, rep)
    if any(abs(rep - s) <= 1e-9 for s in seen[max(i - 1, 0):i + 1]):
        return None
    seen.insert(i, rep)
    k = orbit.index(rep)
    orbit = orbit[k:] + orbit[:k]
    res = abs(float(_iter_map(fmap, rep, period) - rep))
    return PeriodicOrbit1D(
        points=tuple(orbit),
        period=period,
        multiplier=_multiplier(fmap, orbit),
        residual=res,
        resolved=res <= 1e-10 * max(1.0, abs(float(rep))),
    )
