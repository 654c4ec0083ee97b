"""One-dimensional dynamics: piecewise-affine N-shaped maps, odd cubic maps,
the sine conjugacy between them, and periodic-orbit solvers.

Everything here is polymorphic over the scalar type.  Feeding
`fractions.Fraction` inputs into a map whose coefficients are rational
produces exact rational outputs, which is what keeps the Cantor-set
constructions in `tangencylab.cantor` free of rounding error.  Float inputs
take the ordinary binary64 path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

__all__ = [
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

    @property
    def range(self):
        a, b = self(self.lo), self(self.hi)
        return (a, b) if a <= b else (b, a)


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

    def deriv(self, x):
        return self.branches[self.branch_index(x)].slope

    def iterate(self, x, steps: int):
        for _ in range(steps):
            x = self(x)
        return x


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
    through unharmed.
    """

    mu: object
    nu: object = 0

    def __call__(self, y, order: int = 0):
        if order == 0:
            return -(y**3) + self.mu * y + self.nu
        if order == 1:
            return -3 * y**2 + self.mu
        if order == 2:
            return -6 * y
        if order == 3:
            return -6 + 0 * y  # constant; 0*y keeps array shape for ndarray input
        raise ValueError(f"order must be 0..3, got {order}")

    def iterate(self, y, steps: int):
        for _ in range(steps):
            y = self(y)
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
        return d3 / d1 - 1.5 * r * r

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


def conjugacy_defect(x) -> float:
    """|h(S(x)) - F(h(x))| with F the mu=3, nu=0 cubic; zero iff the diagrams commute."""
    s = n_map()
    f = Cubic1D(3.0, 0.0)
    return abs(conjugacy(s(x)) - f(conjugacy(x)))


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


def find_periodic(
    fmap,
    period: int,
    domain: tuple,
    tol: float = 1e-12,
    cells_per_unit: int | None = None,
) -> list[PeriodicOrbit1D]:
    """All period-`period` orbits of `fmap` found inside `domain`.

    Bracketing by uniform subdivision of F^p(y) - y followed by Brent's
    method to width 1e-14 inside each sign-change cell (robust against the
    slope-3^p stiffness that defeats Newton here).  Orbits are deduplicated
    by membership, represented by their smallest point, and carry the
    multiplier along the cycle.

    Piecewise-affine maps with rational branch data and rational domain
    endpoints take an exact path: the itinerary of each bracket is pinned and
    the fixed point of the resulting affine composition is solved in
    `Fraction` arithmetic.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if cells_per_unit is None:
        cells_per_unit = _cells_per_unit(period)
    lo, hi = domain
    exact = isinstance(fmap, PiecewiseAffineMap) and isinstance(lo, (Fraction, int)) and isinstance(hi, (Fraction, int))
    if exact:
        roots = _exact_roots(fmap, period, Fraction(lo), Fraction(hi), cells_per_unit)
    else:
        roots = _float_roots(fmap, period, float(lo), float(hi), cells_per_unit, tol)
    return _assemble_orbits(fmap, roots, period, tol, exact)


def _iter_map(fmap, x, steps):
    for _ in range(steps):
        x = fmap(x)
    return x


def _float_roots(fmap, period, lo, hi, cells_per_unit, tol):
    n_cells = max(8, math.ceil(cells_per_unit * (hi - lo)))
    xs = np.linspace(lo, hi, n_cells + 1)
    try:
        ys = xs.copy()
        for _ in range(period):
            ys = np.asarray(fmap(ys), dtype=float)
        g = ys - xs
    except (DomainError, TypeError, ValueError):
        g = np.empty_like(xs)
        for i, x in enumerate(xs):
            try:
                g[i] = _iter_map(fmap, float(x), period) - x
            except DomainError:
                g[i] = np.nan
    roots = []
    for i in range(n_cells):
        a, b, ga, gb = xs[i], xs[i + 1], g[i], g[i + 1]
        if not (np.isfinite(ga) and np.isfinite(gb)):
            continue
        if ga == 0.0:
            roots.append(float(a))
            continue
        if ga * gb < 0.0:
            root = brentq(lambda x: _iter_map(fmap, x, period) - x, float(a), float(b), xtol=1e-14)
            roots.append(float(root))
    if np.isfinite(g[-1]) and g[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _itinerary(fmap: PiecewiseAffineMap, x, period):
    seq = []
    for _ in range(period):
        i = fmap.branch_index(x)
        seq.append(i)
        x = fmap.branches[i](x)
    return tuple(seq)


def _exact_roots(fmap: PiecewiseAffineMap, period, lo, hi, cells_per_unit):
    n_cells = max(4, math.ceil(cells_per_unit * float(hi - lo)))
    width = (hi - lo) / n_cells
    roots = []
    for i in range(n_cells):
        a = lo + i * width
        b = lo + (i + 1) * width
        try:
            ga = _iter_map(fmap, a, period) - a
            gb = _iter_map(fmap, b, period) - b
        except DomainError:
            continue
        if ga == 0:
            roots.append(a)
        if gb == 0 and i == n_cells - 1:
            roots.append(b)
        if ga * gb < 0:
            r = _exact_cell_root(fmap, period, a, b)
            if r is not None:
                roots.append(r)
    return roots


def _exact_cell_root(fmap: PiecewiseAffineMap, period, a, b):
    # shrink the bracket until both ends share one branch itinerary, then the
    # composition is a single affine map whose fixed point is exact
    for _ in range(256):
        ia, ib = _itinerary(fmap, a, period), _itinerary(fmap, b, period)
        if ia == ib:
            slope, intercept = Fraction(1), Fraction(0)
            for k in ia:
                br = fmap.branches[k]
                slope, intercept = br.slope * slope, br.slope * intercept + br.intercept
            if slope == 1:
                return None  # degenerate: identity composition, no isolated root
            r = intercept / (1 - slope)
            if a <= r <= b and _itinerary(fmap, r, period) == ia:
                return r
            return None
        m = (a + b) / 2
        gm = _iter_map(fmap, m, period) - m
        ga = _iter_map(fmap, a, period) - a
        if gm == 0:
            return m
        if ga * gm < 0:
            b = m
        else:
            a = m
    return None


def _orbit_of(fmap, x, period):
    pts = [x]
    for _ in range(period - 1):
        pts.append(fmap(pts[-1]))
    return pts


def _multiplier(fmap, orbit, exact):
    m = Fraction(1) if exact else 1.0
    for x in orbit:
        if hasattr(fmap, "deriv"):
            m *= fmap.deriv(x)
        elif isinstance(fmap, Cubic1D):
            m *= fmap(x, 1)
        else:
            h = 1e-7
            m *= (fmap(x + h) - fmap(x - h)) / (2 * h)
    return m


def _assemble_orbits(fmap, roots, period, tol, exact):
    eq_tol = 0 if exact else max(tol, 1e-11)
    orbits: list[PeriodicOrbit1D] = []
    seen: list = []
    for x in roots:
        minimal = True
        for d in _divisors(period):
            if abs(_iter_map(fmap, x, d) - x) <= eq_tol:
                minimal = False
                break
        if not minimal:
            continue
        orbit = _orbit_of(fmap, x, period)
        rep = min(orbit)
        if any(abs(rep - s) <= (eq_tol if exact else 1e-9) for s in seen):
            continue
        seen.append(rep)
        k = orbit.index(rep)
        orbit = orbit[k:] + orbit[:k]
        res = abs(float(_iter_map(fmap, rep, period) - rep))
        orbits.append(
            PeriodicOrbit1D(
                points=tuple(orbit),
                period=period,
                multiplier=_multiplier(fmap, orbit, exact),
                residual=res,
                resolved=res <= max(tol, 1e-10) * max(1.0, abs(float(rep))),
            )
        )
    orbits.sort(key=lambda o: float(o.points[0]))
    return orbits
