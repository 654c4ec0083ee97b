"""One-dimensional dynamics: piecewise-affine N-shaped maps, odd cubic maps,
the sine conjugacy between them, a periodic-orbit solver, and the package's
bracketed root finder (`brentq`, and `brent_lockstep` for several
searches at once).

The maps are polymorphic over the scalar type.  Feeding `fractions.Fraction`
inputs into a map whose coefficients are rational produces exact rational
outputs, which is what keeps the Cantor-set constructions in
`tangencylab.cantor` free of rounding error.  The periodic-orbit solver is
binary64 only, and takes a `Cubic1D`: a census by cylinders of the cubic's
laps (`find_periodic`).
"""
from __future__ import annotations

import math
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
    pow, which the roots and certificates are computed with.  `pointwise`
    carries the scalar bits on arrays.
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

    def pointwise(self, y, order: int = 0):
        """`self(v, order)` for every float v of the array `y`, bit for bit,
        for order 0 or 1.  The powers are `np.float_power`, the C library's
        pow that scalar `**` calls; numpy's `y*y*y` and `y**2` miss its last
        bit on some floats."""
        mu = float(self.mu)
        if order == 0:
            return mu * y - np.float_power(y, 3) + float(self.nu)
        return -3.0 * np.float_power(y, 2) + mu

    def iterate(self, y, steps: int):
        """The map applied `steps` times."""
        return _iterate(self, y, steps)

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

    hx = h(xs)  # F(y) = -y^3 + 3y as `Cubic1D(3.0, 0.0)` evaluates it on a float
    d = np.abs(h(sx) - Cubic1D(3.0, 0.0).pointwise(hx))
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


def find_periodic(fmap, period: int, domain: tuple) -> list[PeriodicOrbit1D]:
    """All period-`period` orbits of the cubic `fmap` lying wholly inside
    `domain`, in binary64, sorted by their smallest points.

    A census by cylinders (Milnor & Thurston 1988).  The cylinder of a word
    over F's laps L, M, R holds the points whose first p steps follow it
    and stay in the domain; F^p is monotone on it.  An orbit of minimal
    period p spells a primitive word and has a point in the cylinder of
    each rotation; only the leftmost, which holds its smallest point, is
    solved.  Where F^p increases, F's negative Schwarzian (Singer 1978)
    makes g = F^p(y) - y monotone between the at most two points where
    (F^p)' = 1, where a cylinder that could hold several roots is cut.
    Each piece across which g changes sign holds one root, found by
    Brent's method to width 1e-14 in array passes with the bits of scalar
    calls (`Cubic1D.pointwise`).

    Raises TypeError for a map that is not a `Cubic1D`, ValueError for a
    domain that is not finite with lo < hi or at whose ends F overflows
    (|y| beyond about 5e102) and for mu <= 0 (no laps), and RuntimeError
    for a search that fails.
    """
    if not isinstance(fmap, Cubic1D):
        raise TypeError(f"find_periodic solves a Cubic1D, not a {type(fmap).__name__}")
    if period < 1:
        raise ValueError("period must be >= 1")
    lo, hi = (float(v) for v in domain)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"domain must be finite with lo < hi, got {domain}")
    try:
        fmap(lo), fmap(hi)  # the outer laps' images end there
    except OverflowError:
        raise ValueError(f"F overflows binary64 at an end of the domain {domain}") from None
    step, c = fmap.pointwise, fmap.critical_points()[1]
    with np.errstate(all="ignore"):
        a, b, up = _cylinders(fmap, period, lo, hi, c)
        ends = np.stack([a, b], axis=1)
        ga, gb = (_iterate(step, ends, period) - ends).T
        # F^p increasing, its image overlapping the cylinder, g not rising from <= 0 to >= 0
        split = up & (ga < b - a) & (gb > a - b) & ((ga > 0) | (gb < 0))
        cuts = ends.copy()  # a cut not made is the end next to it
        if split.any():
            cuts[split] = _unit_slope_points(fmap, period, a[split], b[split])
        xs = np.column_stack([a, cuts, b])
        gs = np.column_stack([ga, _iterate(step, cuts, period) - cuts, gb])
        x0, x1, g0, g1 = (v.ravel() for v in (xs[:, :-1], xs[:, 1:], gs[:, :-1], gs[:, 1:]))
        rows = (x0 < x1) & ~(np.sign(g0) * np.sign(g1) > 0)  # a value that is not finite fails below
        x, ok = _brent_rows(lambda v: _iterate(step, v, period) - v, x0[rows], x1[rows], g0[rows], g1[rows], 1e-14)
        if not ok.all():
            raise RuntimeError(f"period {period}: Brent's method failed on {np.count_nonzero(~ok)} cylinder pieces")
        line, mult = [x], np.ones(len(x))
        for _ in range(period):  # the orbit from its smallest point, and the slopes along it
            mult = mult * step(line[-1], 1)
            line.append(step(line[-1]))
        pts, res = np.stack(line[:-1], axis=1).tolist(), np.abs(line[-1] - x).tolist()
    return sorted((PeriodicOrbit1D(points=tuple(o), period=period, multiplier=m, residual=r,
                                   resolved=r <= 1e-10 * max(1.0, abs(o[0])))
                   for o, r, m in zip(pts, res, mult.tolist())), key=lambda o: o.points[0])


def _cylinders(f, period, lo, hi, c):
    """The cylinder [a, b] of each primitive word kept by the leftmost rule,
    and whether F^p increases on it: the domain pulled back through the
    word's letters, last first, clipped to each lap's image and to the lap;
    an empty cylinder is dropped with all its extensions."""
    laps = [(k, l0, l1, *sorted((f(l0), f(l1))))  # L, M, R, each with its image
            for k, (l0, l1) in enumerate([(lo, min(hi, -c)), (max(lo, -c), min(hi, c)), (max(lo, c), hi)]) if l0 <= l1]
    codes, a, b, up = np.zeros(1, dtype=np.int64), np.array([lo]), np.array([hi]), np.ones(1, dtype=bool)
    for j in range(period):
        parts = []
        for k, l0, l1, i0, i1 in laps:
            ts = (np.maximum(a, i0), np.minimum(b, i1))[::1 if k == 1 else -1]  # L and R reverse order
            y0, y1 = (_preimage(f, k - 1, t, c) for t in ts)
            parts.append((codes + k * 3**j, np.maximum(y0, l0), np.minimum(y1, l1), up ^ (k != 1)))
        codes, a, b, up = (np.concatenate(v) for v in zip(*parts))
        live = a <= b
        codes, a, b, up = codes[live], a[live], b[live], up[live]
    # keep a word if its cylinder precedes those of all its other rotations
    # (empty ones last); a word equal to a rotation of itself is not primitive
    rank = np.full(3**period, len(codes))
    rank[codes[np.lexsort((codes, a))]] = np.arange(len(codes))
    keep, rot, top = np.ones(len(codes), dtype=bool), codes, 3 ** (period - 1)
    for _ in range(period - 1):
        rot = rot % top * 3 + rot // top
        keep &= rank[rot] > rank[codes]
    return a[keep], b[keep], up[keep]


def _preimage(f, lap, t, c):
    """F's inverse on lap -1, 0 or 1 (L, M, R) at the array t.  With r =
    (t - nu)/(2c^3), it is 2c sin((lap*pi -+ asin r)/3), r clipped to
    [-1, 1] against rounding at a lap's image end; on L for r > 1 and on R
    for r < -1, lap*2c cosh(acosh |r| / 3), which meets it at |r| = 1."""
    r = (t - float(f.nu)) / (2 * c**3)
    y = 2 * c * np.sin((lap * math.pi + (-1 if lap else 1) * np.arcsin(np.clip(r, -1.0, 1.0))) / 3)
    return np.where(-lap * r > 1, lap * 2 * c * np.cosh(np.arccosh(np.maximum(-lap * r, 1.0)) / 3), y)


def _unit_slope_points(f, period, a, b):
    """Per cylinder [a, b] on which F^p increases, the points where
    (F^p)' = 1 left and right of a point m where it exceeds 1, or a and b
    where there is none.  (F^p)' is unimodal there, by the minimum
    principle; m is the best point of a golden section for its maximum,
    stopped once every row has found a point above 1."""
    def slope(y):  # (F^p)'(y) - 1
        d = np.ones_like(y)
        for _ in range(period):
            d, y = d * f.pointwise(y, 1), f.pointwise(y)
        return d - 1.0

    inv, lo, hi = (math.sqrt(5.0) - 1.0) / 2.0, a, b
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    s1, s2 = slope(x1), slope(x2)
    for _ in range(40):  # the bracket shrinks 0.618^40 = 4e-9-fold
        if (np.maximum(s1, s2) > 0).all():
            break
        right = s1 < s2  # the maximum lies in [x1, hi]
        lo, hi = np.where(right, x1, lo), np.where(right, hi, x2)
        x = np.where(right, lo + inv * (hi - lo), hi - inv * (hi - lo))
        s = slope(x)
        x1, x2, s1, s2 = np.where(right, [x2, x, s2, s], [x, x1, s, s1])
    m, sm = np.where(s1 > s2, x1, x2), np.maximum(s1, s2)
    root, ok = _brent_rows(slope, np.concatenate([a, m]), np.concatenate([m, b]),
                           np.concatenate([slope(a), sm]), np.concatenate([sm, slope(b)]), 1e-14)
    return np.where(ok, root, np.concatenate([a, b])).reshape(2, -1).T


def _iterate(step, y, steps):
    for _ in range(steps):
        y = step(y)
    return y


def _brent_rows(f, a, b, fa, fb, xtol):
    """`_brent` on every bracket [a[k], b[k]] at once, given fa = f(a) and
    fb = f(b), f evaluating arrays.  Returns the roots and a mask of the
    rows that end with `brentq`'s root, bit for bit; a row whose ends have
    one sign, that meets a value that is not finite, or that does not
    converge within BRENT_MAXITER iterations is masked out."""
    root = np.where(fa == 0, a, b)
    ok = np.isfinite(fa) & np.isfinite(fb) & ((fa == 0) | (fb == 0) | (np.signbit(fa) != np.signbit(fb)))
    rows = np.flatnonzero(ok & (fa != 0) & (fb != 0))
    xpre, xcur, fpre, fcur = a[rows], b[rows], fa[rows], fb[rows]
    xblk = fblk = spre = scur = np.zeros(len(rows))
    with np.errstate(all="ignore"):  # a division by zero gives inf or NaN, as in C, and bisects
        for _ in range(BRENT_MAXITER):
            # fpre != 0 here, and a row with fcur == 0 ends below whatever it flips
            flip = np.signbit(fpre) != np.signbit(fcur)
            xblk, fblk, span = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk), xcur - xpre
            spre, scur = np.where(flip, span, spre), np.where(flip, span, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta, sbis = (xtol + BRENT_RTOL * np.abs(xcur)) / 2, (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta) | ~ok[rows]  # a row met a value not finite
            if done.any():
                root[rows[done]], live = xcur[done], ~done
                rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[live] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
                if not len(rows):
                    break
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            stry = np.where((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)), stry, np.nan)
            good = 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur)
            ok[rows[~np.isfinite(fcur)]] = False
        ok[rows] = False
    return root, ok

