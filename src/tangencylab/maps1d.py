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


def _cells_per_unit(period: int) -> int:
    """4*3^p grid cells per unit length, premised on |F'| <= 3: then a cell
    holds at most one root of F^p(y) - y, and F^p(y) - y changes sign across
    it.  It fails near the cubic mu = 3, nu = 0's 2-cycle +-2, where |F'| = 9:
    the cell [-1.99994, -1.99990] holds four roots of period 8, ends of one sign."""
    return 4 * 3**period


def find_periodic(fmap, period: int, domain: tuple) -> list[PeriodicOrbit1D]:
    """All period-`period` orbits of `fmap` found inside `domain`, in binary64.

    `fmap` must evaluate numpy arrays.  F^p(y) - y is evaluated on a grid of
    `_cells_per_unit(p)` cells per unit length, and every cell where it
    changes sign is solved at once in array passes: Brent's method to width
    1e-14 (robust against the slope-3^p stiffness that defeats Newton here),
    then the root's orbit, divisor test, residual and multiplier.  A replay
    walks the cells in ascending order.  It skips a cell that strictly holds
    a point of a kept orbit (the grid assumes one root per cell), and drops
    a root whose period is not minimal or whose smallest point, the orbit's
    representative, lies within 1e-9 of a kept one.

    The arrays carry the bits of scalar calls (`Cubic1D.pointwise`; any
    other map is called per point, its multiplier by central differences).
    A cell the arrays cannot finish (a value that is not finite, ends of one
    sign, no convergence) is solved by scalar calls in Python floats and
    `brentq` once the replay reaches it, and raises what they raise; a
    skipped cell raises and warns nothing.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    lo, hi = domain
    return _scan(fmap, period, float(lo), float(hi), _cells_per_unit(period))


def _scan(fmap, period, lo, hi, cells_per_unit):
    n_cells = max(8, math.ceil(cells_per_unit * (hi - lo)))
    xs = np.linspace(lo, hi, n_cells + 1)
    step, slope = _maps(fmap)
    with np.errstate(all="ignore"):
        cells, last = _sign_changes(fmap, period, xs)
        a, b = xs[cells], xs[cells + 1]
        x, ok = _brent_rows(lambda v: _iterate(step, v, period) - v, a, b,
                            _iterate(step, a, period) - a, _iterate(step, b, period) - b, 1e-14)
        if last:  # the last grid point, a root that starts no cell
            x, ok = np.append(x, xs[-1]), np.append(ok, True)
        minimal, pts = _orbits(step, period, x)
        res, mult = np.abs(_iterate(step, pts[:, 0], period) - pts[:, 0]), np.ones(len(pts))
        for j in range(period):  # the slopes along each orbit from its smallest point
            mult = mult * slope(pts[:, j])
        ok &= np.isfinite(pts).all(axis=1) & np.isfinite(res) & np.isfinite(mult)
    rep, minimal, res, mult = pts[:, 0].tolist(), minimal.tolist(), res.tolist(), mult.tolist()
    orbits: list[PeriodicOrbit1D] = []
    seen: list = []  # representatives, sorted
    covered: set = set()  # cells strictly holding a point of a kept orbit
    for r, (i, good) in enumerate(zip(cells.tolist() + [None], ok.tolist())):  # None: the last grid point
        if i in covered:
            continue
        if good:
            if not minimal[r] or not _admit(seen, rep[r]):
                continue
            orbit, residual, multiplier = pts[r].tolist(), res[r], mult[r]
        else:  # by scalar calls in Python floats, which raise what they raise
            root = float(xs[-1]) if i is None else _scalar_root(fmap, period, float(xs[i]), float(xs[i + 1]))
            orbit = _scalar_orbit(fmap, period, root)
            if orbit is None or not _admit(seen, orbit[0]):
                continue
            residual = abs(float(_iterate(fmap, orbit[0], period) - orbit[0]))
            multiplier = math.prod(map(_slope(fmap), orbit), start=1.0)
        # xs[k-1] < q <= xs[k]; the cell k-1 holds q strictly unless q == xs[k]
        held = xs.searchsorted(pts[r] if good else orbit).tolist()
        covered.update(k - 1 for q, k in zip(orbit, held) if 0 < k <= n_cells and q < xs[k])
        orbits.append(PeriodicOrbit1D(points=tuple(orbit), period=period, multiplier=multiplier, residual=residual,
                                      resolved=residual <= 1e-10 * max(1.0, abs(float(orbit[0])))))
    orbits.sort(key=lambda o: float(o.points[0]))
    return orbits


def _maps(fmap):
    """`fmap`'s step and slope on 1-D arrays, with the bits of scalar calls:
    a `Cubic1D`'s by `Cubic1D.pointwise`, any other map's by a call per
    point, a call that raises giving NaN."""
    if isinstance(fmap, Cubic1D):
        return fmap.pointwise, lambda y: fmap.pointwise(y, 1)
    return tuple((lambda ys, f=f: np.array([_or_nan(f, y) for y in ys.tolist()], dtype=float))
                 for f in (fmap, _slope(fmap)))


def _slope(fmap):
    """`fmap`'s slope at a float: `fmap(y, 1)` for a `Cubic1D`, else a central difference."""
    h = 1e-7
    return (lambda y: fmap(y, 1)) if isinstance(fmap, Cubic1D) else (lambda y: (fmap(y + h) - fmap(y - h)) / (2 * h))


def _or_nan(f, y):
    try:
        return f(y)
    except Exception:
        return math.nan


def _sign_changes(fmap, period, xs):
    """The grid cells where g = F^p(x) - x, with the bits of repeated
    `fmap(xs)`, is finite at both ends and changes sign or starts at a zero;
    and whether g is zero at the last grid point.  g dies here, before the
    solver's arrays are made: kept alive under them, it raised a later peak
    of the process's memory by 0.7 MB."""
    if not isinstance(fmap, Cubic1D):
        g = _iterate(lambda y: np.asarray(fmap(y), dtype=float), xs, period) - xs
    else:  # `Cubic1D.__call__`'s array form in two buffers: 2 ms less than it at period 8
        mu, nu = float(fmap.mu), float(fmap.nu)
        g, cube = xs.copy(), np.empty_like(xs)
        for _ in range(period):  # -(y*y*y) + mu*y + nu
            np.multiply(g, g, out=cube)
            cube *= g
            g *= mu
            g -= cube
            g += nu
        g -= xs
    fine = np.isfinite(g)
    return np.flatnonzero(fine[:-1] & fine[1:] & ((g[:-1] == 0.0) | (g[:-1] * g[1:] < 0.0))), g[-1] == 0.0


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


def _scalar_root(fmap, period, a, b):
    """The root of the cell [a, b] by scalar calls and `brentq`."""
    ga, gb = (_iterate(fmap, v, period) - v for v in (a, b))
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga < 0.0) != (gb < 0.0):
        known = {a: ga, b: gb}  # brentq starts by evaluating both ends again
        return brentq(lambda x: known[x] if x in known else _iterate(fmap, x, period) - x, a, b, xtol=1e-14)
    return a if abs(ga) <= abs(gb) else b  # the sign change was array rounding: the end nearer zero


def _scalar_orbit(fmap, period, x):
    """The orbit of the root `x` from its smallest point by scalar calls, or
    None if `period` is not minimal (`_orbits`' rules)."""
    line = [x]
    for d in range(1, period):
        line.append(fmap(line[-1]))
        if period % d == 0 and abs(line[d] - x) <= 1e-11:
            return None
    k = line.index(min(line))
    return line[k:] + line[:k]


def _orbits(step, period, x):
    """Per root in `x`: whether `period` is minimal (no divisor d with
    |F^d(x) - x| <= 1e-11), and its orbit from its smallest point."""
    line, minimal = [x], np.ones(len(x), dtype=bool)
    for d in range(1, period):
        line.append(step(line[-1]))
        if period % d == 0:
            minimal &= ~(np.abs(line[d] - x) <= 1e-11)
    pts = np.stack(line, axis=1)
    return minimal, np.take_along_axis(pts, (pts.argmin(axis=1)[:, None] + np.arange(period)) % period, axis=1)


def _admit(seen: list, rep) -> bool:
    """Whether `rep` lies more than 1e-9 from every representative in `seen`
    (sorted), where it is then inserted.  The nearest on either side decide."""
    i = bisect_left(seen, rep)
    if any(abs(rep - s) <= 1e-9 for s in seen[max(i - 1, 0):i + 1]):
        return False
    seen.insert(i, rep)
    return True
