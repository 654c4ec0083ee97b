"""Certificates for the odd cubic family y -> -y^3 + mu*y on a trapping
interval: the postcritically-finite parameter, Misiurewicz conditions,
transversality of the critical value against its continuation point, and
non-degeneracy; plus the thickened renormalized family, on which
non-degeneracy is measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .maps1d import Cubic1D, brentq, find_periodic
from .planar import PlanarFamily
from . import renorm

__all__ = [
    "find_mu_star",
    "critical_gap",
    "build_interval",
    "MisiurewiczCertificate",
    "MAX_PERIOD",
    "misiurewicz_check",
    "MarkovPartitionError",
    "markov_partition",
    "trace_orbit_counts",
    "TransversalityReport",
    "transversality_check",
    "transversality_h",
    "nondegeneracy_check",
    "make_T_family",
]

MU_LO = 3.0 * math.sqrt(3.0) / 2.0  # left end of the bracket; F^2(c) = 0 exactly here
MU_HI = 3.0
MAX_PERIOD = 8  # the Misiurewicz certificate checks every periodic orbit up to this period
MARKOV_TOL = 1e-9  # how far the image of a cut may lie from a cut, the |F^3(c)| bound of criterion 6


def critical_gap(mu: float) -> float:
    """g(mu) = F_mu^2(c(mu)) + sqrt(mu) for the positive critical point c."""
    f = Cubic1D(mu, 0.0)
    c = f.critical_points()[1]
    return f(f(c)) + math.sqrt(mu)


def find_mu_star() -> float:
    """The parameter in (3*sqrt(3)/2, 3) whose positive critical point lands
    on -sqrt(mu) in two steps (hence on the fixed point 0 in three), by
    Brent's method to 1e-13.

    The bracket signs are asserted first: g > 0 at the left end (value
    3^(3/4)/sqrt(2)) and g = sqrt(3) - 2 < 0 at mu = 3; a failed assertion
    means the defining formulas were transcribed wrong, so it is fatal.
    """
    g_lo, g_hi = critical_gap(MU_LO), critical_gap(MU_HI)
    if not (abs(g_lo - 3.0 ** 0.75 / math.sqrt(2.0)) < 1e-9 and g_lo > 0):
        raise AssertionError(f"left bracket value {g_lo} disagrees with 3^(3/4)/sqrt(2)")
    if not (abs(g_hi - (math.sqrt(3.0) - 2.0)) < 1e-12 and g_hi < 0):
        raise AssertionError(f"right bracket value {g_hi} disagrees with sqrt(3)-2")
    return brentq(critical_gap, MU_LO, MU_HI, xtol=1e-13)


def build_interval(mu_star: float) -> tuple[float, float]:
    """The symmetric trapping interval [-r, r].

    r' solves F(r') = e on the decreasing branch left of -c (e the positive
    fixed point sqrt(mu-1)); r > F(c) solves F(r) = r'.  The eight-point
    ordering chain and F(I) inside the interior are asserted; violations
    name the broken relation.
    """
    f = Cubic1D(mu_star, 0.0)
    c = f.critical_points()[1]
    e = math.sqrt(mu_star - 1.0)
    f_c = f(c)
    f_mc = f(-c)
    f2_c = f(f_c)
    # decreasing branch of F on (-inf, -c]: bracket r' between F(-c) and F^2(c)
    r_prime = brentq(lambda y: f(y) - e, f_mc, f2_c, xtol=1e-14)
    # F decreasing on [c, inf); F(r) = r' with r beyond the critical value
    r = brentq(lambda y: f(y) - r_prime, f_c, 2.0 * f_c + 2.0, xtol=1e-14)
    chain = [
        ("-r", -r), ("F(-c)", f_mc), ("F(r)", f(r)), ("-c", -c),
        ("c", c), ("F(-r)", f(-r)), ("F(c)", f_c), ("r", r),
    ]
    for (na, va), (nb, vb) in zip(chain, chain[1:]):
        if not va < vb:
            raise AssertionError(f"interval ordering violated: {na} < {nb} fails ({va} >= {vb})")
    # image extremes: critical values and endpoint images must stay interior
    for name, v in (("F(c)", f_c), ("F(-c)", f_mc), ("F(r)", f(r)), ("F(-r)", f(-r))):
        if not (-r < v < r):
            raise AssertionError(f"F(I) escapes interior at {name} = {v}")
    if not abs(f(f(r)) - e) < 1e-9:
        raise AssertionError("F^2(r) != e")
    return (-r, r)


@dataclass(frozen=True)
class MisiurewiczCertificate:
    checks: dict
    passed: bool


def misiurewicz_check(mu_star: float, interval: tuple) -> MisiurewiczCertificate:
    """The four Misiurewicz conditions for F_mu* on the interval.

    (i) second derivative nonzero at both critical points; (ii) negative
    Schwarzian off the critical set: the closed form -6(6y^2 + mu)/(mu - 3y^2)^2
    is negative there for every mu > 0, which is algebra, so the clause
    checks mu* > 0 and that `Cubic1D.schwarzian` equals the closed form
    exactly, in rationals, at the points k/8 inside the interval;
    (iii) every periodic orbit through period `MAX_PERIOD` is resolved (its
    residual within tolerance) and has multiplier magnitude > 1 (the
    witness's "orbits" counts them by period); (iv) the
    forward critical orbit is finite (it ends on the fixed point 0), so its
    distance to the critical set is an exact minimum over four points.
    """
    f = Cubic1D(mu_star, 0.0)
    c = f.critical_points()[1]
    checks = {}

    d2 = (f(-c, 2), f(c, 2))
    checks["nondegenerate_critical_points"] = (
        d2[0] != 0 and d2[1] != 0,
        {"F''(-c)": d2[0], "F''(c)": d2[1]},
    )

    exact = Cubic1D(Fraction(mu_star))
    ys = [Fraction(k, 8) for k in range(math.floor(8 * interval[0]) + 1, math.ceil(8 * interval[1]))]
    agree = all(exact.schwarzian(y) == exact.schwarzian_closed(y) for y in ys)
    checks["negative_schwarzian"] = (mu_star > 0 and agree, {"points": len(ys)})

    weakest = math.inf
    weakest_orbit = None
    ok = True
    unresolved, worst_residual = 0, 0.0
    counts = []
    for p in range(1, MAX_PERIOD + 1):
        orbits = find_periodic(f, p, interval)
        counts.append(len(orbits))
        for orb in orbits:
            m = abs(float(orb.multiplier))
            if m < weakest:
                weakest, weakest_orbit = m, (p, orb.points[0])
            unresolved += not orb.resolved
            worst_residual = max(worst_residual, orb.residual)
            if m <= 1.0 + 1e-6 or not orb.resolved:
                ok = False
    checks["all_orbits_repelling"] = (ok, {"weakest_multiplier": weakest, "witness": weakest_orbit,
                                           "unresolved": unresolved, "worst_residual": worst_residual,
                                           "orbits": tuple(counts)})

    orbit = (c, f(c), -math.sqrt(mu_star), 0.0)
    if not abs(f(orbit[2])) < 1e-9:
        raise AssertionError("critical orbit fails to land on the fixed point 0")
    dist = min(min(abs(y - c), abs(y + c)) for y in orbit[1:])
    checks["critical_orbit_avoids_critical_set"] = (dist > 0, {"min_distance": dist, "orbit": orbit})

    passed = all(v[0] for v in checks.values())
    return MisiurewiczCertificate(checks, passed)


class MarkovPartitionError(ValueError):
    """The critical orbit's cuts are not a Markov partition of F_mu."""


def markov_partition(mu: float) -> tuple[tuple, np.ndarray]:
    """The postcritical Markov partition of F_mu and its transition matrix.

    The cuts are the critical orbit c, F(c), F^2(c), its mirror image (F is
    odd) and the fixed point 0, in increasing order; at mu* they are
    -F(c) < -sqrt(mu) < -c < 0 < c < sqrt(mu) < F(c), cutting six intervals.
    The critical points are cuts, so F is monotone on each interval, and the
    partition is Markov when F maps every cut to within `MARKOV_TOL` of a
    cut; a cut that lands elsewhere raises `MarkovPartitionError`.  A[i, j]
    is 1 when F maps interval i over interval j.
    """
    f = Cubic1D(mu, 0.0)
    c = f.critical_points()[1]
    orbit = (c, f(c), f(f(c)))
    cuts = tuple(sorted({0.0, *orbit, *(-y for y in orbit)}))
    ends = []
    for y in cuts:
        fy = f(y)
        j = min(range(len(cuts)), key=lambda k: abs(cuts[k] - fy))
        if not abs(cuts[j] - fy) <= MARKOV_TOL:
            raise MarkovPartitionError(f"mu={mu}: F({y}) = {fy} lies {abs(cuts[j] - fy):.2e} from the nearest cut")
        ends.append(j)
    n = len(cuts) - 1
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        lo, hi = sorted(ends[i : i + 2])
        a[i, lo:hi] = 1
    return cuts, a


def trace_orbit_counts(a: np.ndarray, max_period: int) -> list[int]:
    """Orbits of each minimal period 1..`max_period` of F_mu* from
    `markov_partition`'s matrix `a`: tr(A^p) counts period-p itineraries;
    at mu* the one periodic cut is the fixed point 0, which ends two
    intervals and so has two, so tr(A^p) - 1 points have period dividing p,
    and Moebius inversion leaves those of period exactly p.
    """
    points: dict = {}
    power = np.eye(len(a), dtype=np.int64)
    for p in range(1, max_period + 1):
        power = power @ a
        points[p] = int(np.trace(power)) - 1 - sum(points[d] for d in range(1, p) if p % d == 0)
    return [points[p] // p for p in range(1, max_period + 1)]


@dataclass(frozen=True)
class TransversalityReport:
    dp_dmu: float
    dp_dmu_h_form: float
    dp_dmu_fd: float
    dcrit_dmu: float
    h_monotone: bool


def transversality_h(t: float) -> float:
    """Closed form (4*sqrt(3)*t^2 + 9) / (2*t*sqrt(t)*(4*t^2 - 9))."""
    return (4.0 * math.sqrt(3.0) * t * t + 9.0) / (2.0 * t * math.sqrt(t) * (4.0 * t * t - 9.0))


def _continuation_point(mu: float) -> float:
    """p(mu): the solution of F_mu(p) = -sqrt(mu) continued from the critical
    value; p(mu*) equals F_mu*(c)."""
    f = Cubic1D(mu, 0.0)
    p0 = (2.0 * mu / 3.0) * math.sqrt(mu / 3.0)
    return brentq(lambda y: f(y) + math.sqrt(mu), p0 - 0.2, p0 + 0.2, xtol=1e-14)


def transversality_check(mu_star: float) -> TransversalityReport:
    """Separating bounds dp/dmu < 0.4 < 0.9 < d F_mu(c)/dmu at mu*.

    The derivative of the continuation point is computed three ways: the
    implicit closed form, its h(t) rearrangement, and a central difference
    (step 1e-6) of the implicit solve.  The report also says whether h
    decreases strictly across [MU_LO, MU_HI]; it judges nothing itself:
    criterion `wang_young` of `verify` checks all five clauses.
    """
    p = _continuation_point(mu_star)
    dp = (2.0 * p + 1.0 / math.sqrt(mu_star)) / (6.0 * p * p - 2.0 * mu_star)
    dp_h = transversality_h(mu_star)
    h = 1e-6
    dp_fd = (_continuation_point(mu_star + h) - _continuation_point(mu_star - h)) / (2 * h)
    dcrit = math.sqrt(mu_star / 3.0)
    ts = np.linspace(MU_LO, MU_HI, 200)
    hs = [transversality_h(float(t)) for t in ts]
    mono = all(b < a for a, b in zip(hs, hs[1:]))
    return TransversalityReport(dp_dmu=dp, dp_dmu_h_form=dp_h, dp_dmu_fd=dp_fd, dcrit_dmu=dcrit, h_monotone=mono)


def nondegeneracy_check(family: PlanarFamily, params, points) -> float:
    """Worst |dF2/dx - 1| over `points` (an (N, 2) array), F2 the second
    component of `family.forward`, by central differences with step 1e-6.

    The thickened family's folding coordinate u = x - y^3 + alpha*y + nu_n
    must move with x at unit rate; a family whose F2 ignores x, such as the
    limit endomorphism, is off by 1.
    """
    x, y = np.asarray(points, dtype=float).T
    h = 1e-6
    d = (family.forward(params, x + h, y)[1] - family.forward(params, x - h, y)[1]) / (2 * h)
    return float(np.max(np.abs(d - 1.0)))


def make_T_family(model: renorm.ModelParams, n: int, s: float = 1.0) -> PlanarFamily:
    """The thickened renormalized family in closed form, parameterized by
    (alpha,): the n-step renormalized family at (alpha, nu_n), nu_n =
    s*xi^n (xi = `model.rate`, s in [1, 2]), conjugated by
    (X, Y) -> (X^3 - alpha*X - nu_n + Y, X).  With u = x - y^3 + alpha*y + nu_n,

        T(x, y) = (k*y + q*u^4, u),   det DT = -k,

    k and q the renormalized family's coupling and quartic coefficient
    (det DT = -0.0041 at n = 6).  The dissipation is k; xi^n only shifts,
    and at eps = 0, T is `planar.cubic_henon` at (alpha, k) shifted by nu_n.
    At k = 0, T is not invertible and `inverse` is None.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1.0 <= s <= 2.0:
        raise ValueError("s must lie in [1, 2]")
    nu = s * model.rate ** n
    k = renorm.coupling(model, n)
    q = renorm.quartic_coeff(model, n)

    def fwd(p, x, y):
        (alpha,) = p
        u = x - y ** 3 + alpha * y + nu
        u2 = u * u
        return (k * y + q * (u2 * u2), u)

    def inv(p, x, y):
        (alpha,) = p
        u2 = y * y
        yb = (x - q * (u2 * u2)) / k
        return (y + yb ** 3 - alpha * yb - nu, yb)

    def jac(p, x, y):
        (alpha,) = p
        u = x - y ** 3 + alpha * y + nu
        w = -3.0 * y * y + alpha
        d = 4.0 * q * (u * u * u)
        return ((d, k + d * w), (1.0, w))

    return PlanarFamily(f"thickened-renorm-n{n}", ("alpha",), fwd, inverse=inv if k else None, jacobian=jac)
