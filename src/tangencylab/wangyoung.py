"""Certificates for the odd cubic family y -> -y^3 + mu*y on a trapping
interval: the postcritically-finite parameter, Misiurewicz conditions,
transversality of the critical value against its continuation point, and
non-degeneracy; plus the thickened two-parameter planar wrapper used by the
strange-attractor checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .maps1d import Cubic1D, brentq, find_periodic
from .planar import PlanarFamily, cubic_henon
from . import renorm

__all__ = [
    "find_mu_star",
    "critical_gap",
    "build_interval",
    "MisiurewiczCertificate",
    "misiurewicz_check",
    "TransversalityReport",
    "transversality_check",
    "transversality_h",
    "nondegeneracy_check",
    "make_T_family",
]

MU_LO = 3.0 * math.sqrt(3.0) / 2.0  # left end of the bracket; F^2(c) = 0 exactly here
MU_HI = 3.0


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
    mu_star: float
    interval: tuple
    critical_orbit: tuple
    checks: dict
    passed: bool


def misiurewicz_check(mu_star: float, interval: tuple, max_period: int = 8) -> MisiurewiczCertificate:
    """The four Misiurewicz conditions for F_mu* on the interval.

    (i) second derivative nonzero at both critical points; (ii) negative
    Schwarzian off the critical set (sampled, plus the global closed form);
    (iii) every periodic orbit through period `max_period` has multiplier
    magnitude > 1; (iv) the forward critical orbit is finite (it ends on the
    fixed point 0), so its distance to the critical set is an exact minimum
    over four points.
    """
    f = Cubic1D(mu_star, 0.0)
    c = f.critical_points()[1]
    checks = {}

    d2 = (f(-c, 2), f(c, 2))
    checks["nondegenerate_critical_points"] = (
        d2[0] != 0 and d2[1] != 0,
        {"F''(-c)": d2[0], "F''(c)": d2[1]},
    )

    rng = default_rng(7)
    ys = rng.uniform(interval[0], interval[1], 1000)
    ys = ys[np.abs(np.abs(ys) - c) > 1e-3]
    sample_neg = bool(np.all(f.schwarzian_closed(ys) < 0))
    worst = float(np.max(f.schwarzian_closed(ys)))
    checks["negative_schwarzian"] = (sample_neg, {"max_sampled": worst})

    weakest = math.inf
    weakest_orbit = None
    ok = True
    for p in range(1, max_period + 1):
        for orb in find_periodic(f, p, interval):
            m = abs(float(orb.multiplier))
            if m < weakest:
                weakest, weakest_orbit = m, (p, orb.points[0])
            if m <= 1.0 + 1e-6:
                ok = False
    checks["all_orbits_repelling"] = (ok, {"weakest_multiplier": weakest, "witness": weakest_orbit})

    orbit = (c, f(c), -math.sqrt(mu_star), 0.0)
    if not abs(f(orbit[2])) < 1e-9:
        raise AssertionError("critical orbit fails to land on the fixed point 0")
    dist = min(min(abs(y - c), abs(y + c)) for y in orbit[1:])
    checks["critical_orbit_avoids_critical_set"] = (dist > 0, {"min_distance": dist, "orbit": orbit})

    passed = all(v[0] for v in checks.values())
    return MisiurewiczCertificate(mu_star, interval, orbit, checks, passed)


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

    The thickened family (x, y) -> (beta*u, -y^3 + alpha*y + x + beta*v)
    must keep the folding coordinate moving with x at unit rate; a family
    whose F2 ignores x, such as the limit endomorphism, is off by 1.
    """
    x, y = np.asarray(points, dtype=float).T
    h = 1e-6
    d = (family.forward(params, x + h, y)[1] - family.forward(params, x - h, y)[1]) / (2 * h)
    return float(np.max(np.abs(d - 1.0)))


def make_T_family(kind: str, *, model: renorm.ModelParams | None = None, n: int | None = None, s: float = 1.0) -> PlanarFamily:
    """Thickened cubic families (x, y) -> (beta*u, -y^3 + alpha*y + x + beta*v).

    kind "henon": u = y, v = 0, parameterized by (alpha, beta); the strange
    attractor family.  kind "renorm": the standardized n-step return map of
    `model` at secondary parameter s*xi^n, parameterized by (alpha,) with
    beta = xi^n implied; equals the conjugated renormalized family by
    construction, which is what the sliding construction needs.
    """
    if kind == "henon":
        fam = cubic_henon("thickened-cubic")
        return PlanarFamily("thickened-cubic", ("alpha", "beta"), fam.forward, fam.inverse, fam.jacobian)
    if kind == "renorm":
        if model is None or n is None:
            raise ValueError("kind='renorm' needs model and n")
        if not 1.0 <= s <= 2.0:
            raise ValueError("s must lie in [1, 2]")
        xi_n = model.rate ** n
        base = renorm.conjugate_to_standard(renorm.renormalized_family(model, n))

        def fwd(p, x, y):
            (alpha,) = p
            return base.forward((alpha, s * xi_n), x, y)

        inv = None
        if base.inverse is not None:
            def inv(p, x, y):
                (alpha,) = p
                return base.inverse((alpha, s * xi_n), x, y)

        out = PlanarFamily(f"thickened-renorm-n{n}", ("alpha",), fwd, inverse=inv)
        object.__setattr__(out, "beta", xi_n)
        return out
    raise ValueError(f"unknown kind {kind!r}")
