import math
from fractions import Fraction as F

import numpy as np
import pytest

from tangencylab import verify, wangyoung
from tangencylab.maps1d import Cubic1D, PeriodicOrbit1D, find_periodic
from tangencylab.planar import PlanarFamily, SaddlePoint, cubic_henon, grow_manifold
from tangencylab.renorm import ModelParams, limit_family, renormalized_family
from tangencylab.wangyoung import (
    MU_HI,
    MU_LO,
    build_interval,
    critical_gap,
    find_mu_star,
    make_T_family,
    misiurewicz_check,
    nondegeneracy_check,
    transversality_check,
    transversality_h,
)


# The oracle of the closed-form T-family: the renormalized family conjugated,
# step by step, by f(X, Y) = (X^3 - MU*X - NU + Y, X), which straightens the
# limit map so that its image collapses onto the axis x = 0.

def conjugation(mu_bar, nu_bar, pt):
    x, y = pt
    return (x ** 3 - mu_bar * x - nu_bar + y, x)


def conjugation_inverse(mu_bar, nu_bar, pt):
    x, y = pt
    return (y, x - y ** 3 + mu_bar * y + nu_bar)


def conjugate_to_standard(family: PlanarFamily) -> PlanarFamily:
    """f o family o f^-1, forward only, parameterized by the same (mu_bar, nu_bar)."""

    def fwd(p, x, y):
        mu, nu = p
        q = conjugation_inverse(mu, nu, (x, y))
        q = family.forward(p, *q)
        return conjugation(mu, nu, q)

    return PlanarFamily(f"{family.name}-standardized", family.param_names, fwd, None, None)


@pytest.fixture(scope="module")
def mu_star():
    return find_mu_star()


@pytest.fixture(scope="module")
def interval(mu_star):
    return build_interval(mu_star)


class TestMuStar:
    def test_bracket_values(self):
        assert abs(critical_gap(3.0) - (math.sqrt(3.0) - 2.0)) < 1e-14
        assert abs(critical_gap(MU_LO) - 3.0**0.75 / math.sqrt(2.0)) < 1e-12

    def test_located_in_bracket(self, mu_star):
        assert MU_LO < mu_star < MU_HI
        assert abs(mu_star - 2.9586) < 1e-3

    def test_postcritical_chain(self, mu_star):
        f = Cubic1D(mu_star, 0.0)
        c = f.critical_points()[1]
        assert abs(f(f(c)) + math.sqrt(mu_star)) < 1e-12
        assert abs(f.iterate(c, 3)) < 1e-9
        # the tail of the orbit is pinned by the odd symmetry
        assert abs(f(-math.sqrt(mu_star))) < 1e-13
        assert f(0.0) == 0.0


class TestInterval:
    def test_symmetric(self, interval):
        assert interval[0] == -interval[1]

    def test_second_image_of_endpoint_is_fixed_point(self, mu_star, interval):
        f = Cubic1D(mu_star, 0.0)
        e = math.sqrt(mu_star - 1.0)
        assert abs(f(f(interval[1])) - e) < 1e-9

    def test_endpoints_eventually_on_repelling_fixed_points(self, mu_star, interval):
        f = Cubic1D(mu_star, 0.0)
        y = f.iterate(interval[1], 2)
        e = math.sqrt(mu_star - 1.0)
        for _ in range(5):  # e is fixed, so the orbit parks there
            assert abs(abs(y) - e) < 1e-7
            y = f(y)

    def test_oddness_of_image(self, mu_star, interval):
        f = Cubic1D(mu_star, 0.0)
        r = interval[1]
        assert abs(f(-r) + f(r)) < 1e-12

    def test_image_strictly_interior(self, mu_star, interval):
        f = Cubic1D(mu_star, 0.0)
        ys = np.linspace(interval[0], interval[1], 2001)
        vals = f(ys)
        assert np.all(vals > interval[0]) and np.all(vals < interval[1])


class TestMisiurewicz:
    def test_certificate_passes(self, mu_star, interval):
        cert = misiurewicz_check(mu_star, interval)
        assert cert.passed
        assert all(ok for ok, _ in cert.checks.values())

    def test_schwarzian_clause_is_exact_agreement(self, mu_star, interval, monkeypatch):
        # the 31 points k/8 strictly inside the trapping interval (r ~ 1.9)
        ok, w = misiurewicz_check(mu_star, interval).checks["negative_schwarzian"]
        assert ok and w == {"points": 31}
        # a closed form off by 2^-60 at one rational point breaks the clause
        closed = Cubic1D.schwarzian_closed
        monkeypatch.setattr(Cubic1D, "schwarzian_closed",
                            lambda self, y: closed(self, y) + (y == F(1, 8)) * F(1, 2**60))
        cert = misiurewicz_check(mu_star, interval)
        assert not cert.checks["negative_schwarzian"][0] and not cert.passed

    def test_unresolved_orbit_fails_the_repelling_clause(self, mu_star, interval, monkeypatch):
        # a repelling orbit whose residual is out of tolerance is not a checked orbit
        assert all(orb.resolved for p in range(1, 9) for orb in find_periodic(Cubic1D(mu_star, 0.0), p, interval))
        unresolved = PeriodicOrbit1D((0.5,), 1, multiplier=-4.0, residual=1e-3, resolved=False)
        monkeypatch.setattr(wangyoung, "find_periodic", lambda f, p, interval: [unresolved])
        cert = misiurewicz_check(mu_star, interval)
        ok, w = cert.checks["all_orbits_repelling"]
        assert not ok and not cert.passed
        assert w["weakest_multiplier"] == 4.0
        # one unresolved orbit per period 1..8, each with residual 1e-3
        assert w["unresolved"] == wangyoung.MAX_PERIOD == 8 and w["worst_residual"] == 1e-3
        # the criterion's line names them, not only the multiplier
        res = verify.run_criterion("wang_young")
        assert "FAILED: all period<=8 orbits repelling (weakest multiplier 4.0000; 8 unresolved, " \
               "worst residual 1.00e-03)" in res.failures

    def test_orbit_census_is_checked_against_the_markov_partition(self, mu_star, interval, monkeypatch):
        # criterion wang_young compares find_periodic's count per period with
        # the partition's trace count, one line per period
        _, w = misiurewicz_check(mu_star, interval).checks["all_orbits_repelling"]
        assert w["orbits"] == (3, 2, 4, 10, 28, 66, 164, 386)
        counts = wangyoung.trace_orbit_counts
        monkeypatch.setattr(wangyoung, "trace_orbit_counts", lambda a, p: counts(a, p)[:-1] + [385])
        res = verify.run_criterion("wang_young")
        assert res.failures == ["FAILED: period 8: find_periodic's 386 orbits == the Markov partition's tr(A^p) count 385"]
        assert "ok: period 7: find_periodic's 164 orbits == the Markov partition's tr(A^p) count 164" in res.details

    def test_fixed_point_multipliers_closed_form(self, mu_star, interval):
        # F'(0) = mu*; F'(+-e) = 3 - 2 mu*
        f = Cubic1D(mu_star, 0.0)
        orbits = find_periodic(f, 1, interval)
        assert len(orbits) == 3
        mults = sorted(float(o.multiplier) for o in orbits)
        want = sorted([mu_star, 3 - 2 * mu_star, 3 - 2 * mu_star])
        assert np.allclose(mults, want, atol=1e-8)
        assert all(abs(m) > 1 for m in mults)

    def test_second_derivative_at_criticals(self, mu_star):
        f = Cubic1D(mu_star, 0.0)
        c = f.critical_points()[1]
        assert abs(f(c, 2) + 6 * c) < 1e-12
        assert f(c, 2) != 0 and f(-c, 2) != 0

    def test_orbit_distance_witness(self, mu_star, interval):
        cert = misiurewicz_check(mu_star, interval)
        ok, w = cert.checks["critical_orbit_avoids_critical_set"]
        assert ok
        # the binding distance is |c - sqrt(mu*)|, not the naive |0 - c|
        c = math.sqrt(mu_star / 3.0)
        assert abs(w["min_distance"] - (math.sqrt(mu_star) - c)) < 1e-12


class TestTransversality:
    def test_report(self, mu_star):
        tr = transversality_check(mu_star)
        assert tr.dp_dmu < 0.4 < 0.9 < tr.dcrit_dmu
        assert abs(tr.dp_dmu - tr.dp_dmu_h_form) < 1e-12
        assert abs(tr.dp_dmu - tr.dp_dmu_fd) < 1e-5
        assert tr.h_monotone

    def test_h_left_end_value(self):
        assert abs(transversality_h(MU_LO) - 0.3699) < 1e-4
        assert transversality_h(MU_LO) < 0.4

    def test_dcrit_exceeds_point_nine_on_whole_bracket(self):
        assert math.sqrt(MU_LO / 3.0) > 0.9


def test_nondegeneracy_measured():
    mu = find_mu_star()
    lo, hi = build_interval(mu)
    grid = np.linspace(lo, hi, 21)
    box = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    t = make_T_family(ModelParams(), 6)
    assert nondegeneracy_check(t, (mu,), box) < 1e-6
    # the limit endomorphism's second component does not depend on x
    assert nondegeneracy_check(limit_family(), (mu, 0.0), box) == 1.0


class TestTFamily:
    def test_small_beta_limit_is_folding_form(self):
        t = cubic_henon()
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, (50, 2)):
            fx, fy = t.forward((2.8, 1e-12), x, y)
            assert abs(fx) < 1e-11
            assert abs(fy - (-(y**3) + 2.8 * y + x)) < 1e-11

    def test_renorm_instance_equals_standardized_map(self):
        s = 1.5
        rng = np.random.default_rng(2)
        for eps in (0.0, 0.1):
            mp = ModelParams(eps=eps)
            for n in (4, 6, 8, 10):
                t = make_T_family(mp, n, s)
                std = conjugate_to_standard(renormalized_family(mp, n))
                nu = s * mp.rate**n
                for x, y in rng.uniform(-1.5, 1.5, (50, 2)):
                    a = t.forward((3.0,), x, y)
                    b = std.forward((3.0, nu), x, y)
                    for got, want in zip(a, b):
                        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_renorm_instance_invertible(self):
        for mp, n in ((ModelParams(), 6), (ModelParams(eps=0.1), 10)):
            t = make_T_family(mp, n)
            rng = np.random.default_rng(3)
            for x, y in rng.uniform(-1.5, 1.5, (100, 2)):
                fx, fy = t.forward((3.0,), x, y)
                bx, by = t.inverse((3.0,), fx, fy)
                assert math.hypot(bx - x, by - y) < 1e-10

    def test_jacobian_determinant_is_minus_k(self):
        mp = ModelParams()
        t = make_T_family(mp, 6)
        k = mp.a * mp.c * (mp.lam * mp.sigma) ** 6
        rng = np.random.default_rng(4)
        for x, y in rng.uniform(-1.5, 1.5, (50, 2)):
            (a, b), (c, d) = t.jacobian((3.0,), x, y)
            assert a * d - b * c == -k

    @pytest.mark.parametrize("mp, n", [(ModelParams(c=0.0), 6), (ModelParams(), 1000)])
    def test_zero_coupling_has_no_inverse(self, mp, n):
        # k = a*c*(lam*sigma)^n is 0 at c = 0, and underflows to 0 at n = 1000
        t = make_T_family(mp, n)
        assert t.inverse is None
        saddle = SaddlePoint((0.0, 0.0), 1, 2.0, 0.5, (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="needs an inverse"):
            grow_manifold(t, (3.0,), saddle, "stable", target_arclength=1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_T_family(ModelParams(), 6, s=3.0)
        with pytest.raises(ValueError):
            make_T_family(ModelParams(), 0)


class TestConjugation:
    def test_limit_hand_value(self):
        std = conjugate_to_standard(limit_family())
        out = std.forward((3.0, 0.0), 0.3, 1.0)
        assert abs(out[0]) < 1e-14
        assert abs(out[1] - 2.3) < 1e-14

    def test_conjugation_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            mu, nu = rng.uniform(0, 4), rng.uniform(-1, 1)
            x, y = rng.uniform(-3, 3, 2)
            fx, fy = conjugation(mu, nu, (x, y))
            bx, by = conjugation_inverse(mu, nu, (fx, fy))
            assert math.hypot(bx - x, by - y) < 1e-12 * max(1.0, abs(x), abs(y))

    def test_standardized_form_of_renormalized_map(self):
        # second coordinate is the folding normal form plus an O(rate^n)
        # correction; first coordinate is O(rate^n)
        mp = ModelParams()
        n = 8
        std = conjugate_to_standard(renormalized_family(mp, n))
        bound = 10 * mp.rate ** n
        rng = np.random.default_rng(6)
        for _ in range(100):
            mu = rng.uniform(2.5, 3.5)
            x, y = rng.uniform(-1.5, 1.5, 2)
            ox, oy = std.forward((mu, 0.0), x, y)
            assert abs(ox) < bound
            assert abs(oy - (-(y**3) + mu * y + x)) < bound


FAMILIES = {
    "cubic_henon": (cubic_henon, (2.8, 0.1)),
    "limit_family": (limit_family, (3.0, 0.1)),
    "renormalized_family": (lambda: renormalized_family(ModelParams(eps=0.2), 5), (3.0, 0.1)),
    "T_family-n6": (lambda: make_T_family(ModelParams(eps=0.1), 6), (2.9,)),
    "T_family-n10": (lambda: make_T_family(ModelParams(eps=0.1), 10), (2.9,)),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_jacobian_matches_central_differences(name):
    make, p = FAMILIES[name]
    fam = make()
    h = 1e-6
    rng = np.random.default_rng(4)
    for x, y in rng.uniform(-1.5, 1.5, (20, 2)):
        fxp, fxm = fam.forward(p, x + h, y), fam.forward(p, x - h, y)
        fyp, fym = fam.forward(p, x, y + h), fam.forward(p, x, y - h)
        fd = np.array([[fxp[0] - fxm[0], fyp[0] - fym[0]], [fxp[1] - fxm[1], fyp[1] - fym[1]]]) / (2 * h)
        ja = np.array(fam.jacobian(p, x, y))
        assert np.max(np.abs(ja - fd)) < 1e-5 * max(1.0, np.max(np.abs(ja)))
