import math

import numpy as np
import pytest

from tangencylab.maps1d import Cubic1D, find_periodic
from tangencylab.planar import PlanarFamily, cubic_henon
from tangencylab.renorm import ModelParams, conjugate_to_standard, limit_family, renormalized_family
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
        cert = misiurewicz_check(mu_star, interval, max_period=8)
        assert cert.passed
        assert all(ok for ok, _ in cert.checks.values())

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
        assert tr.passed
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
    t = make_T_family("renorm", model=ModelParams(), n=6)
    assert nondegeneracy_check(t, (mu,), box) < 1e-6
    # the limit endomorphism's second component does not depend on x
    assert nondegeneracy_check(limit_family(), (mu, 0.0), box) == 1.0


class TestTFamily:
    def test_henon_instance_matches_attractor_family(self):
        t = make_T_family("henon")
        h = cubic_henon()
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(-2, 2, (50, 2)):
            assert t.forward((2.8, 0.1), x, y) == h.forward((2.8, 0.1), x, y)

    def test_small_beta_limit_is_folding_form(self):
        t = make_T_family("henon")
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, (50, 2)):
            fx, fy = t.forward((2.8, 1e-12), x, y)
            assert abs(fx) < 1e-11
            assert abs(fy - (-(y**3) + 2.8 * y + x)) < 1e-11

    def test_renorm_instance_equals_standardized_map(self):
        mp = ModelParams()
        n, s = 8, 1.5
        t = make_T_family("renorm", model=mp, n=n, s=s)
        std = conjugate_to_standard(renormalized_family(mp, n))
        nu = s * mp.rate**n
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(-1.5, 1.5, (50, 2)):
            a = t.forward((3.0,), x, y)
            b = std.forward((3.0, nu), x, y)
            assert a == b
        assert t.beta == mp.rate**n

    def test_renorm_instance_invertible(self):
        t = make_T_family("renorm", model=ModelParams(), n=6, s=1.0)
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-1.5, 1.5, (100, 2)):
            fx, fy = t.forward((3.0,), x, y)
            bx, by = t.inverse((3.0,), fx, fy)
            assert math.hypot(bx - x, by - y) < 1e-10

    def test_henon_jacobian_matches_fd(self):
        t = make_T_family("henon")
        bare = PlanarFamily(t.name, t.param_names, t.forward)
        p = (2.8, 0.1)
        rng = np.random.default_rng(4)
        for x, y in rng.uniform(-2, 2, (20, 2)):
            ja = np.array(t.jacobian(p, x, y))
            jf = np.array(bare.jac(p, x, y))
            assert np.max(np.abs(ja - jf)) < 1e-5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_T_family("renorm")
        with pytest.raises(ValueError):
            make_T_family("renorm", model=ModelParams(), n=6, s=3.0)
        with pytest.raises(ValueError):
            make_T_family("unknown")
