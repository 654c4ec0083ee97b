import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tangencylab import maps1d
from tangencylab.maps1d import (
    Cubic1D,
    DomainError,
    conjugacy,
    conjugacy_defect,
    find_periodic,
    n_map,
)

S = n_map()


class TestNMap:
    @pytest.mark.parametrize(
        "x,want",
        [
            (F(1, 2), F(3, 2)),  # middle branch 3*(1/2)
            (F(-3, 2), F(3, 2)),  # left branch -3*(-3/2)-3
            (F(1), F(0)),  # right branch -3+3
            (F(-1, 2), F(-3, 2)),
            (F(0), F(0)),
        ],
    )
    def test_values_exact(self, x, want):
        assert S(x) == want
        assert isinstance(S(x), F)

    def test_branch_slopes(self):
        assert [b.slope for b in S.branches] == [-3, 3, -3]
        assert [b.intercept for b in S.branches] == [-3, 0, 3]

    def test_domain_rejected(self):
        with pytest.raises(DomainError):
            S(F(8, 5))
        with pytest.raises(DomainError):
            S(-1.50001)

    @given(st.fractions(min_value=F(-3, 2), max_value=F(3, 2)))
    @settings(max_examples=200)
    def test_maps_into_itself(self, x):
        assert F(-3, 2) <= S(x) <= F(3, 2)

    def test_turning_point_value_agrees_across_branches(self):
        # both formulas give the same value at the half-open split points
        assert 3 * F(1, 2) == -3 * F(1, 2) + 3
        assert -3 * F(-1, 2) - 3 == 3 * F(-1, 2)


class TestCubic:
    def test_reference_anchor_values(self):
        f = Cubic1D(3, 0)
        assert f(2) == -2  # the 2-cycle endpoint
        assert f(0) == 0
        r2 = math.sqrt(2.0)
        assert abs(f(r2) - r2) < 1e-15  # positive fixed point sqrt(mu-1)

    def test_exact_rational_eval(self):
        f = Cubic1D(F(3), F(0))
        y = F(7, 5)
        assert f(y) == -(y**3) + 3 * y
        assert isinstance(f(y), F)
        assert f(y, 1) == -3 * y**2 + 3

    @given(
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=F(1, 10), max_value=4),
    )
    @settings(max_examples=150)
    def test_odd_when_nu_zero(self, y, mu):
        f = Cubic1D(mu, F(0))
        assert f(-y) == -f(y)

    @pytest.mark.parametrize(
        "mu,want",
        [(3, 1.0), (F(27, 4), 1.5)],
    )
    def test_critical_points(self, mu, want):
        lo, hi = Cubic1D(mu, 0).critical_points()
        assert lo == -want and hi == want

    def test_critical_points_zero_derivative(self):
        f = Cubic1D(2.9588, 0.0)
        for c in f.critical_points():
            assert abs(f(c, 1)) < 1e-12

    def test_no_critical_pair_for_nonpositive_mu(self):
        with pytest.raises(ValueError):
            Cubic1D(-1.0, 0.0).critical_points()

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for mu in (2.0, 2.9588, 3.0):
            f = Cubic1D(mu, 0.3)
            for y in rng.uniform(-2, 2, 20):
                fd1 = (f(y + h) - f(y - h)) / (2 * h)
                fd2 = (f(y + h, 1) - f(y - h, 1)) / (2 * h)
                fd3 = (f(y + h, 2) - f(y - h, 2)) / (2 * h)
                assert abs(fd1 - f(y, 1)) < 1e-6 * max(1, abs(f(y, 1)))
                assert abs(fd2 - f(y, 2)) < 1e-6 * max(1, abs(f(y, 2)))
                assert abs(fd3 - f(y, 3)) < 1e-6 * max(1, abs(f(y, 3)))


class TestSchwarzian:
    def test_hand_values(self):
        # F'''/F' - 1.5 (F''/F')^2 at (mu,nu)=(3,0):
        # y=0: -6/3 - 0 = -2; y=2: 2/3 - 1.5*(4/3)^2 = -2
        f = Cubic1D(3.0, 0.0)
        assert abs(f.schwarzian(0.0) - (-2.0)) < 1e-15
        assert abs(f.schwarzian(2.0) - (-2.0)) < 1e-15
        # exact at y=1/3: F'=8/3, F''=-2, F'''=-6, so -9/4 - (3/2)(9/16) = -99/32
        assert Cubic1D(F(3), F(0)).schwarzian(F(1, 3)) == F(-99, 32)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for mu in (2.0, 2.9588, 3.0):
            f = Cubic1D(mu, 0.0)
            c = math.sqrt(mu / 3)
            ys = rng.uniform(-2, 2, 1000)
            ys = ys[np.abs(np.abs(ys) - c) > 1e-2]
            for y in ys:
                closed = f.schwarzian_closed(y)
                assert abs(f.schwarzian(y) - closed) < 1e-12 * max(1.0, abs(closed))
                assert f.schwarzian(y) < 0

    @pytest.mark.parametrize("mu, nu, y", [
        (F(3), F(0), F(1, 3)),
        (F(3), F(1, 10), F(-7, 5)),
        (F(2), F(0), F(0)),
        (F(59, 20), F(-1, 7), F(5, 4)),
    ])
    def test_exact_on_rationals(self, mu, nu, y):
        f = Cubic1D(mu, nu)
        got = f.schwarzian(y)
        assert isinstance(got, F)
        assert got == f.schwarzian_closed(y)

    def test_singular_at_critical_point(self):
        f = Cubic1D(F(3), F(0))
        with pytest.raises(ValueError):
            f.schwarzian(F(1))


class TestConjugacy:
    @pytest.mark.parametrize("x", [0.5, 0.0, 1.0])
    def test_hand_checked_points(self, x):
        # h(S(1/2)) = h(3/2) = 2 and F(h(1/2)) = F(1) = 2, etc.
        assert conjugacy_defect(x) < 1e-14

    def test_endpoints(self):
        assert abs(conjugacy(1.5) - 2.0) < 1e-15
        assert abs(conjugacy(-1.5) + 2.0) < 1e-15

    def test_grid_sup(self):
        xs = np.linspace(-1.5, 1.5, 10_000)
        assert max(conjugacy_defect(float(x)) for x in xs) < 1e-12

    def test_array_matches_scalar_composition(self):
        # reference: S through n_map's branches, h and F on Python floats
        f = Cubic1D(3.0, 0.0)
        xs = np.concatenate([np.linspace(-1.5, 1.5, 2_001), [-0.5, 0.5, 0.25, -1.25]])
        want = [abs(conjugacy(S(x)) - f(conjugacy(x))) for x in xs.tolist()]
        got = conjugacy_defect(xs)
        assert got.shape == xs.shape
        assert got.tolist() == want
        assert [conjugacy_defect(x) for x in xs.tolist()] == want
        assert type(conjugacy_defect(0.25)) is float

    @pytest.mark.parametrize("x", [1.6, -2.0, float("nan"), np.array([0.0, 1.5 + 1e-12])])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError, match="outside domain"):
            conjugacy_defect(x)


def loop_float_roots(fmap, period, lo, hi, cells_per_unit):
    """Reference scan: visit every cell of F^p(y) - y in turn."""
    n_cells = max(8, math.ceil(cells_per_unit * (hi - lo)))
    xs = np.linspace(lo, hi, n_cells + 1)
    ys = xs.copy()
    for _ in range(period):
        ys = np.asarray(fmap(ys), dtype=float)
    g = ys - xs
    roots = []
    for i in range(n_cells):
        a, b, ga, gb = xs[i], xs[i + 1], g[i], g[i + 1]
        if not (np.isfinite(ga) and np.isfinite(gb)):
            continue
        if ga == 0.0:
            roots.append(float(a))
        elif ga * gb < 0.0:
            roots.append(float(brentq(lambda x: maps1d._iter_map(fmap, x, period) - x, float(a), float(b), xtol=1e-14)))
    if np.isfinite(g[-1]) and g[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


class TestRootScan:
    @pytest.mark.parametrize(
        "fmap,domain,period",
        [
            (Cubic1D(3.0, 0.0), (-2.0, 2.0), 1),  # roots on grid points
            (Cubic1D(3.0, 0.0), (-2.0, 2.0), 4),
            (Cubic1D(2.9, 0.0), (-2.3, 2.3), 5),  # orbits escape: non-finite cells
            (lambda y: 1.0 / y, (-1.0, 1.0), 1),  # a pole on the grid point 0: infinite cells
        ],
    )
    def test_matches_cell_by_cell_loop(self, fmap, domain, period):
        cells = maps1d._cells_per_unit(period)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = loop_float_roots(fmap, period, *domain, cells)
            got = maps1d._float_roots(fmap, period, *domain, cells)
        assert got == want
        assert want

    def test_cell_whose_sign_change_is_array_rounding(self):
        # the array path rounds each step one ulp up, as numpy's y**3 may
        # against the C library's pow; next to the fixed point sqrt(mu - 1)
        # that flips the sign of F^2(y) - y at a grid point
        mu = 2.4725

        def fmap(y):
            v = mu * y - y * y * y
            return np.nextafter(v, np.inf) if isinstance(y, np.ndarray) else v

        r = math.sqrt(mu - 1.0)
        lo, hi = r - 0.25, r + 0.25
        xs = np.linspace(lo, hi, 9)  # the grid of 16 cells per unit
        g_array = fmap(fmap(xs)) - xs
        g_scalar = np.array([fmap(fmap(x)) - x for x in xs.tolist()])
        flipped = (g_array[:-1] * g_array[1:] < 0) & (g_scalar[:-1] * g_scalar[1:] > 0)
        assert flipped.tolist() == [False] * 4 + [True] + [False] * 3

        roots = maps1d._float_roots(fmap, 2, lo, hi, 16)
        assert float(xs[4]) in roots  # the cell's end nearer zero
        assert all(abs(fmap(fmap(x)) - x) <= 4 * np.spacing(x) for x in roots)
        orbits = maps1d._assemble_orbits(fmap, roots, 2)
        assert [o.period for o in orbits] == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([-math.sqrt(2), 0.0, math.sqrt(2)]),
        st.sampled_from([0.0, 4e-10, -4e-10, 8e-10, -8e-10, 3e-9, -3e-9]),
    ), max_size=30))
    def test_duplicates_dropped_as_by_full_scan(self, draws):
        # a root within 1e-9 of any earlier kept representative is a duplicate
        roots = [c + d for c, d in draws]
        kept = []
        for x in roots:
            if not any(abs(x - s) <= 1e-9 for s in kept):
                kept.append(x)
        orbits = maps1d._assemble_orbits(Cubic1D(3.0, 0.0), roots, 1)
        assert [o.points[0] for o in orbits] == sorted(kept)


class TestFindPeriodic:
    def test_cubic_fixed_points_analytic(self):
        # -y^3 + 3y = y  <=>  y (y^2 - 2) = 0
        orbits = find_periodic(Cubic1D(3.0, 0.0), 1, (-2.0, 2.0))
        pts = sorted(o.points[0] for o in orbits)
        want = [-math.sqrt(2), 0.0, math.sqrt(2)]
        assert len(pts) == 3
        assert all(abs(a - b) < 1e-12 for a, b in zip(pts, want))

    def test_cubic_two_cycles(self):
        orbits = find_periodic(Cubic1D(3.0, 0.0), 2, (-2.0, 2.0))
        reps = [o.points for o in orbits]
        assert any(abs(p[0] + 2) < 1e-10 and abs(p[1] - 2) < 1e-10 for p in reps)
        for o in orbits:
            assert o.period == 2
            f = Cubic1D(3.0, 0.0)
            assert abs(f(f(o.points[0])) - o.points[0]) < 1e-10
            # minimality: not a fixed point
            assert abs(f(o.points[0]) - o.points[0]) > 1e-6

    def test_orbit_closure_and_multiplier(self):
        for o in find_periodic(Cubic1D(3.0, 0.0), 3, (-2.0, 2.0)):
            f = Cubic1D(3.0, 0.0)
            y = o.points[0]
            assert abs(f.iterate(y, 3) - y) < 1e-9
            m = 1.0
            for p in o.points:
                m *= f(p, 1)
            assert abs(m - o.multiplier) < 1e-6 * max(1, abs(m))
