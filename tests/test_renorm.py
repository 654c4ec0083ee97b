import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangencylab.planar import PlanarFamily
from tangencylab.renorm import (
    ModelParams,
    conjugate_to_standard,
    conjugation,
    conjugation_inverse,
    decay_rate_bound,
    deviation_from_limit,
    fit_decay_rate,
    limit_family,
    obeys_bare_law,
    renormalized_family,
    renormalized_unreduced,
    reparam,
    reparam_inverse,
    residual_sup,
    residual_table,
    zoom_in,
    zoom_out,
)

MP = ModelParams()  # lam=0.2, sigma=2, a=b=c=1


class TestModelParams:
    def test_standing_hypotheses_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.6, sigma=2.0)  # lam*sigma >= 1
        with pytest.raises(ValueError):
            ModelParams(sigma=0.9)
        with pytest.raises(ValueError):
            ModelParams(b=-1.0)
        with pytest.raises(ValueError):
            ModelParams(a=0.0)

    def test_rate_picks_the_slower_channel(self):
        assert MP.rate == 2.0 ** -0.5  # 0.7071 > 0.4
        assert ModelParams(lam=0.45).rate == 0.9


class TestZoom:
    def test_origin(self):
        for n in (0, 3, 9):
            x, y = zoom_in(MP, n, (0.0, 0.0))
            assert x == 1.0 and y == MP.sigma ** -n

    def test_unit_scales_at_n0(self):
        mp = ModelParams(a=1.0, b=1.0)
        assert zoom_in(mp, 0, (0.3, -0.4)) == (1.3, 0.6)

    def test_hand_value(self):
        # sigma^-2 = 0.25 horizontal scale, sigma^-6 vertical
        x, y = zoom_in(MP, 4, (2.0, -1.0))
        assert x == 1.5
        assert y == 0.0625 - 0.0625 * 0.25

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 20),
    )
    @settings(max_examples=100)
    def test_round_trip(self, xb, yb, n):
        x, y = zoom_in(MP, n, (xb, yb))
        xb2, yb2 = zoom_out(MP, n, (x, y))
        assert abs(xb2 - xb) < 1e-9 * max(1, abs(xb))
        assert abs(yb2 - yb) < 1e-9 * max(1, abs(yb))


class TestReparam:
    def test_zero_zero(self):
        for n in (1, 4):
            mu, nu = reparam(MP, n, 0.0, 0.0)
            assert mu == 0.0
            assert nu == MP.sigma ** -n - MP.lam ** n

    def test_hand_value(self):
        mu, nu = reparam(MP, 3, 3.0, 0.0)
        assert mu == 0.375
        assert abs(nu - 0.117) < 1e-15

    def test_image_shrinks_to_origin(self):
        for mu_bar, nu_bar in ((4.0, 1.0), (0.0, -1.0), (3.0, 0.0)):
            prev = None
            for n in (5, 10, 20, 30):
                mu, nu = reparam(MP, n, mu_bar, nu_bar)
                r = math.hypot(mu, nu)
                if prev is not None:
                    assert r < prev
                prev = r
            assert prev < 1e-8

    @given(
        st.floats(0, 4), st.floats(-1, 1), st.integers(1, 30),
    )
    @settings(max_examples=150)
    def test_round_trip_ulp_scale(self, mu_bar, nu_bar, n):
        # storing nu squeezes the nu_bar signal sigma^(n/2) below an O(1)
        # constant, so the recoverable precision degrades by that factor
        mu, nu = reparam(MP, n, mu_bar, nu_bar)
        mb, nb = reparam_inverse(MP, n, mu, nu)
        assert abs(mb - mu_bar) <= 1e-12 * max(1.0, abs(mu_bar))
        assert abs(nb - nu_bar) <= 1e-12 + 5e-16 * MP.sigma ** (n / 2)

    def test_round_trip_relative_below_n22(self):
        for n in range(1, 23):
            for mu_bar, nu_bar in ((3.0, 0.5), (1.0, -1.0), (4.0, 1.0)):
                mu, nu = reparam(MP, n, mu_bar, nu_bar)
                mb, nb = reparam_inverse(MP, n, mu, nu)
                assert abs(mb - mu_bar) <= 1e-12 * max(1.0, abs(mu_bar))
                assert abs(nb - nu_bar) <= 1e-12 * max(1.0, abs(nu_bar))


class TestRenormalizedMap:
    def test_hand_value_n5(self):
        fam = renormalized_family(MP, 5)
        xb, yb = fam.forward((3.0, 0.0), 2.0, 0.5)
        assert xb == 0.5
        assert abs(yb - (-0.125 + 1.5 + 0.4**5 * 2)) < 1e-15

    def test_first_coordinate_is_y(self):
        fam = renormalized_family(ModelParams(eps=0.3), 4)
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(-2, 2, (50, 2)):
            assert fam.forward((2.0, 0.1), x, y)[0] == y

    def test_quartic_residual_formula(self):
        eps = 0.7
        mp = ModelParams(eps=eps)
        n = 6
        dev = deviation_from_limit(mp, n)
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, (50, 2)):
            d1, d2 = dev(x, y)
            assert d1 == 0.0
            want = mp.a * mp.c * (mp.lam * mp.sigma) ** n * x + eps * mp.sigma ** (-n / 2) * y**4
            assert abs(d2 - want) < 1e-15

    def test_matches_literal_composition(self):
        # the reduced polynomial form is an exact rearrangement of
        # zoom-out o fold o linear^n o zoom-in; roundoff only
        rng = np.random.default_rng(2)
        for mp in (MP, ModelParams(eps=0.5), ModelParams(lam=0.3, sigma=1.5, a=-2.0, b=4.0, c=0.7)):
            for n in (1, 3, 6, 10):
                fam = renormalized_family(mp, n)
                for _ in range(20):
                    xb, yb = rng.uniform(-2, 2, 2)
                    mu_bar, nu_bar = rng.uniform(0, 4), rng.uniform(-1, 1)
                    a = fam.forward((mu_bar, nu_bar), xb, yb)
                    b = renormalized_unreduced(mp, n, mu_bar, nu_bar, (xb, yb))
                    # the literal route amplifies roundoff by the outer zoom
                    tol1 = 1e-12 * (1.0 + mp.g / abs(mp.a) * mp.sigma ** (n / 2))
                    tol2 = 1e-12 * (1.0 + mp.g * mp.sigma ** (1.5 * n))
                    assert abs(a[0] - b[0]) < tol1
                    assert abs(a[1] - b[1]) < tol2

    def test_box_escape_reported(self):
        with pytest.raises(ValueError):
            renormalized_unreduced(MP, 2, 3.0, 0.0, (50.0, 50.0), box=((-1, 2), (-2, 2)))

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            renormalized_family(MP, 0)

    def test_inverse_and_jacobian(self):
        fam = renormalized_family(ModelParams(eps=0.2), 5)
        p = (3.0, 0.1)
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-2, 2, (100, 2)):
            fx, fy = fam.forward(p, x, y)
            bx, by = fam.inverse(p, fx, fy)
            assert math.hypot(bx - x, by - y) < 1e-10
        bare = PlanarFamily(fam.name, fam.param_names, fam.forward)
        for x, y in rng.uniform(-2, 2, (20, 2)):
            ja = np.array(fam.jacobian(p, x, y))
            jf = np.array(bare.jac(p, x, y))
            assert np.max(np.abs(ja - jf)) < 1e-5 * max(1.0, np.max(np.abs(ja)))

    def test_jacobian_determinant_constant(self):
        for eps in (0.0, 0.5):
            mp = ModelParams(eps=eps)
            n = 7
            fam = renormalized_family(mp, n)
            want = -mp.a * mp.c * (mp.lam * mp.sigma) ** n
            rng = np.random.default_rng(4)
            for x, y in rng.uniform(-2, 2, (50, 2)):
                (a, b), (c, d) = fam.jacobian((3.0, 0.0), x, y)
                assert abs(a * d - b * c - want) < 1e-15
            # finite differences agree to 1e-6 relative
            bare = PlanarFamily(fam.name, fam.param_names, fam.forward)
            (a, b), (c, d) = bare.jac((3.0, 0.0), 0.3, -0.4)
            assert abs((a * d - b * c) - want) < 1e-6 * abs(want) + 1e-12


class TestResiduals:
    def test_exact_law_bare_model(self):
        for n in range(4, 15):
            s1, s2 = residual_sup(MP, n)
            want = 2.0 * (MP.lam * MP.sigma) ** n
            assert s1 == 0.0
            assert abs(s2 - want) <= 1e-10 * want

    def test_bare_law_verdict(self):
        for mp in (MP, ModelParams(a=-2.0, c=0.5), ModelParams(c=0.0)):
            assert all(obeys_bare_law(mp, r) for r in residual_table(mp, range(4, 15), grid=41))
        quartic = residual_table(ModelParams(eps=0.1), range(4, 15))
        assert not any(obeys_bare_law(MP, r) for r in quartic)
        row = residual_table(MP, [6])[0]
        assert not obeys_bare_law(MP, dict(row, sup_H2=row["sup_H2"] * (1 + 1e-9)))
        assert not obeys_bare_law(MP, dict(row, sup_H1=1e-300))

    def test_ratio_bound(self):
        mp = ModelParams(eps=0.1)
        rows = residual_table(mp, range(4, 14))
        for r in rows[1:]:
            assert r["ratio"] <= mp.rate + 0.05

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_rate_certification(self, eps):
        mp = ModelParams(eps=eps)
        rows = residual_table(mp, range(4, 15))
        slope = fit_decay_rate(rows)
        assert abs(slope - decay_rate_bound(mp)) <= 0.05

    def test_zero_coupling_degenerate_guard(self):
        # with c=0 and eps=0 the residual vanishes identically and no rate
        # can be fit
        mp = ModelParams(c=0.0)
        assert residual_sup(mp, 5) == (0.0, 0.0)
        with pytest.raises(ValueError):
            fit_decay_rate(residual_table(mp, range(4, 8)))

    @pytest.mark.parametrize("grid", [0, -3])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            residual_sup(MP, 5, grid=grid)


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
        mp = MP
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
