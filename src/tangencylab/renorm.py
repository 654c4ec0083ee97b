"""Renormalization cascade around a once-folding planar model map.

The model composes n linear saddle steps (x,y) -> (lam*x, sigma*y) with a
single folding step

    (x, y) -> (1 + a*(y-1) + H1,  -b*(y-1)^3 + mu*(y-1) + nu + c*x + H2),

then conjugates by the n-dependent zoom `Phi_n` and reparametrizes by
`Theta_n`.  In the zoomed frame the composition is an exact polynomial map

    (X, Y) -> (Y, -Y^3 + MU*Y + NU + a*c*(lam*sigma)^n * X + quartic term),

so deviations from the limit endomorphism (Y, -Y^3 + MU*Y + NU) are measured
without catastrophic cancellation.  A literal step-by-step composition is
kept alongside as a cross-check (`renormalized_unreduced`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planar import PlanarFamily

__all__ = [
    "ModelParams",
    "zoom_in",
    "zoom_out",
    "reparam",
    "reparam_inverse",
    "limit_family",
    "renormalized_family",
    "renormalized_unreduced",
    "deviation_from_limit",
    "residual_sup",
    "residual_table",
    "obeys_bare_law",
    "fit_decay_rate",
    "decay_rate_bound",
    "conjugate_to_standard",
    "conjugation",
    "conjugation_inverse",
]


@dataclass(frozen=True)
class ModelParams:
    """Saddle eigenvalues and folding coefficients of the model.

    Requires 0 < lam < 1 < sigma with lam*sigma < 1 (dissipative saddle),
    b > 0 and a != 0.  `eps` switches on the quartic fold correction
    H2 = eps*(y-1)^4; eps=0 is the bare polynomial model (H1 is always 0).
    """

    lam: float = 0.2
    sigma: float = 2.0
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if not (0 < self.lam < 1 < self.sigma):
            raise ValueError("need 0 < lam < 1 < sigma")
        if not self.lam * self.sigma < 1:
            raise ValueError("need lam*sigma < 1 (dissipative saddle)")
        if self.b <= 0:
            raise ValueError("need b > 0")
        if self.a == 0:
            raise ValueError("need a != 0")

    @property
    def g(self) -> float:
        return math.sqrt(self.b)

    @property
    def rate(self) -> float:
        """Expected residual decay rate max(sigma^-1/2, lam*sigma)."""
        return max(self.sigma ** -0.5, self.lam * self.sigma)


def zoom_in(params: ModelParams, n: int, pt):
    """The affine change Phi_n: zoomed coords -> model coords."""
    if n < 0:
        raise ValueError("n must be >= 0")
    xb, yb = pt
    s = params.sigma
    x = 1 + params.a / params.g * s ** (-n / 2) * xb
    y = s ** (-n) + s ** (-1.5 * n) / params.g * yb
    return (x, y)


def zoom_out(params: ModelParams, n: int, pt):
    """Inverse of `zoom_in`."""
    x, y = pt
    s = params.sigma
    xb = (x - 1) * params.g / params.a * s ** (n / 2)
    yb = (y - s ** (-n)) * params.g * s ** (1.5 * n)
    return (xb, yb)


def reparam(params: ModelParams, n: int, mu_bar, nu_bar):
    """Theta_n: zoomed parameters (mu_bar, nu_bar) -> model parameters (mu, nu)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = params.sigma
    mu = s ** (-n) * mu_bar
    nu = s ** (-1.5 * n) / params.g * nu_bar - params.c * params.lam ** n + s ** (-n)
    return (mu, nu)


def reparam_inverse(params: ModelParams, n: int, mu, nu):
    s = params.sigma
    mu_bar = s ** n * mu
    # grouped so the sigma^-n constant cancels before the large rescale;
    # the recoverable precision of nu_bar is still ulp(sigma^-n)*sigma^(3n/2)
    nu_bar = params.g * s ** (1.5 * n) * (nu + params.c * params.lam ** n - s ** (-n))
    return (mu_bar, nu_bar)


def _fold_step(params: ModelParams, mu, nu, x, y):
    dy = y - 1
    h2 = params.eps * dy ** 4
    return (
        1 + params.a * dy,
        -params.b * dy ** 3 + mu * dy + nu + params.c * x + h2,
    )


def limit_family() -> PlanarFamily:
    """The limit endomorphism (X, Y) -> (Y, -Y^3 + MU*Y + NU); not invertible."""

    def fwd(p, x, y):
        mu, nu = p
        return (y, -(y ** 3) + mu * y + nu)

    def jac(p, x, y):
        mu, nu = p
        z = 0.0 * y
        return ((z, 1.0 + z), (z, -3.0 * y ** 2 + mu))

    return PlanarFamily("cubic-limit", ("mu_bar", "nu_bar"), fwd, inverse=None, jacobian=jac)


def _coupling(params: ModelParams, n: int) -> float:
    return params.a * params.c * (params.lam * params.sigma) ** n


def _quartic_coeff(params: ModelParams, n: int) -> float:
    return params.eps * params.g ** -3 * params.sigma ** (-n / 2)


def renormalized_family(params: ModelParams, n: int) -> PlanarFamily:
    """The zoomed n-step return map as a two-parameter planar family.

    Exact polynomial reduction of Phi_n^-1 o (fold) o (linear)^n o Phi_n at
    parameters Theta_n(mu_bar, nu_bar); agrees with the literal composition
    to roundoff (see `renormalized_unreduced`) but evaluates without the
    sigma^(3n/2)-amplified cancellations of the raw route.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = _coupling(params, n)
    q = _quartic_coeff(params, n)

    # products, not `**`: numpy's power is many times slower on arrays
    def fwd(p, x, y):
        mu_bar, nu_bar = p
        y2 = y * y
        return (y, -(y2 * y) + mu_bar * y + nu_bar + k * x + q * (y2 * y2))

    def inv(p, x, y):
        mu_bar, nu_bar = p
        yb = x
        y2 = yb * yb
        xb = (y + y2 * yb - mu_bar * yb - nu_bar - q * (y2 * y2)) / k
        return (xb, yb)

    def jac(p, x, y):
        mu_bar, nu_bar = p
        z = 0.0 * y
        y2 = y * y
        return ((z, 1.0 + z), (k + z, -3.0 * y2 + mu_bar + 4.0 * q * (y2 * y)))

    return PlanarFamily(f"renormalized-n{n}", ("mu_bar", "nu_bar"), fwd, inverse=inv, jacobian=jac)


def renormalized_unreduced(params: ModelParams, n: int, mu_bar, nu_bar, pt, box=None):
    """Literal composition Phi_n^-1 o fold o (linear)^n o Phi_n.

    Numerically noisy at large n (the outer zoom amplifies roundoff by
    sigma^(3n/2)); used as an independent route to validate the reduced
    family.  `box` optionally bounds the pre-fold point; an escape raises.
    """
    mu, nu = reparam(params, n, mu_bar, nu_bar)
    x, y = zoom_in(params, n, pt)
    x, y = params.lam ** n * x, params.sigma ** n * y
    if box is not None:
        (xlo, xhi), (ylo, yhi) = box
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            raise ValueError(f"pre-fold point ({x},{y}) escaped the linearization box")
    x, y = _fold_step(params, mu, nu, x, y)
    return zoom_out(params, n, (x, y))


def deviation_from_limit(params: ModelParams, n: int):
    """Componentwise deviation (D1, D2) of the zoomed map from its limit.

    D1 is identically zero for this model; D2(x, y) = k*x + q*y^4 with
    k = a*c*(lam*sigma)^n and q = eps*b^{-3/2}*sigma^{-n/2}, exactly.
    """
    k = _coupling(params, n)
    q = _quartic_coeff(params, n)

    def dev(x, y):
        return (0.0 * x, k * x + q * y ** 4)

    return dev


def residual_sup(
    params: ModelParams,
    n: int,
    box=((-2.0, 2.0), (-2.0, 2.0)),
    grid: int = 101,
) -> tuple[float, float]:
    """Sup over a box grid of the componentwise deviation from the limit map.

    The deviation of this model does not depend on (mu_bar, nu_bar), see
    `deviation_from_limit`, so one evaluation over the box is the sup over
    every parameter.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1 points per axis, got {grid}")
    (xlo, xhi), (ylo, yhi) = box
    X, Y = np.meshgrid(np.linspace(xlo, xhi, grid), np.linspace(ylo, yhi, grid))
    d1, d2 = deviation_from_limit(params, n)(X, Y)
    return float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))


def residual_table(params: ModelParams, n_values, **kw) -> list[dict]:
    rows = []
    prev = None
    for n in n_values:
        s1, s2 = residual_sup(params, n, **kw)
        total = max(s1, s2)
        rows.append(
            {
                "n": n,
                "sup_H1": s1,
                "sup_H2": s2,
                "ratio": (total / prev) if prev else float("nan"),
            }
        )
        prev = total
    return rows


def obeys_bare_law(params: ModelParams, row: dict) -> bool:
    """Whether a `residual_table` row of the bare model (eps = 0) obeys the
    closed law sup|H1| = 0, sup|H2| = 2|ac|(lam*sigma)^n to relative 1e-10.

    The deviation k*x peaks at the box edge |x| = 2, which every grid of the
    default box samples.
    """
    want = 2.0 * abs(params.a * params.c) * (params.lam * params.sigma) ** row["n"]
    ok = row["sup_H2"] == 0.0 if want == 0.0 else abs(row["sup_H2"] - want) <= 1e-10 * want
    return ok and row["sup_H1"] == 0.0


def fit_decay_rate(rows) -> float:
    """Least-squares slope of log residual versus n."""
    ns = np.array([r["n"] for r in rows], dtype=float)
    vals = np.array([max(r["sup_H1"], r["sup_H2"]) for r in rows], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("residuals must be positive to fit a decay rate")
    slope, _ = np.polyfit(ns, np.log(vals), 1)
    return float(slope)


def decay_rate_bound(params: ModelParams) -> float:
    """log of the expected decay rate max(sigma^-1/2, lam*sigma)."""
    return math.log(params.rate)


# ---------------------------------------------------------------------------
# Conjugation to the once-folding normal form
# ---------------------------------------------------------------------------

def conjugation(mu_bar, nu_bar, pt):
    """f(X, Y) = (X^3 - MU*X - NU + Y, X); straightens the limit map so its
    image collapses onto the axis x=0."""
    x, y = pt
    return (x ** 3 - mu_bar * x - nu_bar + y, x)


def conjugation_inverse(mu_bar, nu_bar, pt):
    x, y = pt
    return (y, x - y ** 3 + mu_bar * y + nu_bar)


def conjugate_to_standard(family: PlanarFamily) -> PlanarFamily:
    """f o family o f^-1, parameterized by the same (mu_bar, nu_bar).

    For the limit endomorphism the result is exactly
    (X, Y) -> (0, -Y^3 + MU*Y + NU + X).
    """

    def fwd(p, x, y):
        mu, nu = p
        q = conjugation_inverse(mu, nu, (x, y))
        q = family.forward(p, *q)
        return conjugation(mu, nu, q)

    inv = None
    if family.inverse is not None:
        def inv(p, x, y):
            mu, nu = p
            q = conjugation_inverse(mu, nu, (x, y))
            q = family.inverse(p, *q)
            return conjugation(mu, nu, q)

    return PlanarFamily(f"{family.name}-standardized", family.param_names, fwd, inverse=inv, jacobian=None)
