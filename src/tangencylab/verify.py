"""The consolidated verification suite: eight numbered checks covering the
exact Cantor constructions, the conjugacy, renormalization decay rates, the
parameter-velocity table, tangency antimonotonicity, the one-dimensional
certificates, the strange-attractor family, and structural invariants.

Each check returns a `CriterionResult`; `run_all` drives them in order.
Tolerances are pinned here, not configurable at run time.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import cantor, fold, maps1d, planar, renorm, wangyoung

# after the package's modules: compiled (no bytecode cache) on top of
# numpy.random's memory, they raise a fresh process's peak RSS by about
# 1 MB at import and 0.2 MB over a benchmark pass
from numpy.random import default_rng

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "EXPECTED"]

# Reference constants the checks compare against; kept in one mutable table
# so fault-injection tests can corrupt a single entry and watch the named
# criterion fail.
EXPECTED = {
    "q0_m6": Fraction(45, 91),
    "orbit_m6": (
        Fraction(135, 91), Fraction(-132, 91), Fraction(123, 91),
        Fraction(-96, 91), Fraction(15, 91),
    ),
    "upper_slope": 0.9,
    "locus_slope": -5.0 / 6.0,
    "h_left_bracket": 0.3699,
}


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    runtime: float
    limit: float
    details: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    skipped: bool = False  # not run; `passed` is then False, but nothing failed

    @property
    def failed(self) -> bool:
        return not (self.passed or self.skipped)

    @property
    def line(self) -> str:
        mark = "SKIP" if self.skipped else "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.key}: {self.title} ({self.runtime:.1f}s)"

    def to_json(self) -> dict:
        # wall-clock is reported on stdout only, so replayed artifacts stay
        # byte-identical; budget violations land in `failures` regardless
        out = {
            "key": self.key,
            "title": self.title,
            "passed": self.passed,
            "limit_s": self.limit,
            "details": [str(d) for d in self.details],
            "failures": [str(f) for f in self.failures],
        }
        if self.skipped:
            out["skipped"] = True
        return out


class _Check:
    def __init__(self):
        self.details: list = []
        self.failures: list = []

    def expect(self, ok: bool, label: str):
        (self.details if ok else self.failures).append(("ok: " if ok else "FAILED: ") + label)
        return ok


# ---------------------------------------------------------------------------
# 1. Exact Cantor construction
# ---------------------------------------------------------------------------

def _criterion_cantor(c: _Check):
    bound6 = cantor.nominal_thickness_bound(6)
    for g in range(1, 5):
        st = cantor.build_nmap_cantor(6, g)
        exact = all(isinstance(v, Fraction) for iv in st.intervals for v in iv)
        c.expect(exact, f"m=6 gen {g}: all endpoints exact rationals")
        tau = cantor.thickness(st).thickness
        c.expect(
            tau >= bound6,
            f"m=6 gen {g}: thickness {tau} (={float(tau):.4f}) >= {bound6} (={float(bound6):.4f})",
        )
    rep6 = cantor.nmap_cantor_report(6, 2)
    c.expect(rep6["q0"] == EXPECTED["q0_m6"], f"q0(m=6) = {rep6['q0']} == {EXPECTED['q0_m6']}")
    c.expect(tuple(rep6["orbit"][1:]) == EXPECTED["orbit_m6"], "m=6 orbit q1..q5 matches the exact chain")
    taus = {6: rep6["thickness"]}
    for m in (8, 10):
        rep = cantor.nmap_cantor_report(m, 2)
        exact = all(isinstance(v, Fraction) for iv in rep["stage"].intervals for v in iv)
        c.expect(exact, f"m={m} gen 2: all endpoints exact rationals")
        c.expect(
            rep["thickness"] >= rep["nominal_bound"],
            f"m={m}: thickness {rep['thickness']} >= {rep['nominal_bound']}",
        )
        taus[m] = rep["thickness"]
    c.expect(taus[6] < taus[8] < taus[10], f"thickness strictly increasing in m: {[str(taus[m]) for m in (6,8,10)]}")


# ---------------------------------------------------------------------------
# 2. Conjugacy
# ---------------------------------------------------------------------------

def _criterion_conjugacy(c: _Check):
    xs = np.linspace(-1.5, 1.5, 10_000)
    worst = float(maps1d.conjugacy_defect(xs).max())
    c.expect(worst < 1e-12, f"sup conjugacy defect over 10^4-point grid = {worst:.3e} < 1e-12")


# ---------------------------------------------------------------------------
# 3. Renormalization rate
# ---------------------------------------------------------------------------

def _criterion_renorm(c: _Check):
    mp = renorm.ModelParams()
    for r in renorm.residual_table(mp, range(4, 15)):
        c.expect(
            renorm.obeys_bare_law(mp, r),
            f"bare model n={r['n']}: sup residual {r['sup_H2']:.6e} == 2*(lam*sigma)^n rel 1e-10",
        )
    target = renorm.decay_rate_bound(mp)
    for eps in (0.1, 1.0):
        slope, ok = renorm.rate_fit(mp, renorm.residual_table(renorm.ModelParams(eps=eps), range(4, 15)))
        c.expect(ok, f"quartic eps={eps}: log-residual slope {slope:.4f} within {renorm.RATE_TOL} of {target:.4f}")


# ---------------------------------------------------------------------------
# 4. Velocity table
# ---------------------------------------------------------------------------

def _criterion_velocity(c: _Check):
    table = planar.velocity_table()
    exact = planar.limit_velocities()
    for sign in (+1, -1):
        got, want = table[("y1", sign, "mu")], exact[("y1", sign, "mu")]
        c.expect(abs(got - want) < 1e-3, f"d y1({sign:+d})/d mu = {got:.6f} within 1e-3 of {want}")
    for sign in (+1, -1):
        got, want = table[("y1", sign, "nu")], exact[("y1", sign, "nu")]
        c.expect(abs(got - want) < 1e-3, f"d y1({sign:+d})/d nu = {got:.6f} within 1e-3 of {want}")
    for sign in (+1, -1):
        got, want = table[("critical_value", sign, "mu")], exact[("critical_value", sign, "mu")]
        c.expect(abs(got - want) < 1e-6, f"d F(c{sign:+d})/d mu = {got:.9f} within 1e-6 of {want}")
        got, want = table[("critical_value", sign, "nu")], exact[("critical_value", sign, "nu")]
        c.expect(abs(got - want) < 1e-9, f"d F(c{sign:+d})/d nu = {got:.12f} within 1e-9 of {want}")


# ---------------------------------------------------------------------------
# 5. Tangency antimonotonicity
# ---------------------------------------------------------------------------

def _criterion_tangency(c: _Check):
    mp = renorm.ModelParams()
    n = 6
    coupling = renorm.coupling(mp, n)
    c.expect(coupling <= renorm.MAX_COUPLING,
             f"coupling (lam*sigma)^n = {coupling:.4f} <= {renorm.MAX_COUPLING} at n={n}")
    residual = renorm.residual_sup(mp, n)[1]
    tol = 0.1 + residual
    fam = renorm.renormalized_family(mp, n)

    exact = planar.limit_velocities()
    c.expect(
        EXPECTED["upper_slope"] == float(exact[("gap_slope", +1)])
        and EXPECTED["locus_slope"] == float(exact[("locus_slope", +1)]),
        f"reference slopes {EXPECTED['upper_slope']} and {EXPECTED['locus_slope']:.4f} equal the limit "
        f"family's {exact[('gap_slope', +1)]} and {exact[('locus_slope', +1)]}",
    )

    # both mu = 3 events come from the fold route, as in CLI tangency: the lower
    # search runs in the locus's lockstep, and the upper event is the locus's
    # mu = 3 root; a search whose bracket shows no sign change finds no event
    mus = [float(m) for m in np.linspace(2.85, 3.15, 7)]
    probes = {mu: planar.region_probes(fam, mu) for mu in mus}
    regions, nu_pred = probes[3.0]
    bracket = (nu_pred - 0.03, nu_pred + 0.03)
    searches = [(fold.FoldProbe(p["upper"]), (pred - 0.03, pred + 0.03)) for p, pred in probes.values()]
    searches.append((fold.FoldProbe(regions["lower"]), bracket))
    roots = fold.fold_roots(searches)
    fit = planar.tangency_locus(dict(zip(mus, roots)))
    at_3 = mus.index(3.0)
    ends = [(searches[at_3][0], roots[at_3]), (searches[-1][0], roots[-1])]
    events = dict(zip(("upper", "lower"), fold.fold_events(ends)))
    for name, ev in events.items():
        if isinstance(ev, ValueError) and not isinstance(ev, planar.WindowRejected):
            events[name] = None  # no sign change over the bracket
        elif isinstance(ev, Exception):
            raise ev
    ev_up, ev_lo = events["upper"], events["lower"]
    # the polyline probe at each fold event and b either side of it, b the
    # probe's derived distance from the fold root (`fold_bound` on its candidate)
    polyline = {}
    for name, ev in events.items():
        if ev is not None:
            probe = regions[name]
            cand = probe(ev.parameter)
            b = fold.fold_bound(probe, replace(ev, candidate=cand))
            polyline[name] = cand, b, probe.penetration(ev.parameter - b), probe.penetration(ev.parameter + b)
    if ev_up is None:
        c.expect(False, f"no upper event in [{bracket[0]:.6f}, {bracket[1]:.6f}]")
    else:
        c.expect(ev_up.classification == "contact-making", f"upper event at nu={ev_up.parameter:.6f} is contact-making")
        c.expect(
            abs(ev_up.gap_slope - EXPECTED["upper_slope"]) <= tol,
            f"upper gap slope {ev_up.gap_slope:.4f} within {tol:.4f} of {EXPECTED['upper_slope']}",
        )
        c.expect(
            math.hypot(ev_up.location[0] - 1.0, ev_up.location[1] - 2.0) < 0.3,
            f"upper event located at {ev_up.location} near (1, 2)",
        )
        cand = polyline["upper"][0]
        c.expect(
            abs(cand.curvature_gap) > 10 * max(cand.fit_noise, 1e-12),
            f"curvature mismatch {abs(cand.curvature_gap):.3f} exceeds 10x interpolation noise",
        )
        c.expect(ev_up.richardson_consistent, "upper slope Richardson-consistent under dt halving")
    if ev_lo is None:
        c.expect(False, f"no lower event in [{bracket[0]:.6f}, {bracket[1]:.6f}]")
    else:
        c.expect(ev_lo.classification == "contact-breaking", f"lower event at nu={ev_lo.parameter:.6f} is contact-breaking")
        c.expect(ev_lo.gap_slope < 0, f"lower gap slope {ev_lo.gap_slope:.4f} negative")
    if ev_up is not None and ev_lo is not None:
        # a sign change of the probe's penetration over [t - b, t + b], in the
        # fold slope's direction, puts a probe zero within b of the fold root
        c.expect(
            all(events[name].gap_slope * lo < 0 < events[name].gap_slope * hi for name, (_, _, lo, hi) in polyline.items()),
            "probe penetrations change sign within the derived bound of the fold events: "
            + ", ".join(f"{name} +-{b:.2e}: {lo:.2e}, {hi:.2e}" for name, (_, b, lo, hi) in polyline.items()),
        )

    c.expect(not fit.skipped, f"fold locus found at every mu grid point {list(fit.mu_values)}")
    c.expect(
        abs(fit.slope - EXPECTED["locus_slope"]) <= 0.1,
        f"fold locus slope {fit.slope:.4f} within 0.1 of {EXPECTED['locus_slope']:.4f}",
    )
    c.expect(fit.strictly_decreasing, f"fold locus nu(mu) strictly decreasing: {[f'{v:.4f}' for v in fit.nu_values]}")


# ---------------------------------------------------------------------------
# 6. One-dimensional certificates
# ---------------------------------------------------------------------------

def _criterion_wangyoung(c: _Check):
    mu = wangyoung.find_mu_star()
    c.expect(wangyoung.MU_LO < mu < wangyoung.MU_HI, f"mu* = {mu:.9f} inside the bracket")
    f = maps1d.Cubic1D(mu, 0.0)
    cpos = f.critical_points()[1]
    c.expect(abs(f.iterate(cpos, 3)) < 1e-9, f"|F^3(c)| = {abs(f.iterate(cpos, 3)):.2e} < 1e-9")
    interval = wangyoung.build_interval(mu)
    c.expect(interval[0] < 0 < interval[1], f"trapping interval {interval} built with full ordering chain")
    cert = wangyoung.misiurewicz_check(mu, interval)
    ok, w = cert.checks["negative_schwarzian"]
    c.expect(
        ok,
        "Schwarzian closed form negative off the critical set: mu* > 0, and it equals "
        f"the Schwarzian exactly at {w['points']} rational points",
    )
    ok, w = cert.checks["all_orbits_repelling"]
    c.expect(ok, f"all period<={wangyoung.MAX_PERIOD} orbits repelling (weakest multiplier {w['weakest_multiplier']:.4f}; "
                 f"{w['unresolved']} unresolved, worst residual {w['worst_residual']:.2e})")
    _, a = wangyoung.markov_partition(mu)
    for p, (got, want) in enumerate(zip(w["orbits"], wangyoung.trace_orbit_counts(a, wangyoung.MAX_PERIOD)), 1):
        c.expect(got == want, f"period {p}: find_periodic's {got} orbits == the Markov partition's tr(A^p) count {want}")
    c.expect(cert.passed, "Misiurewicz certificate passed")
    tr = wangyoung.transversality_check(mu)
    c.expect(tr.dp_dmu < 0.4, f"dp/dmu = {tr.dp_dmu:.6f} < 0.4")
    c.expect(tr.dcrit_dmu > 0.9, f"d F(c)/dmu = {tr.dcrit_dmu:.6f} > 0.9")
    c.expect(abs(tr.dp_dmu - tr.dp_dmu_fd) < 1e-5, "closed form and implicit finite difference agree to 1e-5")
    c.expect(abs(tr.dp_dmu - tr.dp_dmu_h_form) < 1e-12, "closed form and its h(mu) rearrangement agree to 1e-12")
    c.expect(tr.h_monotone, "h strictly decreasing across the mu* bracket")
    h_left = wangyoung.transversality_h(wangyoung.MU_LO)
    c.expect(
        abs(h_left - EXPECTED["h_left_bracket"]) < 1e-4,
        f"h at the left bracket end = {h_left:.6f} matches {EXPECTED['h_left_bracket']}",
    )
    t_fam = wangyoung.make_T_family(renorm.ModelParams(), 6)
    grid = np.linspace(interval[0], interval[1], 21)
    box = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    nd = wangyoung.nondegeneracy_check(t_fam, (mu,), box)
    c.expect(nd < 1e-6, f"non-degeneracy: max |dF2/dx - 1| = {nd:.2e} < 1e-6 on the n=6 T-family, trapping box")


# ---------------------------------------------------------------------------
# 7. Strange-attractor family
# ---------------------------------------------------------------------------

def _criterion_attractor(c: _Check):
    fam = planar.cubic_henon()
    p = (2.8, 0.1)
    fps = planar.find_fixed_points(fam, p, box=((-2.5, 2.5), (-2.5, 2.5)), grid=50)
    c.expect(len(fps) == 3, f"exactly three fixed points found: {[f.location for f in fps]}")

    def char_roots(b_coef, c_coef):
        # roots of lambda^2 + b*lambda + c
        disc = math.sqrt(b_coef * b_coef - 4 * c_coef)
        return sorted(((-b_coef + disc) / 2, (-b_coef - disc) / 2), key=abs, reverse=True)

    for f in fps:
        at_origin = math.hypot(*f.location) < 1e-9
        want = char_roots(-2.8, -0.1) if at_origin else char_roots(2.9, -0.1)
        got = sorted(f.eigenvalues, key=abs, reverse=True)
        err = max(abs(a - b) for a, b in zip(got, want))
        c.expect(err < 1e-8, f"fixed point {f.location}: eigenvalues match characteristic roots to {err:.2e}")
        c.expect(f.is_saddle, f"fixed point {f.location} is a saddle")

    seeds = [(0.1, 0.9), (0.2, -0.7), (-0.3, 1.1), (0.05, 0.5), (-0.1, -1.3)]
    vals = []
    for s in seeds:
        est = planar.lyapunov(fam, p, s, 1_000_000, discard=2000)
        c.expect(not est.escaped, f"orbit from {s} stays bounded over 10^6 steps")
        vals.append(est.value)
    mean = sum(vals) / len(vals)
    c.expect(all(v > 0 for v in vals), f"top exponent positive for all seeds (mean {mean:.4f})")
    c.expect(
        max(abs(v - mean) for v in vals) <= 0.02,
        f"seed stability: max deviation {max(abs(v - mean) for v in vals):.4f} <= 0.02",
    )

    rng = default_rng(11)
    pts = rng.uniform(-2, 2, size=(200, 2))
    det_err = 0.0
    fd_err = 0.0
    h = 1e-6  # central differences of the forward map
    for x, y in pts:
        (a, b), (cc, d) = fam.jacobian(p, x, y)
        det_err = max(det_err, abs(a * d - b * cc - (-0.1)))
        fxp, fxm = fam.forward(p, x + h, y), fam.forward(p, x - h, y)
        fyp, fym = fam.forward(p, x, y + h), fam.forward(p, x, y - h)
        a, b = (fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)
        cc, d = (fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)
        fd_err = max(fd_err, abs(a * d - b * cc - (-0.1)))
    c.expect(det_err < 1e-8, f"analytic Jacobian determinant == -0.1 to {det_err:.2e}")
    c.expect(fd_err < 1e-5, f"finite-difference Jacobian determinant == -0.1 to {fd_err:.2e}")


# ---------------------------------------------------------------------------
# 8. Structural invariants
# ---------------------------------------------------------------------------

def _criterion_structural(c: _Check):
    rng = default_rng(5)
    fam = planar.cubic_henon()
    p = (2.8, 0.1)
    worst = 0.0
    for x, y in rng.uniform(-2, 2, size=(1000, 2)).tolist():
        fx, fy = fam.forward(p, x, y)
        bx, by = fam.inverse(p, fx, fy)
        worst = max(worst, math.hypot(bx - x, by - y))
    rfam = renorm.renormalized_family(renorm.ModelParams(), 6)
    for x, y in rng.uniform(-2, 2, size=(200, 2)).tolist():
        fx, fy = rfam.forward((3.0, 0.0), x, y)
        bx, by = rfam.inverse((3.0, 0.0), fx, fy)
        worst = max(worst, math.hypot(bx - x, by - y))
    c.expect(worst < 1e-10, f"inverse round trips within {worst:.2e} < 1e-10")

    lin = planar.PlanarFamily(
        "linear", ("lam", "sigma"),
        lambda q, x, y: (q[0] * x, q[1] * y),
        lambda q, x, y: (x / q[0], y / q[1]),
        lambda q, x, y: ((q[0], 0.0), (0.0, q[1])),
    )
    est = planar.lyapunov(lin, (0.2, 2.0), (1.0, 0.0), 100_000, discard=1000)
    c.expect(abs(est.value - math.log(2.0)) < 1e-9, f"linear-map exponent error {abs(est.value - math.log(2.0)):.2e} < 1e-9")

    mt = cantor.markov_cantor(cantor.middle_thirds_system(), 5)
    tau = cantor.thickness(mt).thickness
    c.expect(tau == Fraction(1), f"middle-thirds generation-5 thickness == 1 exactly (got {tau})")

    k6 = cantor.build_nmap_cantor(6, 3)
    v = cantor.gap_lemma_check(k6, k6)
    c.expect(v.verdict == "intervals-intersect", f"identical copies: {v.verdict}")
    v = cantor.gap_lemma_check(k6, k6.translate(Fraction(10)))
    c.expect(v.verdict in ("K1-in-gap-of-K2", "K2-in-gap-of-K1"), f"translated by 10: {v.verdict}")
    tau6 = cantor.thickness(k6).thickness
    c.expect(float(tau6) ** 2 > 1, f"thickness product {float(tau6)**2:.1f} > 1 for the linked scenario")
    for g in range(1, 7):
        kg = cantor.build_nmap_cantor(6, g)
        v = cantor.gap_lemma_check(kg, kg.translate(Fraction(1, 1000)))
        c.expect(v.verdict == "intervals-intersect", f"1/1000 shift gen {g}: {v.verdict}")


CRITERIA = {
    "cantor_exactness": ("Exact Cantor stages, base point, thickness bound", _criterion_cantor, 5.0),
    "conjugacy": ("Sine conjugacy defect below 1e-12", _criterion_conjugacy, 1.0),
    "renorm_rate": ("Residual law and decay-rate certification", _criterion_renorm, 30.0),
    "velocity_table": ("Parameter velocities of reference objects", _criterion_velocity, 1.0),
    "tangency": ("Contact-making/breaking events and locus slope", _criterion_tangency, 300.0),
    "wang_young": ("One-dimensional certificate chain", _criterion_wangyoung, 30.0),
    "attractor": ("Strange-attractor family consistency", _criterion_attractor, 120.0),
    "structural": ("Inverses, exponents, classical sets, trichotomy", _criterion_structural, 30.0),
}


def run_criterion(key: str) -> CriterionResult:
    title, fn, limit = CRITERIA[key]
    check = _Check()
    t0 = time.perf_counter()
    try:
        fn(check)
    except Exception as exc:  # a crashed criterion is a failed criterion
        check.failures.append(f"raised {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    if dt > limit:
        check.failures.append(f"runtime {dt:.1f}s exceeded the {limit:.0f}s budget")
    return CriterionResult(
        key=key,
        title=title,
        passed=not check.failures,
        runtime=dt,
        limit=limit,
        details=check.details,
        failures=check.failures,
    )


def run_all(skip=()) -> list[CriterionResult]:
    out = []
    for key in CRITERIA:
        if key in skip:
            out.append(CriterionResult(key, CRITERIA[key][0], False, 0.0, CRITERIA[key][2], ["skipped"], [], skipped=True))
            continue
        out.append(run_criterion(key))
    return out
