"""Experiment orchestration: named experiments with deterministic CSV/JSON
artifacts and a consolidated verification report.

Every run writes a manifest echoing its fully-resolved configuration; every
artifact embeds the 12-hex config hash (a leading `# config_hash:` comment
in CSV files, a `config_hash` field in JSON).  Two runs from identical
manifests produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

# each command imports the package modules it runs, after its own argument
# checks, so start-up and usage errors load none of them
SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    name: str
    params: dict
    out: str
    tolerances: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    seed: int = 0

    def resolved(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "params": dict(sorted(self.params.items())),
            "out": self.out,
            "tolerances": dict(sorted(self.tolerances.items())),
            "grids": dict(sorted(self.grids.items())),
            "seed": self.seed,
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _apply_config_file(args, parser, path: str):
    """Override `args` from a JSON object keyed by option name.  Each value
    must fit its option's type and choices (an int passes for a float, a bool
    for nothing; an appended option takes a list) and converts like an argument.
    A file that cannot be read, is not JSON or is not an object is a usage error."""
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except OSError as exc:
        parser.error(f"--config: cannot read {path!r}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        parser.error(f"--config: {path!r} is not valid JSON: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"--config: {path!r} must hold a JSON object, got {type(overrides).__name__}")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    for key, val in overrides.items():
        if key not in actions:
            parser.error(f"unknown config key {key!r} (allowed: {sorted(actions)})")
        action = actions[key]
        kind, appended = action.type or str, isinstance(action.default, list)
        if appended and not isinstance(val, list):
            parser.error(f"config key {key!r} must be a list, got {val!r}")
        for v in val if appended else [val]:
            if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
                parser.error(f"config key {key!r} must be {kind.__name__}, got {v!r}")
            if action.choices is not None and v not in action.choices:
                parser.error(f"config key {key!r}: invalid choice {v!r} (choose from {', '.join(action.choices)})")
        setattr(args, key, [kind(v) for v in val] if appended else kind(val))


def _outdir(args) -> Path:
    out = args.out or os.environ.get("TANGENCYLAB_OUT", ".")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(cfg: ExperimentConfig, outdir: Path) -> None:
    _write_json(outdir / f"{cfg.name}_manifest.json", cfg.resolved(), cfg)


def _json_default(obj):
    """A `Fraction` as the object {"den", "float", "num"}; anything else as its str."""
    if isinstance(obj, Fraction):
        return {"den": obj.denominator, "float": float(obj), "num": obj.numerator}
    return str(obj)


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg.hash
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


_CSV_ROWS = 1 << 14  # rows rendered and written at a time


def _csv_text(rows: list) -> str:
    """`rows` as `csv.writer` renders them.  It writes a number as its `str`
    (a float's, numpy's too, is its repr), so rows of one width are formatted
    from those in one pass, unless the text shows a field it renders
    otherwise: a None (written empty) or a field with a comma, quote or line
    break (quoted).  Those rows, and rows of mixed or under two fields (a
    lone empty field is quoted), go to `csv.writer`."""
    n, widths = len(rows), set(map(len, rows))
    if len(widths) == 1 and (w := widths.pop()) >= 2:
        text = (("%s," * (w - 1) + "%s\r\n") * n) % tuple(chain.from_iterable(rows))
        if ("N" not in text and '"' not in text and text.count(",") == (w - 1) * n
                and text.count("\r") == n == text.count("\n")):
            return text
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_csv(path: Path, header, rows, cfg: ExperimentConfig) -> None:
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash: {cfg.hash}\n")
        fh.write(_csv_text([header]))
        while chunk := list(islice(rows, _CSV_ROWS)):
            fh.write(_csv_text(chunk))


# ---------------------------------------------------------------------------
# cantor
# ---------------------------------------------------------------------------

def cmd_cantor(args, parser) -> int:
    if args.m < 6 or args.m % 2:
        parser.error("--m must be an even integer >= 6")
    if args.gen < 1:
        parser.error("--gen must be >= 1")
    from . import cantor

    out = _outdir(args)
    cfg = ExperimentConfig("cantor", {"m": args.m, "gen": args.gen}, str(out))
    rep = cantor.nmap_cantor_report(args.m, args.gen)
    stage = rep["stage"]
    _write_csv(out / "intervals.csv", ["generation", "left_num", "left_den", "right_num", "right_den"],
               zip(repeat(stage.generation), *stage.fraction_columns()), cfg)

    report = rep["thickness_report"]
    payload = {
        "m": args.m,
        "generation": args.gen,
        "n_intervals": rep["n_intervals"],
        "q0": rep["q0"],
        "x_m": rep["x_m"],
        "thickness": rep["thickness"],
        "nominal_bound": rep["nominal_bound"],
        "bound_holds": rep["bound_holds"],
        "gap_at_half": rep["gap_at_half"],
        "gap_at_half_closed_form": rep["gap_at_half_closed_form"],
        "gap_at_minus_half": rep["gap_at_minus_half"],
        "nominal_delta": rep["nominal_delta"],
        "delta_discrepancy": rep["nominal_delta"] != rep["gap_at_minus_half"],
        "realized_closed_form_gen_stable": rep["realized_closed_form"],
        "report": {
            "thickness": report.thickness,
            "witness_gap": report.witness_gap,
            "witness_bridge": report.witness_bridge,
        },
        # intervals.csv holds the intervals, exactly; `cantor.thickness` of
        # that stage rebuilds the per-endpoint records
        "stage": {
            "source": stage.source,
            "generation": stage.generation,
            "ambient": stage.ambient,
        },
    }
    _write_json(out / "thickness.json", payload, cfg)
    _write_manifest(cfg, out)
    tau = rep["thickness"]
    print(f"m={args.m} gen={args.gen}: thickness {tau} (~{float(tau):.4f}); "
          f"nominal bound {rep['nominal_bound']} holds: {rep['bound_holds']}")
    return 0 if rep["bound_holds"] else 1


# ---------------------------------------------------------------------------
# renorm
# ---------------------------------------------------------------------------

def cmd_renorm(args, parser) -> int:
    if args.n_min < 1:
        parser.error("--n-min must be >= 1")
    if args.n_max < args.n_min:
        parser.error("--n-max must be >= --n-min")
    if args.grid < 1:
        parser.error("--grid must be >= 1")
    from . import renorm

    try:
        mp = renorm.ModelParams(args.lam, args.sigma, args.a, args.b, args.c, args.eps)
    except ValueError as exc:
        parser.error(str(exc))
    rows = renorm.residual_table(mp, range(args.n_min, args.n_max + 1), grid=args.grid)
    if args.eps != 0:
        for r in rows:
            if max(r["sup_H1"], r["sup_H2"]) == 0:
                parser.error(f"--n-min/--n-max: both residuals underflow to 0 at n={r['n']}; "
                             "the decay-rate fit needs them positive")
    out = _outdir(args)
    cfg = ExperimentConfig(
        "renorm",
        {"lam": args.lam, "sigma": args.sigma, "a": args.a, "b": args.b, "c": args.c,
         "eps": args.eps, "n_min": args.n_min, "n_max": args.n_max},
        str(out),
        grids={"box_grid": args.grid},
    )
    _write_csv(out / "residuals.csv", ["n", "sup_H1", "sup_H2", "ratio"],
               [[r["n"], r["sup_H1"], r["sup_H2"], r["ratio"]] for r in rows], cfg)

    target = renorm.decay_rate_bound(mp)
    if args.eps != 0:
        # the quartic channel decays at the slow rate: two-sided fit check
        slope, certified = renorm.rate_fit(mp, rows)
        mode = "rate-fit"
        msg = f"decay slope {slope:.4f} vs log(rate) {target:.4f}"
    else:
        slope = None
        certified = all(renorm.obeys_bare_law(mp, r) for r in rows)
        mode = "exact-law"
        msg = "bare-model residual law"
    _write_json(out / "rate.json", {
        "mode": mode,
        "fitted_slope": slope,
        "target_log_rate": target,
        "rate": mp.rate,
        "certified": certified,
    }, cfg)
    _write_manifest(cfg, out)
    print(f"{msg}; certified: {certified}")
    return 0 if certified else 1


# ---------------------------------------------------------------------------
# attractor
# ---------------------------------------------------------------------------

def cmd_attractor(args, parser) -> int:
    for name in ("a", "b"):
        if not math.isfinite(getattr(args, name)):
            parser.error(f"need a finite {name}, got {getattr(args, name)}")
    if args.b == 0:
        parser.error("--b must be nonzero (the family must stay invertible)")
    if args.steps < 10_000:
        parser.error("--steps must be >= 10000 (the Lyapunov estimate needs 10^4 steps)")
    if args.sample < 0:
        parser.error("--sample must be >= 0")
    from . import planar

    out = _outdir(args)
    cfg = ExperimentConfig(
        "attractor", {"a": args.a, "b": args.b, "steps": args.steps, "sample": args.sample},
        str(out), seed=args.seed,
    )
    fam = planar.cubic_henon()
    p = (args.a, args.b)

    orb = planar.iterate(fam, p, (0.1, 0.9), args.sample)
    sample = orb.points[min(1000, len(orb.points) - 1):]
    _write_csv(out / "sample.csv", ["x", "y"], sample.tolist(), cfg)

    fps = planar.find_fixed_points(fam, p, box=((-2.5, 2.5), (-2.5, 2.5)), grid=30)
    fp_payload = [
        {"location": list(f.location), "eigenvalues": list(f.eigenvalues), "saddle": f.is_saddle}
        for f in fps
    ]
    _write_json(out / "fixed_points.json", {"count": len(fps), "fixed_points": fp_payload}, cfg)

    # seeds drawn from the sampled orbit itself, so they sit in the basin;
    # --seed rotates the selection deterministically
    idx = (np.linspace(0, len(sample) - 1, 5).astype(int) + args.seed) % len(sample)
    seeds = [(float(x), float(y)) for x, y in sample[idx]]
    ests = [planar.lyapunov(fam, p, s, args.steps, discard=2000) for s in seeds]
    lam_payload = {
        "estimates": [
            {"seed": list(s), "value": e.value, "drift": e.drift, "escaped": e.escaped}
            for s, e in zip(seeds, ests)
        ],
        "orbit_escaped": orb.escaped,
    }
    _write_json(out / "lyapunov.json", lam_payload, cfg)
    _write_manifest(cfg, out)
    vals = [e.value for e in ests if not e.escaped]
    if orb.escaped or not vals:
        print("orbit escaped; partial artifacts kept")
    else:
        print(f"{len(fps)} fixed points; top exponent ~ {sum(vals)/len(vals):.4f}")
    return 0


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------

def cmd_tangency(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.points < 0:
        parser.error("--points must be >= 0")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        parser.error(f"--t-min/--t-max must be finite, got [{args.t_min}, {args.t_max}]")
    if not args.t_min <= args.t_max:
        parser.error("--t-max must be >= --t-min")
    from . import fold, planar, renorm

    mp = renorm.ModelParams()
    coupling = renorm.coupling(mp, args.n)
    if coupling == 0:
        parser.error(f"--n: the coupling underflows to 0 at n={args.n}; the renormalized family has no inverse")
    fam = renorm.renormalized_family(mp, args.n)
    try:
        probes, _ = planar.region_probes(fam, args.mu_bar)
    except ValueError as exc:
        parser.error(f"--mu-bar: {exc}")
    # the scan runs before --out exists: a t that cannot be measured is a usage
    # error, of the first region (upper before lower) whose own route fails.
    # Each region is scanned on the folds of its unstable curve; the two regions'
    # roots and events are solved together.
    ts = [float(t) for t in np.linspace(args.t_min, args.t_max, args.points)]
    pens, events = {}, {}
    for region, route in zip(probes, fold.fold_scans([fold.FoldProbe(p) for p in probes.values()], ts)):
        try:
            if isinstance(route, Exception):
                raise route
        except planar.WindowRejected as exc:
            parser.error(f"--t-min/--t-max: the {region} region's window rejects {exc}")
        except planar.NewtonDivergenceError as exc:
            parser.error(f"--t-min/--t-max: the {region} region's saddle solve fails at {exc}")
        pens[region], event = route
        if event is not None:
            events[region] = event
    out = _outdir(args)
    cfg = ExperimentConfig(
        "tangency",
        {"mu_bar": args.mu_bar, "n": args.n, "t_min": args.t_min, "t_max": args.t_max,
         "points": args.points},
        str(out),
    )
    warn = coupling > renorm.MAX_COUPLING
    if warn:
        print(f"warning: coupling {coupling:.4f} > {renorm.MAX_COUPLING}; the probe windows and growth targets "
              "are centred on the limit family's tangency, a less reliable prediction at this n", file=sys.stderr)

    event_rows = [
        [region, ev.parameter, ev.location[0], ev.location[1],
         ev.min_gap, ev.penetration, ev.gap_slope, ev.classification]
        for region, ev in events.items()
    ]
    summary = {"coupling": coupling, "coupling_warning": warn, "events": [
        {"region": region, "t": ev.parameter, "classification": ev.classification, "gap_slope": ev.gap_slope}
        for region, ev in events.items()
    ]}
    _write_csv(out / "scan.csv", ["t", "upper_penetration", "lower_penetration"],
               zip(ts, pens["upper"], pens["lower"]), cfg)
    _write_csv(
        out / "events.csv",
        ["region", "t", "x", "y", "min_gap", "penetration", "gap_slope", "classification"],
        event_rows, cfg,
    )
    ok = True
    if "upper" in events and "lower" in events:
        ok = (events["upper"].classification == "contact-making"
              and events["lower"].classification == "contact-breaking")
        summary["antimonotone_pair"] = ok
    _write_json(out / "summary.json", summary, cfg)
    _write_manifest(cfg, out)
    print(f"{len(summary['events'])} event(s); " + "; ".join(
        f"{e['region']}: {e['classification']} slope {e['gap_slope']:.3f}" for e in summary["events"]))
    # two or more points can bracket a crossing: a region without one is a verdict
    missing = [region for region in probes if region not in events]
    if len(ts) >= 2 and missing:
        print(f"no tangency event over t in [{args.t_min}, {args.t_max}] in region(s): {', '.join(missing)}",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, parser) -> int:
    from . import verify

    if set(verify.CRITERIA) <= set(args.skip):
        parser.error("--skip names every criterion; nothing would be checked")
    out = _outdir(args)
    cfg = ExperimentConfig("verify", {"skip": sorted(args.skip)}, str(out))
    results = verify.run_all(skip=set(args.skip))
    for r in results:
        print(r.line)
        for f in r.failures:
            print(f"    {f}")
    payload = {"results": [r.to_json() for r in results]}
    _write_json(out / "verify.json", payload, cfg)
    _write_manifest(cfg, out)
    failed = [r.key for r in results if r.failed]
    if failed:
        print(f"FAILED criteria: {', '.join(failed)}")
        return 1
    skipped = sum(r.skipped for r in results)
    print(f"all criteria that ran passed ({skipped} skipped)" if skipped else "all criteria passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _CriterionKeys:
    """`--skip`'s choices: `verify.CRITERIA`'s keys, sorted.  `verify` is
    imported when they are first listed or searched (`in` iterates), not
    when the parser is built."""

    def __iter__(self):
        from . import verify

        return iter(sorted(verify.CRITERIA))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tangencylab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cantor", help="exact Cantor stage, thickness report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gen", type=int, default=1)

    p = sub.add_parser("renorm", help="residual sweep and decay-rate fit")
    p.add_argument("--lam", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--grid", type=int, default=101)

    p = sub.add_parser("attractor", help="attractor sample, fixed points, exponent")
    p.add_argument("--a", type=float, default=2.8)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=1_000_000)
    p.add_argument("--sample", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tangency", help="near-touch scan with classification")
    p.add_argument("--mu-bar", type=float, default=3.0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--t-min", type=float, default=-0.03)
    p.add_argument("--t-max", type=float, default=0.03)
    p.add_argument("--points", type=int, default=13)

    p = sub.add_parser("verify", help="run the consolidated verification suite")
    skip = p.add_argument("--skip", action="append", default=[])
    skip.choices = _CriterionKeys()  # not an argument: `add_argument` would list them at once

    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: $TANGENCYLAB_OUT or cwd)")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file overriding this command's options")
        p.set_defaults(parser=p)  # usage errors then name the subcommand
    return ap


_COMMANDS = {
    "cantor": cmd_cantor,
    "renorm": cmd_renorm,
    "attractor": cmd_attractor,
    "tangency": cmd_tangency,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.config:
        _apply_config_file(args, args.parser, args.config)
    return _COMMANDS[args.command](args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
