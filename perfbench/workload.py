"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload tangency --seed 0 --out DIR [--trace SPANS_FILE]

Runs the workload's operations (criterion runs and CLI commands) in order,
checks each result against the values the package gave when the benchmark
was written, and prints one JSON line: the pass's wall time, CPU time
(user + system, this process and its reaped children), peak RSS, attempted
and failed operation counts, and with `--trace` the per-layer metrics named
in BENCHMARK.json.  CLI artifacts go to subdirectories of DIR.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tangencylab  # noqa: E402
from tangencylab import cantor, cli, verify  # noqa: E402

import spans  # noqa: E402  (perfbench/spans.py, beside this script)

# Seed values the oracle compares against, with their tolerances.
ATTRACTOR_MEAN_EXPONENT = 0.8475
ATTRACTOR_EXPONENT_TOL = 0.02
NMAP_M12_GEN9_THICKNESS = Fraction(36904, 3)
NMAP_M12_GEN9_INTERVALS = 75_452
CANTOR_M12_GEN7_THICKNESS = Fraction(63148, 3)
# cantor_exactness asserts the nominal bound (3^m-45)/22, which the exact
# construction misses at every checked stage: four m=6 generations, m=8, m=10.
CANTOR_EXACTNESS_RED_CHECKS = 6


def criterion(key):
    def op(out):
        r = verify.run_criterion(key)
        return [] if r.passed else r.failures
    return op


def cantor_exactness(out):
    """Red by design: it must fail, and only on the nominal thickness bound."""
    r = verify.run_criterion("cantor_exactness")
    bound_misses = [f for f in r.failures if "thickness" in f and "raised" not in f]
    if not r.passed and len(r.failures) == len(bound_misses) == CANTOR_EXACTNESS_RED_CHECKS:
        return []
    return [f"cantor_exactness verdict changed: passed={r.passed}, failures={r.failures}"]


def run_cli(out, argv, want_rc):
    """Run one CLI command into its own directory; returns (problems, dir)."""
    d = out / argv[0]
    rc = cli.main([*argv, "--out", str(d)])
    return ([] if rc == want_rc else [f"cli {argv} exited {rc}, expected {want_rc}"]), d


def cli_tangency(out):
    problems, d = run_cli(out, ["tangency"], 0)
    events = json.loads((d / "summary.json").read_text())["events"]
    got = sorted((e["region"], e["classification"]) for e in events)
    if got != [("lower", "contact-breaking"), ("upper", "contact-making")]:
        problems.append(f"tangency events {got}")
    return problems


def cli_attractor(seed):
    def op(out):
        problems, d = run_cli(out, ["attractor", "--seed", str(seed)], 0)
        count = json.loads((d / "fixed_points.json").read_text())["count"]
        if count != 3:
            problems.append(f"{count} fixed points, expected 3")
        lam = json.loads((d / "lyapunov.json").read_text())
        vals = [e["value"] for e in lam["estimates"] if not e["escaped"]]
        mean = sum(vals) / len(vals) if vals else float("nan")
        if lam["orbit_escaped"] or len(vals) != 5 or not abs(mean - ATTRACTOR_MEAN_EXPONENT) <= ATTRACTOR_EXPONENT_TOL:
            problems.append(f"mean exponent {mean} over {len(vals)} seeds")
        return problems
    return op


def nmap_report(out):
    rep = cantor.nmap_cantor_report(12, 9)
    if rep["thickness"] == NMAP_M12_GEN9_THICKNESS and rep["n_intervals"] == NMAP_M12_GEN9_INTERVALS:
        return []
    return [f"m=12 gen 9: thickness {rep['thickness']}, {rep['n_intervals']} intervals"]


def cli_cantor(out):
    # exit 1 is the verdict by design: the nominal bound does not hold
    problems, d = run_cli(out, ["cantor", "--m", "12", "--gen", "7"], 1)
    tau = json.loads((d / "thickness.json").read_text())["thickness"]
    if Fraction(tau["num"], tau["den"]) != CANTOR_M12_GEN7_THICKNESS:
        problems.append(f"m=12 gen 7 thickness {tau}")
    return problems


def cli_renorm(out):
    problems, d = run_cli(out, ["renorm", "--eps", "0.1"], 0)
    if not json.loads((d / "rate.json").read_text())["certified"]:
        problems.append("renorm --eps 0.1 not certified")
    return problems


def operations(workload: str, seed: int) -> list:
    """(name, operation) pairs; an operation returns the problems it found."""
    if workload == "tangency":
        return [("verify.tangency", criterion("tangency")), ("cli.tangency", cli_tangency)]
    if workload == "attractor":
        return [("verify.attractor", criterion("attractor")), ("cli.attractor", cli_attractor(seed))]
    if workload == "exact":
        light = ["conjugacy", "renorm_rate", "velocity_table", "wang_young", "structural"]
        return [
            ("verify.cantor_exactness", cantor_exactness),
            *((f"verify.{key}", criterion(key)) for key in light),
            ("cantor.nmap_cantor_report", nmap_report),
            ("cli.cantor", cli_cantor),
            ("cli.renorm", cli_renorm),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path, default=None, metavar="SPANS_FILE",
                    help="trace the pass and write its spans to this file")
    args = ap.parse_args()

    if not Path(tangencylab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tangencylab imported from {tangencylab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    ops = operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    failed = 0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            problems = op(args.out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"{args.workload}: {name} failed: {problems}", file=sys.stderr)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": failed,
    }
    if tracer is not None:
        written = sum(p.stat().st_size for p in args.out.rglob("*") if p.is_file())
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        names = [m["name"] for m in per_layer if not m["name"].startswith("trace.")]  # run.py adds those
        result["layers"] = spans.layer_metrics(tracer, names, {"cli.bytes_written": written})
        args.trace.write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
