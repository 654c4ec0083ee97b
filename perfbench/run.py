"""tangencylab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {tangency,attractor,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing, the
package is imported from `src/`.

Workloads (each pass runs in a fresh interpreter, see `workload.py`):

* tangency  -- criterion `tangency`, then CLI `tangency` at its defaults.
  Manifold growth and fiber-gap probes on the renormalized family.
* attractor -- criterion `attractor`, then CLI `attractor --seed N`.  Scalar
  Lyapunov stepping, Newton fixed-point sweeps, a 199k-row CSV.
* exact     -- the six light criteria, `cantor.nmap_cantor_report(12, 9)`,
  CLI `cantor --m 12 --gen 7` and CLI `renorm --eps 0.1`.  Exact rationals,
  1-D certificates and the CLI process pool (`os.cpu_count()` workers, the
  only processes besides the pass itself).

Only `attractor` uses the seed (it goes to CLI `attractor --seed`); the other
workloads are deterministic and ignore it.

BENCHMARK.json gates `tangency` and `exact`; `attractor` is for runs by hand.
Its pure-interpreter Lyapunov loop is the most sensitive to other tenants of
a shared 2-core VM: between two sets of ten runs its median wall time moved
by 19 %, against 5-7 % for the other two, too close to the 0.25 ceiling a
bound may have.

With `--trace 0` a run measures `setup_s` (median of several fresh
interpreters importing `tangencylab.cli`) and then runs as many untraced
passes as fit in `--seconds`, judged by the longest pass so far (at least
one).  `wall_s` and `cpu_s` are those of the fastest pass: other tenants of a
shared machine only ever add time.  On a 2-core VM they moved single passes of
`exact` by up to 40 %; over ten runs the interquartile range of the median
pass reached 0.25 of its median, against 0.06-0.17 for the fastest pass on the
three workloads.  `peak_rss_mb` is the median over passes.  Every sample is
printed as median, quartiles, minimum and count before the result line.

With `--trace 1` a run makes the same untraced passes and then one traced
pass, and reports the per-layer metrics of the traced pass plus the tracing
overhead (traced minus fastest untraced wall time); the spans go to
`.perfbench/spans-<workload>.json`.

Every operation checks its output against the seed's values (see
`workload.py`); `attempted` and `failed` count operations over all passes.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("tangency", "attractor", "exact")
SETUP_REPEATS = 4
REPORTED = {"setup_s": statistics.median, "wall_s": min, "cpu_s": min, "peak_rss_mb": statistics.median}
PASS_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tangencylab.cli"], env=_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, spans_file: Path | None) -> dict:
    # a fixed relative path: the CLI echoes it into its manifests, and
    # `cli.bytes_written` must not depend on where the checkout lives
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--workload", workload, "--seed", str(seed), "--out", str(out.relative_to(ROOT))]
    if spans_file is not None:
        cmd += ["--trace", str(spans_file)]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.splitlines()
    # pass the CLI's printed messages on to stderr; our stdout ends with the result
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(name: str, values: list, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"{name}: median {q[1]:.6g} {unit}, quartiles [{q[0]:.6g}, {q[2]:.6g}], "
            f"min {min(values):.6g}, n={len(values)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "tangencylab" / "__init__.py").is_file():
        print(f"no tangencylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)

    samples: dict[str, list] = {}
    if not args.trace:
        # the median drops the first import in a fresh checkout, which also compiles bytecode
        samples["setup_s"] = [import_seconds() for _ in range(SETUP_REPEATS)]

    passes, durations = [], []
    while not durations or sum(durations) + max(durations) <= args.seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(args.workload, args.seed, None))
        durations.append(time.perf_counter() - t0)
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in passes]

    if args.trace:
        traced = run_pass(args.workload, args.seed, WORK / f"spans-{args.workload}.json")
        passes.append(traced)
        wanted = spec["per_layer"]
        values = {**traced["layers"], "trace.wall_s": traced["wall_s"],
                  "trace.overhead_s": traced["wall_s"] - min(samples["wall_s"])}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: REPORTED[m["name"]](samples[m["name"]]) for m in wanted}

    for key, vals in samples.items():
        unit = next((m["unit"] for m in spec["end_to_end"] if m["name"] == key), "")
        print(summary(key, vals, unit))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
