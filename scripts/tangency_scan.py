#!/usr/bin/env python3
"""Penetration scan of the upper and lower near-touch regions of the
renormalized family, plus the upper tangency locus over a mu grid.

    python3 scripts/tangency_scan.py --n 6 --out scan/
"""
import argparse
import csv
from pathlib import Path

import numpy as np

from tangencylab.planar import region_probe, tangency_locus
from tangencylab.renorm import ModelParams, renormalized_family


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--mu-bar", type=float, default=3.0)
    ap.add_argument("--t-half-width", type=float, default=0.03)
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--mu-min", type=float, default=2.85)
    ap.add_argument("--mu-max", type=float, default=3.15)
    ap.add_argument("--mu-points", type=int, default=7)
    ap.add_argument("--out", type=Path, default=Path("scan"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    fam = renormalized_family(ModelParams(), args.n)
    probes = {r: region_probe(fam, args.mu_bar, r) for r in ("upper", "lower")}
    ts = np.linspace(-args.t_half_width, args.t_half_width, args.points)
    with open(args.out / "penetration.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "upper", "lower"])
        for t in ts:
            w.writerow([
                float(t),
                probes["upper"][0].penetration(float(t) + probes["upper"][1]),
                probes["lower"][0].penetration(float(t) + probes["lower"][1]),
            ])

    mus = [float(m) for m in np.linspace(args.mu_min, args.mu_max, args.mu_points)]
    locus_probes = {mu: region_probe(fam, mu, "upper") for mu in mus}
    fit = tangency_locus(
        lambda mu, nu: locus_probes[mu][0].penetration(nu),
        {mu: (pred - 0.03, pred + 0.03) for mu, (_, pred) in locus_probes.items()},
    )
    with open(args.out / "locus.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mu_bar", "nu_bar"])
        for mu, nu0 in zip(fit.mu_values, fit.nu_values):
            w.writerow([mu, nu0])
            print(f"mu={mu:.4f}: upper tangency at nu={nu0:+.6f}")
    print(f"locus slope {fit.slope:.4f}; no sign change at mu={list(fit.skipped)}")


if __name__ == "__main__":
    main()
