#!/usr/bin/env python3
"""Sweep the divergence order across built-in families for a sample pair.

Writes sweep_families.csv (alpha, one column per family) and prints the
endpoint behavior next to the phi-divergence each curve should approach.
"""

import csv
import sys
from pathlib import Path

import numpy as np

from deformed_renyi import (
    Counting,
    ProbabilityPair,
    generalized_renyi,
    limit_divergence,
    parse_family_spec,
    phi_divergence,
    sweep,
)

FAMILIES = ["exp", "tsallis:0.5", "kaniadakis:0.5", "kaniadakis:-0.25"]


def main(out_path="sweep_families.csv"):
    rng = np.random.default_rng(2024)
    raw = rng.uniform(0.1, 1.0, size=(2, 8))
    pair = ProbabilityPair.from_raw(Counting(8), raw[0], raw[1])

    alphas = np.linspace(0.02, 0.98, 49)
    columns = {}
    for spec in FAMILIES:
        family = parse_family_spec(spec)
        columns[spec] = [report.value for report in sweep(family, pair, alphas)]

    out = Path(out_path)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha"] + FAMILIES)
        for i, a in enumerate(alphas):
            writer.writerow([f"{a:.6f}"] + [f"{columns[s][i]:.12g}" for s in FAMILIES])
    print(f"wrote {out} ({alphas.size} rows x {len(FAMILIES)} families)")

    print(f"\n{'family':16s} {'D at a=0.5':>14s} {'limit a->1':>14s} {'phi-div(p||q)':>14s}")
    for spec in FAMILIES:
        family = parse_family_spec(spec)
        mid = generalized_renyi(family, pair, 0.5).value
        lim = limit_divergence(family, pair, endpoint=1).value
        target = phi_divergence(family, pair)
        print(f"{spec:16s} {mid:14.8f} {lim:14.8f} {target:14.8f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
