#!/usr/bin/env python3
"""Emit monotonicity-modulus tables for every catalog planar norm as CSV.

Each file has columns epsilon,delta, the exact modulus at each epsilon of
the grid step, 2 step, ... below 1; the closed forms (identity for the sum
norm, zero for the max norm, 1 - (1 - eps^q)^(1/q) for the q-mean) make
quick eyeball checks easy:

    PYTHONPATH=src python3 scripts/modulus_tables.py --out-dir tables --step 0.05
"""
import argparse
import os

import numpy as np

from orlnorm import build_modulus_table, catalog_planar_norms


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="modulus_tables")
    ap.add_argument("--step", type=float, default=0.05)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    eps_grid = np.arange(args.step, 1.0 - args.step / 2, args.step)
    for name, p in catalog_planar_norms().items():
        table = build_modulus_table(p, epsilons=eps_grid)
        rows = ["epsilon,delta"]
        rows += [f"{e:.12g},{d:.12g}" for e, d in zip(table.epsilons, table.deltas)]
        path = os.path.join(args.out_dir, f"modulus_{name.replace(':', '_')}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {path} ({len(eps_grid)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
