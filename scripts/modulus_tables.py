#!/usr/bin/env python3
"""Emit monotonicity-modulus tables for every catalog planar norm as CSV.

Each file has columns epsilon,delta, the exact modulus at each epsilon of
the grid step, 2 step, ... below 1, written by `orlnorm modulus`; the
closed forms (identity for the sum norm, zero for the max norm, 1 - (1 -
eps^q)^(1/q) for the q-mean) make quick eyeball checks easy:

    PYTHONPATH=src python3 scripts/modulus_tables.py --out-dir tables --step 0.05
"""
import argparse
import os

import numpy as np

from orlnorm import catalog_planar_norms
from orlnorm.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="modulus_tables")
    ap.add_argument("--step", type=float, default=0.05)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    # repr round-trips each float, so the CLI reads the grid back exactly
    eps_grid = np.arange(args.step, 1.0 - args.step / 2, args.step).tolist()
    for name in catalog_planar_norms():
        path = os.path.join(args.out_dir, f"modulus_{name.replace(':', '_')}.csv")
        code = cli_main(["modulus", "--p", name, "--grid", ",".join(map(repr, eps_grid)),
                         "--out", path])
        if code:
            return code
        print(f"wrote {path} ({len(eps_grid)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
