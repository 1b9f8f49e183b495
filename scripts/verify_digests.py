#!/usr/bin/env python3
"""Digest `orlnorm verify --all --json` and `orlnorm modulus --json` over the catalog.

Prints one line `phi p seed sha256` per catalog pair and seed, hashing the
JSON output of `orlnorm verify --all --json --budget 20` run in-process,
then one line `modulus p sha256` per catalog planar norm, hashing
`orlnorm modulus --json --p p` at the default grid and resolution.
Two checkouts print identical lines exactly when these outputs are
byte-identical, so a change is checked with one diff:

    PYTHONPATH=src python3 scripts/verify_digests.py > after.txt
    diff before.txt after.txt
"""
import argparse
import contextlib
import hashlib
import io
import sys

from orlnorm import catalog_orlicz_functions, catalog_planar_norms
from orlnorm.cli import main as cli_main

BUDGET = 20


def digest(argv: list[str], codes=(0,)) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code not in codes:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7919])
    args = ap.parse_args()
    for phi in catalog_orlicz_functions():
        for p in catalog_planar_norms():
            for seed in args.seeds:
                argv = ["verify", "--all", "--json", "--phi", phi, "--p", p,
                        "--seed", str(seed), "--budget", str(BUDGET)]
                # exit 1: a suite found violations, still a payload
                print(f"{phi} {p} {seed} {digest(argv, (0, 1))}", flush=True)
    for p in catalog_planar_norms():
        print(f"modulus {p} {digest(['modulus', '--json', '--p', p])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
