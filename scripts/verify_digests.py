#!/usr/bin/env python3
"""Digest `orlnorm verify --all --json` over the generator/norm catalog.

Prints one line `phi p seed sha256` per catalog pair and seed, hashing the
JSON output of `orlnorm verify --all --json --budget 20` run in-process.
Two checkouts print identical lines exactly when their verify outputs are
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


def digest(phi: str, p: str, seed: int) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify", "--all", "--json", "--phi", phi, "--p", p,
                         "--seed", str(seed), "--budget", str(BUDGET)])
    if code not in (0, 1):  # 1: a suite found violations, still a payload
        raise SystemExit(f"verify --phi {phi} --p {p} --seed {seed} exited {code}")
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7919])
    args = ap.parse_args()
    for phi in catalog_orlicz_functions():
        for p in catalog_planar_norms():
            for seed in args.seeds:
                print(f"{phi} {p} {seed} {digest(phi, p, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
