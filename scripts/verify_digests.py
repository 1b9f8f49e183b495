#!/usr/bin/env python3
"""Digest `orlnorm verify --all --json` and `orlnorm modulus --json` over the catalog.

Prints two lines per catalog pair and seed: `phi p seed sha256`, hashing the
JSON output of `orlnorm verify --all --json --budget 20` run in-process, and
`shape phi p seed sha256`, hashing only the report's shape: the exit code
and each suite's id, status, trials and sorted violation kinds (the fields
`tests/data/verify_statuses.json` pins at seed 0).  Then one line
`modulus p sha256` per catalog planar norm, hashing `orlnorm modulus --json
--p p` at the default grid.  Last, the same three kinds of
line for `power:2` under BOUNDARY, a convex, strictly monotone boundary
ball, so the polygonal-gauge path is covered too, and the two verify lines
(tagged `wide`) for `power:2` and `flat_then_power:1,2` under `lq:2` on
WIDE_SPACE, whose ARRAY_ATOMS finite atoms put the modular on its numpy
path and whose two infinite atoms reach the finite/+inf jump there.  Two
checkouts print
identical lines exactly when these outputs are byte-identical, so a change
is checked with one diff:

    PYTHONPATH=src python3 scripts/verify_digests.py > after.txt
    diff before.txt after.txt

A change that moves reported values but no verdict changes the full
digests and keeps every `shape` line: `grep ^shape` on both files before
the diff.  tests/data/verify_shapes.txt holds the `shape` lines of the
default seeds, and CI diffs each run's against it:

    grep ^shape after.txt | diff tests/data/verify_shapes.txt -
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys

from orlnorm import catalog_orlicz_functions, catalog_planar_norms
from orlnorm.cli import main as cli_main
from orlnorm.spaces import ARRAY_ATOMS

BUDGET = 20
BOUNDARY = "boundary:0,1;0.5,1.02;1.1,1.05;1.5707963267948966,1"
# weights 0.25 to 4 in steps of 0.25 on the finite atoms, then two of +inf
WIDE_SPACE = json.dumps({"atoms": [{"w": 0.25 * (1 + i % 16)} for i in range(ARRAY_ATOMS)]
                         + [{"w": "inf"}] * 2})


def run(argv: list[str], codes=(0,)) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code not in codes:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return code, buf.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shape(code: int, output: str) -> str:
    """The exit code and each suite's id, status, trials and violation kinds."""
    reports = [[r["theorem_id"], r["status"], r["trials"],
                sorted(v["kind"] for v in r["violations"])]
               for r in json.loads(output)["reports"]]
    return json.dumps([code, reports])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7919])
    args = ap.parse_args()
    pairs = [(phi, p) for phi in catalog_orlicz_functions() for p in catalog_planar_norms()]
    digest_verify(pairs, args.seeds)
    digest_modulus(catalog_planar_norms())
    digest_verify([("power:2", BOUNDARY)], args.seeds)
    digest_modulus([BOUNDARY])
    digest_verify([("power:2", "lq:2"), ("flat_then_power:1,2", "lq:2")], args.seeds,
                  WIDE_SPACE)
    return 0


def digest_verify(pairs, seeds, space=None) -> None:
    tag, extra = ("", []) if space is None else (" wide", ["--space", space])
    for phi, p in pairs:
        for seed in seeds:
            argv = ["verify", "--all", "--json", "--phi", phi, "--p", p,
                    "--seed", str(seed), "--budget", str(BUDGET), *extra]
            # exit 1: a suite found violations, still a payload
            code, output = run(argv, (0, 1))
            print(f"{phi} {p}{tag} {seed} {sha(output)}", flush=True)
            print(f"shape {phi} {p}{tag} {seed} {sha(shape(code, output))}", flush=True)


def digest_modulus(norms) -> None:
    for p in norms:
        print(f"modulus {p} {sha(run(['modulus', '--json', '--p', p])[1])}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
