"""Batch command line: compute norms, emit modulus tables, run check suites.

Exit codes: 0 success, 1 a selected suite found violations, 2 input error.
All randomness is seeded and the seed is echoed in the output, so identical
configuration and seed produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .engine import LOG_TOL, generated_norm
from .errors import ContractError, DomainError, PreconditionError
from .orlicz import exp_minus, flat_then_power, orlicz_from_descriptor, piecewise_linear, power
from .planar import l1, linf, lq, modulus_diagnostics_many, planar_from_descriptor
from .spaces import simple_function, space_from_descriptor, unit_weights
from .verify import SUITE_IDS, run_suites

SCHEMA = "1"


def _parse_phi(text: str):
    text = text.strip()
    if text.startswith("{"):
        return orlicz_from_descriptor(json.loads(text))
    name, _, args = text.partition(":")
    if name == "power":
        return power(float(args))
    if name == "exp_minus":
        return exp_minus()
    if name == "flat_then_power":
        a, q = args.split(",")
        return flat_then_power(float(a), float(q))
    if name == "pwl":
        pts = [tuple(float(t) for t in chunk.split(",")) for chunk in args.split(";")]
        return piecewise_linear(pts)
    raise DomainError(f"unknown generator {text!r}")


def _parse_p(text: str):
    text = text.strip()
    if text.startswith("{"):
        return planar_from_descriptor(json.loads(text))
    name, _, args = text.partition(":")
    if name == "linf":
        return linf()
    if name == "l1":
        return l1()
    if name == "lq":
        return lq(float(args))
    if name == "boundary":
        samples = [tuple(float(t) for t in chunk.split(",")) for chunk in args.split(";")]
        return planar_from_descriptor({"kind": "boundary", "samples": samples})
    raise DomainError(f"unknown planar norm {text!r}")


def _parse_space(text: str):
    text = text.strip()
    if not text.startswith("{") and os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            return space_from_descriptor(json.load(fh))
    return space_from_descriptor(json.loads(text))


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if count < 1:
            raise DomainError("grid count must be >= 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [float(t) for t in text.split(",")]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_config(args: argparse.Namespace) -> None:
    """Config file values fill in only where the flag was left at default;
    the keys read are the subcommand's value flags in _FLAGS (--json stores
    to as_json, so the switch is not read).  A value becomes the flag's text
    (a list joined with commas, an object as JSON text) and is converted by
    the flag's own type, as on the command line."""
    if not args.config:
        return
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError(f"config file {args.config!r} must hold a JSON object")
    for key in _FLAGS:
        value = cfg.get(key)
        if value is None or not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if isinstance(value, list):
            text = ",".join(map(str, value))
        elif isinstance(value, dict):
            text = json.dumps(value)
        else:
            text = str(value)
        convert = _FLAGS[key][1].get("type", str)
        try:
            setattr(args, key, convert(text))
        except ValueError as exc:
            raise DomainError(f"config value {key!r} = {value!r}: {exc}") from exc


_FLAGS = {
    "phi": (("--phi",), dict(default=None, help="generator, e.g. power:2, exp_minus, flat_then_power:1,2, pwl:0,0;1,0;2,1")),
    "p": (("--p",), dict(default=None, help="planar norm, e.g. linf, l1, lq:2")),
    "space": (("--space",), dict(default=None, help='measure space JSON or file, e.g. {"atoms":[{"w":1},{"w":"inf"}]}')),
    "values": (("--values",), dict(default=None, help="comma separated atom values, e.g. 3,4")),
    "grid": (("--grid",), dict(default=None, help="epsilon grid start:stop:count or comma list")),
    "seed": (("--seed",), dict(type=int, default=None)),
    "budget": (("--budget",), dict(type=int, default=None)),
    "tol": (("--tol",), dict(type=float, default=None, help="norm-search tolerance on log k")),
    "json": (("--json",), dict(action="store_true", dest="as_json")),
    "out": (("--out",), dict(default=None, metavar="FILE")),
    "config": (("--config",), dict(default=None, metavar="FILE", help="JSON config; flags override it")),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, kwargs = _FLAGS[name]
        sub.add_argument(*flags, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args reads it and
    returns a fresh namespace, so successive main() calls share nothing."""
    ap = argparse.ArgumentParser(prog="orlnorm")
    subs = ap.add_subparsers(dest="command", required=True)

    norm = subs.add_parser("norm", help="compute the generated norm of a simple function (JSON)")
    _add_flags(norm, "values", "phi", "p", "space", "seed", "tol", "out", "config")

    mod = subs.add_parser("modulus", help="tabulate the planar monotonicity modulus")
    _add_flags(mod, "grid", "p", "json", "out", "config")

    ver = subs.add_parser("verify", help="run check suites")
    ver.add_argument("ids", nargs="*", help=f"suite ids among {','.join(SUITE_IDS)}")
    ver.add_argument("--all", action="store_true", dest="run_all")
    _add_flags(ver, "phi", "p", "space", "seed", "budget", "json", "out", "config")
    return ap


def cmd_norm(args: argparse.Namespace) -> int:
    _load_config(args)
    if args.values is None:
        raise DomainError("norm needs --values")
    values = [float(t) for t in str(args.values).split(",")]
    phi = _parse_phi(args.phi or "power:2")
    p = _parse_p(args.p or "linf")
    space = _parse_space(args.space) if args.space else unit_weights(len(values))
    x = simple_function(space, values)
    log_tol = args.tol if args.tol is not None else LOG_TOL
    r = generated_norm(phi, p, x, log_tol=log_tol)
    if not math.isfinite(r.value):
        raise DomainError("x is outside the Orlicz space (modular infinite at every k > 0)")
    seed = args.seed if args.seed is not None else 0
    payload = {"schema": SCHEMA, "command": "norm", "seed": seed,
               "value": r.value, "k_star": r.k_star, "attained": r.attained,
               "evaluations": r.evaluations}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_modulus(args: argparse.Namespace) -> int:
    _load_config(args)
    p = _parse_p(args.p or "linf")
    grid = _parse_grid(args.grid) if args.grid else [i / 10.0 for i in range(1, 10)]
    deltas = [r.value for r in modulus_diagnostics_many(p, grid)]
    if args.as_json:
        payload = {"schema": SCHEMA, "command": "modulus", "p": p.descriptor(),
                   "epsilon": grid, "delta": deltas}
        _emit(_json_text(payload), args.out)
    else:
        lines = ["epsilon,delta"]
        lines += [f"{e:.12g},{d:.12g}" for e, d in zip(grid, deltas)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _human_table(reports, seed: int) -> str:
    rows = [f"seed: {seed}",
            f"{'id':<4} {'status':<20} {'trials':>7} {'violations':>11}"]
    for rep in reports:
        rows.append(f"{rep.theorem_id:<4} {rep.status:<20} {rep.trials:>7} {len(rep.violations):>11}")
    return "\n".join(rows) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    _load_config(args)
    ids = list(SUITE_IDS) if args.run_all or not args.ids else args.ids
    phi = _parse_phi(args.phi or "power:2")
    p = _parse_p(args.p or "l1")
    space = _parse_space(args.space) if args.space else unit_weights(6)
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise DomainError(f"--seed must be >= 0, got {seed}")
    budget = {} if args.budget is None else {"budget": args.budget}  # run_suites' default
    reports = run_suites(ids, phi, p, space, seed=seed, **budget)
    payload = {"schema": SCHEMA, "command": "verify", "seed": seed,
               "phi": phi.descriptor(), "p": p.descriptor(), "space": space.descriptor(),
               "reports": [rep.to_dict() for rep in reports]}
    if args.as_json:
        _emit(_json_text(payload), args.out)
    else:
        _emit(_human_table(reports, seed), args.out)
    return 1 if any(rep.status == "failed" for rep in reports) else 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "norm":
            return cmd_norm(args)
        if args.command == "modulus":
            return cmd_modulus(args)
        return cmd_verify(args)
    except (DomainError, ContractError, PreconditionError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
