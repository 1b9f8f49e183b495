"""Default catalogs used by the verifier suites, the CLI and the tests."""
from __future__ import annotations

from .orlicz import OrliczFunction, exp_minus, flat_then_power, power
from .planar import PlanarNorm, l1, linf, lq, strictly_monotone_probe


def catalog_planar_norms() -> dict[str, PlanarNorm]:
    return {
        "linf": linf(),
        "l1": l1(),
        "lq:1.5": lq(1.5),
        "lq:2": lq(2.0),
        "lq:3": lq(3.0),
    }


def catalog_orlicz_functions() -> dict[str, OrliczFunction]:
    return {
        "power:2": power(2.0),
        "power:3": power(3.0),
        "exp_minus": exp_minus(),
        "flat_then_power:1,2": flat_then_power(1.0, 2.0),
    }


def strictly_monotone_planar_norms() -> dict[str, PlanarNorm]:
    return {name: p for name, p in catalog_planar_norms().items()
            if strictly_monotone_probe(p)[0]}
