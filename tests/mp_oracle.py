"""A 40-digit oracle for the generated norm, independent of the engines.

g(k) = p((1, I(k x))) / k is evaluated in mpmath arithmetic, where no
term overflows, and minimised by golden section in s = log k: g is convex
in 1/k, so it is unimodal in s.  The bracket comes from steps that double
in s from k = 1/max|x|, walking downhill until g rises.  g is smooth at its
minimiser, so the value's error is second order in the bracket's width,
except under the max norm: there the minimiser is the kink of g at the
Luxemburg point, and the final bracket is narrowed to LOG_TOL_KINK.
"""
from __future__ import annotations

import mpmath

DIGITS = 40
LOG_TOL = 1e-9  # width in s of the final golden-section bracket
LOG_TOL_KINK = 1e-18  # the same under the max norm


def _phi(phi):
    """u -> Phi(u) in mpmath, for the catalog kinds."""
    mpf = mpmath.mpf
    if phi.kind == "power":
        q = int(phi.q) if phi.q.is_integer() else mpf(phi.q)
        return lambda u: u ** q
    if phi.kind == "exp_minus":
        return _exp_minus
    if phi.kind == "flat_then_power":
        a, q = mpf(phi.a), int(phi.q) if phi.q.is_integer() else mpf(phi.q)
        return lambda u: (u - a) ** q if u > a else mpf(0)
    raise ValueError(f"no oracle for {phi.kind}")


def _exp_minus(u):
    """e^u - 1 - u: expm1(u) - u from u = 1 on; below it, where that
    difference loses -log10(u) of the working digits, the series u^2/2 +
    u^3/6 + ... summed to the working precision."""
    if u >= 1:
        return mpmath.expm1(u) - u
    term, total, n = u * u / 2, mpmath.mpf(0), 2
    while term > mpmath.eps * total:
        total += term
        n += 1
        term *= u / n
    return total


def _planar(p):
    """I -> p((1, I)) in mpmath, for the max, sum and q-mean norms."""
    if p.kind == "linf":
        return lambda i: max(mpmath.mpf(1), i)
    if p.kind == "l1":
        return lambda i: 1 + i
    if p.kind == "lq":
        q = mpmath.mpf(p.q)
        return lambda i: (1 + i ** q) ** (1 / q)
    raise ValueError(f"no oracle for {p.kind}")


def oracle_norm(phi, p, weights, values) -> float:
    """inf_k g(k) for x = values on finite atoms of the given weights."""
    with mpmath.workdps(DIGITS):
        f, norm = _phi(phi), _planar(p)
        mass: dict[float, list] = {}  # |value| -> the weights of its atoms
        for w, v in zip(weights, values):
            if v != 0.0:
                mass.setdefault(abs(v), []).append(w)
        if not mass:
            return 0.0
        atoms = [(mpmath.fsum(map(mpmath.mpf, ws)), mpmath.mpf(a)) for a, ws in mass.items()]

        def g(s):
            k = mpmath.exp(s)
            return norm(mpmath.fsum(w * f(k * a) for w, a in atoms)) / k

        # walk downhill from s0 with doubling steps until g rises
        s0 = -mpmath.log(max(a for _, a in atoms))
        g0 = g(s0)
        step = mpmath.mpf(1 if g(s0 + 1) < g0 else -1)
        a, b, gb = s0 - step, s0, g0
        while True:
            c = b + step
            gc = g(c)
            if gc >= gb:
                break
            a, b, gb = b, c, gc
            step *= 2.0
        lo, hi = min(a, c), max(a, c)
        # golden section on [lo, hi], which holds the minimiser
        gold = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = hi - gold * (hi - lo), lo + gold * (hi - lo)
        g1, g2 = g(x1), g(x2)
        tol = LOG_TOL_KINK if p.kind == "linf" else LOG_TOL
        while hi - lo > tol:
            if g1 <= g2:
                hi, x2, g2 = x2, x1, g1
                x1 = hi - gold * (hi - lo)
                g1 = g(x1)
            else:
                lo, x1, g1 = x1, x2, g2
                x2 = lo + gold * (hi - lo)
                g2 = g(x2)
        return float(min(g1, g2))
