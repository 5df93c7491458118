import random
from fractions import Fraction

import pytest

from twbench.reducer import residual_scan
from twbench.symcore import ParamPoly


@pytest.fixture
def rng():
    return random.Random(20240811)


def scan_one(pde, sol, window, samples):
    """``residual_scan`` of a stack of one case: its float, or its error raised."""
    [outcome] = residual_scan([(pde, sol, window)], samples)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def scan_outcome(x):
    """A scan outcome to compare: a float's hex, an error's type and text."""
    return float(x).hex() if isinstance(x, float) else (type(x), str(x))


def rand_frac(rng, lo=-6, hi=6, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonzero(rng, lo=-6, hi=6, den=3) -> Fraction:
    while True:
        q = rand_frac(rng, lo, hi, den)
        if q:
            return q


def rand_poly(rng, names=("x", "y", "z"), max_terms=4, max_deg=3) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in names)
        terms[exps] = terms.get(exps, Fraction(0)) + rand_frac(rng)
    return ParamPoly(names, {e: c for e, c in terms.items() if c})


def coeff_list(poly: ParamPoly, name: str) -> list[Fraction]:
    """Dense coefficient list of ``poly`` in one variable, lowest power
    first; every coefficient must be a rational constant."""
    assert set(poly.variables) <= {name}, f"{poly.to_text()} is not in {name} alone"
    out = [Fraction(0)] * (max(poly.degree(name), 0) + 1)
    for exps, c in poly.terms.items():
        out[sum(exps)] = c
    return out


def by_power(poly: ParamPoly, name: str) -> dict[int, ParamPoly]:
    """The coefficient of each power of one variable, lowest power first,
    each keeping the order of ``poly``'s terms."""
    rest = tuple(n for n in poly.variables if n != name)
    parts: dict[int, dict] = {}
    for exps, c in poly.terms.items():
        powers = dict(zip(poly.variables, exps))
        parts.setdefault(powers.pop(name, 0), {})[tuple(powers.values())] = c
    return {k: ParamPoly._make(rest, terms) for k, terms in sorted(parts.items())}
