"""Data model and JSON parser for the hyperbolic transport PDE family.

The equation under study is

    tau*u_tt + A*u*u_x + B*u_t - kappa*u_xx = f(u) = sum_nu lambda_nu * u^nu

with non-negative constants tau, A, B, kappa and reaction exponents nu drawn
from {0, 1/2, 1, 3/2, 2, 3}.  Reaction coefficients may be exact rationals or
named symbols; the linear coefficients are always numeric.

The module also holds the plain rational helpers that every layer reads:
``frac_str``, ``int_digit_limit`` and ``exact_root``.  It imports no other
twbench module, so a command that reads only these helpers and the schema
(the hydro commands) loads neither ``symcore`` nor ``reducer``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

ReactionValue = Union[Fraction, str]

_EXPONENT_KEYS = {key: Fraction(key) for key in ("0", "1/2", "1", "3/2", "2", "3")}

#: Allowed reaction exponents, as exact half-integers.
ALLOWED_EXPONENTS = tuple(_EXPONENT_KEYS.values())

_SYMBOL_RE = re.compile(r"^[A-Za-z_]\w*$")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


class TwbenchError(Exception):
    """Base of the errors twbench reports; the CLI exits with ``exit_code``."""

    exit_code: int
    __str__ = Exception.__str__  # a KeyError subclass would print a repr


class InputError(TwbenchError, ValueError):
    """Invalid input: a file, a document, an option; the CLI exits 2."""
    exit_code = 2


class NumericFailure(TwbenchError):
    """A computation on valid input did not succeed; the CLI exits 3."""
    exit_code = 3


class SchemaError(InputError):
    """Input document does not match the model schema."""


class DomainError(InputError):
    """Well-formed input with out-of-domain values."""


class DegenerateFrame(InputError):
    """Travelling frame with tau*v^2 - kappa = 0."""


def validated_make(cls, iterable):
    """``_make`` of a record whose ``__new__`` validates or normalises.
    NamedTuple's own ``_make``, which ``_replace`` calls, builds the tuple
    directly and would skip ``__new__``; this one goes through it."""
    return cls(*iterable)


class _PDEFields(NamedTuple):
    tau: Fraction
    A: Fraction
    B: Fraction
    kappa: Fraction
    reaction: Mapping[Fraction, ReactionValue]


class HyperbolicPDE(_PDEFields):
    """Coefficients of the PDE and its reaction map."""

    def __new__(cls, tau, A, B, kappa, reaction):
        linear = []
        for name, value in zip(cls._fields, (tau, A, B, kappa)):
            value = Fraction(value)
            if value < 0:
                raise DomainError(f"{name} must be non-negative")
            linear.append(value)
        if not any(linear):
            raise DomainError("at least one of tau, A, B, kappa must be nonzero")
        cleaned = {}
        for nu, lam in dict(reaction).items():
            nu = Fraction(nu)
            if nu not in ALLOWED_EXPONENTS:
                raise DomainError(f"reaction exponent {nu} outside the allowed set")
            if isinstance(lam, str):
                if not _SYMBOL_RE.match(lam):
                    raise DomainError(f"bad symbol name {lam!r}")
            else:
                lam = Fraction(lam)
            cleaned[nu] = lam
        self = super().__new__(cls, *linear, cleaned)
        # immutable, so hashed once, into the instance's __dict__ (no __slots__
        # here): a PDE keys the catalog's per-instance lookups
        self._hash = hash((*linear, tuple(sorted(cleaned.items()))))
        return self

    _make = classmethod(validated_make)

    def __hash__(self):
        return self._hash

    def is_numeric(self) -> bool:
        """True when every reaction coefficient is an exact rational."""
        return all(not isinstance(v, str) for v in self.reaction.values())

    def has_half_integer_reaction(self) -> bool:
        return any(nu.denominator == 2 for nu in self.reaction)

    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({v for v in self.reaction.values() if isinstance(v, str)}))


class QuarticReduction(NamedTuple):
    """First integral of the nonlinear d'Alembert case: (du/dxi)^2 = quartic(u)."""

    c0: Fraction
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    H: Fraction


# -- rational helpers ---------------------------------------------------------


def int_digit_limit() -> int:
    """Python's limit on the digits of an int read from or written to a string
    (``sys.get_int_max_str_digits()``, 0 for none); 4300, the default, on
    releases before 3.10.7, which have no limit to query."""
    return getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def frac_str(q: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q``."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def exact_root(q: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a non-negative rational, or None.

    Roots of the numerator and denominator are taken in integers only
    (``isqrt``, integer Newton), so huge rationals cannot overflow a float.
    """
    if q < 0:
        return None

    def iroot(n: int) -> int | None:
        if k == 2 or n < 2:
            r = math.isqrt(n)
        else:
            r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
            while True:  # Newton from above decreases monotonically to the floor
                y = ((k - 1) * r + n // r ** (k - 1)) // k
                if y >= r:
                    break
                r = y
        return r if r**k == n else None

    a, b = iroot(q.numerator), iroot(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _read_value(raw, where: str, symbolic: bool = True) -> ReactionValue:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, str):
        if _RATIONAL_RE.match(raw):
            try:
                return Fraction(raw)
            except ZeroDivisionError:
                raise SchemaError(f"{where}: zero denominator in {raw!r}") from None
            except ValueError as exc:  # more digits than int() converts
                raise SchemaError(f"{where}: {exc}") from None
        if _SYMBOL_RE.match(raw):
            if not symbolic:
                raise SchemaError(f"{where} must be numeric")
            return raw
        raise SchemaError(f"{where}: string must be a symbol name or p/q rational, got {raw!r}")
    raise SchemaError(f"{where}: expected number or string, got {type(raw).__name__}")


def parse_rational(token: str) -> Fraction:
    """``Fraction(token)``, refusing first a token whose digits plus exponent
    magnitude exceed Python's int string limit: Fraction would expand
    ``1e10000000`` digit by digit."""
    mantissa, _, exponent = token.lower().partition("e")
    limit = int_digit_limit()
    if limit and sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0)) > limit:
        raise SchemaError(f"number {token} has over {limit} digits with its exponent")
    return Fraction(token)


def read_document(text: str, numeric: tuple[str, ...], other: tuple[str, ...] = ()) -> dict:
    """A JSON object with exactly the keys ``numeric`` and ``other``, numbers as exact
    Fractions; ``numeric`` values are checked in declared order, first bad one reported."""
    try:
        doc = json.loads(text, parse_float=parse_rational, parse_int=parse_rational)
    except InputError:
        raise
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    expected = set(numeric) | set(other)
    if set(doc) != expected:
        missing = expected - set(doc)
        extra = set(doc) - expected
        raise SchemaError(f"keys mismatch: missing {sorted(missing)}, unknown {sorted(extra)}")
    fields = {name: _read_value(doc[name], name, symbolic=False) for name in numeric}
    fields.update((name, doc[name]) for name in other)
    return fields


def parse_fields(text: str, sep: str, kinds: tuple, usage: str) -> list:
    """``text`` split at ``sep``, part i converted by ``kinds[i]``; a wrong
    count or a failed conversion raises SchemaError(usage)."""
    parts = text.split(sep)
    try:
        if len(parts) == len(kinds):
            return [kind(part) for kind, part in zip(kinds, parts)]
    except InputError:
        raise
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(usage)


def parse_model(text: str) -> HyperbolicPDE:
    """Parse a model JSON document, rejecting unknown keys.

    Numbers are read as exact decimals; strings are symbol names, except
    "p/q" strings which are exact rationals (for lossless round-trips of
    non-decimal coefficients).
    """
    fields = read_document(text, ("tau", "A", "B", "kappa"), ("reaction",))
    raw = fields.pop("reaction")
    if not isinstance(raw, dict):
        raise SchemaError("reaction must be an object")
    reaction = {}
    for key, value in raw.items():
        if key not in _EXPONENT_KEYS:
            raise SchemaError(f"reaction exponent key {key!r} not in {sorted(_EXPONENT_KEYS)}")
        reaction[_EXPONENT_KEYS[key]] = _read_value(value, f"reaction[{key}]")
    return HyperbolicPDE(reaction=reaction, **fields)


def _write_value(value: ReactionValue):
    if isinstance(value, str):
        return value
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    # exact decimal when the denominator is 2^a * 5^b, else "p/q"
    d = value.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d == 1:
        as_float = float(value)
        if Fraction(str(as_float)) == value:
            return as_float
    return frac_str(value)


def serialize_model(pde: HyperbolicPDE) -> str:
    """Inverse of :func:`parse_model` (exact round-trip)."""
    exponent_name = {v: k for k, v in _EXPONENT_KEYS.items()}
    doc = {
        "tau": _write_value(pde.tau),
        "A": _write_value(pde.A),
        "B": _write_value(pde.B),
        "kappa": _write_value(pde.kappa),
        "reaction": {exponent_name[nu]: _write_value(lam)
                     for nu, lam in sorted(pde.reaction.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def quartic_reduction(pde: HyperbolicPDE, v: Fraction, c0: Fraction) -> QuarticReduction:
    """Reduce tau*u_tt - kappa*u_xx = cubic(u) in the frame xi = x + v*t.

    One integration of H*u'' = f(u) gives (u')^2 = c0 + c1*u + ... + c4*u^4
    with H = tau*v^2 - kappa.  The integration constant c0 is the caller's.
    """
    if pde.A or pde.B:
        raise DomainError("quartic reduction requires A = B = 0")
    if not pde.is_numeric():
        raise DomainError("quartic reduction requires a fully numeric reaction")
    if pde.has_half_integer_reaction():
        raise DomainError("quartic reduction requires integer reaction exponents")
    v = Fraction(v)
    H = pde.tau * v * v - pde.kappa
    if H == 0:
        raise DegenerateFrame("tau*v^2 - kappa = 0")
    lam = {int(nu): Fraction(val) for nu, val in pde.reaction.items()}
    return QuarticReduction(
        c0=Fraction(c0),
        c1=2 * lam.get(0, Fraction(0)) / H,
        c2=lam.get(1, Fraction(0)) / H,
        c3=2 * lam.get(2, Fraction(0)) / (3 * H),
        c4=lam.get(3, Fraction(0)) / (2 * H),
        H=H,
    )
