"""Exact computer-algebra kernel.

Multivariate polynomials over exact rationals in named parameters, rational
functions in the travelling-wave exponential E = exp(alpha*xi), symbolic
differentiation d/dxi (which acts on E as alpha*E*d/dE), and exact or
floating-point evaluation.

Coefficients are ``fractions.Fraction`` throughout; floats enter only through
``evaluate``.  On exact values (``int``, ``Fraction``) whose common
denominator is short for the number of terms, ``evaluate`` sums integers over
that denominator and builds one ``Fraction`` at the end; on a longer one, and
on any other value, it keeps a loop over the terms, one operation per factor.

Canonical form of a ``ParamPoly``: sorted variables, each used by some term,
nonzero ``Fraction`` coefficients.  ``ParamPoly.__init__`` establishes it for
outside input; every computed result is built canonical by ``ParamPoly._make``,
with ``_merge`` the one place where like terms are added and zeros dropped.
Term order is insertion order; the float loop of ``evaluate`` sums in it, so
floats depend on it (an exact value does not).
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Fraction

Number = Union[Fraction, int, float]

#: Name of the exponential variable E = exp(alpha*xi) inside ParamPoly.
E_NAME = "E"

#: Exact ``evaluate`` sums on integers over one common denominator of b bits
#: while b*b is at most this times the number of terms (see there): a gcd of
#: two b-bit ints costs about b*b/2**16 ``Fraction`` operations of the
#: term-by-term sum (CPython 3.11 on x86-64, measured from 20 to 30 000 bits).
_GCD_BITS2_PER_TERM = 2**16

#: ``parse_poly_text`` refuses a text whose terms times variables exceed
#: this: the parsed polynomial holds one exponent per term and variable.
#: 4 million of them (2000 terms in 2000 variables) parse in about 0.2 s
#: and 60 MB, 10 million in about 0.6 s and 110 MB (CPython 3.11 on x86-64).
_MAX_PARSE_EXPONENTS = 10**7


class MissingParameter(KeyError):
    """Evaluation requested without a value for some parameter."""


class DivisionByZero(ArithmeticError):
    """Denominator vanishes (at a point, or identically)."""


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


def _coeff(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # exact decimal reading keeps 0.1 == 1/10
        return Fraction(str(value))
    raise TypeError(f"not a rational coefficient: {value!r}")


def _merge(terms: dict, pairs) -> dict:
    """Add each (exponents, coefficient) pair into ``terms`` in order, deleting
    a term whose sum is zero; returns ``terms``."""
    for key, c in pairs:
        acc = terms.get(key)
        if acc is not None:
            c = acc + c
        if c:
            terms[key] = c
        elif acc is not None:
            del terms[key]
    return terms


class ParamPoly:
    """Multivariate polynomial over Fraction in named parameters.

    Kept in the canonical form of the module docstring.  Term order for
    serialization is graded lexicographic (total degree first, then exponent
    vector), descending.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], Number] | None = None,
    ):
        """Checking constructor for outside input: sorts the variables,
        coerces the coefficients and merges the terms."""
        variables = tuple(variables)
        terms = terms or {}
        if any(len(exps) != len(variables) for exps in terms):
            raise ValueError("exponent arity does not match variable list")
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        merged = _merge({}, ((tuple(exps[i] for i in order), _coeff(c))
                             for exps, c in terms.items()))
        canonical = ParamPoly._make(tuple(variables[i] for i in order), merged)
        self.variables, self.terms = canonical.variables, canonical.terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]) -> "ParamPoly":
        """Trusted constructor: ``variables`` sorted, ``terms`` merged with
        nonzero Fraction coefficients; only drops the variables no term uses."""
        used = [i for i, column in enumerate(zip(*terms)) if any(column)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        p = ParamPoly.__new__(ParamPoly)
        p.variables = variables
        p.terms = terms
        return p

    @staticmethod
    def const(value: Number) -> "ParamPoly":
        c = _coeff(value)
        return ParamPoly._make((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "ParamPoly":
        return ParamPoly._make((name,), {(1,): Fraction(1)})

    @staticmethod
    def lift(value: "ParamPoly | str | Number") -> "ParamPoly":
        """Coerce a symbol name or number into a polynomial."""
        if isinstance(value, ParamPoly):
            return value
        if isinstance(value, str):
            return ParamPoly.var(value)
        return ParamPoly.const(value)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, name: str) -> int:
        """Degree in one variable; zero polynomial -> -1."""
        if not self.terms:
            return -1
        if name not in self.variables:
            return 0
        i = self.variables.index(name)
        return max(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "ParamPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        names = sorted(set(self.variables) | set(other.variables))
        pos = {n: i for i, n in enumerate(names)}

        def remap(poly: "ParamPoly"):
            idx = [pos[n] for n in poly.variables]
            out = {}
            for exps, c in poly.terms.items():
                key = [0] * len(names)
                for j, e in zip(idx, exps):
                    key[j] = e
                out[tuple(key)] = c
            return out

        return tuple(names), remap(self), remap(other)

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.lift(other)
        names, a, b = self._aligned(other)
        return ParamPoly._make(names, _merge(dict(a), b.items()))

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._make(self.variables, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-ParamPoly.lift(other))

    def __rsub__(self, other) -> "ParamPoly":
        return ParamPoly.lift(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = ParamPoly.lift(other)
        names, a, b = self._aligned(other)
        return ParamPoly._make(names, _merge({}, ((tuple(map(operator.add, ka, kb)), ca * cb)
                                                  for ka, ca in a.items() for kb, cb in b.items())))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power")
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            if isinstance(other, (int, Fraction)):
                other = ParamPoly.const(other)
            else:
                return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus and evaluation -------------------------------------------

    def diff(self, name: str) -> "ParamPoly":
        """Partial derivative with respect to one parameter."""
        if name not in self.variables:
            return ParamPoly.const(0)
        i = self.variables.index(name)
        return ParamPoly._make(self.variables, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]
                                                for e, c in self.terms.items() if e[i]})

    def evaluate(self, assignment: Mapping[str, Number]) -> Number:
        """Evaluate at a point; exact iff every input value is exact.

        On ``int`` and ``Fraction`` values the sum is taken on integers: with
        value i written p_i/q_i and top_i its largest exponent, each term
        c*x^e is c's numerator times L/c's denominator times
        prod p_i^e_i*q_i^(top_i - e_i) over the common denominator
        L*prod q_i^top_i, L the lcm of the coefficients' denominators, so only
        the one ``Fraction`` built at the end takes a gcd.  That gcd grows
        with the square of the common denominator's length, while the loop
        below pays a few ``Fraction`` operations per term and keeps each term
        over its own denominator; so a common denominator of b bits takes the
        integer sum only while b*b is at most ``_GCD_BITS2_PER_TERM`` times
        the number of terms.  Any other value (a float, a numpy scalar) takes
        the loop over the terms in order, whose float operations the Newton
        evaluator reproduces bit for bit.
        """
        values = []
        for name in self.variables:
            if name not in assignment:
                raise MissingParameter(name)
            values.append(assignment[name])
        if all(isinstance(v, (int, Fraction)) for v in values):
            tops = [max(column) for column in zip(*self.terms)]
            scale = math.lcm(*(c.denominator for c in self.terms.values()))
            # ceil(log2) of the common denominator, or a little over it
            bits = (scale - 1).bit_length() + sum(top * (v.denominator - 1).bit_length()
                                                   for v, top in zip(values, tops))
            if bits * bits <= _GCD_BITS2_PER_TERM * len(self.terms):
                return self._evaluate_exact(values, tops, scale)
        total: Number = Fraction(0)
        for exps, c in self.terms.items():
            term: Number = c
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def _evaluate_exact(self, values: list, tops: list[int], scale: int) -> Fraction:
        terms = self.terms
        den = scale
        tables = []  # per variable: p^e * q^(top - e) for each exponent e it is raised to
        for v, top, used in zip(values, tops, map(set, zip(*terms))):
            p, q = v.numerator, v.denominator
            den *= q**top
            tables.append({e: p**e * q ** (top - e) for e in used})
        total = sum(c.numerator * (scale // c.denominator)
                    * math.prod(map(operator.getitem, tables, exps))
                    for exps, c in terms.items())
        return Fraction(total, den)

    def substitute(self, assignment: Mapping[str, Number]) -> "ParamPoly":
        """Substitute exact values for a subset of the variables."""
        keep = [i for i, n in enumerate(self.variables) if n not in assignment]
        vals = {i: _coeff(assignment[n]) for i, n in enumerate(self.variables) if n in assignment}

        def reduced():
            for exps, c in self.terms.items():
                for i, v in vals.items():
                    if exps[i]:
                        c = c * v ** exps[i]
                yield tuple(exps[i] for i in keep), c

        return ParamPoly._make(tuple(self.variables[i] for i in keep), _merge({}, reduced()))

    def content(self) -> tuple[Fraction, tuple[int, ...]]:
        """Monomial content: gcd of coefficients and componentwise min exponent."""
        if not self.terms:
            return Fraction(0), (0,) * len(self.variables)
        coeffs = self.terms.values()
        mins = tuple(min(e[i] for e in self.terms) for i in range(len(self.variables)))
        return (Fraction(math.gcd(*(c.numerator for c in coeffs)),
                         math.lcm(*(c.denominator for c in coeffs))), mins)

    def divide_monomial(self, coeff: Fraction, exps: tuple[int, ...]) -> "ParamPoly":
        """Exact division by a monomial given in this polynomial's variables."""
        if not coeff:
            raise DivisionByZero("monomial coefficient is zero")
        out = {}
        for e, c in self.terms.items():
            key = tuple(a - b for a, b in zip(e, exps))
            if any(k < 0 for k in key):
                raise ValueError("monomial does not divide polynomial")
            out[key] = c / coeff
        return ParamPoly._make(self.variables, out)

    def _leading_coeff(self) -> Fraction:
        key = max(self.terms, key=lambda e: (sum(e), e))
        return self.terms[key]

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form: graded-lex descending terms."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(self.variables, exps)
                if e
            )
            if not mono:
                body = frac_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{frac_str(abs(c))}*{mono}"
            pieces.append((c < 0, body))
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __repr__(self):
        return f"ParamPoly({self.to_text()})"


_FACTOR_RE = re.compile(r"^(?:(?P<num>-?\d+(?:/0*[1-9]\d*)?)|(?P<var>[A-Za-z_]\w*)(?:\^(?P<exp>\d+))?)$")


def parse_poly_text(text: str) -> ParamPoly:
    """Parse the canonical text form produced by :meth:`ParamPoly.to_text`.

    A term with an exponent over :func:`int_digit_limit` is refused: evaluating
    ``x^10000000`` exactly at ``x = 3`` alone takes seconds.  The terms are
    merged in text order into one dict over the final variables, so the
    work grows with the number of terms times the number of variables (the
    size of that dict), not with its cube as adding term by term did; a
    text where that product is over ``_MAX_PARSE_EXPONENTS`` is refused
    before the dict is built."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    limit = int_digit_limit()
    # tokenize into signed terms; '+'/'-' only appear as term separators
    norm = text.replace(" - ", " + -")
    parsed = []  # (coefficient, {variable: exponent}) of each nonzero term
    for chunk in norm.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        coeff, powers = Fraction(-1 if neg else 1), {}
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if not m:
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                coeff *= Fraction(m.group("num"))
            else:
                name = m.group("var")
                powers[name] = powers.get(name, 0) + int(m.group("exp") or 1)
        if coeff:
            top = max(powers.values(), default=0)
            if limit and top > limit:
                raise ValueError(f"exponent {top} is over the limit of {limit}")
            parsed.append((coeff, powers))
    names = sorted({name for _, powers in parsed for name in powers})
    if len(parsed) * len(names) > _MAX_PARSE_EXPONENTS:
        raise ValueError(f"{len(parsed)} terms in {len(names)} variables are over the limit "
                         f"of {_MAX_PARSE_EXPONENTS} exponents")
    column = {name: i for i, name in enumerate(names)}

    def exponents(powers: dict) -> tuple[int, ...]:
        key = [0] * len(names)
        for name, e in powers.items():
            key[column[name]] = e
        return tuple(key)

    terms = _merge({}, ((exponents(powers), c) for c, powers in parsed))
    return ParamPoly._make(tuple(names), terms)


# -- rational functions in E -------------------------------------------------


def _trimmed(coeffs: list) -> list:
    """The list without its trailing zero coefficients."""
    top = len(coeffs)
    while top and not coeffs[top - 1]:
        top -= 1
    return coeffs[:top]


def _primitive(coeffs: list[int]) -> list[int]:
    """A nonzero integer list divided by the gcd of its entries."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _poly_in_E(coeffs: list) -> ParamPoly:
    return ParamPoly._make((E_NAME,), {(k,): Fraction(c) for k, c in enumerate(coeffs) if c})


def _int_coeffs(p: ParamPoly) -> list[int]:
    """Dense coefficients, lowest power first, of a polynomial in E alone
    whose coefficients are integers."""
    out = [0] * (p.degree(E_NAME) + 1)
    for exps, c in p.terms.items():
        out[sum(exps)] = c.numerator
    return out


def primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, up to sign, of two dense integer coefficient lists in E,
    lowest power first; [] when both are zero.

    Euclid's algorithm on primitive pseudo-remainders, which stays in Z[E]
    (D. E. Knuth, *TAOCP* vol. 2, section 4.6.1; G. E. Collins, JACM 14,
    1967): each step scales a by lead(b)/h and takes top(a)/h times b off it,
    h = gcd(lead(b), top(a)), and each remainder is made primitive.
    """
    a, b = _trimmed(a), _trimmed(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    a, b = _primitive(a), _primitive(b)
    while b:
        lead, n = b[-1], len(b)
        while len(a) >= n:  # lower deg a by one step of pseudo-division
            h = math.gcd(lead, a[-1])
            scale, top, k = lead // h, a[-1] // h, len(a) - n
            if scale != 1:
                a = [scale * c for c in a]
            for i, c in enumerate(b):
                a[i + k] -= top * c
            a = _trimmed(a)
        a, b = b, (_primitive(a) if a else [])
    return a


def _exact_quotient(p: list[int], g: list[int]) -> list[int]:
    """p/g on integers; g must divide p in Z[E], as a primitive gcd of p
    does (Gauss's lemma: the quotient's coefficients are integers)."""
    rem, n = list(p), len(g)
    quot = [0] * (len(p) - n + 1)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + n - 1] // g[-1]
        if c:
            for i, x in enumerate(g):
                rem[k + i] -= c * x
    return quot


def lowest_terms(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """An integer pair in E, lowest power first, with the common power of E
    and the integer content divided out and a positive leading denominator
    coefficient; 0/den becomes [0]/[1].  No factor in E is looked for."""
    num, den = _trimmed(num), _trimmed(den)
    if not num:
        return [0], [1]
    shift = min(next(i for i, c in enumerate(part) if c) for part in (num, den))
    g = math.gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    return [c // g for c in num[shift:]], [c // g for c in den[shift:]]


def reduced_pair(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """The canonical form of the integer pair num/den in E: ``lowest_terms``,
    then both sides divided by their ``primitive_gcd``.  The result is
    primitive and coprime with a positive leading denominator coefficient,
    so every pair of one rational function has the same result; by Gauss's
    lemma its p-th powers are in that form as well."""
    num, den = lowest_terms(num, den)
    g = primitive_gcd(num, den)
    if len(g) == 1:
        return num, den
    if g[-1] < 0:
        g = [-c for c in g]
    return _exact_quotient(num, g), _exact_quotient(den, g)


class ExpRational:
    """Rational function in E = exp(alpha*xi) with ParamPoly numerator/denominator.

    Kept reduced: terms with a zero coefficient are dropped, so a side whose
    coefficients are all zero is zero; common E powers and common monomial
    content are always cancelled, and the denominator's leading sign is made
    positive.  When both sides are in E alone, which makes them integers
    once the content is out, the pair is ``reduced_pair``'s canonical form,
    which divides out their gcd in E; the terms keep their order unless a
    factor in E is divided out.  So ``hash`` agrees with ``==`` for pairs in
    E alone and for pairs whose common factor is a monomial; there is no
    multivariate gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        den = ParamPoly.const(1) if den is None else den
        if not any(den.terms.values()):
            raise DivisionByZero("denominator is identically zero")
        self.num, self.den = _reduce_pair(num, den)

    def __add__(self, other: "ExpRational") -> "ExpRational":
        if self.den == other.den:
            return ExpRational(self.num + other.num, self.den)
        return ExpRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "ExpRational") -> "ExpRational":
        return ExpRational(self.num * other.num, self.den * other.den)

    def __pow__(self, n: int) -> "ExpRational":
        return ExpRational(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpRational):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def differentiate_xi(self, alpha: "str | Number" = "alpha") -> "ExpRational":
        """d/dxi under dE/dxi = alpha*E (quotient rule)."""
        dn = poly_dxi(self.num, alpha)
        dd = poly_dxi(self.den, alpha)
        return ExpRational(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, assignment: Mapping[str, Number], E_value: Number | None = None) -> Number:
        env = dict(assignment)
        if E_value is not None:
            env[E_NAME] = E_value
        n = self.num.evaluate(env)
        d = self.den.evaluate(env)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the evaluation point")
        return n / d

    def to_text(self) -> str:
        if self.den == ParamPoly.const(1):
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"ExpRational({self.to_text()})"


def _nonzero(p: ParamPoly) -> ParamPoly:
    """p without its terms whose coefficient is zero, which ``ParamPoly._make``
    keeps as it is given them."""
    if all(p.terms.values()):
        return p
    return ParamPoly._make(p.variables, {e: c for e, c in p.terms.items() if c})


def _reduce_pair(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    num, den = _nonzero(num), _nonzero(den)
    if num.is_zero():
        return ParamPoly.const(0), ParamPoly.const(1)
    # common monomial content (covers common E powers as well)
    cn, en = num.content()
    cd, ed = den.content()
    den_exps = dict(zip(den.variables, ed))
    g_exps = {n: min(e, den_exps.get(n, 0)) for n, e in zip(num.variables, en)}
    g_coeff = Fraction(math.gcd(cn.numerator * cd.denominator, cd.numerator * cn.denominator),
                       cn.denominator * cd.denominator)

    def strip(poly):
        return poly.divide_monomial(g_coeff, tuple(g_exps.get(n, 0) for n in poly.variables))

    if g_coeff != 1 or any(g_exps.values()):
        num, den = strip(num), strip(den)
    # in E alone the sides are integers, the content being out
    if all(v == E_NAME for v in num.variables + den.variables):
        dense = _int_coeffs(den)
        a, b = reduced_pair(_int_coeffs(num), dense)
        if len(b) < len(dense):  # a factor in E was divided out
            return _poly_in_E(a), _poly_in_E(b)
    if den._leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def poly_dxi(p: ParamPoly, alpha: "str | Number" = "alpha") -> ParamPoly:
    """Apply d/dxi = alpha*E*d/dE to a polynomial: E^k picks up a factor k*alpha."""
    if E_NAME not in p.variables:
        return ParamPoly.const(0)
    i = p.variables.index(E_NAME)
    scaled = ParamPoly._make(p.variables, {e: c * e[i] for e, c in p.terms.items() if e[i]})
    return scaled * ParamPoly.lift(alpha)
