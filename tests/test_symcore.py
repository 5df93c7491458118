import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twbench.model import int_digit_limit
from twbench.symcore import (
    _FACTOR_RE,
    DivisionByZero,
    ExpRational,
    MissingParameter,
    ParamPoly,
    parse_poly_text,
    poly_dxi,
    primitive_gcd,
)

from conftest import coeff_list, rand_frac, rand_nonzero, rand_poly


x = ParamPoly.var("x")
E = ParamPoly.var("E")


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        assert (x + 1) * (x - 1) == x**2 - 1

    def test_additive_identity(self):
        rng = random.Random(1)
        for _ in range(100):
            p = rand_poly(rng)
            assert p + ParamPoly.const(0) == p

    def test_two_mode_product(self):
        a0, a1, b0, b1 = (ParamPoly.var(n) for n in ("a0", "a1", "b0", "b1"))
        left = (a1 * E + a0) * (b1 * E + b0)
        right = a1 * b1 * E**2 + (a1 * b0 + a0 * b1) * E + a0 * b0
        assert left == right

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        zero, one = ParamPoly.const(0), ParamPoly.const(1)
        for _ in range(1000):
            p, q, r = (rand_poly(rng, max_terms=3, max_deg=2) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + zero == p and p * one == p
            assert p + (-p) == zero

    def test_canonical_form_idempotent(self):
        """Every result is already canonical: the checking constructor changes
        neither its variables nor its terms, term order included."""
        rng = random.Random(11)
        for _ in range(1000):
            p, q = rand_poly(rng), rand_poly(rng)
            e = rand_poly(rng, names=("E", "x"))
            results = [p, p + q, p - q, p * q, p ** rng.randint(0, 3), p.diff("x"),
                       p.substitute({"y": rand_frac(rng)}),
                       poly_dxi(e), poly_dxi(e, rand_frac(rng))]
            for r in results:
                again = ParamPoly(r.variables, r.terms)
                assert again == r
                assert again.variables == r.variables
                assert list(again.terms.items()) == list(r.terms.items())
                assert all(isinstance(c, F) and c for c in r.terms.values())
                assert list(r.variables) == sorted(set(r.variables))
                assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))

    def test_unused_variables_trimmed(self):
        p = ParamPoly(("x", "y"), {(2, 0): F(1)})
        assert p.variables == ("x",)
        assert p == x**2


class TestDifferentiateXi:
    def test_defining_relation(self):
        assert ExpRational(E).differentiate_xi() == ExpRational(E * ParamPoly.var("alpha"))

    def test_quotient_rule_simple(self):
        f = ExpRational(ParamPoly.const(1), ParamPoly.const(1) + E)
        d = f.differentiate_xi()
        expected = ExpRational(-ParamPoly.var("alpha") * E, (ParamPoly.const(1) + E) ** 2)
        assert d == expected

    def test_two_mode_derivative_proportional_to_delta(self):
        a0, a1, b0, b1, al = (ParamPoly.var(n) for n in ("a0", "a1", "b0", "b1", "alpha"))
        w = ExpRational(a0 + a1 * E, b0 + b1 * E)
        d = w.differentiate_xi()
        expected = ExpRational(al * E * (a1 * b0 - a0 * b1), (b0 + b1 * E) ** 2)
        assert d == expected

    def test_leibniz_rule_randomized(self):
        rng = random.Random(13)
        for _ in range(1000):
            f = _rand_exp_rational(rng)
            g = _rand_exp_rational(rng)
            lhs = (f * g).differentiate_xi()
            rhs = f * g.differentiate_xi() + g * f.differentiate_xi()
            assert lhs == rhs

    def test_numeric_alpha(self):
        f = ExpRational(E)
        assert f.differentiate_xi(F(2)) == ExpRational(2 * E)


class TestEvaluate:
    def test_polynomial_point(self):
        assert (x**2 - 1).evaluate({"x": F(3)}) == 8

    def test_rational_point(self):
        a0, a1, b0, b1 = (ParamPoly.var(n) for n in ("a0", "a1", "b0", "b1"))
        w = ExpRational(a0 + a1 * E, b0 + b1 * E)
        value = w.evaluate({"a0": 0, "a1": 1, "b0": 1, "b1": 1}, E_value=1)
        assert value == F(1, 2)

    def test_product_homomorphism_randomized(self):
        rng = random.Random(17)
        for _ in range(1000):
            p = rand_poly(rng, max_terms=3, max_deg=2)
            q = rand_poly(rng, max_terms=3, max_deg=2)
            sigma = {n: rand_frac(rng) for n in ("x", "y", "z")}
            assert (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)
            assert (p + q).evaluate(sigma) == p.evaluate(sigma) + q.evaluate(sigma)

    def test_missing_parameter(self):
        with pytest.raises(MissingParameter):
            (x + 1).evaluate({})

    def test_division_by_zero(self):
        f = ExpRational(ParamPoly.const(1), E - 1)
        with pytest.raises(DivisionByZero):
            f.evaluate({}, E_value=F(1))

    def test_derivative_matches_central_difference(self):
        rng = random.Random(19)
        checked = 0
        while checked < 50:
            f = _rand_exp_rational(rng, max_deg=3)
            env = {"alpha": float(rand_nonzero(rng, -2, 2)),
                   "a": float(rand_frac(rng)), "b": float(rand_frac(rng))}
            alpha = env["alpha"]
            xi = rng.uniform(-1.0, 1.0)
            step = 1e-5

            def val(z):
                return float(f.evaluate(env, E_value=math.exp(alpha * z)))

            try:
                numeric = (val(xi + step) - val(xi - step)) / (2 * step)
                exact = float(f.differentiate_xi("alpha").evaluate(
                    env, E_value=math.exp(alpha * xi)))
            except DivisionByZero:
                continue
            scale = max(1.0, abs(numeric), abs(exact))
            if scale > 1e3:  # skip near-pole samples where differencing is hopeless
                continue
            assert abs(numeric - exact) / scale <= 1e-6
            checked += 1


def _reference_evaluate(poly, assignment):
    """``ParamPoly.evaluate`` as it was written before it summed exact values
    on integers: one ``Fraction`` (or float) operation per factor and term."""
    values = []
    for name in poly.variables:
        if name not in assignment:
            raise MissingParameter(name)
        values.append(assignment[name])
    total = F(0)
    for exps, c in poly.terms.items():
        term = c
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


_NAMES = ("x", "y", "z")
_EXACT = (st.integers(-10**6, 10**6) | st.sampled_from((0, F(0), -1, F(-7, 3)))
          | st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**30)))
_FLOATS = st.floats(-1e3, 1e3) | st.floats(-1e3, 1e3).map(np.float64)
_COEFFS = st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 12))


@st.composite
def _evaluations(draw):
    """A polynomial (zero, constant or in up to three variables, rational
    coefficients) and a point that may leave a variable out or hold floats."""
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    exponents = st.tuples(*(st.integers(0, 6) for _ in names))
    poly = ParamPoly(names, draw(st.dictionaries(exponents, _COEFFS, max_size=8)))
    point = {}
    for name in _NAMES:
        value = draw(st.none() | _EXACT | _EXACT | _FLOATS)
        if value is not None:
            point[name] = value
    return poly, point


@settings(max_examples=500, deadline=None, database=None)
@given(_evaluations())
@example((ParamPoly.const(0), {}))
@example((ParamPoly.const(F(5, 3)), {"x": 1.5}))
@example((x**2 * ParamPoly.var("y") - 1, {"x": F(2, 3)}))
@example((F(1, 3) * x**3 + F(2, 5) * ParamPoly.var("y"), {"x": F(-1, 10**30 + 7), "y": -4}))
@example((F(1, 3) * x**2 - F(1, 7) * x, {"x": 0.1}))
@example((x**6 * ParamPoly.var("y") + x, {"x": F(1, 10**30 + 7), "y": F(-7, 3)}))
def test_evaluate_matches_fraction_reference(case):
    poly, point = case
    try:
        want = _reference_evaluate(poly, point)
    except MissingParameter as missing:
        with pytest.raises(MissingParameter) as raised:
            poly.evaluate(point)
        assert raised.value.args == missing.args
        return
    got = poly.evaluate(point)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert type(got) is F and got == want


def _pairs_plus_high_power():
    """The 1830 products y_i*y_j (i <= j) of 60 unknowns, then x^4300."""
    names = ["x", *(f"y{i:02d}" for i in range(60))]
    terms = {}
    for i in range(60):
        for j in range(i, 60):
            exps = [0] * 61
            exps[i + 1] += 1
            exps[j + 1] += 1
            terms[tuple(exps)] = F(1)
    terms[(4300,) + (0,) * 60] = F(1)
    return ParamPoly(names, terms), {name: i for i, name in enumerate(names)}


def test_long_common_denominator_takes_the_term_loop(monkeypatch):
    # at x = p/q, p and q of 49 digits, the integer sum over the common
    # denominator q^4300 ends in a gcd of two 210 000-digit ints and scales
    # every y_i*y_j term up to that length; the term loop took under 0.1 s on
    # each where the integer sum took 0.6 s and 3 to 5 s
    q = 10**48 + 7
    big = F(q + 2, q)
    pairs, point = _pairs_plus_high_power()
    point["x"] = big
    cases = [(x**4300 - 1, {"x": big}), (pairs, point)]
    want = [_reference_evaluate(poly, p) for poly, p in cases]

    def integer_sum(*args):
        raise AssertionError("the integer sum was taken")

    monkeypatch.setattr(ParamPoly, "_evaluate_exact", integer_sum)
    assert [poly.evaluate(p) for poly, p in cases] == want


def test_short_common_denominator_takes_the_integer_sum(monkeypatch):
    # the same shapes at small denominators, and at integers however long
    pairs, point = _pairs_plus_high_power()
    point["x"] = F(3, 2)
    cases = [(x**10 - 1, {"x": F(10**9 + 9, 10**9 + 7)}), (pairs, point),
             (x**4300 - 1, {"x": 10**48 + 7})]
    taken = []
    integer_sum = ParamPoly._evaluate_exact
    monkeypatch.setattr(ParamPoly, "_evaluate_exact",
                        lambda *args: taken.append(1) or integer_sum(*args))
    for poly, p in cases:
        assert poly.evaluate(p) == _reference_evaluate(poly, p)
    assert len(taken) == len(cases)


class TestSerialization:
    def test_text_round_trip_randomized(self):
        rng = random.Random(23)
        for _ in range(300):
            p = rand_poly(rng)
            assert parse_poly_text(p.to_text()) == p

    def test_canonical_order_is_graded_lex(self):
        p = x**2 + ParamPoly.var("y") ** 3 + 5
        assert p.to_text() == "y^3 + x^2 + 5"

    def test_rational_rendering(self):
        p = F(3, 2) * x - F(7, 1)
        assert p.to_text() == "3/2*x - 7"

    def test_exp_rational_text(self):
        w = ExpRational(E + 1, E - 1)
        assert w.to_text() == "(E + 1) / (E - 1)"


def _reference_parse(text: str) -> ParamPoly:
    """parse_poly_text as it was written before it built each polynomial in
    one pass: every term added with ParamPoly.__add__."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    limit = int_digit_limit()
    norm = text.replace(" - ", " + -")
    result = ParamPoly.const(0)
    for chunk in norm.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        term = ParamPoly.const(-1 if neg else 1)
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if not m:
                raise ValueError(f"malformed factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                term = term * ParamPoly.const(F(m.group("num")))
            else:
                term = term * ParamPoly.var(m.group("var")) ** int(m.group("exp") or 1)
        top = max((e for exps in term.terms for e in exps), default=0)
        if limit and top > limit:
            raise ValueError(f"exponent {top} is over the limit of {limit}")
        result = result + term
    return result


# factors and separators of canonical text, some zero, repeating a variable
# or cancelling a term; one in about 15 malformed or over the exponent limit
_VALID = ("0", "1", "2", "-3", "7/2", "-5/06", "12", "x", "y", "z", "a1", "_q", "x^0", "x^2",
          "y^3", "z^12", "x^2150", " x", "E")
_FACTORS = st.sampled_from(_VALID * 12 + ("3/0", "x^4301", "x^", "1x", "x^-1", "", "x y"))
_SEPARATORS = st.sampled_from((" + ", " - ") * 20 + ("+", " ", " +  ", " - -"))


@st.composite
def _poly_texts(draw):
    terms = draw(st.lists(st.tuples(st.booleans(), st.lists(_FACTORS, min_size=1, max_size=4)),
                          min_size=1, max_size=8))
    text = ""
    for i, (neg, factors) in enumerate(terms):
        text += (draw(_SEPARATORS) if i else "") + ("-" if neg else "") + "*".join(factors)
    return text


@settings(max_examples=600, deadline=None, database=None)
@given(_poly_texts())
@example("x*y + x - x*y + y")  # a variable dropped by a cancellation comes back
@example("x^2150*x^2151 + 1")  # over the limit only once the factors are multiplied
@example("0*x^4301 + x*x")
def test_parse_matches_reference(text):
    try:
        expected = _reference_parse(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            parse_poly_text(text)
        assert str(raised.value) == str(exc)
        return
    got = parse_poly_text(text)
    assert got.variables == expected.variables
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(type(c) is F for c in got.terms.values())


def test_parse_many_variables():
    # one term per variable: adding term by term made this cubic
    n = 2000
    p = parse_poly_text(" + ".join(f"y{i}" for i in range(n)))
    assert p.variables == tuple(sorted(f"y{i}" for i in range(n)))
    assert len(p.terms) == n and set(p.terms.values()) == {F(1)}
    assert all(sum(exps) == 1 for exps in p.terms)


def _reference_strip(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _reference_long_division(num, den):
    rem = _reference_strip(list(num))
    quot = [F(0)] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        q = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        quot[shift] = q
        for i, c in enumerate(den):
            rem[i + shift] -= q * c
        _reference_strip(rem)
    return quot, rem


def _reference_gcd_coeffs(a: list, b: list) -> list[F]:
    """The monic gcd by Euclid's algorithm on Fraction remainders."""
    ca, cb = _reference_strip([F(c) for c in a]), _reference_strip([F(c) for c in b])
    while cb:
        ca, cb = cb, _reference_long_division(ca, cb)[1]
    return [c / ca[-1] for c in ca]


def _in_E(coeffs):
    return ParamPoly._make(("E",), {(k,): c for k, c in enumerate(coeffs) if c})


def _reference_reduce_pair(num, den):
    """ExpRational's reduction on Fractions: the monic gcd, divided out by
    long division, then the content of the pair, so that a pair in E alone
    ends primitive and coprime, its unique form."""
    if num.is_zero():
        return ParamPoly.const(0), ParamPoly.const(1)
    cn, en = num.content()
    cd, ed = den.content()
    den_exps = dict(zip(den.variables, ed))
    g_exps = {n: min(e, den_exps.get(n, 0)) for n, e in zip(num.variables, en)}
    g_coeff = F(math.gcd(cn.numerator * cd.denominator, cd.numerator * cn.denominator),
                cn.denominator * cd.denominator)
    if g_coeff != 1 or any(g_exps.values()):
        num, den = (p.divide_monomial(g_coeff, tuple(g_exps.get(n, 0) for n in p.variables))
                    for p in (num, den))
    if all(v == "E" for v in num.variables + den.variables):
        g = _reference_gcd_coeffs(coeff_list(num, "E"), coeff_list(den, "E"))
        if len(g) > 1:
            num, den = (_in_E(_reference_long_division(coeff_list(p, "E"), g)[0])
                        for p in (num, den))
        coeffs = [*num.terms.values(), *den.terms.values()]
        content = F(math.gcd(*(c.numerator for c in coeffs)),
                    math.lcm(*(c.denominator for c in coeffs)))
        num, den = (p.divide_monomial(content, (0,) * len(p.variables)) for p in (num, den))
    if den._leading_coeff() < 0:
        num, den = -num, -den
    return num, den


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


# small rationals, zeros, and now and then one beyond the float range or near 0
_GCD_COEFFICIENTS = (st.builds(F, st.integers(-9, 9), st.integers(1, 6))
                     | st.sampled_from((F(0), F(10) ** 400, F(3, 10**400))))
# common factors: constants, powers of E, non-monic and negative leading coefficients
_GCD_FACTORS = st.sampled_from(([F(1)], [F(-5, 2)], [F(0), F(1)], [F(1), F(2)], [F(3), F(-2)],
                                [F(1), F(0), F(-1)], [F(-1), F(5), F(-3)], [F(10) ** 400, F(7)]))


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(_GCD_COEFFICIENTS, max_size=5), st.lists(_GCD_COEFFICIENTS, max_size=5),
       _GCD_FACTORS)
@example([F(0)], [F(2), F(4)], [F(1)])  # a zero on the left
@example([F(-3), F(6)], [], [F(1)])  # a zero on the right
@example([F(1), F(1)], [F(1), F(2)], [F(1)])  # a constant gcd
@example([F(3)], [F(1), F(1)], [F(1), F(2)])  # the common factor 2E + 1
@example([F(-1), F(-2)], [F(4), F(0), F(-3)], [F(3), F(-2)])  # negative leading coefficients
@example([F(10) ** 400, F(1)], [F(3, 10**400), F(-1)], [F(1), F(1)])
def test_gcd_matches_reference(a, b, common):
    a, b = _times(a, common) if a else a, _times(b, common) if b else b
    if not any(a) and not any(b):
        return

    def cleared(coeffs):
        lcm = math.lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (lcm // c.denominator) for c in coeffs]

    got = primitive_gcd(cleared(a), cleared(b))
    assert all(type(c) is int for c in got) and math.gcd(*got) == 1
    assert [F(c, got[-1]) for c in got] == _reference_gcd_coeffs(a, b)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(_GCD_COEFFICIENTS, max_size=4), st.lists(_GCD_COEFFICIENTS, max_size=4),
       _GCD_FACTORS, st.sampled_from((None, "E", "x")))
@example([F(1), F(3)], [F(2)], [F(1), F(2)], None)  # (2E + 1) divided out of (2E + 1)(3E + 1)
@example([F(-1), F(-2)], [F(4), F(0), F(-3)], [F(3), F(-2)], None)
@example([F(0), F(0)], [F(1), F(1)], [F(1), F(2)], None)  # a zero numerator
@example([F(2), F(4)], [F(6), F(8)], [F(1), F(1)], "x")  # a symbol keeps the gcd in
def test_reduced_pair_matches_reference(a, b, common, factor):
    """ExpRational's reduction, whose E-gcd runs on integers, gives the
    Fractions, variables and term order of the Fraction route."""
    num, den = _in_E(_times(a, common) if a else a), _in_E(_times(b, common) if b else b)
    if factor is not None:
        num = num * ParamPoly.var(factor)
    if den.is_zero():
        return
    w = ExpRational(num, den)
    for got, want in zip((w.num, w.den), _reference_reduce_pair(num, den)):
        assert got.variables == want.variables
        assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any), _GCD_FACTORS)
@example([3, 1], [-1, 1], [F(1), F(2)])  # (2E + 1)(E + 3) / ((2E + 1)(E - 1))
def test_equal_pairs_in_E_hash_equal(a, b, common):
    """A pair in E alone and its multiple by a common factor reduce to the
    same terms, so they hash as they compare."""
    w = ExpRational(_in_E(list(map(F, a))), _in_E(list(map(F, b))))
    v = ExpRational(_in_E(_times(a, common)), _in_E(_times(b, common)))
    assert v == w and len({v, w}) == 1
    assert (v.num.terms, v.den.terms) == (w.num.terms, w.den.terms)


def _rand_exp_rational(rng, max_deg=2) -> ExpRational:
    names = ("a", "b")

    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, max_deg), rng.randint(0, 1), rng.randint(0, 1))
            terms[exps] = terms.get(exps, F(0)) + rand_frac(rng, -3, 3, 2)
        return ParamPoly(("E",) + names, {e: c for e, c in terms.items() if c})

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return ExpRational(num, den)
