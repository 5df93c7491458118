import math
import random
from fractions import Fraction as F

import pytest

from twbench.symcore import (
    DivisionByZero,
    ExpRational,
    MissingParameter,
    ParamPoly,
    parse_poly_text,
    poly_dxi,
)

from conftest import rand_frac, rand_nonzero, rand_poly


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
                       p.substitute({"y": rand_frac(rng)}), p.primitive(),
                       poly_dxi(e), poly_dxi(e, rand_frac(rng)),
                       *p.as_univariate("z").values()]
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
