import hashlib
import json
import math
import random
import sys
import types
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twbench import catalog, reducer, symcore
from twbench.model import DomainError, HyperbolicPDE, frac_str, parse_model
from twbench.reducer import (
    _compile,
    _newton_steps,
    _norms,
    _on_grids,
    _power,
    _product,
    _scan_rows,
    ClosedFormSolution,
    EmptyAnsatz,
    ExpAnsatz,
    MissingUnknown,
    PoleInWindow,
    PowerMismatch,
    AlgebraicSystem,
    Verdict,
    poles_of,
    reduce,
    residual_scan,
    sample_solution,
    solution_from_assignment,
    solve_numeric,
    verify_assignment,
)
from twbench.symcore import (
    E_NAME,
    ExpRational,
    ParamPoly,
    lowest_terms,
    parse_poly_text,
    poly_dxi,
    reduced_pair,
)

from conftest import by_power, coeff_list, scan_one, scan_outcome
from equiv import random_trial


REPO = Path(__file__).resolve().parent.parent
#: roots of telegraph_cubic at ansatz 1/1 with l1 = 1, l3 = -2, b0 = b1 = 1,
#: seed 7, 64 starts, each float as float.hex()
TELEGRAPH_ROOTS_SHA256 = "0bd45e06a5699ade7be76bee183a577dd75981a23b7329e85d6084b68021ed94"
#: verify_assignment on telegraph_cubic d/d, d = 1..4, p = 1, 2: status,
#: frac_str residuals and report of a PASS and a FAIL assignment per rung
LADDER_VERDICTS_SHA256 = "7f6f359f696b2db73db5c74a59dfbe1b2b13cec5369c89f1f43adc844d79f09a"

BURGERS = parse_model('{"tau":0,"A":2,"B":1,"kappa":1,"reaction":{}}')
BURGERS_ANSATZ = ExpAnsatz(a=("a0", "a1"), b=("b0", "b1"))
BURGERS_SHOCK = {"a0": F(0), "a1": F(1), "b0": F(1), "b1": F(1), "v": F(-1), "alpha": F(-1)}


class TestReduce:
    def test_single_mode_telegraph(self):
        pde = parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1"}}')
        system = reduce(pde, ExpAnsatz(a=(0, "a1"), b=("b0",)))
        assert len(system.equations) == 1
        # expected equation up to a nonzero monomial factor a1*b0^2*E
        expected = parse_poly_text("a1*b0^2") * parse_poly_text(
            "alpha^2*v^2 + alpha*v - alpha^2 - l1")
        eq = system.equations[0]
        assert eq * expected._leading_coeff() == expected * eq._leading_coeff()

    def test_burgers_solution_set(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        assert verify_assignment(system, BURGERS_SHOCK).passed

    def test_ivd_family_relations(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,'
                          '"reaction":{"1":"l1","3/2":"l32","2":"l2"}}')
        a0, a1 = ParamPoly.var("a0"), ParamPoly.var("a1")
        system = reduce(pde, ExpAnsatz(a=(0, 2, 0), b=(a0, 2 * a1, a0), power=2))
        rng = random.Random(5)
        for _ in range(5):
            vals = {"a0": F(rng.randint(1, 5)), "a1": F(rng.randint(-2, 2)),
                    "alpha": F(rng.randint(1, 3), 2), "v": F(rng.randint(1, 4))}
            h = vals["alpha"] * (vals["v"] ** 2 - 1)
            assignment = dict(vals)
            assignment["l1"] = 4 * vals["alpha"] * h
            assignment["l32"] = -10 * vals["a1"] * vals["alpha"] * h
            assignment["l2"] = (6 * vals["a1"] ** 2 - 6 * vals["a0"] ** 2) * vals["alpha"] * h
            assert verify_assignment(system, assignment).passed

    def test_power_mismatch(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1/2":"lh"}}')
        with pytest.raises(PowerMismatch):
            reduce(pde, ExpAnsatz(a=("a0",), b=("b0",), power=1))

    def test_empty_ansatz(self):
        with pytest.raises(EmptyAnsatz):
            ExpAnsatz(a=(), b=("b0",))
        with pytest.raises(EmptyAnsatz):
            ExpAnsatz(a=(0, 0), b=("b0",))
        with pytest.raises(EmptyAnsatz):
            ExpAnsatz(a=("a0",), b=(0,))

    def test_symbol_collision_with_model(self):
        pde = parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"a1"}}')
        with pytest.raises(ValueError):
            reduce(pde, ExpAnsatz(a=(0, "a1"), b=("b0",)))

    def test_constant_ansatz_collapses_to_reaction_root(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,'
                          '"reaction":{"0":-8,"3":1}}')  # f(u) = u^3 - 8
        system = reduce(pde, ExpAnsatz(a=("a0",), b=("b0",)))
        assert verify_assignment(system, {"a0": F(4), "b0": F(2), "alpha": F(1),
                                          "v": F(2)}).passed  # u = 2, f(2) = 0
        assert not verify_assignment(system, {"a0": F(2), "b0": F(2), "alpha": F(1),
                                              "v": F(2)}).passed

    def test_constant_by_gauge_solution_any_alpha(self):
        # a = c*b makes w constant regardless of alpha; PASS iff f(c^p) = 0
        pde = parse_model('{"tau":1,"A":1,"B":1,"kappa":1,"reaction":{"0":-9,"2":1}}')
        system = reduce(pde, BURGERS_ANSATZ.__class__(a=("a0", "a1"), b=("b0", "b1")))
        theta = {"a0": F(3), "a1": F(6), "b0": F(1), "b1": F(2),
                 "alpha": F(5, 7), "v": F(-2)}
        assert verify_assignment(system, theta).passed  # w = 3, f(3) = 0


def _reference_reduce(pde, ansatz):
    """``reduce`` as it was written before it cached its per-ansatz work: all
    of its algebra on ``ParamPoly``, once per call."""
    p = ansatz.power
    E = ParamPoly.var(E_NAME)
    f, g = (sum((ParamPoly.lift(c) * E**k for k, c in enumerate(side)), ParamPoly.const(0))
            for side in (ansatz.a, ansatz.b))
    alpha = "alpha"
    v = ParamPoly.var("v")
    N0 = f**p
    N1 = poly_dxi(N0, alpha) * g - p * N0 * poly_dxi(g, alpha)
    N2 = poly_dxi(N1, alpha) * g - (p + 1) * N1 * poly_dxi(g, alpha)
    terms = []
    if pde.tau:
        terms.append((ParamPoly.const(pde.tau) * v * v * N2, p + 2))
    if pde.A:
        terms.append((ParamPoly.const(pde.A) * N0 * N1, 2 * p + 1))
    if pde.B:
        terms.append((ParamPoly.const(pde.B) * v * N1, p + 1))
    if pde.kappa:
        terms.append((ParamPoly.const(-pde.kappa) * N2, p + 2))
    for nu, lam in sorted(pde.reaction.items()):
        e = int(nu * p)
        terms.append((ParamPoly.const(-1) * ParamPoly.lift(lam) * f**e, e))
    terms = [(num, k) for num, k in terms if not num.is_zero()]
    residual = ParamPoly.const(0)
    if terms:
        K = max(k for _, k in terms)
        for num, k in terms:
            residual = residual + num * g ** (K - k)
    buckets = by_power(residual, E_NAME)
    equations = []
    for eq in buckets.values():
        # the rational content divided out, the graded-lex leading term positive
        coeffs = eq.terms.values()
        content = F(math.gcd(*(c.numerator for c in coeffs)),
                    math.lcm(*(c.denominator for c in coeffs)))
        if eq.terms[max(eq.terms, key=lambda e: (sum(e), e))] < 0:
            content = -content
        equations.append(ParamPoly._make(eq.variables,
                                         {e: c / content for e, c in eq.terms.items()}))
    return AlgebraicSystem(ansatz.symbols(), tuple(equations), tuple(buckets), pde.symbols())


def _assert_same_system(got, want):
    """Equal down to each equation's variables and its terms' order, which
    the Newton evaluator sums in."""
    assert (got.unknowns, got.parameters, got.provenance) == (
        want.unknowns, want.parameters, want.provenance)
    assert len(got.equations) == len(want.equations)
    for a, b in zip(got.equations, want.equations):
        assert a.variables == b.variables
        assert list(a.terms.items()) == list(b.terms.items())
        assert all(type(c) is F for c in a.terms.values())


_A1, _B0 = ParamPoly.var("a1"), ParamPoly.var("b0")
_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_SLOTS = (st.sampled_from(("a0", "a1", "b0", "b1", 2 * _A1, -_A1**3, _A1 + 3 * _B0))
          | _RATIONALS)


@st.composite
def _pdes(draw, power):
    """A PDE with zero or nonzero tau, A, B, kappa and a subset of the
    reaction terms, each coefficient rational (maybe 0) or a symbol."""
    linear = draw(st.lists(st.sampled_from((F(0), F(1), F(2), F(1, 3), F(5, 2))),
                           min_size=4, max_size=4).filter(any))
    pool = ("0", "1/2", "1", "3/2", "2", "3") if power == 2 else ("0", "1", "2", "3")
    exponents = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
    lams = st.sampled_from(("l1", "l3", "mu")) | _RATIONALS
    reaction = {F(nu): draw(lams) for nu in exponents}
    return HyperbolicPDE(*linear, reaction=reaction)


@st.composite
def _reductions(draw):
    """One ansatz and the PDEs it is reduced against."""
    power = draw(st.sampled_from((1, 2)))
    ansatz = ExpAnsatz(a=tuple(draw(st.lists(_SLOTS, min_size=1, max_size=3).filter(any))),
                       b=tuple(draw(st.lists(_SLOTS, min_size=1, max_size=3).filter(any))),
                       power=power)
    return ansatz, draw(st.lists(_pdes(power), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None, database=None)
@given(_reductions())
@example((ExpAnsatz(a=("a0",), b=("b0",)),  # N1 = 0: only the reaction terms are left
          [parse_model('{"tau":1,"A":1,"B":1,"kappa":1,"reaction":{"0":-8,"3":1}}')]))
@example((ExpAnsatz(a=("a0", "a1"), b=("b0", "b1"), power=2),  # one shape, several zero patterns
          [parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1/2":"l1","2":3}}'),
           parse_model('{"tau":0,"A":2,"B":1,"kappa":0,"reaction":{"1/2":0,"3":"l3"}}'),
           parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1/2":"l1","2":3}}')]))
@example((ExpAnsatz(a=("a0", ParamPoly.var("a1") ** 70000), b=("b0", "b1"),
                    power=2),  # exponents up to 420 000, past a 16-bit packed field
          [parse_model((REPO / "models" / "telegraph_cubic.json").read_text())]))
@example((ExpAnsatz(a=(1, F(2, 3)), b=(F(1, 3), 5)),  # numeric slots: only alpha, v unknown
          [parse_model('{"tau":1,"A":1,"B":1,"kappa":1,"reaction":{"0":-8,"3":1}}')]))
def test_reduce_matches_reference(case):
    ansatz, pdes = case
    memo: dict = {}
    for pde in pdes:
        _assert_same_system(reduce(pde, ansatz, memo), _reference_reduce(pde, ansatz))


def test_catalog_sweep_reductions_match_reference(monkeypatch):
    calls = []

    def recorded(pde, ansatz, memo=None):
        calls.append((pde, ansatz, reduce(pde, ansatz, memo)))
        return calls[-1][2]

    monkeypatch.setattr(catalog, "reduce", recorded)
    for family_id in catalog.FAMILIES:
        catalog.verify_entry(family_id, trials=5, seed=1)
    assert len(calls) == 101
    for pde, ansatz, system in calls:
        _assert_same_system(system, _reference_reduce(pde, ansatz))


def test_reduce_refuses_an_exponent_past_64_bit_fields():
    with pytest.raises(DomainError):
        reduce(BURGERS, ExpAnsatz(a=(ParamPoly.var("a1") ** 2**62,), b=("b0",)))


def test_reduce_refuses_an_ansatz_past_the_product_budget(monkeypatch):
    # 401 numerator and 2 denominator terms at K = 3: C(405, 3) terms at most
    def product(*_):
        raise AssertionError("a product was built")

    monkeypatch.setattr(reducer, "_mul", product)
    ansatz = ExpAnsatz(a=tuple(f"a{i}" for i in range(401)), b=("b0", "b1"))
    with pytest.raises(DomainError, match="products of 10989810 terms, over the limit of 100000"):
        reduce(BURGERS, ansatz)


def test_reduce_refuses_an_oversize_ansatz_before_walking_its_symbols(monkeypatch):
    # the ansatz of `reduce --ansatz 1000000/1`: the budget refuses it before
    # the symbol-clash check collects its million names
    def symbols(*_):
        raise AssertionError("the ansatz symbols were walked")

    ansatz = ExpAnsatz(a=tuple(f"a{i}" for i in range(1_000_001)), b=("b0", "b1"))
    monkeypatch.setattr(ExpAnsatz, "symbols", symbols)
    with pytest.raises(DomainError, match="over the limit of 100000"):
        reduce(BURGERS, ansatz)


def test_reduce_takes_no_param_poly_arithmetic(monkeypatch):
    # reduce has one path, on packed integer monomials: with every ParamPoly
    # operation refused it still gives the ladder's golden systems, term for
    # term, and a catalog ansatz whose slots are ParamPolys
    telegraph = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
    cases = [(f"telegraph_cubic.{d}-{d}.p{p}", telegraph,
              ExpAnsatz(a=tuple(f"a{i}" for i in range(d + 1)),
                        b=tuple(f"b{i}" for i in range(d + 1)), power=p))
             for p in (1, 2) for d in (1, 2, 3, 4)]
    family = catalog.FAMILIES["IVb"]
    instance = next(iter(family.instances(family.draw(random.Random(1)))))
    assert any(isinstance(c, ParamPoly) and len(c.terms) > 1 for c in instance.ansatz.b)
    cases.append((None, instance.pde, instance.ansatz))
    want = [_reference_reduce(pde, ansatz) for _, pde, ansatz in cases]
    golden = json.loads((REPO / "perfbench" / "golden.json").read_text())["reduce"]

    def refused(*args):
        raise AssertionError("reduce took ParamPoly arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "__pow__"):
        monkeypatch.setattr(ParamPoly, name, refused)
    monkeypatch.setattr(symcore, "poly_dxi", refused)
    for (key, pde, ansatz), reference in zip(cases, want):
        system = reduce(pde, ansatz)
        _assert_same_system(system, reference)
        if key is not None:
            assert hashlib.sha256(system.to_json().encode()).hexdigest() == golden[key]


class TestVerifyAssignment:
    def test_sign_flip_breaks_balance(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        bad = dict(BURGERS_SHOCK)
        bad["v"] = F(1)
        verdict = verify_assignment(system, bad)
        assert not verdict.passed
        assert any(r != 0 for r in verdict.residuals)
        assert "E^" in verdict.report

    def test_missing_unknown(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        with pytest.raises(MissingUnknown):
            verify_assignment(system, {"a0": F(0)})

    def test_floats_rejected(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        theta = dict(BURGERS_SHOCK)
        theta["v"] = -1.0
        with pytest.raises(TypeError):
            verify_assignment(system, theta)

    def test_gauge_covariance_scaling(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        rng = random.Random(31)
        for _ in range(20):
            scale = F(rng.randint(1, 9), rng.randint(1, 5))
            scaled = {k: (v * scale if k in ("a0", "a1", "b0", "b1") else v)
                      for k, v in BURGERS_SHOCK.items()}
            assert verify_assignment(system, scaled).passed
            bad = dict(scaled)
            bad["v"] = F(1)
            assert not verify_assignment(system, bad).passed

    def test_ladder_verdicts_byte_identical(self):
        # every rung's PASS verdict and its perturbed FAIL verdict, residuals
        # as frac_str: the exact kernel must keep each Fraction
        pde = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
        lines = []
        for p in (1, 2):
            for d in (1, 2, 3, 4):
                system = reduce(pde, ExpAnsatz(a=tuple(f"a{i}" for i in range(d + 1)),
                                               b=tuple(f"b{i}" for i in range(d + 1)),
                                               power=p))
                passing = _ladder_solution(d, p)
                failing = dict(passing, a1=passing["a1"] + F(2, 7))
                for want, values in (("PASS", passing), ("FAIL", failing)):
                    verdict = verify_assignment(system, values)
                    assert verdict.status == want, (d, p)
                    residuals = ",".join(frac_str(r) for r in verdict.residuals)
                    lines.append(f"{d}/{d} p{p} {verdict.status} {residuals} {verdict.report}")
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == LADDER_VERDICTS_SHA256


def _poly_times(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for k, y in enumerate(g):
            out[i + k] += x * y
    return out


def _ladder_solution(d, p):
    """A rational root of telegraph_cubic at ansatz d/d, power p, times a
    common factor c(E): with v = 0 the model reads -u'' = l1*u + l3*u^3, solved
    by the kink amp*tanh(k*xi) (d = 1) and the soliton amp*sech(k*xi) (d >= 2);
    at p = 2, w = s*c(E)/c(E) squares to a constant root, alpha and v free."""
    k, amp = F(3, 2), F(-2, 5)
    if p == 1 and d == 1:
        num, den = [-amp, amp], [F(1), F(1)]
        values = {"alpha": 2 * k, "v": F(0), "l1": 2 * k * k, "l3": -2 * k * k / amp**2}
    elif p == 1:
        num, den = [F(0), 2 * amp], [F(1), F(0), F(1)]
        values = {"alpha": k, "v": F(0), "l1": -k * k, "l3": 2 * k * k / amp**2}
    else:
        l3 = F(-5, 3)
        num, den = [amp], [F(1)]
        values = {"alpha": k, "v": F(-4, 9), "l1": -l3 * amp**4, "l3": l3}
    pad = [F(7, 4), F(-1, 3), F(5, 6), F(-2), F(3, 11)][:d + 2 - len(den)]
    a = _poly_times(num, pad)
    a += [F(0)] * (d + 1 - len(a))
    values.update({f"a{i}": c for i, c in enumerate(a)})
    values.update({f"b{i}": c for i, c in enumerate(_poly_times(den, pad))})
    return values


class TestSolveNumeric:
    def test_burgers_shock_found(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        solutions = solve_numeric(system, fixed={"a0": 0, "a1": 1, "b0": 1, "b1": 1},
                                  seed=7, starts=64)
        assert any(abs(s["v"] + 1) < 1e-9 and abs(s["alpha"] + 1) < 1e-9
                   for s in solutions)

    def test_telegraph_quadratic_roots(self):
        pde = parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1"}}')
        system = reduce(pde, ExpAnsatz(a=(0, "a1"), b=("b0",)))
        solutions = solve_numeric(system, fixed={"a1": 1, "b0": 1, "l1": 1, "v": 2},
                                  seed=1, starts=24)
        alphas = sorted(s["alpha"] for s in solutions)
        assert len(alphas) == 2
        assert abs(alphas[0] + 1) < 1e-10 and abs(alphas[1] - 1 / 3) < 1e-10

    def test_infeasible_system_reports_no_convergence(self):
        # force Delta = 0 with incompatible fixed ratios: a1*b0 - a0*b1 = 0 fails
        eq = parse_poly_text("x^2 + 1")
        system = AlgebraicSystem(unknowns=("x",), equations=(eq,), provenance=(0,))
        assert solve_numeric(system, seed=3, starts=16) == []

    def test_deterministic_given_seed(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        first = solve_numeric(system, fixed={"a0": 0, "a1": 1, "b0": 1, "b1": 1},
                              seed=11, starts=32)
        second = solve_numeric(system, fixed={"a0": 0, "a1": 1, "b0": 1, "b1": 1},
                               seed=11, starts=32)
        assert first == second

    def test_every_unknown_pinned(self):
        system = reduce(BURGERS, BURGERS_ANSATZ)
        assert solve_numeric(system, fixed=BURGERS_SHOCK, starts=1) == [{}]
        assert solve_numeric(system, fixed=dict(BURGERS_SHOCK, v=1), starts=1) == []

    def test_telegraph_roots_bit_for_bit(self):
        # reduce -> solve_numeric in process, with no JSON between them: the
        # Newton evaluator sums each equation's terms in reduce's term order,
        # so these bits pin that order too
        pde = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
        system = reduce(pde, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")))
        roots = solve_numeric(system, fixed={"l1": 1, "l3": -2, "b0": 1, "b1": 1},
                              seed=7, starts=64)
        text = "\n".join(",".join(f"{k}={x.hex()}" for k, x in r.items()) for r in roots)
        assert len(roots) == 28
        assert hashlib.sha256(text.encode()).hexdigest() == TELEGRAPH_ROOTS_SHA256

    def test_line_search_batches_the_halvings(self, monkeypatch):
        # nine of these 64 starts never converge, and their steps take up to
        # 24 halvings each to round 80; one F call a halving made 1 890 calls
        # of 16 190 points
        calls = []  # per evaluator _compile made: the points of each call

        def counted(*args):
            evaluate = compile_(*args)
            calls.append([])

            def wrapped(x, points=calls[-1]):
                points.append(len(np.atleast_2d(x)))
                return evaluate(x)
            return wrapped

        compile_ = reducer._compile
        monkeypatch.setattr(reducer, "_compile", counted)
        stacks = []  # the starts of each _newton_steps call; lstsq a start made 1 341 calls

        def steps(J, F):
            stacks.append(len(J))
            return newton_steps(J, F)

        newton_steps = reducer._newton_steps
        monkeypatch.setattr(reducer, "_newton_steps", steps)
        pde = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
        system = reduce(pde, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")))
        roots = solve_numeric(system, fixed={"l1": 1, "l3": -2, "b0": 1, "b1": 1},
                              seed=7, starts=64)
        assert len(roots) == 28
        f, jacobian = calls
        assert len(jacobian) == 80  # one call a round
        assert len(stacks) == 80 and stacks[0] == 64  # one call a round, every start
        assert len(f) <= 250
        assert sum(f) <= 17000

    def test_start_ends_when_lapack_fails(self, monkeypatch):
        # the one start finds the shock unless its first step is a LAPACK failure
        system = reduce(BURGERS, BURGERS_ANSATZ)
        fixed = {"a0": 0, "a1": 1, "b0": 1, "b1": 1}
        assert solve_numeric(system, fixed=fixed, seed=7, starts=1)
        stacks = []

        def failed(J, F):
            stacks.append(len(J))
            return np.full((len(J), J.shape[2]), np.nan)

        monkeypatch.setattr(reducer, "_newton_steps", failed)
        assert solve_numeric(system, fixed=fixed, seed=7, starts=1) == []
        assert stacks == [1]

    def test_newton_never_evaluates_exactly(self, monkeypatch):
        def exact(*args):
            raise AssertionError("ParamPoly.evaluate on the Newton path")

        system = reduce(BURGERS, BURGERS_ANSATZ)
        monkeypatch.setattr(ParamPoly, "evaluate", exact)
        assert solve_numeric(system, fixed={"a0": 0, "a1": 1, "b0": 1, "b1": 1},
                             seed=7, starts=8)


def _reference_solve(system, fixed, seed, starts):
    """solve_numeric as a loop over the starts, one Newton run at a time,
    each on single points; the batched solver must take the same float
    operations on every start."""
    fixed = {k: F(v) for k, v in fixed.items()}
    equations = [eq.substitute(fixed) for eq in system.equations]
    unknowns = [u for u in system.all_symbols() if u not in fixed]
    live = [eq for eq in equations if not eq.is_zero()]
    f_at = _compile(live, unknowns)
    jacobian = _compile([eq.diff(u) for eq in live for u in unknowns], unknowns)
    found = []
    for k in range(starts):
        rng = np.random.default_rng((int(seed), k))
        x = rng.uniform(-3.0, 3.0, size=len(unknowns))
        fx = f_at(x)
        for _ in range(80):
            if np.max(np.abs(fx)) < 1e-12:
                break
            J = jacobian(x).reshape(len(live), len(unknowns))
            if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(J))):
                break
            try:
                step = np.linalg.lstsq(J, -fx, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            lam, accepted = 1.0, False
            base = float(np.linalg.norm(fx))
            for _ in range(30):
                xn = x + lam * step
                fn = f_at(xn)
                if np.all(np.isfinite(fn)) and float(np.linalg.norm(fn)) < base:
                    x, fx, accepted = xn, fn, True
                    break
                lam *= 0.5
            if not accepted:
                break
        if np.max(np.abs(fx)) < 1e-12 and np.all(np.isfinite(x)):
            if all(np.max(np.abs(x - y)) > 1e-8 for y in found):
                found.append(x)
    found.sort(key=lambda x: tuple(x))
    return [dict(zip(unknowns, map(float, x))) for x in found]


_SOLVE_CASES = {
    **{f"telegraph-1/1-seed{seed}": ("telegraph", {"l1": 1, "l3": -2, "b0": 1, "b1": 1}, seed, 64)
       for seed in range(1, 9)},
    "burgers-seed7": ("burgers", {"a0": 0, "a1": 1, "b0": 1, "b1": 1}, 7, 64),
    "burgers-seed11": ("burgers", {"a0": 0, "a1": 1, "b0": 1, "b1": 1}, 11, 32),
    "telegraph-quadratic": ("quadratic", {"a1": 1, "b0": 1, "l1": 1, "v": 2}, 1, 24),
    "x^700 - 2": ("x^700 - 2", {}, 3, 16),  # starts overflow: F is not finite
    "x^2 + 1": ("x^2 + 1", {}, 3, 16),  # no root
    "x^4300*y - 1": ("x^4300*y - 1", {"x": F(101, 100)}, 5, 8),  # J has no variables
    "starts=1": ("burgers", {"a0": 0, "a1": 1, "b0": 1, "b1": 1}, 7, 1),
    # starts whose steps take 8 or more halvings round after round: for all
    # 80 rounds without a root, or, at 2/2 seeds 92 and 142, for 54 and 39
    # rounds before one start escapes to converge
    **{f"telegraph-1/1-32-seed{seed}": ("telegraph", {"l1": 1, "l3": -2, "b0": 1, "b1": 1},
                                        seed, 32)
       for seed in range(1, 9)},
    **{f"telegraph-2/2-seed{seed}": ("telegraph-2/2", {"l1": 1, "l3": -2, "b0": 1, "b1": 1},
                                     seed, 8)
       for seed in range(1, 5)},
    **{f"telegraph-2/2-32-seed{seed}": ("telegraph-2/2", {"l1": 1, "l3": -2, "b0": 1, "b1": 1},
                                        seed, 32)
       for seed in (92, 142)},
}


@pytest.mark.parametrize("case", list(_SOLVE_CASES))
def test_batched_solve_matches_reference(case):
    source, fixed, seed, starts = _SOLVE_CASES[case]
    if source == "telegraph":
        pde = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
        system = reduce(pde, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")))
    elif source == "telegraph-2/2":
        pde = parse_model((REPO / "models" / "telegraph_cubic.json").read_text())
        system = reduce(pde, ExpAnsatz(a=("a0", "a1", "a2"), b=("b0", "b1", "b2")))
    elif source == "burgers":
        system = reduce(BURGERS, BURGERS_ANSATZ)
    elif source == "quadratic":
        pde = parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1"}}')
        system = reduce(pde, ExpAnsatz(a=(0, "a1"), b=("b0",)))
    else:
        eq = parse_poly_text(source)
        system = AlgebraicSystem(unknowns=eq.variables, equations=(eq,), provenance=(0,))
    with np.errstate(all="ignore"):
        expected = _reference_solve(system, fixed, seed, starts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = solve_numeric(system, fixed=fixed, seed=seed, starts=starts)
    assert [{k: x.hex() for k, x in r.items()} for r in roots] == \
        [{k: x.hex() for k, x in r.items()} for r in expected]


def _stacks():
    """(S, m, n) stacks of Jacobians and residuals: square, tall, wide,
    rank-deficient, all-zero, nearly singular, and values across the float
    range."""
    rng = np.random.default_rng(20261019)
    for m, n in [(1, 1), (3, 3), (6, 4), (5, 2), (2, 5), (4, 7), (12, 12)]:
        for scale in (1e-150, 1e-3, 1.0, 1e6, 1e150):
            J = rng.standard_normal((9, m, n)) * scale
            F = rng.standard_normal((9, m)) * scale
            J[1] = 0.0  # all zero
            J[2, :, -1] = J[2, :, 0]  # a repeated column
            low = rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))
            J[3] = low * scale  # rank one
            J[4] = np.round(J[4] / scale) * scale  # small integers: ties in the SVD
            F[5] = 0.0
            k = min(m, n)
            if k > 1:  # a singular value just above lstsq's cut-off, eps*max(m, n)
                U = np.linalg.qr(rng.standard_normal((m, k)))[0]
                V = np.linalg.qr(rng.standard_normal((n, k)))[0]
                sigma = np.ones(k)
                sigma[-1] = 2.5 * np.finfo(float).eps * max(m, n)
                J[6] = (U * sigma) @ V.T * scale
            yield J, F


def _lstsq_loop(J, F):
    with np.errstate(all="ignore"):
        return np.array([np.linalg.lstsq(Ji, -Fi, rcond=None)[0] for Ji, Fi in zip(J, F)])


# numpy.linalg._umath_linalg as _newton_steps finds it: the numpy module, one
# without lstsq, one whose lstsq has no float64 loop, and none at all
_GUFUNC_MODULES = {
    "gufunc": np.linalg._umath_linalg,
    "no-lstsq": types.SimpleNamespace(),
    "no-float64-loop": types.SimpleNamespace(lstsq=np.add),
    "no-module": None,
}


@pytest.fixture(params=list(_GUFUNC_MODULES))
def lstsq_calls(request, monkeypatch):
    """Take _newton_steps's gufunc or its fallback; count np.linalg.lstsq calls."""
    # np.linalg.lstsq keeps the real module, imported into numpy.linalg._linalg
    if _GUFUNC_MODULES[request.param] is None:
        monkeypatch.delattr(np.linalg, "_umath_linalg")
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)  # ImportError
    else:
        monkeypatch.setattr(np.linalg, "_umath_linalg", _GUFUNC_MODULES[request.param])
    calls, lstsq = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return request.param, calls


def test_newton_steps_match_lstsq(lstsq_calls):
    path, calls = lstsq_calls
    for J, F in _stacks():
        expected = _lstsq_loop(J, F)
        del calls[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _newton_steps(J, F)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), J.shape
        assert len(calls) == (0 if path == "gufunc" else len(J))


def test_installed_numpy_takes_the_gufunc(monkeypatch):
    # without _umath_linalg.lstsq's ddd->ddid loop every Newton round of
    # solve_numeric would loop np.linalg.lstsq over its starts
    def lstsq(*_, **__):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    rng = np.random.default_rng(3)
    assert _newton_steps(rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3))).shape \
        == (4, 2)


def test_installed_numpy_takes_libm_pow():
    # _compile's power table is np.float_power because its only float64
    # loop is libm's pow of one element, which Python's ** also takes; a
    # vectorised loop would round differently, as np.power's does on AVX-512
    # (about 1 square in 1000 in [-3, 3], 3% of cubes), and Newton's roots
    # would lose their bits
    def python_pow(v: float, e: int) -> float:
        try:
            return v ** e
        except OverflowError:  # numpy's scalar power is the same libm pow
            return float(np.float64(v) ** e)

    rng = np.random.default_rng(30)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e154, -1e154,
               1.7976931348623157e308, -1.7976931348623157e308]
    wide = rng.choice((-1.0, 1.0), 10_000) * 10.0 ** rng.uniform(-320.0, 308.0, 10_000)
    x = np.concatenate([special, rng.uniform(-3.0, 3.0, 20_000), wide])
    with np.errstate(all="ignore"):
        for e in range(1, 41):
            expected = np.array([python_pow(v, e) for v in x.tolist()])
            assert np.float_power(x, float(e)).tobytes() == expected.tobytes(), e
            # Python returns a NaN base as it is; libm's pow, like numpy's
            # scalar power, which ParamPoly.evaluate takes on np.float64,
            # clears the sign of -nan at an odd e
            assert np.float_power(-math.nan, float(e)).tobytes() \
                == (np.float64(-math.nan) ** e).tobytes(), e


def test_scan_powers_are_python_multiplication():
    # the scan's reaction terms w**e are products, correctly rounded as
    # Python's float * is, so they keep their bits on every host; numpy's
    # w ** 3 is a vectorised pow that rounds differently on AVX-512
    def python_powers(v: float) -> dict[int, float]:
        v2 = v * v
        return {0: 1.0, 1: v, 2: v2, 3: v2 * v, 4: v2 * v2, 6: v2 * v2 * v2}

    rng = np.random.default_rng(32)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 1e-160, 1e51, -1e77, 1e103, -1e154,
               1.7976931348623157e308, -1.7976931348623157e308]
    x = np.concatenate([special, rng.uniform(-3.0, 3.0, 20_000)])
    expected = [python_powers(v) for v in x.tolist()]
    exponents = (0, 1, 2, 3, 4, 6)
    with np.errstate(all="ignore"):
        together = reducer._powers(x, exponents)
        for e in exponents:
            want = np.array([p[e] for p in expected]).tobytes()
            assert together[e].tobytes() == want, e
            assert reducer._powers(x, (e,))[e].tobytes() == want, e


def test_exp_grid_is_python_pow_of_e():
    # the scan's E grid is libm's pow(e, x) a point at a time, as Python's
    # math.e ** x is, over the whole float range of E: it underflows to 0
    # below about -745 and overflows to inf (t = 1/E = 0) above about 709.8
    def python_pow(x: float) -> float:
        try:
            return math.e ** x
        except OverflowError:
            return math.inf

    rng = np.random.default_rng(32)
    x = np.concatenate([np.linspace(-750.0, 710.0, 146_001), rng.uniform(-750.0, 710.0, 20_000),
                        [-745.2, -745.1, -708.4, 709.7, 709.8, -0.0, 0.0, 1e-300]])
    got = reducer._exp_grid(x)
    assert got.tobytes() == np.array([python_pow(v) for v in x.tolist()]).tobytes()
    assert (got == 0.0).any() and np.isinf(got).any() and not (1.0 / got[np.isinf(got)]).any()


def test_newton_steps_of_an_empty_stack(lstsq_calls):
    assert _newton_steps(np.empty((0, 3, 2)), np.empty((0, 3))).shape == (0, 2)


def test_failed_element_is_a_nan_row(lstsq_calls, capfd):
    # LAPACK fails on a matrix of NaN, where lstsq raises; the neighbours of
    # that element keep their steps
    rng = np.random.default_rng(7)
    J, F = rng.standard_normal((3, 4, 3)), rng.standard_normal((3, 4))
    J[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(J[1], -F[1], rcond=None)
    got = _newton_steps(J, F)
    assert np.isnan(got[1]).all()
    assert got[[0, 2]].tobytes() == _lstsq_loop(J[[0, 2]], F[[0, 2]]).tobytes()
    capfd.readouterr()  # LAPACK's complaint about the matrix, on stdout


def test_row_norms_match_linalg_norm():
    # _norms is the line search's 2-norm, batched; its bits decide acceptance
    rng = np.random.default_rng(20261019)
    for n in range(1, 41):
        for scale in (1e-160, 1e-3, 1.0, 1e5, 1e150, 1e160):
            rows = rng.standard_normal((25, n)) * scale * rng.uniform(0.5, 2.0, size=(25, 1))
            with np.errstate(over="ignore", under="ignore"):
                expected = np.array([np.linalg.norm(row) for row in rows])
                got = _norms(rows)
            assert got.tobytes() == expected.tobytes(), (n, scale)


_NAMES = ("a", "b", "m", "q", "z")
# rationals of magnitude 1e-30 to 1e30; many of a similar size, so that
# the order of the additions shows in the last bit
_COEFFICIENTS = st.builds(lambda sign, n, d, k: sign * F(n, d) * F(10) ** k,
                          st.sampled_from((1, -1)), st.integers(1, 999), st.integers(1, 999),
                          st.integers(-27, 27) | st.integers(-1, 1))
# up to 1e40 in magnitude, so that powers up to 12 overflow to inf; and the
# overflowed and subnormal coordinates a line search can try
_COORDINATES = (st.floats(-1e40, 1e40) | st.floats(-3, 3)
                | st.sampled_from((0.0, -0.0, 1e40, -1e40, 1e-40, 5e-324, -5e-324, math.inf,
                                   -math.inf)))
# where two NaNs meet, which one an operation returns is the CPU's choice, so
# a NaN coordinate is compared with ParamPoly.evaluate only in @examples
# with one NaN; a stack is compared with its points
_NAN_COORDINATES = _COORDINATES | st.sampled_from((math.nan, -math.nan))


def _poly(names):
    exponents = st.tuples(*(st.integers(0, 12) for _ in names))
    size = st.integers(0, min(12, 13 ** len(names)))  # up to 12 terms, evenly
    return size.flatmap(lambda n: st.dictionaries(exponents, _COEFFICIENTS, min_size=n,
                                                  max_size=n)).map(
        lambda terms: ParamPoly(names, terms))


@st.composite
def _compiled_cases(draw, coordinates=_COORDINATES):
    """Polynomials in a shuffled list of unknowns, and a point."""
    unknowns = draw(st.permutations(_NAMES))[:draw(st.integers(1, len(_NAMES)))]
    names = st.lists(st.sampled_from(unknowns), unique=True)
    polys = draw(st.lists(names.flatmap(_poly), min_size=1, max_size=4))
    point = draw(st.lists(coordinates, min_size=len(unknowns), max_size=len(unknowns)))
    return polys, unknowns, np.array(point)


@settings(max_examples=300, deadline=None, database=None)
@given(_compiled_cases())
# eight terms, whose pairwise sum (np.sum) differs in the last bit
@example(([parse_poly_text("-1/3*x^7 + 2/3*x^6 - x^5 + 2/3*x^4 - 7/6*x^3 + 1/2*x^2 "
                           "+ 8/3*x - 6/5")], ("x",), np.array([0.7])))
# libm's pow, as numpy's scalar power, clears the sign of -nan at odd powers
@example(([parse_poly_text("x^3*y^2 - 2*y + 1/7")], ("x", "y"), np.array([-math.nan, 0.5])))
@example(([parse_poly_text("y^2 - x^5*y + 3")], ("x", "y"), np.array([-math.nan, -2.0])))
# a power that overflows, and a subnormal coordinate
@example(([parse_poly_text("x^5 - 3*x^2*y + 1/7")], ("x", "y"), np.array([math.inf, 5e-324])))
def test_compiled_matches_evaluate_bit_for_bit(case):
    polys, unknowns, x = case
    with np.errstate(all="ignore"):
        expected = np.array([float(p.evaluate(dict(zip(unknowns, x)))) for p in polys])
        assert _compile(polys, unknowns)(x).tobytes() == expected.tobytes()


@st.composite
def _stacked_cases(draw):
    """Polynomials as in _compiled_cases, one of them perhaps without
    variables, and a stack of 1 to 4 points, NaN coordinates among them."""
    polys, unknowns, point = draw(_compiled_cases(_NAN_COORDINATES))
    if draw(st.booleans()):
        polys.insert(draw(st.integers(0, len(polys))), ParamPoly((), {(): draw(_COEFFICIENTS)}))
    points = [point] + draw(st.lists(st.lists(_NAN_COORDINATES, min_size=len(unknowns),
                                              max_size=len(unknowns)), max_size=3))
    return polys, unknowns, np.array(points)


@settings(max_examples=200, deadline=None, database=None)
@given(_stacked_cases())
# powers of 1e40 overflow to inf, and a constant has no variable to stack
@example(([parse_poly_text("x^12*y - 3*y^2 + 1/7"), parse_poly_text("5/3")], ("x", "y"),
          np.array([[1e40, -2.5], [0.5, 1e40], [-1e40, -1e40]])))
@example(([parse_poly_text("2/3*x^2 - x")], ("x",), np.array([[0.7]])))
@example(([parse_poly_text("x^3*y - y^2"), parse_poly_text("2*x - 1/3")], ("x", "y"),
          np.array([[math.inf, -math.inf], [math.nan, 5e-324], [-math.nan, 2.0], [-5e-324, 0.5]])))
@example(([parse_poly_text("5/3"), parse_poly_text("-2")], ("x",), np.array([[1.0], [-3.0]])))
def test_compiled_stack_matches_single_points(case):
    polys, unknowns, points = case
    evaluate = _compile(polys, unknowns)
    with np.errstate(all="ignore"):
        stacked = evaluate(points)
        assert stacked.shape == (len(points), len(polys))
        for row, point in zip(stacked, points):
            assert row.tobytes() == evaluate(point).tobytes()


def test_compiled_stack_in_passes():
    # 8 terms a point, so a pass holds 2**17 points; this stack takes three
    # passes, and only the last one has a power that overflows
    polys = [parse_poly_text("x^3*y - 2/3*y^2 + 1/7"), parse_poly_text("5/3*x - y^3")]
    evaluate = _compile(polys, ["x", "y"])
    chunk = 1 << 17
    points = np.random.default_rng(5).uniform(-3.0, 3.0, size=(2 * chunk + 7, 2))
    points[-3] = (1e40, -1e40)
    with np.errstate(all="ignore"):
        stacked = evaluate(points)
        pieces = np.concatenate([evaluate(points[at:at + 1000])
                                 for at in range(0, len(points), 1000)])
        assert stacked.tobytes() == pieces.tobytes()
        for k in (0, chunk - 1, chunk, 2 * chunk, len(points) - 3, len(points) - 1):
            assert stacked[k].tobytes() == evaluate(points[k]).tobytes()


class TestResidualScan:
    def test_ive_a_paper_instance(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1":1,"3":-2}}')
        # u = sech(xi/sqrt(3)): H = 3, amplitude 1
        k = 1 / math.sqrt(3.0)
        sol = ClosedFormSolution((0, 2), (1, 0, 1), alpha=k, velocity=2.0)
        assert scan_one(pde, sol, (-10, 10), 1001) < 1e-10

    def test_zero_solution(self):
        pde = parse_model('{"tau":1,"A":1,"B":1,"kappa":1,"reaction":{"1":3}}')
        sol = ClosedFormSolution((0,), (1,), alpha=1.0, velocity=1.0)
        assert scan_one(pde, sol, (-10, 10), 101) == 0.0

    def test_family_I_tanh_instance(self):
        pde = parse_model('{"tau":0,"A":0,"B":1,"kappa":1,'
                          '"reaction":{"0":-1,"1":2,"2":1,"3":-2}}')
        # tanh(x - t) = (1 - E)/(1 + E) with E = exp(-2*(x - t))
        sol = ClosedFormSolution((1, -1), (1, 1), alpha=F(-2), velocity=F(-1))
        assert scan_one(pde, sol, (-10, 10), 1001) < 1e-10

    def test_undeclared_pole_detected(self):
        pde = parse_model('{"tau":0,"A":0,"B":1,"kappa":1,"reaction":{}}')
        # pole at xi = 0, not declared
        sol = ClosedFormSolution((1,), (-1, 1), alpha=F(1), velocity=F(1))
        with pytest.raises(PoleInWindow):
            scan_one(pde, sol, (-1, 1), 101)

    def test_declared_pole_skipped(self):
        pde = parse_model('{"tau":0,"A":0,"B":1,"kappa":1,"reaction":{}}')
        sol = ClosedFormSolution((1,), (-1, 1), alpha=F(1), velocity=F(1), poles=(0.0,))
        scan_one(pde, sol, (-1, 1), 101)  # no exception


class TestEquivalence:
    def test_exact_pass_iff_scan_small(self):
        rng = random.Random(2024)
        passes = 0
        for _ in range(60):
            pde, ansatz, theta, sol, hint = random_trial(rng)
            system = reduce(pde, ansatz)
            exact = verify_assignment(system, theta).passed
            scan = scan_one(pde, sol, (-6.0, 6.0), 301)
            assert exact == (scan < 1e-10), (
                f"equivalence broken: exact={exact} scan={scan} theta={theta}")
            if hint:
                assert exact, "engineered solution failed exact verification"
            passes += exact
        assert passes >= 10  # the mix contains genuine solutions


# -- the residual scan's coefficient rows and grid ----------------------------


def _exact_rows(w, p, alpha):
    """The scan's eight float rows by the exact route: ``w**p``, two
    ``differentiate_xi("alpha")`` and each coefficient of E^j evaluated with
    ``ParamPoly.evaluate``."""
    u = w**p
    u1 = u.differentiate_xi("alpha")
    u2 = u1.differentiate_xi("alpha")
    rows = []
    for poly in (w.num, w.den, u.num, u.den, u1.num, u1.den, u2.num, u2.den):
        parts = by_power(poly, "E")
        row = np.zeros(max(parts, default=0) + 1)
        for k, coeff in parts.items():
            row[k] = float(coeff.evaluate({"alpha": alpha}))
        rows.append(row)
    return rows


def _in_E(coeffs):
    """A polynomial in E with a term for every coefficient, zero or not."""
    return ParamPoly._make(("E",), {(k,): c for k, c in enumerate(coeffs)})


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


# small rationals, and now and then one beyond the float range or near 0
_SCAN_COEFFICIENTS = (st.builds(F, st.integers(-9, 9), st.integers(1, 6))
                      | st.sampled_from((F(10) ** 400, F(-3, 10**400))))
_ALPHAS = (st.floats(-3, 3) | st.floats(-1e200, 1e200)
           | st.sampled_from((0.0, 1e154, -1.2e154, 1e155)))
_E = ParamPoly.var("E")


@st.composite
def _scan_solutions(draw):
    """w = num/den, both sides times a common factor (a power of E, or a
    polynomial), reduced, the denominator's sign either way."""
    num = draw(st.lists(_SCAN_COEFFICIENTS, min_size=1, max_size=4))
    den = draw(st.lists(_SCAN_COEFFICIENTS, min_size=1, max_size=4).filter(any))
    common = draw(st.sampled_from(([F(1)], [F(0), F(1)], [F(0), F(0), F(2)],
                                   [F(2), F(-3)], [F(1), F(0), F(1)], [F(-1), F(5), F(3)])))
    sign = draw(st.sampled_from((1, -1)))
    return ExpRational(_in_E(_times(num, common)), _in_E([sign * c for c in _times(den, common)]))


def _int_pair(w):
    """The integer coefficients, lowest power of E first, of a reduced
    ExpRational in E alone."""
    sides = (coeff_list(w.num, E_NAME), coeff_list(w.den, E_NAME))
    assert all(c.denominator == 1 for side in sides for c in side)
    return tuple(tuple(c.numerator for c in side) for side in sides)


@settings(max_examples=150, deadline=None, database=None)
@given(_scan_solutions(), st.sampled_from((1, 2)), _ALPHAS)
@example(ExpRational(ParamPoly.const(1), 1 - 2 * _E), 1, 2.0)  # negative leading denominator
@example(ExpRational(1 + _E, 1 - _E), 2, 1e155)  # alpha^2 overflows
@example(ExpRational(_in_E([F(0), F(0)])), 1, 1.0)  # w = 0*E + 0, zero terms kept
@example(ExpRational(_in_E([F(1), F(0)]), _in_E([F(2)])), 2, 1.0)  # a zero leading term
def test_scan_rows_match_exact_route(w, p, alpha):
    num, den = _int_pair(w)
    try:
        expected = _exact_rows(w, p, alpha)
    except OverflowError:
        with pytest.raises(PoleInWindow, match="coefficient is beyond the float range"):
            _scan_rows(num, den, p, alpha)
        return
    assert [row.tobytes() for row in _scan_rows(num, den, p, alpha)] == [
        row.tobytes() for row in expected]


_GRID_COEFFICIENTS = (st.floats(-1e3, 1e3) | st.floats(allow_nan=False)
                      | st.sampled_from((0.0, 1e300, -1e-300)))


@st.composite
def _grid_cases(draw):
    """Rows, their spans, one to three E grids of one length and the grid
    of each row; now and then a row is given again, the same object, for
    the same grid and span or not."""
    n = draw(st.integers(0, 30))
    # exp(+-800) overflows to inf and underflows to 0; exp(0) is the boundary
    exponents = st.lists(st.floats(-60, 60) | st.floats(-1e3, 1e3), min_size=n, max_size=n)
    grids = draw(st.lists(exponents.map(lambda x: [*x, -800.0, 800.0, 0.0, -1e-300])
                          .flatmap(st.permutations), min_size=1, max_size=3))
    rows, spans, owner = [], [], []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            row, span, k = rows[i], spans[i], owner[i]
            if draw(st.booleans()):
                span = len(row) - 1 + draw(st.integers(0, 5))
                k = draw(st.integers(0, len(grids) - 1))
        else:
            row = np.array(draw(st.lists(_GRID_COEFFICIENTS, min_size=1, max_size=7)))
            span = len(row) - 1 + draw(st.integers(0, 5))
            k = draw(st.integers(0, len(grids) - 1))
        rows.append(row)
        spans.append(span)
        owner.append(k)
    with np.errstate(all="ignore"):
        return rows, spans, np.exp(np.array(grids)), np.array(owner)


@settings(max_examples=200, deadline=None, database=None)
@given(_grid_cases())
def test_grid_matches_polyval_per_row(case):
    rows, spans, E, owner = case
    with np.errstate(all="ignore"):
        grid = _on_grids(rows, spans, E, owner)
        for row, J, k, got in zip(rows, spans, owner, grid):
            small = E[k] <= 1.0
            padded = np.zeros(J + 1)
            padded[:len(row)] = row
            low = np.polynomial.polynomial.polyval(E[k][small], padded)
            high = np.polynomial.polynomial.polyval(1.0 / E[k][~small], padded[::-1])
            assert got[small].tobytes() == low.tobytes()
            assert got[~small].tobytes() == high.tobytes()


class TestScanOverflow:
    PDE = parse_model('{"tau":1,"A":1,"B":1,"kappa":1,"reaction":{"1":1,"2":-1}}')

    def test_zero_second_derivative_takes_no_alpha_squared(self):
        # u = 1 has u' = u'' = 0, so alpha^2 (1e400) is never formed
        sol = ClosedFormSolution((1,), (1,), alpha=-1e200, velocity=1.0)
        assert scan_one(self.PDE, sol, (-1, 1), 11) == 0.0

    def test_alpha_squared_overflow_is_a_pole_in_window(self):
        sol = ClosedFormSolution((1, 1), (2, 1), alpha=1e155, velocity=1.0)
        with pytest.raises(PoleInWindow, match="coefficient is beyond the float range"):
            scan_one(self.PDE, sol, (-1, 1), 11)

    def test_exp_overflow_is_silent(self):
        # far out, E = exp(alpha*xi) is inf or 0; the grid evaluates inf in t = 0
        sol = ClosedFormSolution((1,), (1, 1), alpha=1.0, velocity=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_solution(sol, np.array([-2000.0, 2000.0])).tolist() == [1.0, 0.0]
            assert math.isfinite(scan_one(self.PDE, sol, (-2000, 2000), 11))


class TestScanRefusals:
    """Every refusal of a case is an error of the case; only a stack-wide
    argument raises."""

    def test_half_integer_exponent_at_power_one(self):
        # -u'' = u^(3/2) needs w^3 of the squared ansatz; at power 1 it is refused, as reduce does
        pde = parse_model('{"tau":0,"A":0,"B":0,"kappa":1,"reaction":{"3/2":1}}')
        flat = ClosedFormSolution((2,), (1,), alpha=1.0, velocity=1.0)
        [outcome] = residual_scan([(pde, flat, (-1, 1))], 11)
        assert type(outcome) is PowerMismatch
        assert str(outcome) == "half-integer reaction exponents require power 2"
        with pytest.raises(PowerMismatch, match=str(outcome)):
            reduce(pde, ExpAnsatz(a=("a0",), b=(1,)))
        # at power 2, u = 2^2 and u^(3/2) = w^3 = 8: max|residual| / (1 + max|u|)
        squared = ClosedFormSolution((2,), (1,), alpha=1.0, velocity=1.0, power=2)
        assert residual_scan([(pde, squared, (-1, 1))], 11) == [8.0 / 5.0]

    def test_symbolic_model(self):
        pde = parse_model('{"tau":0,"A":0,"B":0,"kappa":1,"reaction":{"1":"lam"}}')
        sol = ClosedFormSolution((1,), (1,), alpha=1.0, velocity=1.0)
        [outcome] = residual_scan([(pde, sol, (-1, 1))], 11)
        assert type(outcome) is DomainError and isinstance(outcome, ValueError)
        assert str(outcome) == "residual scan needs a fully numeric model"

    def test_fewer_than_two_samples(self):
        pde = parse_model('{"tau":0,"A":0,"B":0,"kappa":1,"reaction":{}}')
        sol = ClosedFormSolution((1,), (1,), alpha=1.0, velocity=1.0)
        for cases in ([], [(pde, sol, (-1, 1))]):
            with pytest.raises(DomainError, match="need at least two samples"):
                residual_scan(cases, 1)

    def test_every_sample_excluded(self):
        pde = parse_model('{"tau":0,"A":0,"B":1,"kappa":1,"reaction":{}}')
        sol = ClosedFormSolution((1,), (-1, 1), alpha=1.0, velocity=1.0, poles=(0.0,))
        [outcome] = residual_scan([(pde, sol, (-1e-4, 1e-4))], 11)
        assert type(outcome) is DomainError and isinstance(outcome, ValueError)
        assert str(outcome) == "every sample lies within the pole exclusion zones"


def _stacks_of_one(cases, samples):
    return [scan_outcome(residual_scan([case], samples)[0]) for case in cases]


def test_mixed_stack_matches_stacks_of_one():
    # powers 1 and 2, reaction exponent lists of every length, four windows,
    # declared poles and errors mixed in one stack of several passes
    rng = random.Random(29)
    windows = ((-6.0, 6.0), (-1.0, 2.5), (-10.0, 10.0), (0.5, 3.0))
    cases = [(pde, sol, rng.choice(windows))
             for pde, _, _, sol, _ in (random_trial(rng) for _ in range(120))]
    half = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1/2":1}}')
    cases[7:7] = [(half, ClosedFormSolution((1, 2), (1, 1), alpha=1.0, velocity=1.0),
                   (-1.0, 1.0))]
    cases[50:50] = [(cases[50][0], ClosedFormSolution((1,), (-1, 1), alpha=2.0, velocity=1.0),
                     (-1.0, 1.0))]
    samples = 301
    assert len(cases) > 2 * (reducer.SCAN_PASS_POINTS // samples)
    stacked = list(map(scan_outcome, residual_scan(cases, samples)))
    assert stacked == _stacks_of_one(cases, samples)
    assert {PowerMismatch, PoleInWindow} <= {x[0] for x in stacked if isinstance(x, tuple)}
    assert {sol.power for _, sol, _ in cases} == {1, 2}
    assert sum(bool(sol.poles) for _, sol, _ in cases) >= 5
    assert len({len(pde.reaction) for pde, _, _ in cases}) >= 4


def test_one_case_cannot_spoil_its_neighbours():
    pde = TestScanOverflow.PDE
    overflowing = ClosedFormSolution((1, 1), (2, 1), alpha=1e155, velocity=1.0)
    undeclared = ClosedFormSolution((1,), (-1, 1), alpha=F(1), velocity=F(1))
    cases = [(pde, ClosedFormSolution((1, 2), (1, 1), alpha=F(1, 2), velocity=1.0), (-10, 10)),
             (pde, overflowing, (-1, 1)),
             (pde, undeclared, (-1, 1)),
             (pde, ClosedFormSolution((0, 2), (1, 0, 1), alpha=-0.75, velocity=2.0), (-10, 10))]
    stacked = residual_scan(cases, 101)
    assert list(map(scan_outcome, stacked)) == _stacks_of_one(cases, 101)
    assert all(isinstance(stacked[k], float) for k in (0, 3))
    assert scan_outcome(stacked[1]) == (PoleInWindow, reducer._BEYOND_FLOATS)
    assert scan_outcome(stacked[2]) == (PoleInWindow,
                                    "denominator vanishes near xi = 0 (undeclared pole)")


def test_pole_named_in_the_grid_order():
    # (E - 1)(E - 2) with alpha = -ln 2 vanishes at xi = -1 and at xi = 0;
    # the first grid point to flag is -1, whatever order E is evaluated in
    pde = TestScanOverflow.PDE
    sol = ClosedFormSolution((1,), (2, -3, 1), alpha=-math.log(2.0), velocity=1.0)
    [outcome] = residual_scan([(pde, sol, (-1, 1))], 201)
    assert scan_outcome(outcome) == (PoleInWindow,
                                 "denominator vanishes near xi = -1 (undeclared pole)")


def test_declared_pole_skipped_where_E_descends():
    # 1/(E - 2) with alpha = -ln 2 has its declared pole at xi = -1, the first
    # point of the grid; it is skipped although E descends along the grid
    pde = parse_model('{"tau":0,"A":0,"B":0,"kappa":1,"reaction":{}}')
    sol = ClosedFormSolution((1,), (-2, 1), alpha=-math.log(2.0), velocity=1.0)
    assert np.exp(-sol.alpha) == 2.0
    declared = sol._replace(poles=(-1.0,))
    assert scan_outcome(residual_scan([(pde, sol, (-1, 0.5))], 151)[0]) == (
        PoleInWindow, "denominator vanishes near xi = -1 (undeclared pole)")
    [scan] = residual_scan([(pde, declared, (-1, 0.5))], 151)
    assert isinstance(scan, float) and math.isfinite(scan)


# -- the closed-form solution builder -------------------------------------------


def _reference_solution(ansatz, assignment):
    """solution_from_assignment as it was written before it reduced w on
    integer lists: the instantiated ansatz as an ExpRational w, reduced,
    and the solution built from w's integer pair."""
    env = dict(assignment)

    def value(c):
        if isinstance(c, (str, ParamPoly)):
            return ParamPoly.lift(c).evaluate(env)
        return F(c)

    num = [value(c) for c in ansatz.a]
    den = [value(c) for c in ansatz.b]
    alpha = value("alpha")
    velocity = value("v")

    def poly(coeffs):
        return ParamPoly((E_NAME,), {(k,): c for k, c in enumerate(coeffs)})

    w = ExpRational(poly(num), poly(den))
    return w, ClosedFormSolution(*_int_pair(w), alpha=alpha, velocity=velocity,
                                 power=ansatz.power, poles=poles_of(den, alpha))


def _exactly(x):
    """A value with its type, a float by its bits (so -0.0 is not 0.0)."""
    return type(x), x.hex() if isinstance(x, float) else x


_PAIR = ExpAnsatz(a=("a0", "a1"), b=("b0", "b1"))
_QUADRATIC = ExpAnsatz(a=("a0", "a1", "a2"), b=("b0", "b1", "b2"), power=2)
_BUILDER_CASES = {
    "zero-numerator": (_PAIR, {"a0": F(0), "a1": 0, "b0": F(1), "b1": F(2), "alpha": F(1, 2), "v": 1}),
    # (2E + 1)(E + 3) / ((2E + 1)(E - 1))
    "shared-factor": (_QUADRATIC, {"a0": 3, "a1": 7, "a2": 2, "b0": -1, "b1": -1, "b2": 2,
                                   "alpha": F(-1, 3), "v": F(2)}),
    # 0.5*(1 + 0.25E) / (1 + 0.25E), on floats
    "shared-float-factor": (_PAIR, {"a0": 0.5, "a1": 0.125, "b0": 1.0, "b1": 0.25,
                                    "alpha": 1.5, "v": -0.75}),
    "negative-leading-denominator": (_PAIR, {"a0": F(1, 3), "a1": F(5), "b0": 1, "b1": F(-2),
                                             "alpha": F(2), "v": F(1)}),
    "common-power-of-E": (ExpAnsatz(a=(F(0), "a1", "a2"), b=(0, 0, "b2")),
                          {"a1": F(1, 2), "a2": F(3, 4), "b2": F(-6), "alpha": F(-2), "v": F(1)}),
    "negative-zero-floats": (_PAIR, {"a0": -0.0, "a1": 1.0, "b0": 2.0, "b1": -0.0,
                                     "alpha": -0.0, "v": -0.0}),
    "numpy-and-huge": (_PAIR, {"a0": np.float64(0.75), "a1": F(10) ** 400, "b0": F(3, 10**400),
                               "b1": np.float64(-0.0), "alpha": np.float64(1.25), "v": True}),
    "polynomial-slots": (ExpAnsatz(a=(2 * ParamPoly.var("a1"), "a1"), b=(F(1), "b1", "b1")),
                         {"a1": 0.3, "b1": F(2, 3), "alpha": 1e-300, "v": F(1, 7)}),
    "missing-name": (_PAIR, {"a0": 1, "a1": 1, "b0": 1, "alpha": 1, "v": 1}),
    "zero-denominator": (_PAIR, {"a0": 1, "a1": 1, "b0": 0.0, "b1": F(0), "alpha": 1, "v": 1}),
    "infinite-coefficient": (_PAIR, {"a0": math.inf, "a1": 1, "b0": 1, "b1": 1, "alpha": 1, "v": 1}),
}


def _catalog_builder_cases():
    """Every family's instances at seeds 1..3, three draws each."""
    for family_id in catalog.FAMILIES:
        fam = catalog.get_family(family_id)
        for seed in (1, 2, 3):
            rng = random.Random(f"{seed}:{family_id}")
            for _ in range(3):
                for inst in fam.instances(fam.draw(rng)):
                    yield inst.ansatz, inst.assignment


def test_solution_matches_reference_builder():
    built = floats = 0
    for ansatz, assignment in [*_BUILDER_CASES.values(), *_catalog_builder_cases()]:
        try:
            _, want = _reference_solution(ansatz, assignment)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                solution_from_assignment(ansatz, assignment)
            assert str(raised.value) == str(exc)
            continue
        got = solution_from_assignment(ansatz, assignment)
        assert (got.num, got.den) == (want.num, want.den)
        assert all(type(c) is int for c in (*got.num, *got.den))
        assert _exactly(got.alpha) == _exactly(want.alpha)
        assert _exactly(got.velocity) == _exactly(want.velocity)
        assert [_exactly(x) for x in got.poles] == [_exactly(x) for x in want.poles]
        assert got.power == want.power
        built += 1
        floats += any(isinstance(x, float) for x in assignment.values())
    assert built > 300 and floats > 25  # radical branches are among them


def test_removable_singularity_is_no_pole():
    # (E - 1)/(E - 1): the ansatz denominator vanishes at xi = 0, w does not
    sol = solution_from_assignment(_PAIR, {"a0": -1, "a1": 1, "b0": -1, "b1": 1,
                                           "alpha": 1, "v": 1})
    assert (sol.num, sol.den, sol.poles) == ((1,), (1,), ())
    assert sample_solution(sol, np.array([-1e-4, 0.0, 1e-4])).tolist() == [1.0, 1.0, 1.0]
    # (E - 1)(E - 2)/((E - 1)(E - 3)) keeps the pole of E - 3 alone
    sol = solution_from_assignment(ExpAnsatz(a=("a0", "a1", "a2"), b=("b0", "b1", "b2")),
                                   {"a0": 2, "a1": -3, "a2": 1, "b0": 3, "b1": -4, "b2": 1,
                                    "alpha": 1, "v": 1})
    assert sol.poles == (math.log(3.0),)


def test_no_sign_change_has_no_pole(monkeypatch):
    # Descartes' rule of signs: no positive root, so no np.roots call
    def roots(_):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", roots)
    for den in ([1, 2, 1], (F(1, 3), 0, 0.5, 0), [0, -1, 0, -2], [-1.5, -0.0]):
        assert poles_of(den, 1) == ()
    with pytest.raises(AssertionError, match="np.roots called"):
        poles_of([1, -2, 1], 1)


def test_builder_pairs_scan_as_the_exact_route():
    # the float branches of the catalog give the builder long decimal
    # coefficients, which the hypothesis strategy above never draws
    scanned = 0
    for ansatz, assignment in _catalog_builder_cases():
        w, _ = _reference_solution(ansatz, assignment)
        sol = solution_from_assignment(ansatz, assignment)
        args = (sol.num, sol.den, sol.power, float(sol.alpha))
        try:
            expected = _exact_rows(w, sol.power, float(sol.alpha))
        except OverflowError:
            with pytest.raises(PoleInWindow, match="coefficient is beyond the float range"):
                _scan_rows(*args)
            continue
        assert [row.tobytes() for row in _scan_rows(*args)] == [
            row.tobytes() for row in expected]
        scanned += 1
    assert scanned > 300


@pytest.mark.parametrize("num, den", [((F(1),), (1,)), ((1,), (1.0,)), ((1,), (0, 0))])
def test_solution_pair_is_integers_over_a_nonzero_denominator(num, den):
    with pytest.raises(ValueError, match="closed-form solution"):
        ClosedFormSolution(num, den, alpha=1.0, velocity=1.0)


def test_solution_holds_the_canonical_pair():
    # (2E + 6)/(2E - 2) is (E + 3)/(E - 1)
    sol = ClosedFormSolution((6, 2), (-2, 2), alpha=1.0, velocity=1.0)
    assert (sol.num, sol.den) == ((3, 1), (-1, 1))
    assert ClosedFormSolution((0, 0), (0, -4), alpha=1.0, velocity=1.0).den == (1,)


def test_solution_built_by_keyword_holds_the_canonical_pair():
    sol = ClosedFormSolution(num=(6, 2), den=(-2, 2), alpha=1.0, velocity=1.0)
    assert sol == ClosedFormSolution((3, 1), (-1, 1), 1.0, 1.0, 1, ())
    with pytest.raises(ValueError, match="closed-form solution"):
        ClosedFormSolution(num=(1,), den=(0, 0), alpha=1.0, velocity=1.0)


# -- the records: immutable, compared and hashed by value ---------------------


def test_record_fields_cannot_be_assigned():
    records = [_PAIR, AlgebraicSystem(("x",), (parse_poly_text("x"),), (0,)),
               Verdict("PASS", ()), ClosedFormSolution((1,), (1,), alpha=1.0, velocity=1.0)]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_equal_records_compare_and_hash_equal():
    pairs = [(_PAIR, ExpAnsatz(("a0", "a1"), ("b0", "b1"), 1)),
             (AlgebraicSystem(("x",), (parse_poly_text("x"),), (0,)),
              AlgebraicSystem(unknowns=("x",), equations=(parse_poly_text("x"),), provenance=(0,))),
             (Verdict("FAIL", (F(1),)), Verdict(status="FAIL", residuals=(F(1),), report="")),
             (ClosedFormSolution((6, 2), (-2, 2), 1.0, 1.0),
              ClosedFormSolution((3, 1), (-1, 1), 1.0, 1.0))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("args, error", [
    ((("a0",), ("b0",), 3), DomainError), (((), ("b0",), 1), EmptyAnsatz),
    ((("a0",), (), 1), EmptyAnsatz), (((0, F(0)), ("b0",), 1), EmptyAnsatz),
    ((("a0",), (0,), 2), EmptyAnsatz)])
def test_ansatz_refused_by_position_or_keyword(args, error):
    with pytest.raises(error):
        ExpAnsatz(*args)
    with pytest.raises(error):
        ExpAnsatz(**dict(zip(ExpAnsatz._fields, args)))


def test_replace_validates_as_the_constructor():
    with pytest.raises(DomainError):
        _PAIR._replace(power=3)
    with pytest.raises(EmptyAnsatz):
        _PAIR._replace(b=(0, F(0)))
    sol = ClosedFormSolution((3, 1), (-1, 1), alpha=1.0, velocity=1.0)
    for change in ({"den": (0, 0)}, {"num": (1.5, 1)}):
        with pytest.raises(ValueError, match="closed-form solution"):
            sol._replace(**change)
    assert sol._replace(num=(6, 2), den=(-2, 2)) == sol  # normalised again


def test_reduce_memo_keys_on_equal_records(monkeypatch):
    # an equal PDE and ansatz find the terms another copy made; a catalog
    # family's trials make them once for each distinct ansatz
    built = []

    class Counted(reducer._AnsatzTerms):
        def __init__(self, ansatz, names):
            built.append(ansatz)
            super().__init__(ansatz, names)

    monkeypatch.setattr(reducer, "_AnsatzTerms", Counted)
    text = '{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1","3":"l3"}}'
    memo = {}
    first = reduce(parse_model(text), ExpAnsatz(("a0", "a1"), ("b0", "b1")), memo)
    assert reduce(parse_model(text), ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")), memo) == first
    assert len(built) == 1
    built.clear()
    keys = []
    monkeypatch.setattr(catalog, "reduce", lambda pde, ansatz, memo: keys.append(
        (ansatz, pde.symbols())) or reducer.reduce(pde, ansatz, memo))
    catalog.verify_entry("IVc", trials=5, seed=1)
    assert len(built) == len(set(keys)) == 2 < len(keys)


def test_each_built_solution_is_reduced_once(monkeypatch):
    # the builder reduces the pair and builds the record on it without reducing again
    counts = {"reduced": 0, "built": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(reducer, "reduced_pair", counted("reduced", reducer.reduced_pair))
    monkeypatch.setattr(catalog, "solution_from_assignment",
                        counted("built", catalog.solution_from_assignment))
    for family_id in catalog.FAMILIES:
        catalog.verify_entry(family_id, trials=5, seed=1)
    assert counts == {"reduced": 206, "built": 206}


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
       st.sampled_from(([1], [0, 1], [0, 0, -2], [2, -3], [1, 0, 1], [-1, 5, 3], [10**400, 7])))
@example([3, 1], [-1, 1], [1, 2])
def test_powers_of_a_canonical_pair_are_canonical(num, den, common):
    """The scan forms u = w^p without reducing it: for a pair in
    ``reduced_pair``'s form, ``lowest_terms`` leaves its powers as they are."""
    num, den = reduced_pair(_product(num, common), _product(den, common))
    assert reduced_pair(num, den) == (num, den)
    for p in (1, 2):
        u = (_power(num, p), _power(den, p))
        assert lowest_terms(*u) == u
