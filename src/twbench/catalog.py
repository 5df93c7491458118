"""Closed-form travelling-wave families and their verification harness.

Each family packages a printed condition table: free parameters, derived
parameters (often involving radicals, hence sign branches), an admissibility
predicate, and the solution profile as a rational function of E.  The
condition tables are treated as hypotheses: ``verify_entry`` draws random
admissible rational parameter sets, instantiates every sign branch, checks
exact annihilation of the reduced algebraic system, and cross-checks with a
numeric residual scan.  Adjudicated outcomes live in the expectations file
shipped at the repository root.

Notation used by the derived formulas:

    h     = alpha*(v^2*tau - kappa)
    Delta = a1*b0 - a0*b1
    Theta = a1*b0 + a0*b1
    H     = tau*v^2 - kappa

The rational derived formulas, and every admissibility condition that is
formula text, are evaluated from the same text that ``catalog list`` prints.
One builder, ``_table_family``, makes every family from its table: the PDE,
the instances and the random draw.  A family whose table takes square roots
gives it only a ``branches`` generator, which yields the values the radicals
take on each sign branch from the radicands of the printed text.  What is
computed from a root, which may be a float, is written out in code, and so
are the conditions of I-tanh, I-kink2 and IVa-special that are prose
("velocity discriminant >= 0") or read a radical.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, islice
from typing import Callable, ClassVar, Iterator, Mapping

from .model import DomainError, HyperbolicPDE, InputError, NumericFailure, SchemaError
from .reducer import (
    AlgebraicSystem,
    ClosedFormSolution,
    ExpAnsatz,
    PoleInWindow,
    Verdict,
    reduce,
    residual_scan,
    solution_from_assignment,
    verify_assignment,
)
from .symcore import ParamPoly, exact_root, frac_str

SCAN_WINDOW = (-10.0, 10.0)
SCAN_SAMPLES = 1001
POLE_MARGIN = 0.75  # how far a singular profile's scan window keeps from its poles
SCAN_TOL = 1e-9


class Inadmissible(InputError):
    """Free parameter values violate a family's admissibility predicates."""


class UnknownFamily(InputError, KeyError):
    """No family has the requested id."""


class BranchFailure(RuntimeError, NumericFailure):
    """No sign branch of the derived radicals verifies."""


def _sqrt_branches(q: Fraction | float) -> list[Fraction | float]:
    """Both signs of sqrt(q): exact for the square of a rational, float otherwise."""
    if q < 0:
        raise Inadmissible(f"negative radicand {frac_str(Fraction(q))}")
    root = None if isinstance(q, float) else exact_root(q, 2)
    if root is None:
        root = _float_sqrt(q)
    return [root, -root] if root else [root]


def _float_sqrt(q: Fraction | float) -> float:
    """sqrt(q) as a float.  A rational q > 0 may overflow a float or round to
    0 or a subnormal, so its root is taken of q/4^k, which is near 1, and
    scaled by 2^k: for a q whose float and root are normal that is the same
    float as math.sqrt(float(q))."""
    if isinstance(q, float):
        return math.sqrt(q)
    k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(float(q / Fraction(4) ** k)), k)
    except OverflowError:
        raise NumericFailure("a square-root radicand is beyond the float range") from None


# Shared notation of the derived formulas, as in the module docstring.
NOTATION = {
    "h": "alpha*(v^2*tau - kappa)",
    "Delta": "a1*b0 - a0*b1",
    "Theta": "a1*b0 + a0*b1",
    "H": "tau*v^2 - kappa",
}

_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
              ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}


@cache
def _formula(text: str) -> Callable[[Mapping[str, Fraction]], Fraction]:
    """Compile formula or condition text once into a function of a name lookup.

    The text may use ``+ - * /``, ``^`` to an integer literal, unary minus,
    parentheses, ``|x|``, integer literals (read as Fractions) and names, and
    one comparison ``= != < <= > >=``; a leading ``derived`` (as in
    ``derived A >= 0``) only says the name is a derived value.  ``^`` becomes
    ``**`` before parsing: Python's ``^`` is XOR and binds loosest, so
    ``x/Delta^2`` would read as ``(x/Delta)^2``.  Anything else, prose
    included, raises ValueError.
    """
    python = re.sub(r"(?<![<>!=])=(?!=)", "==", re.sub(r"\|([^|]*)\|", r"abs(\1)", text))
    try:
        tree = ast.parse(python.removeprefix("derived ").replace("^", "**"), mode="eval")
    except SyntaxError:
        raise ValueError(f"formula syntax not supported: {text}") from None
    return _compile(tree.body)


@cache
def _radicands(text: str) -> tuple[str, ...]:
    """The argument of each ``sqrt(...)`` in printed formula text, in order:
    it ends where the parenthesis depth first falls below its opening's."""
    depth = list(accumulate((c == "(") - (c == ")") for c in text))
    return tuple(text[m.end():depth.index(depth[m.end() - 1] - 1, m.end())]
                 for m in re.finditer(r"sqrt\(", text))


def _compile(node: ast.expr) -> Callable[[Mapping[str, Fraction]], Fraction]:
    match node:
        case ast.BinOp(left, ast.Pow(), ast.Constant(int() as n)):
            base = _compile(left)
            return lambda names: base(names) ** n
        case ast.BinOp(left, op, right) | ast.Compare(left, [op], [right]) \
                if type(op) in _OPERATORS:
            f, a, b = _OPERATORS[type(op)], _compile(left), _compile(right)
            return lambda names: f(a(names), b(names))
        case ast.Call(ast.Name("abs"), [operand], []):
            a = _compile(operand)
            return lambda names: abs(a(names))
        case ast.UnaryOp(ast.USub(), operand):
            a = _compile(operand)
            return lambda names: -a(names)
        case ast.Constant(int() as n):
            value = Fraction(n)
            return lambda names: value
        case ast.Name(name):
            return operator.itemgetter(name)
    raise ValueError(f"formula syntax not supported: {ast.unparse(node)}")


class _Derived(dict):
    """Free values, then a family's formulas, then the shared notation.

    Each formula is evaluated exactly on first use and kept; ``radicand``
    evaluates the argument of one of its square roots.  Free values must be
    rational, so no float operation can depend on how a formula is written.
    """

    def __init__(self, free_values: Mapping[str, Fraction],
                 formulas: Mapping[str, str] = NOTATION):
        super().__init__(free_values)
        for name, value in free_values.items():
            if isinstance(value, int):
                self[name] = Fraction(value)
            elif not isinstance(value, Fraction):
                raise TypeError(f"{name} = {value!r} is not rational")
        self.formulas = {**NOTATION, **formulas}

    def __missing__(self, name):
        value = self[name] = _formula(self.formulas[name])(self)
        return value

    def radicand(self, name: str, i: int = 0) -> Fraction:
        """The argument of the i-th ``sqrt(...)`` of formula ``name``."""
        return _formula(_radicands(self.formulas[name])[i])(self)


@dataclass(frozen=True)
class Instance:
    """One fully numeric instantiation of a family (one radical branch)."""

    pde: HyperbolicPDE
    ansatz: ExpAnsatz
    assignment: dict
    branch: str
    reading: str = "main"  # which reading of the printed table this tests

    @cached_property
    def solution(self) -> ClosedFormSolution:
        return solution_from_assignment(self.ansatz, self.assignment)

    @property
    def exact(self) -> bool:
        """Every assigned value is rational, so the exact verdict applies."""
        return not any(isinstance(x, float) for x in self.assignment.values())


@dataclass(frozen=True)
class CatalogEntry:
    """Static description of one printed solution family."""

    family_id: str
    shape: str  # kink-like | soliton-like | singular
    free: tuple[str, ...]
    derived: Mapping[str, str]
    admissibility: tuple[str, ...]
    annotations: tuple[str, ...] = ()
    expected: ClassVar[str] = "PASS"  # every family's adjudicated outcome

    @cached_property  # on first use: compiling every table at import would slow each command
    def formula_conditions(self) -> tuple[str, ...]:
        """The printed conditions in formula text: not prose, reading no radical."""
        formulas = {n: t for n, t in {**NOTATION, **self.derived}.items() if n not in self.free}

        def text(formula: str) -> bool:
            try:
                _formula(formula)
            except ValueError:
                return False
            return all(text(formulas[n]) for n in re.findall(r"\w+", formula) if n in formulas)

        return tuple(filter(text, self.admissibility))


@dataclass(frozen=True)
class Family:
    entry: CatalogEntry
    instances: Callable[[Mapping[str, Fraction]], list[Instance]]
    draw: Callable[[random.Random], dict[str, Fraction]]
    adopted: str = "main"  # reading whose verdict the family's status reports
    # residual scan of a printed variant that is reported, not adjudicated
    printed_argument_scan: Callable[[Mapping[str, Fraction]], float] | None = None


def _admissible(entry: CatalogEntry, free_values: Mapping[str, Fraction]) -> _Derived:
    """Check the printed conditions that are formula text, in printed order, so
    an earlier one guards the divisions of a later one (``b0*b1 > 0`` before
    ``a0/b0 != a1/b1``); return the free and derived values.  The family's
    ``branches`` checks the others."""
    values = _Derived(free_values, entry.derived)
    for condition in entry.formula_conditions:
        if not _formula(condition)(values):
            raise Inadmissible(f"{entry.family_id} needs {condition}")
    return values


def _frac(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _nonzero(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4) -> Fraction:
    while True:
        q = _frac(rng, lo, hi, den)
        if q:
            return q


def _positive(rng: random.Random, hi: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def _small_alpha(rng: random.Random) -> Fraction:
    # |alpha| <= 3 keeps exp(alpha*xi) well inside double range on [-10, 10]
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(1, 6), rng.randint(2, 4))


def _square_branches(ansatz: ExpAnsatz) -> list[tuple[ExpAnsatz, str | None]]:
    """Both sign branches of sqrt(u) for a squared ansatz u = w^2.

    Negating the numerator of w leaves u unchanged but flips every
    half-integer power u^(nu) = w^(2*nu) with odd 2*nu, so a condition table
    can verify on either branch.  An ansatz that is not squared is its own
    one branch, with no label of its own.
    """
    if ansatz.power == 1:
        return [(ansatz, None)]
    flipped = tuple(-ParamPoly.var(c) if isinstance(c, str) else -c for c in ansatz.a)
    return [(ansatz, "w+"), (replace(ansatz, a=flipped), "w-")]


def _readings(readings: Mapping[str, Mapping[str, str]]):
    """``branches`` of a rational table: one per reading, which gives the
    formulas it writes differently, evaluated at the printed values."""
    def branches(values):
        for reading, overrides in readings.items():
            yield reading, "direct", {n: _formula(t)(values) for n, t in overrides.items()}

    return branches


def _table_family(entry: CatalogEntry, ansatz: ExpAnsatz, propose,
                  branches=_readings({"main": {}}), adopted: str = "main") -> Family:
    """Build a family from its table, its ansatz and its sign branches.

    ``branches(values)`` is given the free values, which also resolve the
    table's rational formulas.  It yields ``(reading, label, branch)`` for
    each sign branch, where ``branch`` maps names to the values the radicals
    take there; a rational table's branches are its ``_readings``.  The
    conditions that are formula text are checked first, by ``_admissible``;
    ``branches`` checks the others, raising Inadmissible or yielding no branch
    where they fail.  The PDE has tau, A, B and kappa from the table, or 0, and
    a reaction term per lam<nu> name in ascending exponent order, the order
    ``residual_scan`` sums in; a reading that writes one of them differently
    has a PDE of its own.  Each branch assigns every unknown of ``ansatz``; a
    squared ansatz doubles it into both branches of sqrt(u).  Free values
    without any branch are inadmissible.

    The draw retries ``propose`` (None rejects its own values) until the
    conditions hold.  When alpha is derived, a draw whose every branch has
    |alpha| > 4 is rejected too, since it would make the residual scan
    ill-conditioned.  A singular family is exempt: its scans run on a
    pole-free window, and guarding it would change the draws it reports.
    """
    names = (*entry.free, *entry.derived)
    # reaction coefficients lam<nu> by exponent, e.g. lam3/2 -> 3/2, ascending
    lams = dict(sorted(((n, Fraction(n[3:])) for n in names if n.startswith("lam")),
                       key=lambda item: item[1]))
    # the PDE's coefficients in the table; tau, A, B or kappa not in it is 0
    coefficients = (*(n for n in ("tau", "A", "B", "kappa") if n in names), *lams)
    unknowns, shapes = ansatz.symbols(), _square_branches(ansatz)

    def instances(fv):
        values, pdes, out = _admissible(entry, fv), {}, []
        for reading, label, branch in branches(values):
            point = {n: branch[n] if n in branch else values[n]
                     for n in (*coefficients, *unknowns)}
            # branches share the PDE of the coefficients they override (mostly
            # none), so ``_judged`` finds its reduced system by identity
            key = tuple((n, branch[n]) for n in coefficients if n in branch)
            if key not in pdes:
                linear = {n: point.get(n, 0) for n in ("tau", "A", "B", "kappa")}
                pdes[key] = HyperbolicPDE(**linear,
                                          reaction={nu: point[n] for n, nu in lams.items()})
            assignment = {n: point[n] for n in unknowns}
            out.extend(Instance(pdes[key], a, assignment, square or label, reading)
                       for a, square in shapes)
        if not out:
            raise Inadmissible(f"{entry.family_id} has no admissible branch")
        return out

    guard_alpha = "alpha" in entry.derived and entry.shape != "singular"

    def accepted(fv) -> bool:
        if guard_alpha:
            return any(abs(float(i.assignment["alpha"])) <= 4 for i in instances(fv))
        values = _admissible(entry, fv)
        # the other conditions are checked by ``branches`` before its first branch
        return (entry.formula_conditions == entry.admissibility
                or next(branches(values), None) is not None)

    def draw(rng: random.Random) -> dict[str, Fraction]:
        while True:
            fv = propose(rng)
            try:
                if fv is not None and accepted(fv):
                    return fv
            except Inadmissible:
                pass

    return Family(entry, instances, draw, adopted)


# ---------------------------------------------------------------------------
# Family I: general two-mode kink for the full equation
# ---------------------------------------------------------------------------


def _family_I():
    free = ("a0", "a1", "b0", "b1", "alpha", "v", "lam3", "tau", "kappa", "B")
    derived = {
        "lam0": "-a0*a1*alpha*(B*v*Delta + h*Theta)/Delta^2",
        "lam1": "(alpha*b0*b1*(B*v*Theta*Delta + h*Theta^2) + lam3*a0*a1*Delta^2)/(b0*b1*Delta^2)",
        "lam2": "-(alpha*b0^2*b1^2*(B*v*Delta + h*Theta) + lam3*Delta^2*Theta)/(b0*b1*Delta^2)",
        "A": "(2*h*alpha*b0^2*b1^2 - lam3*Delta^2)/(alpha*b0*b1*Delta)",
    }

    def propose(rng):
        b0 = _nonzero(rng)
        b1 = _positive(rng) if b0 > 0 else -_positive(rng)  # b0*b1 > 0: pole-free
        return {
            "a0": _frac(rng), "a1": _frac(rng), "b0": b0, "b1": b1,
            "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
            "lam3": _frac(rng), "tau": rng.choice((Fraction(0), _positive(rng, 4))),
            "kappa": _positive(rng, 4), "B": rng.choice((Fraction(0), _positive(rng, 4))),
        }

    entry = CatalogEntry(
        family_id="I",
        shape="kink-like",
        free=free,
        derived=derived,
        admissibility=("b0*b1 != 0", "Delta != 0", "alpha != 0", "derived A >= 0"),
        annotations=(
            "kink-like when b0*b1 > 0 and a0/b0 != a1/b1 (the source table writes "
            "b2, a2 where only b1, a1 exist)",
        ),
    )
    return _table_family(entry, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")), propose)


# ---------------------------------------------------------------------------
# Family I-tanh: the explicit tanh specialization of family I
# ---------------------------------------------------------------------------


def _family_I_tanh():
    free = ("lam0", "lam2", "lam3", "A", "B", "kappa", "tau")
    derived = {
        "lam1": "lam0*lam3/lam2",
        "v": "lam2*(A*B + sqrt(A^2*B^2 - 8*kappa*lam3 + 16*kappa*lam2^2*tau))/(2*lam3 - 4*lam2^2*tau)",
        "alpha": "2*sqrt(-lam0*lam2)/v",
        "a0": "sqrt(-lam0/lam2)", "a1": "-a0", "b0": "1", "b1": "1",
    }

    def branches(values):
        lam2, A, B = values["lam2"], values["A"], values["B"]
        disc = values.radicand("v")
        if disc < 0:
            raise Inadmissible("I-tanh needs velocity discriminant >= 0")
        denom = 2 * values["lam3"] - 4 * lam2 * lam2 * values["tau"]
        amplitudes = _sqrt_branches(values.radicand("a0"))
        for i, s in enumerate(_sqrt_branches(disc)):
            v = lam2 * (A * B + s) / denom
            if v == 0:
                continue
            for j, c in enumerate(amplitudes):
                # alpha = 2*sqrt(-lam0*lam2)/v; sqrt(-lam0*lam2) = |lam2|*sqrt(-lam0/lam2)
                k_mag = abs(lam2) * abs(c)
                for si, sgn in enumerate((1, -1)):
                    yield ("main", f"v{'+-'[i]} a0{'+-'[j]} alpha{'+-'[si]}",
                           {"a0": c, "a1": -c, "alpha": sgn * 2 * k_mag / v, "v": v})

    def propose(rng):
        c = _positive(rng, 4)
        lam2 = _nonzero(rng, -4, 4)
        lam0 = -c * c * lam2
        A = rng.choice((Fraction(0), _positive(rng, 3)))
        B = Fraction(1)
        kappa = _positive(rng, 4)
        tau = rng.choice((Fraction(0), _positive(rng, 3)))
        s = _positive(rng, 8)
        lam3 = (A * A * B * B + 16 * kappa * lam2 * lam2 * tau - s * s) / (8 * kappa)
        return {"lam0": lam0, "lam2": lam2, "lam3": lam3,
                "A": A, "B": B, "kappa": kappa, "tau": tau}

    entry = CatalogEntry(
        family_id="I-tanh",
        shape="kink-like",
        free=free,
        derived=derived,
        admissibility=("lam2 != 0", "lam0*lam2 < 0", "velocity discriminant >= 0",
                       "2*lam3 - 4*lam2^2*tau != 0", "B = 1"),
        annotations=(
            "the printed alpha sign does not verify as read; the branch search "
            "selects the opposite sign of alpha (equivalently of the tanh slope)",
            "the printed conditions are incomplete: the parent family's lam0 and "
            "lam2 relations additionally force B = 1 on this profile, matching "
            "the source's own B = 1 cross-reference",
        ),
    )
    return _table_family(entry, ExpAnsatz(a=("a0", "a1"), b=(1, 1)), propose, branches)


# ---------------------------------------------------------------------------
# Family I-kink2: the second explicit kink (u = 2/(b0*(1+exp(2*alpha*xi))))
# ---------------------------------------------------------------------------


def _family_I_kink2():
    free = ("lam1", "lam2", "lam3", "B", "kappa", "tau")

    def alpha_v_parts(b0, lam1, lam2, B, tau):
        """P = 2*lam2 + 3*b0*lam1 of the printed alpha and v, and the radicand S of v."""
        P = 2 * lam2 + 3 * b0 * lam1
        S = (4 * lam2**2 * tau + 4 * b0 * lam2 * (B * B + 3 * lam1 * tau)
             + b0**2 * lam1 * (2 * B * B + 9 * lam1 * tau))
        return P, S

    def branches(values):
        lam1, lam2 = values["lam1"], values["lam2"]
        B, kappa, tau = values["B"], values["kappa"], values["tau"]
        parts = []  # (sign, b0, P, S) of each nonzero b0
        for bi, s in enumerate(_sqrt_branches(values.radicand("b0"))):
            b0 = (-lam2 + s) / lam1
            if b0:
                parts.append((bi, b0, *alpha_v_parts(b0, lam1, lam2, B, tau)))
        if parts and all(S <= 0 for *_, S in parts):
            raise Inadmissible("I-kink2 needs radicand of v positive")
        for bi, b0, P, S in parts:
            if P == 0 or S <= 0:
                continue
            for vi, v in enumerate(_sqrt_branches(kappa * P * P / S)):
                if v == 0:
                    continue
                alpha_printed = -P / (4 * B * v * b0)
                # the ansatz variable is exp(2*alpha_printed*xi)
                branch = {"b0": b0, "alpha": 2 * alpha_printed, "v": v}
                yield "main", f"b0{'+-'[bi]} v{'+-'[vi]}", branch

    def propose(rng):
        b0 = _nonzero(rng, -4, 4)
        lam1 = _nonzero(rng, -4, 4)
        B = _positive(rng, 3)
        v = _nonzero(rng, -3, 3)
        alpha_printed = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(2, 4))
        tau = rng.choice((Fraction(0), _positive(rng, 3)))
        lam2 = (-4 * B * v * b0 * alpha_printed - 3 * b0 * lam1) / 2
        lam3 = -b0 * (b0 * lam1 + 2 * lam2) / 4
        P, S = alpha_v_parts(b0, lam1, lam2, B, tau)
        if P == 0 or S <= 0:
            return None
        kappa = v * v * S / (P * P)  # > 0, as v != 0 and S > 0
        return {"lam1": lam1, "lam2": lam2, "lam3": lam3, "B": B,
                "kappa": kappa, "tau": tau}

    entry = CatalogEntry(
        family_id="I-kink2",
        shape="kink-like",
        free=free,
        derived={
            "b0": "(-lam2 +/- sqrt(lam2^2 - 4*lam1*lam3))/lam1",
            "alpha": "-(2*lam2 + 3*b0*lam1)/(4*B*v*b0)",
            "v": "+/- sqrt(kappa)*(2*lam2 + 3*b0*lam1)/sqrt(4*lam2^2*tau + 4*b0*lam2*(B^2+3*lam1*tau) + b0^2*lam1*(2*B^2+9*lam1*tau))",
        },
        admissibility=("lam1 != 0", "lam2^2 - 4*lam1*lam3 >= 0", "B > 0", "kappa > 0",
                       "radicand of v positive", "2*lam2 + 3*b0*lam1 != 0"),
        annotations=("A = lam0 = 0 by construction; the profile variable is "
                     "exp(2*alpha*xi), so the ansatz growth rate is twice the printed alpha",),
    )
    return _table_family(entry, ExpAnsatz(a=(2,), b=("b0", "b0")), propose, branches)


# ---------------------------------------------------------------------------
# Family II: squared two-mode solitary wave (half-integer reaction)
# ---------------------------------------------------------------------------


def _family_II():
    free = ("a0", "a1", "b0", "b1", "alpha", "v", "B", "tau", "kappa")
    derived = {
        "lam0": "2*a0^2*a1^2*alpha*h/Delta^2",
        "lam1/2": "-2*a0*a1*alpha*(3*h*Theta + B*v*Delta)/Delta^2",
        "lam1": "2*alpha*(h*(3*Theta^2 - Delta^2) + B*v*Delta*Theta)/Delta^2",
        "lam3/2": "-2*b0*b1*alpha*(5*h*Theta + B*v*Delta)/Delta^2",
        "lam2": "6*b0^2*b1^2*h*alpha/Delta^2",
    }

    def propose(rng):
        b0 = _nonzero(rng, -4, 4)
        b1 = _positive(rng, 4) if b0 > 0 else -_positive(rng, 4)
        a0 = _nonzero(rng, -4, 4)
        a1 = -a0 * b1 / b0  # |a0/b0| = |a1/b1| with opposite signs
        return {"a0": a0, "a1": a1, "b0": b0, "b1": b1,
                "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
                "B": rng.choice((Fraction(0), _positive(rng, 3))),
                "tau": rng.choice((Fraction(0), _positive(rng, 3))),
                "kappa": _positive(rng, 4)}

    entry = CatalogEntry(
        family_id="II",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("b0*b1 > 0", "|a0|/|b0| = |a1|/|b1|", "a0/b0 != a1/b1",
                       "alpha != 0"),
        annotations=("the solitary-wave condition is printed with subscripts a2, b2 "
                     "where the displayed solution has a1, b1; the a1/b1 reading is adopted",),
    )
    return _table_family(entry, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1"), power=2), propose)


# ---------------------------------------------------------------------------
# Family III: always-singular profile with a cubic-like denominator
# ---------------------------------------------------------------------------


def _family_III():
    free = ("lam1", "lam3", "A", "kappa", "tau", "a1")

    pa1, pa2 = ParamPoly.var("a1"), ParamPoly.var("a2")
    ansatz = ExpAnsatz(a=(0, "a1", "a2"),
                       b=(-pa1**3, -3 * pa1**2 * pa2, 3 * pa1 * pa2**2, ParamPoly.var("a3") ** 3))

    def branches(values):
        q = _sqrt_branches(values.radicand("a2"))[0]
        a2 = -q / (6 * values["a1"])
        alpha = q * values["lam1"] / values["A"]  # sqrt(lam1*lam3) = q*lam1
        vs = _sqrt_branches(values.radicand("v"))
        # the printed symbol a3 is undefined; any stand-in shows the literal reading
        for reading, a3 in {"a3_as_a2": a2, "a3_literal": a2 + 1}.items():
            for vi, v in enumerate(vs):
                if v == 0:
                    continue
                yield reading, f"v{'+-'[vi]}", {"a2": a2, "a3": a3, "alpha": alpha, "v": v}

    def propose(rng):
        lam1 = _positive(rng, 4)
        q = _positive(rng, 4)
        lam3 = q * q * lam1
        A = _positive(rng, 4)
        tau = _positive(rng, 3)
        v = _nonzero(rng, -4, 4)
        kappa = v * v * tau - A * A / lam3
        if kappa < 0:
            return None
        return {"lam1": lam1, "lam3": lam3, "A": A, "kappa": kappa,
                "tau": tau, "a1": _nonzero(rng, -3, 3)}

    entry = CatalogEntry(
        family_id="III",
        shape="singular",
        free=free,
        derived={
            "a2": "-sqrt(lam3/lam1)/(6*a1)",
            "alpha": "sqrt(lam1*lam3)/A",
            "v": "+/- sqrt((A^2/lam3 + kappa)/tau)",
        },
        admissibility=("lam1 > 0", "lam3 > 0", "A > 0", "tau > 0", "a1 != 0"),
        annotations=(
            "the printed denominator uses an undefined symbol a3; both the literal "
            "reading and the a3 -> a2 reinterpretation are adjudicated, and only "
            "the reinterpretation verifies",
            "the printed reaction reads lam1*u + lam3*u; the cubic reading "
            "lam1*u + lam3*u^3 is adopted (the conditions involve sqrt(lam3/lam1))",
            "the denominator always vanishes for some real xi, so scans run on "
            "the largest pole-free subinterval of [-10, 10]",
        ),
    )
    return _table_family(entry, ansatz, propose, branches, adopted="a3_as_a2")


# ---------------------------------------------------------------------------
# Family IVa: palindromic two-hump profile for the nonlinear d'Alembert case
# ---------------------------------------------------------------------------


def _family_IVa():
    free = ("a0", "a1", "b0", "b1", "alpha", "v", "tau", "kappa")
    derived = {
        "lam0": "a0*(2*a0^2*b0 - a1^2*b0 - a0*a1*b1)*alpha*h/Delta^2",
        "lam1": "(a1^2*b0^2 + 4*a0*a1*b0*b1 + a0^2*(-6*b0^2 + b1^2))*alpha*h/Delta^2",
        "lam2": "3*b0*(2*a0*b0^2 - a1*b0*b1 - a0*b1^2)*alpha*h/Delta^2",
        "lam3": "-2*b0*(b0^2 - b1^2)*alpha*h/Delta^2",
    }
    readings = {
        "corrected-lam3": {"lam3": "-2*b0^2*(b0^2 - b1^2)*alpha*h/Delta^2"},
        "as-printed": {},
    }

    def propose(rng):
        return {"a0": _nonzero(rng, -4, 4), "a1": _frac(rng, -4, 4),
                "b0": _positive(rng, 4), "b1": _positive(rng, 4),
                "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
                "tau": rng.choice((Fraction(0), _positive(rng, 3))),
                "kappa": _positive(rng, 4)}

    entry = CatalogEntry(
        family_id="IVa",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("a0 != 0", "b0 != 0", "|a1| + |b1| != 0", "Delta != 0",
                       "alpha != 0"),
        annotations=(
            f"the printed lam3 = {derived['lam3']} drops a factor of b0; the corrected "
            f"lam3 = {readings['corrected-lam3']['lam3']} "
            "(re-derived by exact interpolation) is adopted; the b1 = 0, b0 = 1 "
            "special case printed alongside is consistent only with the correction",
        ),
    )
    pa = {n: ParamPoly.var(n) for n in ("a0", "a1", "b0", "b1")}
    ansatz = ExpAnsatz(a=(pa["a0"], 2 * pa["a1"], pa["a0"]),
                       b=(pa["b0"], 2 * pa["b1"], pa["b0"]))
    return _table_family(entry, ansatz, propose, _readings(readings), adopted="corrected-lam3")


# ---------------------------------------------------------------------------
# Family IVa-special: b1 = 0, b0 = 1, arbitrary alpha
# ---------------------------------------------------------------------------


def _family_IVa_special():
    free = ("lam0", "lam1", "lam2", "lam3", "kappa", "tau", "alpha")
    derived = {
        "a0": "-lam2/(3*lam3)",
        "a1": "sqrt(2*(lam2^2 - lam1*lam3)/lam3^2)",
        "v": "+/- sqrt((lam1 - lam2^2/(3*lam3) + kappa*alpha^2)/(tau*alpha^2))",
    }
    a1_radicands = {"corrected-a1": "(2/3)*(lam2^2 - 3*lam1*lam3)/lam3^2",
                    "as-printed": _radicands(derived["a1"])[0]}

    def branches(values):
        v_rad = values.radicand("v")
        if v_rad < 0:
            raise Inadmissible("IVa-special needs v radicand >= 0")
        vs = _sqrt_branches(v_rad)
        a1_rads = {r: _formula(t)(values) for r, t in a1_radicands.items()}
        if all(q < 0 for q in a1_rads.values()):
            raise Inadmissible("IVa-special needs a1 radicand >= 0")
        for reading, a1_rad in a1_rads.items():
            if a1_rad < 0:
                continue
            for i, a1 in enumerate(_sqrt_branches(a1_rad)):
                for j, v in enumerate(vs):
                    if v == 0:
                        continue
                    yield reading, f"a1{'+-'[i]} v{'+-'[j]}", {"a1": a1, "v": v}

    def propose(rng):
        lam2 = _frac(rng, -4, 4)
        lam3 = _nonzero(rng, -4, 4)
        # a1^2 is the corrected radicand
        a1 = _frac(rng, -4, 4)
        lam1 = (lam2 * lam2 - Fraction(3, 2) * lam3**2 * a1**2) / (3 * lam3)
        alpha = _small_alpha(rng)
        tau = _positive(rng, 3)
        v = _nonzero(rng, -3, 3)
        kappa = v * v * tau - (lam1 - lam2**2 / (3 * lam3)) / alpha**2
        if kappa < 0:
            return None
        a0 = _Derived({"lam2": lam2, "lam3": lam3}, derived)["a0"]
        lam0 = -(lam1 * a0 + lam2 * a0**2 + lam3 * a0**3)
        return {"lam0": lam0, "lam1": lam1, "lam2": lam2, "lam3": lam3,
                "kappa": kappa, "tau": tau, "alpha": alpha}

    entry = CatalogEntry(
        family_id="IVa-special",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("lam3 != 0", "alpha != 0", "tau > 0", "v radicand >= 0",
                       "a1 radicand >= 0",
                       "lam0 + lam1*a0 + lam2*a0^2 + lam3*a0^3 = 0"),
        annotations=(
            "the side condition pins lam0; alpha stays a free parameter",
            f"the printed a1 radicand {a1_radicands['as-printed']} does not verify; "
            f"the corrected radicand {a1_radicands['corrected-a1']}, derived "
            "from the corrected parent table, is adopted (the printed v formula "
            "is consistent with the correction)",
        ),
    )
    pa0, pa1 = ParamPoly.var("a0"), ParamPoly.var("a1")
    ansatz = ExpAnsatz(a=(pa0, 2 * pa1, pa0), b=(1, 0, 1))
    return _table_family(entry, ansatz, propose, branches, adopted="corrected-a1")


# ---------------------------------------------------------------------------
# Families IVb / IVc / IVd: squared palindromic profiles, half-integer reaction
# ---------------------------------------------------------------------------


def _family_IVb():
    free = ("b0", "b1", "alpha", "v", "tau", "kappa")
    derived = {
        "lam1/2": "-3*alpha*h/b1",
        "lam1": "(12*b0 + 4*b1)*alpha*h/b1",
        "lam3/2": "-(15*b0^2 + 10*b0*b1)*alpha*h/b1",
        "lam2": "(6*b0^2*b1 + 6*b0^3)*alpha*h/b1",
    }

    def propose(rng):
        return {"b0": _positive(rng, 4), "b1": _positive(rng, 4),
                "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
                "tau": rng.choice((Fraction(0), _positive(rng, 3))),
                "kappa": _positive(rng, 4)}

    entry = CatalogEntry(
        family_id="IVb",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("b1 != 0", "alpha != 0"),
        annotations=(),
    )
    pb0, pb1 = ParamPoly.var("b0"), ParamPoly.var("b1")
    ansatz = ExpAnsatz(a=(1, 2, 1), b=(pb0, 2 * pb0 + 4 * pb1, pb0), power=2)
    return _table_family(entry, ansatz, propose)


def _family_IVc():
    free = ("a0", "a1", "alpha", "v", "tau", "kappa")
    derived = {
        "lam0": "2*a0^2*(a0 + a1)*alpha*h/a1",
        "lam1/2": "(9*a0^2 + 6*a0*a1)*alpha*h/a1",
        "lam1": "(12*a0 + 4*a1)*alpha*h/a1",
        "lam3/2": "-5*alpha*h/a1",
    }
    readings = {
        "corrected-lam1/2": {"lam1/2": "-(9*a0^2 + 6*a0*a1)*alpha*h/a1"},
        "as-printed": {},
    }

    def propose(rng):
        return {"a0": _frac(rng, -4, 4), "a1": _nonzero(rng, -4, 4),
                "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
                "tau": rng.choice((Fraction(0), _positive(rng, 3))),
                "kappa": _positive(rng, 4)}

    entry = CatalogEntry(
        family_id="IVc",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("a1 != 0", "alpha != 0"),
        annotations=(
            f"the printed lam1/2 = {derived['lam1/2']} does not verify on either sqrt(u) "
            "branch (flipping the branch also flips lam3/2); the sign-corrected "
            f"lam1/2 = {readings['corrected-lam1/2']['lam1/2']} is adopted",
        ),
    )
    pa0, pa1 = ParamPoly.var("a0"), ParamPoly.var("a1")
    ansatz = ExpAnsatz(a=(pa0, 2 * pa0 + 4 * pa1, pa0), b=(1, 2, 1), power=2)
    return _table_family(entry, ansatz, propose, _readings(readings),
                         adopted="corrected-lam1/2")


def _family_IVd():
    free = ("a0", "a1", "alpha", "v", "tau", "kappa")
    derived = {
        "lam1": "4*alpha*h",
        "lam3/2": "-10*a1*alpha*h",
        "lam2": "(6*a1^2 - 6*a0^2)*alpha*h",
    }

    def propose(rng):
        a0 = _nonzero(rng, -4, 4)
        # |a1| < |a0| keeps the denominator a0*cosh + a1 away from zero
        a1 = Fraction(rng.randint(-abs(a0.numerator) + 1, abs(a0.numerator) - 1),
                      a0.denominator) if abs(a0.numerator) > 1 else Fraction(0)
        return {"a0": a0, "a1": a1,
                "alpha": _small_alpha(rng), "v": _nonzero(rng, -4, 4),
                "tau": rng.choice((Fraction(0), _positive(rng, 3))),
                "kappa": _positive(rng, 4)}

    entry = CatalogEntry(
        family_id="IVd",
        shape="soliton-like",
        free=free,
        derived=derived,
        admissibility=("a0 != 0", "alpha != 0"),
        annotations=("equivalent to u = [a0*cosh(alpha*xi) + a1]^-2 up to gauge",),
    )
    pa0, pa1 = ParamPoly.var("a0"), ParamPoly.var("a1")
    return _table_family(entry, ExpAnsatz(a=(0, 2, 0), b=(pa0, 2 * pa1, pa0), power=2), propose)


# ---------------------------------------------------------------------------
# Families IVe-a/b/c: hyperbolic profiles of the nonlinear d'Alembert equation
# ---------------------------------------------------------------------------


def _family_IVe_a():
    free = ("lam1", "lam3", "tau", "kappa", "v")

    def branches(values):
        k = _sqrt_branches(values.radicand("u", 1))[0]
        amp = _sqrt_branches(values.radicand("u", 0))[0]
        # amp*sech(k*xi) = 2*amp*E/(1 + E^2) with E = exp(k*xi)
        yield "main", "direct", {"a1": 2 * amp, "alpha": k}

    def propose(rng):
        k = _nonzero(rng, -3, 3)
        amp = _positive(rng, 4)
        tau = _positive(rng, 3)
        v = _nonzero(rng, -3, 3)
        H = tau * v * v * Fraction(rng.randint(1, 4), 4)
        kappa = tau * v * v - H
        lam1 = k * k * H
        lam3 = -2 * lam1 / (amp * amp)
        return {"lam1": lam1, "lam3": lam3, "tau": tau, "kappa": kappa, "v": v}

    entry = CatalogEntry(
        family_id="IVe-a",
        shape="soliton-like",
        free=free,
        derived={"u": "sqrt(-2*lam1/lam3)*sech(sqrt(lam1/H)*xi)", "H": NOTATION["H"]},
        admissibility=("lam1 > 0", "lam3 < 0", "H > 0"),
        annotations=(),
    )
    return _table_family(entry, ExpAnsatz(a=(0, "a1"), b=(1, 0, 1)), propose, branches)


def _family_IVe_b():
    free = ("lam1", "lam3", "tau", "kappa", "v")

    c = ParamPoly.var("c")
    # amp*tanh(k*xi) = amp*(E^2 - 1)/(E^2 + 1) with E = exp(k*xi)
    ansatz = ExpAnsatz(a=(-c, 0, c), b=(1, 0, 1))

    def branches(values):
        k = _sqrt_branches(values.radicand("u", 1))[0]  # corrected argument
        amp = _sqrt_branches(values.radicand("u", 0))[0]
        yield "main", "corrected-argument", {"c": amp, "alpha": k}

    def propose(rng):
        k = _nonzero(rng, -3, 3)
        amp = _positive(rng, 4)
        tau = _positive(rng, 3)
        v = _nonzero(rng, -3, 3)
        H = tau * v * v * Fraction(rng.randint(1, 4), 4)
        kappa = tau * v * v - H
        lam1 = -2 * H * k * k
        lam3 = -lam1 / (amp * amp)
        return {"lam1": lam1, "lam3": lam3, "tau": tau, "kappa": kappa, "v": v}

    entry = CatalogEntry(
        family_id="IVe-b",
        shape="kink-like",
        free=free,
        derived={"u": "sqrt(-lam1/lam3)*tanh(sqrt(-lam1/(2*H))*xi)", "H": NOTATION["H"]},
        admissibility=("lam1 < 0", "lam3 > 0", "H > 0"),
        annotations=(
            "the tanh argument is printed as sqrt(-lam1)/(2*H); the corrected "
            "argument sqrt(-lam1/(2*H)) verifies and is adopted; the printed "
            "variant is scanned and reported alongside",
        ),
    )
    family = _table_family(entry, ansatz, propose, branches)

    def printed_argument_scan(fv) -> float:
        """Residual of the tanh profile with the printed argument sqrt(-lam1)/(2H)."""
        [corrected] = family.instances(fv)
        k = math.sqrt(float(-fv["lam1"])) / (2 * float(_Derived(fv)["H"]))
        amp = math.sqrt(float(-fv["lam1"] / fv["lam3"]))
        printed = replace(corrected, assignment={**corrected.assignment, "c": amp, "alpha": k},
                          branch="printed-argument")
        [scan] = residual_scan([(printed.pde, printed.solution, SCAN_WINDOW)], SCAN_SAMPLES)
        if isinstance(scan, Exception):
            raise scan
        return scan

    return replace(family, printed_argument_scan=printed_argument_scan)


def _family_IVe_c():
    free = ("lam1", "lam2", "tau", "kappa", "v")

    def branches(values):
        k = _sqrt_branches(values.radicand("u"))[0]
        amp = -3 * values["lam1"] / (2 * values["lam2"])
        # amp*sech^2(k*xi/2) = 4*amp*E/(1 + E)^2 with E = exp(k*xi)
        yield "main", "direct", {"a1": 4 * amp, "alpha": k}

    def propose(rng):
        k = _nonzero(rng, -3, 3)
        tau = _positive(rng, 3)
        v = _nonzero(rng, -3, 3)
        H = tau * v * v * Fraction(rng.randint(1, 4), 4)
        kappa = tau * v * v - H
        return {"lam1": k * k * H, "lam2": _nonzero(rng, -4, 4),
                "tau": tau, "kappa": kappa, "v": v}

    entry = CatalogEntry(
        family_id="IVe-c",
        shape="soliton-like",
        free=free,
        derived={"u": "-(3*lam1/(2*lam2))*sech^2(sqrt(lam1/H)*xi/2)", "H": NOTATION["H"]},
        admissibility=("lam1 > 0", "lam2 != 0", "H > 0"),
        annotations=(),
    )
    return _table_family(entry, ExpAnsatz(a=(0, "a1"), b=(1, 2, 1)), propose, branches)


# ---------------------------------------------------------------------------
# Burgers shock: parabolic limit, no reaction term
# ---------------------------------------------------------------------------


def _family_burgers():
    free = ("a0", "a1", "b0", "b1", "A", "B", "kappa")
    derived = {
        "v": "-A*Theta/(2*B*b0*b1)",
        "alpha": "-A*Delta/(2*kappa*b0*b1)",
    }

    def propose(rng):
        b0 = _nonzero(rng, -4, 4)
        b1 = _positive(rng, 4) if b0 > 0 else -_positive(rng, 4)
        return {"a0": _frac(rng, -4, 4), "a1": _frac(rng, -4, 4),
                "b0": b0, "b1": b1, "A": _positive(rng, 4),
                "B": _positive(rng, 3), "kappa": _positive(rng, 3)}

    entry = CatalogEntry(
        family_id="Burgers-shock",
        shape="kink-like",
        free=free,
        derived=derived,
        admissibility=("A > 0", "B > 0", "kappa > 0", "b0*b1 > 0", "Delta != 0"),
        annotations=("independent oracle: one integration of the travelling "
                     "Burgers equation against the front's two asymptotic states",),
    )
    return _table_family(entry, ExpAnsatz(a=("a0", "a1"), b=("b0", "b1")), propose)


FAMILIES: dict[str, Family] = {
    family.entry.family_id: family
    for family in (builder() for builder in (
        _family_I, _family_I_tanh, _family_I_kink2, _family_II, _family_III, _family_IVa,
        _family_IVa_special, _family_IVb, _family_IVc, _family_IVd, _family_IVe_a,
        _family_IVe_b, _family_IVe_c, _family_burgers))
}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def list_families() -> list[CatalogEntry]:
    return [fam.entry for fam in FAMILIES.values()]


def get_family(family_id: str) -> Family:
    if family_id not in FAMILIES:
        raise UnknownFamily(f"unknown family {family_id!r}; known: {', '.join(FAMILIES)}")
    return FAMILIES[family_id]


def _judged(insts: list[Instance], shape: str, memo: dict) -> Iterator[
        tuple[Instance, AlgebraicSystem, Verdict | None, float | None, str | None]]:
    """Each instance with its system (reduced once per PDE and ansatz, with
    ``reduce``'s ``memo``), exact verdict (when rational), scan residual, and
    any scan failure note.

    Every instance is scanned first, in one ``residual_scan`` stack.  An
    instance whose solution cannot be built, or whose scan stops with an
    error that is not a pole, raises that error only when the loop reaches
    it, after its reduction and verdict, as a loop over it alone would."""
    built = []  # each instance's solution, or the error that building it raised
    for inst in insts:
        try:
            built.append(inst.solution)
        except Exception as exc:  # raised below, when the loop reaches it
            built.append(exc)
    # a singular profile's denominator always vanishes somewhere; scan clear of it
    scans = iter(residual_scan([
        (inst.pde, sol, _pole_free_window(sol.poles) if shape == "singular" else SCAN_WINDOW)
        for inst, sol in zip(insts, built) if not isinstance(sol, Exception)], SCAN_SAMPLES))
    systems: dict = {}
    for inst, sol in zip(insts, built):
        key = (inst.pde, inst.ansatz)
        system = systems.get(key)
        if system is None:
            system = systems[key] = reduce(inst.pde, inst.ansatz, memo)
        verdict = verify_assignment(system, inst.assignment) if inst.exact else None
        scan = sol if isinstance(sol, Exception) else next(scans)
        if isinstance(scan, PoleInWindow):
            yield inst, system, verdict, None, str(scan)
        elif isinstance(scan, Exception):
            raise scan
        else:
            yield inst, system, verdict, scan, None


def _pole_free_window(poles):
    """Largest subinterval of SCAN_WINDOW staying POLE_MARGIN away from every pole."""
    lo, hi = SCAN_WINDOW
    cuts = [lo] + sorted(p for p in poles if lo < p < hi) + [hi]
    gaps = [(a + (POLE_MARGIN if a != lo else 0.0), b - (POLE_MARGIN if b != hi else 0.0))
            for a, b in zip(cuts, cuts[1:])]
    best = max(gaps, key=lambda gap: gap[1] - gap[0])
    return best if best[1] - best[0] >= 0.5 else (lo, hi)


def instantiate(family_id: str, free_values: Mapping[str, Fraction]):
    """Instantiate a family, resolving radical sign branches by verification.

    Returns (assignment, solution) for the first branch that verifies (exact
    annihilation when the assignment is rational, residual scan below 1e-9
    otherwise).  Raises SchemaError when the names given are not the family's
    free parameters, Inadmissible or BranchFailure.
    """
    fam = get_family(family_id)
    free = fam.entry.free
    problems = [f"missing {name}" for name in free if name not in free_values]
    problems += [f"unknown {name}" for name in free_values if name not in free]
    if problems:
        raise SchemaError(f"{family_id} free parameters: {', '.join(problems)} "
                          f"(expected {', '.join(free)})")
    insts = [i for i in fam.instances(free_values) if i.reading == fam.adopted]
    rejected = []
    for inst, _, verdict, scan, note in _judged(insts, fam.entry.shape, {}):
        ok = verdict.passed if verdict is not None else (scan is not None and scan < SCAN_TOL)
        if ok:
            return dict(inst.assignment), inst.solution
        rejected.append((inst.branch, verdict, scan, note))
    detail = "; ".join(
        f"{branch}: " + (v.report if v else f"scan={s if s is not None else note}")
        for branch, v, s, note in rejected
    )
    raise BranchFailure(f"no branch of {family_id} verifies: {detail}")


def verify_entry(family_id: str, trials: int = 5, seed: int = 1) -> dict:
    """Adjudicate a family: random admissible draws, exact + numeric checks.

    The per-trial RNG derives from (seed, family_id), so families verify
    independently and reports are reproducible.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    fam = get_family(family_id)
    rng = random.Random(f"{seed}:{family_id}")
    overall_pass = True
    readings_pass: dict[str, bool] = {}
    branches_used: set[str] = set()
    details = []
    memo: dict = {}  # the family's ansatz terms, shared by its trials
    # every trial drawn first, so that all their instances are scanned in one stack
    drawn = [(fv, fam.instances(fv)) for fv in (fam.draw(rng) for _ in range(trials))]
    judged = _judged([inst for _, insts in drawn for inst in insts], fam.entry.shape, memo)
    for fv, insts in drawn:
        chosen = None
        failures = []
        trial_readings: dict[str, bool] = {}
        for inst, system, verdict, scan, note in islice(judged, len(insts)):
            exact_ok = verdict.passed if verdict is not None else None
            scan_ok = scan is not None and scan < SCAN_TOL
            ok = (exact_ok if exact_ok is not None else scan_ok) and scan_ok
            trial_readings[inst.reading] = trial_readings.get(inst.reading, False) or bool(ok)
            if ok and chosen is None and inst.reading == fam.adopted:
                chosen = (inst, verdict, scan)
            if not ok:
                failures.append(_failure_record(inst, system, verdict, exact_ok, scan, note))
        for reading, ok in trial_readings.items():
            readings_pass[reading] = readings_pass.get(reading, True) and ok
        detail = {
            "free": {k: frac_str(v) for k, v in sorted(fv.items())},
            "status": "PASS" if chosen else "FAIL",
            "branch": chosen[0].branch if chosen else None,
            "exact": ("PASS" if chosen[1] is not None else "SKIPPED-irrational") if chosen else None,
            "scan": _fmt(chosen[2]) if chosen else None,
            "failures": failures if not chosen else
                        [f for f in failures if f["reading"] != fam.adopted],
        }
        if chosen:
            branches_used.add(chosen[0].branch)
        else:
            overall_pass = False
        details.append(detail)

    report = {
        "family": family_id,
        "shape": fam.entry.shape,
        "trials": trials,
        "seed": seed,
        "expected": "PASS" if overall_pass else "FAIL-DOCUMENTED",
        "branch_notes": ", ".join(sorted(branches_used)) or "none",
        "annotations": list(fam.entry.annotations),
        "trials_detail": details,
    }
    report["adopted_reading"] = fam.adopted
    if len(readings_pass) > 1:
        report["readings"] = {
            r: "PASS" if ok else "FAIL-DOCUMENTED" for r, ok in sorted(readings_pass.items())
        }
    if fam.printed_argument_scan is not None:
        probe = random.Random(f"{seed}:{family_id}:printed")
        report["printed_argument_scan"] = _fmt(fam.printed_argument_scan(fam.draw(probe)))
    return report


def _failure_record(inst, system, verdict, exact_ok, scan, note):
    failing = []
    if verdict is not None and not verdict.passed:
        failing = [
            {"equation": i, "E_power": system.provenance[i], "residual": frac_str(r)}
            for i, r in enumerate(verdict.residuals) if r != 0
        ]
    return {
        "reading": inst.reading,
        "branch": inst.branch,
        "exact": ("PASS" if exact_ok else "FAIL") if exact_ok is not None else "SKIPPED",
        "scan": _fmt(scan),
        "note": note,
        "failing_equations": failing,
    }


def _fmt(x) -> str | None:
    return None if x is None else format(float(x), ".17g")


def load_expectations(path) -> dict:
    """Read an expectations file: an object of objects, one per family."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from None
    if not (isinstance(doc, dict) and all(isinstance(e, dict) for e in doc.values())):
        raise SchemaError("expectations must be an object with an object per family")
    return doc


def matches_expectations(report: dict, expected_entry: dict) -> bool:
    """Compare an adjudication report against the committed expectation."""
    if report["expected"] != expected_entry.get("expected"):
        return False
    want_readings = expected_entry.get("readings")
    if want_readings:
        return report.get("readings") == want_readings
    return True
