"""Travelling-wave reduction of the transport PDE to polynomial systems.

Substituting u = w^p with w = (sum a_mu E^mu)/(sum b_nu E^nu), E = exp(alpha*xi),
xi = x + v*t turns every PDE term into a rational function of E: d/dxi acts as
alpha*E*d/dE, so u_t = v*u', u_x = u', u_tt = v^2*u''.  Clearing the common
denominator (an exact power of the ansatz denominator) leaves a polynomial in
E whose coefficients must vanish individually, since the powers of E are
functionally independent.  Those coefficients form the emitted algebraic
system.

The inverse check, ``residual_scan``, evaluates the PDE residual pointwise on
a xi-grid from the analytic derivatives, so the two routes are independent.

numpy is imported inside the functions that make floats, not at module
level, so the exact route (``reduce``, ``verify_assignment``) and the
commands built on it start without loading it.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .model import (
    ALLOWED_EXPONENTS,
    DomainError,
    HyperbolicPDE,
    InputError,
    NumericFailure,
    SchemaError,
)
from .symcore import (
    E_NAME,
    DivisionByZero,
    MissingParameter,
    Number,
    ParamPoly,
    _coeff,
    _merge,
    frac_str,
    int_digit_limit,
    lowest_terms,
    parse_poly_text,
    reduced_pair,
)

Coefficient = Union[str, Fraction, int, ParamPoly]


class PowerMismatch(InputError):
    """Half-integer reaction exponents require the squared ansatz (p = 2)."""


class EmptyAnsatz(InputError):
    """Ansatz with no terms, or an identically-zero numerator/denominator."""


class MissingUnknown(InputError, KeyError):
    """Assignment does not cover every unknown of the system."""


class PoleInWindow(ValueError, NumericFailure):
    """Residual scan hit an undeclared pole of the solution."""


@dataclass(frozen=True)
class ExpAnsatz:
    """u = [ (a_0 + ... + a_m E^m) / (b_0 + ... + b_n E^n) ]^power.

    Coefficient slots may be symbol names, exact rationals, or small
    polynomial expressions in symbols (e.g. the palindromic numerators of the
    even families need slots like 2*a1).  No leading-coefficient gauge is
    imposed.  The growth rate of E = exp(alpha*xi) and the velocity are
    always the unknowns alpha and v.
    """

    a: tuple[Coefficient, ...]
    b: tuple[Coefficient, ...]
    power: int = 1

    def __post_init__(self):
        if self.power not in (1, 2):
            raise DomainError("ansatz power must be 1 or 2")
        if not self.a or not self.b:
            raise EmptyAnsatz("coefficient lists must be non-empty")
        if all(_is_zero_number(c) for c in self.a):
            raise EmptyAnsatz("numerator is identically zero")
        if all(_is_zero_number(c) for c in self.b):
            raise EmptyAnsatz("denominator is identically zero")

    @property
    def m(self) -> int:
        return len(self.a) - 1

    @property
    def n(self) -> int:
        return len(self.b) - 1

    def symbols(self) -> tuple[str, ...]:
        """Unknowns, in slot order: numerator, denominator, alpha, v."""
        seen: dict[str, None] = {}
        for c in (*self.a, *self.b, "alpha", "v"):
            if isinstance(c, str):
                seen.setdefault(c)
            elif isinstance(c, ParamPoly):
                for name in c.variables:
                    seen.setdefault(name)
        return tuple(seen)


def _is_zero_number(c: Coefficient) -> bool:
    return not isinstance(c, (str, ParamPoly)) and Fraction(c) == 0


@dataclass(frozen=True)
class AlgebraicSystem:
    """Polynomial equations produced by equating E-power coefficients to zero."""

    unknowns: tuple[str, ...]
    equations: tuple[ParamPoly, ...]
    provenance: tuple[int, ...]  # E power each equation came from
    parameters: tuple[str, ...] = ()  # symbolic reaction coefficients

    def all_symbols(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((*self.unknowns, *self.parameters)))

    def to_json(self) -> str:
        doc = {
            "unknowns": list(self.unknowns),
            "parameters": list(self.parameters),
            "equations": [eq.to_text() for eq in self.equations],
            "provenance": {str(i): k for i, k in enumerate(self.provenance)},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "AlgebraicSystem":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        if not isinstance(doc, dict):
            raise SchemaError("top-level value must be an object")
        for key in ("unknowns", "parameters", "equations", "provenance"):
            if key not in doc:
                raise SchemaError(f"system document missing key {key!r}")
        names = [doc[key] for key in ("unknowns", "parameters", "equations")]
        if not all(isinstance(v, list) and all(isinstance(s, str) for s in v) for v in names):
            raise SchemaError("unknowns, parameters and equations must be lists of strings")
        unknowns, parameters, texts = map(tuple, names)
        try:
            equations = tuple(parse_poly_text(s) for s in texts)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
        allowed = set(unknowns) | set(parameters)
        for eq in equations:
            stray = set(eq.variables) - allowed
            if stray:
                raise SchemaError(f"equation uses undeclared symbols {sorted(stray)}")
        given = doc["provenance"] if isinstance(doc["provenance"], dict) else {}
        provenance = tuple(given.get(str(i)) for i in range(len(equations)))
        if not all(type(k) is int for k in provenance):
            raise SchemaError("provenance must give each equation index an integer E power")
        return AlgebraicSystem(unknowns, equations, provenance, parameters)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact or numeric verification."""

    status: str  # "PASS" | "FAIL"
    residuals: tuple
    report: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass(frozen=True)
class ClosedFormSolution:
    """A fully numeric travelling-wave solution u = w(E)^power, E = exp(alpha*xi).

    w = (sum num[k] E^k) / (sum den[k] E^k): integer coefficients, lowest
    power of E first, held in ``symcore.reduced_pair``'s canonical form
    whatever pair is given: ``ClosedFormSolution((6, 2), (-2, 2), ...)``
    holds (3, 1) over (-1, 1).  The residual scan reads the pair as it is.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    alpha: float | Fraction
    velocity: float | Fraction
    power: int = 1
    poles: tuple[float, ...] = ()  # xi locations where the denominator vanishes

    def __post_init__(self):
        if not all(isinstance(c, int) for c in (*self.num, *self.den)):
            raise ValueError("closed-form solution coefficients must be integers")
        if not any(self.den):
            raise ValueError("closed-form solution denominator is identically zero")
        num, den = reduced_pair(self.num, self.den)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))


#: ``reduce`` refuses an ansatz whose largest product could have more terms
#: than this.  At the limit, telegraph_cubic at ansatz 80/1 (98 770 terms)
#: reduces in about 2 s and 140 MB (CPython 3.11 on x86-64); time and memory
#: grow about as fast as the bound.
MAX_PRODUCT_TERMS = 100_000

#: samples this close to a declared pole are skipped by ``residual_scan`` and
#: NaN in ``sample_solution``
POLE_EXCLUSION = 1e-3


def check_ansatz_size(terms: int, power: int) -> int:
    """Refuse an ansatz whose slots have ``terms`` terms in all if a product
    could have more than MAX_PRODUCT_TERMS terms; return K.

    A term of the residual cleared by g^K is a product of K of f and g and
    at most four of alpha, v and a symbol (tau's v^2*alpha^2); K is at most
    the largest k.  So a product has at most as many terms as there are
    multisets of K of the terms of f and g (alpha, v and a symbol are one
    term each)."""
    K = max(power + 2, 2 * power + 1, int(max(ALLOWED_EXPONENTS) * power))
    size = math.comb(terms + K - 1, K)
    if size > MAX_PRODUCT_TERMS:
        raise DomainError(f"an ansatz of {terms} coefficient terms at power {power} may make "
                          f"products of {size} terms, over the limit of {MAX_PRODUCT_TERMS}")
    return K


#: ``struct`` codes of the unsigned packed-monomial fields by their size in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _mul(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    """The product of two (D, terms) pairs, its pairs of terms taken in
    ``ParamPoly.__mul__``'s order; two packed monomials multiply by adding."""
    (Da, ta), (Db, tb) = a, b
    return Da * Db, _merge({}, ((ka + kb, ca * cb) for ka, ca in ta.items()
                                for kb, cb in tb.items()))


def _sub(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    """a - b over the lcm of their denominators, in ``ParamPoly.__sub__``'s order."""
    (Da, ta), (Db, tb) = a, b
    D = math.lcm(Da, Db)
    sa, sb = D // Da, D // Db
    return D, _merge({k: c * sa for k, c in ta.items()}, ((k, -c * sb) for k, c in tb.items()))


def _pow(base: tuple[int, dict], n: int) -> tuple[int, dict]:
    """base**n by ``ParamPoly.__pow__``'s squarings."""
    result = (1, {0: 1})
    while n:
        if n & 1:
            result = _mul(result, base)
        if n > 1:
            base = _mul(base, base)
        n >>= 1
    return result


class _AnsatzTerms:
    """The part of ``reduce`` that depends on the ansatz (and the names of the
    PDE's symbolic coefficients) alone, each piece made on first use: u =
    N0/g^p and its xi-derivatives N1/g^(p+1) and N2/g^(p+2); the factor that
    each PDE term multiplies its coefficient by; and that factor times
    g^(K-k), split by power of E.

    Each polynomial is a pair (D, terms): integer coefficients over one
    positive denominator D, the layout of FLINT's ``fmpq_poly``.  A term is
    keyed by its monomial packed into one int, a field of ``width`` bits per
    variable: the exponent of E in the lowest field, those of ``names``
    above it, the last name lowest.  ``width`` is 8, 16, 32 or 64, the
    least that holds the largest exponent any product can reach (from the
    slots' exponents, the ansatz degrees, the power and the largest reaction
    exponent), so two monomials multiply by adding their keys and
    ``unpacked`` reads the fields with ``struct``.  Every operation takes its
    pairs of terms in the order of the ``ParamPoly`` operation it stands
    for, so the terms come in the order ``ParamPoly`` gives them."""

    __slots__ = ("names", "width", "shift", "f", "g", "alpha", "linear", "factors",
                 "powers", "buckets")

    def __init__(self, ansatz: ExpAnsatz, symbols: tuple[str, ...]):
        p = ansatz.power
        # counted before any slot is lifted; each factor has exponents up to top
        K = check_ansatz_size(sum(len(c.terms) if isinstance(c, ParamPoly)
                                  else not _is_zero_number(c) for c in (*ansatz.a, *ansatz.b)), p)
        slots = [ParamPoly.lift(c) for c in (*ansatz.a, *ansatz.b, "alpha", "v")]
        top = max(1, ansatz.m, ansatz.n, *(x for s in slots for exps in s.terms for x in exps))
        w = next((8 * size for size in _FIELD_CODES if (K + 4) * top >> 8 * size == 0), None)
        if w is None:
            raise DomainError(f"an ansatz exponent of {top} is too large to reduce")
        # after the budget, so an oversize ansatz is refused before its symbols
        # are walked; a memo hit in reduce skips this, its key holding `symbols`
        unknowns = ansatz.symbols()
        clash = set(unknowns) & (set(symbols) | {E_NAME})
        if clash:
            raise DomainError(f"ansatz symbols collide with model symbols: {sorted(clash)}")
        self.names = tuple(sorted((*unknowns, *symbols)))
        self.width = w
        self.shift = {name: w * (len(self.names) - i) for i, name in enumerate(self.names)}
        self.f = f = self._side(slots[:len(ansatz.a)])
        self.g = g = self._side(slots[len(ansatz.a):-2])
        self.alpha = self._packed(slots[-2])
        v = self._packed(slots[-1])
        N0 = _pow(f, p)
        N1 = _sub(_mul(self._dxi(N0), g), _mul(_mul(N0, (1, {0: p})), self._dxi(g)))
        N2 = _sub(_mul(self._dxi(N1), g), _mul(_mul(N1, (1, {0: p + 1})), self._dxi(g)))
        # tau*u_tt, A*u*u_x, B*u_t and -kappa*u_xx over g^k, without the coefficient
        self.linear = {"tau": lambda: _mul(_mul(v, v), N2), "A": lambda: _mul(N0, N1),
                       "B": lambda: _mul(v, N1), "kappa": lambda: N2}
        self.factors: dict = {}
        self.powers: dict[int, tuple[int, dict]] = {}
        self.buckets: dict = {}

    def _packed(self, poly: ParamPoly, e: int = 0) -> tuple[int, dict]:
        """poly times E^e as a (D, terms) pair."""
        shifts = [self.shift[name] for name in poly.variables]
        D = math.lcm(*(c.denominator for c in poly.terms.values()))
        return D, {sum(x << s for x, s in zip(exps, shifts)) + e:
                   c.numerator * (D // c.denominator) for exps, c in poly.terms.items() if c}

    def _side(self, slots: list[ParamPoly]) -> tuple[int, dict]:
        """The sum of slots[e] * E^e, added from 0 in the order of e."""
        parts = [self._packed(c, e) for e, c in enumerate(slots)]
        D = math.lcm(*(d for d, _ in parts))
        return D, {k: c * (D // d) for d, terms in parts for k, c in terms.items()}

    def _dxi(self, poly: tuple[int, dict]) -> tuple[int, dict]:
        """``symcore.poly_dxi``: E^k picks up a factor k*alpha."""
        D, terms = poly
        mask = (1 << self.width) - 1
        return _mul((D, {k: c * (k & mask) for k, c in terms.items() if k & mask}), self.alpha)

    def factor(self, term) -> tuple[int, dict]:
        """A linear term's factor by name; for the reaction term (e, symbol),
        u^(e/p) over g^e: f^e, times the symbol when there is one."""
        if term not in self.factors:
            if term in self.linear:
                self.factors[term] = self.linear[term]()
            else:
                e, symbol = term
                self.factors[term] = _pow(self.f, e) if symbol is None else (
                    _mul(self._packed(ParamPoly.var(symbol)), _pow(self.f, e)))
        return self.factors[term]

    def cleared(self, term, k: int, K: int) -> tuple[int, dict[int, dict]]:
        """(D, buckets) of factor(term) * g^(K-k) times a positive integer D
        that clears its denominators: buckets[j] maps the packed monomial of
        each term of E^j, without its E field, to its integer coefficient."""
        if (term, K) not in self.buckets:
            if K - k not in self.powers:
                self.powers[K - k] = _pow(self.g, K - k)
            D, product = _mul(self.factor(term), self.powers[K - k])
            w, mask = self.width, (1 << self.width) - 1
            buckets: dict[int, dict] = {}
            for key, c in product.items():
                buckets.setdefault(key & mask, {})[key >> w] = c
            self.buckets[term, K] = D, buckets
        return self.buckets[term, K]

    def unpacked(self, keys) -> list[tuple[int, ...]]:
        """The exponents over ``names`` of each packed monomial without its E
        field, as tuples in the order of ``keys``."""
        n = len(self.names)
        size = self.width // 8
        fields = struct.unpack(f">{n * len(keys)}{_FIELD_CODES[size]}",
                               b"".join([key.to_bytes(n * size, "big") for key in keys]))
        return list(zip(*[iter(fields)] * n))


def reduce(pde: HyperbolicPDE, ansatz: ExpAnsatz, memo: dict | None = None) -> AlgebraicSystem:
    """Emit the algebraic system whose vanishing makes the ansatz a solution.

    Every PDE term is tracked as coefficient*factor/g^k with g the ansatz
    denominator; the residual is cleared by g^K (K the largest k needed) and
    the coefficients of each E power in the cleared numerator are returned,
    each divided by its content.  The residual vanishes identically in xi iff
    every returned equation vanishes.

    The factors, times g^(K-k) and split by power of E, do not depend on the
    PDE's numbers; ``_AnsatzTerms`` makes them on packed integer monomials.
    A caller that reduces one ansatz against many PDEs passes the same
    ``memo`` dict to every call, which then makes each of them once; a call
    only weighs them by its PDE's coefficients, in integers, adds them on
    the packed keys, and unpacks each output term once.  The equations'
    terms come in the order that the same algebra on ``ParamPoly`` gives.
    """
    p = ansatz.power
    if pde.has_half_integer_reaction() and p != 2:
        raise PowerMismatch("half-integer reaction exponents require power 2")
    memo = {} if memo is None else memo
    key = (ansatz, pde.symbols())
    shape = memo.get(key)
    if shape is None:
        shape = memo[key] = _AnsatzTerms(ansatz, pde.symbols())

    # (term, coefficient, k) in the residual's order; a symbolic reaction
    # coefficient lam is a factor of its term, whose coefficient is then -1
    terms = [("tau", pde.tau, p + 2), ("A", pde.A, 2 * p + 1), ("B", pde.B, p + 1),
             ("kappa", -pde.kappa, p + 2)]
    for nu, lam in sorted(pde.reaction.items()):
        e = int(nu * p)
        symbolic = isinstance(lam, str)
        terms.append(((e, lam if symbolic else None), Fraction(-1) if symbolic else -lam, e))
    terms = [(t, c, k) for t, c, k in terms if c and shape.factor(t)[1]]
    K = max((k for _, _, k in terms), default=0)
    parts = [(c, *shape.cleared(t, k, K)) for t, c, k in terms]

    # the residual times L, a positive integer: term i's buckets weigh L*c_i/D_i
    L = math.lcm(*(c.denominator * D for c, D, _ in parts))
    sums: dict[int, dict] = {}
    for c, D, buckets in parts:
        weight = c.numerator * (L // (c.denominator * D))
        for j, bucket in buckets.items():
            _merge(sums.setdefault(j, {}), ((exps, weight * x) for exps, x in bucket.items()))

    provenance = tuple(j for j in sorted(sums) if sums[j])
    equations = []
    for j in provenance:
        keys, values = shape.unpacked(sums[j]), list(sums[j].values())
        content = math.gcd(*values)
        # the content divided out, its sign making the graded-lex leading term positive
        if max(zip(map(sum, keys), keys, values))[2] < 0:
            content = -content
        equations.append(ParamPoly._make(shape.names, dict(zip(
            keys, map(Fraction, [x // content for x in values])))))
    return AlgebraicSystem(
        unknowns=ansatz.symbols(),
        equations=tuple(equations),
        provenance=provenance,
        parameters=pde.symbols(),
    )


def verify_assignment(system: AlgebraicSystem, assignment: Mapping[str, Number]) -> Verdict:
    """Evaluate every equation exactly; PASS iff all residuals are exactly zero."""
    values: dict[str, Fraction] = {}
    for name, value in assignment.items():
        if isinstance(value, float):
            raise TypeError("exact verification requires rational values, got a float "
                            f"for {name!r}")
        values[name] = Fraction(value)
    needed = set()
    for eq in system.equations:
        needed.update(eq.variables)
    missing = needed - set(values)
    if missing:
        raise MissingUnknown(f"missing unknowns: {', '.join(sorted(missing))}")

    residuals = tuple(eq.evaluate(values) for eq in system.equations)
    failing = [i for i, r in enumerate(residuals) if r != 0]
    if not failing:
        return Verdict("PASS", residuals, "all equations vanish exactly")
    try:
        lines = [
            f"equation {i} (E^{system.provenance[i]}): residual {frac_str(residuals[i])}"
            for i in failing
        ]
    except ValueError:  # str() refuses an int over the digit limit
        raise InputError(f"a residual has over {int_digit_limit()} digits, "
                         "too many to print") from None
    return Verdict("FAIL", residuals, "; ".join(lines))


def _compile(polys: list[ParamPoly], unknowns: list[str],
             equation: Callable[[int], int] = lambda k: k
             ) -> Callable[[np.ndarray], np.ndarray]:
    """Compile polynomials in ``unknowns`` to one float evaluator of them all.

    The evaluator maps a point x (float64, in ``unknowns`` order) to the
    array of ``float(p.evaluate(dict(zip(unknowns, x))))``, bit for bit but
    for which NaN comes out where two meet, and a stack of points, shape
    (S, n), to those S arrays as rows.  Each term is float(c) times the
    powers x[i]**e, multiplied in the polynomial's own variable order, and
    the terms are added left to right from 0.0 in dict order.  A missing
    factor reads 1.0 and a padding term 0.0, both exact.  Every power is
    ``np.float_power``, whose only float64 loop is libm's ``pow`` of one
    element, as numpy's scalar power and Python's ``x ** e`` are;
    ``np.power`` is not used, because its vectorised loop rounds
    differently.  A power that overflows is inf.  A large stack is evaluated
    in passes of a bounded number of terms.  A coefficient beyond the float
    range raises NumericFailure naming ``equation(k)`` for the k-th
    polynomial.
    """
    import numpy as np
    column = {name: i for i, name in enumerate(unknowns)}
    slots: dict[tuple[int, int], int] = {}  # (unknown, exponent) -> row of the power table
    # at least one factor, the 1.0 of table row 0 for a polynomial with no
    # variables, so that every product takes the shape of the stack
    depth = max(1, max((len(p.variables) for p in polys), default=0))
    width = max((len(p.terms) for p in polys), default=0)
    # row 0 is the 0.0 the sum starts from; term t (from 1) of polynomial k is coef[t, k]
    coef = np.zeros((width + 1, len(polys), 1))
    index = np.zeros((depth, width + 1, len(polys)), dtype=np.intp)  # table row 0 is 1.0
    for k, poly in enumerate(polys):
        for t, (exps, c) in enumerate(poly.terms.items(), start=1):
            try:
                coef[t, k] = float(c)
            except OverflowError:
                raise NumericFailure(f"equation {equation(k)} has a coefficient beyond "
                                     "the float range") from None
            for d, (name, e) in enumerate(zip(poly.variables, exps)):
                if e:
                    index[d, t, k] = slots.setdefault((column[name], e), len(slots) + 1)
    powers = list(slots)
    bases = np.array([i for i, _ in powers], dtype=np.intp)
    exponents = np.array([e for _, e in powers], dtype=float)[:, None]

    # points per pass: one pass holds at most 2**20 terms (8 MiB), so that
    # memory does not grow with the size of the stack
    chunk = max(1, (1 << 20) // max(1, coef.size))

    def evaluate_pass(points: np.ndarray) -> np.ndarray:
        table = np.ones((len(powers) + 1, len(points)))  # one column per point
        np.float_power(points.T[bases], exponents, out=table[1:])
        terms = coef * table[index[0]]
        for layer in index[1:]:
            terms *= table[layer]
        # term by term, total = total + term; np.sum would add pairwise instead
        return np.add.accumulate(terms)[-1].T

    def evaluate(x: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(x)
        total = np.empty((len(points), len(polys)))
        for at in range(0, len(points), chunk):
            total[at:at + chunk] = evaluate_pass(points[at:at + chunk])
        return total if np.ndim(x) == 2 else total[0]

    return evaluate


def _norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit: both take BLAS's dot."""
    import numpy as np
    return np.sqrt(np.vecdot(rows, rows))


def _newton_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(J[i], -F[i], rcond=None)[0]`` of every i, bit for bit.

    J is a stack of shape (S, m, n) with m, n >= 1 and F has shape (S, m).  An
    element on which LAPACK fails, where lstsq would raise LinAlgError, has
    a row of NaN; the other rows are unaffected.  Every element goes to
    ``_umath_linalg.lstsq``, the gufunc under ``np.linalg.lstsq``, in one
    call: lstsq itself refuses a stack.  A numpy without that gufunc or its
    ``ddd->ddid`` loop gets lstsq one element at a time.
    """
    import numpy as np
    try:
        from numpy.linalg import _umath_linalg
    except ImportError:
        _umath_linalg = None
    _, m, n = J.shape
    gufunc = getattr(_umath_linalg, "lstsq", None)
    if gufunc is not None and "ddd->ddid" in gufunc.types:
        # lstsq's own call, with an error state under which a failed element
        # is NaN instead of raising for the whole stack
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            return gufunc(J, -F[..., None], np.finfo(float).eps * max(m, n),
                          signature="ddd->ddid")[0][..., 0]
    steps = np.full((len(J), n), np.nan)
    for i, (Ji, Fi) in enumerate(zip(J, F)):
        try:
            steps[i] = np.linalg.lstsq(Ji, -Fi, rcond=None)[0]
        except np.linalg.LinAlgError:
            pass
    return steps


def solve_numeric(
    system: AlgebraicSystem,
    fixed: Mapping[str, Number] | None = None,
    seed: int = 1,
    starts: int = 32,
) -> list[dict[str, float]]:
    """Damped Newton with seeded randomized starts.

    Returns every distinct solution with residual sup-norm below 1e-12,
    deduplicated at sup-distance 1e-8 and sorted lexicographically.  An empty
    list reports that no start converged.  The pins in ``fixed`` are
    substituted exactly; one that is not a symbol of the system raises
    SchemaError.

    Start k draws its point from ``default_rng((seed, k))``.  The starts
    advance in lockstep: each round evaluates F and J once for every start
    still going.  The line search takes the first of the steps 2^-h times
    the Newton step, h = 0..29, that lowers the 2-norm of F.  The Newton
    steps of a round are one ``_newton_steps`` call, lstsq on the stack of
    every start's J.  The line search's first F call tries, for every start
    at once, each h up to the one the start's last step took; each further
    call tries the next h of the starts still searching.  So a start whose
    steps take 20 halvings round after round costs one F call a round, not
    21.  A start ends when it converges, when its F or J is not finite,
    when LAPACK fails on it or its step is not finite, when 30 halvings find
    no step, or after 80 rounds; every float operation on it is the one a
    loop over that start alone would take.
    """
    import numpy as np
    if starts < 1:
        raise DomainError("starts must be >= 1")
    if seed < 0:
        raise DomainError("expected non-negative integer")
    fixed = {k: Fraction(v) for k, v in (fixed or {}).items()}
    symbols = system.all_symbols()
    stray = [k for k in fixed if k not in symbols]
    if stray:
        raise SchemaError(f"pinned names not in the system: {', '.join(stray)} "
                          f"(symbols: {', '.join(symbols)})")
    equations = [eq.substitute(fixed) for eq in system.equations]
    unknowns = [u for u in symbols if u not in fixed]
    rows = [i for i, eq in enumerate(equations) if not eq.is_zero()]
    live = [equations[i] for i in rows]
    f_at = _compile(live, unknowns, rows.__getitem__)
    if not unknowns:
        return [{}] if np.all(np.abs(f_at(np.zeros(0))) < 1e-12) else []
    if not live:
        # every equation vanished under `fixed`: the origin is as good as any
        return [dict(zip(unknowns, [0.0] * len(unknowns)))]
    width = len(unknowns)
    jacobian = _compile([eq.diff(u) for eq in live for u in unknowns], unknowns,
                        lambda k: rows[k // width])
    X = np.array([np.random.default_rng((int(seed), k)).uniform(-3.0, 3.0, size=width)
                  for k in range(starts)])
    with np.errstate(over="ignore", invalid="ignore"):
        FX = f_at(X)
        going = np.arange(starts)  # the starts that still iterate, in start order
        halvings = np.zeros(starts, dtype=np.intp)  # of each start's last accepted step
        for _ in range(80):
            going = going[~(np.abs(FX[going]).max(axis=1) < 1e-12)]
            if not going.size:
                break
            J = jacobian(X[going]).reshape(going.size, len(live), width)
            # a non-finite system has no finite step, and LAPACK would print
            # its complaint about the matrix on stdout
            finite = np.isfinite(FX[going]).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
            searching = going[finite]
            steps = _newton_steps(J[finite], FX[searching])
            # a LAPACK failure is a row of NaN: no finite step, and the start ends
            stepped = np.isfinite(steps).all(axis=1)
            searching, steps = searching[stepped], steps[stepped]
            points, base = X[searching], _norms(FX[searching])
            moved = np.zeros(starts, dtype=bool)
            # each call tries halvings low..high-1 of every start still searching:
            # first up to the count its last step took, then one more at a time
            low = np.zeros(searching.size, dtype=np.intp)
            high = halvings[searching] + 1
            while searching.size:
                tries = high - low
                owner = np.repeat(np.arange(searching.size), tries)  # a row per trial
                offset = np.cumsum(tries) - tries  # the row of each start's first trial
                h = low[owner] + np.arange(owner.size) - offset[owner]
                XN = points[owner] + np.ldexp(1.0, -h)[:, None] * steps[owner]
                FN = f_at(XN)
                accept = np.isfinite(FN).all(axis=1) & (_norms(FN) < base[owner])
                # each start takes its accepted trial with the fewest halvings
                hit, first = np.unique(owner[accept], return_index=True)
                at = np.flatnonzero(accept)[first]
                done = searching[hit]
                X[done], FX[done], moved[done], halvings[done] = XN[at], FN[at], True, h[at]
                rest = high < 30
                rest[hit] = False
                searching, points, steps, base, low = (searching[rest], points[rest],
                                                       steps[rest], base[rest], high[rest])
                high = low + 1
            going = np.flatnonzero(moved)  # a start with no accepted step ends here

    converged = X[(np.abs(FX).max(axis=1) < 1e-12) & np.isfinite(X).all(axis=1)]
    found = np.empty_like(converged)  # the distinct roots, in start order
    count = 0
    for x in converged:
        if (np.abs(found[:count] - x).max(axis=1) > 1e-8).all():
            found[count] = x
            count += 1
    return [dict(zip(unknowns, map(float, x))) for x in sorted(found[:count], key=tuple)]


# -- numeric residual scan ----------------------------------------------------


def _product(a: list[int], b: list[int], weight=None) -> list[int]:
    """Coefficients of a*b; with ``weight``, of sum weight(i, k)*a_i*b_k*E^(i+k)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y if weight is None else weight(i, k) * x * y
    return out


def _power(coeffs: list[int], n: int) -> list[int]:
    """Coefficients of the n-th power, n >= 0."""
    out = [1]
    for _ in range(n):
        out = _product(out, coeffs)
    return out


def _quotient_rule(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """(num/den)' over den^2, with the factor alpha of d/dxi = alpha*E*d/dE
    left out: the numerator is sum (i - k)*num_i*den_k*E^(i+k)."""
    return _product(num, den, operator.sub), _product(den, den)


_BEYOND_FLOATS = "residual overflow: a coefficient is beyond the float range"


def _float_rows(rows: list[list], alpha: float, powers: tuple[int, ...]) -> list[np.ndarray]:
    """Each row's coefficients c as floats: float(c), or, for a row whose
    power k is positive, 0.0 + float(c)*alpha**k for each nonzero c.  These are the
    floats ``ParamPoly.evaluate`` gives a coefficient c*alpha^k of E^j, and it
    forms alpha**k only for a nonzero term, so only then can that overflow.
    A value beyond the float range raises PoleInWindow."""
    import numpy as np
    out = []
    try:
        for row, k in zip(rows, powers):
            if k and any(row):
                scale = alpha**k
                out.append(np.array([0.0 + float(c) * scale if c else 0.0 for c in row]))
            else:
                out.append(np.array([float(c) for c in row]))
    except OverflowError:
        raise PoleInWindow(_BEYOND_FLOATS) from None
    return out


def _scan_rows(num, den, power: int, alpha: float) -> list[np.ndarray]:
    """Float coefficient rows in E, lowest power first, of the numerators and
    denominators of w = num/den, u = w^power, u' and u'' (d/dxi =
    alpha*E*d/dE), for w's integer pair as ``ClosedFormSolution`` holds it.

    They are the rows of the canonical forms ``symcore`` gives ``w**power``
    and its ``differentiate_xi("alpha")`` twice, with ``alpha`` substituted,
    reduced on integer lists.  w's pair is canonical, so u's pair,
    (num^power, den^power), is too; the symbol alpha keeps symcore from
    taking an E-gcd for u' and u'', whose numerators are alpha and alpha^2
    times integer lists, so ``lowest_terms`` reduces them.
    """
    u_num, u_den = _power(num, power), _power(den, power)
    u1_num, u1_den = lowest_terms(*_quotient_rule(u_num, u_den))
    u2_num, u2_den = lowest_terms(*_quotient_rule(u1_num, u1_den))
    rows = _float_rows([num, den, u_num, u_den, u1_num, u1_den, u2_num, u2_den],
                       alpha, (0, 0, 0, 0, 1, 0, 2, 0))
    if power == 1:
        rows[2:4] = rows[0:2]  # u is w: the same objects, which the grid evaluates once
    return rows


def _horner(seq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule with ``polyval``'s float operations: row i of ``seq``,
    highest power first, at every point of row i of ``x``."""
    acc = x * 0
    acc += seq[:, :1]
    for k in range(1, seq.shape[1]):
        acc *= x
        acc += seq[:, k:k + 1]
    return acc


def _on_grids(rows: list[np.ndarray], spans: list[int], E: np.ndarray,
              owner: np.ndarray) -> np.ndarray:
    """Row i, lowest power first, at every point of the grid E[owner[i]]: as
    sum c_j E^j where E <= 1, and as E^-J times that sum, in t = 1/E, where
    E > 1, with J = spans[i] (at least the row's degree), so no power of a
    large E is formed.  The rows of one span share a Horner loop in E and
    one in t, each over only the columns where some grid takes that form.
    Zeros pad a Horner sequence in front and leave its running value at 0.0
    for x in [0, 1] (E = inf gives t = 0), so every element gets the float
    operations of ``polyval`` on its own row.  A row given again (the same
    object) for the same grid and span is evaluated once.
    """
    import numpy as np
    N = E.shape[1]
    small = E <= 1.0
    # columns [0, lo) are E <= 1 in every grid, and columns [hi, N) in none
    lo = N if small.all() else int(np.argmin(small.all(axis=0)))
    hi = N - int(np.argmax(small.any(axis=0)[::-1])) if small.any() else 0
    keys = list(zip(map(id, rows), owner.tolist(), spans))
    first: dict = {}  # key -> the row that evaluates it
    groups: dict[int, list[int]] = {}  # span -> the rows that it evaluates
    for i, key in enumerate(keys):
        if first.setdefault(key, i) == i:
            groups.setdefault(key[2], []).append(i)
    out = np.empty((len(rows), N))
    with np.errstate(all="ignore"):  # a point's other form may overflow; it is discarded
        t = 1.0 / E[:, lo:]
        for J, group in groups.items():
            # in E highest power first; in t lowest power first, ending at E^J
            seq = np.zeros((2, len(group), J + 1))
            for g, i in enumerate(group):
                seq[0, g, J + 1 - len(rows[i]):] = rows[i][::-1]
                seq[1, g, :len(rows[i])] = rows[i]
            grids = owner[group]
            in_E, in_t = _horner(seq[0], E[grids, :hi]), _horner(seq[1], t[grids])
            out[group, :lo], out[group, hi:] = in_E[:, :lo], in_t[:, hi - lo:]
            out[group, lo:hi] = np.where(small[grids, lo:hi], in_E[:, lo:], in_t[:, :hi - lo])
    again = [i for i, key in enumerate(keys) if first[key] != i]
    out[again] = out[[first[keys[i]] for i in again]]
    return out


def _exp_grid(x: np.ndarray) -> np.ndarray:
    """E = exp(x) on a grid as ``np.float_power(math.e, x)``, libm's ``pow``
    of one element (``float_power``'s only float64 loop), so the same bits
    on every host; ``np.exp`` takes a vectorised loop that rounds
    differently on AVX-512.  ln(math.e) = 1 - 5.3e-17, so this is exactly
    exp at the grid scaled by 1 - 5.3e-17: the residual measured is that of
    the same profile.  E overflows to inf (evaluated in t = 1/E = 0) and
    underflows to 0 without a warning."""
    import numpy as np
    with np.errstate(over="ignore"):
        return np.float_power(math.e, x)


def _powers(w: np.ndarray, exponents) -> dict[int, np.ndarray]:
    """w**e for each integer e >= 0 of ``exponents``, by multiplication,
    which IEEE 754 rounds correctly, so the same bits on every host (numpy's
    ``w ** 3`` takes a vectorised ``pow`` that rounds differently on
    AVX-512).  w^0 is ones, as ``w ** 0`` is at NaN and inf too; w^1 is w;
    a higher power multiplies the repeated squares w, w^2, w^4, ... of e's
    set bits, lowest first, each square formed once: w^3 = w^2*w,
    w^4 = w^2*w^2, w^6 = w^4*w^2."""
    import numpy as np
    squares = [w]
    out: dict[int, np.ndarray] = {}
    for e in exponents:
        if e in out:
            continue
        if e == 0:
            out[e] = np.ones_like(w)
            continue
        acc = None
        for bit in range(e.bit_length()):
            if bit == len(squares):
                squares.append(squares[-1] * squares[-1])
            if e >> bit & 1:
                acc = squares[bit] if acc is None else squares[bit] * acc
        out[e] = acc
    return out


#: ``residual_scan`` runs its stack in passes of at most this many grid
#: points (and at least one case), so that memory does not grow with the stack
SCAN_PASS_POINTS = 1 << 13


def _scan_case(pde: HyperbolicPDE, sol: ClosedFormSolution, window: tuple[float, float],
               samples: int, grids: dict) -> tuple:
    """A case's floats, or the error that stops its scan: its rows (those of
    ``_scan_rows``, then |den of w|), alpha, (tau*v*v, A, B*v, kappa), the
    reaction terms (exponent of w, coefficient), its window's xi-grid (kept
    in ``grids``) and the points not within POLE_EXCLUSION of a declared pole."""
    import numpy as np
    if not pde.is_numeric():
        raise DomainError("residual scan needs a fully numeric model")
    p = sol.power
    if pde.has_half_integer_reaction() and p != 2:
        raise PowerMismatch("half-integer reaction exponents require power 2")
    try:
        alpha, vel = float(sol.alpha), float(sol.velocity)
        tau, A, B, kappa = (float(c) for c in (pde.tau, pde.A, pde.B, pde.kappa))
        reaction = [(int(nu * p), float(lam)) for nu, lam in pde.reaction.items()]
    except OverflowError:
        raise PoleInWindow(_BEYOND_FLOATS) from None
    rows = _scan_rows(sol.num, sol.den, p, alpha)
    # |den of w| bounds its terms, to flag their cancellation near a pole
    rows.append(rows[1] if min(sol.den) >= 0 else np.abs(rows[1]))
    key = (float(window[0]), float(window[1]))
    if key not in grids:
        grids[key] = np.linspace(*key, samples)
    keep = np.ones(samples, dtype=bool)
    for pole in sol.poles:
        keep &= np.abs(grids[key] - pole) > POLE_EXCLUSION
    if not np.any(keep):
        raise DomainError("every sample lies within the pole exclusion zones")
    return rows, alpha, (tau * vel * vel, A, B * vel, kappa), reaction, grids[key], keep


def residual_scan(cases, samples: int) -> list:
    """Max relative PDE residual of each closed-form solution u = w^p on its
    xi-grid, from the analytic E-derivatives.

    A case (pde, solution, window) gives max|residual| / (1 + max|u|) over
    the points not within POLE_EXCLUSION of a declared pole, or the error
    that stops it: PoleInWindow (an undeclared pole, a value beyond the
    float range), PowerMismatch (half-integer reaction exponents at power
    1) or DomainError (a symbolic model, every sample excluded).  Fewer than
    two samples raise DomainError.  The stack runs in passes of at most
    SCAN_PASS_POINTS grid points, and each element gets the float operations
    that a stack of one gives it.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    per_pass = max(1, SCAN_PASS_POINTS // samples)
    return [outcome for at in range(0, len(cases), per_pass)
            for outcome in _scan_pass(cases[at:at + per_pass], samples)]


def _scan_pass(cases, samples: int) -> list:
    """``residual_scan`` of one pass."""
    import numpy as np
    outcomes: list = [None] * len(cases)
    grids: dict = {}
    live = {}  # case index -> its floats
    for k, case in enumerate(cases):
        try:
            live[k] = _scan_case(*case, samples, grids)
        except (PoleInWindow, InputError) as exc:
            outcomes[k] = exc
    if not live:
        return outcomes
    rows, alpha, linear, reaction, xi, keep = zip(*live.values())
    S = len(live)
    # a case with alpha < 0 runs backwards, so that E ascends along every
    # row and the grid's two forms meet near one column
    flip = [a < 0 for a in alpha]
    xi, keep = (np.array([x[::-1] if f else x for x, f in zip(arrays, flip)])
                for arrays in (xi, keep))
    E = _exp_grid(np.array(alpha)[:, None] * xi)
    # nine rows a case, kind by kind: the numerators and denominators of w,
    # u, u' and u'', each pair scaled by one E^-J, and |den of w|
    pairs = (0, 0, 2, 2, 4, 4, 6, 6, 0)
    grid = _on_grids([r[kind] for kind in range(9) for r in rows],
                     [max(len(r[i]), len(r[i + 1])) - 1 for i in pairs for r in rows],
                     E, np.tile(np.arange(S), 9)).reshape(9, S, samples)

    # a value beyond the float range is judged below (PoleInWindow), not warned about
    with np.errstate(all="ignore"):
        w_val, u_val, u1_val, u2_val = (grid[i] / grid[i + 1] for i in (0, 2, 4, 6))
        near_pole = (np.abs(grid[1]) / np.where(grid[8] > 0, grid[8], 1.0) < 1e-9) & keep
        # term by term, cases with the same exponents together, which share
        # one power chain
        total = np.empty_like(w_val)
        shapes: dict[tuple, list[int]] = {}
        for s, terms in enumerate(reaction):
            shapes.setdefault(tuple(e for e, _ in terms), []).append(s)
        for exponents, at in shapes.items():
            lams = np.array([[c for _, c in reaction[s]] for s in at]).T[:, :, None]
            power = _powers(w_val[at], exponents)
            total[at] = sum((lam * power[e] for lam, e in zip(lams, exponents)),
                            np.zeros((len(at), samples)))
        tvv, A, Bv, kappa = np.array(linear).T[:, :, None]
        residual = tvv * u2_val + A * u_val * u1_val + Bv * u1_val - kappa * u2_val - total
        bad = ~np.isfinite(residual) & keep
        value = (np.max(np.abs(residual), axis=1, where=keep, initial=0.0)
                 / (1.0 + np.max(np.abs(u_val), axis=1, where=keep, initial=0.0)))

    for s, k in enumerate(live):
        outcomes[k] = float(value[s])
        # an error names its first point in the order of the case's own grid
        for flags, text in ((near_pole[s], "denominator vanishes near xi = {:.6g} "
                             "(undeclared pole)"), (bad[s], "residual overflow near xi = {:.6g}")):
            hit = np.flatnonzero(flags)
            if hit.size:
                outcomes[k] = PoleInWindow(text.format(xi[s, hit[-1] if flip[s] else hit[0]]))
                break
    return outcomes


def poles_of(den_coeffs, alpha) -> tuple[float, ...]:
    """xi locations where sum b_k exp(k*alpha*xi) vanishes (positive E roots).

    An alpha beyond the float range raises NumericFailure, and so does such
    a coefficient when the coefficients change sign."""
    import numpy as np
    try:
        alpha = float(alpha)
        if alpha == 0.0:
            # E is identically 1; a vanishing denominator then has no isolated pole
            return ()
        if all(c >= 0 for c in den_coeffs) or all(c <= 0 for c in den_coeffs):
            # no sign change among the nonzero coefficients: by Descartes'
            # rule of signs, no positive root
            return ()
        arr = np.array([float(c) for c in den_coeffs])
    except OverflowError:
        raise NumericFailure("alpha or a denominator coefficient is beyond the float range") from None
    # np.roots drops the zero coefficients of the highest powers of E itself
    roots = np.roots(arr[::-1])
    real_pos = [float(r.real) for r in roots
                if abs(r.imag) <= 1e-9 * (1 + abs(r.real)) and r.real > 0]
    return tuple(sorted(np.log(r) / alpha for r in real_pos))


def solution_from_assignment(ansatz: ExpAnsatz,
                             assignment: Mapping[str, Number]) -> ClosedFormSolution:
    """Instantiate the ansatz at a numeric assignment, declaring its poles.

    Each coefficient of w is coerced as ``ParamPoly`` coerces it (a float
    by its exact decimal reading) and the denominators are cleared;
    ``ClosedFormSolution`` reduces the integer pair.  The poles are those of
    the ansatz denominator at the assignment, unless the reduction divides
    out a factor in E other than a power of E: its zeros are removable
    singularities, so the poles are then those of the reduced denominator.
    """
    env = dict(assignment)

    def value(c):
        if isinstance(c, str):  # what ParamPoly.var(c).evaluate(env) gives
            if c not in env:
                raise MissingParameter(c)
            v = env[c]
            if isinstance(v, (int, Fraction)):
                return Fraction(v)
            if type(v) is float:
                return 0.0 + v  # evaluate's sum 0 + 1*v, which reads -0.0 as 0.0
            c = ParamPoly.var(c)
        if isinstance(c, ParamPoly):
            return c.evaluate(env)
        return Fraction(c)

    num = [value(c) for c in ansatz.a]
    den = [value(c) for c in ansatz.b]
    alpha = value("alpha")
    velocity = value("v")
    num_q, den_q = [_coeff(c) for c in num], [_coeff(c) for c in den]
    if not any(den_q):
        raise DivisionByZero("denominator is identically zero")
    lcm = math.lcm(*(c.denominator for c in (*num_q, *den_q)))
    w_num, w_den = (tuple(c.numerator * (lcm // c.denominator) for c in side)
                    for side in (num_q, den_q))
    sol = ClosedFormSolution(w_num, w_den, alpha, velocity, ansatz.power)
    # the poles depend on the canonical pair, so they are set once it is known
    object.__setattr__(sol, "poles", poles_of(
        sol.den if _span(sol.den) < _span(w_den) else den, alpha))
    return sol


def _span(coeffs) -> int:
    """The highest minus the lowest power of E with a nonzero coefficient."""
    powers = [k for k, c in enumerate(coeffs) if c]
    return powers[-1] - powers[0]


def sample_solution(sol: ClosedFormSolution, xi: np.ndarray) -> np.ndarray:
    """u(xi) on a grid, with NaN at points within POLE_EXCLUSION of a declared pole."""
    import numpy as np
    alpha = float(sol.alpha)
    rows = _float_rows([sol.num, sol.den], alpha, (0, 0))
    E = _exp_grid(alpha * np.asarray(xi, dtype=float))
    span = max(map(len, rows)) - 1
    num, den = _on_grids(rows, [span, span], E[None, :], np.zeros(2, dtype=np.intp))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_val = num / den
    out = _powers(w_val, (sol.power,))[sol.power]
    for pole in sol.poles:
        out[np.abs(xi - pole) <= POLE_EXCLUSION] = np.nan
    return out
