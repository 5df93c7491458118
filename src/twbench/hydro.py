"""Phase-plane analysis of the travelling-wave reduction of the nonlocal
hydrodynamic model.

In the frame omega = x - D*t the model reduces (after the first integral
U = C1 - D/R) to the planar system

    dR/domega = Y
    dY/domega = { E*R - [ D^2 + beta*R^(nu+3)/(nu+2)
                          + sigma*(nu+1)*R^(nu+1)*Y^2 ] } / (sigma*R^(nu+2))

whose critical points lie on the R axis at the roots of
P(R) = beta*R^(nu+3)/(nu+2) - E*R + D^2.  Multiplying the vector field by the
positive factor 2*R^nu turns the system into Hamiltonian form with

    H = 2*D^2*R^(nu+1)/(nu+1) + beta*R^(2(nu+2))/(nu+2)^2
        + sigma*Y^2*R^(2(nu+1)) - 2*E*R^(nu+2)/(nu+2)

so phase curves in the right half-plane are level sets of H.  The saddle
level H1 = H(R1, 0) carries the homoclinic loop; its R-extent runs up to the
turning point R3, the first zero of G(R) = H1 - H(R, 0) beyond the center.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Union

from . import ode
from .model import (DomainError, InputError, NumericFailure, exact_root, read_document,
                    validated_make)

Number = Union[Fraction, int, float]

R_FLOOR = 1e-9


def __getattr__(name):
    # Nothing here calls quad.  perfbench's tracer wraps `hydro.quad` by name,
    # so only a traced pass asks for it, and scipy loads only then.  This shim
    # goes when the `hydro.quad.calls` metric is retired (ROADMAP item 1).
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NoSecondRoot(ValueError, NumericFailure):
    """Theorem precondition fails: no second critical point beyond R1."""


class NoTurningPoint(ValueError, NumericFailure):
    """G has no zero beyond the center (should not happen when nu > -2)."""


class OutOfDomain(InputError):
    """Argument outside the curve's domain (e.g. G < 0)."""


class StiffnessFailure(RuntimeError, NumericFailure):
    """Adaptive integrator step underflow, or its step budget spent."""


class QuadratureFailure(RuntimeError, NumericFailure):
    """Quadrature error estimate above tolerance."""


def _rpow(base: Number, exp: Fraction) -> Number:
    """base**exp, exact Fraction when representable, float otherwise."""
    exp = Fraction(exp)
    if isinstance(base, float):
        return base**float(exp)
    base = Fraction(base)
    if exp.denominator == 1:
        return base ** int(exp)
    root = exact_root(base if exp >= 0 else 1 / base, exp.denominator)
    if root is not None:
        return root ** abs(exp.numerator)
    return float(base) ** float(exp)


class _HydroFields(NamedTuple):
    nu: Fraction
    beta: Fraction
    sigma: Fraction
    D: Fraction
    R1: Fraction


class HydroModel(_HydroFields):
    """Parameters nu, beta, sigma, D, R1 with derived C1, E and H1.

    The asymptotic state R -> R1, U -> 0 fixes C1 = D/R1 and
    E = D^2/R1 + beta*R1^(nu+2)/(nu+2).
    """

    # no __slots__: the cached properties below are kept in the instance's __dict__
    def __new__(cls, nu, beta, sigma, D, R1):
        values = []
        for name, value in zip(cls._fields, (nu, beta, sigma, D, R1)):
            if not isinstance(value, (Fraction, int)):
                raise TypeError(f"{name} must be rational (got {type(value).__name__})")
            values.append(Fraction(value))
        nu, beta, sigma, D, R1 = values
        if nu <= -2 or nu == -1:
            raise OutOfDomain("nu must satisfy nu > -2, nu != -1 "
                              "(nu+1 and nu+2 appear in denominators)")
        if beta <= 0 or sigma <= 0 or R1 <= 0:
            raise OutOfDomain("beta, sigma and R1 must be positive")
        return super().__new__(cls, *values)

    _make = classmethod(validated_make)

    @property
    def C1(self) -> Fraction:
        return self.D / self.R1

    @functools.cached_property
    def E(self) -> Number:
        return self.D**2 / self.R1 + self.beta * _rpow(self.R1, self.nu + 2) / (self.nu + 2)

    @functools.cached_property
    def H1(self) -> Number:
        """H(R1, 0), the saddle level, exact when the powers are rational.
        Computed on first use and then kept, as E is: at nu = 2000 its exact
        powers of R1 take about 0.15 s."""
        return hamiltonian(self, (self.R1, Fraction(0)))

    def theorem_holds(self) -> bool:
        """Precondition for the saddle/center pair: D^2 > beta*R1^(nu+3)."""
        return self.D**2 > self.beta * _rpow(self.R1, self.nu + 3)

    @functools.cached_property
    def kernel(self) -> FloatKernel:
        """The model compiled to floats, built on first use and then kept."""
        return FloatKernel(self)


#: the worked instance's (nu, beta, sigma, D, R1)
_REFERENCE_FIELDS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1))


def reference_instance() -> HydroModel:
    """The worked instance: D = R1 = sigma = 1, beta = 1/2, nu = 0 (E = 5/4).

    A fresh model on every call, with nothing computed yet: its kernel has
    found no root.  Building one validates five Fractions, so a hot path
    compares against ``_REFERENCE_FIELDS`` instead of calling this."""
    return HydroModel(*_REFERENCE_FIELDS)


def parse_hydro_model(text: str) -> HydroModel:
    """Read {"nu","beta","sigma","D","R1"} JSON; E and C1 are always derived.

    Numbers are exact decimals; "p/q" strings are exact rationals.
    """
    return HydroModel(**read_document(text, ("nu", "beta", "sigma", "D", "R1")))


# -- the critical-point polynomial and Hamiltonian ---------------------------


def P_of_R(model: HydroModel, R: Number) -> Number:
    """P(R) = beta*R^(nu+3)/(nu+2) - E*R + D^2; its roots are the equilibria."""
    return model.beta * _rpow(R, model.nu + 3) / (model.nu + 2) - model.E * R + model.D**2


def hamiltonian(model: HydroModel, state) -> Number:
    """H at state = (R, Y); exact Fraction when the inputs and powers are rational."""
    R, Y = state
    if not (R > 0):
        raise OutOfDomain("hamiltonian requires R > 0")
    nu = model.nu
    return (2 * model.D**2 * _rpow(R, nu + 1) / (nu + 1)
            + model.beta * _rpow(R, 2 * (nu + 2)) / (nu + 2) ** 2
            + model.sigma * Y * Y * _rpow(R, 2 * (nu + 1))
            - 2 * model.E * _rpow(R, nu + 2) / (nu + 2))


def saddle_level(model: HydroModel) -> Number:
    """H1 = H(R1, 0), the level of the saddle separatrices."""
    return model.H1


def G_of_R(model: HydroModel, R: Number) -> Number:
    """G(R) = H1 - H(R, 0), the radicand of the separatrix formula."""
    return saddle_level(model) - hamiltonian(model, (R, Fraction(0)))


#: The failure message of a model coefficient that no float holds.
BEYOND_FLOAT_RANGE = "a model coefficient is beyond the float range"


class FloatKernel:
    """A model compiled to floats once: its coefficients, the saddle level
    H1, the functions P, P', G, G', G'' and H(R, Y), and the roots R2 and R3.

    The functions take a float or an ndarray R.  On a Python float each one
    performs, in the same order, the float operations that P_of_R,
    hamiltonian and G_of_R perform on a float argument, so the values are
    bit-identical to theirs, and no numpy is loaded; on an ndarray the same
    expressions run vectorised.  There H takes its powers by
    ``np.float_power``, whose only float64 loop is libm's ``pow`` of one
    element, as Python's ``**`` is, so a trajectory's H has the same bits
    on every host; the other functions take numpy's array power, which is
    faster but may differ from the scalar one in the last bit (its AVX-512
    loop does).  H1 is rounded, and R2 and R3 are found, on first use and
    kept; a failed search raises and caches nothing.

    ``rhs(omega, (R, Y))``, the vector field, runs on Python floats, as
    ``ode.dop853`` passes them.  Where Python raises, on a power that
    overflows or a divisor that underflows to 0, it re-runs the same
    expression on float64, which gives the inf or NaN that an array state
    gives; so it returns the same bits on floats and on an array.
    """

    def __init__(self, model: HydroModel):
        nu = model.nu
        try:
            self.R1 = float(model.R1)
            self.nu, self.beta, self.sigma = float(nu), float(model.beta), float(model.sigma)
            self.E = float(model.E)
            self.theorem_holds = model.theorem_holds()
            # exponents, divisors and coefficients rounded once from their
            # exact values, as P_of_R and hamiltonian round them
            self._nu1, self._nu2, self._nu3 = float(nu + 1), float(nu + 2), float(nu + 3)
            self._2nu1, self._2nu2 = float(2 * (nu + 1)), float(2 * (nu + 2))
            self._nu2_sq = float((nu + 2) ** 2)
            self._D2, self._2D2 = float(model.D**2), float(2 * model.D**2)
            self._2E = float(2 * model.E)
            self._dP_coef = self.beta * (self.nu + 3) / (self.nu + 2)
            self.rhs = self._build_rhs(float(model.D) ** 2)
        except OverflowError:
            raise NumericFailure(BEYOND_FLOAT_RANGE) from None
        self._model = model

    @functools.cached_property
    def H1(self) -> float:
        """The saddle level, rounded when first read: a command that fails
        before it needs H1 never computes the exact H(R1, 0)."""
        try:
            return float(self._model.H1)
        except OverflowError:
            raise NumericFailure(BEYOND_FLOAT_RANGE) from None

    def P(self, R):
        """P(R) = beta*R^(nu+3)/(nu+2) - E*R + D^2."""
        return self.beta * R ** self._nu3 / self._nu2 - self.E * R + self._D2

    def dP(self, R):
        """P'(R) = beta*(nu+3)/(nu+2)*R^(nu+2) - E."""
        return self._dP_coef * R ** (self.nu + 2) - self.E

    def H(self, R, Y):
        """H(R, Y), the conserved quantity."""
        if isinstance(R, float):
            pw = operator.pow
        else:
            import numpy as np
            pw = np.float_power
        return (self._2D2 * pw(R, self._nu1) / self._nu1
                + self.beta * pw(R, self._2nu2) / self._nu2_sq
                + self.sigma * Y * Y * pw(R, self._2nu1)
                - self._2E * pw(R, self._nu2) / self._nu2)

    def G(self, R):
        """G(R) = H1 - H(R, 0)."""
        return self.H1 - self.H(R, 0.0)

    def dG(self, R):
        """G'(R) = -2*R^nu*P(R)."""
        return -2.0 * R ** self.nu * self.P(R)

    def d2G(self, R):
        """G''(R) = -2*(nu*R^(nu-1)*P + R^nu*P') (smooth, no cancellation)."""
        nu = self.nu
        return -2.0 * (nu * R ** (nu - 1.0) * self.P(R) + R**nu * self.dP(R))

    def _build_rhs(self, D2: float):
        nu, beta, sigma, E = self.nu, self.beta, self.sigma, self.E
        e1, e2, e3, s1 = nu + 1, nu + 2, nu + 3, sigma * (nu + 1)

        def field(R, Y):
            bracket = E * R - (D2 + beta * R ** e3 / e2 + s1 * R ** e1 * Y * Y)
            return [Y, bracket / (sigma * R ** e2)]

        def rhs(_, state):
            R, Y = state
            R = max(R, R_FLOOR)
            try:
                return field(R, Y)
            except (OverflowError, ZeroDivisionError):  # where float64 gives inf or NaN
                import numpy as np
                return field(np.float64(R), np.float64(Y))

        return rhs

    @functools.cached_property
    def R2(self) -> float:
        """The center: the root of P on (R1, infinity)."""
        if not self.theorem_holds:
            raise NoSecondRoot("precondition D^2 > beta*R1^(nu+3) fails")
        lo = self.R1 * (1 + 1e-9)
        hi = max(2.0 * self.R1, 1.0)
        try:
            for _ in range(200):
                if self.P(hi) > 0:
                    break
                hi *= 2.0
            else:
                raise NoSecondRoot("P does not change sign beyond R1")
        except OverflowError:
            raise NoSecondRoot(f"P overflowed at R = {hi} before changing sign") from None
        r2 = ode.brentq(self.P, lo, hi, xtol=1e-15, rtol=8.9e-16)
        return _polish(self.P, self.dP, r2)

    @functools.cached_property
    def R3(self) -> float:
        """The turning point: the first zero of G beyond the center."""
        r2, g = self.R2, self.G
        hi = 2.0 * r2
        try:
            if g(r2) <= 0:
                raise NoTurningPoint("G(R2) is not positive")
            for _ in range(200):
                if g(hi) < 0:
                    break
                hi *= 2.0
            else:
                raise NoTurningPoint("G does not change sign beyond R2")
        except OverflowError:
            raise NoTurningPoint(f"G overflowed on [R2, {hi}] before changing sign") from None
        r3 = ode.brentq(g, r2, hi, xtol=1e-15, rtol=8.9e-16)
        r3 = _polish(g, self.dG, r3)
        if not r3 > r2:
            raise NoTurningPoint("turning point did not exceed the center")
        return r3


def G_prime(model: HydroModel, R: float) -> float:
    """G'(R) = -2*R^nu*P(R) (exact identity used for root polishing)."""
    return model.kernel.dG(float(R))


def G_second(model: HydroModel, R: float) -> float:
    """G''(R) = -2*(nu*R^(nu-1)*P + R^nu*P') (smooth, no cancellation)."""
    return model.kernel.d2G(R)


#: Newton steps that polish a bracketed root of P or G.
_POLISH_STEPS = 4


def _polish(f, df, x: float) -> float:
    for _ in range(_POLISH_STEPS):
        d = df(x)
        if d == 0 or not math.isfinite(d):
            break
        step = f(x) / d
        if not math.isfinite(step):
            break
        x -= step
    return x


def second_root(model: HydroModel) -> float:
    """R2, the center location: the root of P on (R1, infinity)."""
    return model.kernel.R2


def turning_point(model: HydroModel) -> float:
    """R3 > R2: first zero of G beyond the center (the homoclinic's peak)."""
    return model.kernel.R3


class CriticalPointReport(NamedTuple):
    points: tuple  # (R, kind, eigenvalues) triples
    R2: float
    Psi_positive = True  # proved in critical_points' docstring; not a field


def critical_points(model: HydroModel) -> CriticalPointReport:
    """Locate and classify the equilibria of the reduced system.

    The linearization at (R*, 0) has eigenvalues lam^2 = -P'(R*)/(sigma*R*^(nu+2)):
    a real pair (saddle) at R1, an imaginary pair (center) at R2.

    Psi in P(R) = (R - R1)*(R - R2)*Psi(R) is positive on (0, inf), by Descartes'
    rule of signs for real exponents (G. J. O. Jameson, Math. Gazette 90, 2006): the
    exponents 0 < 1 < nu + 3 of P carry the signs +D^2, -E, +beta/(nu+2), so P has
    at most two positive roots with multiplicity; R1 != R2 are both, simple, and alone.
    As R -> 0+, Psi -> D^2/(R1*R2) > 0; D != 0 as D^2 > beta*R1^(nu+3) when R2 exists.
    """
    k = model.kernel
    points = []
    for r in (k.R1, k.R2):
        try:
            lam_sq = -k.dP(r) / (k.sigma * r ** (k.nu + 2))
        except ZeroDivisionError:
            raise NumericFailure(f"sigma*R^(nu+2) underflows to 0 at R = {r}") from None
        lam = math.sqrt(abs(lam_sq))
        kind, eig = ("saddle", lam) if lam_sq > 0 else ("center", complex(0.0, lam))
        points.append((r, kind, (eig, -eig)))
    return CriticalPointReport(points=tuple(points), R2=k.R2)


def saddle_angle(model: HydroModel) -> float:
    """Angle between the outgoing separatrix and the R axis at the saddle."""
    k = model.kernel
    r1, r2 = k.R1, k.R2
    # Psi(R1) = P'(R1)/(R1 - R2), the cofactor in P(R) = (R - R1)*(R - R2)*Psi(R)
    try:
        s = (r2 - r1) * (k.dP(r1) / (r1 - r2)) / (k.sigma * r1 ** (k.nu + 2))
    except ZeroDivisionError:
        raise NumericFailure(f"sigma*R^(nu+2) underflows to 0 at R = {r1}") from None
    return math.atan(math.sqrt(s))


def separatrix(model: HydroModel, R: float) -> tuple[float, float]:
    """(Y+, Y-) of the saddle separatrix at abscissa R in [R1, R3].

    An abscissa outside [R1*(1 - 1e-12), R3*(1 + 1e-12)] raises OutOfDomain;
    the slack is relative, so a tiny R1 admits no R <= 0.  Inside, G >= 0 is a
    theorem, so a float G below the tolerance has lost its digits to
    rounding (G = H1 - H(R, 0) cancels) and raises NumericFailure.
    """
    k = model.kernel
    r1, r3 = k.R1, k.R3
    if not (r1 * (1 - 1e-12) <= R <= r3 * (1 + 1e-12)):
        raise OutOfDomain(f"separatrix abscissa must lie in [R1, R3] = [{r1}, {r3}]")
    g = k.G(R)
    scale = k.sigma * R ** (2 * (k.nu + 1))
    if g < -1e-12 * max(1.0, scale):
        raise NumericFailure(f"G({R}) < 0 in [R1, R3], where G >= 0: it cancelled in rounding")
    try:
        y = math.sqrt(max(g, 0.0) / scale)
    except ZeroDivisionError:
        raise NumericFailure(f"sigma*R^(2(nu+1)) underflows to 0 at R = {R}") from None
    return y, -y


# -- direct integration -------------------------------------------------------


class Trajectory(NamedTuple):
    """A sampled flow trajectory with its conserved quantity at every step."""

    omega: np.ndarray
    R: np.ndarray
    Y: np.ndarray
    H: np.ndarray
    status: str  # "completed" | "boundary"
    dense: ode.OdeSolution  # the integrator's dense output, for interpolation


def flow(model: HydroModel, start, omega_span, rel_tol: float = 1e-10) -> Trajectory:
    """Integrate the reduced system from start = (R, Y) over omega_span, a
    pair (omega0, omega1), with an adaptive embedded Runge-Kutta pair.

    Samples are the accepted solver steps; H is evaluated at all of them in
    one array expression, where an H that overflows is inf or NaN, unwarned.
    Integration halts with status "boundary" if R falls to the floor 1e-9,
    so a start at or below the floor, where that event cannot fire, raises
    OutOfDomain.  Only a model with nu below about -3/4 (nu = -3/2, say)
    reaches the floor.  For larger nu, the reference model's nu = 0 among
    them, the step size collapses first (there at R about 1e-7), and that
    raises StiffnessFailure (exit 3), not a "boundary" status.  So does a
    run over the integrator's step budget, ``ode.MAX_STEPS``.
    """
    import numpy as np
    if not rel_tol >= 1e-13:
        raise DomainError("rel_tol below 1e-13 is not resolvable in double precision")
    y0 = [float(start[0]), float(start[1])]
    if not all(map(math.isfinite, [*y0, *omega_span])):
        raise DomainError("the start and the span must be finite")
    if not y0[0] > R_FLOOR:
        raise OutOfDomain(f"the start's R must lie above the floor R = {R_FLOOR}")

    def boundary(_, state):
        return state[0] - R_FLOOR

    k = model.kernel
    with np.errstate(all="ignore"):  # an orbit or an H that overflows stays unwarned
        sol = ode.dop853(k.rhs, omega_span, y0, rtol=rel_tol, atol=rel_tol * 1e-2,
                         event=boundary)
        if sol.status == -1:
            raise StiffnessFailure(sol.message)
        R, Y = sol.y
        H = k.H(R, Y)
    return Trajectory(omega=sol.t, R=R, Y=Y, H=H,
                      status="boundary" if sol.status == 1 else "completed",
                      dense=sol.sol)


# -- the homoclinic orbit ------------------------------------------------------


def quadrature_integrand(model: HydroModel, R: float) -> float:
    """d(omega)/dR along the homoclinic: sqrt(sigma)*R^(1+nu)/sqrt(G(R))."""
    k = model.kernel
    g = k.G(R)
    if g <= 0:
        raise OutOfDomain(f"G({R}) <= 0")
    return math.sqrt(k.sigma) * R ** (1 + k.nu) / math.sqrt(g)


# Gauss-Legendre nodes and weights on [0, 1]: numpy.polynomial.legendre.leggauss(n)
# mapped by x -> (x + 1)/2, w -> w/2, written out so that importing this
# module loads no numpy; the tests check them against leggauss bit for bit.
_GAUSS8 = (  # inner rule of the cancellation-free cofactors
    (0.019855071751231912, 0.10166676129318664, 0.2372337950418355, 0.4082826787521751,
     0.5917173212478248, 0.7627662049581645, 0.8983332387068134, 0.9801449282487681),
    (0.05061426814518853, 0.11119051722668721, 0.15685332293894344, 0.18134189168918083,
     0.18134189168918083, 0.15685332293894344, 0.11119051722668721, 0.05061426814518853))
_GAUSS10 = (
    (0.013046735741414128, 0.06746831665550773, 0.16029521585048778, 0.2833023029353764,
     0.4255628305091844, 0.5744371694908156, 0.7166976970646236, 0.8397047841495122,
     0.9325316833444923, 0.9869532642585859),
    (0.03333567215434407, 0.0747256745752902, 0.109543181257991, 0.13463335965499826,
     0.1477621123573764, 0.1477621123573764, 0.13463335965499826, 0.109543181257991,
     0.0747256745752902, 0.03333567215434407))
_GAUSS20 = (
    (0.003435700407452502, 0.018014036361043095, 0.04388278587433703, 0.08044151408889061,
     0.1268340467699246, 0.1819731596367425, 0.24456649902458644, 0.3131469556422902,
     0.38610707442917747, 0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
     0.6868530443577098, 0.7554335009754136, 0.8180268403632576, 0.8731659532300754,
     0.9195584859111094, 0.956117214125663, 0.981985963638957, 0.9965642995925474),
    (0.008807003569575447, 0.020300714900193223, 0.031336024167054395, 0.04163837078835236,
     0.05096505990862035, 0.0590972659807593, 0.06584431922458844, 0.0710480546591912,
     0.07458649323630212, 0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
     0.0710480546591912, 0.06584431922458844, 0.0590972659807593, 0.05096505990862035,
     0.04163837078835236, 0.031336024167054395, 0.020300714900193223, 0.008807003569575447))


@functools.cache
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule (n = 8, 10 or 20) as arrays of nodes and weights,
    made on first use and then kept."""
    import numpy as np
    nodes, weights = {8: _GAUSS8, 10: _GAUSS10, 20: _GAUSS20}[n]
    return np.array(nodes), np.array(weights)


#: Fewest rule applications per half of the homoclinic (s and t).
MIN_PANELS = 64

#: The homoclinic profile stops at R = R1 + HOMOCLINIC_DELTA, short of the saddle.
HOMOCLINIC_DELTA = 1e-6


def panel_quadrature(fun, grid: np.ndarray, parts: int = 1) -> np.ndarray:
    """Integrals of fun over the panels [grid[i], grid[i+1]], all at once.

    Each panel is cut into ``parts`` equal pieces and each piece gets a
    20-point Gauss-Legendre rule; the 10-point rule on the same piece gives
    its error estimate |Q20 - Q10|.  fun maps an array of abscissae to an
    array of values of the same shape and is called once.  Raises
    QuadratureFailure for the first piece whose integral or estimate is not
    finite, or whose estimate exceeds 1e-8*max(1, |integral|).
    """
    import numpy as np
    (x20, w20), (x10, w10) = _gauss01(20), _gauss01(10)
    edges = grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(parts + 1) / parts)
    edges[:, -1] = grid[1:]
    lo, width = edges[:, :-1].ravel(), np.diff(edges, axis=1).ravel()
    nodes = np.concatenate([x20, x10])
    with np.errstate(all="ignore"):
        values = fun(lo[:, None] + width[:, None] * nodes)
        q20 = values[:, :20] @ w20 * width
        q10 = values[:, 20:] @ w10 * width
        err = np.abs(q20 - q10)
        bad = ~np.isfinite(q20) | ~(err <= 1e-8 * np.maximum(1.0, np.abs(q20)))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(
            f"panel [{lo[i]}, {lo[i] + width[i]}] error estimate {err[i]}")
    return q20.reshape(-1, parts).sum(axis=1)


def homoclinic_profile(model: HydroModel, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """The homoclinic profile (omega, R) by quadrature, peak-centered.

    Both quadrature endpoints are singular: G has a simple root at the peak
    R3 (inverse-square-root, removed by s = sqrt(R3 - R)) and a double root
    at the saddle abscissa R1 (logarithmic, removed by R = R1 + exp(t)).
    Near R1 the smooth cofactor G(R)/(R - R1)^2 is evaluated through the
    cancellation-free representation  integral_0^1 (1-x)*G''(R1 + x*(R-R1)) dx
    (and near R3, G(R)/(R3 - R) through integral_0^1 -G'(R3 - x*(R3-R)) dx),
    each with an 8-point Gauss-Legendre rule.  The grids in s and t are
    uniform; every panel is integrated by one fixed composite rule
    (``panel_quadrature``: 20-point Gauss-Legendre, error estimate against
    the 10-point rule, QuadratureFailure when a panel's estimate exceeds
    1e-8*max(1, |piece|)), vectorised over all panels and inner nodes, and
    the pieces are summed in order.  On a coarse grid each panel is cut into
    equal parts so that each half gets at least MIN_PANELS rule applications.
    The returned branch has omega >= 0 increasing while R falls from R3 to
    R1 + HOMOCLINIC_DELTA; the orbit is even in omega, so the other side is the mirror.
    """
    import numpy as np
    if n < 2:
        raise DomainError("need at least two sample points")
    k = model.kernel
    r1, r3 = k.R1, k.R3
    root_sigma = math.sqrt(k.sigma)
    r_mid = 0.5 * (r1 + r3)
    x8, w8 = _gauss01(8)

    def integrand_s(s: np.ndarray) -> np.ndarray:
        s2 = s * s
        phi = -(k.dG(r3 - x8 * s2[..., None]) @ w8)  # G(R3 - s^2)/s^2
        return 2.0 * root_sigma * (r3 - s2) ** (1 + k.nu) / np.sqrt(phi)

    def integrand_t(t: np.ndarray) -> np.ndarray:
        d = np.exp(t)
        phi = k.d2G(r1 + x8 * d[..., None]) @ ((1.0 - x8) * w8)  # G(R1 + d)/d^2
        # negated: t decreases along the grid while omega grows
        return -root_sigma * (r1 + d) ** (1 + k.nu) / np.sqrt(phi)

    def accumulate(fun, grid, omega0):
        parts = -(-MIN_PANELS // (len(grid) - 1))  # coarse grids: split each panel
        return np.cumsum(np.concatenate([[omega0], panel_quadrature(fun, grid, parts)]))

    n_s = max(n // 2, 2)
    n_t = max(n - n_s, 2)
    s_grid = np.linspace(0.0, math.sqrt(r3 - r_mid), n_s)
    omega_s = accumulate(integrand_s, s_grid, 0.0)
    # t decreasing: R walks from r_mid down to r1 + HOMOCLINIC_DELTA
    t_grid = np.linspace(math.log(r_mid - r1), math.log(HOMOCLINIC_DELTA), n_t)
    omega_t = accumulate(integrand_t, t_grid, omega_s[-1])
    omega = np.concatenate([omega_s, omega_t[1:]])
    R = np.concatenate([r3 - s_grid**2, r1 + np.exp(t_grid[1:])])
    return omega, R


# -- the explicit homoclinic of the worked instance ---------------------------


_SQRT2 = math.sqrt(2.0)

#: omega0 as printed alongside the explicit solution.
PRINTED_OMEGA0 = _SQRT2 * math.pi - math.log(2.0)

#: The worked instance's turning point R3 = 2*sqrt(2) - 1, in floats.
_R3 = 2.0 * _SQRT2 - 1.0

#: Peak-centering constant of the corrected antiderivative: F(R3), where
#: the arcsine reaches its right endpoint pi/2.
CORRECTED_OMEGA0 = _SQRT2 * math.pi + 0.5 * _SQRT2 * math.log(2.0)

#: The printed antiderivative's value at R3, which centres its peak at 0.
_PRINTED_PEAK = _SQRT2 * math.pi - 0.5 * _SQRT2 * math.log(2.0)


class ExplicitHomoclinic(NamedTuple):
    """Printed and corrected closed forms, both normalized to omega(R3) = 0."""

    corrected: float
    printed: float


def _asin_clamped(x: float) -> float:
    # the argument reaches exactly 1 at R3; keep roundoff inside the domain
    return math.asin(min(max(x, -1.0), 1.0))


def _corrected_antiderivative(R: float) -> float:
    # d/dR of this equals R/sqrt(G(R)) with 8*G = (R-1)^2*(7 - 2R - R^2):
    # R/((R-1)sqrt(Q)) splits as 1/sqrt(Q) + 1/((R-1)sqrt(Q)), Q = 8-(R+1)^2
    Q = max(7.0 - 2.0 * R - R * R, 0.0)
    return (2.0 * _SQRT2 * _asin_clamped((R + 1.0) / (2.0 * _SQRT2))
            + _SQRT2 * math.log(2.0 * (R - 1.0) / (3.0 - R + math.sqrt(Q))))


def _printed_antiderivative(R: float) -> float:
    inner = max(20.0 - 2.0 * (R * R + 2.0 * R + 3.0), 0.0)
    return (2.0 * _SQRT2 * _asin_clamped((R + 1.0) / (2.0 * _SQRT2))
            + _SQRT2 * math.log((R - 1.0) / (3.0 - R + math.sqrt(inner))))


def explicit_homoclinic(R: float, model: HydroModel | None = None) -> ExplicitHomoclinic:
    """Closed-form omega(R) on the incoming branch (omega <= 0, peak at 0).

    Only defined for the worked instance D = R1 = sigma = 1, beta = 1/2,
    nu = 0.  Returns both the expression as printed and the corrected
    antiderivative (partial fractions + arcsine/log primitives); the
    corrected branch satisfies d(omega)/dR = quadrature integrand.  A given
    model is checked by comparing its fields with the worked instance's, so
    a call builds no model.
    """
    if model is not None and model != _REFERENCE_FIELDS:
        raise OutOfDomain("the explicit homoclinic is specific to the worked instance")
    if not (1.0 < R <= _R3):
        raise OutOfDomain(f"R must lie in (1, R3] = (1, {_R3}]")
    corrected = _corrected_antiderivative(R) - CORRECTED_OMEGA0
    printed = _printed_antiderivative(R) - _PRINTED_PEAK
    return ExplicitHomoclinic(corrected=corrected, printed=printed)
