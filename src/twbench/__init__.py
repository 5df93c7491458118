"""twbench: exact travelling-wave reductions and hydrodynamic phase-plane analysis.

Subpackages:
    symcore  exact rational/polynomial kernel and d/dxi calculus in E = exp(alpha*xi)
    model    the hyperbolic transport PDE family and its JSON schema
    reducer  ansatz substitution -> algebraic systems; exact and numeric checks
    catalog  the closed-form solution families and their adjudication harness
    hydro    critical points, Hamiltonian structure, separatrices, homoclinics
    ode      Brent's root finder and the Dormand-Prince 8(5,3) integrator
    cli      deterministic command-line front end
"""

from .model import HyperbolicPDE, parse_model, quartic_reduction, serialize_model
from .reducer import (
    AlgebraicSystem,
    ClosedFormSolution,
    ExpAnsatz,
    Verdict,
    reduce,
    residual_scan,
    solve_numeric,
    verify_assignment,
)
from .symcore import ExpRational, ParamPoly, Rational

__version__ = "0.1.0"

__all__ = [
    "AlgebraicSystem",
    "ClosedFormSolution",
    "ExpAnsatz",
    "ExpRational",
    "HyperbolicPDE",
    "ParamPoly",
    "Rational",
    "Verdict",
    "parse_model",
    "quartic_reduction",
    "reduce",
    "residual_scan",
    "serialize_model",
    "solve_numeric",
    "verify_assignment",
    "__version__",
]
