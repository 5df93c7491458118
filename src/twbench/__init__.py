"""twbench: exact travelling-wave reductions and hydrodynamic phase-plane analysis.

Subpackages:
    symcore  exact rational/polynomial kernel and d/dxi calculus in E = exp(alpha*xi)
    model    the hyperbolic transport PDE family, its JSON schema, rational helpers
    reducer  ansatz substitution -> algebraic systems; exact and numeric checks
    catalog  the closed-form solution families and their adjudication harness
    hydro    critical points, Hamiltonian structure, separatrices, homoclinics
    ode      Brent's root finder and the Dormand-Prince 8(5,3) integrator
    cli      deterministic command-line front end

The names of ``__all__`` are served lazily (PEP 562): ``import twbench``
loads no submodule, and ``twbench.reduce`` imports ``twbench.reducer`` on
first access.  So each command of the CLI loads only the modules it runs.
"""

import importlib

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

#: The submodule that defines each name of ``__all__`` but ``__version__``.
_HOMES = {
    **dict.fromkeys(("HyperbolicPDE", "parse_model", "quartic_reduction", "serialize_model"),
                    "model"),
    **dict.fromkeys(("AlgebraicSystem", "ClosedFormSolution", "ExpAnsatz", "Verdict", "reduce",
                     "residual_scan", "solve_numeric", "verify_assignment"), "reducer"),
    **dict.fromkeys(("ExpRational", "ParamPoly", "Rational"), "symcore"),
}


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
