"""Command-line front end.

Subcommands dispatch to the library modules and emit deterministic JSON
reports or CSV curves: floats are printed with 17 significant digits, exact
rationals as "p/q" strings, and JSON keys are sorted, so identical inputs and
seeds produce byte-identical output.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input (``model.InputError``),
3 numeric failure (``model.NumericFailure``); any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import model, reducer
from .symcore import frac_str, int_digit_limit

# The largest count that sizes an array or a run: eval's n, hydro-separatrix
# --samples, hydro-homoclinic --n, solve --starts and catalog verify --trials.
# A larger one is refused (exit 2) before anything is allocated or run.  The
# degrees of reduce --ansatz have a far tighter bound, reducer's product budget.
MAX_COUNT = 1_000_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _value_str(x) -> str:
    """Exact values as p/q, floats with 17 significant digits."""
    if isinstance(x, float):
        return _fmt(x)
    return frac_str(Fraction(x))


def _parse_assignments(text: str) -> dict[str, Fraction]:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise model.SchemaError(f"expected name=value, got {item!r}")
        name, _, raw = item.partition("=")
        name, raw = name.strip(), raw.strip()
        out[name] = model.parse_fields(raw, ",", (model.parse_rational,),
                                       f"{name}: not a rational number: {raw!r}")[0]
    return out


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise model.InputError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _dump_json(doc, out_path: str | None):
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _csv(header: str, rows, out_path: str | None):
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _emit("\n".join(lines) + "\n", out_path)


def _bounded(count: int, option: str):
    if count > MAX_COUNT:
        raise model.DomainError(f"{option} {count} is over the limit of {MAX_COUNT}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise model.InputError(str(exc)) from None


# -- subcommand handlers -------------------------------------------------------


def _cmd_reduce(args) -> int:
    pde = model.parse_model(_read(args.model))
    m_deg, n_deg = model.parse_fields(
        args.ansatz, "/", (int, int), "--ansatz must look like M/N (numerator/denominator degree)")
    # refused before any name is built; a negative degree has no names
    reducer.check_ansatz_size(max(m_deg + 1, 0) + max(n_deg + 1, 0), args.power)
    ansatz = reducer.ExpAnsatz(
        a=tuple(f"a{i}" for i in range(m_deg + 1)),
        b=tuple(f"b{i}" for i in range(n_deg + 1)),
        power=args.power,
    )
    system = reducer.reduce(pde, ansatz)
    _emit(system.to_json(), args.out)
    return 0


def _digits(n: int) -> int:
    return int(abs(n).bit_length() * math.log10(2)) + 1


def _bound_exact_work(system: reducer.AlgebraicSystem, assignment: dict[str, Fraction]):
    """Refuse an assignment whose exact powers would be too long to build.

    A term costs about its exponents times the digits (numerator plus
    denominator) of the values they raise; the sum over all terms may be at
    most 100 times Python's int string limit (no bound when it has none).
    """
    limit = 100 * int_digit_limit()
    digits = {name: _digits(q.numerator) + _digits(q.denominator)
              for name, q in assignment.items()}
    estimate = sum(e * digits.get(name, 0)
                   for eq in system.equations for exps in eq.terms
                   for name, e in zip(eq.variables, exps))
    if limit and estimate > limit:
        raise model.InputError(f"exact powers of about {estimate} digits are over the limit "
                               f"of {limit} digits (100 times Python's int string limit)")


def _cmd_verify(args) -> int:
    system = reducer.AlgebraicSystem.from_json(_read(args.system))
    assignment = _parse_assignments(args.assign)
    _bound_exact_work(system, assignment)
    verdict = reducer.verify_assignment(system, assignment)
    _dump_json({
        "status": verdict.status,
        "residuals": [frac_str(r) for r in verdict.residuals],
        "report": verdict.report,
    }, args.out)
    return 0 if verdict.passed else 1


def _cmd_solve(args) -> int:
    _bounded(args.starts, "--starts")
    system = reducer.AlgebraicSystem.from_json(_read(args.system))
    fixed = _parse_assignments(args.fix)
    _bound_exact_work(system, fixed)
    solutions = reducer.solve_numeric(system, fixed, seed=args.seed, starts=args.starts)
    _dump_json({
        "count": len(solutions),
        "seed": args.seed,
        "starts": args.starts,
        "solutions": [{k: _fmt(v) for k, v in sol.items()} for sol in solutions],
    }, args.out)
    return 0 if solutions else 3


def _cmd_catalog(args) -> int:
    from . import catalog
    if args.action == "list":
        doc = [{
            "family": e.family_id,
            "shape": e.shape,
            "free": list(e.free),
            "derived": dict(e.derived),
            "admissibility": list(e.admissibility),
            "expected": e.expected,
            "annotations": list(e.annotations),
        } for e in catalog.list_families()]
        _dump_json(doc, args.out)
        return 0
    # action == "verify"
    _bounded(args.trials, "--trials")
    report = catalog.verify_entry(args.family, trials=args.trials, seed=args.seed)
    expectations = catalog.load_expectations(args.expectations)
    entry = expectations.get(args.family)
    matched = entry is not None and catalog.matches_expectations(report, entry)
    report["matches_expectations"] = matched
    _dump_json(report, args.out)
    return 0 if matched else 1


def _cmd_eval(args) -> int:
    import numpy as np

    from . import catalog
    lo, hi, n = model.parse_fields(args.range, ":", (float, float, int),
                                   "--range must look like lo:hi:n")
    if not math.isfinite(hi - lo):  # nan or inf in a bound, or a width over the float range
        raise model.DomainError(f"--range needs finite lo, hi and hi - lo, not {lo}:{hi}")
    if n < 2:
        raise model.SchemaError("--range needs n >= 2")
    _bounded(n, "--range n")
    free = _parse_assignments(args.free)
    _, solution = catalog.instantiate(args.family, free)
    xi = np.linspace(lo, hi, n)
    u = reducer.sample_solution(solution, xi)
    _csv("xi,u", zip(xi, u), args.out)
    return 0


# The hydro handlers import hydro (and with it the float kernels and the
# integrator) on first use, as the catalog and eval handlers import catalog,
# so each command loads only the modules it runs.  hydro-analyze and
# hydro-separatrix run on Python floats and never load numpy; hydro-orbit
# and hydro-homoclinic load it in the array code they call.


def _cmd_hydro_analyze(args) -> int:
    from . import hydro
    m = hydro.parse_hydro_model(_read(args.model))
    report = hydro.critical_points(m)
    r3 = hydro.turning_point(m)
    points = []
    for R, kind, eig in report.points:
        points.append({
            "R": _fmt(R),
            "kind": kind,
            "eigenvalues": [str(e) if isinstance(e, complex) else _fmt(e) for e in eig],
        })
    _dump_json({
        "C1": _value_str(m.C1),
        "E": _value_str(m.E),
        "H1": _value_str(hydro.saddle_level(m)),
        "R1": _value_str(m.R1),
        "R2": _fmt(report.R2),
        "R3": _fmt(r3),
        "Psi_positive": report.Psi_positive,
        "saddle_angle": _fmt(hydro.saddle_angle(m)),
        "theorem_precondition": m.theorem_holds(),
        "critical_points": points,
    }, args.out)
    return 0


def _cmd_hydro_orbit(args) -> int:
    from . import hydro
    m = hydro.parse_hydro_model(_read(args.model))
    r0, y0 = model.parse_fields(args.start, ",", (float, float), "--start must look like R,Y")
    traj = hydro.flow(m, (r0, y0), (0.0, args.span), rel_tol=args.rtol)
    _csv("omega,R,Y,H", zip(traj.omega, traj.R, traj.Y, traj.H), args.out)
    return 0


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n) of two floats, in numpy's arithmetic and
    without numpy: i*step + lo, the last point hi (for n >= 2)."""
    delta = hi - lo
    if n < 2:
        return [0.0 * delta + lo][:n]
    step = delta / (n - 1)
    if step == 0:  # numpy's branch for a step that underflows
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def _cmd_hydro_separatrix(args) -> int:
    from . import hydro
    m = hydro.parse_hydro_model(_read(args.model))
    if args.samples < 0:
        raise model.DomainError(f"Number of samples, {args.samples}, must be non-negative.")
    _bounded(args.samples, "--samples")
    rows = []
    for R in _linspace(float(m.R1), hydro.turning_point(m), args.samples):
        yp, ym = hydro.separatrix(m, R)
        rows.append((R, yp, ym))
    _csv("R,Y_plus,Y_minus", rows, args.out)
    return 0


def _cmd_hydro_homoclinic(args) -> int:
    from . import hydro
    _bounded(args.n, "--n")
    m = hydro.parse_hydro_model(_read(args.model))
    omega, R = hydro.homoclinic_profile(m, n=args.n)
    # full even profile: mirror the omega >= 0 branch
    rows = [(-w, r) for w, r in zip(omega[::-1], R[::-1])]
    rows.extend((w, r) for w, r in zip(omega[1:], R[1:]))
    _csv("omega,R", rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twbench",
        description="Travelling-wave reduction workbench and hydrodynamic "
                    "phase-plane analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a PDE against a symbolic exp-rational ansatz")
    p.add_argument("--model", required=True, help="PDE model JSON file")
    p.add_argument("--ansatz", required=True, help="degrees M/N of the ansatz")
    p.add_argument("--power", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="exactly verify an assignment against a system")
    p.add_argument("--system", required=True, help="system JSON file from `reduce`")
    p.add_argument("--assign", required=True, help="comma list name=rational")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve", help="multistart damped-Newton solve of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--fix", default="", help="comma list name=rational to pin")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--starts", type=int, default=32)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("catalog", help="list or verify the closed-form families")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("--family", help="family id (for verify)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--expectations", default="./expectations.json")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("eval", help="sample a family's closed-form solution to CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--free", required=True, help="comma list name=rational")
    p.add_argument("--range", required=True, help="lo:hi:n sampling window")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("hydro-analyze", help="critical points, levels and angles")
    p.add_argument("--model", required=True, help="hydro model JSON file")
    p.set_defaults(handler=_cmd_hydro_analyze)

    p = sub.add_parser("hydro-orbit", help="integrate a phase trajectory to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--start", required=True, help="initial R,Y")
    p.add_argument("--span", type=float, default=100.0)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_hydro_orbit)

    p = sub.add_parser("hydro-separatrix", help="sample the saddle separatrix to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(handler=_cmd_hydro_separatrix)

    p = sub.add_parser("hydro-homoclinic", help="homoclinic profile by quadrature to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=400)
    p.set_defaults(handler=_cmd_hydro_homoclinic)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "verify" and not args.family:
        parser.error("catalog verify requires --family")
    try:
        return args.handler(args)
    except model.TwbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
