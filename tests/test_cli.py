import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from twbench import catalog, cli, hydro, model, reducer, symcore

REPO = Path(__file__).resolve().parent.parent
EXPECTATIONS = REPO / "expectations.json"


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "twbench.cli", *args],
                          capture_output=True, text=True, cwd=cwd or REPO, timeout=timeout)


@pytest.fixture
def burgers_model(tmp_path):
    path = tmp_path / "burgers.json"
    path.write_text('{"tau":0,"A":2,"B":1,"kappa":1,"reaction":{}}')
    return path


@pytest.fixture
def hydro_model(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text('{"nu":0,"beta":0.5,"sigma":1,"D":1,"R1":1}')
    return path


class TestPipeline:
    def test_reduce_solve_verify(self, burgers_model, tmp_path):
        system_path = tmp_path / "sys.json"
        r = run_cli("reduce", "--model", str(burgers_model), "--ansatz", "1/1",
                    "--out", str(system_path))
        assert r.returncode == 0, r.stderr
        doc = json.loads(system_path.read_text())
        assert doc["unknowns"] == ["a0", "a1", "b0", "b1", "alpha", "v"]

        r = run_cli("solve", "--system", str(system_path),
                    "--fix", "a0=0,a1=1,b0=1,b1=1", "--seed", "7", "--starts", "64")
        assert r.returncode == 0, r.stderr
        solutions = json.loads(r.stdout)["solutions"]
        assert any(abs(float(s["v"]) + 1) < 1e-9 and abs(float(s["alpha"]) + 1) < 1e-9
                   for s in solutions)

        r = run_cli("verify", "--system", str(system_path),
                    "--assign", "a0=0,a1=1,b0=1,b1=1,v=-1,alpha=-1")
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "PASS"

        r = run_cli("verify", "--system", str(system_path),
                    "--assign", "a0=0,a1=1,b0=1,b1=1,v=1,alpha=-1")
        assert r.returncode == 1
        assert json.loads(r.stdout)["status"] == "FAIL"

    def test_solve_no_convergence_exit_3(self, tmp_path):
        system_path = tmp_path / "sys.json"
        system_path.write_text(json.dumps({
            "unknowns": ["x"], "parameters": [],
            "equations": ["x^2 + 1"], "provenance": {"0": 0}}))
        r = run_cli("solve", "--system", str(system_path), "--starts", "8")
        assert r.returncode == 3
        assert json.loads(r.stdout)["count"] == 0

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tau":1}')
        r = run_cli("reduce", "--model", str(bad), "--ansatz", "1/1")
        assert r.returncode == 2
        assert "error" in r.stderr


ZERO_DENOMINATOR_CASES = {
    "assign": ["verify", "--system", "{system}", "--assign", "x=1/0"],
    "fix": ["solve", "--system", "{system}", "--fix", "x=1/0"],
    "free": ["eval", "--family", "IVe-a", "--free", "lam1=1/0,lam3=-2,tau=1,kappa=1,v=2",
             "--range=-2:2:5"],
    "pde_model": ["reduce", "--model", "{pde}", "--ansatz", "1/1"],
    "hydro_model": ["hydro-analyze", "--model", "{hydro}"],
}


@pytest.mark.parametrize("site", list(ZERO_DENOMINATOR_CASES))
def test_zero_denominator_is_input_error(site, tmp_path):
    paths = {"system": tmp_path / "sys.json", "pde": tmp_path / "pde.json",
             "hydro": tmp_path / "hydro.json"}
    paths["system"].write_text(json.dumps({
        "unknowns": ["x"], "parameters": [],
        "equations": ["x^2 + 1"], "provenance": {"0": 0}}))
    paths["pde"].write_text('{"tau":0,"A":2,"B":1,"kappa":1,"reaction":{"1":"1/0"}}')
    paths["hydro"].write_text('{"nu":0,"beta":"1/0","sigma":1,"D":1,"R1":1}')
    args = [a.format(**paths) for a in ZERO_DENOMINATOR_CASES[site]]
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


EXIT_3_CLASSES = [
    (reducer.PoleInWindow, ValueError),
    (catalog.BranchFailure, RuntimeError),
    (hydro.NoSecondRoot, ValueError),
    (hydro.NoTurningPoint, ValueError),
    (hydro.StiffnessFailure, RuntimeError),
    (hydro.QuadratureFailure, RuntimeError),
]


@pytest.mark.parametrize("cls, old_base", EXIT_3_CLASSES,
                         ids=[cls.__name__ for cls, _ in EXIT_3_CLASSES])
def test_exit_3_classes_are_numeric_failures(cls, old_base):
    exc = cls("boom")
    assert isinstance(exc, model.NumericFailure)
    assert isinstance(exc, old_base)


def test_exact_commands_do_not_import_scipy(tmp_path):
    # each interpreter loads only what its commands run: reduce and verify
    # neither numpy, catalog, hydro nor scipy; solve numpy but neither
    # catalog, hydro nor scipy; the hydro commands hydro but neither catalog
    # nor any scipy module; catalog list neither numpy, hydro nor scipy
    code = textwrap.dedent("""
        import contextlib, io, sys
        from twbench import cli
        def run(*argvs):
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
        def loaded():
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                         or m == "numpy" or m.startswith("twbench.")))
        if sys.argv[1] == "catalog":
            run(["catalog", "list"])
            loaded()
            sys.exit()
        system, pins = sys.argv[1], "a0=0,a1=1,b0=1,b1=1"
        run(["reduce", "--model", "models/burgers.json", "--ansatz", "1/1", "--out", system],
            ["verify", "--system", system, "--assign", pins + ",v=-1,alpha=-1"])
        loaded()
        run(["solve", "--system", system, "--fix", pins, "--starts", "8"])
        loaded()
        model = ["--model", "models/hydro_reference.json"]
        run(["hydro-analyze", *model], ["hydro-orbit", *model, "--start", "1.7,0"],
            ["hydro-separatrix", *model], ["hydro-homoclinic", *model, "--n", "40"])
        loaded()
    """)

    def loaded_after(arg):
        r = subprocess.run([sys.executable, "-c", code, arg],
                           capture_output=True, text=True, cwd=REPO)
        assert r.returncode == 0, r.stderr
        return r.stdout

    exact = ["twbench.cli", "twbench.model", "twbench.reducer", "twbench.symcore"]
    floats = sorted([*exact, "numpy"])
    assert loaded_after(str(tmp_path / "system.json")) == (
        f"{exact}\n{floats}\n{sorted([*floats, 'twbench.hydro', 'twbench.ode'])}\n")
    assert loaded_after("catalog") == f"{sorted([*exact, 'twbench.catalog'])}\n"


HYDRO_CHILD = textwrap.dedent("""
    import contextlib, hashlib, io, sys
    if sys.argv[1] == "blocked":
        sys.modules["numpy"] = None  # an import of numpy now raises ImportError
    from twbench import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*sys.argv[2].split(), "--model", "models/hydro_reference.json"])
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
          [m for m in ("numpy", "numpy.polynomial") if sys.modules.get(m)])
""")


def hydro_child(numpy: str, command: str) -> str:
    """The exit code, stdout digest and loaded numpy modules of one hydro
    command in a fresh interpreter; numpy is "blocked" or "free"."""
    r = subprocess.run([sys.executable, "-c", HYDRO_CHILD, numpy, command],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


@pytest.mark.parametrize("command", ["hydro-analyze", "hydro-separatrix"])
def test_scalar_hydro_commands_never_load_numpy(command):
    want = f"0 {HYDRO_SHA256[command]} []"
    assert hydro_child("free", command) == want
    assert hydro_child("blocked", command) == want


def test_hydro_orbit_loads_no_numpy_polynomial():
    command = "hydro-orbit --start 1.7,0 --span 100"
    assert hydro_child("free", command) == f"0 {HYDRO_SHA256[command]} ['numpy']"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 201, 1000])
def test_separatrix_grid_is_linspace(n):
    rng = np.random.default_rng(n)
    ends = [(1.0, 2.0 * math.sqrt(2.0) - 1.0), (1e-14, 1e6), (0.0, 1.5e-323), (-0.0, 1.0),
            *(sorted(rng.uniform(-1e3, 1e3, 2) * 10.0 ** rng.integers(-300, 300, 2))
              for _ in range(20))]
    for lo, hi in ends:
        grid = np.array(cli._linspace(float(lo), float(hi), n), dtype=float)
        assert grid.tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi)


# A system with unknowns x and y whose one equation has no real root.
SYSTEM = {"unknowns": ["x", "y"], "parameters": [],
          "equations": ["x^2 + y^2 + 1"], "provenance": {"0": 0}}

INPUT_DOCUMENTS = {
    "system": json.dumps(SYSTEM),
    "hydro": '{"nu":0,"beta":0.5,"sigma":1,"D":1,"R1":1}',
    "no_provenance": json.dumps(dict(SYSTEM, provenance={})),
    "not_object": "5",
    "equation_not_text": json.dumps(dict(SYSTEM, equations=[3])),
    "zero_denominator": json.dumps(dict(SYSTEM, equations=["x^2 + 1/0"])),
    "huge_exponent": json.dumps(dict(SYSTEM, equations=["x^10000000 - 1"])),
    "huge_residual": json.dumps(dict(SYSTEM, equations=["x^4000 - 1"])),
    "huge_power": json.dumps(dict(SYSTEM, equations=["x^4300*y^4300 - 1"])),
    "huge_coefficient": json.dumps(dict(SYSTEM, unknowns=["x"],
                                        equations=[f"1{'0' * 400}*x - 1"])),
    "expectations_not_object": "[1, 2]",
    "expectations_entry_not_object": '{"IVd": [1, 2]}',
    "huge_number": '{"tau":1e10000000,"A":0,"B":1,"kappa":1,"reaction":{}}',
    "hydro_huge_D": '{"nu":0,"beta":"1/2","sigma":1,"D":1e400,"R1":1}',
    "hydro_P_overflow": '{"nu":1100,"beta":1,"sigma":1,"D":1,"R1":"1/2"}',
    "hydro_G_overflow": '{"nu":700,"beta":1,"sigma":1,"D":1,"R1":"9/10"}',
    "hydro_G_overflow_at_R2": '{"nu":1,"beta":1,"sigma":1,"D":1e80,"R1":1}',
    "hydro_linearization_underflow": '{"nu":"2843/8","beta":"1/8","sigma":"1/8","D":"1/8",'
                                     '"R1":"1/8"}',
    "hydro_separatrix_underflow": '{"nu":"37/4","beta":7.375e-21,"sigma":250,"D":"23/8",'
                                  '"R1":1.25e-16}',
    "hydro_separatrix_cancellation": '{"nu":"3/8","beta":"17/4000","sigma":"1125/2",'
                                     '"D":"71250000000000000000000000000000000000","R1":"4"}',
    "model_symbolic_tau": '{"tau":"x","A":0,"B":1,"kappa":1,"reaction":{}}',
    "model_reaction_list": '{"tau":1,"A":0,"B":1,"kappa":1,"reaction":[1]}',
    # a "p/q" string past Python's default limit of 4300 digits for int()
    "model_long_rational": json.dumps({"tau": "1/" + "7" * 5000, "A": 0, "B": 1,
                                       "kappa": 1, "reaction": {}}),
    "system_undeclared_symbol": json.dumps(dict(SYSTEM, equations=["x^2 + z"])),
    "hydro_tiny_R1": '{"nu": "57/100", "beta": "2/3", "sigma": 8e+40, "D": 1e-40, '
                     '"R1": 7.831e-21}',
}

EXIT_2_CASES = {
    "solve-seed": ["solve", "--system", "{system}", "--seed", "-1"],
    "solve-starts": ["solve", "--system", "{system}", "--starts", "0"],
    "separatrix-samples": ["hydro-separatrix", "--model", "{hydro}", "--samples", "-1"],
    "orbit-rtol": ["hydro-orbit", "--model", "{hydro}", "--start", "1.7,0",
                   "--rtol", "1e-20"],
    "homoclinic-n": ["hydro-homoclinic", "--model", "{hydro}", "--n", "1"],
    "catalog-trials": ["catalog", "verify", "--family", "IVd", "--trials", "0"],
    "catalog-expectations": ["catalog", "verify", "--family", "IVd", "--trials", "1",
                             "--expectations", "{missing}"],
    "catalog-out": ["catalog", "list", "--out", "{missing_dir}/x.json"],
    "system-provenance": ["verify", "--system", "{no_provenance}", "--assign", "x=1,y=1"],
    "unknown-family": ["eval", "--family", "IVz", "--free", "a=1", "--range=0:1:3"],
    # these three ended in a traceback (exit 1) before InputError existed
    "system-not-object": ["verify", "--system", "{not_object}", "--assign", "x=1"],
    "system-equation-not-text": ["verify", "--system", "{equation_not_text}",
                                 "--assign", "x=1"],
    "system-zero-denominator": ["verify", "--system", "{zero_denominator}",
                                "--assign", "x=1"],
    # these two ended in a ValueError traceback (exit 1), the first after seconds
    "system-huge-exponent": ["verify", "--system", "{huge_exponent}", "--assign", "x=3"],
    "system-huge-residual": ["verify", "--system", "{huge_residual}", "--assign", "x=100"],
    # ran for minutes building powers of some 34 million digits
    "system-huge-power": ["verify", "--system", "{huge_power}",
                          "--assign", f"x={'9' * 4000},y={'9' * 4000}"],
    # ran past 10 s substituting the pin exactly before any float work
    "solve-fix-huge-power": ["solve", "--system", "{huge_power}",
                             "--fix", f"x={'7' * 4000}", "--starts", "1"],
    # a number of ten million digits, refused before it is expanded
    "reduce-huge-number": ["reduce", "--model", "{huge_number}", "--ansatz", "1/1"],
    # these two ended in an AttributeError traceback (exit 1)
    "expectations-not-object": ["catalog", "verify", "--family", "IVd", "--trials", "1",
                                "--expectations", "{expectations_not_object}"],
    "expectations-entry-not-object": ["catalog", "verify", "--family", "IVd", "--trials", "1",
                                      "--expectations", "{expectations_entry_not_object}"],
    # these printed NaN rows (exit 0), the last two with numpy's RuntimeWarnings
    "eval-range-nan": ["eval", "--family", "IVe-a", "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2",
                       "--range=nan:1:3"],
    "eval-range-inf": ["eval", "--family", "IVe-a", "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2",
                       "--range=inf:1:3"],
    "eval-range-wide": ["eval", "--family", "IVe-a", "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2",
                        "--range=-1e308:1e308:3"],
    # counts over cli.MAX_COUNT, refused before any array is allocated; the
    # first two ended in a numpy _ArrayMemoryError traceback (exit 1)
    "eval-range-count": ["eval", "--family", "IVe-a", "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2",
                         "--range=0:1:10000000000"],
    "separatrix-samples-count": ["hydro-separatrix", "--model", "{hydro}",
                                 "--samples", "10000000000"],
    "homoclinic-n-count": ["hydro-homoclinic", "--model", "{hydro}", "--n", "10000000000"],
    "solve-starts-count": ["solve", "--system", "{system}", "--starts", "10000000000"],
    # ran until killed, one trial record after another
    "catalog-trials-count": ["catalog", "verify", "--family", "IVd", "--trials", "10000000000"],
    # built ten billion symbol names: a MemoryError traceback (exit 1) under a
    # memory cap, all of memory without one
    "reduce-ansatz-count": ["reduce", "--model", "models/burgers.json",
                            "--ansatz", "10000000000/1"],
    "reduce-ansatz-count-denominator": ["reduce", "--model", "models/burgers.json",
                                        "--ansatz", "1/10000000000"],
    # took 11.5 s and 607 MB; its products are bounded before any is built
    "reduce-ansatz-size": ["reduce", "--model", "models/burgers.json", "--ansatz", "400/1"],
    # at the count limit: the product budget refuses it before its symbols are walked
    "reduce-ansatz-at-count-limit": ["reduce", "--model", "models/burgers.json",
                                     "--ansatz", "1000000/1"],
    # no names at all: EmptyAnsatz
    "reduce-ansatz-negative": ["reduce", "--model", "models/burgers.json", "--ansatz=-5/1"],
    # a negative degree adds no names, so it cannot offset a huge one in the budget
    "reduce-ansatz-huge-and-negative": ["reduce", "--model", "models/burgers.json",
                                        "--ansatz=1000000000000/-1000000000000"],
    "reduce-missing-model": ["reduce", "--model", "{missing}", "--ansatz", "1/1"],
    "model-symbolic-tau": ["reduce", "--model", "{model_symbolic_tau}", "--ansatz", "1/1"],
    "model-reaction-list": ["reduce", "--model", "{model_reaction_list}", "--ansatz", "1/1"],
    "model-long-rational": ["reduce", "--model", "{model_long_rational}", "--ansatz", "1/1"],
    "system-undeclared-symbol": ["verify", "--system", "{system_undeclared_symbol}",
                                 "--assign", "x=1,y=1"],
    "eval-range-one-point": ["eval", "--family", "IVe-a",
                             "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2", "--range=0:1:1"],
    # a start below the R = 1e-9 floor, whose event then never fired: the
    # orbit ran past R = 0 and printed a NaN row (exit 0)
    "orbit-start-below-floor": ["hydro-orbit", "--model", "{hydro_tiny_R1}",
                                "--start", "7.831025229591054e-21,6.71378904860025e-22",
                                "--span", "-50", "--rtol", "1e-6"],
}


@pytest.fixture
def input_paths(tmp_path):
    paths = {"missing": tmp_path / "missing.json", "missing_dir": tmp_path / "missing-dir"}
    for name, text in INPUT_DOCUMENTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    return paths


@pytest.mark.parametrize("case", list(EXIT_2_CASES))
def test_exit_2_matrix(case, input_paths):
    # bad input is refused before any long computation starts
    r = run_cli(*(a.format(**input_paths) for a in EXIT_2_CASES[case]), timeout=5)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert r.stdout == ""


def test_reduce_refuses_the_ansatz_degrees_before_building_it(monkeypatch, capsys):
    def ansatz(*_, **__):
        raise AssertionError("an ExpAnsatz was built")

    monkeypatch.setattr(reducer, "ExpAnsatz", ansatz)
    assert cli.main(["reduce", "--model", str(REPO / "models" / "burgers.json"),
                     "--ansatz", "1000000/1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: an ansatz of 1000003 coefficient terms at power 1 ")


def test_verify_refuses_a_huge_text_before_parsing(tmp_path, monkeypatch, capsys):
    # 20 000 terms in 20 000 variables: the parsed polynomial would hold
    # 4e8 exponents; the bound reads the token stream, so no term is merged
    names = [f"y{i}" for i in range(20_000)]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(SYSTEM, unknowns=names, equations=[" + ".join(names)])))

    def merge(*_):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(symcore, "_merge", merge)
    assert cli.main(["verify", "--system", str(path), "--assign", "y0=1"]) == 2
    assert capsys.readouterr() == ("", "error: 20000 terms in 20000 variables are over "
                                       "the limit of 10000000 exponents\n")


def test_solve_prints_the_origin_when_the_pins_zero_every_equation(tmp_path, capsys):
    # x = 0 makes x*y and x^2 vanish identically: any y solves, and solve gives y = 0
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(SYSTEM, equations=["x*y", "x^2"],
                                    provenance={"0": 0, "1": 1})))
    assert cli.main(["solve", "--system", str(path), "--fix", "x=0"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [{"y": "0"}]


def test_solve_fixes_a_long_rational_under_a_high_power(tmp_path):
    # solve --fix substitutes term by term, so the bound counts only the
    # powers: x^4300 at x = p/q, p and q of 49 digits, is 421 400 digits of
    # the limit's 430 000 and is solved
    q = 10**48 + 7
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(SYSTEM, equations=["x^4300*y - 1"])))
    r = run_cli("solve", "--system", str(path), "--fix", f"x={q + 2}/{q}", "--starts", "4")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["solutions"] == [{"y": "1"}]


# each ended in an OverflowError traceback (exit 1): a value beyond the float range
EXIT_3_CASES = {
    "solve-huge-coefficient": (["solve", "--system", "{huge_coefficient}"], "equation 0"),
    # radicands whose square roots are beyond the float range too
    "eval-IVe-a-huge-radicand": (["eval", "--family", "IVe-a", "--free",
                                  "lam1=2e700,lam3=-2,tau=1,kappa=1,v=2", "--range=-1:1:3"],
                                 "radicand"),
    "eval-I-tanh-huge-radicand": (["eval", "--family", "I-tanh", "--free",
                                   "lam0=-2e700,lam2=1,lam3=-2,A=0,B=1,kappa=1,tau=0",
                                   "--range=-1:1:3"], "radicand"),
    # the root 1.4e200 is a float, but the scan's alpha^2 is not
    "eval-IVe-a-huge-scan": (["eval", "--family", "IVe-a", "--free",
                              "lam1=2e400,lam3=-2,tau=1,kappa=1,v=2", "--range=-1:1:3"],
                             "no branch of IVe-a verifies"),
    # the scan's grid overflows: the error line alone, without numpy's warnings
    "eval-IVe-a-overflowing-scan": (["eval", "--family", "IVe-a", "--free",
                                     "lam1=1e300,lam3=-2,tau=1,kappa=1,v=2", "--range=-1:1:3"],
                                    "residual overflow near xi"),
    # a denominator coefficient, alpha, a PDE coefficient and a hydro constant
    "eval-I-huge-pole": (["eval", "--family", "I", "--free",
                          "a0=1,a1=2,b0=1,b1=-1e400,alpha=1,v=1,lam3=1,tau=0,kappa=1,B=0",
                          "--range=-1:1:3"], "denominator coefficient"),
    "eval-Burgers-shock-huge-alpha": (["eval", "--family", "Burgers-shock", "--free",
                                       "a0=1,a1=2,b0=1,b1=1,A=1e400,B=1,kappa=1",
                                       "--range=-1:1:3"], "alpha"),
    "eval-IVe-a-huge-tau": (["eval", "--family", "IVe-a", "--free",
                             "lam1=1,lam3=-2,tau=1e401,kappa=1,v=2", "--range=-1:1:3"],
                            "beyond the float range"),
    "hydro-huge-D": (["hydro-analyze", "--model", "{hydro_huge_D}"], "beyond the float range"),
    # P and G overflowed in the bracket doubling of the R2 and R3 searches
    "hydro-analyze-P-overflow": (["hydro-analyze", "--model", "{hydro_P_overflow}"],
                                 "P overflowed at R = 2.0"),
    "hydro-analyze-G-overflow": (["hydro-analyze", "--model", "{hydro_G_overflow}"],
                                 "G overflowed on [R2, "),
    "hydro-separatrix-G-overflow": (["hydro-separatrix", "--model", "{hydro_G_overflow}"],
                                    "G overflowed on [R2, "),
    "hydro-homoclinic-G-overflow": (["hydro-homoclinic", "--model", "{hydro_G_overflow}"],
                                    "G overflowed on [R2, "),
    # G overflowed at R2 itself, before the doubling began
    "hydro-analyze-G-overflow-at-R2": (["hydro-analyze", "--model", "{hydro_G_overflow_at_R2}"],
                                       "G overflowed on [R2, "),
    # sigma*R^(nu+2) and sigma*R^(2(nu+1)) underflowed to 0 and were divided by:
    # a ZeroDivisionError traceback from the linearization and the separatrix
    "hydro-analyze-linearization-underflow": (
        ["hydro-analyze", "--model", "{hydro_linearization_underflow}"],
        "sigma*R^(nu+2) underflows to 0"),
    "hydro-separatrix-scale-underflow": (
        ["hydro-separatrix", "--model", "{hydro_separatrix_underflow}"],
        "sigma*R^(2(nu+1)) underflows to 0"),
    # G = H1 - H(R, 0) cancelled below zero at a sample in [R1, R3]: it exited
    # 2, the input-error code, on a valid model
    "hydro-separatrix-G-cancels": (
        ["hydro-separatrix", "--model", "{hydro_separatrix_cancellation}", "--samples", "5"],
        "G(8.05428747705877e+32) < 0 in [R1, R3]"),
    # the right-hand side is NaN at the start, so is the first step size: it
    # stepped forever
    "hydro-orbit-nan-step": (["hydro-orbit", "--model", "{hydro}", "--start", "1e200,0",
                              "--span", "1"], "Required step size"),
    # the dense output is NaN inside a step that crosses the R floor: a
    # ValueError traceback from the event location
    "hydro-orbit-nan-event": (["hydro-orbit", "--model", "{hydro}", "--start", "1.7,0",
                               "--rtol", "0.5"], "the terminal event cannot be located"),
    "hydro-orbit-nan-event-rtol-1": (["hydro-orbit", "--model", "{hydro}", "--start", "1.7,0",
                                      "--rtol", "1"], "the terminal event cannot be located"),
}


@pytest.mark.parametrize("case", list(EXIT_3_CASES))
def test_exit_3_matrix(case, input_paths):
    args, message = EXIT_3_CASES[case]
    r = run_cli(*(a.format(**input_paths) for a in args), timeout=30)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    assert message in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args, stderr", [
    (["verify", "--system", "{system}", "--assign", "x=1"], "error: missing unknowns: y\n"),
    (["eval", "--family", "IVz", "--free", "a=1", "--range=0:1:3"],
     f"error: unknown family 'IVz'; known: {', '.join(catalog.FAMILIES)}\n"),
    (["solve", "--system", "{system}", "--fix", "x=1,zz=1,ww=2", "--starts", "2"],
     "error: pinned names not in the system: zz, ww (symbols: x, y)\n"),
    (["eval", "--family", "IVe-a", "--free", "lam1=-1,lam3=-2,tau=1,kappa=1,v=2",
      "--range=-1:1:3"], "error: IVe-a needs lam1 > 0\n"),
    (["eval", "--family", "I-tanh", "--free", "lam0=-1,lam2=2,lam3=-1,A=1,B=2,kappa=1,tau=0",
      "--range=-1:1:3"], "error: I-tanh needs B = 1\n"),
], ids=["missing-unknowns", "unknown-family", "misspelt-pin", "inadmissible", "prose-condition"])
def test_input_error_messages(args, stderr, input_paths):
    r = run_cli(*(a.format(**input_paths) for a in args))
    assert r.returncode == 2
    assert r.stderr == stderr


@pytest.mark.parametrize("parse, text", [
    (model.parse_model, '{"tau":1e10000000,"A":0,"B":1,"kappa":1,"reaction":{}}'),
    (hydro.parse_hydro_model, '{"nu":0,"beta":5e-10000000,"sigma":1,"D":1,"R1":1}'),
    (cli._parse_assignments, "x=-12.5E+10000000"),
], ids=["model", "hydro", "assignment"])
def test_huge_exponent_rejected_before_expansion(parse, text):
    start = time.perf_counter()
    with pytest.raises(model.SchemaError, match="over 4300 digits"):
        parse(text)
    assert time.perf_counter() - start < 1


def test_internal_errors_propagate(monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    with pytest.raises(KeyError):
        cli.main(["catalog", "list"])


# -- fuzzing: every parser either parses or raises model.InputError ------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# a value slot that _with_tokens fills with a number token written as text
_SLOT = "@number"
_VALUE = (st.integers(-5, 5) | st.floats() | st.sampled_from(["1/2", "-3/4", "2/0", "lam", "1x"])
          | _JSON | st.just(_SLOT))
# exponents json.dumps never writes, up to +/-10^7
_NUMBER_TOKEN = st.builds("{}{}{}".format,
                          st.integers(-999, 999) | st.sampled_from(["0.5", "-12.25"]),
                          st.sampled_from(["e", "E", "e+", "e-"]), st.integers(0, 10**7))
_POLY_TEXT = st.text(alphabet="xyz0123456789/^*+- ", max_size=16)


def _document(keys, values=_VALUE, **special):
    """Objects near a schema: the declared keys, one of them dropped, or any keys."""
    exact = st.fixed_dictionaries({k: special.get(k, values) for k in keys})
    dropped = exact.flatmap(lambda d: st.sampled_from(sorted(d)).map(
        lambda k: {n: v for n, v in d.items() if n != k}))
    loose = st.dictionaries(st.sampled_from(list(keys)) | st.text(max_size=4), values,
                            max_size=len(keys) + 1)
    return exact | dropped | loose


_MODEL_DOCS = _document(
    ("tau", "A", "B", "kappa", "reaction"),
    reaction=st.dictionaries(st.sampled_from(["0", "1/2", "1", "3/2", "2", "3", "5"]),
                             _VALUE, max_size=4) | _JSON)
_HYDRO_DOCS = _document(("nu", "beta", "sigma", "D", "R1"))
_SYSTEM_DOCS = _document(
    ("unknowns", "parameters", "equations", "provenance"),
    unknowns=st.lists(st.sampled_from(["x", "y", "z"]) | _JSON, max_size=3) | _JSON,
    parameters=st.lists(st.sampled_from(["z"]) | _JSON, max_size=2) | _JSON,
    equations=st.lists(_POLY_TEXT | _JSON, max_size=3) | _JSON,
    provenance=st.dictionaries(st.sampled_from(["0", "1", "2"]), st.integers(-3, 3) | _JSON,
                               max_size=3) | _JSON,
)

# without the "explain" phase: after a failure it re-runs these nested
# strategies for minutes before reporting; the deadline bounds the work one
# input may cost (expanding 1e10000000 exactly takes about 11 s)
_FUZZ = settings(max_examples=150, deadline=1000, database=None,
                 phases=[Phase.explicit, Phase.generate, Phase.shrink])


def _with_tokens(texts):
    """JSON texts with every value slot replaced by one number token."""
    return st.builds(lambda text, token: text.replace(f'"{_SLOT}"', token), texts, _NUMBER_TOKEN)


def _parses_or_input_error(parse, text):
    try:
        parse(text)
    except model.InputError:
        pass


@pytest.mark.parametrize("parse, documents", [
    (model.parse_model, _MODEL_DOCS),
    (hydro.parse_hydro_model, _HYDRO_DOCS),
    (reducer.AlgebraicSystem.from_json, _SYSTEM_DOCS),
], ids=["parse_model", "parse_hydro_model", "system_from_json"])
def test_fuzz_documents(parse, documents):
    @_FUZZ
    @given(_with_tokens(documents.map(json.dumps)) | _JSON.map(json.dumps) | st.text(max_size=40))
    def check(text):
        _parses_or_input_error(parse, text)

    check()


@_FUZZ
@given(st.lists(st.text(alphabet="xy=,/-0123456789 .e", max_size=8), max_size=4).map(",".join)
       | st.text(max_size=30)
       | st.lists(st.builds("x={}".format, _NUMBER_TOKEN), min_size=1, max_size=3).map(",".join))
def test_fuzz_assignments(text):
    _parses_or_input_error(cli._parse_assignments, text)


# valid hydro models far from the reference: nu from just above -2 to 2000,
# the other parameters from 1e-40 to 8e40
_NU = st.integers(-15, 16_000).filter(lambda n: n != -8).map(lambda n: Fraction(n, 8))
_MAGNITUDE = st.builds(lambda m, e: Fraction(m, 8) * Fraction(10) ** e,
                       st.integers(1, 64), st.integers(-40, 40))
_VALID_HYDRO = st.fixed_dictionaries(
    {"nu": _NU, "beta": _MAGNITUDE, "sigma": _MAGNITUDE, "D": _MAGNITUDE, "R1": _MAGNITUDE},
).map(lambda fields: json.dumps({k: symcore.frac_str(v) for k, v in fields.items()}))


@_FUZZ
@given(_VALID_HYDRO)
@example(INPUT_DOCUMENTS["hydro_P_overflow"])
@example(INPUT_DOCUMENTS["hydro_G_overflow"])
def test_fuzz_hydro_commands(text):
    # each command ends in a report or a documented failure, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        for command, *options in (["hydro-analyze"], ["hydro-separatrix", "--samples", "5"],
                                  ["hydro-homoclinic", "--n", "8"]):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = cli.main([command, "--model", str(path), *options])
            assert status in (0, 2, 3), stderr.getvalue()


class TestCatalogCommands:
    def test_list(self):
        r = run_cli("catalog", "list")
        assert r.returncode == 0
        entries = json.loads(r.stdout)
        assert len(entries) == 14

    def test_verify_matches_expectations(self):
        r = run_cli("catalog", "verify", "--family", "IVd", "--trials", "3",
                    "--seed", "1", "--expectations", str(EXPECTATIONS))
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["matches_expectations"] is True

    def test_verify_mismatch_exit_1(self, tmp_path):
        fake = tmp_path / "expect.json"
        fake.write_text(json.dumps({"IVd": {"expected": "FAIL-DOCUMENTED"}}))
        r = run_cli("catalog", "verify", "--family", "IVd", "--trials", "1",
                    "--seed", "1", "--expectations", str(fake))
        assert r.returncode == 1

    def test_eval_csv(self):
        r = run_cli("eval", "--family", "IVe-a",
                    "--free", "lam1=1,lam3=-2,tau=1,kappa=1,v=2",
                    "--range=-2:2:5")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "xi,u"
        assert len(lines) == 6
        mid = float(lines[3].split(",")[1])
        assert abs(mid - 1.0) < 1e-12  # sech peak amplitude

    def test_eval_irrational_b0(self, capsys):
        # the b0 discriminant 5 is not a square: every branch is a float
        assert cli.main(["eval", "--family", "I-kink2", "--free",
                         "lam1=1,lam2=3,lam3=1,B=1,kappa=1,tau=1", "--range=-3:3:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "xi,u" and len(lines) == 6

    def test_eval_tiny_radicand(self, capsys):
        # float(2e-400) underflows to 0, but the amplitude sqrt(2e-400) is a float
        assert cli.main(["eval", "--family", "IVe-a", "--free",
                         "lam1=2e-400,lam3=-2,tau=1,kappa=1,v=2", "--range=-1:1:3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        u = [float(row.split(",")[1]) for row in rows]
        assert len(u) == 3
        assert all(abs(x / (math.sqrt(2.0) * 1e-200) - 1) < 1e-15 for x in u)

    def test_eval_huge_velocity(self, capsys):
        # lam1 = 4*alpha^2*(v^2*tau - kappa) is beyond the float range, but
        # the branch verifies exactly, and u = sech(xi)^2 has no v in it
        assert cli.main(["eval", "--family", "IVd", "--free",
                         "a0=1,a1=0,alpha=1,v=1e200,tau=1,kappa=1", "--range=-1:1:3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        u = [float(row.split(",")[1]) for row in rows]
        assert len(u) == 3 and all(math.isfinite(x) for x in u)

    @pytest.mark.parametrize("free, name", [
        ("lam3=-2,tau=1,kappa=1,v=2", "missing lam1"),
        ("lam1=1,lam3=-2,tau=1,kappa=1,v=2,lamm=5", "unknown lamm"),
    ], ids=["missing", "unknown"])
    def test_eval_free_parameter_names(self, free, name):
        r = run_cli("eval", "--family", "IVe-a", "--free", free, "--range=-1:1:3")
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and name in r.stderr
        assert r.stdout == ""


class TestHydroCommands:
    def test_analyze_values(self, hydro_model):
        r = run_cli("hydro-analyze", "--model", str(hydro_model))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["E"] == "5/4"
        assert doc["H1"] == "7/8"
        assert abs(float(doc["R2"]) - 1.561552812808830) < 1e-12
        assert abs(float(doc["R3"]) - 1.828427124746190) < 1e-11
        assert abs(float(doc["saddle_angle"]) - 0.615479708670387) < 1e-12
        kinds = [p["kind"] for p in doc["critical_points"]]
        assert kinds == ["saddle", "center"]
        assert doc["Psi_positive"] is True

    def test_analyze_prints_an_irrational_E_as_a_float(self, tmp_path, capsys):
        # nu = 1/2 and R1 = 2: E = D^2/R1 + beta*R1^(5/2)/(5/2) has the irrational 2^(5/2)
        path = tmp_path / "half.json"
        path.write_text('{"nu":"1/2","beta":"1/2","sigma":1,"D":3,"R1":2}')
        assert cli.main(["hydro-analyze", "--model", str(path)]) == 0
        E = json.loads(capsys.readouterr().out)["E"]
        assert "/" not in E and len(E.replace(".", "").lstrip("0")) == 17
        assert math.isclose(float(E), 4.5 + 2**2.5 / 5, rel_tol=1e-15)

    def test_analyze_computes_the_exact_H1_once(self, hydro_model, monkeypatch, capsys):
        # the kernel's float H1 and the report's exact one are the same value:
        # at nu = 2000 each exact H(R1, 0) takes about 0.15 s
        hamiltonian, calls = hydro.hamiltonian, []

        def counted(*args):
            calls.append(args)
            return hamiltonian(*args)

        monkeypatch.setattr(hydro, "hamiltonian", counted)
        assert cli.main(["hydro-analyze", "--model", str(hydro_model)]) == 0
        assert json.loads(capsys.readouterr().out)["H1"] == "7/8"
        assert len(calls) == 1

    def test_a_failed_R2_search_computes_no_exact_H1(self, tmp_path, monkeypatch, capsys):
        # P overflows in the R2 search before anything reads H1, whose exact
        # powers of R1 take about 0.15 s at nu = 2000
        hamiltonian, calls = hydro.hamiltonian, []

        def counted(*args):
            calls.append(args)
            return hamiltonian(*args)

        monkeypatch.setattr(hydro, "hamiltonian", counted)
        path = tmp_path / "model.json"
        path.write_text('{"nu": 2000, "beta": 1, "sigma": 1, "D": 1, "R1": 3e-24}')
        for command, *options in (["hydro-analyze"], ["hydro-separatrix", "--samples", "5"],
                                  ["hydro-homoclinic", "--n", "8"]):
            assert cli.main([command, "--model", str(path), *options]) == 3
            assert capsys.readouterr() == (
                "", "error: P overflowed at R = 2.0 before changing sign\n")
        assert calls == []

    def test_orbit_whose_H_overflows_is_silent(self, tmp_path):
        # H overflows along this orbit; numpy must not say so on stderr
        path = tmp_path / "model.json"
        path.write_text('{"nu": "-19/10", "beta": 1e-40, "sigma": 1e-40, "D": 0.008872, '
                        '"R1": "2/3"}')
        r = run_cli("hydro-orbit", "--model", str(path), "--start",
                    "0.666743620473469,-0.020887495789587207", "--span", "1e-06",
                    "--rtol", "1e-8")
        assert (r.returncode, r.stderr) == (0, "")
        assert "nan" in r.stdout and hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "4e8f0fcb7cfc7db26c646e0fa30db86c64a66fab70a48a90c2c9caca975c54bd")

    def test_orbit_csv(self, hydro_model, tmp_path):
        out = tmp_path / "orbit.csv"
        r = run_cli("hydro-orbit", "--model", str(hydro_model), "--start", "1.7,0",
                    "--span", "10", "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,R,Y,H"
        first = [float(x) for x in lines[1].split(",")]
        assert first[:3] == [0.0, 1.7, 0.0]

    def test_separatrix_csv(self, hydro_model):
        r = run_cli("hydro-separatrix", "--model", str(hydro_model), "--samples", "11")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "R,Y_plus,Y_minus"
        assert len(lines) == 12
        r_vals = [float(l.split(",")[0]) for l in lines[1:]]
        assert abs(r_vals[0] - 1.0) < 1e-12

    def test_failed_precondition_exit_3(self, tmp_path):
        # D^2 < beta*R1^(nu+3): no center, a numeric failure rather than bad input
        path = tmp_path / "no_center.json"
        path.write_text('{"nu":0,"beta":2,"sigma":1,"D":1,"R1":1}')
        r = run_cli("hydro-analyze", "--model", str(path))
        assert r.returncode == 3
        assert r.stderr.startswith("error:")

    def test_homoclinic_csv_even(self, hydro_model):
        r = run_cli("hydro-homoclinic", "--model", str(hydro_model), "--n", "40")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "omega,R"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        omegas = [w for w, _ in rows]
        assert omegas == sorted(omegas)
        # even profile: R(-w) = R(w) by construction of the mirror
        lookup = {w: R for w, R in rows}
        for w, R in rows:
            assert lookup[-w] == R


# SHA-256 of the stdout of `solve --seed 7` on a reduced model: the last digit
# of a root moves with the order in which the exact kernel keeps terms.
SOLVE_SHA256 = {
    ("burgers", "1/1", "a0=0,a1=1,b0=1,b1=1", "64"):  # the README command
        "d4644ee71da5e6e7617a86a612f961e178ff1845b78929fc6bafcd202e3c6bf8",
    ("telegraph_cubic", "2/2", "l1=1,l3=-2,b0=1,b1=1", "8"):
        "5497c45ee1e692e1a40b676ed6a60bcd43d7535c30bbcb12625a43a14762905f",
    ("telegraph_cubic", "1/1", "l1=1,l3=-2,b0=1,b1=1", "64"):  # 28 roots
        "19446c286db755fab40d7f78c9ffa255e866fe66646f56a25c4b21d98f4bc48a",
}

# SHA-256 of `solve --seed 3 --starts 16` stdout on a one-equation system
# whose starts overflow to inf; such a start ends before lstsq sees it.
SOLVE_SYSTEM_SHA256 = {
    "x^700 - 2": "d699f11f3c89c33b1b0c478e62dd6e845dd1a7910149454c2b249d62b5bd3a74",
}

# SHA-256 of `eval --range=-3:3:61` stdout at free values whose radicals are
# irrational, so each profile is built from float sign branches, and at one
# whose w has a factor in E common to both sides.
EVAL_SHA256 = {
    ("I-tanh", "lam0=-1,lam2=2,lam3=-1,A=1,B=1,kappa=1,tau=0"):
        "f332752d7a6ec3df24024ebaabac03ddf2887483f4c0c4cedd50100d66d9388e",
    ("III", "lam1=1,lam3=2,A=1,kappa=1,tau=1,a1=1"):
        "9ef6c60776303d59fd805f8ac7cd96e53fc37197c7aa0dca152c4ee5ee715d61",
    ("IVa-special", "lam0=0,lam1=-1,lam2=0,lam3=1,kappa=2,tau=1,alpha=1"):
        "5086ee2cbd27b9de56148af028949d2198092ccfb5a2989583679fba19e6564c",
    # w's sides share the factor 1 + E^2, and w = 1/2
    ("IVa-special", "lam0=1/16,lam1=-3/8,lam2=3/4,lam3=-1/2,kappa=1/16,tau=1/4,alpha=3/2"):
        "6e6315fae9718bf939d43f9a8a4d264b001343f981d41c4f736feb090527d9e9",
    ("IVe-a", "lam1=1,lam3=-2,tau=1,kappa=1,v=2"):
        "16e92f6c400248a1554e226545a9a60cac57bf43c0a19f5c96f26841981c8002",
    ("IVe-b", "lam1=-1,lam3=1,tau=1,kappa=1,v=2"):
        "f98ab0b087bf14552c61a8bb6a19882ae391ba8af39d8085fd723ca7f19a1347",
    ("IVe-c", "lam1=1,lam2=1,tau=1,kappa=1,v=2"):
        "cdec17b5144a9b9d28521c317d29bf84c1e7c2adc4150f823b8e6b1edbaed782",
}


# SHA-256 of the stdout of the README `hydro-*` commands, plus a backward orbit:
# the root finders and the integrator must keep every float operation.
HYDRO_SHA256 = {
    "hydro-analyze": "656006b6af9e082a45e94135dbfd85c7f25b0a02dd8bd8b46f67f3dc8a0d85c5",
    "hydro-orbit --start 1.7,0 --span 100":
        "ab77c9bfd9f53ef55521b1e94067d6f8bb057c20b7345a11c85f24291739d38d",
    "hydro-separatrix": "dee43869121473015062ae4c02e03ec56b9191b173a6c3254608ab6d2c454072",
    "hydro-homoclinic --n 400": "45a2b84545b1e079e58602c4ccc32d32a7174b358bd5037431a54a7b2500f563",
    "hydro-orbit --start 1.7,0 --span -50":
        "5e0805902f827d9491347f2777f5c45c6162cb6924165b758b04ec5327d4b999",
}


# perfbench's committed SHA-256 of `reduce` stdout, keyed <model>.<d>-<d>.p<power>
REDUCE_SHA256 = json.loads((REPO / "perfbench" / "golden.json").read_text())["reduce"]


class TestDeterminism:
    @pytest.mark.parametrize("key", list(REDUCE_SHA256))
    def test_reduce_byte_identical(self, key, capsys):
        name, ansatz, power = key.split(".")
        argv = ["reduce", "--model", str(REPO / "models" / f"{name}.json"),
                "--ansatz", ansatz.replace("-", "/"), "--power", power.removeprefix("p")]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == REDUCE_SHA256[key]

    @pytest.mark.parametrize("command", list(HYDRO_SHA256))
    def test_hydro_byte_identical(self, command, capsys):
        name, *rest = command.split()
        argv = [name, "--model", str(REPO / "models" / "hydro_reference.json"), *rest]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == HYDRO_SHA256[command]

    def test_hydro_analyze_of_tiny_potential(self, tmp_path, capsys):
        # P(R) is about 1e-200 here: Brent's extrapolation underflows and
        # has to bisect, as scipy's does
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps({"nu": 0, "beta": f"1/{10**201}", "sigma": 1,
                                     "D": f"1/{10**100}", "R1": 1}))
        assert cli.main(["hydro-analyze", "--model", str(model)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "83b5a9e7753c21d3245c2a46c6bbf092e7680237ad84b5ef18caadce0c612bc9"

    def test_solve_byte_identical(self, tmp_path):
        for (name, ansatz, fix, starts), digest in SOLVE_SHA256.items():
            system_path = tmp_path / f"{name}.json"
            run_cli("reduce", "--model", str(REPO / "models" / f"{name}.json"),
                    "--ansatz", ansatz, "--out", str(system_path))
            r = run_cli("solve", "--system", str(system_path), "--fix", fix,
                        "--seed", "7", "--starts", starts)
            assert r.returncode == 0, r.stderr
            assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, name

    @pytest.mark.parametrize("equation", list(SOLVE_SYSTEM_SHA256))
    def test_solve_system_byte_identical(self, equation, tmp_path):
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(dict(SYSTEM, unknowns=["x"], equations=[equation])))
        r = run_cli("solve", "--system", str(system_path), "--seed", "3", "--starts", "16")
        assert r.returncode == 0, r.stderr
        digest = hashlib.sha256(r.stdout.encode()).hexdigest()
        assert digest == SOLVE_SYSTEM_SHA256[equation]
        assert json.loads(r.stdout)["count"] == 1

    def test_solve_overflow_is_silent(self, tmp_path):
        # the starts' powers and norms overflow; numpy must not say so on stderr
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(dict(SYSTEM, unknowns=["x"], equations=["x^700 - 2"])))
        r = run_cli("solve", "--system", str(system_path), "--seed", "3", "--starts", "16")
        assert (r.returncode, r.stderr) == (0, "")
        digest = hashlib.sha256(r.stdout.encode()).hexdigest()
        assert digest == SOLVE_SYSTEM_SHA256["x^700 - 2"]

    @pytest.mark.parametrize("family, free", list(EVAL_SHA256))
    def test_eval_byte_identical(self, family, free, capsys):
        assert cli.main(["eval", "--family", family, "--free", free, "--range=-3:3:61"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == EVAL_SHA256[family, free]

    def test_catalog_verify_byte_identical(self):
        args = ("catalog", "verify", "--family", "II", "--trials", "3",
                "--seed", "13", "--expectations", str(EXPECTATIONS))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def _dispatched_targets(level: str) -> list[str]:
    """The SIMD targets numpy dispatches its loops to on this host and has
    enabled: the AVX-512 ones, or all of them."""
    from numpy._core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return [t for t in enabled if "AVX512" in t or t == "X86_V4"] if level == "avx512" else enabled


@pytest.mark.parametrize("level", ["avx512", "all"])
def test_pins_hold_at_every_simd_level(level):
    # the pinned digests with numpy's AVX-512 loops, or every dispatched loop,
    # switched off for a child pytest (numpy reads the variable at import):
    # the scan, eval and hydro-orbit must take no float operation whose
    # rounding depends on the host's SIMD level
    targets = _dispatched_targets(level)
    if not targets:
        pytest.skip(f"numpy dispatches to no {level} target on this host")
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(path))
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core._multiarray_umath import __cpu_features__ as f;"
         f"print(sorted(t for t in {targets!r} if f[t]))"],
        capture_output=True, text=True, env=env, cwd=REPO)
    assert probe.stdout == "[]\n", probe.stderr
    r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "tests/test_catalog.py", "tests/test_cli.py",
                        "-k", "ReportBytes or byte_identical"],
                       capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stdout[-4000:]
