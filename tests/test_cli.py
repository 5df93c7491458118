import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from twbench import catalog, hydro, model, reducer

REPO = Path(__file__).resolve().parent.parent
EXPECTATIONS = REPO / "expectations.json"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "twbench.cli", *args],
                          capture_output=True, text=True, cwd=cwd or REPO)


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


def test_exact_commands_do_not_import_scipy():
    code = textwrap.dedent("""
        import contextlib, io, sys
        from twbench import cli
        for argv in (["catalog", "list"],
                     ["reduce", "--model", "models/burgers.json", "--ansatz", "1/1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(sorted(m for m in ("scipy", "twbench.hydro") if m in sys.modules))
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


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


class TestDeterminism:
    def test_solve_byte_identical(self, burgers_model, tmp_path):
        system_path = tmp_path / "sys.json"
        run_cli("reduce", "--model", str(burgers_model), "--ansatz", "1/1",
                "--out", str(system_path))
        args = ("solve", "--system", str(system_path),
                "--fix", "a0=0,a1=1,b0=1,b1=1", "--seed", "7", "--starts", "48")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_catalog_verify_byte_identical(self):
        args = ("catalog", "verify", "--family", "II", "--trials", "3",
                "--seed", "13", "--expectations", str(EXPECTATIONS))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
