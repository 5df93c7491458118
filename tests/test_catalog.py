import hashlib
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from twbench import catalog, reducer
from twbench.catalog import (
    FAMILIES,
    NOTATION,
    Inadmissible,
    _admissible,
    _Derived,
    _formula,
    _radicands,
    instantiate,
    list_families,
    load_expectations,
    matches_expectations,
    verify_entry,
)
from twbench.cli import main as cli_main
from twbench.model import SchemaError
from twbench.reducer import reduce, sample_solution, verify_assignment
from twbench.symcore import DivisionByZero, exact_root

from conftest import scan_one, scan_outcome

EXPECTATIONS_PATH = Path(__file__).resolve().parent.parent / "expectations.json"


class TestListFamilies:
    def test_all_fourteen_present(self):
        ids = [e.family_id for e in list_families()]
        assert ids == ["I", "I-tanh", "I-kink2", "II", "III", "IVa", "IVa-special",
                       "IVb", "IVc", "IVd", "IVe-a", "IVe-b", "IVe-c", "Burgers-shock"]

    def test_family_II_metadata(self):
        entry = next(e for e in list_families() if e.family_id == "II")
        assert entry.shape == "soliton-like"
        assert "b0*b1 > 0" in entry.admissibility
        assert "|a0|/|b0| = |a1|/|b1|" in entry.admissibility
        assert "a0/b0 != a1/b1" in entry.admissibility

    def test_family_III_is_singular(self):
        entry = next(e for e in list_families() if e.family_id == "III")
        assert entry.shape == "singular"
        assert any("vanishes" in note for note in entry.annotations)

    def test_family_IVe_b_is_kink(self):
        entry = next(e for e in list_families() if e.family_id == "IVe-b")
        assert entry.shape == "kink-like"


class TestInstantiate:
    def test_ive_a_paper_instance(self):
        assignment, sol = instantiate("IVe-a", {"lam1": F(1), "lam3": F(-2),
                                                "tau": F(1), "kappa": F(1), "v": F(2)})
        xi = np.linspace(-5, 5, 201)
        u = sample_solution(sol, xi)
        assert np.max(np.abs(u - 1 / np.cosh(xi / math.sqrt(3.0)))) < 1e-12
        assert abs(float(assignment["alpha"]) - 1 / math.sqrt(3.0)) < 1e-15

    def test_i_tanh_acceptance_instance(self):
        assignment, sol = instantiate("I-tanh", {
            "lam0": F(-1), "lam2": F(1), "lam3": F(-2),
            "A": F(0), "B": F(1), "kappa": F(1), "tau": F(0)})
        assert assignment["v"] == F(-1)
        assert assignment["alpha"] == F(-2)  # branch flip against the printed sign
        xi = np.linspace(-4, 4, 101)
        u = sample_solution(sol, xi)
        assert np.max(np.abs(u - np.tanh(xi))) < 1e-12

    def test_iva_special_side_condition(self):
        lam1, lam2, lam3 = F(1), F(3), F(-2)
        a0 = -lam2 / (3 * lam3)
        lam0 = -(lam1 * a0 + lam2 * a0**2 + lam3 * a0**3)
        assignment, _ = instantiate("IVa-special", {
            "lam0": lam0, "lam1": lam1, "lam2": lam2, "lam3": lam3,
            "kappa": F(1), "tau": F(1), "alpha": F(1)})
        assert assignment["a0"] == F(1, 2)
        # corrected radicand: (2/3)*(lam2^2 - 3*lam1*lam3)/lam3^2 = 5/2
        assert abs(assignment["a1"] ** 2 - 2.5) < 1e-12
        with pytest.raises(Inadmissible):
            instantiate("IVa-special", {
                "lam0": lam0 + 1, "lam1": lam1, "lam2": lam2, "lam3": lam3,
                "kappa": F(1), "tau": F(1), "alpha": F(1)})

    def test_inadmissible_ive_a(self):
        with pytest.raises(Inadmissible):
            instantiate("IVe-a", {"lam1": F(-1), "lam3": F(-2),
                                  "tau": F(1), "kappa": F(1), "v": F(2)})

    def test_burgers_shock_values(self):
        assignment, _ = instantiate("Burgers-shock", {
            "a0": F(0), "a1": F(1), "b0": F(1), "b1": F(1),
            "A": F(2), "B": F(1), "kappa": F(1)})
        assert assignment["v"] == F(-1) and assignment["alpha"] == F(-1)

    def test_free_parameter_names_checked(self):
        paper = {"lam1": F(1), "lam3": F(-2), "tau": F(1), "kappa": F(1), "v": F(2)}
        with pytest.raises(SchemaError, match="missing lam1"):
            instantiate("IVe-a", {k: v for k, v in paper.items() if k != "lam1"})
        with pytest.raises(SchemaError, match="unknown lamm"):
            instantiate("IVe-a", {**paper, "lamm": F(5)})

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            instantiate("IVz", {})

    def test_first_verifying_branch_wins_and_later_errors_stay_unraised(self, monkeypatch):
        # every branch is scanned in one stack, but a branch after the first
        # that verifies is never judged, so its error is never raised
        fam = FAMILIES["Burgers-shock"]
        fv = fam.draw(random.Random(1))
        [good] = fam.instances(fv)
        broken = replace(good, assignment={**good.assignment, "b0": F(0), "b1": F(0)},
                         branch="broken")  # its solution has a zero denominator
        scans = []
        monkeypatch.setattr(catalog, "residual_scan",
                            lambda cases, samples: scans.append(len(cases))
                            or reducer.residual_scan(cases, samples))
        for branches in ([good, broken], [good, good, broken]):
            monkeypatch.setitem(FAMILIES, "Burgers-shock",
                                replace(fam, instances=lambda _, b=branches: list(b)))
            assignment, sol = instantiate("Burgers-shock", fv)
            assert assignment == good.assignment and sol is good.solution
        monkeypatch.setitem(FAMILIES, "Burgers-shock",
                            replace(fam, instances=lambda _: [broken, good]))
        with pytest.raises(DivisionByZero, match="denominator is identically zero"):
            instantiate("Burgers-shock", fv)
        assert scans == [1, 2, 1]  # one stack a call, of the branches with a solution


class TestVerifyEntry:
    @pytest.mark.parametrize("family_id", list(FAMILIES))
    def test_stack_matches_stacks_of_one(self, family_id, monkeypatch):
        stacks = []

        def recording(cases, samples):
            stacks.append((cases, samples))
            return reducer.residual_scan(cases, samples)

        monkeypatch.setattr(catalog, "residual_scan", recording)
        for seed in (1, 2, 3):
            verify_entry(family_id, trials=5, seed=seed)
        # one stack a report, and one more for IVe-b's printed-argument scan
        assert len(stacks) == 3 * (1 + (family_id == "IVe-b"))
        for cases, samples in stacks:
            stacked = reducer.residual_scan(cases, samples)
            assert list(map(scan_outcome, stacked)) == [
                scan_outcome(reducer.residual_scan([case], samples)[0]) for case in cases]
        assert sum(len(cases) for cases, _ in stacks) >= 15

    def test_ivd_passes(self):
        report = verify_entry("IVd", trials=5, seed=1)
        assert report["expected"] == "PASS"
        assert all(t["status"] == "PASS" for t in report["trials_detail"])
        assert all(t["exact"] == "PASS" for t in report["trials_detail"])
        assert all(float(t["scan"]) < 1e-9 for t in report["trials_detail"])

    def test_iii_readings(self):
        report = verify_entry("III", trials=3, seed=1)
        assert report["readings"]["a3_as_a2"] == "PASS"
        assert report["readings"]["a3_literal"] == "FAIL-DOCUMENTED"
        # literal-reading failures carry equation evidence
        evidence = [f for t in report["trials_detail"] for f in t["failures"]
                    if f["reading"] == "a3_literal"]
        assert evidence and all(f["failing_equations"] for f in evidence
                                if f["exact"] == "FAIL")

    def test_burgers_passes(self):
        report = verify_entry("Burgers-shock", trials=5, seed=1)
        assert report["expected"] == "PASS"

    def test_deterministic_reports(self):
        a = verify_entry("IVe-b", trials=3, seed=5)
        b = verify_entry("IVe-b", trials=3, seed=5)
        assert a == b

    def test_no_cached_state_outlives_a_call(self, monkeypatch):
        # reduce's memo lives for one verify_entry call: a second call of the
        # same family takes the same packed products and reports the same
        calls = []
        mul = reducer._mul

        def counted(a, b):
            calls.append(None)
            return mul(a, b)

        monkeypatch.setattr(reducer, "_mul", counted)
        first = verify_entry("IVc")
        first_calls = len(calls)
        assert verify_entry("IVc") == first
        assert len(calls) == 2 * first_calls > 0

    def test_branch_failure_surfaces(self):
        # admissible frees whose derived table cannot verify exist only through
        # instantiate on a reading that fails; the literal-III reading is one
        fam = FAMILIES["III"]
        fv = fam.draw(random.Random(0))
        insts = [i for i in fam.instances(fv) if i.reading == "a3_literal"]
        assert insts
        system = reduce(insts[0].pde, insts[0].ansatz)
        assert not verify_assignment(system, insts[0].assignment).passed


class TestShapeClassification:
    @pytest.mark.parametrize("family_id", [
        "I", "I-tanh", "I-kink2", "II", "IVa", "IVa-special", "IVb", "IVc",
        "IVd", "IVe-a", "IVe-b", "IVe-c", "Burgers-shock"])
    def test_limits_match_declared_shape(self, family_id):
        fam = FAMILIES[family_id]
        rng = random.Random(f"shape:{family_id}")
        for _ in range(3):
            fv = fam.draw(rng)
            inst = next(i for i in fam.instances(fv) if i.reading == fam.adopted)
            left, right = sample_solution(inst.solution, np.array([-50.0, 50.0]))
            assert math.isfinite(left) and math.isfinite(right)
            if fam.entry.shape == "kink-like":
                assert abs(left - right) > 1e-8
            else:
                assert abs(left - right) <= 1e-8

    def test_gauge_scaling_leaves_evaluator_unchanged(self):
        fam = FAMILIES["I"]
        rng = random.Random("gauge")
        fv = fam.draw(rng)
        scale = F(7, 3)
        scaled = dict(fv)
        for name in ("a0", "a1", "b0", "b1"):
            scaled[name] = fv[name] * scale
        xi = np.linspace(-8, 8, 161)
        u1 = sample_solution(fam.instances(fv)[0].solution, xi)
        u2 = sample_solution(fam.instances(scaled)[0].solution, xi)
        assert np.array_equal(u1, u2)


class TestParabolicSubstitution:
    """Setting B = 1, tau = 0 specializes families I and II to the parabolic
    transport equation; verification status must be preserved."""

    @pytest.mark.parametrize("family_id", ["I", "II"])
    def test_b1_tau0_draws_still_pass(self, family_id):
        fam = FAMILIES[family_id]
        rng = random.Random(f"parabolic:{family_id}")
        done = 0
        while done < 3:
            fv = dict(fam.draw(rng))
            fv["B"], fv["tau"] = F(1), F(0)
            try:
                insts = fam.instances(fv)
            except Inadmissible:
                continue
            inst = next(i for i in insts if i.reading == fam.adopted)
            assert inst.pde.B == 1 and inst.pde.tau == 0
            system = reduce(inst.pde, inst.ansatz)
            assert verify_assignment(system, inst.assignment).passed
            assert scan_one(inst.pde, inst.solution, (-10, 10), 1001) < 1e-9
            done += 1


class TestExpectations:
    def test_committed_file_matches_reports(self):
        # at seed 9 and at the file's own reference seed and trials, which
        # are catalog verify's defaults
        expectations = load_expectations(EXPECTATIONS_PATH)
        meta = expectations["_meta"]
        for seed, trials in [(9, 2), (meta["reference_seed"], meta["reference_trials"])]:
            for family_id in FAMILIES:
                report = verify_entry(family_id, trials=trials, seed=seed)
                assert matches_expectations(report, expectations[family_id]), (family_id, seed)

    def test_mismatch_detected(self):
        report = verify_entry("IVd", trials=1, seed=1)
        assert not matches_expectations(report, {"expected": "FAIL-DOCUMENTED"})

    def test_committed_notes_match_the_catalog(self):
        # catalog list prints the catalog's copy and matches_expectations
        # reads neither field, so only this catches the two drifting apart
        expectations = load_expectations(EXPECTATIONS_PATH)
        for family_id, fam in FAMILIES.items():
            committed = expectations[family_id]
            assert committed["annotations"] == list(fam.entry.annotations), family_id
            assert committed["adopted_reading"] == fam.adopted, family_id


class TestDerivedFormulas:
    """The evaluator that turns each family's printed formula text into values."""

    def test_power_binds_tighter_than_product_and_quotient(self):
        d = _Derived({"x": F(2), "y": F(3)}, {"q": "x/y^2", "p": "2*x^3", "n": "-x^2"})
        assert (d["q"], d["p"], d["n"]) == (F(2, 9), F(16), F(-4))

    def test_literals_are_exact(self):
        value = _Derived({}, {"r": "2/3"})["r"]
        assert value == F(2, 3) and type(value) is F

    def test_float_input_rejected(self):
        with pytest.raises(TypeError):
            _Derived({"x": 0.5}, {"r": "x"})

    @pytest.mark.parametrize("text, holds", [
        ("x < y", True), ("x <= 2", True), ("x > y", False), ("y >= 4", False),
        ("x != 2", False), ("x = 2", True), ("x^2 = 2*x", True),
        ("|x - y| = 1", True), ("|x|/|-y| = 2/3", True), ("|x| + |y| != 0", True),
        ("derived q < 0", True), ("derived q = x - y", True),
    ])
    def test_conditions(self, text, holds):
        d = _Derived({"x": F(2), "y": F(3)}, {"q": "x - y"})
        assert _formula(text)(d) is holds

    @pytest.mark.parametrize("text", ["sqrt(x)", "x^(1/2)", "0.5*x", "x % 3", "0 < x < 1",
                                      "x = y = 1", "velocity discriminant >= 0",
                                      "radicand of v positive"])
    def test_other_syntax_rejected(self, text):
        with pytest.raises(ValueError):
            _Derived({"x": F(4), "y": F(4)}, {"r": text})["r"]

    def test_radicands_read_from_printed_text(self):
        # every sqrt(...) argument of every printed formula is found and compiles
        found = {}
        for family_id, fam in FAMILIES.items():
            for name, text in fam.entry.derived.items():
                args = _radicands(text)
                assert len(args) == text.count("sqrt(")
                for arg in args:
                    _formula(arg)
                if args:
                    found[family_id, name] = args
        assert found == {
            ("I-tanh", "v"): ("A^2*B^2 - 8*kappa*lam3 + 16*kappa*lam2^2*tau",),
            ("I-tanh", "alpha"): ("-lam0*lam2",),
            ("I-tanh", "a0"): ("-lam0/lam2",),
            ("I-kink2", "b0"): ("lam2^2 - 4*lam1*lam3",),
            ("I-kink2", "v"): ("kappa", "4*lam2^2*tau + 4*b0*lam2*(B^2+3*lam1*tau) "
                                        "+ b0^2*lam1*(2*B^2+9*lam1*tau)"),
            ("III", "a2"): ("lam3/lam1",),
            ("III", "alpha"): ("lam1*lam3",),
            ("III", "v"): ("(A^2/lam3 + kappa)/tau",),
            ("IVa-special", "a1"): ("2*(lam2^2 - lam1*lam3)/lam3^2",),
            ("IVa-special", "v"): ("(lam1 - lam2^2/(3*lam3) + kappa*alpha^2)/(tau*alpha^2)",),
            ("IVe-a", "u"): ("-2*lam1/lam3", "lam1/H"),
            ("IVe-b", "u"): ("-lam1/lam3", "-lam1/(2*H)"),
            ("IVe-c", "u"): ("lam1/H",),
        }

    def test_radicand_evaluated_exactly(self):
        fv = {"lam1": F(2), "lam3": F(-1), "tau": F(1), "kappa": F(1), "v": F(2)}
        values = _Derived(fv, FAMILIES["IVe-a"].entry.derived)
        assert (values.radicand("u"), values.radicand("u", 1)) == (F(4), F(2, 3))  # H = 3

    def test_notation_resolves_after_free_values(self):
        fv = {"a0": F(1), "a1": F(2), "b0": F(3), "b1": F(5)}
        assert _Derived(fv)["Delta"] == 2 * 3 - 1 * 5
        assert _Derived({**fv, "Delta": F(7)})["Delta"] == 7

    @pytest.mark.parametrize("name", list(NOTATION))
    def test_notation_matches_module_docstring(self, name):
        pattern = rf"^ *{re.escape(name)} *= {re.escape(NOTATION[name])}$"
        assert re.search(pattern, catalog.__doc__, re.MULTILINE)


# Families whose printed conditions are all formulas, checked from their text.
TEXT_CONDITIONS = ["I", "II", "III", "IVa", "IVb", "IVc", "IVd", "IVe-a", "IVe-b", "IVe-c",
                   "Burgers-shock"]


class TestAdmissibilityText:
    @pytest.mark.parametrize("family_id", TEXT_CONDITIONS)
    def test_conditions_compile_and_hold_on_draws(self, family_id):
        fam = FAMILIES[family_id]
        fv = fam.draw(random.Random(f"text:{family_id}"))
        values = _Derived(fv, fam.entry.derived)
        assert all(_formula(c)(values) for c in fam.entry.admissibility)

    def test_conditions_left_to_branches(self):
        left = {family_id: [c for c in fam.entry.admissibility
                            if c not in fam.entry.formula_conditions]
                for family_id, fam in FAMILIES.items()}
        assert {family_id: conditions for family_id, conditions in left.items() if conditions} == {
            "I-tanh": ["velocity discriminant >= 0"],
            "I-kink2": ["radicand of v positive", "2*lam2 + 3*b0*lam1 != 0"],  # b0 is a radical
            "IVa-special": ["v radicand >= 0", "a1 radicand >= 0"],
        }

    @pytest.mark.parametrize("family_id", ["I-tanh", "I-kink2", "IVa-special"])
    def test_prose_conditions_stay_in_code(self, family_id):
        conditions = FAMILIES[family_id].entry.admissibility
        with pytest.raises(ValueError):
            for condition in conditions:
                _formula(condition)

    def test_first_failed_condition_named(self):
        fv = {"a0": F(1), "a1": F(2), "b0": F(1), "b1": F(-1), "alpha": F(0), "v": F(1),
              "B": F(1), "tau": F(0), "kappa": F(1)}
        # b0*b1 > 0 fails before a0/b0 != a1/b1 or alpha != 0 are reached
        with pytest.raises(Inadmissible, match=r"^II needs b0\*b1 > 0$"):
            _admissible(FAMILIES["II"].entry, fv)
        with pytest.raises(Inadmissible, match=r"^II needs \|a0\|/\|b0\| = \|a1\|/\|b1\|$"):
            _admissible(FAMILIES["II"].entry, {**fv, "b1": F(1)})
        with pytest.raises(Inadmissible, match="^I needs derived A >= 0$"):
            instantiate("I", {"a0": F(0), "a1": F(1), "b0": F(1), "b1": F(1), "alpha": F(1),
                              "v": F(1), "lam3": F(1), "tau": F(0), "kappa": F(1), "B": F(0)})
        # the formula conditions of the tables that also print prose
        admissible = {
            "I-tanh": {"lam0": F(-1), "lam2": F(1), "lam3": F(-2), "A": F(0), "B": F(1),
                       "kappa": F(1), "tau": F(0)},
            "I-kink2": {"lam1": F(1), "lam2": F(3), "lam3": F(1), "B": F(1), "kappa": F(1),
                        "tau": F(1)},
            "IVa-special": {"lam0": F(-1), "lam1": F(1), "lam2": F(3), "lam3": F(-2),
                            "kappa": F(1), "tau": F(1), "alpha": F(1)},
        }
        violations = [
            ("I-tanh", {"lam2": F(0)}, "lam2 != 0"),
            ("I-tanh", {"lam0": F(1)}, "lam0*lam2 < 0"),
            ("I-tanh", {"tau": F(-1)}, "2*lam3 - 4*lam2^2*tau != 0"),
            ("I-tanh", {"B": F(2)}, "B = 1"),
            ("I-kink2", {"lam1": F(0)}, "lam1 != 0"),
            ("I-kink2", {"lam3": F(3)}, "lam2^2 - 4*lam1*lam3 >= 0"),
            ("I-kink2", {"B": F(0)}, "B > 0"),
            ("I-kink2", {"kappa": F(0)}, "kappa > 0"),
            ("IVa-special", {"lam3": F(0)}, "lam3 != 0"),
            ("IVa-special", {"alpha": F(0)}, "alpha != 0"),
            ("IVa-special", {"tau": F(0)}, "tau > 0"),
            ("IVa-special", {"lam0": F(0)}, "lam0 + lam1*a0 + lam2*a0^2 + lam3*a0^3 = 0"),
            # the prose conditions, checked by the branch generators
            ("I-tanh", {"lam3": F(2)}, "velocity discriminant >= 0"),
            # negative on both signs of b0
            ("I-kink2", {"tau": F(-5)}, "radicand of v positive"),
            ("IVa-special", {"kappa": F(-10)}, "v radicand >= 0"),
            # negative in both readings of a1
            ("IVa-special", {"lam0": F(0), "lam2": F(0), "lam3": F(1)}, "a1 radicand >= 0"),
        ]
        for family_id, free in admissible.items():
            instantiate(family_id, free)
        for family_id, change, condition in violations:
            with pytest.raises(Inadmissible, match=f"^{re.escape(f'{family_id} needs {condition}')}$"):
                instantiate(family_id, {**admissible[family_id], **change})


class TestExactSqrt:
    def test_perfect_squares(self):
        assert exact_root(F(9, 4), 2) == F(3, 2)
        assert exact_root(F(0), 2) == 0

    def test_non_squares(self):
        assert exact_root(F(2), 2) is None
        assert exact_root(F(-4), 2) is None

    @pytest.mark.parametrize("q", [F(2, 10**400), F(2, 10**320), F(2 * 10**400)],
                             ids=["2e-400", "2e-320", "2e400"])
    def test_root_of_radicand_beyond_float_range(self, q):
        # float(q) underflows to 0 or overflows, but sqrt(q) is a float
        root, negative = catalog._sqrt_branches(q)
        assert negative == -root
        assert abs(F(root) ** 2 / q - 1) < 1e-15

    def test_root_beyond_float_range(self):
        with pytest.raises(catalog.NumericFailure, match="radicand is beyond the float range"):
            catalog._sqrt_branches(F(2 * 10**700))


# SHA-256 of `catalog list` stdout and of each family's verify_entry report
# (trials=5, seed=1, dumped as the CLI dumps it).  Verdict checks miss a
# report that changes in any other byte; these pin every byte, at every SIMD
# level numpy dispatches to (test_cli.test_pins_hold_at_every_simd_level).
CATALOG_LIST_SHA256 = "765df3d0f5f350836c0c2114664d33ed2666b4c943f6eb5eed472a99996a2248"
REPORT_SHA256 = {
    "I": "e83907404c54d874e9d37b86ed5fb1695692fffb53ccd7f4094e0b77b9bf0e91",
    "I-tanh": "c504bf2d38a9feb9b5754fe83454d164ef710d29deb59914d8f3735d5dce8461",
    "I-kink2": "3a986f360ef92ccf2777cbdfca6e470069533776e1767015d69c41432a539156",
    "II": "2def1a763f7db27b24c2d40200f82d1e8e3a1c71ae79f57d015a65d5d6316057",
    "III": "747aa837f4e5483d202a0bebe10236b51b163552d4ccd794c8f30ff79b517628",
    "IVa": "af65c446ffb72ce3cf653e92d570bac35cb32710c0fa7ea42fb43754cc4cafac",
    "IVa-special": "cd2ef1ed714f1d8f317c7bf81fedb1d1e42cbbf49801d5fde70125521df437f9",
    "IVb": "23f65f793a30d30c05414c49ec5831c1b65cf57dc7ddba91d1e24239604ad0ff",
    "IVc": "161015683e0f69d7c7641177a00cf7a837fe91dd42d1f6a6dd2310c0621c7701",
    "IVd": "d1dfad6396e6964fe5234ded8b8346964a715c7193aff37606ae31c3bf8cbd74",
    "IVe-a": "a489dc933c2fa473b1504e29e03b67bfb1d5e6a519ce4376cf1c74e859316867",
    "IVe-b": "7016bc0ac3612bc5de586b437af6c2d845cf869abb2560f2c393105d7edd9137",
    "IVe-c": "fd85a177192fcab33477f57e5b5a94e6a419160bafa5fd887dd598bb39482a52",
    "Burgers-shock": "6e991a8725b3e246b75dd192aa626c441af1e896646b18c7862edbc6d8598cbb",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestReportBytes:
    def test_catalog_list(self, capsys):
        assert cli_main(["catalog", "list"]) == 0
        assert _sha256(capsys.readouterr().out) == CATALOG_LIST_SHA256

    @pytest.mark.parametrize("family_id", list(REPORT_SHA256))
    def test_verify_entry_report(self, family_id):
        report = verify_entry(family_id, trials=5, seed=1)
        text = json.dumps(report, indent=2, sort_keys=True)
        assert _sha256(text) == REPORT_SHA256[family_id]
