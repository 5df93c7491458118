"""The benchmark's own tests: tracing on/off, restoration, determinism,
metric names, where the workload inputs come from, and one process per pass.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracer, workloads
from twbench import catalog

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class Subset:
    """A workload cut down to a few operations, plus optional probe ops."""

    def __init__(self, workload, count, extra=()):
        self.name = workload.name
        self.workload = workload
        self.count = count
        self.extra = list(extra)

    def ops(self, j):
        return self.workload.ops(j)[: self.count] + self.extra


def current_sites():
    """The objects now found at every patched lookup site and family slot."""
    sites = [vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
             for obj, attr in tracer.lookup_sites()]
    return sites, dict(catalog.FAMILIES)


def probe_op(seen):
    return workloads.Op("probe", lambda: seen.append(current_sites()), lambda _: "")


def same_objects(a, b):
    (sites_a, fams_a), (sites_b, fams_b) = a, b
    return (all(x is y for x, y in zip(sites_a, sites_b))
            and fams_a.keys() == fams_b.keys()
            and all(fams_a[k] is fams_b[k] for k in fams_a))


def test_untraced_pass_installs_no_wrapper():
    before, seen = current_sites(), []
    outcome = run.run_pass(Subset(workloads.CatalogSweep(1), 2, [probe_op(seen)]), 0)
    assert outcome.failed == 0, outcome.problems
    assert same_objects(seen[0], before)
    assert same_objects(current_sites(), before)


def test_traced_pass_patches_lookup_sites_and_restores_them():
    before, seen = current_sites(), []

    def boom():
        raise RuntimeError("op failure inside a traced pass")

    failing = workloads.Op("boom", boom, str)
    t = tracer.Tracer()
    subset = Subset(workloads.CatalogSweep(1), 1, [probe_op(seen), failing])
    outcome = run.run_pass(subset, 0, t)
    assert not t.installed
    assert same_objects(current_sites(), before)
    during_sites, during_fams = seen[0]
    assert all(x is not y for x, y in zip(during_sites, before[0]))
    assert all(during_fams[k] is not before[1][k] for k in before[1])
    # catalog calls `reduce` through its own imported name: counted there
    assert outcome.layer["reducer.reduce.calls"] > 0
    assert outcome.layer["catalog.instances.ms"] > 0
    assert outcome.failed == 1 and "boom" in outcome.problems[0]


@pytest.mark.parametrize("make, count", [
    (lambda: workloads.CatalogSweep(5), 3),
    (lambda: workloads.ReductionLadder(5), 9),
    (lambda: workloads.HydroReference(5), 3),
])
def test_same_seed_gives_same_digests_and_counts(make, count):
    a = run.run_pass(Subset(make(), count), 0, tracer.Tracer())
    b = run.run_pass(Subset(make(), count), 0, tracer.Tracer())
    assert a.failed == b.failed == 0, a.problems + b.problems
    assert a.digests == b.digests and len(a.digests) == count
    counts = {k: v for k, v in a.layer.items() if run.PER_LAYER[k] == "count"}
    assert counts == {k: b.layer[k] for k in counts}
    assert any(counts.values())
    untraced = run.run_pass(Subset(make(), count), 0)
    assert untraced.digests == a.digests


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert end_to_end == run.END_TO_END
    for name in [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]:
        assert NAME.match(name) and len(name) <= 64, name


def test_seed_is_an_argument_and_inputs_are_generated(monkeypatch):
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "catalog-sweep"])
    assert run.parse_args(["--workload", "cli-session", "--seed", "9"]).seed == 9

    for cls in (workloads.ReductionLadder, workloads.HydroReference):
        assert cls(3).draw(0) == cls(3).draw(0)
        assert cls(3).draw(0) != cls(4).draw(0)
        assert cls(3).draw(0) != cls(3).draw(1)

    # the catalog sweep adjudicates the configuration expectations.json records
    received = []
    monkeypatch.setattr(catalog, "verify_entry",
                        lambda family, trials, seed: received.append((family, trials, seed)))
    sweep = workloads.CatalogSweep(3)
    for op in sweep.ops(2):
        op.call()
    meta = sweep.expectations["_meta"]
    assert received == [(f, meta["reference_trials"], meta["reference_seed"])
                        for f in sweep.families]


def test_set_up_makes_no_timed_library_call(tmp_path):
    """A result cache filled during set-up would turn timed calls into hits."""
    t = tracer.Tracer()
    t.install()
    try:
        for cls in (workloads.CatalogSweep, workloads.ReductionLadder, workloads.HydroReference):
            cls(3).ops(0)
        workloads.CliSession(3, tmp_path).ops(0)
    finally:
        t.restore()
    assert dict(t.stats) == {}


def test_each_pass_runs_in_a_fresh_interpreter():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog-sweep",
                          "--seed", "2", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    detail, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    pids = [p["pid"] for p in detail["passes"]]
    assert len(pids) == 2 and len(set(pids)) == 2 and os.getpid() not in pids
    assert detail["passes"][0]["digest"] == detail["passes"][1]["digest"]


def test_refuses_to_run_without_the_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
