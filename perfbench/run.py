"""twbench benchmark: one workload, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Passes of the workload run back to back for
S seconds (at least one pass), and each pass runs in a fresh interpreter: the
child does the set-up (imports, parsing, draws), times the pass's operations,
then renders every output canonically, digests it with SHA-256 and checks it.
A result cache in the library therefore lives for one pass only and cannot
turn later passes into cache hits.  Pass ``j`` draws its inputs from
(N, workload, j).  A failed check, an exception or a wrong exit code counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass on the same inputs and reports the per-layer
metrics, including ``trace_overhead_frac``; the traced pass must reproduce the
untraced pass's digests.

The last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a detail object (environment,
sample counts, per-pass times and digests, failures).  A table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One BLAS/OpenMP thread for this process and every child; must precede the
# first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]  # the perfbench package itself

WORKLOAD_NAMES = ("catalog-sweep", "reduction-ladder", "hydro-reference", "cli-session")
RUN_LIMIT_S = 170  # a run ends within this, passes included


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=None,
                        help="run only pass J in this interpreter and print its record "
                             "(used by the benchmark for each pass)")
    parser.add_argument("--traced", action="store_true", help="with --pass: trace the pass")
    return parser.parse_args(argv)


def require_checkout():
    """The benchmark measures the checkout it sits in, built from its sources."""
    needed = [ROOT / "src" / "twbench" / "__init__.py", ROOT / "expectations.json",
              ROOT / "models" / "burgers.json", ROOT / "models" / "telegraph_cubic.json",
              ROOT / "models" / "hydro_reference.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a twbench checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src")]


# -- one pass, in its own interpreter -------------------------------------------


def cpu_now() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def set_up(name: str, seed: int, workdir: Path, j: int):
    """Imports, input parsing and pass j's draws: everything before the
    first timed operation.  Returns the workload and pass j's operations."""
    from perfbench import workloads

    import twbench
    if Path(twbench.__file__).resolve().parent != ROOT / "src" / "twbench":
        raise SystemExit(f"perfbench: imported twbench from {twbench.__file__}, not the checkout")
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, workdir) if name == "cli-session" else cls(seed)
    return workload, workload.ops(j)


class Pass:
    """Outcome of one pass: per-op wall and CPU spans, digests, problems."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.span = (0.0, 0.0)  # perf_counter interval of the timed operations
        self.cpu = 0.0  # CPU seconds of the timed operations
        self.op_spans: dict[str, tuple[float, float]] = {}
        self.op_cpu: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0  # peak resident memory when the timed operations end
        self.layer: dict[str, float] = {}  # traced passes: per-layer values

    @property
    def wall(self) -> float:
        return self.span[1] - self.span[0]


def run_ops(ops, outcome: Pass, results: list):
    """Call each op in turn, timing it; exceptions become failures."""
    for op in ops:
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing op is counted, the run goes on
            result = exc
        outcome.op_spans[op.name] = (t0, time.perf_counter())
        outcome.op_cpu[op.name] = cpu_now() - c0
        results.append((op, result))


def judge(outcome: Pass, results: list):
    from perfbench.workloads import sha

    for op, result in results:
        outcome.attempted += 1
        if isinstance(result, Exception):
            problems = [f"{op.name}: {type(result).__name__}: {result}"]
        else:
            try:
                outcome.digests[op.name] = sha(op.render(result))
                problems = op.check(result)
            except Exception as exc:  # a broken output must fail the op, not the run
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            outcome.failed += 1
            outcome.problems.extend(problems)


def peak_rss_mb(workload) -> float:
    import resource

    if workload.name == "cli-session":  # the commands' own peak, from wait4
        return workload.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, j: int, tracer=None, ops=None) -> Pass:
    outcome = Pass(j, traced=tracer is not None)
    ops = workload.ops(j) if ops is None else ops
    results: list = []
    if tracer is None:
        c0, t0 = cpu_now(), time.perf_counter()
        run_ops(ops, outcome, results)
        outcome.span, outcome.cpu = (t0, time.perf_counter()), cpu_now() - c0
    else:
        tracer.reset()
        tracer.install()
        try:
            c0, t0 = cpu_now(), time.perf_counter()
            run_ops(ops, outcome, results)
            outcome.span, outcome.cpu = (t0, time.perf_counter()), cpu_now() - c0
            if workload.name == "cli-session":  # in-process, warm: not part of the pass
                run_ops(workload.inproc_ops(), outcome, results)
        finally:
            tracer.restore()
        outcome.layer = layer_values(tracer.stats, outcome.op_spans)
        if workload.name == "cli-session":
            outcome.layer["cli.import_s"] = workload.import_probe()
    outcome.rss_mb = peak_rss_mb(workload)  # before rendering and checking
    judge(outcome, results)
    return outcome


def pass_main(args) -> int:
    """Set up, run pass ``args.pass_index`` and print its record as JSON.
    Times are in reference seconds (speed.py), with raw wall and CPU beside."""
    from perfbench.speed import SpeedSampler

    speed = SpeedSampler()
    speed.start()
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        c0, t0 = cpu_now(), time.perf_counter()
        workload, ops = set_up(args.workload, args.seed, workdir, args.pass_index)
        setup = (t0, time.perf_counter(), cpu_now() - c0)
        tracer = None
        if args.traced:
            from perfbench.tracer import Tracer

            tracer = Tracer()
        outcome = run_pass(workload, args.pass_index, tracer, ops)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    def times(a, b, cpu, unit=1.0):
        return {"ref": unit * speed.scaled(a, b), "wall": unit * (b - a), "cpu": unit * cpu}

    ratio = speed.scaled(*outcome.span) / outcome.wall if outcome.wall > 0 else 1.0
    layer = {name: value if PER_LAYER[name] in ("count", "1/start") else value * ratio
             for name, value in outcome.layer.items()}
    record = {
        "index": outcome.index, "traced": outcome.traced, "pid": os.getpid(),
        "setup_s": times(*setup),
        "pass_s": times(*outcome.span, outcome.cpu),
        "op_ms": {op: times(*span, outcome.op_cpu[op], 1e3)
                  for op, span in outcome.op_spans.items()},
        "digests": outcome.digests, "problems": outcome.problems,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "rss_mb": outcome.rss_mb, "layer": layer,
        "snippet": {"median_s": speed.median_cost(), "samples": len(speed.costs)},
    }
    print(json.dumps(record, sort_keys=True))
    return 0


# -- metrics ------------------------------------------------------------------


CLI_COMMANDS = ("reduce", "solve", "verify", "catalog_list", "catalog_verify", "eval",
                "hydro-analyze", "hydro-orbit", "hydro-separatrix", "hydro-homoclinic")
FAMILIES = ("I", "I-tanh", "I-kink2", "II", "III", "IVa", "IVa-special", "IVb", "IVc", "IVd",
            "IVe-a", "IVe-b", "IVe-c", "Burgers-shock")

#: End-to-end metrics: name -> unit.  Times are in reference seconds
#: (speed.py); setup_s keeps the unit "s" that the benchmark format requires.
END_TO_END = {"setup_s": "s", "wall_s": "ref_s", "op_p50_ms": "ref_ms", "op_p90_ms": "ref_ms",
              "peak_rss_mb": "MB"}

#: Per-layer metrics: name -> unit.  ``.ms`` is per pass, summed over calls,
#: in reference milliseconds; counts are from the first traced pass, so they
#: repeat exactly per seed.
PER_LAYER = {
    "reducer.reduce.calls": "count", "reducer.reduce.ms": "ref_ms",
    "reducer.reduce.terms": "count",
    "reducer.verify_assignment.calls": "count", "reducer.verify_assignment.ms": "ref_ms",
    "reducer.residual_scan.calls": "count", "reducer.residual_scan.ms": "ref_ms",
    "symcore.ExpRational.differentiate_xi.calls": "count",
    "symcore.ExpRational.differentiate_xi.ms": "ref_ms",
    "reducer.solve_numeric.ms": "ref_ms", "reducer.solve_numeric.roots": "count",
    "reducer.solve_numeric.roots_per_start": "1/start",
    "symcore.ParamPoly.evaluate.calls": "count", "symcore.ParamPoly.evaluate.ms": "ref_ms",
    "symcore.ParamPoly.mul.calls": "count", "symcore.ParamPoly.mul.self_ms": "ref_ms",
    "symcore.ParamPoly.substitute.ms": "ref_ms",
    **{f"catalog.verify_entry.{f}.ms": "ref_ms" for f in FAMILIES},
    "catalog.verify_entry.self_ms": "ref_ms", "catalog.instances.ms": "ref_ms",
    "hydro.homoclinic_profile.ms": "ref_ms", "hydro.quad.calls": "count",
    "hydro.G_prime.calls": "count", "hydro.G_second.calls": "count",
    "hydro.P_of_R.calls": "count",
    "hydro.separatrix.ms": "ref_ms", "hydro.critical_points.ms": "ref_ms",
    "hydro.turning_point.ms": "ref_ms",
    "hydro.flow.ms": "ref_ms", "hydro.flow.steps": "count", "hydro.hamiltonian.calls": "count",
    "cli.import_s": "ref_s",
    **{f"cli.{c}.ms": "ref_ms" for c in CLI_COMMANDS},
    **{f"cli.main.{c}.ms": "ref_ms" for c in CLI_COMMANDS},
    "trace_overhead_frac": "fraction",
}


def layer_values(stats, op_spans) -> dict[str, float]:
    """One traced pass's per-layer values in raw wall time, keyed by
    PER_LAYER name."""
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in ("cli.import_s", "trace_overhead_frac"):
            out[name] = 0.0  # measured outside the tracer, filled in by the caller
        elif name == "catalog.verify_entry.self_ms":
            out[name] = 1e3 * sum(s.self_seconds for n, s in stats.items()
                                  if n.startswith("catalog.verify_entry."))
        elif name == "reducer.solve_numeric.roots_per_start":
            counts = stats["reducer.solve_numeric"].counts if "reducer.solve_numeric" in stats else {}
            out[name] = counts["roots"] / counts["starts"] if counts.get("starts") else 0.0
        elif base.startswith("cli.") and not base.startswith("cli.main.") and kind == "ms":
            a, b = op_spans.get(base, (0.0, 0.0))  # subprocess wall, timed by the pass
            out[name] = 1e3 * (b - a)
        else:
            stat = stats.get(base)
            if stat is None:
                out[name] = 0.0
            elif kind == "calls":
                out[name] = stat.calls
            elif kind == "ms":
                out[name] = 1e3 * stat.seconds
            elif kind == "self_ms":
                out[name] = 1e3 * stat.self_seconds
            else:
                out[name] = stat.counts[kind]
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 < q < 1) of the samples."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- the run ------------------------------------------------------------------


def spawn_pass(args, j: int, traced: bool, deadline: float) -> dict:
    """Run pass j in a fresh interpreter and return its record.  The child
    and everything it starts form one process group, killed at the deadline."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--pass", str(j)]
    proc = subprocess.Popen(argv + (["--traced"] if traced else []), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, "PYTHONHASHSEED": "0"}, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(HERE / "_work" / str(proc.pid), ignore_errors=True)
        raise SystemExit(f"perfbench: pass {j} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: pass {j} exited {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.splitlines()[-1])


def measure(args) -> list[dict]:
    """Run passes for args.seconds; returns their records."""
    passes: list[dict] = []
    t_start = time.perf_counter()
    t_end, deadline = t_start + args.seconds, t_start + RUN_LIMIT_S
    j = 0
    while not passes or time.perf_counter() < t_end:
        if not args.trace:
            passes.append(spawn_pass(args, j, False, deadline))
        else:
            # same inputs for both; alternate which runs first
            order = (False, True) if j % 2 == 0 else (True, False)
            pair = {traced: spawn_pass(args, j, traced, deadline) for traced in order}
            untraced, traced = pair[False], pair[True]
            changed = sorted(k for k in untraced["digests"]
                             if traced["digests"].get(k) != untraced["digests"][k])
            if changed:
                traced["problems"].append(f"traced pass {j} changed outputs: {changed}")
                traced["failed"] += 1
            passes += [untraced, traced]
        j += 1
    return passes


def end_to_end(untraced: list[dict], clock: str) -> dict[str, float]:
    """setup_s, wall_s and the latency percentiles on one clock ("ref",
    "wall" or "cpu")."""
    op_samples: dict[str, list[float]] = {}
    for p in untraced:
        for op, t in p["op_ms"].items():
            op_samples.setdefault(op, []).append(t[clock])
    # each operation's median over the passes, then percentiles across
    # operations: a pass mixes 0.1 ms and 2 s calls, and pooling the raw
    # samples puts the percentile on the noisy edge of a cluster
    latencies = [median(v) for v in op_samples.values()]
    return {"setup_s": median([p["setup_s"][clock] for p in untraced]),
            "wall_s": median([p["pass_s"][clock] for p in untraced]),
            "op_p50_ms": percentile(latencies, 0.5),
            "op_p90_ms": percentile(latencies, 0.9)}


def summarize(args, passes: list[dict]):
    """The metrics and the detail record."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace_overhead_frac":
                value = median([t["pass_s"]["ref"] / u["pass_s"]["ref"]
                                for t, u in zip(traced, untraced)]) - 1.0
            elif unit in ("count", "1/start"):
                value = traced[0]["layer"][name]
            else:
                value = median([p["layer"][name] for p in traced])
            metrics[name] = {"value": value, "unit": unit}
        samples = {"passes_traced": len(traced), "passes_untraced": len(untraced)}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(untraced, "ref").items()}
        metrics["peak_rss_mb"] = {"value": median([p["rss_mb"] for p in untraced]), "unit": "MB"}
        samples = {"setup_s": len(untraced), "wall_s": len(untraced),
                   "operations": len(untraced[0]["op_ms"]),
                   "op_latency": sum(len(p["op_ms"]) for p in untraced)}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    detail = {
        "environment": environment(args, samples),
        "fail_frac": failed / attempted if attempted else 1.0,
        # the same end-to-end figures on raw wall and CPU clocks, for comparison
        "clocks": {clock: end_to_end(untraced, clock) for clock in ("wall", "cpu")},
        "passes": [{"index": p["index"], "traced": p["traced"], "pid": p["pid"],
                    "setup_s": p["setup_s"], "pass_s": p["pass_s"], "rss_mb": p["rss_mb"],
                    "snippet": p["snippet"], "digest": digest_of(p["digests"])}
                   for p in passes],
        "op_ms_median": {op: median([p["op_ms"][op]["ref"] for p in untraced])
                         for op in untraced[0]["op_ms"]},
        "failures": [msg for p in passes for msg in p["problems"]][:50],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def environment(args, samples: dict) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():  # read without running git, which would look above the checkout
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "threads": {"OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
                    "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "samples": samples,
    }


def digest_of(digests: dict) -> str:
    import hashlib

    text = "".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def print_table(result, detail):
    samples = detail["environment"]["samples"]
    print(f"# {detail['environment']['workload']} seed={detail['environment']['seed']} "
          f"samples={samples} fail_frac={detail['fail_frac']:.4g}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for msg in detail["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    os.chdir(ROOT)  # the README commands name inputs relative to the checkout root
    if args.pass_index is not None:
        return pass_main(args)
    # One CPU for the benchmark and every child it starts, so that the speed
    # samples, taken in each pass's process, come from the CPU that does the work.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    passes = measure(args)
    detail, result = summarize(args, passes)
    print_table(result, detail)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
