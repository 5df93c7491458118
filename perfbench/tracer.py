"""Per-layer accounting from outside the library.

A ``Tracer`` replaces library functions with timing wrappers *at the names
where callers look them up* and puts the originals back on ``restore``.  The
same function can be looked up in several places: ``catalog`` imports
``reduce`` by name from ``reducer``, and ``hydro`` imports ``quad`` by name
from scipy, so each lookup site is patched on its own (``reducer.reduce`` and
``catalog.reduce`` feed one metric).  Nothing is installed until ``install``
runs, so an untraced pass calls the library exactly as a user would.

Each wrapper records, per metric name, the number of calls, the inclusive
time of outermost calls (``ms``) and the time not spent in other wrapped
calls (``self_ms``).  Optional result hooks add work counts such as equation
terms or integrator steps.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import defaultdict
from time import perf_counter


@dataclasses.dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    depth: int = 0  # active nested calls of the same metric
    counts: dict = dataclasses.field(default_factory=lambda: defaultdict(int))


def _terms(stat, args, kwargs, system):
    stat.counts["terms"] += sum(len(eq.terms) for eq in system.equations)


def _roots(stat, args, kwargs, roots):
    stat.counts["roots"] += len(roots)
    stat.counts["starts"] += kwargs.get("starts", 32) if len(args) < 4 else args[3]


def _steps(stat, args, kwargs, trajectory):
    stat.counts["steps"] += len(trajectory.omega)


def _family(args, kwargs):
    return "catalog.verify_entry." + (args[0] if args else kwargs["family_id"])


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    name = argv[0] if argv[0] != "catalog" else "catalog_" + argv[1]
    return "cli.main." + name


#: (module, owner attribute or None, attribute, metric, metric-name function,
#: result hook).  ``owner`` names a class inside the module whose attribute is
#: patched; ``None`` patches the module global itself.
TARGETS = (
    ("twbench.reducer", None, "reduce", "reducer.reduce", None, _terms),
    ("twbench.catalog", None, "reduce", "reducer.reduce", None, _terms),
    ("twbench.reducer", None, "verify_assignment", "reducer.verify_assignment", None, None),
    ("twbench.catalog", None, "verify_assignment", "reducer.verify_assignment", None, None),
    ("twbench.reducer", None, "residual_scan", "reducer.residual_scan", None, None),
    ("twbench.catalog", None, "residual_scan", "reducer.residual_scan", None, None),
    ("twbench.reducer", None, "solve_numeric", "reducer.solve_numeric", None, _roots),
    ("twbench.symcore", "ExpRational", "differentiate_xi",
     "symcore.ExpRational.differentiate_xi", None, None),
    ("twbench.symcore", "ParamPoly", "evaluate", "symcore.ParamPoly.evaluate", None, None),
    ("twbench.symcore", "ParamPoly", "substitute", "symcore.ParamPoly.substitute", None, None),
    ("twbench.symcore", "ParamPoly", "__mul__", "symcore.ParamPoly.mul", None, None),
    ("twbench.symcore", "ParamPoly", "__rmul__", "symcore.ParamPoly.mul", None, None),
    ("twbench.catalog", None, "verify_entry", "catalog.verify_entry", _family, None),
    ("twbench.hydro", None, "homoclinic_profile", "hydro.homoclinic_profile", None, None),
    ("twbench.hydro", None, "quad", "hydro.quad", None, None),
    ("twbench.hydro", None, "G_prime", "hydro.G_prime", None, None),
    ("twbench.hydro", None, "G_second", "hydro.G_second", None, None),
    ("twbench.hydro", None, "P_of_R", "hydro.P_of_R", None, None),
    ("twbench.hydro", None, "separatrix", "hydro.separatrix", None, None),
    ("twbench.hydro", None, "critical_points", "hydro.critical_points", None, None),
    ("twbench.hydro", None, "turning_point", "hydro.turning_point", None, None),
    ("twbench.hydro", None, "flow", "hydro.flow", None, _steps),
    ("twbench.hydro", None, "hamiltonian", "hydro.hamiltonian", None, None),
    ("twbench.cli", None, "main", "cli.main", _subcommand, None),
)


def lookup_sites():
    """Every patched site as (owner object, attribute name)."""
    sites = []
    for module, owner, attr, *_ in TARGETS:
        obj = importlib.import_module(module)
        sites.append((getattr(obj, owner) if owner else obj, attr))
    return sites


class Tracer:
    """Installs timing wrappers on ``TARGETS`` and the catalog's per-family
    ``instances`` callables; ``restore`` puts every original back."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._child_seconds: list[float] = []  # one accumulator per active wrapped call
        self._saved: list[tuple[object, str, object]] = []
        self._saved_families: dict = {}

    @property
    def installed(self) -> bool:
        return bool(self._saved or self._saved_families)

    def reset(self):
        self.stats = defaultdict(Stat)

    def _wrap(self, fn, metric, name_of, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else metric
            stat = tracer.stats[name]
            stat.depth += 1
            tracer._child_seconds.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = tracer._child_seconds.pop()
                if tracer._child_seconds:
                    tracer._child_seconds[-1] += dt
                stat.depth -= 1
                stat.calls += 1
                stat.self_seconds += dt - children
                if stat.depth == 0:
                    stat.seconds += dt
            if on_result is not None:
                on_result(stat, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        for (obj, attr), (_, owner, _, metric, name_of, on_result) in zip(lookup_sites(), TARGETS):
            # read through __dict__ for classes so restore puts back the exact object
            original = vars(obj)[attr] if owner else getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, metric, name_of, on_result))
        # Family is a frozen dataclass held in catalog.FAMILIES: swap in copies
        # whose `instances` is wrapped (functools.wraps keeps the attributes
        # some families hang on that callable).
        families = importlib.import_module("twbench.catalog").FAMILIES
        for family_id, family in list(families.items()):
            self._saved_families[family_id] = family
            families[family_id] = dataclasses.replace(
                family, instances=self._wrap(family.instances, "catalog.instances", None, None))

    def restore(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()
        families = importlib.import_module("twbench.catalog").FAMILIES
        families.update(self._saved_families)
        self._saved_families.clear()
