"""The in-repo Brent and DOP853 against scipy, which stays the independent
reference here: every float must be the same bit pattern."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from twbench import hydro, ode


def _outcome(find, f, a, b, **kwargs):
    try:
        return "root", float.hex(find(f, a, b, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _function(kind, coeffs, shift, scale):
    if kind == "exp":
        return lambda x: scale * (math.exp(x) - 1.0 - shift)
    if kind == "poly":
        return lambda x: scale * sum(c * x**j for j, c in enumerate(coeffs))
    return lambda x: scale * (math.exp(-x * x) * (x - shift) + 1e-3 * coeffs[0])


finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=400, deadline=None, database=None)
@given(kind=st.sampled_from(["exp", "poly", "bump"]),
       coeffs=st.lists(finite, min_size=1, max_size=6),
       shift=st.floats(-2.0, 2.0), a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
       tols=st.sampled_from([(1e-15, 8.9e-16), (2e-12, 8.9e-16)]),
       scale=st.sampled_from([1.0, 1e-200]))
def test_brentq_matches_scipy(kind, coeffs, shift, a, b, tols, scale):
    # at scale 1e-200 the extrapolation's denominator underflows to 0
    f = _function(kind, coeffs, shift, scale)
    kwargs = {"xtol": tols[0], "rtol": tols[1]}
    assert _outcome(ode.brentq, f, a, b, **kwargs) == _outcome(scipy_brentq, f, a, b, **kwargs)


def test_brentq_nan_matches_scipy():
    f = lambda x: math.nan if x > 0.5 else x - 0.7  # noqa: E731
    kwargs = {"xtol": 2e-12, "rtol": 8.9e-16}
    assert (_outcome(ode.brentq, f, 0.0, 1.0, **kwargs)
            == _outcome(scipy_brentq, f, 0.0, 1.0, **kwargs))


def test_brentq_non_convergence_matches_scipy():
    # a step gives the secant nothing to work with: only bisection, too slow
    # for a bracket this wide
    f = lambda x: 1.0 if x > 1e-200 else -1.0  # noqa: E731
    kwargs = {"xtol": 1e-15, "rtol": 8.9e-16}
    ours = _outcome(ode.brentq, f, -1e300, 1e300, **kwargs)
    assert ours == _outcome(scipy_brentq, f, -1e300, 1e300, **kwargs)
    assert ours[0] == "RuntimeError"


def test_tables_are_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        ours, theirs = getattr(ode.tables(), name), getattr(dop853_coefficients, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name


def test_records_fields_cannot_be_assigned():
    k = hydro.reference_instance().kernel
    result = ode.dop853(k.rhs, (0.0, 1.0), [1.2, 0.0], rtol=1e-6, atol=1e-8, event=boundary)
    for record in (ode.tables(), result):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert result.status == 0 and result.message == ""


def test_eps_is_numpys():
    assert ode.EPS == np.finfo(float).eps


def _same(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and ours.tobytes() == theirs.tobytes())


def _assert_same_solution(ours, theirs, span):
    assert ours.status == theirs.status
    assert _same(ours.t, theirs.t) and _same(ours.y, theirs.y)
    if ours.status < 0:
        assert ours.message == theirs.message == ode.TOO_SMALL_STEP
        return
    assert ours.message == ""
    lo, hi = sorted(span)
    grid = np.linspace(lo - 0.5, hi + 0.5, 57)
    shuffled = np.random.default_rng(3).permutation(grid)
    for points in (grid, shuffled, grid[::-1]):
        assert _same(ours.sol(points), theirs.sol(points))
    for point in (float(grid[7]), theirs.t[len(theirs.t) // 2], span[1]):
        assert _same(ours.sol(point), theirs.sol(point))


def _model(nu):
    return hydro.HydroModel(nu=Fraction(nu), beta=Fraction(1, 2), sigma=Fraction(1),
                            D=Fraction(1), R1=Fraction(1))


def boundary(_, state):
    return state[0] - hydro.R_FLOOR


boundary.terminal = True
boundary.direction = -1


@pytest.mark.parametrize("nu", ["0", "1/2", "1", "-3/2", "2"])
@pytest.mark.parametrize("rtol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_dop853_matches_solve_ivp_on_hydro(nu, rtol):
    k = _model(nu).kernel
    starts = [(0.5 * (k.R2 + k.R3), 0.0), (k.R2, 0.05), (k.R1 + 1e-3, 1e-3)]
    for y0 in starts:
        for span in ((0.0, 15.0), (0.0, -12.5)):
            theirs = solve_ivp(k.rhs, span, list(y0), method="DOP853", rtol=rtol,
                               atol=rtol * 1e-2, dense_output=True, events=boundary)
            ours = ode.dop853(k.rhs, span, list(y0), rtol=rtol, atol=rtol * 1e-2,
                              event=boundary)
            _assert_same_solution(ours, theirs, span)


def test_step_failure_matches_solve_ivp():
    k = hydro.reference_instance().kernel
    span, y0 = (0.0, 50.0), [0.5, -0.3]
    theirs = solve_ivp(k.rhs, span, y0, method="DOP853", rtol=1e-10, atol=1e-12,
                       dense_output=True, events=boundary)
    ours = ode.dop853(k.rhs, span, y0, rtol=1e-10, atol=1e-12, event=boundary)
    assert theirs.status == ours.status == -1
    assert ours.message == theirs.message == ode.TOO_SMALL_STEP
    assert _same(ours.t, theirs.t) and _same(ours.y, theirs.y)


@pytest.mark.parametrize("sign, event_sign, fires", [(1, 1, True), (-1, -1, True),
                                                      (-1, 1, False)])
def test_terminal_event_matches_solve_ivp(sign, event_sign, fires):
    # y[0] decays through 0.3 forward in time and grows through 4 backward;
    # the event fires only where it falls through zero
    def fun(t, y):
        return [-0.8 * y[0] + 0.1 * math.sin(3 * t), -y[0] * y[1]]

    def event(_, y):
        return event_sign * (y[0] - (0.3 if sign > 0 else 4.0))

    event.terminal = True
    event.direction = -1
    span, y0 = (0.0, sign * 6.0), [1.5, 0.4]
    theirs = solve_ivp(fun, span, y0, method="DOP853", rtol=1e-9, atol=1e-11,
                       dense_output=True, events=event)
    ours = ode.dop853(fun, span, y0, rtol=1e-9, atol=1e-11, event=event)
    _assert_same_solution(ours, theirs, span)
    assert ours.status == (1 if fires else 0)


def test_zero_span_matches_solve_ivp():
    k = hydro.reference_instance().kernel
    theirs = solve_ivp(k.rhs, (2.0, 2.0), [1.2, 0.0], method="DOP853", dense_output=True,
                       events=boundary)
    ours = ode.dop853(k.rhs, (2.0, 2.0), [1.2, 0.0], rtol=1e-3, atol=1e-6, event=boundary)
    _assert_same_solution(ours, theirs, (2.0, 2.0))


def test_nan_first_step_fails_at_once():
    # f(t0) is NaN, so is the first step size; no comparison with a NaN step
    # is true, so a loop that only tests for a small step never ends
    calls = 0

    def fun(t, y):
        nonlocal calls
        calls += 1
        assert calls < 100, "the step loop did not end"
        return [0.0, math.nan]

    result = ode.dop853(fun, (0.0, 1.0), [1.0, 0.0], rtol=1e-6, atol=1e-8,
                        event=lambda t, y: 1.0)
    assert result.status == -1 and result.message == ode.TOO_SMALL_STEP
    assert _same(result.t, [0.0])


def test_nan_event_inside_a_step_fails():
    # the event changes sign over the step but is NaN near its zero: Brent
    # cannot locate it, and the run ends with the step it took
    def event(_, y):
        return y[0] - 0.5 if abs(y[0] - 0.5) > 1e-3 else math.nan

    result = ode.dop853(lambda t, y: [-1.0], (0.0, 2.0), [1.0], rtol=1e-6, atol=1e-8,
                        event=event)
    assert result.status == -1
    assert result.message.startswith("the terminal event cannot be located: ")
    assert result.t[-1] > 0.5 and len(result.t) == result.y.shape[1]


def _compare_with_solve_ivp(fun, span, y0, rtol, atol, event):
    theirs = solve_ivp(fun, span, y0, method="DOP853", rtol=rtol, atol=atol,
                       dense_output=True, events=event)
    ours = ode.dop853(fun, span, y0, rtol=rtol, atol=atol, event=event)
    _assert_same_solution(ours, theirs, span)
    return ours


def _never(_, y):
    return 1.0


_never.terminal = True
_never.direction = -1


@pytest.mark.parametrize("span", [(0.0, 12.0), (0.0, -1.5)])
def test_one_dimensional_system_matches_solve_ivp(span):
    # a forced logistic equation: a state of one float
    def fun(t, y):
        return [y[0] * (1.0 - y[0]) + 0.3 * math.cos(2.0 * t)]

    ours = _compare_with_solve_ivp(fun, span, [0.1], 1e-9, 1e-11, _never)
    assert ours.status == 0 and ours.y.shape[0] == 1


@pytest.mark.parametrize("z_level, fires", [(30.0, True), (60.0, False)])
def test_three_dimensional_system_matches_solve_ivp(z_level, fires):
    # the Lorenz system, stopped where z first falls through z_level
    def fun(t, y):
        return [10.0 * (y[1] - y[0]), y[0] * (28.0 - y[2]) - y[1],
                y[0] * y[1] - 8.0 / 3.0 * y[2]]

    def event(_, y):
        return y[2] - z_level

    event.terminal = True
    event.direction = -1
    ours = _compare_with_solve_ivp(fun, (0.0, 4.0), [1.0, 1.0, 1.0], 1e-9, 1e-11, event)
    assert ours.status == (1 if fires else 0) and ours.y.shape[0] == 3


def test_orbit_that_overflows_mid_run_matches_solve_ivp():
    # at nu = 100 the stages of a late step reach states where R^(nu+3)
    # overflows or sigma*R^(nu+2) underflows to 0 on floats; rhs re-runs
    # those on float64, whose inf and NaN scipy's run sees too
    k = _model("100").kernel
    on_float64 = []

    def fun(t, y):
        out = k.rhs(t, y)
        if isinstance(y, list) and type(out[1]) is np.float64:
            on_float64.append(t)
        return out

    span = (0.0, 0.1)
    with np.errstate(all="ignore"):
        ours = _compare_with_solve_ivp(fun, span, [2.0, -5e4], 1e-8, 1e-10, boundary)
    assert ours.status == -1 and len(ours.t) > 100
    assert on_float64 and min(on_float64) > ours.t[1]


def test_extra_stages_are_made_when_a_step_is_first_read():
    # scipy makes a step's three extra stages whenever it keeps a dense
    # output; dop853 makes them when a query first falls in the step
    def oscillator(t, y):
        return [y[1], -y[0]]

    calls = 0

    def fun(t, y):
        nonlocal calls
        calls += 1
        return oscillator(t, y)

    span, y0 = (0.0, 10.0), [1.0, 0.0]
    ours = ode.dop853(fun, span, y0, rtol=1e-9, atol=1e-11, event=_never)
    assert calls == solve_ivp(oscillator, span, y0, method="DOP853", rtol=1e-9,
                              atol=1e-11).nfev
    t = ours.t
    mid = [0.5 * (t[i] + t[i + 1]) for i in range(len(t) - 1)]
    queries = [(mid[2], 3), (mid[2], 0), (np.array([mid[2], 0.5 * (mid[2] + t[3])]), 0),
               (np.array([mid[5], mid[2], mid[4], mid[5]]), 6), (mid[4], 0),
               (np.array([]), 0)]
    for query, added in queries:
        before = calls
        ours.sol(query)
        assert calls - before == added, query


def test_dense_output_memory_per_step():
    # each accepted step is kept once, in arrays: its times, its states and
    # its stages, where a step once kept its own array and interpolant
    model = hydro.reference_instance()
    hydro.flow(model, (1.7, 0.0), (0.0, 10.0))  # the tables, made once a process
    tracemalloc.start()
    try:
        traj = hydro.flow(model, (1.7, 0.0), (0.0, 5000.0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = len(traj.omega) - 1
    assert steps > 7000
    assert kept / steps < 400 and peak / steps < 800, (kept / steps, peak / steps)


def test_installed_numpy_norm_squared_is_the_dot_root_squared():
    # dop853 squares its error norms as math.sqrt(err.dot(err)) ** 2, where
    # scipy takes np.linalg.norm(err) ** 2; the dot stays numpy's, whose BLAS
    # may fuse multiply-adds, so a Python sum of squares could differ
    rng = np.random.default_rng(34)
    special = [0.0, -0.0, 5e-324, 1e-160, 1e154, 1.3e154, -1e155, math.inf, -math.inf]
    for n in (1, 2, 3, 5):
        rows = (rng.choice((-1.0, 1.0), (20_000, n))
                * 10.0 ** rng.uniform(-170.0, 154.0, (20_000, n)))
        rows[:len(special), 0] = special
        rows[-1, -1] = math.nan
        with np.errstate(all="ignore"):
            for row in rows:
                theirs = np.linalg.norm(row) ** 2
                ours = math.sqrt(row.dot(row)) ** 2
                assert ours == theirs or (math.isnan(ours) and math.isnan(theirs)), row
