"""Brent's root finder and the Dormand-Prince 8(5,3) integrator.

``brentq`` is the method of R. P. Brent, *Algorithms for Minimization
without Derivatives* (1973), ch. 4, in the loop order of scipy's
``brentq.c``.  ``dop853`` is the explicit Runge-Kutta pair of order 8 with
error estimators of orders 5 and 3 and a dense output of order 7 (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, 2nd ed.,
sections II.5 and II.10), stepped as scipy's ``solve_ivp(method="DOP853",
dense_output=True, events=...)`` steps it.  Both perform the float
operations of those scipy routines in the same order, so they return the
same bits; the tests pin that against scipy.  ``dop853`` steps on Python
floats, whose elementwise ``+``, ``*``, ``/`` and ``sqrt`` round as numpy's
do, and takes every dot product from numpy, on scipy's array shapes: a BLAS
dot may fuse its multiply-adds (numpy's does on this project's hosts), so a
Python sum of products would round differently.  Its error norm squared
is ``math.sqrt(err.dot(err)) ** 2``, which is what ``np.linalg.norm(err)
** 2`` computes.

``dop853`` covers what ``hydro.flow`` needs: a forward or backward span,
scalar ``rtol`` and ``atol``, dense output, and one terminal event that
fires where it falls through zero.  Where scipy's loop never ends (a NaN
step size, or a stiff problem that takes more than ``MAX_STEPS`` steps) or
its event location raises (an event that is NaN inside a step), ``dop853``
ends with status -1.  Its dense output is one ``OdeSolution``, which keeps
every accepted step in arrays and builds a step's interpolant when a query
first falls in it.

Importing this module loads no numpy.  ``brentq`` runs on Python floats,
and the DOP853 tables are Python floats here; ``tables()`` makes them
arrays on the first ``dop853`` call and keeps them, and the integrator and
its dense output import numpy where they run.  So ``hydro-analyze`` and
``hydro-separatrix``, which find their roots with ``brentq`` alone, start
without numpy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

EPS = sys.float_info.epsilon

#: The failure message of a step that cannot shrink any further.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

#: brentq's iteration limit, scipy's default.
MAXITER = 100

#: dop853's step budget: the accepted steps of one integration.  scipy's
#: loop has none, and on a stiff model it steps for minutes.  Drawn models
#: over the hydro fuzz ranges complete in up to 155 719 steps; the budget
#: is ten times that, rounded up.
MAX_STEPS = 1_600_000


# -- Brent's method -------------------------------------------------------------


def brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError when the signs agree or f returns NaN, and
    RuntimeError after MAXITER iterations without convergence.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # a denominator underflowed: C gets inf or NaN and bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")


# -- the Dormand-Prince 8(5,3) tables ---------------------------------------------
#
# Python floats, so that importing this module loads no numpy; ``tables()``
# makes them arrays on the first integration.

N_STAGES = 12
N_STAGES_EXTENDED = 16  # three more stages feed the dense output
INTERPOLATOR_POWER = 7

#: The nodes.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778)

#: The Runge-Kutta matrix as {row: {column: value}}, its zeros left out.
_A = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}

#: The order-3 weights, {column: value}; the order-3 error estimator is the
#: order-8 weights less these.
_B3 = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
       11: 0.220588235294117647058823529412e-1}

#: The order-5 error estimator.
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0)

#: Dense-output coefficients of the powers 4..7 (powers 1..3 come from the
#: step's end points), as {row: {column: value}}.
_D = {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
}

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7


class Dop853Tables(NamedTuple):
    """The tables as float64 arrays, scipy's ``dop853_coefficients``: the
    nodes ``C``, the matrix ``A``, the order-8 weights ``B``, the error
    estimators ``E3`` and ``E5`` and the dense-output coefficients ``D``.
    ``stages`` and ``extra_stages`` hold each stage as (its index, its row
    of A cut to the stages before it, its node), for the 11 stages of a step
    after the first and the three of the dense output."""

    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    E3: np.ndarray
    E5: np.ndarray
    D: np.ndarray
    stages: list
    extra_stages: list


@functools.cache
def tables() -> Dop853Tables:
    """The tables as arrays, built on the first integration and then kept."""
    import numpy as np

    def table(shape, rows: dict) -> np.ndarray:
        out = np.zeros(shape)
        for i, row in rows.items():
            for j, value in row.items():
                out[i, j] = value
        return out

    C = np.array(_C)
    A = table((N_STAGES_EXTENDED, N_STAGES_EXTENDED), _A)
    B = A[N_STAGES, :N_STAGES]  # the row of A that would make the 13th stage
    E3 = np.zeros(N_STAGES + 1)
    E3[:-1] = B
    for j, weight in _B3.items():
        E3[j] -= weight
    return Dop853Tables(
        C=C, A=A, B=B, E3=E3, E5=np.array(_E5),
        D=table((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED), _D),
        stages=[(s, A[s, :s], float(C[s])) for s in range(1, N_STAGES)],
        extra_stages=[(s, A[s, :s], float(C[s]))
                      for s in range(N_STAGES + 1, N_STAGES_EXTENDED)])


# -- dense output -----------------------------------------------------------------


class OdeSolution:
    """The dense output of one ``dop853`` run: the order-7 interpolant of
    every accepted step of an n-dimensional system, forward or backward.

    A float time gives a state of shape (n,), and a 1-D array of m times, in
    any order, gives (n, m); an empty array gives (n, 0).  Outside the span
    the end steps extrapolate; a run of no step (a span of length zero)
    answers the start state.  Each step is kept once, in arrays that grow by
    doubling.  Its three extra stages and seven coefficient rows are made
    when a query first falls in it, the rows taking the place of its first
    seven stages, so a run whose dense output is never read does not pay
    for them.  A query evaluates all its times by one Horner scheme on the
    gathered rows, each element in scipy's operations and order.
    """

    def __init__(self, fun, y0: np.ndarray):
        import numpy as np
        self.fun = fun
        self.y0 = y0
        self.n_segments = 0
        capacity, n = 16, y0.size
        self.t_old = np.zeros(capacity)  # each step's start time
        self.h = np.zeros(capacity)  # and its length
        self.states = np.zeros((capacity, 2, n))  # its start and end states
        self.stages = np.zeros((capacity, N_STAGES_EXTENDED, n))
        self.read = np.zeros(capacity, dtype=bool)  # its rows are made

    def append(self, t_old: float, h: float, y_old: list, y: list, K: np.ndarray) -> int:
        """Keep an accepted step, whose 12 stages and f(t_old + h) are K,
        and return its index."""
        import numpy as np
        i = self.n_segments
        if i == len(self.h):
            for name in ("t_old", "h", "states", "stages", "read"):
                old = getattr(self, name)
                new = np.zeros((2 * i, *old.shape[1:]), dtype=old.dtype)
                new[:i] = old
                setattr(self, name, new)
        self.t_old[i], self.h[i] = t_old, h
        self.states[i] = y_old, y
        self.stages[i, :N_STAGES + 1] = K
        self.n_segments = i + 1
        return i

    def _make_rows(self, i: int) -> None:
        """Step i's extra stages and its interpolant's coefficient rows."""
        import numpy as np
        arrays = tables()
        K = self.stages[i]
        t_old, h = float(self.t_old[i]), float(self.h[i])
        y_old, y = self.states[i]
        start = y_old.tolist()
        for s, a, c in arrays.extra_stages:
            K[s] = self.fun(t_old + c * h,
                            [yi + di * h for yi, di in zip(start, np.dot(K[:s].T, a).tolist())])
        F = np.empty((INTERPOLATOR_POWER, len(y)))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[N_STAGES] + K[0])
        F[3:] = h * np.dot(arrays.D, K)
        K[:INTERPOLATOR_POWER] = F
        self.read[i] = True

    def evaluate(self, steps, t):
        """The states at times t, each on its step's interpolant: steps is a
        step index, or an array of them of t's shape."""
        import numpy as np
        read = self.read[steps]
        if not (read.all() if read.ndim else read):  # a numpy bool's all() is slow
            for i in np.unique(np.asarray(steps)[~read]).tolist():
                self._make_rows(i)
        x = (t - self.t_old[steps]) / self.h[steps]
        if x.ndim:  # a time for each row of states
            x = x[:, None]
        factors = (x, 1 - x)
        y_old = self.states[steps, 0]
        y = np.zeros(y_old.shape)
        # the coefficient rows from the highest power down, each (n,) or (m, n)
        for j, row in enumerate(self.stages[steps, INTERPOLATOR_POWER - 1::-1].swapaxes(0, -2)):
            y += row
            y *= factors[j % 2]
        y += y_old
        return y.T

    def __call__(self, t):
        import numpy as np
        t = np.asarray(t)
        m = self.n_segments
        if not m:
            return np.broadcast_to(self.y0, t.shape + self.y0.shape).T.copy()
        # search the interior step times; the end steps take all beyond the span
        if self.h[0] > 0:
            steps = self.t_old[1:m].searchsorted(t, "left")
        else:
            steps = m - 1 - self.t_old[m - 1:0:-1].searchsorted(t, "right")
        return self.evaluate(steps, t)


# -- the integrator ---------------------------------------------------------------


def _norm(x: np.ndarray):
    """The root-mean-square norm."""
    import numpy as np
    return np.linalg.norm(x) / x.size ** 0.5


def select_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """A first step size from the local behaviour of the solution (Hairer,
    Norsett & Wanner, section II.4)."""
    import numpy as np
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(fun(t0 + h0 * direction, y1.tolist()), dtype=float)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))  # the method is of order 7
    return min(100 * h0, h1, interval_length)


class OdeResult(NamedTuple):
    """Accepted step times ``t`` (m,), states ``y`` (n, m), the dense output
    ``sol``, and ``status``: 0 at the end of the span, 1 at the terminal
    event, -1 when a step failed or the event could not be located
    (``message`` says why; empty otherwise)."""

    t: np.ndarray
    y: np.ndarray
    sol: OdeSolution
    status: int
    message: str


def dop853(fun, t_span, y0, rtol: float, atol: float, event) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] with DOP853.

    ``fun(t, y)`` returns a sequence of n floats.  It receives every state
    as a list of n Python floats, where scipy's ``solve_ivp`` passes a
    float64 array, so the two return the same bits for a ``fun`` that gives
    the same bits on both.  ``event(t, y)`` is terminal: the integration
    stops where it first falls through zero, located by ``brentq`` on the
    step's interpolant in the dense output; it receives a list at the steps
    and an array on the dense output.  Each accepted step is kept once, in
    the ``OdeSolution`` it returns.  The tables and numpy are looked up once
    here, none of them in the step loop.
    """
    import numpy as np
    arrays = tables()
    B, E3, E5 = arrays.B, arrays.E3, arrays.E5

    t0, tf = map(float, t_span)
    y = np.array(y0, dtype=float)
    n = y.size
    sign = float(np.sign(tf - t0)) if tf != t0 else 1.0
    t = t0
    f = np.asarray(fun(t, y.tolist()), dtype=float)
    h_abs = float(select_initial_step(fun, t, y, tf, f, sign, rtol, atol))
    sol = OdeSolution(fun, y)
    y = y.tolist()
    g = event(t0, y)
    if t0 == tf:  # a span of length zero: no step, and the event fires if it is 0 at t0
        return OdeResult(t=np.array([t0, t0]), y=np.array([y, y]).T, sol=sol,
                         status=1 if g == 0 else 0, message="")
    K = np.empty((N_STAGES + 1, n))
    K[0] = f
    # the transposed views of the stages each stage reads, made once
    stage_views = [(s, K[:s].T, a, c) for s, a, c in arrays.stages]
    K_B, K_T = K[:-1].T, K.T
    t_end, y_end = t0, y  # the last step time and state of the result
    status, message = None, ""
    while status is None:
        if sol.n_segments >= MAX_STEPS:
            status, message = -1, f"the step budget of {MAX_STEPS} steps is spent at t = {t!r}"
            break
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size fails here too
                status, message = -1, TOO_SMALL_STEP
                break
            h = h_abs * sign
            t_new = t + h
            if sign * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            # one Runge-Kutta step: K holds f(t), the 11 stages after it and
            # f(t_new); the sums of products are numpy's, the rest is float
            # arithmetic
            for s, K_s, a, c in stage_views:
                K[s] = fun(t + c * h,
                           [yi + di * h for yi, di in zip(y, np.dot(K_s, a).tolist())])
            y_new = [yi + h * bi for yi, bi in zip(y, np.dot(K_B, B).tolist())]
            K[-1] = fun(t + h, y_new)
            # np.maximum of the magnitudes, NaN where either is NaN
            scale = np.array([atol + (p if p >= q or p != p else q) * rtol
                              for p, q in zip(map(abs, y), map(abs, y_new))])
            # the scaled errors of both estimators, each norm squared as
            # np.linalg.norm(err) ** 2 computes it
            err5 = np.dot(K_T, E5) / scale
            err3 = np.dot(K_T, E3) / scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        if status == -1:
            break
        step = sol.append(t, h, y, y_new, K)
        t_old, t, y = t, t_new, y_new
        K[0] = K[-1]
        if sign * (t - tf) >= 0:
            status = 0
        t_out, y_out = t, y
        g_new = event(t, y)
        if g >= 0 and g_new <= 0:
            try:
                root = brentq(lambda s: event(s, sol.evaluate(step, s)), t_old, t,
                              xtol=4 * EPS, rtol=4 * EPS)
            except ValueError as exc:  # the event is NaN inside the step
                status, message = -1, f"the terminal event cannot be located: {exc}"
            else:
                status = 1
                t_out = np.float64(root)
                y_out = sol.evaluate(step, t_out)
        g = g_new
        if step and t_out == t_end:  # the event is at the step's start: it adds nothing
            sol.n_segments -= 1
        else:
            t_end, y_end = t_out, y_out
    m = sol.n_segments
    return OdeResult(t=np.append(sol.t_old[:m], t_end),
                     y=np.vstack((sol.states[:m, 0], y_end)).T, sol=sol,
                     status=status, message=message)
