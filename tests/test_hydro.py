import functools
import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from twbench import hydro
from twbench.hydro import (
    CORRECTED_OMEGA0,
    FloatKernel,
    PRINTED_OMEGA0,
    G_of_R,
    G_prime,
    HydroModel,
    NoSecondRoot,
    OutOfDomain,
    P_of_R,
    QuadratureFailure,
    _gauss01,
    critical_points,
    explicit_homoclinic,
    flow,
    hamiltonian,
    homoclinic_profile,
    reference_instance,
    panel_quadrature,
    parse_hydro_model,
    quadrature_integrand,
    saddle_angle,
    saddle_level,
    second_root,
    separatrix,
    turning_point,
)
from twbench.model import NumericFailure, SchemaError, exact_root
from twbench.symcore import ParamPoly

R2_EXACT = (-1 + math.sqrt(17.0)) / 2
R3_EXACT = 2 * math.sqrt(2.0) - 1

# SHA-256 of float.hex of both fields of explicit_homoclinic at the R of the
# worked instance's 400-panel profile, then at R3_EXACT
EXPLICIT_HOMOCLINIC_SHA256 = "60a24a606c3ae51550d1a385d25bd3085a031991243c8067234830c6ae2bf6ba"


@pytest.fixture(scope="module")
def worked():
    return reference_instance()


class TestModelConstruction:
    def test_derived_quantities_exact(self, worked):
        assert worked.E == F(5, 4)
        assert worked.C1 == 1
        assert worked.theorem_holds()

    def test_nu_exclusions(self):
        for nu in (F(-1), F(-2), F(-5, 2)):
            with pytest.raises(OutOfDomain):
                HydroModel(nu=nu, beta=F(1), sigma=F(1), D=F(1), R1=F(1))

    def test_positivity(self):
        with pytest.raises(OutOfDomain):
            HydroModel(nu=F(0), beta=F(-1), sigma=F(1), D=F(1), R1=F(1))

    @pytest.mark.parametrize("args, error", [
        ((F(-1), F(1), F(1), F(1), F(1)), OutOfDomain),
        ((F(0), F(1), F(0), F(1), F(1)), OutOfDomain),
        ((F(0), 0.5, F(1), F(1), F(1)), TypeError),
        ((F(0), F(1), F(1), F(1), "1"), TypeError)])
    def test_refused_by_position_or_keyword(self, args, error):
        with pytest.raises(error):
            HydroModel(*args)
        with pytest.raises(error):
            HydroModel(**dict(zip(HydroModel._fields, args)))

    def test_fields_cannot_be_assigned_and_equal_models_hash_equal(self, worked):
        for name in HydroModel._fields:
            with pytest.raises(AttributeError):
                setattr(worked, name, F(2))
        same = HydroModel(0, F(1, 2), 1, 1, 1)
        assert same == worked and hash(same) == hash(worked) and same.beta == F(1, 2)

    def test_replace_validates_as_the_constructor(self, worked):
        with pytest.raises(OutOfDomain):
            worked._replace(beta=F(-1))
        with pytest.raises(TypeError):
            worked._replace(R1=1.0)
        other = worked._replace(nu=F(1))
        assert other == HydroModel(1, F(1, 2), 1, 1, 1) and other.E == F(7, 6)

    def test_kernel_built_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(hydro, "FloatKernel",
                            lambda model: built.append(model) or FloatKernel(model))
        m = reference_instance()
        assert m.kernel is m.kernel and built == [m]

    def test_json_round_trip(self, worked):
        text = '{"nu":0,"beta":0.5,"sigma":1,"D":1,"R1":1}'
        assert parse_hydro_model(text) == worked
        with pytest.raises(SchemaError):
            parse_hydro_model('{"nu":0,"beta":0.5,"sigma":1,"D":1}')
        with pytest.raises(SchemaError):
            parse_hydro_model('{"nu":0,"beta":0.5,"sigma":1,"D":1,"R1":1,"E":2}')

    def test_E_never_an_input(self):
        # E follows from the asymptotic state for every model
        m = HydroModel(nu=F(1), beta=F(2), sigma=F(3), D=F(2), R1=F(1, 2))
        assert m.E == m.D**2 / m.R1 + m.beta * m.R1**3 / 3


class TestCriticalPoints:
    def test_P_at_R1_is_zero(self, worked):
        assert P_of_R(worked, F(1)) == 0
        # P(R) = R^3/4 - 5R/4 + 1 on the worked instance
        assert P_of_R(worked, F(2)) == F(8, 4) - F(10, 4) + 1

    def test_second_root_value(self, worked):
        assert abs(second_root(worked) - R2_EXACT) < 1e-12

    def test_kinds(self, worked):
        report = critical_points(worked)
        kinds = [(round(R, 9), kind) for R, kind, _ in report.points]
        assert kinds[0] == (1.0, "saddle")
        assert kinds[1][1] == "center"
        assert abs(report.R2 - R2_EXACT) < 1e-12
        assert report.Psi_positive

    def test_report_fields(self, worked):
        # Psi_positive is a class constant, not a field
        report = critical_points(worked)
        assert report._fields == ("points", "R2") and report == (report.points, report.R2)
        with pytest.raises(AttributeError):
            report.R2 = 0.0

    def test_R3_not_searched(self):
        m = reference_instance()  # a fresh kernel, with no root found yet
        critical_points(m)
        assert "R2" in m.kernel.__dict__ and "R3" not in m.kernel.__dict__

    def test_saddle_eigenvalues_real_pair(self, worked):
        (r1, kind, eig), _ = critical_points(worked).points
        assert kind == "saddle"
        assert eig[0] > 0 > eig[1]
        assert abs(eig[0] - math.tan(saddle_angle(worked))) < 1e-12

    def test_no_second_root(self):
        # D^2 < beta*R1^(nu+3) violates the theorem precondition
        bad = HydroModel(nu=F(0), beta=F(8), sigma=F(1), D=F(1), R1=F(1))
        assert not bad.theorem_holds()
        with pytest.raises(NoSecondRoot):
            second_root(bad)


class TestHamiltonian:
    def test_saddle_level_exact(self, worked):
        assert hamiltonian(worked, (F(1), F(0))) == F(7, 8)
        assert saddle_level(worked) == F(7, 8)

    def test_even_in_Y(self, worked):
        rng = random.Random(1)
        for _ in range(50):
            R = F(rng.randint(1, 40), 10)
            Y = F(rng.randint(-30, 30), 10)
            assert hamiltonian(worked, (R, Y)) == hamiltonian(worked, (R, -Y))

    def test_center_level(self, worked):
        r2 = second_root(worked)
        assert abs(float(hamiltonian(worked, (r2, 0.0))) - 0.818300) < 1e-6
        assert abs(float(G_of_R(worked, r2)) - 0.056700) < 1e-6


class TestGFunction:
    def test_G_at_R1_zero_exactly(self, worked):
        assert G_of_R(worked, F(1)) == 0

    def test_G_at_three_halves(self, worked):
        assert G_of_R(worked, F(3, 2)) == F(7, 128)

    def test_Gprime_identity_symbolic_integer_nu(self):
        # G'(R) = -2*R^nu*P(R) as exact polynomials for integer nu
        for nu in (0, 1, 2):
            m = HydroModel(nu=F(nu), beta=F(1, 2), sigma=F(1), D=F(2), R1=F(1))
            R = ParamPoly.var("R")
            E_val, D2 = m.E, m.D**2
            G = (ParamPoly.const(saddle_level(m))
                 + ParamPoly.const(2 * E_val / (nu + 2)) * R ** (nu + 2)
                 - ParamPoly.const(2 * D2 / (nu + 1)) * R ** (nu + 1)
                 - ParamPoly.const(m.beta / (nu + 2) ** 2) * R ** (2 * nu + 4))
            P = (ParamPoly.const(m.beta / (nu + 2)) * R ** (nu + 3)
                 - ParamPoly.const(E_val) * R + ParamPoly.const(D2))
            assert G.diff("R") == ParamPoly.const(-2) * R**nu * P

    def test_Gprime_identity_numeric_fractional_nu(self):
        m = HydroModel(nu=F(1, 2), beta=F(1, 3), sigma=F(2), D=F(2), R1=F(1))
        for R in (0.7, 1.2, 2.9):
            step = 1e-6
            numeric = (float(G_of_R(m, R + step)) - float(G_of_R(m, R - step))) / (2 * step)
            assert abs(numeric - G_prime(m, R)) < 1e-7 * max(1.0, abs(numeric))


class TestExactRoot:
    def test_large_perfect_square(self):
        a = 10**200 + 7
        assert len(str(a * a)) == 401
        assert exact_root(F(a * a), 2) == a
        assert exact_root(F(10**400), 2) == 10**200
        assert exact_root(F(1, a * a), 2) == F(1, a)

    def test_large_perfect_cube(self):
        a = 10**333 + 11
        assert len(str(a**3)) == 1000
        assert exact_root(F(a**3), 3) == a
        assert exact_root(F(a**3, 8), 3) == F(a, 2)

    def test_non_powers(self):
        a = 10**200 + 7
        assert exact_root(F(a * a + 1), 2) is None
        assert exact_root(F(a**3 - 1), 3) is None
        assert exact_root(F(2), 2) is None
        assert exact_root(F(-4), 2) is None


KERNEL_MODELS = [
    dict(nu=F(0), beta=F(1, 2), sigma=F(1), D=F(1), R1=F(1)),
    dict(nu=F(1, 2), beta=F(1, 4), sigma=F(1), D=F(3, 2), R1=F(4, 5)),
    dict(nu=F(1), beta=F(1, 3), sigma=F(2), D=F(2), R1=F(1)),
    dict(nu=F(-3, 2), beta=F(1), sigma=F(1), D=F(1), R1=F(1)),
]


class TestFloatKernel:
    """The float kernel reproduces the exact formulas bit for bit on floats."""

    @pytest.mark.parametrize("kwargs", KERNEL_MODELS)
    def test_parity_with_exact_formulas(self, kwargs):
        m = HydroModel(**kwargs)
        k = m.kernel
        assert k.H1 == float(saddle_level(m))
        for R in np.linspace(0.05, 4.0, 401).tolist():
            assert k.G(R) == float(G_of_R(m, R))
            assert k.P(R) == float(P_of_R(m, R))

    def test_vectorised_matches_scalar(self, worked):
        k = worked.kernel
        R = np.linspace(0.5, 3.0, 201)
        for fn in (k.P, k.dP, k.G, k.dG, k.d2G):
            scalar = np.array([fn(float(r)) for r in R])
            assert np.allclose(fn(R), scalar, rtol=1e-14, atol=1e-15)

    # nu = 40 puts sigma*R^(nu+2) below the smallest subnormal near R = 1e-8,
    # and nu = -3/2 has a negative power of R
    RHS_KERNELS = {nu: HydroModel(nu=F(nu), beta=F(1, 2), sigma=F(1), D=F(1), R1=F(1)).kernel
                   for nu in ("0", "1/2", "-3/2", "40")}

    @settings(max_examples=600, deadline=None, database=None)
    @given(nu=st.sampled_from(sorted(RHS_KERNELS)),
           R=st.one_of(st.floats(), st.sampled_from(
               [1e200, 1e-9, 2e-9, 1e-8, 5e-324, -5e-324, 0.0, -0.0, -1.0])),
           Y=st.one_of(st.floats(), st.sampled_from([0.0, 1e200, 1e155, -1e-310])))
    def test_rhs_same_bits_on_floats_and_arrays(self, nu, R, Y):
        # dop853 passes lists of floats and scipy passes arrays; Python's ** and
        # / raise where float64's give inf or NaN, and rhs then re-runs on float64
        rhs = self.RHS_KERNELS[nu].rhs
        with np.errstate(all="ignore"):
            ours = np.array(rhs(0.0, [R, Y]), dtype=float)
            theirs = np.array(rhs(0.0, np.array([R, Y])), dtype=float)
        assert ours.tobytes() == theirs.tobytes()

    def test_rhs_runs_on_float64_only_where_floats_raise(self):
        with np.errstate(all="ignore"):
            plain = self.RHS_KERNELS["0"].rhs(0.0, [1e-8, 1.0])
            overflow = self.RHS_KERNELS["0"].rhs(0.0, [1e200, 0.0])  # R^3: -inf/inf
            underflow = self.RHS_KERNELS["40"].rhs(0.0, [1e-8, 0.0])  # sigma*R^42 is 0
        assert [type(v) for v in plain] == [float, float]
        assert [type(v) for v in overflow + underflow] == [np.float64] * 4
        assert math.isnan(overflow[1]) and underflow[1] == -math.inf

    def test_built_once_roots_kept(self, worked):
        assert worked.kernel is worked.kernel
        assert second_root(worked) is worked.kernel.R2
        assert turning_point(worked) is worked.kernel.R3

    def test_H1_rounded_when_first_read(self):
        # H(R1, 0) is about 2e450: the kernel builds, and H1 fails when read
        m = HydroModel(nu=F(0), beta=F(1, 10**200), sigma=F(1), D=F(10**150), R1=F(10**150))
        k = m.kernel
        for _ in range(2):
            with pytest.raises(NumericFailure, match="beyond the float range"):
                k.H1

    def test_failed_root_search_not_cached(self):
        bad = HydroModel(nu=F(0), beta=F(8), sigma=F(1), D=F(1), R1=F(1))
        for _ in range(2):
            with pytest.raises(NoSecondRoot):
                turning_point(bad)
        assert "R2" not in vars(bad.kernel) and "R3" not in vars(bad.kernel)

    @pytest.mark.parametrize("start", [(1.7, 0.0), (1.2, 0.1), (1.05, 0.02)])
    def test_flow_H_matches_hamiltonian(self, worked, start):
        traj = flow(worked, start, (0.0, 50.0))
        exact = np.array([float(hamiltonian(worked, (float(r), float(y))))
                          for r, y in zip(traj.R, traj.Y)])
        assert np.max(np.abs(traj.H - exact) / np.abs(exact)) <= 1e-15


class TestSeparatrix:
    def test_endpoints_vanish(self, worked):
        r3 = turning_point(worked)
        assert separatrix(worked, float(worked.R1)) == (0.0, -0.0)
        yp, ym = separatrix(worked, r3)
        assert abs(yp) < 1e-7 and abs(ym) < 1e-7

    def test_value_at_center(self, worked):
        yp, ym = separatrix(worked, second_root(worked))
        assert abs(yp - 0.152489) < 1e-6
        assert ym == -yp

    def test_angle(self, worked):
        assert abs(saddle_angle(worked) - math.atan(1 / math.sqrt(2.0))) < 1e-12

    def test_out_of_domain(self, worked):
        with pytest.raises(OutOfDomain):
            separatrix(worked, 5.0)

    @pytest.mark.parametrize("R", [-5e-13, 0.0])
    def test_slack_is_relative_to_the_ends(self, R):
        # R1 = 1e-14: an absolute 1e-12 slack let both through, to a complex
        # G (a TypeError) and to a divisor underflowing to 0 (exit 3)
        m = HydroModel(nu=F(1, 2), beta=F(1, 2), sigma=F(1), D=F(1), R1=F(1, 10**14))
        with pytest.raises(OutOfDomain) as excinfo:
            separatrix(m, R)
        assert excinfo.value.exit_code == 2


class TestTurningPoint:
    def test_value(self, worked):
        assert abs(turning_point(worked) - R3_EXACT) < 1e-12

    def test_simple_root_straddle(self, worked):
        r3 = turning_point(worked)
        assert float(G_of_R(worked, r3 - 1e-8)) > 0 > float(G_of_R(worked, r3 + 1e-8))

    def test_exceeds_center(self, worked):
        assert turning_point(worked) > second_root(worked)


#: A forward, a backward and a zero span, for the dense-output tests.
DENSE_SPANS = [(0.0, 6.0), (0.0, -6.0), (2.0, 2.0)]


@functools.cache
def _dense_trajectory(span):
    return flow(reference_instance(), (1.7, 0.0), span)


class TestFlow:
    def test_center_is_stationary(self, worked):
        r2 = second_root(worked)
        traj = flow(worked, (r2, 0.0), (0.0, 100.0), rel_tol=1e-12)
        assert np.max(np.abs(traj.R - r2)) < 1e-12
        assert np.max(np.abs(traj.Y)) < 1e-12

    def test_energy_conservation(self, worked):
        traj = flow(worked, (1.7, 0.0), (0.0, 100.0), rel_tol=1e-10)
        drift = np.max(np.abs(traj.H - traj.H[0])) / max(1.0, abs(float(traj.H[0])))
        assert drift < 1e-8
        assert traj.status == "completed"
        with pytest.raises(AttributeError):
            traj.status = "boundary"

    def test_level_set_equivalence(self, worked):
        # every accepted step of any trajectory lies on one level set of H
        for start in ((1.2, 0.1), (1.75, 0.0), (1.05, 0.02)):
            traj = flow(worked, start, (0.0, 50.0), rel_tol=1e-11)
            spread = np.max(traj.H) - np.min(traj.H)
            assert spread < 1e-9 * max(1.0, abs(float(traj.H[0])))

    def test_boundary_event(self):
        # nu in (-2, -1): the approach to the R = 0 axis is integrable, so the
        # trajectory reaches the floor and halts with a boundary event
        m = HydroModel(nu=F(-3, 2), beta=F(1), sigma=F(1), D=F(1), R1=F(1))
        traj = flow(m, (1.0, -0.5), (0.0, 50.0), rel_tol=1e-8)
        assert traj.status == "boundary"
        assert traj.R[-1] <= 1.01e-9

    def test_stiffness_failure_on_singular_axis(self):
        # for nu > -1 the axis is non-integrable: step underflow is reported
        from twbench.hydro import StiffnessFailure
        m = HydroModel(nu=F(-1, 2), beta=F(1), sigma=F(1), D=F(1), R1=F(1))
        with pytest.raises(StiffnessFailure):
            flow(m, (1.0, -1.0), (0.0, 50.0), rel_tol=1e-8)

    def test_start_at_or_below_the_floor_is_refused(self):
        # the floor event fires where R falls through 1e-9, so it cannot fire
        # for such a start, and the orbit ran on into R < 0
        m = HydroModel(nu=F(57, 100), beta=F(2, 3), sigma=F(8 * 10**40), D=F(1, 10**40),
                       R1=F(7831, 10**24))
        for r0 in (7.831025229591054e-21, 1e-9, 0.0, -1.0):
            with pytest.raises(OutOfDomain, match="above the floor"):
                flow(m, (r0, 6.71378904860025e-22), (0.0, -50.0), rel_tol=1e-6)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_dense_array_query_is_its_scalar_queries(self, data):
        # any order, duplicates and times outside the span: each column of
        # the array call has the bits of the call at that one time
        traj = _dense_trajectory(data.draw(st.sampled_from(DENSE_SPANS)))
        step_times = st.sampled_from(traj.omega.tolist())
        times = data.draw(st.lists(st.floats(-9.0, 9.0) | step_times, max_size=16))
        if times:
            times += data.draw(st.lists(st.sampled_from(times), max_size=4))
        array = traj.dense(np.array(times))
        assert array.shape == (2, len(times)) and array.dtype == np.float64
        for j, t in enumerate(times):
            point = traj.dense(t)
            assert point.shape == (2,) and point.tobytes() == array[:, j].tobytes(), t

    @pytest.mark.parametrize("span", DENSE_SPANS)
    def test_dense_empty_query(self, span):
        assert _dense_trajectory(span).dense(np.array([])).shape == (2, 0)

    def test_separatrix_launch_tracks_curve(self, worked):
        eps = 1e-6
        ang = saddle_angle(worked)
        traj = flow(worked, (1.0 + eps, eps * math.tan(ang)), (0.0, 40.0), rel_tol=1e-12)
        r3 = turning_point(worked)
        worst = 0.0
        for w in np.linspace(2.0, 14.0, 120):
            R, Y = traj.dense(w)
            if R < r3 - 1e-3 and Y > 0:
                worst = max(worst, abs(Y - separatrix(worked, float(R))[0]))
        assert worst < 1e-5

    def test_periodic_orbits_close(self, worked):
        for r0 in (1.60, 1.70, 1.80):
            traj = flow(worked, (r0, 0.0), (0.0, 40.0), rel_tol=1e-11)
            sgn = np.sign(traj.Y)
            crossings = [i for i in np.where(sgn[:-1] * sgn[1:] < 0)[0]
                         if traj.omega[i] > 1e-3]
            w_full = brentq(lambda w: traj.dense(w)[1],
                            traj.omega[crossings[1]], traj.omega[crossings[1] + 1],
                            xtol=1e-14)
            r_return = float(traj.dense(w_full)[0])
            assert r_return > second_root(worked)
            assert abs(r_return - r0) < 1e-6


@pytest.fixture(scope="module")
def profile(worked):
    return homoclinic_profile(worked, n=400)


@pytest.fixture(scope="module")
def launched(worked):
    eps = 1e-6
    ang = saddle_angle(worked)
    traj = flow(worked, (1.0 + eps, eps * math.tan(ang)), (0.0, 40.0), rel_tol=1e-12)
    crossings = np.where(np.sign(traj.Y[:-1]) * np.sign(traj.Y[1:]) < 0)[0]
    w_peak = brentq(lambda w: traj.dense(w)[1],
                    traj.omega[crossings[0]], traj.omega[crossings[0] + 1],
                    xtol=1e-14)
    return traj, w_peak


class TestHomoclinic:
    def test_peak_reaches_R3(self, worked, launched):
        traj, w_peak = launched
        assert abs(float(traj.dense(w_peak)[0]) - turning_point(worked)) < 1e-9

    def test_quadrature_matches_flow(self, worked, profile, launched):
        omega, R = profile
        traj, w_peak = launched
        mask = (omega > 0) & (w_peak + omega <= traj.omega[-1])
        flow_R = traj.dense(w_peak + omega[mask])[0]
        assert np.max(np.abs(flow_R - R[mask])) < 1e-6

    def test_flow_even_about_peak(self, launched):
        traj, w_peak = launched
        offsets = np.linspace(0.1, min(w_peak - 0.5, traj.omega[-1] - w_peak), 80)
        fwd = traj.dense(w_peak + offsets)[0]
        back = traj.dense(w_peak - offsets)[0]
        assert np.max(np.abs(fwd - back)) < 1e-8

    def test_integrand_value(self, worked):
        assert abs(quadrature_integrand(worked, 1.5)
                   - 1.5 / math.sqrt(7.0 / 128.0)) < 1e-12

    def test_profile_normalization_and_tail(self, worked, profile):
        omega, R = profile
        assert omega[0] == 0.0 and abs(R[0] - turning_point(worked)) < 1e-12
        assert np.all(np.diff(omega) > 0)
        assert np.all(np.diff(R) < 0)
        r_at_30 = float(np.interp(30.0, omega, R))
        assert 0 < r_at_30 - 1 < 1e-3

    def test_matches_closed_form(self, worked, profile):
        omega, R = profile
        for i in range(1, len(R) - 1, 9):
            # profile omega >= 0 is the mirror of the closed form's branch
            assert abs(omega[i] + explicit_homoclinic(float(R[i])).corrected) < 1e-9


@pytest.mark.parametrize("n", [8, 10, 20])
def test_gauss_tables_are_leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = _gauss01(n)
    assert nodes.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert weights.tobytes() == (0.5 * w).tobytes()


class TestPanelQuadrature:
    def test_unremoved_endpoint_singularity_fails_the_gate(self):
        # 1/sqrt(x) on a grid starting at 0: the 10- and 20-point rules disagree
        with pytest.raises(QuadratureFailure):
            panel_quadrature(lambda x: 1.0 / np.sqrt(x), np.linspace(0.0, 1.0, 5))

    def test_non_finite_piece_fails_the_gate(self):
        with pytest.raises(QuadratureFailure):
            panel_quadrature(lambda x: np.sqrt(x - 0.5), np.linspace(0.0, 1.0, 5))

    def test_smooth_integrand(self):
        grid = np.linspace(0.0, 2.0, 9)
        pieces = panel_quadrature(np.exp, grid)
        assert np.allclose(pieces, np.exp(grid[1:]) - np.exp(grid[:-1]), rtol=1e-14)
        split = panel_quadrature(np.exp, grid, parts=3)
        assert np.allclose(split, pieces, rtol=1e-14)

    def test_two_panel_profile(self, worked):
        omega, R = homoclinic_profile(worked, n=2)
        assert len(omega) == len(R) == 3
        assert omega[0] == 0.0 and R[0] == turning_point(worked)
        assert np.all(np.diff(omega) > 0) and np.all(np.diff(R) < 0)
        for w, r in zip(omega[1:], R[1:]):
            assert abs(w + explicit_homoclinic(float(r)).corrected) < 1e-9


class TestExplicitHomoclinic:
    def test_corrected_derivative_matches_integrand(self, worked):
        r3 = R3_EXACT
        for R in np.linspace(1.01, r3 - 0.01, 51):
            h = min(R - 1.0, r3 - R) * 1e-3
            d = (-explicit_homoclinic(R + 2 * h).corrected
                 + 8 * explicit_homoclinic(R + h).corrected
                 - 8 * explicit_homoclinic(R - h).corrected
                 + explicit_homoclinic(R - 2 * h).corrected) / (12 * h)
            integ = quadrature_integrand(worked, float(R))
            assert abs(d - integ) / integ < 1e-9

    def test_printed_derivative_discrepancy_at_midpoint(self, worked):
        R, h = 1.5, 1e-5
        d = (-explicit_homoclinic(R + 2 * h).printed
             + 8 * explicit_homoclinic(R + h).printed
             - 8 * explicit_homoclinic(R - h).printed
             + explicit_homoclinic(R - 2 * h).printed) / (12 * h)
        integ = quadrature_integrand(worked, R)
        assert 0.010 <= abs(d - integ) / integ <= 0.020

    def test_arcsine_term_at_peak(self):
        # the arcsine argument reaches exactly 1 at R3, contributing sqrt(2)*pi
        assert abs((R3_EXACT + 1.0) / (2.0 * math.sqrt(2.0)) - 1.0) < 1e-15
        assert abs(2 * math.sqrt(2.0) * math.asin(1.0) - math.sqrt(2.0) * math.pi) < 1e-15

    def test_normalized_at_peak(self):
        eh = explicit_homoclinic(R3_EXACT)
        assert abs(eh.corrected) < 1e-12
        assert abs(eh.printed) < 1e-12

    def test_printed_omega0_is_not_peak_centering(self):
        # the printed omega0 differs from the peak value of the printed
        # antiderivative by (1 - sqrt(2)/2)*log(2)
        gap = CORRECTED_OMEGA0 - PRINTED_OMEGA0
        assert abs(gap - (0.5 * math.sqrt(2.0) + 1.0) * math.log(2.0)) < 1e-12

    def test_fields_cannot_be_assigned(self):
        closed = explicit_homoclinic(1.5)
        with pytest.raises(AttributeError):
            closed.printed = 0.0
        assert closed._fields == ("corrected", "printed")

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            explicit_homoclinic(0.5)
        with pytest.raises(OutOfDomain):
            explicit_homoclinic(1.9)
        other = HydroModel(nu=F(1), beta=F(1), sigma=F(1), D=F(2), R1=F(1))
        with pytest.raises(OutOfDomain):
            explicit_homoclinic(1.5, model=other)

    def test_bits_pinned(self, profile):
        digest = hashlib.sha256()
        for R in [*map(float, profile[1]), R3_EXACT]:
            closed = explicit_homoclinic(R)
            digest.update(f"{closed.corrected.hex()} {closed.printed.hex()}\n".encode())
        assert digest.hexdigest() == EXPLICIT_HOMOCLINIC_SHA256

    def test_builds_no_model(self, worked, monkeypatch):
        same = HydroModel(0, F(1, 2), 1, 1, 1)
        other = HydroModel(nu=F(1), beta=F(1), sigma=F(1), D=F(2), R1=F(1))
        built = []
        new = HydroModel.__new__
        monkeypatch.setattr(HydroModel, "__new__", lambda cls, *args, **kwargs:
                            built.append(cls) or new(cls, *args, **kwargs))
        for model in (None, worked, same):
            explicit_homoclinic(1.5, model)
        with pytest.raises(OutOfDomain, match="specific to the worked instance"):
            explicit_homoclinic(0.5, model=other)  # the model is checked before R
        assert built == []
        reference_instance()  # the count sees a model that is built
        assert built == [HydroModel]


def _sampled_psi_positive(k) -> bool:
    """Psi > 0 on 400 points from 1e-6*R1 to 10*R3, as critical_points once decided it."""
    r1, r2 = k.R1, k.R2
    grid = np.geomspace(1e-6 * r1, 10.0 * k.R3, 400)
    grid = grid[np.minimum(abs(grid - r1), abs(grid - r2)) > 1e-9]
    return bool(np.all(k.P(grid) / ((grid - r1) * (grid - r2)) > 0))


_EIGHTHS_TO_EIGHT = st.fractions(F(1, 8), F(8), max_denominator=64)


@settings(max_examples=200, deadline=None, database=None)
@given(nu=st.fractions(F(-2), F(6), max_denominator=16).filter(lambda nu: nu not in (-2, -1)),
       beta=_EIGHTHS_TO_EIGHT, sigma=_EIGHTHS_TO_EIGHT, R1=_EIGHTHS_TO_EIGHT,
       margin=st.integers(1, 64))
def test_psi_positive_agrees_with_sampling(nu, beta, sigma, R1, margin):
    # Descartes' rule proves Psi > 0; the sampling it replaced is the oracle.
    # D is about 1 + margin/8 times the precondition's bound sqrt(beta*R1^(nu+3)).
    bound = math.sqrt(float(beta) * float(R1) ** float(nu + 3))
    D = F(math.ceil(8 * bound * (1 + margin / 8)), 8)
    m = HydroModel(nu=nu, beta=beta, sigma=sigma, D=D, R1=R1)
    assume(m.theorem_holds())
    report = critical_points(m)
    assert report.Psi_positive is True
    assert _sampled_psi_positive(m.kernel) is report.Psi_positive


class TestOtherInstances:
    """The machinery is not specific to the worked instance."""

    @pytest.mark.parametrize("kwargs", [
        dict(nu=F(1), beta=F(1, 3), sigma=F(2), D=F(2), R1=F(1)),
        dict(nu=F(1, 2), beta=F(1, 4), sigma=F(1), D=F(3, 2), R1=F(4, 5)),
    ])
    def test_full_pipeline(self, kwargs):
        m = HydroModel(**kwargs)
        assert m.theorem_holds()
        r2, r3 = second_root(m), turning_point(m)
        assert float(m.R1) < r2 < r3
        yp, _ = separatrix(m, 0.5 * (r2 + r3))
        assert yp > 0
        omega, R = homoclinic_profile(m, n=120)
        assert np.all(np.diff(omega) > 0)
        traj = flow(m, (0.5 * (r2 + r3), 0.0), (0.0, 30.0), rel_tol=1e-10)
        drift = np.max(np.abs(traj.H - traj.H[0])) / max(1.0, abs(float(traj.H[0])))
        assert drift < 1e-8
