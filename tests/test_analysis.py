import math
import random

import numpy as np
import pytest

from escortdyn import (
    ConfigError,
    Constant,
    Custom,
    DimensionError,
    Exponential,
    Identity,
    Power,
    QuadratureError,
    Scaled,
    SimplexPoint,
    barycenter,
    builtin_landscape,
    escort_divergence,
    escort_mean_fitness,
    escort_metric,
    ess_check_sampled,
    fisher_rate,
    integral_of_motion,
    integrate,
    is_rest_point,
    monotone_nonincreasing,
    rsp_matrix,
    vector_field,
)
from escortdyn.analysis import _rel_drift
from escortdyn.simplex import simplex_samples
from escortdyn.dynamics import _make_field
from escortdyn.geometry import divergence_profile
from escortdyn.suite import _fd_potential_rate
from escortdyn.landscapes import FitnessLandscape

RSP = builtin_landscape("rsp")
NEG = builtin_landscape("neg_identity")
GRADIENT_ESCORTS = [Identity(), Power(0.5), Power(2.0), Constant(1.0)]


class TestIsRestPoint:
    def test_rsp_barycenter(self):
        assert is_rest_point(Identity(), RSP, barycenter(3), tol=1e-12)

    def test_rsp_generic_point_is_not(self):
        assert not is_rest_point(Identity(), RSP, [0.5, 0.3, 0.2], tol=1e-6)

    def test_zero_landscape_everywhere(self):
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        assert is_rest_point(Identity(), zero, [0.7, 0.2, 0.1], tol=1e-12)

    def test_needs_positive_tolerance(self):
        with pytest.raises(ConfigError):
            is_rest_point(Identity(), RSP, barycenter(3), tol=0.0)


class TestEssCheckSampled:
    def test_gradient_flow_candidate_passes(self):
        report = ess_check_sampled(NEG, barycenter(3), num_samples=200, seed=1)
        assert report.passed
        assert report.min_margin > 0.0
        assert report.samples_tested == 200

    def test_margin_equals_squared_distance_for_neg_identity(self):
        # (x* - x) . (-x) = ||x||^2 - 1/n = ||x* - x||^2 on the simplex
        rng = np.random.default_rng(5)
        x = rng.dirichlet(np.ones(3))
        margin = float((barycenter(3).coords - x) @ NEG(x))
        assert margin == pytest.approx(float(np.sum((barycenter(3).coords - x) ** 2)), abs=1e-12)

    def test_zero_landscape_fails(self):
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        report = ess_check_sampled(zero, barycenter(3), num_samples=50, seed=2)
        assert report.verdict == "failed_at"
        assert report.min_margin == 0.0
        assert report.failure_point is not None

    def test_rsp_is_neutral(self):
        report = ess_check_sampled(RSP, barycenter(3), num_samples=500, seed=3)
        assert abs(report.min_margin) <= 1e-12

    def test_radius_restricts_samples(self):
        report = ess_check_sampled(NEG, barycenter(3), num_samples=50, radius=0.05, seed=4)
        assert report.passed
        # margins within the ball are at most radius^2
        assert report.min_margin <= 0.05**2 + 1e-12

    def test_candidate_must_be_interior(self):
        from escortdyn import DomainError

        with pytest.raises(DomainError):
            ess_check_sampled(NEG, SimplexPoint([1.0, 0.0, 0.0]), num_samples=10)


class TestLyapunovSeries:
    def test_constant_trajectory_gives_zeros(self):
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        tr = integrate(Identity(), zero, barycenter(3), t_end=1.0, step=0.01)
        series = divergence_profile(Identity(), barycenter(3).coords, tr.states)
        np.testing.assert_array_equal(series, np.zeros(len(series)))

    @pytest.mark.parametrize("phi", GRADIENT_ESCORTS)
    def test_strictly_decreasing_along_gradient_flow(self, phi):
        tr = integrate(phi, NEG, [0.6, 0.3, 0.1], t_end=5.0, step=1e-3, observe_every=10)
        series = divergence_profile(phi, barycenter(3).coords, tr.states)
        assert monotone_nonincreasing(series, per_step_tol=1e-10)
        assert series[-1] < series[0]

    def test_matches_trajectory_diagnostics(self):
        tr = integrate(
            Identity(), NEG, [0.6, 0.3, 0.1], t_end=1.0, step=1e-2, ref=barycenter(3)
        )
        series = divergence_profile(Identity(), barycenter(3).coords, tr.states)
        np.testing.assert_allclose(series, tr.lyapunov, rtol=0, atol=0)

    def test_divergence_blowup_raises(self):
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        tr = integrate(Identity(), zero, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2)
        assert np.isposinf(divergence_profile(Identity(), barycenter(3).coords, tr.states)).all()


class TestFisherRate:
    def test_zero_at_rest_point(self):
        flat = FitnessLandscape.custom(
            lambda x: np.full(len(x), 1.0), potential=lambda x: float(np.sum(x)), name="flat"
        )
        assert fisher_rate(Identity(), flat, [0.5, 0.3, 0.2]) == pytest.approx(0.0, abs=1e-15)

    def test_identity_escort_classic_variance(self):
        # x = (0.6, 0.4), f = -x: Var = 0.28 - 0.52^2 = 0.0096, Z = 1
        rate = fisher_rate(Identity(), NEG, [0.6, 0.4])
        assert rate == pytest.approx(0.0096, rel=1e-12)

    @pytest.mark.parametrize("phi", GRADIENT_ESCORTS)
    def test_nonnegative_everywhere(self, phi):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = rng.dirichlet(np.ones(3))
            assert fisher_rate(phi, NEG, x) >= 0.0

    @pytest.mark.parametrize("phi", GRADIENT_ESCORTS)
    def test_matches_finite_difference_along_flow(self, phi):
        field = _make_field(phi, NEG)

        def rk4(y, h):
            k1 = field(y)
            k2 = field(y + 0.5 * h * k1)
            k3 = field(y + 0.5 * h * k2)
            k4 = field(y + h * k3)
            return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        delta = 1e-5
        tr = integrate(phi, NEG, [0.6, 0.3, 0.1], t_end=1.0, step=1e-3, observe_every=100)
        for x in tr.states[1:]:
            rate = fisher_rate(phi, NEG, x)
            fd = (NEG.potential(rk4(x, delta)) - NEG.potential(rk4(x, -delta))) / (2 * delta)
            assert abs(rate - fd) / max(abs(rate), abs(fd)) <= 1e-6

    def test_requires_declared_potential(self):
        with pytest.raises(ConfigError):
            fisher_rate(Identity(), RSP, [0.5, 0.3, 0.2])


class TestGradientFlowsBeyondThreeTypes:
    """The suite's Lyapunov (c04) and Fisher-rate (c05) checks, with their
    bounds, on f = -x at n = 5, 10 and 30 from near the barycenter."""

    @staticmethod
    def flow(phi, f, n):
        x_star = barycenter(n).coords
        x0 = 0.8 * x_star + 0.2 * simplex_samples(n, 1, seed=n)[0].coords
        tr = integrate(phi, f, x0, t_end=5.0, step=0.01, ref=x_star)
        assert tr.termination.ok
        return tr

    @pytest.mark.parametrize("n", [5, 10, 30])
    @pytest.mark.parametrize("phi", GRADIENT_ESCORTS)
    def test_divergence_decays_and_rate_is_the_potential_rate(self, phi, n):
        tr = self.flow(phi, NEG, n)
        assert np.max(np.diff(tr.lyapunov)) <= 1e-10
        for i in range(10, 210, 10):  # t = 0.1, 0.2, ..., 2.0
            x = tr.states[i]
            rate, fd = fisher_rate(phi, NEG, x), _fd_potential_rate(phi, NEG, x)
            assert abs(rate - fd) / max(abs(rate), abs(fd)) <= 1e-6

    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_divergence_rises_away_from_a_potential_minimum(self, n):
        # f = x ascends V = |x|^2 / 2, whose minimum on the simplex is the barycenter
        up = FitnessLandscape.custom(lambda x: x, potential=lambda x: 0.5 * float(np.dot(x, x)), name="up")
        assert np.min(np.diff(self.flow(Identity(), up, n).lyapunov)) > 0.0


class TestIntegralOfMotion:
    def test_identity_at_barycenter(self):
        val = integral_of_motion(Identity(), barycenter(3), barycenter(3))
        assert val == pytest.approx(math.log(1 / 3), rel=1e-12)

    def test_power_two_at_barycenter(self):
        val = integral_of_motion(Power(2.0), barycenter(3), barycenter(3))
        assert val == pytest.approx(-2.0, rel=1e-12)

    def test_power_two_equals_inverse_sum_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.dirichlet(np.ones(3))
            val = integral_of_motion(Power(2.0), barycenter(3), x)
            assert val == pytest.approx((3.0 - np.sum(1.0 / x)) / 3.0, rel=1e-10)

    def test_conserved_along_poincare_rsp(self):
        phi = Power(2.0)
        land = builtin_landscape("rsp_escort_quadratic")
        tr = integrate(phi, land, [0.5, 0.3, 0.2], t_end=10.0, step=1e-3, observe_every=100)
        vals = np.array([integral_of_motion(phi, barycenter(3), s) for s in tr.states])
        assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) <= 1e-8


    def test_equals_the_trajectory_column(self):
        # a circulant antisymmetric game at n = 30 with f = A phi(x): the same sum, bit for bit
        n, phi = 30, Power(2.0)
        rng = np.random.default_rng(3)
        row = rng.normal(size=n)
        c = row - np.roll(row[::-1], 1)  # c_k = -c_{n-k}, so A_ij = c_{j-i} is antisymmetric
        A = np.array([np.roll(c, i) for i in range(n)])
        ref = barycenter(n)
        tr = integrate(phi, FitnessLandscape.matrix_escort(A, phi), rng.dirichlet(np.ones(n)),
                       t_end=0.5, step=1e-2, ref=ref)
        assert len(tr) == 51
        assert np.array_equal([integral_of_motion(phi, ref, x) for x in tr.states], tr.integral_of_motion)

    def test_on_a_face_it_is_the_column(self):
        face = [0.5, 0.5, 0.0]
        assert integral_of_motion(Identity(), barycenter(3), face) == -math.inf
        # Power(0.5) has the finite limit log_phi(0+) = -2
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        tr = integrate(Power(0.5), zero, face, t_end=0.01, step=1e-3, ref=barycenter(3))
        value = integral_of_motion(Power(0.5), barycenter(3), face)
        assert math.isfinite(value) and value == tr.integral_of_motion[0]

    def test_custom_on_a_face(self):
        # log_phi(0) = -log 2 for phi = 1 + v: a bound of 0, which s = log v
        # never reaches, is a limit
        phi = Custom(lambda v: 1.0 + v, name="1+v")
        value = integral_of_motion(phi, barycenter(3), [0.5, 0.5, 0.0])
        assert abs(value - -0.4228371084878357) <= 1e-12

    def test_custom_run_from_a_face(self):
        # the lyapunov column takes the divergence's limit at the zero coordinate too
        phi = Custom(lambda v: 1.0 + v, name="1+v")
        tr = integrate(phi, RSP, [0.5, 0.5, 0.0], 0.01, 1e-3, ref=barycenter(3))
        assert tr.termination.ok and len(tr) == 11
        assert np.isfinite(tr.lyapunov).all() and np.isfinite(tr.integral_of_motion).all()
        assert abs(tr.integral_of_motion[0] - -0.4228371084878357) <= 1e-12

    @pytest.mark.parametrize(
        "fn,expected",
        [
            (lambda v: v + v * v, -math.inf),
            # log_phi(u) = 2 (sqrt(u) - 1), so log_phi(0+) = -2
            (math.sqrt, (2.0 * 2.0 * (math.sqrt(0.5) - 1.0) - 2.0) / 3.0),
            (lambda v: v, -math.inf),
            # v^2 underflows to 0 at v = 1e-300, where 1/phi overflows
            (lambda v: v * v, -math.inf),
            (lambda v: v**3, -math.inf),
        ],
        ids=["v+v^2", "sqrt(v)", "v", "v^2", "v^3"],
    )
    def test_custom_on_a_face_gives_the_limit(self, fn, expected):
        # 1/phi is unbounded at 0: the integral converges for sqrt(v), and at the
        # poles of v, v + v^2, v^2 and v^3 it is -inf
        value = integral_of_motion(Custom(fn, name="pole"), barycenter(3), [0.5, 0.5, 0.0])
        assert value == pytest.approx(expected, abs=1e-10)

    def test_custom_on_a_face_without_a_limit_raises(self):
        # v^-0.999 is integrable, but its tail below 1e-300 is still about 0.5
        with pytest.raises(QuadratureError, match="no limit at 0"):
            integral_of_motion(Custom(lambda v: v**0.999, name="v^0.999"), barycenter(3), [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_wrong_length(self, n):
        with pytest.raises(DimensionError):
            integral_of_motion(Identity(), barycenter(3), barycenter(n))


class TestGradientForm:
    """The escort flow of f = grad V is the gradient of V in the escort metric on
    the tangent space sum_i v_i = 0 (the generalized Shahshahani gradient): the
    system [[diag g, 1], [1^T, 0]] [v; lam] = [f(x); 0], with g the escort metric,
    has v = vector_field and lam = <f(x)>_phi. The solve shares no code with the field."""

    FAMILIES = [
        Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(3.0), Constant(1.5), Exponential(),
        Custom(lambda v: v + v * v, name="v+v^2"),
    ]

    @pytest.mark.parametrize("phi", FAMILIES)
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("f", [NEG, builtin_landscape("exp_decay")], ids=["neg_identity", "exp_decay"])
    def test_field_is_the_escort_metric_gradient(self, f, n, phi):
        f.validate_potential(n)
        for x in simplex_samples(n, 10, seed=n):
            kkt = np.ones((n + 1, n + 1))
            kkt[:n, :n] = np.diag(escort_metric(phi, x))
            kkt[n, n] = 0.0
            solution = np.linalg.solve(kkt, np.append(f(x.coords), 0.0))
            field, mean = vector_field(phi, f, x), escort_mean_fitness(phi, f, x)
            assert np.max(np.abs(solution[:n] - field)) <= 1e-12 * np.max(np.abs(field))
            assert abs(solution[n] - mean) <= 1e-12 * abs(mean)


class TestRestPointNeutrality:
    def test_rsp_margins_vanish_in_expectation_identity(self):
        # x . Ax = 0 for the antisymmetric RSP matrix
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.dirichlet(np.ones(3))
            assert abs(float(x @ RSP(x))) <= 1e-12

    def test_nash_rest_point_all_escorts(self):
        for phi in GRADIENT_ESCORTS + [Exponential()]:
            v = vector_field(phi, RSP, barycenter(3))
            assert np.max(np.abs(v)) <= 1e-12


class TestZeroSumConservation:
    """Along the flow dD_phi(x* || x)/dt = -(x* - x) . f(x). For f = A x with A
    antisymmetric and A x* = 0 that is zero, so D_phi(x* || x) is conserved for
    every escort, not only for the identity (whose case is c01's product)."""

    ESCORTS = [Identity(), Scaled(2.0), Constant(1.0), Exponential()] + [
        Power(q) for q in (0.5, 1.0 + 1e-12, 1.5, 2.0, 3.0)
    ]
    # a symmetric part makes the rate (x* - x) . 1e-3 x, away from zero
    PERTURBED = FitnessLandscape.matrix_linear(rsp_matrix() - 1e-3 * np.eye(3), name="rsp-1e-3I")

    @staticmethod
    def drift(phi, f):
        tr = integrate(phi, f, [0.5, 0.3, 0.2], t_end=5.0, step=1e-3, observe_every=10, ref=barycenter(3))
        assert tr.termination.ok
        return _rel_drift(tr.lyapunov)

    @pytest.mark.parametrize("phi", ESCORTS)
    def test_divergence_to_the_barycenter_is_conserved(self, phi):
        assert self.drift(phi, RSP) <= 1e-12

    def test_a_symmetric_part_breaks_the_conservation(self):
        # Power(3) drifts least under it of the escorts above: 3.1e-4
        assert self.drift(Power(3.0), self.PERTURBED) >= 1e-4

    LARGE_ESCORTS = [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(3.0), Constant(1.0), Exponential()]

    @staticmethod
    def circulant_drift(phi, n, shift=0.0, escort_form=False):
        """The drift to t = 2 of a game A_ij = c_{j-i}, c_k ~ U(-1, 1) and c_{n-k} = -c_k
        (so A 1 = 0), minus ``shift`` I, from 0.8 x* + 0.2 Dirichlet(1), seeded with n:
        of D_phi(x* || x) under f = A x, or with ``escort_form`` of the integral of
        motion sum_i x*_i log_phi(x_i) under f = A phi(x)."""
        rng = np.random.default_rng(n)
        c = np.zeros(n)
        half = rng.uniform(-1.0, 1.0, size=(n - 1) // 2)
        c[1:1 + half.size] = half
        c[n - half.size:] = -half[::-1]
        A = np.array([np.roll(c, i) for i in range(n)]) - shift * np.eye(n)
        # at a 0.5 mix Constant and Exponential leave the simplex at n = 10 and 30
        x0 = 0.8 * barycenter(n).coords + 0.2 * rng.dirichlet(np.ones(n))
        f = FitnessLandscape.matrix_escort(A, phi) if escort_form else FitnessLandscape.matrix_linear(A)
        tr = integrate(phi, f, x0, t_end=2.0, step=1e-3, observe_every=10, ref=barycenter(n))
        assert tr.termination.ok
        return _rel_drift(tr.integral_of_motion if escort_form else tr.lyapunov)

    @pytest.mark.parametrize("phi", LARGE_ESCORTS)
    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_conserved_in_a_circulant_game(self, n, phi):
        # measured at most 9.6e-13 (Exponential, n = 30), the others at most 1.8e-13
        assert self.circulant_drift(phi, n) <= 1e-12

    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_a_symmetric_part_breaks_the_circulant_conservation(self, n):
        # Power(3) drifts least of the escorts above under A - 1e-3 I: 2.7e-7 at n = 30
        assert self.circulant_drift(Power(3.0), n, shift=1e-3) >= 1e-7

    @pytest.mark.parametrize("phi", LARGE_ESCORTS)
    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_integral_of_motion_conserved_in_escort_form(self, n, phi):
        # x* . A phi(x) = 0 and <A phi(x)>_phi = 0, so sum_i x*_i log_phi(x_i) is
        # conserved: measured at most 8.8e-15 (Power(3), n = 30); Constant's field
        # is A c 1 = 0, so its drift is exactly 0
        assert self.circulant_drift(phi, n, escort_form=True) <= 1e-12

    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_a_symmetric_part_breaks_the_integral_of_motion(self, n):
        # measured 1.1e-6 at n = 30, 3.3e-6 at n = 10 and 4.6e-6 at n = 5
        assert self.circulant_drift(Identity(), n, shift=1e-3, escort_form=True) >= 1e-6


class TestEscortESSTheorem:
    """The paper's stability result: at an interior ESS x*, D_phi(x* || x) is a
    Lyapunov function of the escort flow for every escort, with
    dD/dt = -(x* - x) . f(x) (the replicator case is in Hofbauer & Sigmund,
    Evolutionary Games and Population Dynamics, 1998)."""

    # -I + RSP: the barycenter is an ESS with margin (x* - x) . f(x) = |x - x*|^2
    ESS_GAME = FitnessLandscape.matrix_linear(-np.eye(3) + rsp_matrix(), name="-I+rsp")
    # I + RSP: the barycenter is a rest point with margin -|x - x*|^2, not an ESS
    ANTI_GAME = FitnessLandscape.matrix_linear(np.eye(3) + rsp_matrix(), name="I+rsp")
    ESCORTS = [Identity(), Power(0.5), Power(2.0), Exponential(), Constant(1.0)]

    def test_barycenter_is_sampled_ess(self):
        assert ess_check_sampled(self.ESS_GAME, barycenter(3), 500, seed=0).passed

    @pytest.mark.parametrize("phi", ESCORTS)
    def test_divergence_to_ess_is_lyapunov(self, phi):
        x_star = barycenter(3)
        assert is_rest_point(phi, self.ESS_GAME, x_star, tol=1e-12)
        tr = integrate(phi, self.ESS_GAME, [0.6, 0.3, 0.1], t_end=5.0, step=0.01)
        assert tr.termination.ok
        assert np.all(np.diff(divergence_profile(phi, x_star.coords, tr.states)) < 0.0)

    @pytest.mark.parametrize("phi", ESCORTS)
    def test_divergence_rate_along_field(self, phi):
        x_star = barycenter(3).coords
        h = 1e-5
        for x in simplex_samples(3, 10, seed=11):
            v = vector_field(phi, self.ESS_GAME, x)
            d_plus = escort_divergence(phi, x_star, x.coords + h * v)
            d_minus = escort_divergence(phi, x_star, x.coords - h * v)
            rate = -float((x_star - x.coords) @ self.ESS_GAME(x.coords))
            assert abs((d_plus - d_minus) / (2.0 * h) - rate) <= 1e-8 * abs(rate)

    def test_rest_point_that_is_not_ess(self):
        x_star = barycenter(3)
        assert is_rest_point(Identity(), self.ANTI_GAME, x_star, tol=1e-12)
        report = ess_check_sampled(self.ANTI_GAME, x_star, 500, seed=0)
        assert report.verdict == "failed_at" and report.failure_point is not None
        tr = integrate(Identity(), self.ANTI_GAME, [0.35, 0.33, 0.32], t_end=5.0, step=0.01)
        assert np.all(np.diff(divergence_profile(Identity(), x_star.coords, tr.states)) > 0.0)


class TestEscortESSTheoremBeyondThreeTypes:
    """The escort ESS theorem at n = 5, 10 and 30. A = -S + K, with S symmetric
    positive definite and K antisymmetric, minus (A x*) 1^T, which vanishes on
    the tangent space: then f(x*) = 0, so x* is a rest point for every escort, and
    (x* - x) . f(x) = (x - x*)^T S (x - x*) > 0, so x* is an ESS. Held to the
    bounds of c04 (no rise along the run) and c05 (rates to 1e-6 relative)."""

    STEEP_ESCORTS = [Identity(), Scaled(2.0), Power(2.0), Power(3.0)]  # log_phi(0+) = -inf
    STEP = 0.01

    @staticmethod
    def game(n, sign=-1.0):
        """x* and the landscape of A = sign S + K - (A x*) 1^T, seeded with n."""
        rng = random.Random(n)
        G, H = (np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]) for _ in "GH")
        S = G @ G.T / n + np.eye(n)
        A = sign * S + (H - H.T)
        x_star = 0.5 * barycenter(n).coords + 0.5 * simplex_samples(n, 1, seed=n)[0].coords
        A -= np.outer(A @ x_star, np.ones(n))
        return x_star, FitnessLandscape.matrix_linear(A, name=f"ess{n}")

    @pytest.mark.parametrize("n", [5, 10, 30])
    @pytest.mark.parametrize("phi", STEEP_ESCORTS)
    def test_divergence_falls_at_the_rate_of_the_margin(self, phi, n):
        x_star, f = self.game(n)
        x0 = 0.8 * x_star + 0.2 * simplex_samples(n, 1, seed=n + 1)[0].coords
        tr = integrate(phi, f, x0, t_end=2.0, step=self.STEP, ref=x_star)
        assert tr.termination.ok and len(tr) == 201
        lyap = tr.lyapunov
        assert np.all(np.diff(lyap) < 0.0)
        # D(x(2)) - D(x0) = -int_0^2 (x* - x) . f(x) dt, by Simpson's rule on the samples:
        # measured at most 1.3e-10 relative (Scaled(2), n = 5)
        margins = np.array([(x_star - x) @ f(x) for x in tr.states])
        fall = self.STEP / 3.0 * (margins[0] + margins[-1] + 4.0 * margins[1:-1:2].sum()
                                  + 2.0 * margins[2:-1:2].sum())
        assert abs((lyap[0] - lyap[-1]) - fall) <= 1e-6 * fall

    @pytest.mark.parametrize("n", [5, 10, 30])
    def test_sampled_check_tells_the_ess_from_its_control(self, n):
        # S -> -S makes every margin -(x - x*)^T S (x - x*) < 0
        x_star, ess = self.game(n)
        _, anti = self.game(n, sign=1.0)
        assert is_rest_point(Identity(), ess, x_star, tol=1e-12)
        assert ess_check_sampled(ess, x_star, 500, seed=0).passed
        report = ess_check_sampled(anti, x_star, 500, seed=0)
        assert report.verdict == "failed_at" and report.failure_point is not None
