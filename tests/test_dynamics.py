import numpy as np
import pytest

from escortdyn import (
    ConfigError,
    Constant,
    Custom,
    DimensionError,
    DomainError,
    Exponential,
    FitnessLandscape,
    Identity,
    PositivityError,
    Power,
    Scaled,
    SimplexPoint,
    barycenter,
    builtin_landscape,
    discrete_step,
    escort_mean_fitness,
    gauge_shift,
    integrate,
    integrate_formal_solution,
    integral_of_motion,
    rsp_matrix,
    vector_field,
)
from escortdyn.analysis import simplex_samples

RSP = builtin_landscape("rsp")
ZERO = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
ALL_ESCORTS = [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Constant(1.0), Exponential()]


class TestVectorField:
    @pytest.mark.parametrize("phi", ALL_ESCORTS)
    def test_constant_landscape_is_stationary(self, phi):
        flat = FitnessLandscape.custom(lambda x: np.full(len(x), 3.7), name="flat")
        v = vector_field(phi, flat, SimplexPoint([0.5, 0.3, 0.2]))
        assert np.max(np.abs(v)) <= 1e-12

    def test_rsp_barycenter_is_rest_point(self):
        v = vector_field(Identity(), RSP, barycenter(3))
        assert np.max(np.abs(v)) == 0.0

    def test_equal_payoff_on_support_is_rest_point(self):
        # the third type is extinct; payoffs only need to agree on the support
        f = FitnessLandscape.custom(lambda x: np.array([2.0, 2.0, -5.0]), name="support")
        v = vector_field(Identity(), f, SimplexPoint([0.5, 0.5, 0.0]))
        assert np.max(np.abs(v)) <= 1e-12

    def test_constant_escort_is_orthogonal_projection(self):
        for x in simplex_samples(3, 100, seed=2):
            fx = RSP(x.coords)
            expected = fx - fx.sum() / 3.0
            v = vector_field(Constant(1.0), RSP, x)
            assert np.max(np.abs(v - expected)) <= 1e-15

    def test_exponential_escort_closed_form(self):
        f = builtin_landscape("exp_decay")
        for x in simplex_samples(3, 50, seed=3):
            ex = np.exp(x.coords)
            expected = 1.0 - 3.0 * ex / ex.sum()
            v = vector_field(Exponential(), f, x)
            assert np.max(np.abs(v - expected)) <= 1e-12
        assert np.max(np.abs(vector_field(Exponential(), f, barycenter(3)))) <= 1e-15

    @pytest.mark.parametrize("phi", ALL_ESCORTS)
    def test_tangency(self, phi):
        for x in simplex_samples(4, 1000, seed=4):
            v = vector_field(phi, builtin_landscape("neg_identity"), x)
            assert abs(v.sum()) <= 1e-12

    def test_q_deformed_matches_formula(self):
        phi = Power(2.0)
        for x in simplex_samples(3, 20, seed=6):
            w = x.coords**2
            fx = RSP(x.coords)
            expected = w * (fx - w @ fx / w.sum())
            np.testing.assert_allclose(vector_field(phi, RSP, x), expected, atol=1e-15)


class TestGauge:
    def test_shift_by_zero_gives_same_values(self):
        shifted = gauge_shift(RSP, lambda x: 0.0)
        for x in simplex_samples(3, 10, seed=8):
            np.testing.assert_array_equal(shifted(x.coords), RSP(x.coords))

    @pytest.mark.parametrize(
        "g",
        [lambda x: 5.0, lambda x: float(np.sum(x)), lambda x: float(np.sum(x * x))],
    )
    @pytest.mark.parametrize("phi", [Identity(), Power(2.0), Exponential()])
    def test_field_invariance(self, phi, g):
        shifted = gauge_shift(RSP, g)
        for x in simplex_samples(3, 34, seed=9):
            a = vector_field(phi, RSP, x)
            b = vector_field(phi, shifted, x)
            assert np.max(np.abs(a - b)) <= 1e-12


class TestIntegrate:
    def test_zero_landscape_constant_trajectory(self):
        tr = integrate(Identity(), ZERO, [0.5, 0.3, 0.2], t_end=1.0, step=0.01)
        assert tr.termination.ok
        assert np.max(np.abs(tr.states - np.array([0.5, 0.3, 0.2]))) == 0.0

    def test_times_and_sums(self):
        tr = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=2.0, step=1e-3, observe_every=50)
        assert np.all(np.diff(tr.times) > 0)
        assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(2.0)
        assert np.max(np.abs(tr.states.sum(axis=1) - 1.0)) <= 1e-12

    def test_rsp_product_conserved_short_horizon(self):
        tr = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=10.0, step=1e-3, observe_every=100)
        prods = np.prod(tr.states, axis=1)
        assert np.max(np.abs(prods - prods[0])) / prods[0] <= 1e-8

    def test_final_state_recorded_when_not_aligned(self):
        tr = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=1.0, step=1e-2, observe_every=7)
        assert tr.times[-1] == pytest.approx(1.0)

    def test_boundary_exit_linear_drift(self):
        push = FitnessLandscape.custom(lambda x: np.array([-1.0, 1.0, 0.0]), name="push")
        tr = integrate(Constant(1.0), push, [0.1, 0.4, 0.5], t_end=10.0, step=1e-3)
        term = tr.termination
        assert term.kind == "boundary_exit"
        assert term.index == 0
        # field is (-1, 1, 0) - 0, so x_1 hits zero at t = 0.1
        assert term.time == pytest.approx(0.1, abs=2e-3)
        assert tr.times[-1] <= term.time
        assert np.all(tr.states >= 0.0)

    def test_boundary_exit_exponential_escort(self):
        push = FitnessLandscape.custom(lambda x: np.array([-2.0, 2.0, 0.0]), name="push")
        tr = integrate(Exponential(), push, [0.05, 0.45, 0.5], t_end=10.0, step=1e-3)
        assert tr.termination.kind == "boundary_exit"
        assert tr.termination.index == 0

    def test_forward_invariant_power_half_completes(self):
        land = FitnessLandscape.matrix_escort(rsp_matrix(), Power(0.5))
        tr = integrate(Power(0.5), land, [0.5, 0.3, 0.2], t_end=5.0, step=1e-3, observe_every=100)
        assert tr.termination.ok

    def test_diagnostics_present_with_ref(self):
        tr = integrate(
            Identity(), RSP, [0.5, 0.3, 0.2], t_end=1.0, step=1e-2, ref=barycenter(3)
        )
        assert tr.lyapunov is not None and tr.integral_of_motion is not None
        assert np.all(np.isfinite(tr.lyapunov))

    def test_ref_of_another_length_fails_before_the_first_step(self):
        calls = []

        def counted(x):
            calls.append(1)
            return RSP(x)

        land = FitnessLandscape.custom(counted, name="counted rsp")
        with pytest.raises(DimensionError):
            integrate(Identity(), land, [0.5, 0.3, 0.2], t_end=5.0, step=1e-3, ref=barycenter(4))
        assert calls == []

    def test_diagnostics_none_without_ref(self):
        tr = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=0.1, step=1e-2)
        assert tr.lyapunov is None and tr.integral_of_motion is None

    def test_boundary_states_leave_infinity_markers(self):
        # stationary at a face: KL to the barycenter diverges, recorded as inf
        tr = integrate(Identity(), ZERO, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2, ref=barycenter(3))
        assert np.all(np.isinf(tr.lyapunov))
        assert np.all(np.isneginf(tr.integral_of_motion))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": 1.0, "step": 0.0},
            {"t_end": 1.0, "step": -0.1},
            {"t_end": 0.005, "step": 0.01},
            {"t_end": 1.0, "step": 0.01, "observe_every": 0},
            {"t_end": 1.0, "step": 0.01, "observe_every": 1.5},
            {"t_end": 1.0, "step": 0.3},
        ],
    )
    def test_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            integrate(Identity(), RSP, [0.5, 0.3, 0.2], **kwargs)

    def test_domain_error_at_start_propagates(self):
        with pytest.raises(DomainError):
            integrate(Power(-1.0), RSP, [0.5, 0.5, 0.0], t_end=1.0, step=0.01)

    def test_horizon_divisible_by_small_step_accepted(self):
        tr = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=0.1, step=1e-3, observe_every=100)
        assert tr.termination.ok
        assert tr.times[-1] == pytest.approx(0.1)


# drains x_1 through the boundary, which the exponential escort does not stop
DRAIN = FitnessLandscape.matrix_linear([[-9.0, 0.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 0.0]])


class TestRecordedDiagnostics:
    """The recorded mean fitness comes from the first RK4 stage at each
    sample; it must equal a fresh evaluation bit for bit."""

    @pytest.mark.parametrize(
        "phi, f, kwargs, kind",
        [
            # escort form, f = A phi(x): the field's shared-weights path
            (Power(2.0), FitnessLandscape.matrix_escort(rsp_matrix(), Power(2.0)),
             {"t_end": 1.0, "step": 1e-2}, "completed"),
            # 100 steps, a sample every 7: the final sample is recorded apart
            (Identity(), RSP, {"t_end": 1.0, "step": 1e-2, "observe_every": 7}, "completed"),
            (Exponential(), DRAIN, {"t_end": 10.0, "step": 1e-3, "observe_every": 3}, "boundary_exit"),
        ],
    )
    def test_mean_fitness_matches_fresh_evaluation(self, phi, f, kwargs, kind):
        x0 = [0.05, 0.45, 0.5] if f is DRAIN else [0.5, 0.3, 0.2]
        tr = integrate(phi, f, x0, **kwargs)
        assert tr.termination.kind == kind
        assert len(tr) >= 3
        for i, x in enumerate(tr.states):
            assert tr.mean_fitness[i] == escort_mean_fitness(phi, f, x)

    @pytest.mark.parametrize("phi", [Identity(), Power(2.0), Power(0.5), Exponential()])
    def test_integral_of_motion_matches_analysis(self, phi):
        ref = barycenter(3)
        tr = integrate(phi, RSP, [0.5, 0.3, 0.2], t_end=1.0, step=1e-2, ref=ref)
        want = [integral_of_motion(phi, ref, x) for x in tr.states]
        np.testing.assert_allclose(tr.integral_of_motion, want, rtol=1e-15, atol=0.0)

    def test_custom_integral_of_motion_matches_analysis(self):
        phi = Custom(lambda v: v + v * v, name="v+v^2")
        ref = barycenter(3)
        tr = integrate(phi, RSP, [0.5, 0.3, 0.2], t_end=0.1, step=1e-2, ref=ref)
        want = [integral_of_motion(phi, ref, x) for x in tr.states]
        np.testing.assert_allclose(tr.integral_of_motion, want, rtol=0.0, atol=1e-11)

    def test_integral_of_motion_on_a_face(self):
        ref = barycenter(3)
        tr = integrate(Identity(), ZERO, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2, ref=ref)
        assert np.all(np.isneginf(tr.integral_of_motion))
        # Power(0.5) has the finite limit log_phi(0+) = -2
        phi = Power(0.5)
        tr = integrate(phi, ZERO, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2, ref=ref)
        third = ref.coords[0]
        want = third * phi.log(0.5) + third * phi.log(0.5) + third * phi.log_zero_limit()
        assert np.all(np.isfinite(tr.integral_of_motion))
        np.testing.assert_allclose(tr.integral_of_motion, want, rtol=1e-15, atol=0.0)


class TestScaledTimeChange:
    def test_beta_two_doubles_speed(self):
        fast = integrate(Scaled(2.0), RSP, [0.5, 0.3, 0.2], t_end=2.0, step=1e-3, observe_every=10)
        slow = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=4.0, step=1e-3, observe_every=10)
        m = len(fast.states)
        dev = np.max(np.abs(fast.states - slow.states[::2][:m]))
        assert dev <= 1e-6


class TestQContinuity:
    def test_deviation_scales_linearly_in_q(self):
        ref = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=10.0, step=1e-3, observe_every=100)

        def dev(q):
            tr = integrate(Power(q), RSP, [0.5, 0.3, 0.2], t_end=10.0, step=1e-3, observe_every=100)
            return np.max(np.abs(tr.states - ref.states))

        assert dev(1.01) <= 10.0 * dev(1.001)
        assert dev(0.99) <= 10.0 * dev(0.999)


class TestDiscreteStep:
    def test_identity_constant_fitness_fixed_point(self):
        flat = FitnessLandscape.custom(lambda x: np.full(len(x), 2.0), name="flat")
        x = SimplexPoint([0.5, 0.3, 0.2])
        out = discrete_step(Identity(), flat, x)
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-15)

    def test_constant_escort_normalizes_fitness(self):
        f = FitnessLandscape.custom(lambda x: np.array([1.0, 3.0]), name="13")
        out = discrete_step(Constant(1.0), f, SimplexPoint([0.9, 0.1]))
        np.testing.assert_array_equal(out.coords, [0.25, 0.75])

    def test_identity_hand_normalization(self):
        f = FitnessLandscape.custom(lambda x: np.array([2.0, 1.0]), name="21")
        out = discrete_step(Identity(), f, SimplexPoint([0.5, 0.5]))
        np.testing.assert_allclose(out.coords, [2 / 3, 1 / 3], rtol=1e-15)

    @pytest.mark.parametrize("phi", ALL_ESCORTS)
    def test_output_is_simplex_point(self, phi):
        f = FitnessLandscape.custom(lambda x: 1.0 + x, name="pos")
        for x in simplex_samples(3, 20, seed=10):
            out = discrete_step(phi, f, x)
            assert isinstance(out, SimplexPoint)

    def test_positivity_error(self):
        f = FitnessLandscape.custom(lambda x: np.array([1.0, 0.0]), name="zerofit")
        with pytest.raises(PositivityError):
            discrete_step(Identity(), f, SimplexPoint([0.5, 0.5]))


class TestFormalSolution:
    def test_zero_landscape_stays_put(self):
        tr = integrate_formal_solution(Identity(), ZERO, [0.5, 0.3, 0.2], t_end=1.0, step=0.01)
        assert np.max(np.abs(tr.states - np.array([0.5, 0.3, 0.2]))) <= 1e-12

    @pytest.mark.parametrize("phi", [Identity(), Power(2.0)])
    def test_matches_direct_integration(self, phi):
        direct = integrate(phi, RSP, [0.5, 0.3, 0.2], t_end=2.0, step=1e-3, observe_every=10)
        formal = integrate_formal_solution(
            phi, RSP, [0.5, 0.3, 0.2], t_end=2.0, step=1e-3, observe_every=10
        )
        np.testing.assert_array_equal(direct.times, formal.times)
        assert np.max(np.abs(direct.states - formal.states)) <= 1e-5

    def test_needs_interior_start(self):
        with pytest.raises(DomainError):
            integrate_formal_solution(Identity(), RSP, [1.0, 0.0], t_end=1.0, step=0.01)

    def test_range_error_when_flow_crosses_boundary(self):
        from escortdyn import RangeError

        push = FitnessLandscape.custom(lambda x: np.array([-20.0, 20.0, 0.0]), name="push")
        with pytest.raises(RangeError) as err:
            integrate_formal_solution(Constant(1.0), push, [0.1, 0.4, 0.5], t_end=5.0, step=1e-3)
        assert err.value.index == 0  # the drained coordinate leaves the range of exp_phi


class TestLandscapes:
    def test_rsp_matrix_pinned(self):
        np.testing.assert_array_equal(
            rsp_matrix(), [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
        )

    def test_matrix_linear_rsp_values(self):
        x = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(RSP(x), [0.3 - 0.2, 0.2 - 0.5, 0.5 - 0.3], atol=1e-15)

    def test_matrix_escort_quadratic(self):
        f = builtin_landscape("rsp_escort_quadratic")
        x = np.array([0.5, 0.3, 0.2])
        expected = [0.09 - 0.04, 0.04 - 0.25, 0.25 - 0.09]
        np.testing.assert_allclose(f(x), expected, atol=1e-15)

    def test_matrix_escort_log(self):
        f = FitnessLandscape.matrix_escort_log(rsp_matrix(), Identity())
        x = np.array([0.5, 0.3, 0.2])
        lx = np.log(x)
        np.testing.assert_allclose(f(x), rsp_matrix() @ lx, atol=1e-15)

    def test_potential_validation_passes_builtin(self):
        assert builtin_landscape("neg_identity").validate_potential(3) <= 1e-5
        assert builtin_landscape("exp_decay").validate_potential(3) <= 1e-5

    def test_potential_validation_catches_mismatch(self):
        bad = FitnessLandscape.custom(
            lambda x: -x, potential=lambda x: float(np.sum(x**3)), name="bad"
        )
        with pytest.raises(ConfigError):
            bad.validate_potential(3)

    def test_no_potential_declared(self):
        with pytest.raises(ConfigError):
            RSP.validate_potential(3)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_landscape("nope")

    def test_non_square_matrix_rejected(self):
        with pytest.raises(Exception):
            FitnessLandscape.matrix_linear(np.ones((2, 3)))
