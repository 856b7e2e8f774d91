import dataclasses
import tracemalloc
import warnings

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
    Termination,
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
from escortdyn import dynamics, suite
from escortdyn.simplex import simplex_samples
from escortdyn.dynamics import BLOCK_ROWS, Run, _check_controls, _rk4_step, _safe_integral
from escortdyn.geometry import divergence_profile
from escortdyn.suite import X0_CYCLE

RSP = builtin_landscape("rsp")
ZERO = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
ALL_ESCORTS = [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Constant(1.0), Exponential()]
CLOSED_FAMILIES = ALL_ESCORTS + [Power(-1.5)]


class TestVectorField:
    @pytest.mark.parametrize("phi", CLOSED_FAMILIES)
    def test_shared_weights_field_is_its_custom_form_bit_for_bit(self, phi):
        # f = A phi(x) on the field's own escort reuses the field's weights;
        # the same f as a custom landscape evaluates them again
        A = np.random.default_rng(11).normal(size=(4, 4))
        shared = FitnessLandscape.matrix_escort(A, phi)
        custom = FitnessLandscape.custom(lambda x: A @ phi.weights(x), name="A phi(x)")
        for x in simplex_samples(4, 25, seed=12):
            assert np.array_equal(vector_field(phi, shared, x), vector_field(phi, custom, x))

    def test_shared_weights_field_checks_the_mean(self):
        # 1e-200 ** -2 overflows: the fitness is not finite, and neither is the mean
        phi = Power(-2.0)
        x = [1e-200, 0.5, 0.5 - 1e-200]
        for f in (
            FitnessLandscape.matrix_escort(rsp_matrix(), phi),
            FitnessLandscape.custom(lambda v: rsp_matrix() @ phi.weights(v)),
        ):
            with np.errstate(all="ignore"), pytest.raises(DomainError, match="non-finite fitness"):
                vector_field(phi, f, x)

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
            {"t_end": 1e308, "step": 0.001},  # t_end / step overflows to inf
            {"t_end": 2.0**54, "step": 1.0},  # more steps than a float names exactly
        ],
    )
    def test_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            integrate(Identity(), RSP, [0.5, 0.3, 0.2], **kwargs)

    def test_step_count_limit_is_accepted(self):
        # 2**53 steps is the largest count the float t_end / step names exactly
        assert _check_controls(2.0**53, 1.0, 1) == (2**53, 1)

    def test_domain_error_at_start_propagates(self):
        with pytest.raises(DomainError):
            integrate(Power(-1.0), RSP, [0.5, 0.5, 0.0], t_end=1.0, step=0.01)

    @pytest.mark.parametrize("observe_every", [1, 2, 3])
    def test_field_failure_at_an_accepted_state_ends_the_run_there(self, observe_every):
        # the landscape is non-finite at the t = 0.005 state only: that state is
        # not accepted, and the run ends at t = 0.004, the last state where the
        # field was evaluated, instead of raising
        x0 = [0.5, 0.3, 0.2]
        failing = integrate(Identity(), RSP, x0, t_end=0.005, step=1e-3).states[-1]

        def fitness(x):
            return np.full(3, np.inf) if np.array_equal(x, failing) else RSP(x)

        land = FitnessLandscape.custom(fitness, name="rsp, non-finite at one state")
        tr = integrate(Identity(), land, x0, t_end=0.01, step=1e-3, observe_every=observe_every)
        assert tr.termination.kind == "boundary_exit"
        assert tr.termination.time == pytest.approx(0.004)
        want = integrate(Identity(), RSP, x0, t_end=0.004, step=1e-3, observe_every=observe_every)
        assert tr.times.tolist() == want.times.tolist()
        assert tr.times[-1] == tr.termination.time  # the last accepted state is recorded
        assert tr.states.tolist() == want.states.tolist()
        assert tr.mean_fitness.tolist() == want.mean_fitness.tolist()

    @pytest.mark.parametrize(
        "phi, push, step, time, rows, last",
        [
            (Identity(), 4.0, 0.2, 0.6000000000000001, 4,
             [0.027646671926453266, 0.6897923167270841, 0.2825610113464626]),
            (Power(0.5), 2.0, 0.1, 0.5, 6,
             [0.01605713841923226, 0.5933908689605832, 0.39055199262018464]),
        ],
    )
    def test_negative_entry_at_a_stage_state_ends_the_run(self, phi, push, step, time, rows, last):
        # every accepted state is nonnegative, but a k2-k4 stage state is not:
        # weights raises there and the run ends at the last accepted state
        land = FitnessLandscape.custom(lambda x: np.array([-push, push, 0.0]), name="push")
        x0 = [0.45, 0.1, 0.45]
        tr = integrate(phi, land, x0, t_end=4.0, step=step)
        assert tr.termination == Termination("boundary_exit", time=time, index=0)
        assert len(tr) == rows and tr.times[-1] == time
        assert tr.states[-1].tolist() == last
        want = integrate(phi, land, x0, t_end=time, step=step)
        assert want.termination.ok
        assert tr.states.tolist() == want.states.tolist()
        assert tr.mean_fitness.tolist() == want.mean_fitness.tolist()

    def test_non_finite_landscape_at_a_stage_state_ends_the_run(self):
        # DRAIN's accepted states stay nonnegative up to t = 0.025; a stage of
        # the next step is negative, where this landscape is +inf
        def fitness(x):
            return np.full(3, np.inf) if (x < 0.0).any() else DRAIN(x)

        land = FitnessLandscape.custom(fitness, name="DRAIN, +inf outside the simplex")
        x0 = [0.05, 0.45, 0.5]
        tr = integrate(Exponential(), land, x0, t_end=10.0, step=1e-3, observe_every=3)
        assert tr.termination == Termination("boundary_exit", time=0.025, index=None)
        assert len(tr) == 10 and tr.times[-1] == 0.025
        assert tr.states[-1].tolist() == [0.0001314666633925334, 0.5682349998836617, 0.43163353345294586]
        drained = integrate(Exponential(), DRAIN, x0, t_end=10.0, step=1e-3, observe_every=3)
        assert drained.termination == Termination("boundary_exit", time=0.026000000000000002, index=0)
        assert tr.times.tolist() == drained.times.tolist()
        assert tr.states.tolist() == drained.states.tolist()
        assert tr.mean_fitness.tolist() == drained.mean_fitness.tolist()

    @pytest.mark.parametrize("observe_every", [1, 7, 10])
    def test_a_run_evaluates_the_field_4_steps_plus_1_times(self, observe_every):
        calls = []

        def counted(x):
            calls.append(1)
            return RSP(x)

        land = FitnessLandscape.custom(counted, name="counted rsp")
        tr = integrate(Identity(), land, [0.5, 0.3, 0.2], t_end=0.1, step=1e-2,
                       observe_every=observe_every)
        assert tr.termination.ok
        assert len(calls) == 4 * 10 + 1

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
        assert np.array_equal(tr.integral_of_motion, want)

    def test_custom_integral_of_motion_matches_analysis(self):
        phi = Custom(lambda v: v + v * v, name="v+v^2")
        ref = barycenter(3)
        tr = integrate(phi, RSP, [0.5, 0.3, 0.2], t_end=0.1, step=1e-2, ref=ref)
        want = [integral_of_motion(phi, ref, x) for x in tr.states]
        assert np.array_equal(tr.integral_of_motion, want)

    def test_integral_of_motion_on_a_face(self):
        ref = barycenter(3)
        tr = integrate(Identity(), ZERO, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2, ref=ref)
        assert np.all(np.isneginf(tr.integral_of_motion))
        # Power(0.5) has the finite limit log_phi(0+) = -2
        phi = Power(0.5)
        tr = integrate(phi, ZERO, [0.5, 0.5, 0.0], t_end=0.1, step=1e-2, ref=ref)
        third = ref.coords[0]
        want = third * phi.log(0.5) + third * phi.log(0.5) + third * -2.0
        assert np.all(np.isfinite(tr.integral_of_motion))
        np.testing.assert_allclose(tr.integral_of_motion, want, rtol=1e-15, atol=0.0)


class TestDiagnosticBlocks:
    """The diagnostics are computed BLOCK_ROWS samples at a time; each value
    equals the whole-trajectory call bit for bit, and the memory they take
    is bounded by a block, not by the run."""

    @staticmethod
    def _run(phi, x0, samples):
        ref = barycenter(3)
        tr = integrate(phi, RSP, x0, t_end=(samples - 1) * 1e-3, step=1e-3, ref=ref)
        assert tr.termination.ok and len(tr) == samples
        return tr, ref

    @staticmethod
    def _assert_whole_trajectory(phi, tr, ref):
        lyap = divergence_profile(phi, ref, tr.states)
        assert np.array_equal(tr.lyapunov, lyap, equal_nan=True)
        integral = _safe_integral(phi, ref.coords, tr.states)
        assert np.array_equal(tr.integral_of_motion, integral, equal_nan=True)

    @pytest.mark.parametrize(
        "phi",
        [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(-1.0), Constant(1.0), Exponential(),
         Custom(lambda v: v + v * v, name="v+v^2")],  # the last by quadrature, in the same blocks
    )
    def test_closed_family_equals_the_whole_trajectory(self, phi):
        # three blocks, the last one partial
        tr, ref = self._run(phi, [0.5, 0.3, 0.2], 2 * BLOCK_ROWS + 17)
        self._assert_whole_trajectory(phi, tr, ref)

    def test_markers_on_a_face_in_every_block(self):
        tr, ref = self._run(Identity(), [0.5, 0.5, 0.0], 2 * BLOCK_ROWS + 17)
        self._assert_whole_trajectory(Identity(), tr, ref)
        for start in range(0, len(tr), BLOCK_ROWS):
            assert np.isposinf(tr.lyapunov[start : start + BLOCK_ROWS]).all()
            assert np.isneginf(tr.integral_of_motion[start : start + BLOCK_ROWS]).all()

    def test_peak_memory_is_bounded_by_the_states(self):
        n = 30
        c = np.zeros(n)  # first row of a circulant antisymmetric matrix
        c[1 : (n + 1) // 2] = np.random.default_rng(5).uniform(-1.0, 1.0, (n - 1) // 2)
        c[n - 1 : n // 2 : -1] = -c[1 : (n + 1) // 2]
        A = np.array([[c[(j - i) % n] for j in range(n)] for i in range(n)])
        assert np.array_equal(A, -A.T)
        phi = Power(2.0)
        f = FitnessLandscape.matrix_escort(A, phi)
        tracemalloc.start()
        try:
            tr = integrate(phi, f, simplex_samples(n, 1, seed=3)[0], t_end=20.0, step=1e-3,
                           ref=barycenter(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr.termination.ok and len(tr) == 20_001
        # the per-sample list and its stacked copy take about 3x; diagnostics over
        # the whole run at once would add about 6x more
        assert peak <= 4 * tr.states.nbytes


def reference_rk4(phi, f, x0, t_end, step):
    """Classical RK4 on the escort flow from the checked public calls
    (``phi.weights``, ``f(x)``, ``.sum()``), renormalized as ``integrate`` does;
    the states and mean fitness at every step."""

    def stage(x):
        w = phi.weights(x)
        fx = f(x)
        m = (w @ fx) / w.sum()
        return w * (fx - m), m

    x = np.array(x0, dtype=float)
    k1, m = stage(x)
    states, means = [x.copy()], [m]
    h = step
    for _ in range(round(t_end / step)):
        k2, _ = stage(x + 0.5 * h * k1)
        k3, _ = stage(x + 0.5 * h * k2)
        k4, _ = stage(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total = x.sum()
        if abs(total - 1.0) > 1e-13:
            x /= total
        k1, m = stage(x)
        states.append(x.copy())
        means.append(m)
    return np.array(states), np.array(means)


def march_every_step(rhs, y, h, n_steps, observe_every, accept=None):
    """``dynamics._march`` without its fixed-point stop: it takes every step."""
    stops = () if accept is None else DomainError
    times, states, means = [], [], []

    def record(t, x, mean):
        times.append(t)
        states.append(x.copy())
        means.append(float(mean))

    k1 = rhs(y)
    record(0.0, *rhs.sample)
    t, termination = 0.0, None
    for k in range(n_steps):
        t_new = (k + 1) * h
        try:
            y_new = _rk4_step(rhs, y, h, k1)
            termination = accept and accept(y_new, t_new)
            if termination:
                break
            k1 = rhs(y_new)
        except stops as err:
            termination = Termination.boundary_exit(t, err.index, str(err))
            break
        y, t, sample = y_new, t_new, rhs.sample
        if (k + 1) % observe_every == 0:
            record(t, *sample)
    if times[-1] < t:
        record(t, *sample)
    return times, np.array(states), means, termination or Termination.completed()


def every_step(integrate_fn):
    """``integrate_fn()`` with a march that takes every step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_march", march_every_step)
        return integrate_fn()


def counting_steps(integrate_fn):
    """``integrate_fn()`` and the number of RK4 steps it took."""
    steps = []

    def step(*args):
        steps.append(None)
        return _rk4_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_rk4_step", step)
        return integrate_fn(), len(steps)


def assert_same_bits(a, b, rows=slice(None)):
    """Trajectory ``a`` is ``b``, or the ``rows`` of ``b``, bit for bit."""
    for name in ("times", "states", "mean_fitness", "lyapunov", "integral_of_motion"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or (x.shape == y[rows].shape and x.tobytes() == y[rows].tobytes()), name
    assert a.termination == b.termination


class TestFixedPointStop:
    """A march stops at an accepted state with the same bytes as the state it
    was stepped from, and records its remaining samples from there: every later
    step would repeat it. The trajectory is the full march's, bit for bit."""

    C08 = suite.CRITERIA_BY_NAME["exponential_escort_rest_point"].runs[0]
    CONSTANT = suite._GRADIENT_RUNS[3]  # Constant(1) on neg_identity, with ref

    @pytest.mark.parametrize("observe_every", [100, 7])
    def test_the_exponential_rest_point_takes_one_step(self, observe_every):
        # the field is exactly [0, 0, 0] at the barycenter
        run = dataclasses.replace(self.C08, observe_every=observe_every)
        tr, steps = counting_steps(run.integrate)
        assert steps == 1
        assert_same_bits(tr, every_step(run.integrate))

    @pytest.fixture(scope="class")
    def constant_every_step(self):
        return every_step(self.CONSTANT.integrate)

    def test_constant_escort_stops_at_its_fixed_point(self, constant_every_step):
        tr, steps = counting_steps(self.CONSTANT.integrate)
        assert steps == 30_004 and self.CONSTANT.steps == 50_000
        assert_same_bits(tr, constant_every_step)

    def test_constant_escort_sampled_every_7th_step(self, constant_every_step):
        # a sample is a function of its state alone, so the march sampled every
        # 7th step records rows 0, 7, 14, ... and the last of the one sampled at every step
        tr = dataclasses.replace(self.CONSTANT, observe_every=7).integrate()
        assert_same_bits(tr, constant_every_step, rows=np.r_[0:50_001:7, 50_000])

    def test_a_renormalized_rest_point(self):
        # x0 sums to 1 + 1e-12: the first step renormalizes it, the second repeats it
        x0 = tuple(np.full(3, (1.0 + 1e-12) / 3.0))
        run = Run(Exponential(), "exp_decay", x0, 1.0, ref=tuple(barycenter(3).coords))
        tr, steps = counting_steps(run.integrate)
        assert abs(sum(x0) - 1.0) > dynamics.DRIFT_TOL and steps == 2
        assert_same_bits(tr, every_step(run.integrate))

    def test_a_moving_state_takes_every_step(self):
        run = Run(Identity(), "rsp", X0_CYCLE, 1.0, observe_every=7, ref=tuple(barycenter(3).coords))
        tr, steps = counting_steps(run.integrate)
        assert steps == 1000
        assert_same_bits(tr, every_step(run.integrate))

    def test_the_formal_solution_stops_too(self):
        # f = 0 leaves v and G as they are
        def formal():
            return integrate_formal_solution(Power(2.0), ZERO, X0_CYCLE, 1.0, 1e-3, observe_every=7)

        tr, steps = counting_steps(formal)
        assert steps == 1
        assert_same_bits(tr, every_step(formal))


def _antisymmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a - a.T


class TestReferenceRK4:
    """``integrate`` tests its domain once per stage with scalar reductions;
    a reference RK4 built from the checked public calls gives the same bits."""

    @pytest.mark.parametrize(
        "phi, f, x0",
        [
            (Identity(), RSP, [0.5, 0.3, 0.2]),
            (Power(2.0), FitnessLandscape.matrix_escort(rsp_matrix(), Power(2.0)), [0.5, 0.3, 0.2]),
            (Exponential(), builtin_landscape("exp_decay"), [0.5, 0.3, 0.2]),
            (Scaled(2.0), RSP, [0.6, 0.3, 0.1]),
            (Power(1.9), FitnessLandscape.matrix_escort(_antisymmetric(30, 3), Power(1.9)),
             simplex_samples(30, 1, seed=3)[0].coords),
            # a sum off 1 within SUM_TOL: the first step renormalizes
            (Identity(), RSP, [0.5 + 5e-10, 0.3, 0.2]),
        ],
        ids=["identity-rsp", "power2-escort-form", "exponential-exp_decay", "scaled2-linear",
             "n30-power1.9-escort-form", "identity-rsp-off-sum"],
    )
    def test_integrate_equals_the_reference_bit_for_bit(self, phi, f, x0):
        tr = integrate(phi, f, x0, t_end=1.0, step=1e-2)
        assert tr.termination.ok
        states, means = reference_rk4(phi, f, x0, t_end=1.0, step=1e-2)
        assert tr.times.tolist() == [k * 1e-2 for k in range(101)]
        assert tr.states.tolist() == states.tolist()
        assert tr.mean_fitness.tolist() == means.tolist()


def _failing_at_one_state(values):
    """RSP, except ``values`` at the state that Identity reaches at t = 0.005
    from (0.5, 0.3, 0.2) with step 1e-3."""
    failing = integrate(Identity(), RSP, [0.5, 0.3, 0.2], t_end=0.005, step=1e-3).states[-1]
    values = np.array(values)
    return FitnessLandscape.custom(
        lambda x: values if np.array_equal(x, failing) else RSP(x), name="rsp, failing at one state"
    )


class TestFailurePathWarnings:
    """The scalar tests send failures to the elementwise pass, which must not
    warn. Fitness that mixes +inf and -inf (or is +inf at a zero weight) and a
    step that overflows make non-finite values inside ``integrate``, which end
    the run with its termination and raise no warning; outside it, ``w @ fx``
    warns, and under warnings-as-errors that still ends in the landscape's
    DomainError."""

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_landscape(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            land = FitnessLandscape.custom(lambda x: np.full(len(x), value), name="non-finite")
            with pytest.raises(DomainError, match="non-finite fitness"):
                integrate(Identity(), land, [0.5, 0.3, 0.2], t_end=1.0, step=1e-2)
            tr = integrate(Identity(), _failing_at_one_state([value] * 3), [0.5, 0.3, 0.2],
                           t_end=0.01, step=1e-3)
        assert tr.termination == Termination("boundary_exit", time=0.004, index=None)

    def test_mixed_infinities(self):
        mixed = [np.inf, -np.inf, 0.0]
        land = FitnessLandscape.custom(lambda x: np.array(mixed), name="mixed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite fitness"):
                escort_mean_fitness(Identity(), land, barycenter(3))
            with pytest.raises(DomainError, match="non-finite fitness"):
                vector_field(Identity(), land, barycenter(3))
            tr = integrate(Identity(), _failing_at_one_state(mixed), [0.5, 0.3, 0.2], t_end=0.01, step=1e-3)
        assert tr.termination == Termination("boundary_exit", time=0.004, index=None)

    def test_constant_drain(self):
        push = FitnessLandscape.custom(lambda x: np.array([-1.0, 1.0, 0.0]), name="push")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate(Constant(1.0), push, [0.1, 0.4, 0.5], t_end=10.0, step=1e-3)
        assert tr.termination.kind == "boundary_exit" and tr.termination.index == 0

    def test_exponential_drain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate(Exponential(), DRAIN, [0.05, 0.45, 0.5], t_end=10.0, step=1e-3)
        assert tr.termination == Termination("boundary_exit", time=0.026000000000000002, index=0)

    def test_power_minus_one_at_a_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                integrate(Power(-1.0), RSP, [0.5, 0.5, 0.0], t_end=1.0, step=0.01)
        assert err.value.index == 2

    def test_overflowing_step_ends_the_run(self):
        # the RK4 sum of the first step's stages overflows: a non-finite state ends the run
        land = FitnessLandscape.custom(lambda x: np.array([1e308, -1e308, 0.0]), name="huge")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate(Constant(1.0), land, [0.4, 0.3, 0.3], t_end=1.0, step=1e-3)
        assert tr.termination == Termination("step_failure", time=0.001)
        assert tr.states.tolist() == [[0.4, 0.3, 0.3]]

    def test_mixed_infinite_fitness_ends_the_run(self):
        land = _failing_at_one_state([np.inf, -np.inf, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate(Identity(), land, [0.5, 0.3, 0.2], t_end=0.01, step=1e-3)
        assert tr.termination == Termination("boundary_exit", time=0.004, index=None)


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

    @pytest.mark.parametrize("phi, step", [(Identity(), 0.1), (Power(0.5), 0.05)])
    def test_reconstructed_states_are_recorded_despite_their_drift(self, phi, step):
        # the sum of exp_phi(v - G) drifts from 1 by about 1e-9 here, more than
        # a SimplexPoint allows; the run must record it, not reject it
        tr = integrate_formal_solution(phi, RSP, [0.5, 0.3, 0.2], t_end=50.0, step=step,
                                       observe_every=10)
        assert tr.termination.ok
        assert len(tr) == round(50.0 / step) // 10 + 1
        assert np.max(np.abs(tr.states.sum(axis=1) - 1.0)) > 1e-9
        for x, m in zip(tr.states, tr.mean_fitness):
            w = phi.weights(x)
            assert m == w @ RSP(x) / w.sum()

    @pytest.mark.parametrize("observe_every", [1, 3])
    def test_evaluates_the_landscape_4_steps_plus_1_times(self, observe_every):
        calls = []

        def counted(x):
            calls.append(1)
            return RSP(x)

        land = FitnessLandscape.custom(counted, name="counted rsp")
        tr = integrate_formal_solution(Power(2.0), land, [0.5, 0.3, 0.2], t_end=0.1, step=1e-2,
                                       observe_every=observe_every)
        assert len(calls) == 4 * 10 + 1
        for x, m in zip(tr.states, tr.mean_fitness):
            w = Power(2.0).weights(x)
            assert m == w @ RSP(x) / w.sum()

    def test_non_finite_landscape_raises_where_integrate_ends_the_run(self):
        land = FitnessLandscape.custom(
            lambda x: RSP(x) if x[0] >= 0.45 else np.full(3, np.inf), name="rsp, inf below x_1 = 0.45"
        )
        with pytest.raises(DomainError):
            integrate_formal_solution(Identity(), land, X0_CYCLE, t_end=5.0, step=1e-3)
        tr = integrate(Identity(), land, X0_CYCLE, t_end=5.0, step=1e-3)
        assert tr.termination == Termination("boundary_exit", time=2.229, index=None)

    def test_range_error_when_flow_crosses_boundary(self):
        from escortdyn import RangeError

        push = FitnessLandscape.custom(lambda x: np.array([-20.0, 20.0, 0.0]), name="push")
        with pytest.raises(RangeError) as err:
            integrate_formal_solution(Constant(1.0), push, [0.1, 0.4, 0.5], t_end=5.0, step=1e-3)
        assert err.value.index == 0  # the drained coordinate leaves the range of exp_phi


class TestRK4Order:
    """Global error against an independent high-order solution: halving the
    step of classical RK4 divides the error by about 2^4 = 16, and at step
    1e-3 both integrators agree with it to 1e-11."""

    FAMILIES = [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(3.0), Constant(1.0), Exponential()]
    TIMES = np.linspace(0.0, 2.0, 21)

    def dop853(self, phi):
        """The RSP flow from X0_CYCLE at TIMES by scipy's DOP853."""
        integrate_ivp = pytest.importorskip("scipy.integrate")
        A = rsp_matrix()

        def rhs(t, x):
            w = phi.weights(x)
            fx = A @ x
            return w * (fx - w @ fx / w.sum())

        return integrate_ivp.solve_ivp(
            rhs, (0.0, 2.0), X0_CYCLE, method="DOP853", t_eval=self.TIMES, rtol=1e-13, atol=1e-15
        ).y.T

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_halving_the_step_cuts_the_error_16_fold(self, phi):
        ref = self.dop853(phi)
        errors = []
        for h, every in ((0.1, 1), (0.05, 2)):  # samples on the same 21 times
            tr = integrate(phi, RSP, X0_CYCLE, t_end=2.0, step=h, observe_every=every)
            np.testing.assert_allclose(tr.times, self.TIMES, rtol=0.0, atol=1e-12)
            errors.append(np.max(np.abs(tr.states - ref)))
        assert 14.0 <= errors[0] / errors[1] <= 18.0

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_both_integrators_match_dop853_at_a_small_step(self, phi):
        ref = self.dop853(phi)
        for run in (integrate, integrate_formal_solution):
            tr = run(phi, RSP, X0_CYCLE, t_end=2.0, step=1e-3, observe_every=100)
            np.testing.assert_allclose(tr.times, self.TIMES, rtol=0.0, atol=1e-12)
            assert np.max(np.abs(tr.states - ref)) <= 1e-11, run.__name__


class TestBoundaryExits:
    """Where the flow leaves the simplex, against scipy's event location."""

    @pytest.mark.parametrize("phi", [Constant(1.0), Exponential()])
    def test_exit_time_is_within_one_step_of_the_event(self, phi):
        integrate_ivp = pytest.importorskip("scipy.integrate")
        push = np.array([-20.0, 20.0, 0.0])
        x0 = [0.1, 0.4, 0.5]

        def rhs(t, x):
            w = phi.weights(x)
            return w * (push - w @ push / w.sum())

        def drained(t, x):
            return x[0]

        drained.terminal = True
        drained.direction = -1
        (event,) = integrate_ivp.solve_ivp(
            rhs, (0.0, 1.0), x0, method="DOP853", events=drained, rtol=1e-13, atol=1e-15
        ).t_events[0]
        land = FitnessLandscape.custom(lambda x: push.copy(), name="push")
        tr = integrate(phi, land, x0, t_end=1.0, step=1e-3)
        assert tr.termination.kind == "boundary_exit" and tr.termination.index == 0
        assert abs(tr.termination.time - event) <= 1e-3

    @pytest.mark.parametrize("landscape", ["rsp", "neg_identity"])
    @pytest.mark.parametrize("phi", [Identity(), Scaled(2.0), Power(0.5), Power(2.0)])
    def test_escorts_with_phi_0_zero_keep_the_interior(self, phi, landscape):
        # phi(0) = 0 makes the simplex forward-invariant: no run may leave it
        tr = integrate(phi, builtin_landscape(landscape), X0_CYCLE, t_end=20.0, step=1e-2)
        assert tr.termination.ok
        assert np.all(tr.states > 0.0)


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

    # a 3x3 matrix in each form; Power(2) is also the escort of the flow, so the
    # escort form takes the field's shared-weights path in vector_field and integrate
    MISSIZED = {
        "linear": FitnessLandscape.matrix_linear(rsp_matrix()),
        "escort": FitnessLandscape.matrix_escort(rsp_matrix(), Power(2.0)),
        "escort_log": FitnessLandscape.matrix_escort_log(rsp_matrix(), Power(2.0)),
    }
    ENTRY_POINTS = {
        "call": lambda phi, f, x: f(x),
        "evaluate": lambda phi, f, x: f.evaluate(x),
        "vector_field": vector_field,
        "integrate": lambda phi, f, x: integrate(phi, f, x, t_end=0.01, step=1e-3),
        "formal_solution": lambda phi, f, x: integrate_formal_solution(phi, f, x, t_end=0.01, step=1e-3),
        "discrete_step": discrete_step,
    }

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("form", MISSIZED)
    def test_matrix_of_another_size_raises_dimension_error(self, form, entry, n):
        with pytest.raises(DimensionError):
            self.ENTRY_POINTS[entry](Power(2.0), self.MISSIZED[form], barycenter(n).coords)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(Exception):
            FitnessLandscape.matrix_linear(np.ones((2, 3)))
