import math
import warnings

import numpy as np
import pytest

from escortdyn import (
    Constant,
    Custom,
    DimensionError,
    DomainError,
    Escort,
    Exponential,
    FitnessLandscape,
    Identity,
    Power,
    QuadratureError,
    RangeError,
    Scaled,
    SimplexPoint,
    escort_exp,
    escort_log,
    escort_mean_fitness,
    escort_variance,
    integrate,
    partition_function,
)
from escortdyn.geometry import divergence_profile
from escortdyn.numerics import gauss_kronrod, gauss_kronrod_log, invert_increasing

SCALAR_FAMILIES = [
    Identity(),
    Scaled(2.0),
    Power(0.5),
    Power(2.0),
    Power(3.0),
    Constant(1.0),
    Constant(0.5),
    Exponential(),
]


def custom_quadratic():
    return Custom(lambda v: v + v * v, name="v+v^2")


X = SimplexPoint([0.5, 0.25, 0.25])


class TestPartitionFunction:
    def test_identity_sums_to_one(self):
        assert partition_function(Identity(), X) == pytest.approx(1.0, abs=1e-15)

    def test_constant_counts_types(self):
        assert partition_function(Constant(1.0), X) == 3.0

    def test_power_two_hand_sum(self):
        # 1/4 + 1/16 + 1/16
        assert partition_function(Power(2.0), X) == pytest.approx(0.375, abs=1e-15)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_strictly_positive(self, phi):
        assert partition_function(phi, X) > 0.0

    def test_negative_power_rejects_boundary(self):
        with pytest.raises(DomainError):
            partition_function(Power(-1.0), SimplexPoint([0.5, 0.5, 0.0]))


def escort_mean(phi, x, f):
    """The escort expectation <f>_phi of a fixed fitness vector f at x."""
    return escort_mean_fitness(phi, FitnessLandscape.custom(lambda _: f), x)


class TestEscortExpectation:
    def test_identity_is_dot_product(self):
        f = np.array([1.0, -2.0, 0.5])
        assert escort_mean(Identity(), X, f) == pytest.approx(float(X.coords @ f), abs=1e-15)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_constant_vector_gives_the_constant(self, phi):
        f = np.full(3, 2.5)
        assert escort_mean(phi, X, f) == pytest.approx(2.5, abs=1e-12)

    def test_constant_escort_averages(self):
        f = np.array([0.0, 1.0, 2.0])
        assert escort_mean(Constant(1.0), X, f) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_within_bounds(self, phi):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.normal(size=3)
            m = escort_mean(phi, X, f)
            assert f.min() - 1e-12 <= m <= f.max() + 1e-12

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_affine_equivariance(self, phi):
        rng = np.random.default_rng(4)
        f = rng.normal(size=3)
        base = escort_mean(phi, X, f)
        for c in (-3.0, 0.1, 7.5):
            assert escort_mean(phi, X, f + c) == pytest.approx(base + c, abs=1e-12)


class TestEscortVariance:
    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_constant_vector_zero(self, phi):
        assert escort_variance(phi, X, np.full(3, 4.0)) == pytest.approx(0.0, abs=1e-15)

    def test_identity_bernoulli(self):
        v = escort_variance(Identity(), SimplexPoint([0.5, 0.5]), [0.0, 1.0])
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_constant_population_variance(self):
        v = escort_variance(Constant(1.0), X, [0.0, 1.0, 2.0])
        assert v == pytest.approx(2 / 3, abs=1e-15)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_nonnegative(self, phi):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert escort_variance(phi, X, rng.normal(size=3)) >= 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            escort_variance(Identity(), X, [1.0, 2.0])


class TestEscortLog:
    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    def test_zero_at_one(self, phi):
        assert escort_log(phi, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    def test_sign_and_monotonicity(self, phi):
        us = [0.1, 0.4, 0.9, 1.0, 1.5, 3.0]
        vals = [escort_log(phi, u) for u in us]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0 and vals[2] < 0 and abs(vals[3]) < 1e-12 and vals[4] > 0

    def test_power_two_closed_form(self):
        # 1 - 1/u at u = 2
        assert escort_log(Power(2.0), 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_identity_is_ln(self):
        for u in (0.2, 1.7, 4.1):
            assert escort_log(Identity(), u) == pytest.approx(math.log(u), abs=1e-15)

    def test_scaled_divides_ln(self):
        for u in (0.2, 1.7, 4.1):
            assert escort_log(Scaled(2.0), u) == pytest.approx(0.5 * math.log(u), abs=1e-15)

    def test_constant_form(self):
        assert escort_log(Constant(0.5), 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_exponential_form(self):
        for u in (0.3, 2.5):
            expected = math.exp(-1.0) - math.exp(-u)
            assert escort_log(Exponential(), u) == pytest.approx(expected, abs=1e-15)

    def test_custom_linear_matches_ln(self):
        phi = Custom(lambda v: v, name="v")
        assert escort_log(phi, math.e) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [0.0, 0.5, 2.0, 3.0])
    def test_closed_form_matches_quadrature(self, q):
        phi = Power(q)
        rng = np.random.default_rng(17)
        for u in rng.uniform(0.05, 5.0, 100):
            closed = escort_log(phi, float(u))
            quad = float(Escort._log(phi, np.array([u]))[0])
            assert abs(closed - quad) <= 1e-9

    def test_q_near_one_continuity(self):
        eps = 1e-6
        for u in np.linspace(0.1, 10.0, 25):
            assert abs(escort_log(Power(1 + eps), float(u)) - math.log(u)) <= 1e-5
            assert abs(escort_log(Power(1 - eps), float(u)) - math.log(u)) <= 1e-5

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_rejects_nonpositive(self, phi):
        with pytest.raises(DomainError):
            escort_log(phi, 0.0)
        with pytest.raises(DomainError):
            escort_log(phi, -1.0)


class TestEscortExp:
    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    def test_one_at_zero(self, phi):
        assert escort_exp(phi, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_identity_gives_e(self):
        assert escort_exp(Identity(), 1.0) == pytest.approx(math.e, abs=1e-15)

    def test_power_two_inverts(self):
        assert escort_exp(Power(2.0), 0.5) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    def test_roundtrip(self, phi):
        for u in np.linspace(0.05, 5.0, 34):
            back = escort_exp(phi, escort_log(phi, float(u)))
            assert abs(back - u) <= 1e-8

    @pytest.mark.parametrize(
        "phi,w",
        [
            (Power(2.0), 1.0),
            (Power(2.0), 1.5),
            (Power(0.5), -2.0),
            (Constant(1.0), -1.0),
            (Exponential(), math.exp(-1.0)),
            (Exponential(), 5.0),
            # log_phi = 1 - 1/u < 1: bracketing overflows v * v, a DomainError of phi
            (Custom(lambda v: v * v, name="v^2"), 1.5),
        ],
    )
    def test_range_error_outside_attainable_values(self, phi, w):
        with pytest.raises(RangeError):
            escort_exp(phi, w)

    def test_custom_unattainable_target(self):
        # phi = e^v: log_phi is bounded above by 1/e, quadrature path included
        phi = Custom(lambda v: math.exp(v), name="e^v")
        with pytest.raises(RangeError):
            escort_exp(phi, 0.95)

    def test_inversion_rejects_a_nan_target(self):
        # NaN compares false both ways, so without the check no bracket step runs
        with pytest.raises(RangeError):
            invert_increasing(math.log, lambda x: 1.0 / x, math.nan, 1e-10)


class TestGaussKronrod:
    def test_empty_interval_is_zero(self):
        calls = []
        assert gauss_kronrod(lambda v: calls.append(v) or np.ones_like(v), 0.7, 0.7) == 0.0
        assert calls == []

    def test_reversed_limits_flip_sign(self):
        forward = gauss_kronrod(np.exp, 0.0, 2.0)
        assert gauss_kronrod(np.exp, 2.0, 0.0) == -forward
        assert forward == pytest.approx(math.exp(2.0) - 1.0, abs=1e-13)

    def test_degree_13_polynomial_exact_in_one_panel(self):
        # G7 and K15 both integrate degree <= 13 exactly: one panel, no bisection
        coeffs = np.arange(1.0, 15.0)  # p(v) = sum_k (k + 1) v^k, k = 0..13
        panels = []

        def p(v):
            panels.append(v.size)
            return np.polyval(coeffs[::-1], v)

        a, b = -0.5, 1.5
        exact = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
        got = gauss_kronrod(p, a, b, tol=1e-12)
        assert panels == [15]
        assert got == pytest.approx(exact, rel=1e-14)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            gauss_kronrod(lambda v: np.where(v > 0.5, np.nan, v), 0.0, 1.0)

    def test_depth_exhaustion_raises(self):
        step = lambda v: np.where(v < 1.0 / 3.0, 0.0, 1.0)  # noqa: E731
        with pytest.raises(QuadratureError):
            gauss_kronrod(step, 0.0, 1.0, tol=1e-12)

    # a bound of 0 is a limit: finite where it converges, the signed infinity of a simple pole
    @pytest.mark.parametrize("f, a, b, expected", [
        (lambda v: v**-0.5, 0.0, 1.0, 2.0),
        (lambda v: v**-0.5, 1.0, 0.0, -2.0),
        (lambda v: 1.0 / (1.0 + v), 0.0, 1.0, math.log(2.0)),
        (lambda v: 1.0 / v, 0.0, 1.0, math.inf),
        (lambda v: 1.0 / v, 1.0, 0.0, -math.inf),
        (lambda v: -1.0 / (v + v * v), 0.0, 0.5, -math.inf),
    ])
    def test_log_form_limit_at_zero(self, f, a, b, expected):
        assert gauss_kronrod_log(f, a, b) == pytest.approx(expected, abs=1e-10)

    def test_log_form_without_a_limit_at_zero_raises(self):
        # v^-0.999 is integrable, but its tail below 1e-300 is still about 0.5
        with pytest.raises(QuadratureError, match="no limit at 0"):
            gauss_kronrod_log(lambda v: v**-0.999, 0.0, 1.0)


def counting_custom(fn):
    """A Custom escort of ``fn`` and a one-element list counting its calls
    after construction (the positivity screen is not counted)."""
    count = [0]

    def counted(v):
        count[0] += 1
        return fn(v)

    phi = Custom(counted, name="counted")
    count[0] = 0
    return phi, count


class TestCustomQuadrature:
    # (escort, closed log_phi, closed exp_phi)
    CASES = {
        "v+v^2": (
            lambda v: v + v * v,
            lambda u: math.log(2.0 * u / (1.0 + u)),
            lambda w: math.exp(w) / (2.0 - math.exp(w)),
        ),
        "e^v": (
            math.exp,
            lambda u: math.exp(-1.0) - math.exp(-u),
            lambda w: -math.log(math.exp(-1.0) - w),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_log_and_exp_match_scipy_and_closed_forms(self, name):
        integrate = pytest.importorskip("scipy.integrate")
        fn, closed_log, closed_exp = self.CASES[name]
        phi = Custom(fn, name=name)
        for u in np.linspace(0.05, 5.0, 23):
            u = float(u)
            got = escort_log(phi, u)
            oracle, _ = integrate.quad(lambda v: 1.0 / fn(v), 1.0, u, epsabs=1e-13, epsrel=1e-13)
            assert abs(got - oracle) <= 1e-9
            assert abs(got - closed_log(u)) <= 1e-9
            w = closed_log(u)
            assert abs(escort_exp(phi, w) - closed_exp(w)) <= 1e-8 * max(1.0, u)

    def test_log_reaches_the_pole_of_the_reciprocal(self):
        # 1/phi ~ 1/v near 0: in s = log v the integrand v/phi(v) is bounded
        # there, so each panel spans a ratio of v and 1e-300 is as near as 1e-6
        phi = Custom(lambda v: v + v * v, name="v+v^2")
        for u in (1e-6, 1e-9, 1e-12, 1e-15, 1e-100, 1e-300):
            assert abs(phi.log(u) - math.log(2.0 * u / (1.0 + u))) <= 1e-10

    # (phi, closed log_phi): log_phi bounded (v^2, v + v^2) and unbounded at infinity
    FAR_CASES = {
        "v^2": (lambda v: v * v, lambda u: 1.0 - 1.0 / u),
        "v+v^2": (lambda v: v + v * v, lambda u: math.log(2.0) - math.log1p(1.0 / u)),
        "sqrt(v)": (math.sqrt, lambda u: 2.0 * (math.sqrt(u) - 1.0)),
        "0.5": (lambda v: 0.5, lambda u: 2.0 * (u - 1.0)),
    }

    @pytest.mark.parametrize("name", sorted(FAR_CASES))
    def test_log_far_from_one_matches_the_closed_form(self, name):
        fn, closed_log = self.FAR_CASES[name]
        phi = Custom(fn, name=name)
        for u in (1e6, 1e14, 1e100):
            want = closed_log(u)
            assert abs(phi.log(u) - want) <= 1e-12 * max(1.0, abs(want))

    def test_log_and_exp_agree_where_log_phi_saturates(self):
        # log_phi = 1 - 1/u for phi = v^2: an integral in v from 1 would span
        # 1e15 and return about 0; exp inverts the same function that log computes
        phi = Custom(lambda v: v * v, name="v^2")
        w = phi.log(1e15)
        assert abs(w - (1.0 - 1e-15)) <= 1e-12
        assert abs(phi.log(phi.exp(w)) - w) <= 1e-10

    def test_log_evaluation_count(self):
        phi, count = counting_custom(lambda v: v + v * v)
        args = np.linspace(0.05, 5.0, 100)
        for u in args:
            escort_log(phi, float(u))
        assert count[0] <= 15 * args.size

    def test_exp_evaluation_count(self):
        phi, count = counting_custom(lambda v: v + v * v)
        ws = [math.log(2.0 * u / (1.0 + u)) for u in np.linspace(0.05, 5.0, 100)]
        for w in ws:
            escort_exp(phi, w)
        assert count[0] <= 100 * len(ws)

    @staticmethod
    def stratified_args(count, seed=0):
        """One uniform draw in each of ``count`` equal slices of [0.05, 5], shuffled."""
        rng = np.random.default_rng(seed)
        args = 0.05 + (5.0 - 0.05) * (np.arange(count) + rng.random(count)) / count
        rng.shuffle(args)
        return args

    def test_log_array_matches_scalar_log(self):
        phi = Custom(lambda v: v + v * v, name="v+v^2")
        args = np.append(self.stratified_args(60), [1.0, 1.0, 0.999, 1.001])
        assert np.any(args < 1.0) and np.any(args > 1.0)
        got = phi.log(args)
        assert got.tolist() == [phi.log(float(u)) for u in args]
        assert got[args == 1.0].tolist() == [0.0, 0.0]


class TestArrayArguments:
    """``log`` and ``exp`` take a float or a 1-d array through one algorithm
    per family (a closed form, or Custom's quadrature and inversion entry by
    entry), so an array call equals the float calls entry by entry."""

    ARGS = np.concatenate([np.linspace(0.01, 5.0, 997), [1.0, 0.1, 0.3, 1e-6, 42.0]])

    @pytest.mark.parametrize(
        "phi", SCALAR_FAMILIES + [Power(1 + 1e-12), Power(0.0), Power(-1.5), custom_quadratic()]
    )
    def test_log_of_array_equals_float_logs(self, phi):
        got = phi.log(self.ARGS)
        assert isinstance(got, np.ndarray) and got.shape == self.ARGS.shape
        want = [phi.log(float(u)) for u in self.ARGS]
        assert all(type(v) is float for v in want)
        assert got.tolist() == want
        if isinstance(phi, Custom):  # near the pole of 1/phi the panels meet the roundoff floor
            assert abs(phi.log(1e-6) - math.log(2e-6 / (1.0 + 1e-6))) <= 1e-10

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [Power(1 + 1e-12), Power(0.0), Power(-1.5)])
    def test_exp_of_array_equals_float_exps(self, phi):
        lo, hi = phi.log_range()
        ws = phi.log(self.ARGS)
        ws = ws[(lo < ws) & (ws < hi)]
        got = phi.exp(ws)
        assert isinstance(got, np.ndarray) and got.shape == ws.shape
        want = [phi.exp(float(w)) for w in ws]
        assert all(type(v) is float for v in want)
        assert got.tolist() == want

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_log_of_array_reports_the_bad_index(self, phi, bad):
        with pytest.raises(DomainError) as err:
            phi.log(np.array([0.5, 2.0, bad, 0.7]))
        assert err.value.index == 2
        with pytest.raises(DomainError) as err:
            phi.log(bad)
        assert err.value.index is None

    @pytest.mark.parametrize(
        "phi,w",
        [(Power(2.0), 1.0), (Power(0.5), -2.0), (Constant(1.0), -1.0), (Exponential(), 5.0),
         (Identity(), math.inf), (Scaled(2.0), math.nan), (Custom(math.exp, name="e^v"), 0.95)],
    )
    def test_exp_of_array_reports_the_bad_index(self, phi, w):
        with pytest.raises(RangeError) as err:
            phi.exp(np.array([0.0, 0.1, -0.1, w]))
        assert err.value.index == 3

    @pytest.mark.parametrize("method", ["weights", "log", "exp", "reciprocal"])
    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [Power(1 + 1e-12), Power(0.0), Power(-1.5)])
    def test_empty_array_gives_an_empty_array(self, phi, method):
        # the checks reduce to a scalar, and numpy's min/max reductions have no empty identity
        got = getattr(phi, method)(np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_custom_exp_of_array(self):
        phi = custom_quadratic()
        ws = np.array([-1.5, -0.2, 0.0, 0.3, 0.6])
        got = phi.exp(ws)
        assert got.tolist() == [phi.exp(float(w)) for w in ws]
        np.testing.assert_allclose(got, np.exp(ws) / (2.0 - np.exp(ws)), rtol=1e-9)


class TestBoundaryValues:
    """The closed forms are their own values at u = 0: log_range is _log at 0 and
    inf, the antiderivative takes its limit, and the divergence and integral of
    motion on a face come from them without a floating-point warning."""

    FAMILIES = [Identity(), Scaled(2.0), Constant(1.5), Exponential()] + [
        Power(q) for q in (-1.0, 0.0, 0.5, 1.0, 1 + 1e-12, 1.5, 1.75, 2.0, 2 + 1e-12, 3.0)
    ]

    @staticmethod
    def antiderivative_at_zero(phi):
        if isinstance(phi, Exponential):
            return 1.0
        if isinstance(phi, Power) and phi.q >= 2.0:
            return math.inf
        if isinstance(phi, Power) and phi.q > 1.5:  # anchored at 1 above q = 3/2
            return 1.0 / (2.0 - phi.q)
        return 0.0

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_closed_forms_at_zero(self, phi):
        with np.errstate(divide="ignore"):  # a pole at 0 is an infinite value, not an error
            assert phi.log_antiderivative(np.zeros(1)).tolist() == [self.antiderivative_at_zero(phi)]
            ends = phi._log(np.array([0.0, math.inf]))
        assert np.array(phi.log_range()).tobytes() == ends.tobytes()

    @pytest.mark.parametrize(
        "phi", [Identity(), Scaled(2.0), Constant(1.5), Exponential()] + [Power(q) for q in (0.5, 2.0, 2.5, 3.0)]
    )
    def test_antiderivative_of_a_float_is_that_of_a_one_element_array(self, phi):
        with np.errstate(divide="ignore"):  # as geometry._closed_terms calls it
            for u in (0.0, 0.3, 1.0, 2.0):
                assert float(phi.log_antiderivative(u)) == phi.log_antiderivative(np.array([u]))[0]

    @pytest.mark.parametrize("phi", FAMILIES)
    def test_face_diagnostics_emit_no_warning(self, phi):
        face = np.array([0.0, 0.4, 0.6])
        states = np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        x0 = [0.2, 0.3, 0.5] if phi.requires_positive else [0.5, 0.5, 0.0]
        zero = FitnessLandscape.custom(lambda x: np.zeros(len(x)), name="zero")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ref in (face, np.full(3, 1.0 / 3.0)):
                divergence_profile(phi, ref, states)
                tr = integrate(phi, zero, x0, t_end=0.01, step=1e-3, ref=ref)
                assert tr.termination.ok


class TestOverflow:
    """Values beyond float range are +-inf, the correctly rounded result, without a warning."""

    @pytest.mark.parametrize("phi, u, expected", [
        (Power(-1.5), 1e250, math.inf),  # (u^2.5 - 1) / 2.5
        (Scaled(2.2e-308), 1e300, math.inf),  # log(u) / beta
        (Power(3.0), 1e-300, -math.inf),  # (u^-2 - 1) / -2
    ])
    def test_log_beyond_float_range(self, phi, u, expected):
        assert phi.log(u) == expected

    def test_reciprocal_where_phi_underflows(self):
        # v^2 is 0 at 1e-300 and v * 1e-10 subnormal: 1/phi overflows at both
        assert Custom(lambda v: v * v, name="v^2").reciprocal(np.array([1e-300, 0.5])).tolist() == [math.inf, 4.0]
        assert Custom(lambda v: 1e-10 * v, name="tiny").reciprocal(np.array([1e-300])).tolist() == [math.inf]
        assert Power(2.0).reciprocal(np.array([0.5, 1e-300])).tolist() == [4.0, math.inf]

    def test_reciprocal_of_a_negative_phi_raises(self):
        phi = Custom(lambda v: v if v > 1e-200 else -1.0, name="negative near 0")
        with pytest.raises(DomainError) as err:
            phi.reciprocal(np.array([0.5, 1e-300]))
        assert err.value.index == 1

    def test_divergence_to_a_face_at_a_double_pole(self):
        phi = Custom(lambda v: v * v, name="v^2")
        face, center = np.array([0.5, 0.5, 0.0]), np.full(3, 1.0 / 3.0)
        assert divergence_profile(phi, center, face[None, :]).tolist() == [math.inf]
        assert divergence_profile(phi, face, center[None, :]).tolist() == [math.inf]


class TestWeights:
    """``weights`` is the one evaluation of phi: at a float or an array, with
    each family's domain check and the ``index`` of the entry that fails it."""

    @pytest.mark.parametrize(
        "phi", [Identity(), Scaled(2.0), Power(2.0), Power(0.5), Power(-1.5), custom_quadratic()]
    )
    def test_negative_entry_reports_the_most_negative(self, phi):
        with pytest.raises(DomainError) as err:
            phi.weights(np.array([0.5, -0.1, 0.3, -0.2]))
        assert err.value.index == 3
        with pytest.raises(DomainError) as err:
            phi.weights(-0.1)
        assert err.value.index is None

    @pytest.mark.parametrize("phi", [Power(0.0), Power(-1.5)])
    def test_nonpositive_q_rejects_the_first_zero(self, phi):
        with pytest.raises(DomainError) as err:
            phi.weights(np.array([0.5, 0.0, 0.5, 0.0]))
        assert err.value.index == 1
        with pytest.raises(DomainError) as err:
            phi.weights(0.0)
        assert err.value.index is None

    @pytest.mark.parametrize("phi", [Constant(2.0), Exponential()])
    def test_constant_and_exponential_take_negative_entries(self, phi):
        x = np.array([0.5, -0.1, -3.0])
        want = [2.0] * 3 if isinstance(phi, Constant) else np.exp(x).tolist()
        assert phi.weights(x).tolist() == want
        assert phi.weights(-3.0) == want[-1]

    def test_custom_reports_the_smallest_value(self):
        # positive and finite on the construction grid (0, 1) only
        phi = Custom(lambda v: 1.0 if v < 1.0 else 2.0 - v, name="falls past 2")
        with pytest.raises(DomainError) as err:
            phi.weights(np.array([0.5, 2.5, 3.0, 1.5]))
        assert err.value.index == 2
        with pytest.raises(DomainError) as err:
            phi.weights(3.0)
        assert err.value.index is None

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_custom_reports_a_non_finite_value(self, bad):
        phi = Custom(lambda v: bad if v > 1.0 else v, name="non-finite past 1")
        with pytest.raises(DomainError) as err:
            phi.weights(np.array([0.5, 0.25, 2.0, 0.75]))
        assert err.value.index == 2

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES + [custom_quadratic()])
    def test_float_equals_array_entry(self, phi):
        xs = np.array([1e-3, 0.25, 0.5, 1.0, 2.0])
        got = phi.weights(xs)
        assert got.shape == xs.shape
        assert [float(phi.weights(float(u))) for u in xs] == got.tolist()


class TestIdentityIsPowerOne:
    """The replicator escort phi(u) = u has one body: Power's at q = 1."""

    GRID = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-15, 0.5, 1.0, 2.0, 1e15, 1e300],
        np.random.default_rng(23).uniform(0.0, 1.0, 200),
        np.geomspace(1e-300, 1e300, 201),
    ])
    W = np.concatenate([[-math.inf, -745.0, -1.0, -0.0, 0.0, 1.0, 709.0, math.inf], np.linspace(-800.0, 800.0, 401)])

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_every_closed_form_is_power_one_bit_for_bit(self):
        identity, power = Identity(), Power(1.0)
        with np.errstate(divide="ignore", over="ignore"):
            for name, arg in [("weights", self.GRID), ("_log", self.GRID), ("_exp", self.W),
                              ("log_antiderivative", self.GRID), ("sphere_map", self.GRID)]:
                assert self.same_bits(getattr(identity, name)(arg), getattr(power, name)(arg)), name
        assert identity.log_range() == power.log_range()

    def test_weights_return_the_state_itself(self):
        x = np.array([0.5, 0.25, 0.25, 0.0])
        assert Identity().weights(x) is x
        assert Power(1.0).weights(x) is x

    def test_identity_keeps_its_repr_and_equality(self):
        assert repr(Identity()) == "Identity()"
        assert Identity() == Identity() and hash(Identity()) == hash(Identity())
        assert Identity() != Power(1.0) and Power(1.0) != Identity()
        assert not any(name in vars(Identity) for name in ("weights", "_log", "_exp", "log_antiderivative",
                                                           "sphere_map", "log_range"))
        with pytest.raises(TypeError):
            Identity(2.0)


class TestConstruction:
    def test_scaled_requires_positive_beta(self):
        with pytest.raises(DomainError):
            Scaled(0.0)
        with pytest.raises(DomainError):
            Scaled(-1.0)

    def test_constant_requires_positive_c(self):
        with pytest.raises(DomainError):
            Constant(0.0)

    def test_custom_positivity_screen(self):
        with pytest.raises(DomainError):
            Custom(lambda v: v - 0.5, name="bad")

    @pytest.mark.parametrize("phi", SCALAR_FAMILIES)
    def test_positive_on_unit_interval(self, phi):
        for u in np.linspace(1e-3, 1 - 1e-3, 1000):
            assert phi.weights(float(u)) > 0.0


class TestSimplexPoint:
    def test_records_interior(self):
        assert SimplexPoint([0.5, 0.5]).interior
        assert not SimplexPoint([1.0, 0.0]).interior

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            SimplexPoint([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            SimplexPoint([1.1, -0.1])

    def test_rejects_scalar_and_short(self):
        with pytest.raises(DomainError):
            SimplexPoint([1.0])

    def test_coords_frozen(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9
