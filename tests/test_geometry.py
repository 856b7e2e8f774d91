import math

import numpy as np
import pytest

from escortdyn import (
    Constant,
    Custom,
    DimensionError,
    DivergenceInfinite,
    DomainError,
    Exponential,
    Identity,
    Power,
    Scaled,
    SimplexPoint,
    escort_divergence,
    escort_metric,
    geodesic_distance_identity,
    sphere_coordinate,
)
from escortdyn.simplex import simplex_samples
from escortdyn.geometry import _quadrature_terms, divergence_profile

BARYCENTER = [1.0 / 3.0] * 3
FACE = [0.5, 0.5, 0.0]
NONDECREASING = [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(3.0), Constant(1.0), Exponential()]


class TestEscortMetric:
    def test_identity_shahshahani(self):
        m = escort_metric(Identity(), SimplexPoint([0.5, 0.5]))
        np.testing.assert_allclose(m, [2.0, 2.0])
        assert not m.flags.writeable

    def test_constant_euclidean(self):
        m = escort_metric(Constant(1.0), SimplexPoint([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(m, [1.0, 1.0, 1.0])

    def test_power_two_hand_values(self):
        m = escort_metric(Power(2.0), SimplexPoint([0.5, 0.25, 0.25]))
        np.testing.assert_allclose(m, [4.0, 16.0, 16.0])

    def test_requires_interior(self):
        with pytest.raises(DomainError):
            escort_metric(Identity(), SimplexPoint([1.0, 0.0]))

    def test_positive_definite_enforced(self):
        # x**-2 overflows at x = 1e-200: the metric entry 1/phi would be 0
        with np.errstate(over="ignore"), pytest.raises(DomainError) as err:
            escort_metric(Power(-2.0), SimplexPoint([1e-200, 1.0 - 1e-200]))
        assert err.value.index == 0


class TestEscortDivergence:
    @pytest.mark.parametrize("phi", NONDECREASING)
    def test_zero_on_diagonal(self, phi):
        x = SimplexPoint([0.5, 0.3, 0.2])
        assert escort_divergence(phi, x, x) == 0.0

    def test_identity_is_kl(self):
        val = escort_divergence(Identity(), [0.5, 0.5], [0.25, 0.75])
        assert val == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-15)

    def test_constant_is_half_squared_distance(self):
        assert escort_divergence(Constant(1.0), [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_scaled_rescales_kl(self):
        x, y = [0.5, 0.5], [0.25, 0.75]
        kl = escort_divergence(Identity(), x, y)
        assert escort_divergence(Scaled(4.0), x, y) == pytest.approx(kl / 4.0, rel=1e-12)

    @pytest.mark.parametrize("phi", NONDECREASING)
    def test_nonnegative_and_identifies_points(self, phi):
        xs = simplex_samples(3, 1000, seed=8)
        ys = simplex_samples(3, 1000, seed=9)
        for x, y in zip(xs, ys):
            d = escort_divergence(phi, x, y)
            assert d >= 0.0
            if not np.allclose(x.coords, y.coords):
                assert d > 0.0

    def test_kl_closed_matches_nested_quadrature(self):
        xs = simplex_samples(3, 20, seed=12)
        ys = simplex_samples(3, 20, seed=13)
        for x, y in zip(xs, ys):
            closed = escort_divergence(Identity(), x, y)
            quad = _quadrature_terms(Identity(), x.coords, y.coords)
            assert abs(closed - quad) <= 1e-7

    @pytest.mark.parametrize("phi", [Power(0.5), Power(2.0), Exponential(), Constant(2.0)])
    def test_family_closed_forms_match_quadrature(self, phi):
        xs = simplex_samples(3, 5, seed=14)
        ys = simplex_samples(3, 5, seed=15)
        for x, y in zip(xs, ys):
            closed = escort_divergence(phi, x, y)
            quad = _quadrature_terms(phi, x.coords, y.coords)
            assert abs(closed - quad) <= 1e-7

    def test_custom_escort_uses_nested_quadrature(self):
        phi = Custom(lambda v: v + v * v, name="v+v^2")
        x, y = [0.5, 0.5], [0.25, 0.75]
        d = escort_divergence(phi, x, y)
        assert d > 0.0
        assert escort_divergence(phi, x, x) == 0.0

    @pytest.mark.parametrize(
        "fn,antiderivative,closed_log",
        [
            (
                lambda v: v + v * v,
                lambda u: u * math.log(2.0) + u * math.log(u) - (1.0 + u) * math.log1p(u),
                lambda u: math.log(2.0 * u / (1.0 + u)),
            ),
            (
                math.exp,
                lambda u: math.exp(-1.0) * u + math.exp(-u),
                lambda u: math.exp(-1.0) - math.exp(-u),
            ),
        ],
        ids=["v+v^2", "e^v"],
    )
    def test_custom_matches_scipy_and_closed_form(self, fn, antiderivative, closed_log):
        integrate = pytest.importorskip("scipy.integrate")
        phi = Custom(fn, name="oracle")
        xs = simplex_samples(3, 10, seed=40)
        ys = simplex_samples(3, 10, seed=41)
        for x, y in zip(xs, ys):
            got = escort_divergence(phi, x, y)
            closed = oracle = 0.0
            for a, b in zip(x.coords, y.coords):
                closed += antiderivative(a) - antiderivative(b) - (a - b) * closed_log(b)
                inner = lambda u: integrate.quad(lambda v: 1.0 / fn(v), b, u, epsabs=1e-13)[0]  # noqa: E731
                oracle += integrate.quad(inner, b, a, epsabs=1e-12)[0]
            assert abs(got - closed) <= 1e-7
            assert abs(got - oracle) <= 1e-7

    def test_custom_divergence_evaluation_count(self):
        count = [0]

        def fn(v):
            count[0] += 1
            return v + v * v

        phi = Custom(fn, name="counted")
        pairs = list(zip(simplex_samples(3, 50, seed=42), simplex_samples(3, 50, seed=43)))
        count[0] = 0
        for x, y in pairs:
            escort_divergence(phi, x, y)
        assert count[0] <= 50 * len(pairs)

    @pytest.mark.parametrize("phi", [Identity(), Power(2.0)])
    def test_hessian_recovers_metric(self, phi):
        x = np.array([0.5, 0.3, 0.2])
        diag = escort_metric(phi, SimplexPoint(x))
        h = 1e-4
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            d2 = (escort_divergence(phi, x, x + e) + escort_divergence(phi, x, x - e)) / h**2
            assert abs(d2 - diag[i]) / diag[i] <= 1e-4

    def test_kl_boundary_conventions(self):
        # 0 * ln 0 = 0 on the first argument
        val = escort_divergence(Identity(), [0.0, 1.0], [0.5, 0.5])
        assert val == pytest.approx(math.log(2.0), abs=1e-12)
        # mass on a coordinate the second argument lacks: infinite
        with pytest.raises(DivergenceInfinite):
            escort_divergence(Identity(), [0.5, 0.5], [1.0, 0.0])
        # the quadrature reference takes the limit at a zero coordinate
        val = _quadrature_terms(Identity(), np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    # phi(v) = 1 + v: L(u) = (1 + u) ln(1 + u) - (1 + u) - u ln 2, log_phi(u) = ln(1 + u) - ln 2
    @pytest.mark.parametrize("x, y, closed", [
        (BARYCENTER, FACE, 0.06948800151868523),
        (FACE, BARYCENTER, 0.06566703451736958),
    ])
    def test_custom_divergence_at_a_zero_coordinate(self, x, y, closed):
        got = escort_divergence(Custom(lambda v: 1.0 + v, name="1+v"), x, y)
        assert got == pytest.approx(closed, abs=1e-12)

    # 1/phi is not integrable at 0 for v and v + v^2, so the term at y_i = 0 is +inf;
    # for sqrt(v) it is: B(a, b) = (4/3) a^(3/2) + (2/3) b^(3/2) - 2 a sqrt(b),
    # which is (4/3) a^(3/2) at b = 0
    @pytest.mark.parametrize("phi, expected", [
        (Identity(), math.inf),
        (Custom(lambda v: v + v * v, name="v+v^2"), math.inf),
        (Custom(math.sqrt, name="sqrt"),
         sum(4 / 3 * a**1.5 + 2 / 3 * b**1.5 - 2 * a * math.sqrt(b) for a, b in [(0.5, 1.0), (0.5, 0.0)])),
    ])
    def test_quadrature_against_a_zero_coordinate(self, phi, expected):
        x, y = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        assert _quadrature_terms(phi, x, y) == pytest.approx(expected, abs=1e-10)
        if math.isinf(expected):
            with pytest.raises(DivergenceInfinite):
                escort_divergence(phi, x, y)
        else:
            assert escort_divergence(phi, x, y) == pytest.approx(expected, abs=1e-10)

    def test_power_above_one_infinite_at_boundary(self):
        with pytest.raises(DivergenceInfinite):
            escort_divergence(Power(2.0), [0.5, 0.5], [1.0, 0.0])

    def test_power_below_one_finite_at_boundary(self):
        d = escort_divergence(Power(0.5), [0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(d) and d > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            escort_divergence(Identity(), [0.5, 0.5], [0.5, 0.25, 0.25])


class TestShapes:
    BARYCENTER = [1 / 3, 1 / 3, 1 / 3]

    @pytest.mark.parametrize("call, error", [
        (lambda x: escort_divergence(Identity(), np.full((2, 3), 1 / 3), x), DomainError),  # a 2-d x
        (lambda x: divergence_profile(Identity(), x, np.full((2, 2), 0.5)), DimensionError),
        (lambda x: geodesic_distance_identity([0.5, 0.5], x), DimensionError),
    ], ids=["escort_divergence", "divergence_profile", "geodesic_distance_identity"])
    def test_an_input_of_another_shape_raises(self, call, error):
        with pytest.raises(error):
            call(self.BARYCENTER)


class TestDivergenceProfile:
    @pytest.mark.parametrize("row", [[1.5, -0.5], [math.nan, 1.0], [math.inf, 0.0]])
    def test_rejects_what_escort_divergence_rejects(self, row):
        with pytest.raises(DomainError):
            escort_divergence(Identity(), [0.5, 0.5], row)
        with pytest.raises(DomainError):
            divergence_profile(Identity(), [0.5, 0.5], [[0.25, 0.75], row])

    @pytest.mark.parametrize("phi", NONDECREASING)
    def test_each_row_is_escort_divergence_bit_for_bit(self, phi):
        rng = np.random.default_rng(13)
        for n in (2, 3, 9, 64):
            for _ in range(5):
                x = rng.dirichlet(np.ones(n))
                x[rng.random(n) < 0.2] = 0.0
                ys = rng.dirichlet(np.ones(n), size=4)
                for y, d in zip(ys, divergence_profile(phi, x, ys)):
                    if math.isinf(d):
                        with pytest.raises(DivergenceInfinite):
                            escort_divergence(phi, x, y)
                    else:
                        assert escort_divergence(phi, x, y) == d


class TestSphereCoordinate:
    def test_identity_closed_form(self):
        out = sphere_coordinate(Identity(), SimplexPoint([0.25, 0.75]))
        np.testing.assert_allclose(out, [1.0, math.sqrt(3.0)], rtol=1e-15)

    def test_identity_image_on_radius_two_sphere(self):
        for x in simplex_samples(4, 25, seed=21):
            out = sphere_coordinate(Identity(), x)
            assert np.linalg.norm(out) == pytest.approx(2.0, abs=1e-12)

    def test_constant_is_affine(self):
        x = SimplexPoint([0.5, 0.3, 0.2])
        np.testing.assert_allclose(sphere_coordinate(Constant(1.0), x), x.coords)

    def test_power_two_anchored_at_one(self):
        out = sphere_coordinate(Power(2.0), SimplexPoint([0.5, 0.25, 0.25]))
        np.testing.assert_allclose(out, np.log([0.5, 0.25, 0.25]), rtol=1e-12)

    def test_custom_quadrature_matches_identity(self):
        phi = Custom(lambda v: v, name="v")
        x = SimplexPoint([0.5, 0.3, 0.2])
        got = sphere_coordinate(phi, x)
        expected = 2.0 * np.sqrt(x.coords) - 2.0  # same map anchored at 1
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_requires_interior(self):
        with pytest.raises(DomainError):
            sphere_coordinate(Identity(), SimplexPoint([1.0, 0.0]))

    @pytest.mark.parametrize(
        "phi",
        [Identity(), Scaled(2.0), Power(0.5), Power(2.0), Power(3.0), Constant(2.0), Exponential(),
         Custom(lambda v: v + v * v, name="v+v^2")],
        ids=repr,
    )
    def test_pullback_of_euclidean_metric_is_escort_metric(self, phi):
        # the chart s_i = S(x_i) with S' = 1/sqrt(phi) pulls the Euclidean metric
        # back to diag(1/phi(x_i)): the escort generalization of Shahshahani's
        # sphere picture (Shahshahani, 1979)
        x = np.array([0.5, 0.3, 0.2])
        h = 1e-6
        slope = (phi.sphere_map(x + h) - phi.sphere_map(x - h)) / (2.0 * h)
        np.testing.assert_allclose(slope**2, escort_metric(phi, x), rtol=1e-7)

    def test_identity_geodesic_is_great_circle_of_chart(self):
        # the identity chart lands on the sphere of radius 2, where the
        # great-circle distance is 2 * arccos(s_p . s_q / 4)
        for p, q in zip(simplex_samples(4, 20, seed=40), simplex_samples(4, 20, seed=41)):
            s_p = sphere_coordinate(Identity(), p)
            s_q = sphere_coordinate(Identity(), q)
            expected = 2.0 * math.acos(float(s_p @ s_q) / 4.0)
            assert geodesic_distance_identity(p, q) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestGeodesicDistance:
    def test_zero_on_equal_points(self):
        p = SimplexPoint([0.5, 0.5])
        assert geodesic_distance_identity(p, p) == 0.0

    def test_opposite_vertices(self):
        assert geodesic_distance_identity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi)

    def test_symmetry_and_triangle_inequality(self):
        ps = simplex_samples(3, 60, seed=30)
        qs = simplex_samples(3, 60, seed=31)
        rs = simplex_samples(3, 60, seed=32)
        for p, q, r in zip(ps, qs, rs):
            dpq = geodesic_distance_identity(p, q)
            dqp = geodesic_distance_identity(q, p)
            assert abs(dpq - dqp) <= 1e-12
            assert dpq <= geodesic_distance_identity(p, r) + geodesic_distance_identity(r, q) + 1e-12

    def test_clamps_rounding(self):
        # sum of sqrt products can exceed 1 by ~1e-16 for equal points
        p = SimplexPoint([1 / 3, 1 / 3, 1 / 3])
        assert geodesic_distance_identity(p, p) == pytest.approx(0.0, abs=1e-7)
