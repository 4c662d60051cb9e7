"""Bundle points, lifts, prolongations and the canonical tensors."""

import numpy as np
import pytest

from ksfield.bundles import (
    BundleError,
    CoJetPoint,
    DiffeoQ,
    JetPoint,
    TangentVector,
    VectorFieldQ,
    complete_lift,
    cotangent_lift,
    cotangent_prolongation,
    first_prolongation,
    liouville_field,
    pullback_by_prolongation,
    sopde_check,
    tangent_prolongation,
    tulczyjew_derivative,
    vertical_endomorphism,
    vertical_lift,
)
from ksfield.coords import VarTable
from ksfield.expr import Num, Var, evaluate, parse
from ksfield.forms import (
    OneForm,
    lie_derivative_one,
    lie_derivative_two,
    max_abs,
    pullback_one_form,
)
from ksfield.hamiltonian import canonical_one_form, canonical_two_form
from ksfield.sampling import sample_cojet_points, sample_jet_points

from conftest import rotation_field


T12 = VarTable(1, 2)
T22 = VarTable(2, 2)


def jet(table, q, v):
    return JetPoint(table, np.asarray(q, float), np.asarray(v, float))


class TestFirstProlongation:
    def test_product_rule(self):
        phi = (parse("t1*t2", T12.t_names),)
        w = first_prolongation(T12, phi, (2.0, 3.0))
        assert w.q[0] == 6.0
        assert w.v[0, 0] == 3.0 and w.v[0, 1] == 2.0

    def test_constant_map(self):
        w = first_prolongation(T12, (Num(4.0),), (0.3, -0.7))
        assert np.all(w.v == 0.0)

    def test_travelling_wave_jet(self):
        phi = (parse("sin(t1 - t2)", T12.t_names),)
        w = first_prolongation(T12, phi, (0.0, 0.0))
        assert w.q[0] == 0.0
        assert w.v[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert w.v[0, 1] == pytest.approx(-1.0, abs=1e-15)
        # cross-check the jet against centered differences of the map itself
        h = 1e-6
        def phi_at(t1, t2):
            return evaluate(phi[0], {"t1": t1, "t2": t2})
        fd1 = (phi_at(h, 0.0) - phi_at(-h, 0.0)) / (2 * h)
        fd2 = (phi_at(0.0, h) - phi_at(0.0, -h)) / (2 * h)
        assert w.v[0, 0] == pytest.approx(fd1, abs=1e-9)
        assert w.v[0, 1] == pytest.approx(fd2, abs=1e-9)

    def test_rejects_q_dependence(self):
        with pytest.raises(BundleError):
            first_prolongation(T12, (Var("q1"),), (0.0, 0.0))


class TestVerticalLift:
    def test_unit_field_hits_one_slot(self):
        Z = VectorFieldQ(T22, (Num(1.0), Num(0.0)))
        w = jet(T22, [0.2, -0.4], [[0.5, 1.0], [2.0, -1.0]])
        lifted = vertical_lift(Z, 1, w)
        expected = np.zeros(T22.dim_total)
        expected[T22.fiber_slot(0, 1)] = 1.0
        assert np.array_equal(lifted.components, expected)

    def test_zero_field(self):
        Z = VectorFieldQ(T22, (Num(0.0), Num(0.0)))
        w = jet(T22, [1.0, 1.0], np.ones((2, 2)))
        assert np.all(vertical_lift(Z, 0, w).components == 0.0)

    def test_coefficient_substitution(self):
        Z = VectorFieldQ(T22, (Var("q2"), Num(0.0)))
        w = jet(T22, [1.0, 5.0], np.zeros((2, 2)))
        lifted = vertical_lift(Z, 0, w)
        assert lifted.components[T22.fiber_slot(0, 0)] == 5.0

    def test_index_out_of_range(self):
        Z = VectorFieldQ(T22, (Num(1.0), Num(0.0)))
        w = jet(T22, [0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(BundleError):
            vertical_lift(Z, 2, w)


class TestVerticalEndomorphism:
    def test_base_direction_moves_to_fiber(self):
        w = jet(T22, [0.0, 0.0], np.zeros((2, 2)))
        X = TangentVector(w, np.eye(T22.dim_total)[0])  # d/dq1
        out = vertical_endomorphism(1, X)
        expected = np.zeros(T22.dim_total)
        expected[T22.fiber_slot(0, 1)] = 1.0
        assert np.array_equal(out.components, expected)

    def test_vertical_input_annihilated(self):
        w = jet(T22, [0.0, 0.0], np.zeros((2, 2)))
        comps = np.zeros(T22.dim_total)
        comps[T22.n:] = np.arange(1.0, 5.0)
        out = vertical_endomorphism(0, TangentVector(w, comps))
        assert np.all(out.components == 0.0)

    def test_nilpotent(self):
        rng = np.random.default_rng(0)
        w = jet(T22, [0.1, 0.2], rng.uniform(-1, 1, (2, 2)))
        for _ in range(10):
            X = TangentVector(w, rng.uniform(-1, 1, T22.dim_total))
            for A in range(2):
                for B in range(2):
                    out = vertical_endomorphism(A, vertical_endomorphism(B, X))
                    assert np.all(out.components == 0.0)

    def test_matches_vertical_lift_of_insertion(self):
        rng = np.random.default_rng(1)
        Z = VectorFieldQ(T22, (parse("q1*q2", T22.q_names), parse("q2^2", T22.q_names)))
        for _ in range(5):
            w = jet(T22, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            values = Z.at(w.q)
            horizontal = np.zeros(T22.dim_total)
            horizontal[: T22.n] = values
            for A in range(2):
                via_s = vertical_endomorphism(A, TangentVector(w, horizontal))
                via_lift = vertical_lift(Z, A, w)
                assert np.array_equal(via_s.components, via_lift.components)


class TestLiouville:
    def test_components_copy_fiber_column(self):
        w = jet(VarTable(2, 2), [0.0, 0.0], [[2.0, 7.0], [-1.0, 3.0]])
        out = liouville_field(0, w)
        expected = np.zeros(w.table.dim_total)
        expected[w.table.fiber_slot(0, 0)] = 2.0
        expected[w.table.fiber_slot(1, 0)] = -1.0
        assert np.array_equal(out.components, expected)

    def test_zero_velocities(self):
        w = jet(T22, [1.0, 2.0], np.zeros((2, 2)))
        assert np.all(liouville_field(1, w).components == 0.0)

    def test_sum_generates_total_scaling(self):
        w = jet(T22, [0.5, -0.5], [[1.0, 2.0], [3.0, 4.0]])
        total = sum(liouville_field(A, w).components for A in range(2))
        assert np.array_equal(total[T22.n:], w.flat()[T22.n:])


class TestCompleteLift:
    def test_constant_field(self):
        Z = VectorFieldQ(T22, (Num(1.0), Num(0.0)))
        lifted = complete_lift(Z)
        assert lifted.components[0] == Num(1.0)
        assert all(
            c == Num(0.0) for c in lifted.components[1:]
        )

    def test_rotation_field_fiber_parts(self):
        Z = rotation_field(T22)
        lifted = complete_lift(Z)
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = jet(T22, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            env = w.env()
            values = lifted.at(env)
            # fiber part: v2_A d/dv1_A - v1_A d/dv2_A
            for A in range(2):
                assert values[T22.fiber_slot(0, A)] == pytest.approx(w.v[1, A], abs=0)
                assert values[T22.fiber_slot(1, A)] == pytest.approx(-w.v[0, A], abs=0)

    def test_flow_oracle(self):
        # RK4-integrate the lifted field and compare with the prolonged
        # closed-form rotation flow after s = 0.1.
        Z = rotation_field(T22)
        lifted = complete_lift(Z)
        chart = T22.velocity_chart
        rng = np.random.default_rng(9)
        y = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4)])

        def velocity(state):
            env = dict(zip(chart, state))
            return lifted.at(env)

        s, h = 0.0, 1e-3
        state = y.copy()
        while s < 0.1 - 1e-12:
            k1 = velocity(state)
            k2 = velocity(state + 0.5 * h * k1)
            k3 = velocity(state + 0.5 * h * k2)
            k4 = velocity(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        angle = 0.1
        R = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
        expected = np.concatenate([R @ y[:2], R @ y[2:4], R @ y[4:6]])
        assert np.max(np.abs(state - expected)) < 1e-6

    def test_linearity_in_field(self):
        rng = np.random.default_rng(14)
        Z1 = VectorFieldQ(T22, (parse("q1^2", T22.q_names), parse("q1*q2", T22.q_names)))
        Z2 = VectorFieldQ(T22, (parse("q2", T22.q_names), parse("q1", T22.q_names)))
        combo = VectorFieldQ(
            T22,
            tuple(2.0 * a + (-3.0) * b for a, b in zip(Z1.components, Z2.components)),
        )
        lhs = complete_lift(combo)
        for _ in range(5):
            w = jet(T22, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            env = w.env()
            rhs = 2.0 * complete_lift(Z1).at(env) - 3.0 * complete_lift(Z2).at(env)
            assert np.max(np.abs(lhs.at(env) - rhs)) < 1e-12


class TestCotangentLift:
    def test_constant_field(self):
        Z = VectorFieldQ(T22, (Num(1.0), Num(0.0)))
        lifted = cotangent_lift(Z)
        assert lifted.components[0] == Num(1.0)
        assert all(c == Num(0.0) for c in lifted.components[1:])

    def test_scaling_field(self):
        table = VarTable(1, 2)
        Z = VectorFieldQ(table, (Var("q1"),))
        lifted = cotangent_lift(Z)
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = CoJetPoint(table, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (2, 1)))
            values = lifted.at(w.env())
            assert values[0] == pytest.approx(w.q[0], abs=0)
            for A in range(2):
                assert values[table.fiber_slot(0, A)] == pytest.approx(-w.p[A, 0], abs=0)

    def test_canonical_one_form_invariance(self):
        # Lie derivative of each tautological one-form along any lifted field
        # vanishes (checked numerically at quasi-random points).
        rng = np.random.default_rng(21)
        for trial in range(3):
            comps = tuple(
                parse(src, T22.q_names)
                for src in _random_poly_sources(rng, n=2, count=2)
            )
            Z = VectorFieldQ(T22, comps)
            Y = cotangent_lift(Z)
            samples = sample_cojet_points(T22, 100, seed=trial)
            rows = np.array([w.flat() for w in samples])
            for A in range(2):
                theta = canonical_one_form(T22, A)
                residual = max_abs(lie_derivative_one(Y, theta).coeffs, theta.chart, rows)
                assert residual <= 1e-9
                omega = canonical_two_form(T22, A)
                lie = lie_derivative_two(Y, omega)
                residual2 = max_abs(tuple(lie.entries.values()), omega.chart, rows)
                assert residual2 <= 1e-9


def _random_poly_sources(rng, n, count, degree=3):
    """Random polynomial component sources over q1..qn."""
    out = []
    for _ in range(count):
        terms = ["{:.3f}".format(rng.uniform(-1, 1))]
        for _ in range(rng.integers(1, 4)):
            factors = ["{:.3f}".format(rng.uniform(-2, 2))]
            for _ in range(rng.integers(1, degree + 1)):
                factors.append(f"q{rng.integers(1, n + 1)}")
            terms.append("*".join(factors))
        out.append(" + ".join(terms))
    return out


class TestTulczyjew:
    def test_single_coordinate(self):
        table = VarTable(1, 2)
        g = (Var("q1"), Num(0.0))
        out = tulczyjew_derivative(table, g)
        assert out == Var("v1_1")

    def test_constant_map(self):
        out = tulczyjew_derivative(T22, (Num(3.0), Num(-1.0)))
        assert out == Num(0.0)

    def test_quadratic_components(self):
        g = (parse("q1^2/2", T22.q_names), parse("q1*q2", T22.q_names))
        out = tulczyjew_derivative(T22, g)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = jet(T22, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            env = w.env()
            expected = (
                w.v[0, 0] * w.q[0] + w.v[0, 1] * w.q[1] + w.v[1, 1] * w.q[0]
            )
            assert evaluate(out, env) == pytest.approx(expected, rel=1e-15)

    def test_rejects_velocity_dependence(self):
        with pytest.raises(BundleError):
            tulczyjew_derivative(T22, (Var("v1_1"), Num(0.0)))


class TestSopdeCheck:
    def test_second_order_legs_pass(self):
        rng = np.random.default_rng(17)
        samples = sample_jet_points(T22, 20, seed=1)

        def legs(w):
            out = []
            for A in range(2):
                comps = np.zeros(T22.dim_total)
                comps[: T22.n] = w.v[:, A]
                comps[T22.n:] = rng.uniform(-1, 1, 4)  # arbitrary vertical part
                out.append(TangentVector(w, comps))
            return out

        ok, residual = sopde_check(legs, samples)
        assert ok and residual <= 1e-10

    def test_zero_base_components_fail(self):
        w = jet(T12, [0.0], [[0.7, -0.3]])

        def legs(point):
            return [
                TangentVector(point, np.zeros(T12.dim_total)) for _ in range(2)
            ]

        ok, residual = sopde_check(legs, [w])
        assert not ok
        assert residual == pytest.approx(0.7, abs=0)


class TestProlongedDiffeos:
    def test_linear_map_commutes_with_vertical_endomorphism(self):
        rng = np.random.default_rng(23)
        M = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        Minv = np.linalg.inv(M)
        fwd = tuple(
            Var("q1") * M[i, 0] + Var("q2") * M[i, 1] for i in range(2)
        )
        inv = tuple(
            Var("q1") * Minv[i, 0] + Var("q2") * Minv[i, 1] for i in range(2)
        )
        phi = DiffeoQ(T22, fwd, inv)
        phi.verify_inverse([rng.uniform(-1, 1, 2) for _ in range(5)])
        prolonged = tangent_prolongation(phi)
        for _ in range(5):
            w = jet(T22, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            X = TangentVector(w, rng.uniform(-1, 1, T22.dim_total))
            for A in range(2):
                lhs = prolonged.pushforward(vertical_endomorphism(A, X))
                rhs = vertical_endomorphism(A, prolonged.pushforward(X))
                assert np.max(np.abs(lhs.components - rhs.components)) <= 1e-12
                image = prolonged.map_point(w)
                pushed = prolonged.pushforward(liouville_field(A, w))
                direct = liouville_field(A, image)
                assert np.max(np.abs(pushed.components - direct.components)) <= 1e-12

    def test_cotangent_prolongation_preserves_tautological_form(self):
        table = VarTable(2, 2)
        phi = DiffeoQ(
            table,
            (parse("2*q1 + q2", table.q_names), parse("q2", table.q_names)),
            (parse("(q1 - q2)/2", table.q_names), parse("q2", table.q_names)),
        )
        prolonged = cotangent_prolongation(phi)
        chart = table.momentum_chart
        rng = np.random.default_rng(31)
        points = sample_cojet_points(table, 25, seed=2)
        prolonged.verify_inverse(points[:5])
        for A in range(2):
            theta = canonical_one_form(table, A)
            pulled = pullback_one_form(chart, prolonged.components, theta)
            gap = OneForm(
                chart,
                tuple(a - b for a, b in zip(pulled.coeffs, theta.coeffs)),
            )
            assert max_abs(gap.coeffs, chart, np.array([w.flat() for w in points])) <= 1e-12


class TestPullbackByProlongation:
    def test_restriction_substitutes_jet(self):
        phi = (parse("t1*t2", T12.t_names),)
        e = parse("q1 + v1_1*v1_2", T12.velocity_chart)
        restricted = pullback_by_prolongation(T12, e, phi)
        # q -> t1 t2, v1 -> t2, v2 -> t1
        assert evaluate(restricted, {"t1": 2.0, "t2": 5.0}) == 10.0 + 5.0 * 2.0
