"""Chart rows, lifts, prolongations and the canonical tensors."""

from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ksfield.bundles import (
    BundleError,
    DiffeoQ,
    Section,
    VectorFieldQ,
    complete_lift,
    cotangent_lift,
    cotangent_prolongation,
    point_rows,
    tangent_prolongation,
    tulczyjew_derivative,
)
from ksfield.coords import VarTable
from ksfield.expr import Num, Var, add, evaluate_batch, mul, parse, sub
from ksfield.forms import (
    OneForm,
    lie_derivative_one,
    pullback_one_form,
)
from ksfield.hamiltonian import (
    canonical_one_form,
    canonical_two_form,
    ham_kvector,
    hdw_residual,
    kvector_equation_residual,
)
from ksfield.lagrangian import (
    el_residual,
    legendre,
    legendre_jacobian,
    sopde_solve,
    velocity_hessian,
)
from ksfield.modelfile import load_model
from ksfield.sampling import sample_parameters, sample_points

from conftest import hamiltonian_model, lagrangian_model, prolong, rotation_field
from reference import evaluate, lie_derivative_two, max_abs


T12 = VarTable(1, 2)
T22 = VarTable(2, 2)


def values(field, rows):
    """The components of a vector field at the chart rows, shape (N, dim)."""
    return evaluate_batch(field.components, field.chart, rows)


class TestFirstProlongation:
    def test_product_rule(self):
        phi = (parse("t1*t2", T12.t_names),)
        ((q, v1, v2),) = prolong(T12, phi, (2.0, 3.0))
        assert q == 6.0
        assert v1 == 3.0 and v2 == 2.0

    def test_constant_map(self):
        w = prolong(T12, (Num(4.0),), (0.3, -0.7))
        assert np.all(w[:, T12.n:] == 0.0)

    def test_travelling_wave_jet(self):
        phi = (parse("sin(t1 - t2)", T12.t_names),)
        ((q, v1, v2),) = prolong(T12, phi, (0.0, 0.0))
        assert q == 0.0
        assert v1 == pytest.approx(1.0, abs=1e-15)
        assert v2 == pytest.approx(-1.0, abs=1e-15)
        # cross-check the jet against centered differences of the map itself
        h = 1e-6
        def phi_at(t1, t2):
            return evaluate(phi[0], {"t1": t1, "t2": t2})
        fd1 = (phi_at(h, 0.0) - phi_at(-h, 0.0)) / (2 * h)
        fd2 = (phi_at(0.0, h) - phi_at(0.0, -h)) / (2 * h)
        assert v1 == pytest.approx(fd1, abs=1e-9)
        assert v2 == pytest.approx(fd2, abs=1e-9)

    def test_rejects_q_dependence(self):
        with pytest.raises(BundleError):
            Section.prolongation(T12, (Var("q1"),))


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
        rows = np.random.default_rng(4).uniform(-1, 1, (5, T22.dim_total))
        lifted = values(complete_lift(Z), rows)
        # fiber part: v2_A d/dv1_A - v1_A d/dv2_A
        for A in range(2):
            assert np.array_equal(lifted[:, T22.fiber_slot(0, A)], rows[:, T22.fiber_slot(1, A)])
            assert np.array_equal(lifted[:, T22.fiber_slot(1, A)], -rows[:, T22.fiber_slot(0, A)])

    def test_flow_oracle(self):
        # RK4-integrate the lifted field and compare with the prolonged
        # closed-form rotation flow after s = 0.1.
        lifted = complete_lift(rotation_field(T22))

        def velocity(state):
            return values(lifted, state[None])[0]

        rng = np.random.default_rng(9)
        y = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4)])

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
            tuple(
                add(mul(Num(2.0), a), mul(Num(-3.0), b))
                for a, b in zip(Z1.components, Z2.components)
            ),
        )
        rows = rng.uniform(-1, 1, (5, T22.dim_total))
        rhs = 2.0 * values(complete_lift(Z1), rows) - 3.0 * values(complete_lift(Z2), rows)
        assert np.max(np.abs(values(complete_lift(combo), rows) - rhs)) < 1e-12


class TestCotangentLift:
    def test_constant_field(self):
        Z = VectorFieldQ(T22, (Num(1.0), Num(0.0)))
        lifted = cotangent_lift(Z)
        assert lifted.components[0] == Num(1.0)
        assert all(c == Num(0.0) for c in lifted.components[1:])

    def test_scaling_field(self):
        table = VarTable(1, 2)
        Z = VectorFieldQ(table, (Var("q1"),))
        rows = np.random.default_rng(3).uniform(-1, 1, (5, table.dim_total))
        lifted = values(cotangent_lift(Z), rows)
        assert np.array_equal(lifted[:, 0], rows[:, 0])
        for A in range(2):
            assert np.array_equal(lifted[:, table.fiber_slot(0, A)], -rows[:, table.fiber_slot(0, A)])

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
            rows = sample_points(T22, "hamiltonian", 100, seed=trial)
            for A in range(2):
                theta = canonical_one_form(T22, A)
                lie_theta = lie_derivative_one(Y, theta).coeffs
                residual = max_abs(evaluate_batch(lie_theta, theta.chart, rows))
                assert residual <= 1e-9
                omega = canonical_two_form(T22, A)
                lie = lie_derivative_two(Y, omega)
                residual2 = max_abs(evaluate_batch(tuple(lie.entries.values()), omega.chart, rows))
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
        for w in np.random.default_rng(8).uniform(-1, 1, (10, T22.dim_total)):
            (q1, q2), v = w[:2], dict(zip(T22.v_names, w[2:]))
            expected = v["v1_1"] * q1 + v["v1_2"] * q2 + v["v2_2"] * q1
            assert evaluate(out, T22.velocity_chart, w) == pytest.approx(expected, rel=1e-15)

    def test_rejects_velocity_dependence(self):
        with pytest.raises(BundleError):
            tulczyjew_derivative(T22, (Var("v1_1"), Num(0.0)))


class TestProlongedDiffeos:
    def test_linear_map_commutes_with_vertical_endomorphism(self):
        rng = np.random.default_rng(23)
        M = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        Minv = np.linalg.inv(M)
        fwd = tuple(
            add(mul(Var("q1"), Num(float(M[i, 0]))), mul(Var("q2"), Num(float(M[i, 1]))))
            for i in range(2)
        )
        inv = tuple(
            add(mul(Var("q1"), Num(float(Minv[i, 0]))), mul(Var("q2"), Num(float(Minv[i, 1]))))
            for i in range(2)
        )
        phi = DiffeoQ(T22, fwd, inv)
        phi.verify_inverse([rng.uniform(-1, 1, 2) for _ in range(5)])
        with pytest.raises(BundleError, match="matrix of chart rows"):
            phi.verify_inverse(np.zeros(4))  # a bare row, not two points of Q
        prolonged = tangent_prolongation(phi)
        rows = rng.uniform(-1, 1, (5, T22.dim_total))
        X = rng.uniform(-1, 1, (5, T22.dim_total))  # a tangent vector at each row
        J, images = prolonged.jacobians(rows), prolonged.images(rows)
        for A in range(2):
            # S^A moves the dq^i component to the v^i_A slot; the A-th
            # Liouville field is the A-th fiber block of the point itself
            S = np.zeros((T22.dim_total, T22.dim_total))
            block = np.zeros(T22.dim_total)
            for i in range(T22.n):
                S[T22.fiber_slot(i, A), i] = 1.0
                block[T22.fiber_slot(i, A)] = 1.0
            lhs = np.einsum("nij,jk,nk->ni", J, S, X)
            rhs = np.einsum("ij,njk,nk->ni", S, J, X)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            pushed = np.einsum("nij,nj->ni", J, rows * block)
            assert np.max(np.abs(pushed - images * block)) <= 1e-12

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
        points = sample_points(table, "hamiltonian", 25, seed=2)
        prolonged.verify_inverse(points[:5])
        for A in range(2):
            theta = canonical_one_form(table, A)
            pulled = pullback_one_form(chart, prolonged.components, theta)
            gap = OneForm(
                chart,
                tuple(map(sub, pulled.coeffs, theta.coeffs)),
            )
            assert max_abs(evaluate_batch(gap.coeffs, chart, points)) <= 1e-12


class TestPullbackByProlongation:
    def test_restriction_substitutes_jet(self):
        phi = (parse("t1*t2", T12.t_names),)
        e = parse("q1 + v1_1*v1_2", T12.velocity_chart)
        restricted = Section.prolongation(T12, phi).restrict(e)
        # q -> t1 t2, v1 -> t2, v2 -> t1
        assert evaluate(restricted, {"t1": 2.0, "t2": 5.0}) == 10.0 + 5.0 * 2.0


# (n, k, L, H) whose velocity Hessian varies from row to row
VARYING = [
    (1, 2, "(1 + q1^2)*v1_1^2/2 - v1_2^2/2", "(1 + q1^2)*p1_1^2/2 - p2_1^2/2 + q1*p2_1"),
    (
        2, 2, "(1 + q2^2)*(v1_1^2 + v2_1^2)/2 - (v1_2^2 + v2_2^2)/2 + q1*v2_1*v1_2",
        "(p1_1^2 + p1_2^2)/2 - (1 + q1^2)*(p2_1^2 + p2_2^2)/2 + q2*p1_1*p2_2",
    ),
    (
        3, 1, "(1 + q1^2)*v1_1^2/2 + (v2_1^2 + v3_1^2 + sin(q2)*v2_1*v3_1)/2 - q3^2/2",
        "(p1_1^2 + p1_2^2 + p1_3^2)/2 + cos(q1)*p1_3 + q2^2*q3",
    ),
]


def _row_models():
    for path in sorted((Path(__file__).resolve().parents[1] / "models").glob("*.yaml")):
        spec = load_model(path)
        yield pytest.param(spec.lagrangian, spec.hamiltonian, id=path.stem)
    for n, k, L, H in VARYING:
        yield pytest.param(
            lagrangian_model(n, k, L), hamiltonian_model(n, k, H), id=f"varying-n{n}-k{k}"
        )


class TestChartRows:
    ROWS = 200

    @pytest.mark.parametrize("L, H", list(_row_models()))
    def test_each_row_is_computed_on_its_own(self, L, H):
        # row r of every batched result has the bytes of the call on that row alone
        table = L.table
        n, k = table.n, table.k
        jets = sample_points(table, "lagrangian", self.ROWS, seed=1)
        cojets = sample_points(table, "hamiltonian", self.ROWS, seed=2)
        ts = sample_parameters(table, self.ROWS, seed=3)
        phi = tuple(parse(f"sin({i + 1}*t1 - t{k}) + t{k}^2/{i + 2}", table.t_names) for i in range(n))
        psi = Section(table, "hamiltonian", tuple(
            parse(f"cos({a + 1}*t1)*t{k} + t1^{a % 3}", table.t_names) for a in range(table.dim_total)
        ))
        cases = [
            (partial(velocity_hessian, L), jets),
            (partial(legendre, L), jets),
            (partial(legendre_jacobian, L), jets),
            (partial(el_residual, L, phi), ts),
            (partial(sopde_solve, L), jets),
            (partial(hdw_residual, H, psi), ts),
            (partial(ham_kvector, H), cojets),
            (partial(kvector_equation_residual, H), cojets, ham_kvector(H, cojets)),
        ]
        for fn, *stacks in cases:
            whole = fn(*stacks)
            whole = whole if isinstance(whole, tuple) else (whole,)  # the Hessian and its flags
            for r in range(self.ROWS):
                alone = fn(*(stack[r:r + 1] for stack in stacks))
                alone = alone if isinstance(alone, tuple) else (alone,)
                for got, want in zip(whole, alone):
                    assert got[r:r + 1].shape == want.shape, fn.func.__name__
                    assert got[r:r + 1].tobytes() == want.tobytes(), (fn.func.__name__, r)

        # one point is a (1, dim) matrix, never a bare row
        for bad, dim in ((jets[0], table.dim_total), (jets[:, 1:], table.dim_total), (ts, k + 1)):
            with pytest.raises(BundleError, match="matrix of chart rows"):
                point_rows(bad, dim)
        with pytest.raises(BundleError):
            velocity_hessian(L, jets[0])
