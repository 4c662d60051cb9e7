"""Lagrangian forms, energy, Legendre map and field-equation machinery."""

import numpy as np
import pytest

from ksfield.bundles import JetPoint, first_prolongation, sopde_check
from ksfield.expr import evaluate, parse
from ksfield.hamiltonian import canonical_two_form_matrix
from ksfield.lagrangian import (
    RegularityError,
    el_residual,
    energy,
    lagrangian_two_form_at,
    legendre,
    legendre_jacobian,
    poincare_cartan_form,
    sopde_solve,
    velocity_hessian,
)
from ksfield.sampling import sample_jet_points

from conftest import lagrangian_model


def jet(table, q, v):
    return JetPoint(table, np.asarray(q, float), np.asarray(v, float))


class TestPoincareCartanForm:
    def test_kinetic_form(self, rotational_model):
        table = rotational_model.table
        rng = np.random.default_rng(0)
        for A in range(table.k):
            theta = poincare_cartan_form(rotational_model, A)
            w = jet(table, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            values = theta.at(w.env())
            assert np.allclose(values[: table.n], w.v[:, A], atol=0)
            assert np.all(values[table.n:] == 0.0)

    def test_velocity_free_lagrangian(self):
        model = lagrangian_model(1, 2, "q1^2")
        for A in range(2):
            theta = poincare_cartan_form(model, A)
            assert all(c == parse("0", ()) for c in theta.coeffs)

    def test_wave_signature(self, wave_model):
        table = wave_model.table
        w = jet(table, [0.3], [[1.5, -0.5]])
        theta0 = poincare_cartan_form(wave_model, 0).at(w.env())
        theta1 = poincare_cartan_form(wave_model, 1).at(w.env())
        assert theta0[0] == 1.5
        assert theta1[0] == 0.5  # -v1_2 with v1_2 = -0.5


class TestTwoForm:
    def test_kinetic_entries(self, rotational_model):
        table = rotational_model.table
        w = jet(table, [0.1, 0.2], [[0.3, 0.4], [0.5, 0.6]])
        for A in range(2):
            M = lagrangian_two_form_at(rotational_model, A, w)
            for i in range(table.n):
                slot = table.fiber_slot(i, A)
                assert M[i, slot] == 1.0
            assert np.all(M[: table.n, : table.n] == 0.0)

    def test_antisymmetry_exact(self, kg_model):
        rng = np.random.default_rng(5)
        table = kg_model.table
        for _ in range(10):
            w = jet(table, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (1, 2)))
            for A in range(2):
                M = lagrangian_two_form_at(kg_model, A, w)
                assert np.all(M + M.T == 0.0)

    def test_total_derivative_lagrangian_gives_zero(self):
        # L = q*v is a closed-one-form term; both two-forms vanish identically.
        model = lagrangian_model(1, 1, "q1*v1_1")
        w = jet(model.table, [0.7], [[1.3]])
        M = lagrangian_two_form_at(model, 0, w)
        assert np.all(M == 0.0)


class TestEnergy:
    def test_quadratic_energy_equals_lagrangian(self, free_model):
        e = energy(free_model)
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = jet(free_model.table, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (1, 2)))
            env = w.env()
            assert evaluate(e, env) == pytest.approx(evaluate(free_model.L, env), abs=1e-15)

    def test_velocity_linear_energy_is_minus_potential(self):
        # L = alpha-hat + f(q): homogeneous degree-one part drops out of E.
        model = lagrangian_model(2, 2, "q2*v1_1 + q1*v2_2 + (q1^2 + q2)")
        e = energy(model)
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = jet(model.table, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            env = w.env()
            expected = -(w.q[0] ** 2 + w.q[1])
            assert abs(evaluate(e, env) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_wave_with_potential(self):
        model = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - (q1^4/4)")
        e = energy(model)
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = jet(model.table, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (1, 2)))
            expected = 0.5 * (w.v[0, 0] ** 2 - w.v[0, 1] ** 2) + w.q[0] ** 4 / 4
            assert evaluate(e, w.env()) == pytest.approx(expected, rel=1e-14, abs=1e-14)


class TestHessian:
    def test_identity_for_kinetic_term(self, rotational_model):
        w = jet(rotational_model.table, np.zeros(2), np.zeros((2, 2)))
        M, regular = velocity_hessian(rotational_model, w)
        assert regular
        assert np.array_equal(M, np.eye(4))

    def test_cross_term(self):
        model = lagrangian_model(1, 2, "v1_1*v1_2")
        w = jet(model.table, [0.0], [[0.0, 0.0]])
        M, regular = velocity_hessian(model, w)
        assert regular
        assert np.array_equal(M, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.linalg.det(M) == pytest.approx(-1.0, abs=0)

    def test_degenerate(self):
        model = lagrangian_model(1, 2, "v1_1")
        w = jet(model.table, [0.0], [[1.0, 1.0]])
        M, regular = velocity_hessian(model, w)
        assert not regular
        assert np.all(M == 0.0)


class TestLegendre:
    def test_kinetic_momenta(self, free_model):
        w = jet(free_model.table, [0.1], [[2.0, -3.0]])
        p = legendre(free_model, w)
        assert np.array_equal(p.p, np.array([[2.0], [-3.0]]))

    def test_wave_momenta(self, wave_model):
        w = jet(wave_model.table, [0.5], [[1.0, 2.0]])
        p = legendre(wave_model, w)
        assert p.p[0, 0] == 1.0
        assert p.p[1, 0] == -2.0

    @pytest.mark.parametrize(
        "fixture",
        ["free_model", "wave_model", "kg_model", "rotational_model", "gauge_shifted_model"],
    )
    def test_pullback_identity(self, fixture, request):
        # omega_L^A equals the fiber-derivative pullback of the canonical
        # two-form: J^T Omega^A J entrywise at sampled points.
        model = request.getfixturevalue(fixture)
        table = model.table
        samples = sample_jet_points(table, 100, seed=42)
        for w in samples:
            J = legendre_jacobian(model, w)
            for A in range(table.k):
                pulled = J.T @ canonical_two_form_matrix(table, A) @ J
                direct = lagrangian_two_form_at(model, A, w)
                assert np.max(np.abs(pulled - direct)) <= 1e-10

    def test_regularity_matches_jacobian(self, free_model):
        w = jet(free_model.table, [0.3], [[0.1, 0.2]])
        M, regular = velocity_hessian(free_model, w)
        J = legendre_jacobian(free_model, w)
        # block-triangular: the two determinants agree
        assert np.linalg.det(J) == pytest.approx(np.linalg.det(M), rel=1e-8)
        assert regular == (abs(np.linalg.det(J)) > 1e-10)

    def test_singular_case_consistent(self):
        model = lagrangian_model(1, 2, "v1_1")
        w = jet(model.table, [0.0], [[1.0, 0.0]])
        _, regular = velocity_hessian(model, w)
        J = legendre_jacobian(model, w)
        assert not regular
        assert abs(np.linalg.det(J)) <= 1e-12


class TestEulerLagrangeResidual:
    def test_dalembert_solution(self, wave_model):
        phi = (parse("sin(t1 - t2)", wave_model.table.t_names),)
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = rng.uniform(-2, 2, 2)
            r = el_residual(wave_model, phi, t)
            assert np.max(np.abs(r)) <= 1e-12

    def test_linear_field_is_harmonic(self, free_model):
        phi = (parse("t1 + t2", free_model.table.t_names),)
        r = el_residual(free_model, phi, (0.4, -1.2))
        assert np.max(np.abs(r)) == 0.0

    def test_batched_rows_match_single_calls(self, kg_model):
        table = kg_model.table
        phi = (parse("sin(t1 - t2)*exp(t1/3) + t2^2", table.t_names),)
        ts = np.random.default_rng(17).uniform(-2, 2, (40, 2))
        batched = el_residual(kg_model, phi, ts)
        stacked = np.array([el_residual(kg_model, phi, t) for t in ts])
        assert batched.shape == stacked.shape == (40, 1)
        assert np.all(np.abs(batched - stacked) <= 1e-12 * np.maximum(1.0, np.abs(stacked)))

    def test_parabola_misses_by_two(self, free_model):
        phi = (parse("t1^2", free_model.table.t_names),)
        r = el_residual(free_model, phi, (0.3, 0.9))
        assert r[0] == pytest.approx(2.0, abs=1e-14)


class TestGeneralBaseDimension:
    def test_k3_residual_mode(self):
        # time stepping is k <= 2, but residual verification runs at any k
        model = lagrangian_model(1, 3, "(v1_1^2 + v1_2^2 + v1_3^2)/2")
        table = model.table
        phi = (parse("t1*t2 + t2*t3", table.t_names),)  # harmonic in R^3
        rng = np.random.default_rng(23)
        for _ in range(5):
            r = el_residual(model, phi, rng.uniform(-1, 1, 3))
            assert np.max(np.abs(r)) == 0.0
        bad = (parse("t1^2", table.t_names),)
        assert el_residual(model, bad, (0.1, 0.2, 0.3))[0] == pytest.approx(2.0, abs=1e-14)

    def test_k3_sopde_solve(self):
        model = lagrangian_model(2, 3, three_copy_kinetic(2, 3))
        samples = sample_jet_points(model.table, 20, seed=5)
        ok, residual = sopde_check(lambda w: sopde_solve(model, w), samples)
        assert ok and residual <= 1e-10


def three_copy_kinetic(n, k):
    terms = [f"v{i}_{A}^2" for i in range(1, n + 1) for A in range(1, k + 1)]
    return "(" + " + ".join(terms) + ")/2"


class TestSopdeSolve:
    def test_kinetic_vertical_part_vanishes(self, free_model):
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = jet(free_model.table, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (1, 2)))
            legs = sopde_solve(free_model, w)
            for A, leg in enumerate(legs):
                assert leg.components[0] == w.v[0, A]
                assert np.max(np.abs(leg.components[1:])) == 0.0

    def test_classical_limit(self, oscillator_model):
        w = jet(oscillator_model.table, [0.8], [[0.5]])
        (leg,) = sopde_solve(oscillator_model, w)
        assert leg.components[0] == 0.5
        assert leg.components[1] == pytest.approx(-0.8, abs=1e-14)

    def test_passes_second_order_check(self, kg_model):
        samples = sample_jet_points(kg_model.table, 100, seed=3)
        ok, residual = sopde_check(lambda w: sopde_solve(kg_model, w), samples)
        assert ok and residual <= 1e-10

    def test_singular_hessian_rejected(self):
        model = lagrangian_model(1, 2, "v1_1")
        w = jet(model.table, [0.0], [[1.0, 0.0]])
        with pytest.raises(RegularityError):
            sopde_solve(model, w)

    def test_symmetric_coefficients(self):
        model = lagrangian_model(2, 2, "(v1_1^2 - v1_2^2 + v2_1^2 - v2_2^2)/2 - q1^2*q2")
        rng = np.random.default_rng(13)
        table = model.table
        for _ in range(5):
            w = jet(table, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
            legs = sopde_solve(model, w)
            for A in range(table.k):
                for B in range(table.k):
                    for j in range(table.n):
                        lhs = legs[A].components[table.fiber_slot(j, B)]
                        rhs = legs[B].components[table.fiber_slot(j, A)]
                        assert lhs == rhs  # enforced exactly

    def test_residual_contraction_identity(self, kg_model):
        # el_residual equals the Hessian contraction of (second derivatives
        # of phi minus the constructed vertical coefficients).
        table = kg_model.table
        phi = (parse("sin(t1)*cos(2*t2)", table.t_names),)
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = rng.uniform(-1, 1, 2)
            w = first_prolongation(table, phi, t)
            legs = sopde_solve(kg_model, w)
            H, _ = velocity_hessian(kg_model, w)
            env = dict(zip(table.t_names, t))
            from ksfield.expr import diff

            contraction = 0.0
            for A in range(2):
                for B in range(2):
                    second = evaluate(diff(diff(phi[0], table.t(A)), table.t(B)), env)
                    gamma = legs[A].components[table.fiber_slot(0, B)]
                    contraction += H[A, B] * (second - gamma)
            r = el_residual(kg_model, phi, t)
            assert r[0] == pytest.approx(contraction, abs=1e-9)

    def test_k1_equivalence_is_pointwise(self, oscillator_model):
        # at k=1 the Hessian is invertible: residual zero iff the second
        # derivative equals the constructed coefficient.
        table = oscillator_model.table
        solution = (parse("cos(t1)", table.t_names),)
        non_solution = (parse("t1^2", table.t_names),)
        from ksfield.expr import diff

        for phi, solves in ((solution, True), (non_solution, False)):
            t = (0.37,)
            w = first_prolongation(table, phi, t)
            (leg,) = sopde_solve(oscillator_model, w)
            env = {"t1": t[0]}
            second = evaluate(diff(diff(phi[0], "t1"), "t1"), env)
            matches = abs(second - leg.components[1]) <= 1e-12
            residual_zero = np.max(np.abs(el_residual(oscillator_model, phi, t))) <= 1e-12
            assert matches == solves == residual_zero
