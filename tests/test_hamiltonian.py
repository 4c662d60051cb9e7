"""Canonical forms, field-equation residuals and Hamiltonian k-vector fields."""

import numpy as np
import pytest

from ksfield import hamiltonian
from ksfield.bundles import BundleError, Section
from ksfield.coords import VarTable
from ksfield.expr import diff, evaluate_batch, parse
from ksfield.forms import d_one
from ksfield.hamiltonian import (
    canonical_one_form,
    canonical_two_form,
    canonical_two_form_matrix,
    ham_kvector,
    hdw_residual,
    kvector_equation_residual,
)
from ksfield.lagrangian import legendre_exprs
from ksfield.sampling import sample_points

from conftest import cojet, hamiltonian_model
from reference import evaluate


def section(table, psi_base, psi_momenta):
    return Section(table, "hamiltonian", psi_base + sum(psi_momenta, ()))


class TestCanonicalForms:
    def test_tautological_coefficients(self):
        table = VarTable(1, 2)
        w = cojet([0.4], [[3.0], [-1.0]])
        (theta,) = evaluate_batch(canonical_one_form(table, 0).coeffs, table.momentum_chart, w)
        (omega,) = canonical_two_form(table, 0).matrices(w)
        assert theta[0] == 3.0
        assert np.all(theta[1:] == 0.0)
        assert omega[0, table.fiber_slot(0, 0)] == 1.0

    def test_two_form_is_constant(self):
        table = VarTable(2, 2)
        rng = np.random.default_rng(0)
        m1, m2 = canonical_two_form(table, 1).matrices(rng.uniform(-1, 1, (2, table.dim_total)))
        assert np.array_equal(m1, m2)

    def test_exterior_derivative_relation(self):
        # d(theta^A) = -omega^A, computed symbolically
        table = VarTable(2, 2)
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, (1, table.dim_total))
        for A in range(2):
            d_theta = d_one(canonical_one_form(table, A))
            omega = canonical_two_form(table, A)
            assert np.max(np.abs(d_theta.matrices(w) + omega.matrices(w))) == 0.0


class TestHdwResidual:
    def test_saddle_solution(self):
        # H = (p1^2 + p2^2)/2; phi = t1 t2 is harmonic, so the lifted section
        # psi = (t1 t2, (t2, t1)) solves the field equations.
        model = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2")
        ts = model.table.t_names
        psi_base = (parse("t1*t2", ts),)
        psi_momenta = ((parse("t2", ts),), (parse("t1", ts),))
        psi = section(model.table, psi_base, psi_momenta)
        r = hdw_residual(model, psi, np.random.default_rng(2).uniform(-2, 2, (10, 2)))
        assert np.max(np.abs(r)) <= 1e-13

    def test_stationary_point(self):
        model = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2")
        ts = model.table.t_names
        psi_base = (parse("0", ts),)
        psi_momenta = ((parse("0", ts),), (parse("0", ts),))
        r = hdw_residual(model, section(model.table, psi_base, psi_momenta), [(0.1, 0.2)])
        assert np.max(np.abs(r)) == 0.0

    def test_parabola_first_block(self):
        model = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2")
        ts = model.table.t_names
        psi_base = (parse("t1^2", ts),)
        psi_momenta = ((parse("2*t1", ts),), (parse("0", ts),))
        (r,) = hdw_residual(model, section(model.table, psi_base, psi_momenta), [(0.7, -0.3)])
        assert r[0] == pytest.approx(2.0, abs=1e-14)
        assert r[1] == pytest.approx(0.0, abs=1e-14)


class TestHamKVector:
    def test_classical_limit(self):
        model = hamiltonian_model(2, 1, "(p1_1^2 + p1_2^2)/2 + q1^2/2 + q1*q2")
        table = model.table
        rng = np.random.default_rng(3)
        q, p = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (1, 2))
        ((leg,),) = ham_kvector(model, cojet(q, p))
        assert leg[0] == pytest.approx(p[0, 0], abs=0)
        assert leg[1] == pytest.approx(p[0, 1], abs=0)
        assert leg[2] == pytest.approx(-(q[0] + q[1]), abs=0)
        assert leg[3] == pytest.approx(-q[0], abs=0)

    def test_free_field_legs(self):
        model = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2")
        (legs,) = ham_kvector(model, cojet([0.0], [[1.0], [0.0]]))
        assert legs[0, 0] == 1.0
        assert legs[1, 0] == 0.0
        assert np.all(legs[:, 1:] == 0.0)

    def test_contraction_oracle(self):
        # Assemble sum_A i(X_A) omega^A as a covector and compare with dH.
        model = hamiltonian_model(2, 2, "(p1_1^2 - p2_2^2)/2 + q1^2*q2 + p1_2*p2_1")
        rows = sample_points(model.table, "hamiltonian", 100, seed=5)
        assert np.max(kvector_equation_residual(model, rows, ham_kvector(model, rows))) <= 1e-12

    def test_k1_matches_direct_symplectic_solve(self):
        model = hamiltonian_model(2, 1, "(p1_1^2 + p1_2^2)/2 + q1^4/4 + q2^2/2")
        table = model.table
        omega = canonical_two_form_matrix(table, 0)
        rows = sample_points(table, "hamiltonian", 50, seed=6)
        chart = table.momentum_chart
        for w, (leg,) in zip(rows, ham_kvector(model, rows)):
            grad = np.array([evaluate(diff(model.H, name), chart, w) for name in chart])
            direct = np.linalg.solve(omega.T, grad)
            assert np.max(np.abs(leg - direct)) <= 1e-12

    def test_residual_rejects_legs_of_other_rows(self):
        model = hamiltonian_model(1, 2, "(p1_1^2 - p2_1^2)/2 + q1^2")
        rows = sample_points(model.table, "hamiltonian", 5, seed=1)
        legs = ham_kvector(model, rows)
        assert np.max(kvector_equation_residual(model, rows, legs)) <= 1e-12
        with pytest.raises(BundleError, match=r"legs must have shape \(5, 2, 3\), got \(1, 2, 3\)"):
            kvector_equation_residual(model, rows, legs[:1])

    def test_residual_reuses_the_derivatives_of_the_field(self, monkeypatch):
        # kvector_equation_residual derives dH again; the node memo hands back
        # the very objects ham_kvector evaluated
        model = hamiltonian_model(2, 2, "(p1_1^2 - p2_2^2)/2 + q1^2*q2 + p1_2*p2_1")
        table, evaluated = model.table, []

        def recording(exprs, names, points):
            evaluated.append((tuple(exprs), tuple(names)))
            return real(exprs, names, points)

        real = hamiltonian.evaluate_batch
        monkeypatch.setattr(hamiltonian, "evaluate_batch", recording)
        samples = sample_points(table, "hamiltonian", 5, seed=1)
        kvector_equation_residual(model, samples, ham_kvector(model, samples))
        (field, names), (grad, chart) = evaluated
        assert names == chart == table.momentum_chart  # dH/dq, then dH/dp in chart order
        assert len(grad) == len(field) and all(g is f for g, f in zip(grad, field))


class TestLegendreLink:
    def test_lifted_solution_solves_hamiltonian_equations(self, wave_model):
        # psi = FL o phi^(1) for an EL solution phi, with H the closed-form
        # Legendre transform of the wave Lagrangian.
        table = wave_model.table
        model = hamiltonian_model(1, 2, "(p1_1^2 - p2_1^2)/2")
        phi = (parse("sin(t1 - t2)", table.t_names),)
        momenta_exprs = legendre_exprs(wave_model)
        prolonged = Section.prolongation(table, phi)
        psi_base = tuple(
            prolonged.restrict(parse(name, table.q_names))
            for name in table.q_names
        )
        psi_momenta = tuple(
            tuple(
                prolonged.restrict(momenta_exprs[A * table.n + i])
                for i in range(table.n)
            )
            for A in range(table.k)
        )
        psi = section(model.table, psi_base, psi_momenta)
        r = hdw_residual(model, psi, np.random.default_rng(7).uniform(-2, 2, (10, 2)))
        assert np.max(np.abs(r)) <= 1e-10
