"""Lagrangian forms, energy, Legendre map and field-equation machinery."""

from pathlib import Path

import numpy as np
import pytest

from ksfield import lagrangian, solver
from ksfield.expr import diff, evaluate_batch, parse
from ksfield.lagrangian import (
    RegularityError,
    el_residual,
    energy,
    lagrangian_two_form,
    legendre,
    legendre_jacobian,
    poincare_cartan_form,
    sopde_solve,
    velocity_hessian,
)
from ksfield.modelfile import load_model
from ksfield.sampling import sample_points

from conftest import checked_folds, jet, lagrangian_model, prolong, recording
from reference import canonical_two_form_matrix, evaluate


TESTS = Path(__file__).resolve().parent


def two_forms(model, A, rows):
    """The A-th Lagrangian two-form at the velocity-chart rows, shape (N, dim, dim)."""
    return lagrangian_two_form(model, A).matrices(rows)


class TestFirstDerivatives:
    SOURCE = "(v1_1^2 + v2_1^2 - v1_2^2)/2 + cos(q1 - q2)*v1_1"

    def test_derived_once_per_model(self):
        model = lagrangian_model(2, 2, self.SOURCE)
        assert model.dLdv(0, 1) is model.dLdv(0, 1)
        assert model.dLdq(1) is model.dLdq(1)
        assert poincare_cartan_form(model, 0).coeffs[0] is model.dLdv(0, 0)

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        filled, fresh = lagrangian_model(2, 2, self.SOURCE), lagrangian_model(2, 2, self.SOURCE)
        before = repr(filled)
        energy(filled)  # fills the memo with every dL/dv
        filled.dLdq(0)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) == before
        assert filled != lagrangian_model(2, 2, self.SOURCE + " + q1")


class TestPoincareCartanForm:
    def test_kinetic_form(self, rotational_model):
        table = rotational_model.table
        rng = np.random.default_rng(0)
        for A in range(table.k):
            theta = poincare_cartan_form(rotational_model, A)
            v = rng.uniform(-1, 1, (2, 2))
            values = evaluate_batch(theta.coeffs, theta.chart, jet(rng.uniform(-1, 1, 2), v))[0]
            assert np.allclose(values[: table.n], v[:, A], atol=0)
            assert np.all(values[table.n:] == 0.0)

    def test_velocity_free_lagrangian(self):
        model = lagrangian_model(1, 2, "q1^2")
        for A in range(2):
            theta = poincare_cartan_form(model, A)
            assert all(c == parse("0", ()) for c in theta.coeffs)

    def test_wave_signature(self, wave_model):
        w = jet([0.3], [[1.5, -0.5]])
        theta0, theta1 = (
            evaluate_batch(theta.coeffs, theta.chart, w)[0]
            for theta in (poincare_cartan_form(wave_model, A) for A in range(2))
        )
        assert theta0[0] == 1.5
        assert theta1[0] == 0.5  # -v1_2 with v1_2 = -0.5


class TestTwoForm:
    def test_kinetic_entries(self, rotational_model):
        table = rotational_model.table
        w = jet([0.1, 0.2], [[0.3, 0.4], [0.5, 0.6]])
        for A in range(2):
            (M,) = two_forms(rotational_model, A, w)
            for i in range(table.n):
                slot = table.fiber_slot(i, A)
                assert M[i, slot] == 1.0
            assert np.all(M[: table.n, : table.n] == 0.0)

    def test_antisymmetry_exact(self, kg_model):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1, 1, (10, kg_model.table.dim_total))
        for A in range(2):
            M = two_forms(kg_model, A, rows)
            assert np.all(M + M.transpose(0, 2, 1) == 0.0)

    def test_total_derivative_lagrangian_gives_zero(self):
        # L = q*v is a closed-one-form term; both two-forms vanish identically.
        model = lagrangian_model(1, 1, "q1*v1_1")
        M = two_forms(model, 0, jet([0.7], [[1.3]]))
        assert np.all(M == 0.0)


class TestEnergy:
    def test_quadratic_energy_equals_lagrangian(self, free_model):
        e = energy(free_model)
        rng = np.random.default_rng(1)
        chart = free_model.table.velocity_chart
        for w in rng.uniform(-1, 1, (10, len(chart))):
            assert evaluate(e, chart, w) == pytest.approx(evaluate(free_model.L, chart, w), abs=1e-15)

    def test_velocity_linear_energy_is_minus_potential(self):
        # L = alpha-hat + f(q): homogeneous degree-one part drops out of E.
        model = lagrangian_model(2, 2, "q2*v1_1 + q1*v2_2 + (q1^2 + q2)")
        e = energy(model)
        rng = np.random.default_rng(2)
        chart = model.table.velocity_chart
        for w in rng.uniform(-1, 1, (10, len(chart))):
            expected = -(w[0] ** 2 + w[1])
            assert abs(evaluate(e, chart, w) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_wave_with_potential(self):
        model = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - (q1^4/4)")
        e = energy(model)
        rng = np.random.default_rng(3)
        chart = model.table.velocity_chart
        for w in rng.uniform(-1, 1, (10, len(chart))):
            q, v1, v2 = w
            expected = 0.5 * (v1 ** 2 - v2 ** 2) + q ** 4 / 4
            assert evaluate(e, chart, w) == pytest.approx(expected, rel=1e-14, abs=1e-14)


class TestHessian:
    def test_identity_for_kinetic_term(self, rotational_model):
        (M,), (regular,) = velocity_hessian(rotational_model, jet(np.zeros(2), np.zeros((2, 2))))
        assert regular
        assert np.array_equal(M, np.eye(4))

    def test_cross_term(self):
        model = lagrangian_model(1, 2, "v1_1*v1_2")
        (M,), (regular,) = velocity_hessian(model, jet([0.0], [[0.0, 0.0]]))
        assert regular
        assert np.array_equal(M, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.linalg.det(M) == pytest.approx(-1.0, abs=0)

    def test_degenerate(self):
        model = lagrangian_model(1, 2, "v1_1")
        (M,), (regular,) = velocity_hessian(model, jet([0.0], [[1.0, 1.0]]))
        assert not regular
        assert np.all(M == 0.0)

    def test_solver_reuses_the_hessian_entries(self, monkeypatch):
        # the k = 1 step and velocity_hessian build the same second
        # derivatives; the node memo makes them the same objects
        model = lagrangian_model(2, 1, "(v1_1^2 + v2_1^2)/2 + cos(q1 - q2)*v1_1*v2_1")
        evaluated = recording(monkeypatch, lagrangian, "evaluate_batch")
        compiled = recording(monkeypatch, solver, "compile_source")
        velocity_hessian(model, jet([0.1, 0.2], [[0.3], [0.4]]))
        solver._rk4_step(model)
        upper = evaluated[-1][0]  # H[a][b] for a <= b, row by row
        step = compiled[-1][0][0]  # the upper entries, then the forces
        assert len(upper) == 3
        assert all(x is y for x, y in zip(step[:3], upper))


class TestConstantFold:
    """A Hessian with constant entries is built and tested at one row, and so
    are the SOPDE coefficient matrices and their pseudo-inverse; every bit
    matches the kernels run over the full stacks."""

    @pytest.mark.parametrize("path, count", [  # the shipped wave at the benchmark's scale
        (TESTS.parent / "models" / "wave.yaml", 5000), (TESTS / "models" / "chain.yaml", 100),
    ], ids=["wave", "chain"])
    def test_constant_hessian_folds_bit_identically(self, monkeypatch, path, count):
        spec = load_model(path)
        model = spec.lagrangian
        rows = sample_points(spec.table, "lagrangian", count, spec.seed, spec.box)
        folds = checked_folds(monkeypatch, lagrangian)
        M, regular = velocity_hessian(model, rows)
        assert M.shape == (len(rows),) + (model.table.n * model.table.k,) * 2
        assert np.all(regular) and folds == [True]
        legs = sopde_solve(model, rows)
        assert folds == [True, True, True]  # the Hessian again, then the SOPDE matrices
        monkeypatch.setattr(lagrangian, "fold_constant", lambda kernel, _, *stacks: kernel(*stacks))
        assert sopde_solve(model, rows).tobytes() == legs.tobytes()

    def test_row_dependent_hessian_runs_per_row(self, monkeypatch):
        model = lagrangian_model(1, 2, "(1 + q1^2)*v1_1^2/2 - v1_2^2/2")
        rows = sample_points(model.table, "lagrangian", 200, seed=4)
        folds = checked_folds(monkeypatch, lagrangian)
        M, _ = velocity_hessian(model, rows)
        sopde_solve(model, rows)
        assert folds == [False, False, False]
        assert M.flags.writeable and len(np.unique(M[:, 0, 0])) == len(rows)

    def test_singular_at_one_sampled_row_rejected(self):
        model = lagrangian_model(1, 2, "q1*v1_1^2/2 - v1_2^2/2")
        rows = sample_points(model.table, "lagrangian", 200, seed=4)
        rows[117, 0] = 0.0
        _, regular = velocity_hessian(model, rows)
        assert np.flatnonzero(~regular).tolist() == [117]
        with pytest.raises(RegularityError, match="singular"):
            sopde_solve(model, rows)

    def test_constant_singular_hessian_rejected(self, monkeypatch):
        model = lagrangian_model(1, 2, "v1_1^2/2 + q1*v1_2")
        rows = sample_points(model.table, "lagrangian", 200, seed=4)
        folds = checked_folds(monkeypatch, lagrangian)
        with pytest.raises(RegularityError, match="singular"):
            sopde_solve(model, rows)
        assert folds == [True]


class TestLegendre:
    def test_kinetic_momenta(self, free_model):
        image = legendre(free_model, jet([0.1], [[2.0, -3.0]]))
        assert np.array_equal(image, [[0.1, 2.0, -3.0]])

    def test_wave_momenta(self, wave_model):
        (image,) = legendre(wave_model, jet([0.5], [[1.0, 2.0]]))
        assert image[wave_model.table.fiber_slot(0, 0)] == 1.0
        assert image[wave_model.table.fiber_slot(0, 1)] == -2.0

    @pytest.mark.parametrize(
        "fixture",
        ["free_model", "wave_model", "kg_model", "rotational_model", "gauge_shifted_model"],
    )
    def test_pullback_identity(self, fixture, request):
        # omega_L^A equals the fiber-derivative pullback of the canonical
        # two-form: J^T Omega^A J entrywise at sampled points.
        model = request.getfixturevalue(fixture)
        table = model.table
        rows = sample_points(table, "lagrangian", 100, seed=42)
        J = legendre_jacobian(model, rows)
        for A in range(table.k):
            pulled = J.transpose(0, 2, 1) @ canonical_two_form_matrix(table, A) @ J
            assert np.max(np.abs(pulled - two_forms(model, A, rows))) <= 1e-10

    def test_batched_rows_match_single_points(self, rotational_model):
        # an (N, dim) matrix of rows gives the images and Jacobians of each
        # row, equal to the calls on that row alone
        table = rotational_model.table
        rows = sample_points(table, "lagrangian", 20, seed=43)
        images = legendre(rotational_model, rows)
        jacobians = legendre_jacobian(rotational_model, rows)
        assert images.shape == rows.shape and jacobians.shape == (20,) + (table.dim_total,) * 2
        for r, (image, J) in enumerate(zip(images, jacobians)):
            assert np.array_equal(image[None], legendre(rotational_model, rows[r:r + 1]))
            assert np.array_equal(J[None], legendre_jacobian(rotational_model, rows[r:r + 1]))

    def test_regularity_matches_jacobian(self, free_model):
        w = jet([0.3], [[0.1, 0.2]])
        (M,), (regular,) = velocity_hessian(free_model, w)
        (J,) = legendre_jacobian(free_model, w)
        # block-triangular: the two determinants agree
        assert np.linalg.det(J) == pytest.approx(np.linalg.det(M), rel=1e-8)
        assert regular == (abs(np.linalg.det(J)) > 1e-10)

    def test_singular_case_consistent(self):
        model = lagrangian_model(1, 2, "v1_1")
        w = jet([0.0], [[1.0, 0.0]])
        _, (regular,) = velocity_hessian(model, w)
        (J,) = legendre_jacobian(model, w)
        assert not regular
        assert abs(np.linalg.det(J)) <= 1e-12


class TestEulerLagrangeResidual:
    def test_dalembert_solution(self, wave_model):
        phi = (parse("sin(t1 - t2)", wave_model.table.t_names),)
        r = el_residual(wave_model, phi, np.random.default_rng(7).uniform(-2, 2, (10, 2)))
        assert np.max(np.abs(r)) <= 1e-12

    def test_linear_field_is_harmonic(self, free_model):
        phi = (parse("t1 + t2", free_model.table.t_names),)
        r = el_residual(free_model, phi, [(0.4, -1.2)])
        assert np.max(np.abs(r)) == 0.0

    def test_batched_rows_match_single_calls(self, kg_model):
        table = kg_model.table
        phi = (parse("sin(t1 - t2)*exp(t1/3) + t2^2", table.t_names),)
        ts = np.random.default_rng(17).uniform(-2, 2, (40, 2))
        batched = el_residual(kg_model, phi, ts)
        stacked = np.concatenate([el_residual(kg_model, phi, ts[r:r + 1]) for r in range(len(ts))])
        assert batched.shape == stacked.shape == (40, 1)
        assert np.all(np.abs(batched - stacked) <= 1e-12 * np.maximum(1.0, np.abs(stacked)))

    def test_parabola_misses_by_two(self, free_model):
        phi = (parse("t1^2", free_model.table.t_names),)
        (r,) = el_residual(free_model, phi, [(0.3, 0.9)])
        assert r[0] == pytest.approx(2.0, abs=1e-14)


class TestGeneralBaseDimension:
    def test_k3_residual_mode(self):
        # time stepping is k <= 2, but residual verification runs at any k
        model = lagrangian_model(1, 3, "(v1_1^2 + v1_2^2 + v1_3^2)/2")
        table = model.table
        phi = (parse("t1*t2 + t2*t3", table.t_names),)  # harmonic in R^3
        r = el_residual(model, phi, np.random.default_rng(23).uniform(-1, 1, (5, 3)))
        assert np.max(np.abs(r)) == 0.0
        bad = (parse("t1^2", table.t_names),)
        assert el_residual(model, bad, [(0.1, 0.2, 0.3)])[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_k3_sopde_solve(self):
        model = lagrangian_model(2, 3, three_copy_kinetic(2, 3))
        rows = sample_points(model.table, "lagrangian", 20, seed=5)
        assert_second_order(model.table, rows, sopde_solve(model, rows))


def assert_second_order(table, rows, legs):
    """S^A(Gamma_A) = Delta_A: the base block of leg A is the v_A block of its row."""
    n, k = table.n, table.k
    assert legs.shape == (len(rows), k, table.dim_total)
    assert np.array_equal(legs[:, :, :n], rows[:, n:].reshape(-1, k, n))


def three_copy_kinetic(n, k):
    terms = [f"v{i}_{A}^2" for i in range(1, n + 1) for A in range(1, k + 1)]
    return "(" + " + ".join(terms) + ")/2"


class TestSopdeSolve:
    def test_kinetic_vertical_part_vanishes(self, free_model):
        rows = np.random.default_rng(11).uniform(-1, 1, (5, free_model.table.dim_total))
        legs = sopde_solve(free_model, rows)
        for A in range(2):
            assert np.array_equal(legs[:, A, 0], rows[:, 1 + A])
            assert np.max(np.abs(legs[:, A, 1:])) == 0.0

    def test_classical_limit(self, oscillator_model):
        ((leg,),) = sopde_solve(oscillator_model, jet([0.8], [[0.5]]))
        assert leg[0] == 0.5
        assert leg[1] == pytest.approx(-0.8, abs=1e-14)

    def test_passes_second_order_check(self, kg_model):
        rows = sample_points(kg_model.table, "lagrangian", 100, seed=3)
        assert_second_order(kg_model.table, rows, sopde_solve(kg_model, rows))

    def test_singular_hessian_rejected(self):
        model = lagrangian_model(1, 2, "v1_1")
        with pytest.raises(RegularityError):
            sopde_solve(model, jet([0.0], [[1.0, 0.0]]))

    def test_symmetric_coefficients(self):
        model = lagrangian_model(2, 2, "(v1_1^2 - v1_2^2 + v2_1^2 - v2_2^2)/2 - q1^2*q2")
        table = model.table
        legs = sopde_solve(model, np.random.default_rng(13).uniform(-1, 1, (5, table.dim_total)))
        for A in range(table.k):
            for B in range(table.k):
                for j in range(table.n):
                    lhs = legs[:, A, table.fiber_slot(j, B)]
                    rhs = legs[:, B, table.fiber_slot(j, A)]
                    assert np.array_equal(lhs, rhs)  # enforced exactly

    def test_residual_contraction_identity(self, kg_model):
        # el_residual equals the Hessian contraction of (second derivatives
        # of phi minus the constructed vertical coefficients).
        table = kg_model.table
        phi = (parse("sin(t1)*cos(2*t2)", table.t_names),)
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = rng.uniform(-1, 1, 2)
            w = prolong(table, phi, t)
            (legs,), ((H,), _) = sopde_solve(kg_model, w), velocity_hessian(kg_model, w)
            env = dict(zip(table.t_names, t))

            contraction = 0.0
            for A in range(2):
                for B in range(2):
                    second = evaluate(diff(diff(phi[0], table.t(A)), table.t(B)), env)
                    gamma = legs[A, table.fiber_slot(0, B)]
                    contraction += H[A, B] * (second - gamma)
            (r,) = el_residual(kg_model, phi, [t])
            assert r[0] == pytest.approx(contraction, abs=1e-9)

    def test_k1_equivalence_is_pointwise(self, oscillator_model):
        # at k=1 the Hessian is invertible: residual zero iff the second
        # derivative equals the constructed coefficient.
        table = oscillator_model.table
        solution = (parse("cos(t1)", table.t_names),)
        non_solution = (parse("t1^2", table.t_names),)

        for phi, solves in ((solution, True), (non_solution, False)):
            t = (0.37,)
            ((leg,),) = sopde_solve(oscillator_model, prolong(table, phi, t))
            env = {"t1": t[0]}
            second = evaluate(diff(diff(phi[0], "t1"), "t1"), env)
            matches = abs(second - leg[1]) <= 1e-12
            residual_zero = np.max(np.abs(el_residual(oscillator_model, phi, [t]))) <= 1e-12
            assert matches == solves == residual_zero
