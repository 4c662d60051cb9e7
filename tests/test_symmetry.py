"""Cartan symmetry checks, Noether currents, conservation verification."""

from pathlib import Path

import numpy as np
import pytest

from ksfield.bundles import (
    DiffeoQ,
    Section,
    VectorFieldQ,
    complete_lift,
    cotangent_lift,
    cotangent_prolongation,
    tangent_prolongation,
)
from ksfield.coords import VarTable
from ksfield.expr import Num, Var, add, evaluate_batch, parse, substitute
from ksfield.forms import VectorField, lie_bracket
from ksfield.hamiltonian import ham_kvector, kvector_equation_residual
from ksfield.lagrangian import legendre
from ksfield.modelfile import load_model
from ksfield.sampling import sample_parameters, sample_points
from ksfield import symmetry
from ksfield.solver import Axis, GridSpec, integrate_k2_hyperbolic
from ksfield.symmetry import (
    CurrentRejection,
    NoetherCurrent,
    all_pass,
    check_cartan,
    check_cartan_diffeomorphism,
    check_symmetry_by_transport,
    noether_current,
    verify_bracket_theorem,
    verify_conservation,
)

from conftest import checked_folds, hamiltonian_model, lagrangian_model, rotation_field
from reference import evaluate, max_abs

TESTS = Path(__file__).resolve().parent
T12 = VarTable(1, 2)
T22 = VarTable(2, 2)


def q_translation(table, i=0):
    comps = [Num(0.0)] * table.n
    comps[i] = Num(1.0)
    return VectorFieldQ(table, tuple(comps))


class TestCartanHamiltonian:
    def test_lifted_fields_always_preserve_forms(self, free_hamiltonian):
        table = free_hamiltonian.table
        Z = VectorFieldQ(table, (parse("q1^2 + 2*q1", table.q_names),))
        Y = cotangent_lift(Z)
        samples = sample_points(table, "hamiltonian", 50, seed=0)
        reports = check_cartan(Y, free_hamiltonian, samples)
        assert reports[0].passed and reports[0].max_residual <= 1e-12

    def test_translation_of_free_hamiltonian(self, free_hamiltonian):
        table = free_hamiltonian.table
        Y = cotangent_lift(q_translation(table))
        samples = sample_points(table, "hamiltonian", 100, seed=1)
        reports = check_cartan(Y, free_hamiltonian, samples)
        assert all_pass(reports)

    def test_non_lift_fails_form_condition(self, free_hamiltonian):
        table = free_hamiltonian.table
        comps = [Num(0.0)] * table.dim_total
        comps[0] = Var("q1")  # q1 d/dq1 on the total space, no momentum part
        Y = VectorField(table.momentum_chart, tuple(comps))
        samples = sample_points(table, "hamiltonian", 50, seed=2)
        reports = check_cartan(Y, free_hamiltonian, samples)
        assert not reports[0].passed
        assert reports[0].max_residual > 0.5


class TestCartanLagrangian:
    def test_rotation_of_isotropic_lagrangian(self, rotational_model):
        Y = complete_lift(rotation_field(rotational_model.table))
        samples = sample_points(rotational_model.table, "lagrangian", 100, seed=3)
        assert all_pass(check_cartan(Y, rotational_model, samples))

    def test_translation_of_q_free_lagrangian(self, wave_model):
        Y = complete_lift(q_translation(wave_model.table))
        samples = sample_points(wave_model.table, "lagrangian", 50, seed=4)
        assert all_pass(check_cartan(Y, wave_model, samples))

    def test_scaling_fails_both_conditions(self, free_model):
        # Y = (q d/dq)^C doubles the two-forms (L(Y) omega = 2 omega) and
        # scales the energy (Y(E) = sum_A v_A^2), so both reports fail.
        table = free_model.table
        Y = complete_lift(VectorFieldQ(table, (Var("q1"),)))
        samples = sample_points(table, "lagrangian", 50, seed=5)
        reports = check_cartan(Y, free_model, samples)
        by_name = {r.condition: r for r in reports}
        assert not by_name["lie_derivative_two_forms"].passed
        assert by_name["lie_derivative_two_forms"].max_residual == pytest.approx(2.0, abs=1e-12)
        assert not by_name["energy_invariance"].passed
        expected = float(np.max(np.sum(samples[:, table.n:] ** 2, axis=1)))
        assert by_name["energy_invariance"].max_residual == pytest.approx(expected, rel=1e-12)

    def test_commutator_of_cartan_symmetries_is_cartan(self, rotational_model):
        table = rotational_model.table
        Y1 = complete_lift(rotation_field(table))
        Y2 = complete_lift(q_translation(table, 0))
        bracket = lie_bracket(Y1, Y2)
        samples = sample_points(table, "lagrangian", 50, seed=6)
        for Y in (Y1, Y2, bracket):
            reports = check_cartan(Y, rotational_model, samples, tol=1e-8)
            assert all_pass(reports)


class TestNoetherLagrangian:
    def test_translation_momentum_current(self, rotational_model):
        table = rotational_model.table
        samples = sample_points(table, "lagrangian", 60, seed=7)
        current = noether_current(
            q_translation(table), rotational_model, samples=samples
        )
        rng = np.random.default_rng(0)
        for w in sample_points(table, "lagrangian", 10, seed=8):
            for A in range(table.k):
                assert evaluate(current.components[A], table.velocity_chart, w) == pytest.approx(
                    w[table.fiber_slot(0, A)], abs=1e-14
                )

    def test_rotation_angular_momentum_current(self, rotational_model):
        table = rotational_model.table
        samples = sample_points(table, "lagrangian", 60, seed=9)
        current = noether_current(
            rotation_field(table), rotational_model, samples=samples
        )
        for w in sample_points(table, "lagrangian", 10, seed=10):
            for A in range(table.k):
                expected = w[1] * w[table.fiber_slot(0, A)] - w[0] * w[table.fiber_slot(1, A)]
                assert evaluate(current.components[A], table.velocity_chart, w) == pytest.approx(
                    expected, abs=1e-13
                )

    def test_wrong_gauge_junction_rejected(self):
        model = lagrangian_model(1, 1, "v1_1^2/2 + q1")
        table = model.table
        samples = sample_points(table, "lagrangian", 40, seed=11)
        with pytest.raises(CurrentRejection):
            noether_current(
                q_translation(table), model, zeta=(Var("q1"),), samples=samples
            )

    def test_quasi_invariance_with_correct_gauge(self):
        # L = v^2/2 + q: Z = d/dq gives Z^C(L) = 1 = d_T g for g = t-free? no:
        # d_T g = v dg/dq, so no q-only g works and the strict case fails;
        # a genuine quasi-invariant example instead: free particle under
        # Galilean boost Z = d/dq with L = v^2/2 shifted by q-linear gauge.
        model = lagrangian_model(1, 1, "v1_1^2/2 + v1_1*q1")
        table = model.table
        samples = sample_points(table, "lagrangian", 40, seed=12)
        # Z^C(L) = v = d_T(q)
        current = noether_current(
            q_translation(table), model, zeta=(Var("q1"),), samples=samples
        )
        for q, v in sample_points(table, "lagrangian", 5, seed=13):
            expected = v + q - q
            assert evaluate(current.components[0], table.velocity_chart, (q, v)) == pytest.approx(
                expected, abs=1e-14
            )


class TestNoetherHamiltonian:
    def test_translation_momentum(self, free_hamiltonian):
        table = free_hamiltonian.table
        Y = cotangent_lift(q_translation(table))
        samples = sample_points(table, "hamiltonian", 60, seed=14)
        current = noether_current(Y, free_hamiltonian, samples=samples)
        for w in sample_points(table, "hamiltonian", 10, seed=15):
            for A in range(table.k):
                assert evaluate(current.components[A], table.momentum_chart, w) == pytest.approx(
                    w[table.fiber_slot(0, A)], abs=1e-14
                )

    def test_rotation_weighted_momenta(self):
        model = hamiltonian_model(2, 2, "(p1_1^2 + p1_2^2 + p2_1^2 + p2_2^2)/2")
        table = model.table
        Y = cotangent_lift(rotation_field(table))
        samples = sample_points(table, "hamiltonian", 60, seed=16)
        current = noether_current(Y, model, samples=samples)
        for w in sample_points(table, "hamiltonian", 10, seed=17):
            for A in range(table.k):
                expected = w[table.fiber_slot(0, A)] * w[1] - w[table.fiber_slot(1, A)] * w[0]
                assert evaluate(current.components[A], table.momentum_chart, w) == pytest.approx(
                    expected, abs=1e-13
                )

    def test_constant_zeta_shifts_current_only(self, free_hamiltonian):
        table = free_hamiltonian.table
        Y = cotangent_lift(q_translation(table))
        samples = sample_points(table, "hamiltonian", 60, seed=18)
        zeta = (Num(5.0), Num(-2.0))
        shifted = noether_current(Y, free_hamiltonian, zeta=zeta, samples=samples)
        ts = model_section_solution()
        t_samples = sample_parameters(table, 30, seed=19)
        report = verify_conservation(
            shifted, table, section=ts, t_samples=t_samples, tol=1e-12
        )
        assert report.passed

    def test_non_cartan_candidate_rejected(self, free_hamiltonian):
        table = free_hamiltonian.table
        comps = [Num(0.0)] * table.dim_total
        comps[0] = Var("q1")
        Y = VectorField(table.momentum_chart, tuple(comps))
        samples = sample_points(table, "hamiltonian", 40, seed=20)
        with pytest.raises(CurrentRejection):
            noether_current(Y, free_hamiltonian, samples=samples)


def model_section_solution():
    """Section (t1 t2, (t2, t1)) of the n=1, k=2 momentum bundle."""
    ts = ("t1", "t2")
    return Section(T12, "hamiltonian", (parse("t1*t2", ts), parse("t2", ts), parse("t1", ts)))


class TestVerifyConservation:
    def test_wave_momentum_current_analytic(self, wave_model):
        table = wave_model.table
        samples = sample_points(table, "lagrangian", 60, seed=21)
        current = noether_current(q_translation(table), wave_model, samples=samples)
        phi = (parse("sin(t1 - t2)", table.t_names),)
        t_samples = sample_parameters(table, 50, seed=22)
        report = verify_conservation(
            current, table, section=Section.prolongation(table, phi), t_samples=t_samples,
            tol=1e-12,
        )
        assert report.passed

    def test_non_solution_is_flagged(self, wave_model):
        table = wave_model.table
        samples = sample_points(table, "lagrangian", 60, seed=23)
        current = noether_current(q_translation(table), wave_model, samples=samples)
        phi = (parse("t1^2 + t2", table.t_names),)  # not a wave solution
        t_samples = sample_parameters(table, 50, seed=24)
        report = verify_conservation(
            current, table, section=Section.prolongation(table, phi), t_samples=t_samples
        )
        assert not report.passed
        assert report.max_residual > 0.5

    def test_grid_mode_reports_ratio(self, wave_model):
        table = wave_model.table
        samples = sample_points(table, "lagrangian", 60, seed=25)
        current = noether_current(q_translation(table), wave_model, samples=samples)
        h2 = 2 * np.pi / 314
        grid = GridSpec((Axis(0.0, 100 * h2 / 2, h2 / 2), Axis(0.0, 2 * np.pi, h2)))
        phi0 = (parse("sin(t2)", ("t2",)),)
        phidot0 = (parse("-cos(t2)", ("t2",)),)
        sol = integrate_k2_hyperbolic(wave_model, phi0, phidot0, grid)
        refined = integrate_k2_hyperbolic(wave_model, phi0, phidot0, grid.refined())
        report = verify_conservation(
            current, table, grid=sol, refined_grid=refined, model=wave_model
        )
        assert report.max_residual <= 1e-3
        assert 3.0 <= report.details["refinement_ratio"] <= 5.0


class TestBracketTheorem:
    def test_momentum_current_with_free_hamiltonian(self, free_hamiltonian):
        table = free_hamiltonian.table
        Y = cotangent_lift(q_translation(table))
        samples = sample_points(table, "hamiltonian", 60, seed=26)
        current = noether_current(Y, free_hamiltonian, samples=samples)
        report = verify_bracket_theorem(current, free_hamiltonian, samples)
        assert report.passed

    def test_angular_momentum_with_isotropic_hamiltonian(self):
        model = hamiltonian_model(2, 2, "(p1_1^2 + p1_2^2 + p2_1^2 + p2_2^2)/2 + (q1^2 + q2^2)/2")
        table = model.table
        Y = cotangent_lift(rotation_field(table))
        samples = sample_points(table, "hamiltonian", 60, seed=27)
        current = noether_current(Y, model, samples=samples)
        report = verify_bracket_theorem(current, model, samples)
        assert report.passed

    def test_broken_symmetry_leaves_minus_one(self):
        broken = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2 + q1")
        table = broken.table
        current = NoetherCurrent(
            (parse("p1_1", table.momentum_chart), parse("p2_1", table.momentum_chart)),
            "hamiltonian",
            "user-supplied",
        )
        samples = sample_points(table, "hamiltonian", 40, seed=28)
        report = verify_bracket_theorem(current, broken, samples)
        assert not report.passed
        # sum_A X_A(p^A_1) = -dH/dq1 = -1 at every point
        assert report.max_residual == pytest.approx(1.0, abs=1e-14)

    def test_lagrangian_side_wave_currents(self, wave_model):
        table = wave_model.table
        samples = sample_points(table, "lagrangian", 60, seed=29)
        current = noether_current(q_translation(table), wave_model, samples=samples)
        report = verify_bracket_theorem(current, wave_model, samples)
        assert report.passed


class TestTransport:
    def test_translation_preserves_free_solutions(self, free_hamiltonian):
        table = free_hamiltonian.table
        phi = DiffeoQ(table, (parse("q1 + 1", table.q_names),), (parse("q1 - 1", table.q_names),))
        Phi = cotangent_prolongation(phi)
        t_samples = sample_parameters(table, 25, seed=30)
        reports = check_symmetry_by_transport(
            Phi, free_hamiltonian, model_section_solution(), t_samples
        )
        assert all_pass(reports)
        assert reports[0].max_residual <= 1e-10

    def test_identity_map_trivially_passes(self, wave_model):
        table = wave_model.table
        ident = DiffeoQ(table, (Var("q1"),), (Var("q1"),))
        Phi = tangent_prolongation(ident)
        phi = (parse("sin(t1 - t2)", table.t_names),)
        t_samples = sample_parameters(table, 25, seed=31)
        reports = check_symmetry_by_transport(
            Phi, wave_model, Section.prolongation(table, phi), t_samples
        )
        assert all_pass(reports)

    def test_scaling_breaks_klein_gordon(self, kg_model):
        table = kg_model.table
        scaling = DiffeoQ(table, (parse("2*q1", table.q_names),), (parse("q1/2", table.q_names),))
        Phi = tangent_prolongation(scaling)
        omega = float(np.sqrt(2.0))
        phi = (parse(f"sin(t2 - {omega!r}*t1)", table.t_names),)  # KG wave, kappa=1
        t_samples = sample_parameters(table, 25, seed=32)
        reports = check_symmetry_by_transport(
            Phi, kg_model, Section.prolongation(table, phi), t_samples
        )
        # scaling maps solutions of the massive equation off-shell? no - the
        # KG equation is linear, so scaling q by 2 PRESERVES solutions.
        assert all_pass(reports)

    def test_translation_breaks_klein_gordon(self, kg_model):
        # the mass term makes q-translations fail, linearity notwithstanding
        table = kg_model.table
        shift = DiffeoQ(table, (parse("q1 + 1", table.q_names),), (parse("q1 - 1", table.q_names),))
        Phi = tangent_prolongation(shift)
        omega = float(np.sqrt(2.0))
        phi = (parse(f"sin(t2 - {omega!r}*t1)", table.t_names),)
        t_samples = sample_parameters(table, 25, seed=33)
        reports = check_symmetry_by_transport(
            Phi, kg_model, Section.prolongation(table, phi), t_samples
        )
        assert not all_pass(reports)


class TestDiffeoCartan:
    def test_translation_lift_is_cartan_for_free_h(self, free_hamiltonian):
        table = free_hamiltonian.table
        phi = DiffeoQ(table, (parse("q1 + 2", table.q_names),), (parse("q1 - 2", table.q_names),))
        Phi = cotangent_prolongation(phi)
        samples = sample_points(table, "hamiltonian", 40, seed=34)
        assert all_pass(check_cartan_diffeomorphism(Phi, free_hamiltonian, samples))

    def test_pushforward_keeps_field_equation(self, free_hamiltonian):
        table = free_hamiltonian.table
        phi = DiffeoQ(table, (parse("q1 + 2", table.q_names),), (parse("q1 - 2", table.q_names),))
        Phi = cotangent_prolongation(phi)
        samples = sample_points(table, "hamiltonian", 40, seed=35)
        pushed = Phi.pushforward_legs(lambda pre: ham_kvector(free_hamiltonian, pre), samples)
        assert max_abs(kvector_equation_residual(free_hamiltonian, samples, pushed)) <= 1e-9

    def test_scaling_is_not_cartan(self, free_hamiltonian):
        table = free_hamiltonian.table
        # naive fiberwise scaling: doubles omega, fails the form condition
        comps = (parse("q1", table.momentum_chart),) + tuple(
            parse(f"2*{name}", table.momentum_chart) for name in table.p_names
        )
        inverse = (parse("q1", table.momentum_chart),) + tuple(
            parse(f"{name}/2", table.momentum_chart) for name in table.p_names
        )
        from ksfield.bundles import TotalMap

        Phi = TotalMap(table, "hamiltonian", comps, inverse)
        samples = sample_points(table, "hamiltonian", 40, seed=36)
        reports = check_cartan_diffeomorphism(Phi, free_hamiltonian, samples)
        assert not all_pass(reports)



class TestDiffeoCartanFold:
    """A map and two-forms with constant entries give one constant gap
    |Phi^* omega^A - omega^A|, built and judged at one row; with a varying
    entry each product Jᵀ ω^A J whose entries are constant still folds.
    Every bit matches the kernels run over the full stacks."""

    @staticmethod
    def q_map(table, source, inverse):
        phi = DiffeoQ(table, tuple(parse(source.format(q=q), table.q_names) for q in table.q_names),
                      tuple(parse(inverse.format(q=q), table.q_names) for q in table.q_names))
        return tangent_prolongation(phi)

    @pytest.mark.parametrize("path, count", [
        (TESTS.parent / "models" / "wave.yaml", 5000), (TESTS / "models" / "chain.yaml", 100),
    ], ids=["wave", "chain"])
    def test_constant_products_fold_bit_identically(self, monkeypatch, path, count):
        spec = load_model(path)
        table = spec.table
        Phi = self.q_map(table, "{q} + 1", "{q} - 1")
        if "translate" in spec.symmetries:  # the shipped wave's own map
            Phi = spec.symmetries["translate"].datum
        rows = sample_points(table, "lagrangian", count, spec.seed, spec.box)
        folds = checked_folds(monkeypatch, symmetry)
        reports = check_cartan_diffeomorphism(Phi, spec.lagrangian, rows)
        assert all_pass(reports) and folds == [True]  # the whole gap, products included
        assert reports[0].sample_count == count and reports[0].worst_row == 0
        monkeypatch.setattr(symmetry, "fold_constant", lambda kernel, _, *stacks: kernel(*stacks))
        assert check_cartan_diffeomorphism(Phi, spec.lagrangian, rows) == reports

    def test_row_dependent_jacobian_runs_per_row(self, monkeypatch):
        model = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2")
        Phi = self.q_map(model.table, "{q} + {q}^3", "{q}")  # the inverse is never read
        rows = sample_points(model.table, "lagrangian", 200, seed=9)
        folds = checked_folds(monkeypatch, symmetry)
        assert not all_pass(check_cartan_diffeomorphism(Phi, model, rows))
        assert folds == [False, False, False]  # each product, then the gap

    def test_constant_form_folds_beside_a_varying_one(self, monkeypatch):
        model = lagrangian_model(1, 2, "v1_1^4/12 - v1_2^2/2")  # omega^1 varies, omega^2 does not
        Phi = self.q_map(model.table, "{q} + 1", "{q} - 1")
        rows = sample_points(model.table, "lagrangian", 200, seed=9)
        folds = checked_folds(monkeypatch, symmetry)
        reports = check_cartan_diffeomorphism(Phi, model, rows)
        assert all_pass(reports) and folds == [False, True, False]
        monkeypatch.setattr(symmetry, "fold_constant", lambda kernel, _, *stacks: kernel(*stacks))
        assert check_cartan_diffeomorphism(Phi, model, rows) == reports


class TestCurrentTransport:
    def test_pullback_of_current_through_symmetry_conserved(self, free_hamiltonian):
        table = free_hamiltonian.table
        Y = cotangent_lift(q_translation(table))
        samples = sample_points(table, "hamiltonian", 60, seed=37)
        current = noether_current(Y, free_hamiltonian, samples=samples)
        phi = DiffeoQ(table, (parse("q1 + 1", table.q_names),), (parse("q1 - 1", table.q_names),))
        Phi = cotangent_prolongation(phi)
        mapping = dict(zip(table.momentum_chart, Phi.components))
        pulled = NoetherCurrent(
            tuple(substitute(f, mapping) for f in current.components),
            "hamiltonian",
            "user-supplied",
        )
        t_samples = sample_parameters(table, 30, seed=38)
        report = verify_conservation(
            pulled, table, section=model_section_solution(), t_samples=t_samples, tol=1e-12
        )
        assert report.passed

    def test_current_unique_up_to_constants(self, wave_model):
        table = wave_model.table
        samples = sample_points(table, "lagrangian", 60, seed=39)
        current = noether_current(q_translation(table), wave_model, samples=samples)
        shifted = NoetherCurrent(
            tuple(add(f, Num(3.0)) for f in current.components),
            current.side,
            current.provenance,
        )
        phi = (parse("sin(t1 - t2)", table.t_names),)
        t_samples = sample_parameters(table, 30, seed=40)
        for c in (current, shifted):
            report = verify_conservation(
                c, table, section=Section.prolongation(table, phi), t_samples=t_samples,
                tol=1e-12,
            )
            assert report.passed


class TestLegendreCorrespondence:
    @pytest.mark.parametrize("path, y_l, y_h", [
        (TESTS.parent / "models" / "wave.yaml", "shift", "shift"),  # natural lifts
        (TESTS / "models" / "rotation.yaml", "rot_l", "rot_h"),  # FL-related general fields
    ])
    def test_currents_agree_through_the_fiber_derivative(self, path, y_l, y_h):
        # f_L = f_H o FL at jet samples: the two sides build one conserved quantity
        spec = load_model(path)
        table = spec.table
        jets = sample_points(table, "lagrangian", spec.samples, spec.seed, spec.box)
        cojets = sample_points(table, "hamiltonian", spec.samples, spec.seed, spec.box)
        # each candidate's term is the one its current reads: none for the
        # wave's base field, zeta for the rotations
        sym_l, sym_h = spec.symmetries[y_l], spec.symmetries[y_h]
        current_l = noether_current(sym_l.datum, spec.lagrangian, sym_l.term, jets)
        current_h = noether_current(sym_h.datum, spec.hamiltonian, sym_h.term, cojets)
        images = legendre(spec.lagrangian, jets)
        f_l = evaluate_batch(current_l.components, table.velocity_chart, jets)
        f_h = evaluate_batch(current_h.components, table.momentum_chart, images)
        assert max_abs(f_l - f_h) <= 1e-12


class TestSampleLayout:
    """Sample matrices are column-major; a row-major copy of the same points
    gives the same reports, bit for bit, since every sum whose order can
    follow the layout reads row-major operands either way."""

    def test_cartan_reports(self, rotational_model):
        table = rotational_model.table
        Y = complete_lift(VectorFieldQ(table, (parse("q1*q2", table.q_names),
                                               parse("sin(q1)", table.q_names))))
        samples = sample_points(table, "lagrangian", 500, seed=8)
        assert samples.flags.f_contiguous and not samples.flags.c_contiguous
        reports = check_cartan(Y, rotational_model, samples)
        assert not all_pass(reports)  # non-zero residuals, so the bytes say something
        assert reports == check_cartan(Y, rotational_model, np.ascontiguousarray(samples))

    def test_cartan_diffeomorphism_reports(self, rotational_model):
        # a shear along q2: its Jacobians vary over the samples
        table = rotational_model.table
        shear = DiffeoQ(table, (parse("q1 + q2^2", table.q_names), Var("q2")),
                        (parse("q1 - q2^2", table.q_names), Var("q2")))
        Phi = tangent_prolongation(shear)
        samples = sample_points(table, "lagrangian", 500, seed=9)
        assert Phi.jacobians(samples).flags.c_contiguous  # the stacks the products read
        reports = check_cartan_diffeomorphism(Phi, rotational_model, samples)
        assert not all_pass(reports)
        assert reports == check_cartan_diffeomorphism(
            Phi, rotational_model, np.ascontiguousarray(samples)
        )
