"""Gauge equivalence classification and decomposition recovery."""

import numpy as np
import pytest

from ksfield.bundles import DiffeoQ, tangent_prolongation
from ksfield.expr import DomainError, Num, add, diff, mul, parse, substitute
from ksfield.forms import max_abs, pullback_one_form
from ksfield.gauge import GaugeError, gauge_compare, verify_same_solutions
from ksfield.lagrangian import (
    LagrangianModel,
    el_residual,
    energy,
    lagrangian_two_form,
    poincare_cartan_form,
)
from ksfield.sampling import sample_parameters, sample_points
from ksfield.symmetry import all_pass, check_cartan_diffeomorphism

from conftest import lagrangian_model
from reference import evaluate


def samples_for(model, count=60, seed=0):
    return sample_points(model.table, "lagrangian", count, seed=seed)


def reconstruction_residual(L1, L2, verdict, samples):
    table = L1.table
    rebuilt = add(
        add(L2.L, verdict.decomposition.alpha_hat(table)),
        add(verdict.decomposition.f, Num(verdict.decomposition.c)),
    )
    return max(
        abs(evaluate(rebuilt, table.velocity_chart, w) - evaluate(L1.L, table.velocity_chart, w))
        for w in samples
    )


class TestGaugeCompare:
    def test_closed_shift_is_gauge(self, wave_model):
        L2 = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + v1_1")
        samples = samples_for(wave_model)
        verdict = gauge_compare(wave_model, L2, samples)
        assert verdict.kind == "gauge"
        assert reconstruction_residual(wave_model, L2, verdict, samples) <= 1e-9

    def test_constant_shift_is_strict(self, wave_model):
        L2 = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + 5")
        samples = samples_for(wave_model)
        verdict = gauge_compare(wave_model, L2, samples)
        assert verdict.kind == "strict"
        assert verdict.decomposition.c == pytest.approx(-5.0, abs=1e-12)
        assert reconstruction_residual(wave_model, L2, verdict, samples) <= 1e-12

    def test_non_closed_alpha_is_inequivalent(self):
        L1 = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2")
        L2 = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2 + q2*v1_1")
        samples = samples_for(L1)
        verdict = gauge_compare(L1, L2, samples)
        assert verdict.kind == "inequivalent"
        assert verdict.witness["reason"] == "alpha_not_closed"

    def test_velocity_free_remainder_splits_energies(self, wave_model):
        L2 = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + q1")
        samples = samples_for(wave_model)
        verdict = gauge_compare(wave_model, L2, samples)
        assert verdict.kind == "inequivalent"
        assert verdict.witness["reason"] == "energies_differ"

    def test_quadratic_difference_has_witness_point(self, wave_model):
        L2 = lagrangian_model(1, 2, "(2*v1_1^2 - v1_2^2)/2")
        samples = samples_for(wave_model)
        verdict = gauge_compare(wave_model, L2, samples)
        assert verdict.kind == "inequivalent"
        assert verdict.witness["reason"] == "two_forms_differ"
        assert verdict.witness["point"] is not None

    def test_first_differing_entry_decides_before_a_later_domain_error(self, wave_model):
        # d2/dv1_1^2 differs everywhere; d2/dv1_2^2 of sqrt(v1_2) leaves its
        # domain at the samples with v1_2 <= 0, but is never reached
        L2 = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + v1_1^3 + sqrt(v1_2)")
        samples = samples_for(wave_model)
        assert min(samples[:, -1]) < 0.0
        verdict = gauge_compare(wave_model, L2, samples)
        assert verdict.kind == "inequivalent"
        assert verdict.witness["reason"] == "two_forms_differ"
        assert verdict.witness["entry"] == "d2(L1-L2)/dv1_1 dv1_1"
        with pytest.raises(DomainError):
            gauge_compare(
                wave_model,
                lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + sqrt(v1_2)"),
                samples,
            )

    def test_table_mismatch_rejected(self, wave_model):
        other = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2")
        with pytest.raises(GaugeError):
            gauge_compare(wave_model, other, samples_for(wave_model))


class TestGaugeInvariants:
    def test_gauge_verdict_implies_equal_two_forms(self, wave_model, gauge_shifted_model):
        samples = samples_for(wave_model, count=40, seed=3)
        verdict = gauge_compare(wave_model, gauge_shifted_model, samples)
        assert verdict.kind == "gauge"
        for A in range(2):
            m1 = lagrangian_two_form(wave_model, A).matrices(samples)
            m2 = lagrangian_two_form(gauge_shifted_model, A).matrices(samples)
            assert np.max(np.abs(m1 - m2)) <= 1e-10
        # energy difference has vanishing gradient
        gap = energy(wave_model) - energy(gauge_shifted_model)
        chart = wave_model.table.velocity_chart
        for name in chart:
            worst = max(abs(evaluate(diff(gap, name), chart, w)) for w in samples)
            assert worst <= 1e-10

    def test_round_trip_random_closed_forms(self):
        # alpha = d(gradient potentials): closed by construction; recovery to
        # evaluation equality
        rng = np.random.default_rng(7)
        base = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2 - q1*q2")
        table = base.table
        samples = samples_for(base, count=50, seed=11)
        for trial in range(20):
            potentials = []
            for A in range(2):
                c = [float(x) for x in rng.uniform(-2, 2, size=3)]
                potentials.append(
                    f"{c[0]!r}*q1^2 + {c[1]!r}*q1*q2 + {c[2]!r}*q2^2"
                )
            alpha_hat_src = []
            for A, pot in enumerate(potentials):
                g = parse(pot, table.q_names)
                for i in range(2):
                    coeff = diff(g, table.q(i))
                    alpha_hat_src.append(mul(coeff, parse(table.v(i, A), table.v_names)))
            shift = alpha_hat_src[0]
            for term in alpha_hat_src[1:]:
                shift = add(shift, term)
            constant = float(rng.uniform(-3, 3))
            L2 = LagrangianModel(table, add(base.L, add(shift, Num(constant))))
            verdict = gauge_compare(base, L2, samples)
            assert verdict.kind == "gauge"
            assert reconstruction_residual(base, L2, verdict, samples) <= 1e-9
            # recovered alpha matches -d(potential) by evaluation (D = L1-L2)
            for A in range(2):
                g = parse(potentials[A], table.q_names)
                for i in range(2):
                    expected = diff(g, table.q(i))
                    for w in samples[:10]:
                        got = evaluate(verdict.decomposition.alpha[A][i], table.velocity_chart, w)
                        assert got == pytest.approx(
                            -evaluate(expected, table.velocity_chart, w), abs=1e-9
                        )

    def test_random_non_closed_forms_rejected(self):
        rng = np.random.default_rng(13)
        base = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2")
        table = base.table
        samples = samples_for(base, count=50, seed=17)
        for trial in range(20):
            # alpha^1 = a q2 dq1 + b q1 dq2 with a != b has curl a - b
            a, b = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
            shift = parse(
                f"{a!r}*q2*v1_1 + {b!r}*q1*v2_1",
                table.velocity_chart,
            )
            L2 = LagrangianModel(table, add(base.L, shift))
            verdict = gauge_compare(base, L2, samples)
            assert verdict.kind == "inequivalent"
            assert verdict.witness["reason"] == "alpha_not_closed"


class TestSameSolutions:
    def test_gauge_pair_share_wave_solutions(self, wave_model, gauge_shifted_model):
        table = wave_model.table
        phi = (parse("sin(t1 - t2)", table.t_names),)
        t_samples = sample_parameters(table, 30, seed=19)
        report = verify_same_solutions(wave_model, gauge_shifted_model, phi, t_samples)
        assert report.passed
        assert np.max(np.abs(el_residual(gauge_shifted_model, phi, t_samples[:5]))) <= 1e-12

    def test_non_solution_residuals_equal_but_nonzero(self, wave_model, gauge_shifted_model):
        table = wave_model.table
        phi = (parse("t1^2", table.t_names),)
        t_samples = sample_parameters(table, 20, seed=23)
        report = verify_same_solutions(wave_model, gauge_shifted_model, phi, t_samples)
        assert report.passed  # equal residuals, both nonzero
        assert abs(el_residual(wave_model, phi, t_samples[:1])[0, 0] - 2.0) <= 1e-12

    def test_inequivalent_pair_disagrees(self, wave_model, kg_model):
        table = wave_model.table
        phi = (parse("sin(t1 - t2)", table.t_names),)
        t_samples = sample_parameters(table, 20, seed=29)
        report = verify_same_solutions(wave_model, kg_model, phi, t_samples)
        assert not report.passed


class TestGaugeSymmetryLink:
    def test_prolonged_pullback_form_identity(self, rotational_model):
        # For a prolonged base diffeomorphism, pulling back the one-forms of
        # L equals the one-forms of the pulled-back Lagrangian.
        table = rotational_model.table
        angle = 0.3
        c, s = float(np.cos(angle)), float(np.sin(angle))
        phi = DiffeoQ(
            table,
            (
                parse(f"{c!r}*q1 + {s!r}*q2", table.q_names),
                parse(f"-{s!r}*q1 + {c!r}*q2", table.q_names),
            ),
            (
                parse(f"{c!r}*q1 - {s!r}*q2", table.q_names),
                parse(f"{s!r}*q1 + {c!r}*q2", table.q_names),
            ),
        )
        Phi = tangent_prolongation(phi)
        chart = table.velocity_chart
        pulled_L = substitute(rotational_model.L, dict(zip(chart, Phi.components)))
        pulled_model = LagrangianModel(table, pulled_L)
        rows = samples_for(rotational_model, count=30, seed=31)
        for A in range(table.k):
            lhs = pullback_one_form(
                chart, Phi.components, poincare_cartan_form(rotational_model, A)
            )
            rhs = poincare_cartan_form(pulled_model, A)
            gap_coeffs = tuple(a - b for a, b in zip(lhs.coeffs, rhs.coeffs))
            assert max_abs(gap_coeffs, chart, rows) <= 1e-9

    def test_natural_cartan_iff_natural_gauge(self, rotational_model):
        # rotation: strict gauge symmetry and Cartan symmetry of the
        # isotropic Lagrangian; an anisotropic Lagrangian fails both ways.
        table = rotational_model.table
        angle = 0.4
        c, s = float(np.cos(angle)), float(np.sin(angle))
        phi = DiffeoQ(
            table,
            (
                parse(f"{c!r}*q1 + {s!r}*q2", table.q_names),
                parse(f"-{s!r}*q1 + {c!r}*q2", table.q_names),
            ),
            (
                parse(f"{c!r}*q1 - {s!r}*q2", table.q_names),
                parse(f"{s!r}*q1 + {c!r}*q2", table.q_names),
            ),
        )
        Phi = tangent_prolongation(phi)
        chart = table.velocity_chart
        samples = samples_for(rotational_model, count=30, seed=37)

        def pulled(model):
            return LagrangianModel(
                table, substitute(model.L, dict(zip(chart, Phi.components)))
            )

        verdict = gauge_compare(rotational_model, pulled(rotational_model), samples)
        assert verdict.kind == "strict"
        assert all_pass(
            check_cartan_diffeomorphism(Phi, rotational_model, samples)
        )

        skewed = lagrangian_model(2, 2, "(4*v1_1^2 + v2_1^2 + 4*v1_2^2 + v2_2^2)/2")
        verdict2 = gauge_compare(skewed, pulled(skewed), samples)
        assert verdict2.kind == "inequivalent"
        assert not all_pass(check_cartan_diffeomorphism(Phi, skewed, samples))
