"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is fixed, not calibrated.
"""

import time

import numpy as np

from ksfield.bundles import Section, VectorFieldQ, cotangent_lift
from ksfield.coords import VarTable
from ksfield.expr import Num, diff, parse
from ksfield.forms import largest_abs, lie_derivative_one, max_abs
from ksfield.gauge import gauge_compare, verify_same_solutions
from ksfield.hamiltonian import (
    canonical_one_form,
    canonical_two_form_matrix,
    ham_kvector,
    hdw_residual,
)
from ksfield.lagrangian import (
    LagrangianModel,
    lagrangian_two_form,
    legendre_jacobian,
    sopde_solve,
)
from ksfield.sampling import sample_parameters, sample_points
from ksfield.solver import Axis, GridSpec, integrate_k1, integrate_k2_hyperbolic
from ksfield.symmetry import (
    CurrentRejection,
    NoetherCurrent,
    noether_current,
    verify_bracket_theorem,
    verify_conservation,
)

from conftest import hamiltonian_model, lagrangian_model
from reference import evaluate
from test_expr import NAMES, centered_difference, random_polynomial

TWO_PI = 2 * np.pi


def verdict(number, name, ok, detail, started, limit):
    elapsed = time.perf_counter() - started
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {flag} ({detail}) [{elapsed:.2f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def fixture_lagrangians():
    """free, wave, Klein-Gordon, rotationally symmetric n=2, gauge-shifted."""
    return [
        lagrangian_model(1, 2, "(v1_1^2 + v1_2^2)/2"),
        lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2"),
        lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - q1^2/2"),
        lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2"),
        lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + 3*v1_1 + 2"),
    ]


def wave_setup():
    model = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2")
    phi = (parse("sin(t1 - t2)", model.table.t_names),)
    return model, phi


def test_criterion_1_pullback_identity():
    started = time.perf_counter()
    worst = 0.0
    for model in fixture_lagrangians():
        rows = sample_points(model.table, "lagrangian", 100, seed=1)
        J = legendre_jacobian(model, rows)
        for A in range(model.table.k):
            pulled = J.transpose(0, 2, 1) @ canonical_two_form_matrix(model.table, A) @ J
            direct = lagrangian_two_form(model, A).matrices(rows)
            worst = max(worst, largest_abs(pulled - direct))
    verdict(1, "pullback-identity", worst <= 1e-10, f"max gap {worst:.2e}", started, 1.0)


def test_criterion_2_lifted_form_invariance():
    started = time.perf_counter()
    table = VarTable(2, 2)
    rng = np.random.default_rng(2)

    def poly_source():
        terms = ["{:.3f}".format(rng.uniform(-1, 1))]
        for _ in range(rng.integers(2, 5)):
            factors = ["{:.3f}".format(rng.uniform(-2, 2))]
            for _ in range(rng.integers(1, 4)):  # degree <= 3
                factors.append(f"q{rng.integers(1, 3)}")
            terms.append("*".join(factors))
        return " + ".join(terms)

    worst = 0.0
    for trial in range(20):
        Z = VectorFieldQ(
            table,
            (parse(poly_source(), table.q_names), parse(poly_source(), table.q_names)),
        )
        Y = cotangent_lift(Z)
        rows = sample_points(table, "hamiltonian", 100, seed=100 + trial)
        for A in range(table.k):
            theta = canonical_one_form(table, A)
            worst = max(worst, max_abs(lie_derivative_one(Y, theta).coeffs, theta.chart, rows))
    verdict(2, "lifted-form-invariance", worst <= 1e-9, f"max residual {worst:.2e}", started, 5.0)


def second_order_gap(table, rows, legs):
    """max |S^A(Gamma_A) - Delta_A| over the rows and copies A: the base block
    of leg A against the v_A block of its row."""
    n, k = table.n, table.k
    return largest_abs(legs[:, :, :n] - rows[:, n:].reshape(-1, k, n))


def test_criterion_3_sopde_characterization():
    started = time.perf_counter()
    worst = 0.0
    for model in fixture_lagrangians():
        rows = sample_points(model.table, "lagrangian", 50, seed=3)
        worst = max(worst, second_order_gap(model.table, rows, sopde_solve(model, rows)))
    # mutated field: zero the base components, keep the vertical part
    model = fixture_lagrangians()[1]
    rows = sample_points(model.table, "lagrangian", 20, seed=4)
    mutated = sopde_solve(model, rows)
    mutated[:, :, : model.table.n] = 0.0
    mutated_residual = second_order_gap(model.table, rows, mutated)
    ok = worst == 0.0 and mutated_residual == largest_abs(rows[:, model.table.n:])
    verdict(
        3,
        "sopde-characterization",
        ok,
        f"max residual {worst:.2e}, mutated rejected at {mutated_residual:.2f}",
        started,
        1.0,
    )


def test_criterion_4_noether_conservation():
    started = time.perf_counter()
    model, phi = wave_setup()
    table = model.table
    chart = table.velocity_chart
    samples = sample_points(table, "lagrangian", 100, seed=5)
    t_samples = sample_parameters(table, 100, seed=6, t_box=[(0.0, 1.0), (0.0, TWO_PI)])

    momentum = noether_current(
        VectorFieldQ(table, (Num(1.0),)), model, samples=samples
    )
    boost = NoetherCurrent(
        (parse("v1_1*v1_2", chart), parse("-(v1_1^2 + v1_2^2)/2", chart)),
        "lagrangian",
        "user-supplied",
    )

    analytic_worst = 0.0
    for current in (momentum, boost):
        report = verify_conservation(
            current, table, section=Section.prolongation(table, phi), t_samples=t_samples,
            tol=1e-12,
        )
        analytic_worst = max(analytic_worst, report.max_residual)

    # leapfrog grid at h = 1e-2 on the periodic axis, plus one refinement
    nodes = 628
    h2 = TWO_PI / nodes
    h1 = h2 / 2
    grid = GridSpec((Axis(0.0, 100 * h1, h1), Axis(0.0, TWO_PI, h2)))
    phi0 = (parse("sin(t2)", ("t2",)),)
    phidot0 = (parse("-cos(t2)", ("t2",)),)
    sol = integrate_k2_hyperbolic(model, phi0, phidot0, grid)
    refined = integrate_k2_hyperbolic(model, phi0, phidot0, grid.refined())

    grid_ok = True
    grid_detail = []
    for current in (momentum, boost):
        report = verify_conservation(
            current, table, grid=sol, refined_grid=refined, model=model
        )
        ratio = report.details["refinement_ratio"]
        grid_ok = grid_ok and report.max_residual <= 1e-3 and 3.0 <= ratio <= 5.0
        grid_detail.append(f"{report.max_residual:.1e}@ratio {ratio:.2f}")

    bracket_worst = 0.0
    for current in (momentum, boost):
        report = verify_bracket_theorem(current, model, samples, tol=1e-9)
        bracket_worst = max(bracket_worst, report.max_residual)

    ok = analytic_worst <= 1e-12 and grid_ok and bracket_worst <= 1e-9
    verdict(
        4,
        "noether-conservation",
        ok,
        f"analytic {analytic_worst:.1e}, grid {', '.join(grid_detail)}, "
        f"bracket {bracket_worst:.1e}",
        started,
        30.0,
    )


def test_criterion_5_broken_symmetry_control():
    started = time.perf_counter()
    # Hamiltonian side: H gains q1, momentum current stops being conserved
    broken_h = hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2 + q1")
    table = broken_h.table
    ts = table.t_names
    psi_base = (parse("-(t1^2 + t2^2)/4", ts),)
    psi_momenta = ((parse("-t1/2", ts),), (parse("-t2/2", ts),))
    psi = Section(table, "hamiltonian", psi_base + sum(psi_momenta, ()))
    t_samples = sample_parameters(table, 50, seed=7)
    solution_residual = largest_abs(hdw_residual(broken_h, psi, t_samples))
    momentum = NoetherCurrent(
        (parse("p1_1", table.momentum_chart), parse("p2_1", table.momentum_chart)),
        "hamiltonian",
        "user-supplied",
    )
    report_h = verify_conservation(
        momentum, table, section=psi, t_samples=t_samples
    )

    # Lagrangian side: the mass term -q^2/2 breaks translation invariance
    kg = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - q1^2/2")
    omega = float(np.sqrt(2.0))
    kg_phi = (parse(f"cos(t2 - {omega!r}*t1)", ts),)
    construction_rejected = False
    try:
        noether_current(
            VectorFieldQ(table, (Num(1.0),)), kg,
            samples=sample_points(table, "lagrangian", 50, seed=8),
        )
    except CurrentRejection:
        construction_rejected = True
    wave_momentum = NoetherCurrent(
        (parse("v1_1", table.velocity_chart), parse("-v1_2", table.velocity_chart)),
        "lagrangian",
        "user-supplied",
    )
    report_l = verify_conservation(
        wave_momentum, table, section=Section.prolongation(table, kg_phi),
        t_samples=sample_parameters(table, 50, seed=9, t_box=[(0.0, 2.0), (0.0, TWO_PI)]),
    )

    ok = (
        solution_residual <= 1e-12
        and not report_h.passed
        and report_h.max_residual >= 0.1
        and construction_rejected
        and not report_l.passed
        and report_l.max_residual >= 0.1
    )
    verdict(
        5,
        "broken-symmetry-control",
        ok,
        f"hamiltonian |div| {report_h.max_residual:.2f}, "
        f"lagrangian |div| {report_l.max_residual:.2f}",
        started,
        10.0,
    )


def test_criterion_6_solver_orders():
    started = time.perf_counter()
    oscillator = lagrangian_model(1, 1, "v1_1^2/2 - q1^2/2")

    def rk4_closed_form_error(h):
        steps = int(round(TWO_PI / h / 2) * 2)
        grid = GridSpec((Axis(0.0, steps * h, h),))
        sol = integrate_k1(oscillator, [1.0], [0.0], grid)
        ts = sol.spec.evolution_times()
        return float(np.max(np.abs(sol.phi[:, 0] - np.cos(ts)))), sol

    e_coarse, sol_coarse = rk4_closed_form_error(0.02)
    e_fine, _ = rk4_closed_form_error(0.01)
    rk4_ratio = e_coarse / e_fine
    drift_ok = sol_coarse.summary["energy_drift"] <= 1.0 * 0.02**4

    wave = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2")
    phi0 = (parse("sin(t2)", ("t2",)),)
    phidot0 = (parse("-cos(t2)", ("t2",)),)

    def wave_closed_form_error(nodes, steps):
        h2 = TWO_PI / nodes
        grid = GridSpec((Axis(0.0, steps * h2 / 2, h2 / 2), Axis(0.0, TWO_PI, h2)))
        sol = integrate_k2_hyperbolic(wave, phi0, phidot0, grid)
        ts = sol.spec.evolution_times()
        xs = sol.spec.periodic_nodes()
        return float(np.max(np.abs(sol.phi[:, :, 0] - np.sin(xs[None, :] - ts[:, None]))))

    w_coarse = wave_closed_form_error(314, 100)
    w_fine = wave_closed_form_error(628, 200)
    leapfrog_ratio = w_coarse / w_fine

    ok = (
        16 * 0.8 <= rk4_ratio <= 16 * 1.2
        and 4 * 0.75 <= leapfrog_ratio <= 4 * 1.25
        and drift_ok
    )
    verdict(
        6,
        "solver-orders",
        ok,
        f"rk4 ratio {rk4_ratio:.2f}, leapfrog ratio {leapfrog_ratio:.2f}",
        started,
        60.0,
    )


def test_criterion_7_gauge_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    base = lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2 - q1*q2")
    table = base.table
    chart = table.velocity_chart
    samples = sample_points(table, "lagrangian", 60, seed=12)

    gauge_ok = True
    worst_reconstruction = 0.0
    for _ in range(20):
        shift_terms = []
        for A in range(2):
            c = [float(x) for x in rng.uniform(-2, 2, size=3)]
            g = parse(f"{c[0]!r}*q1^2 + {c[1]!r}*q1*q2 + {c[2]!r}*q2^2", table.q_names)
            for i in range(2):
                shift_terms.append(
                    diff(g, table.q(i)) * parse(table.v(i, A), table.v_names)
                )
        shifted = base.L
        for term in shift_terms:
            shifted = shifted + term
        shifted = shifted + Num(float(rng.uniform(-3, 3)))
        other = LagrangianModel(table, shifted)
        result = gauge_compare(base, other, samples)
        gauge_ok = gauge_ok and result.kind == "gauge"
        if result.decomposition is not None:
            rebuilt = (
                other.L
                + result.decomposition.alpha_hat(table)
                + result.decomposition.f
                + Num(result.decomposition.c)
            )
            for w in samples:
                worst_reconstruction = max(
                    worst_reconstruction,
                    abs(evaluate(rebuilt, chart, w) - evaluate(base.L, chart, w)),
                )

    inequivalent_ok = True
    for _ in range(20):
        a = float(rng.uniform(0.5, 2.0))
        b = -float(rng.uniform(0.5, 2.0))
        shift = parse(f"{a!r}*q2*v1_1 + {b!r}*q1*v2_1", table.velocity_chart)
        other = LagrangianModel(table, base.L + shift)
        result = gauge_compare(base, other, samples)
        inequivalent_ok = inequivalent_ok and result.kind == "inequivalent"

    # shared fixture solutions: field-equation residuals must agree
    wave = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2")
    shifted_wave = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + 3*v1_1 + 2")
    t_samples = sample_parameters(wave.table, 40, seed=13)
    agreement = 0.0
    for phi_src in ("sin(t1 - t2)", "t1^2 + t2"):
        phi = (parse(phi_src, wave.table.t_names),)
        report = verify_same_solutions(wave, shifted_wave, phi, t_samples, tol=1e-9)
        agreement = max(agreement, report.max_residual)

    ok = (
        gauge_ok
        and worst_reconstruction <= 1e-9
        and inequivalent_ok
        and agreement <= 1e-9
    )
    verdict(
        7,
        "gauge-round-trip",
        ok,
        f"reconstruction {worst_reconstruction:.1e}, solution agreement {agreement:.1e}",
        started,
        10.0,
    )


def test_criterion_8_differentiation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(14)
    worst_excess = 0.0
    for _ in range(200):
        e = random_polynomial(rng, NAMES)
        name = str(rng.choice(NAMES))
        env = {key: float(rng.uniform(-1, 1)) for key in NAMES}
        exact = evaluate(diff(e, name), env)
        approx = centered_difference(e, name, env)
        excess = abs(exact - approx) / (1.0 + abs(exact))
        worst_excess = max(worst_excess, excess)
    verdict(
        8,
        "differentiation-oracle",
        worst_excess <= 1e-6,
        f"worst relative error {worst_excess:.2e}",
        started,
        5.0,
    )


def test_criterion_9_classical_reduction():
    started = time.perf_counter()
    model = hamiltonian_model(2, 1, "(p1_1^2 + p1_2^2)/2 + (q1^2 + q2^2)/2")
    table = model.table
    omega = canonical_two_form_matrix(table, 0)
    chart = table.momentum_chart
    samples = sample_points(table, "hamiltonian", 100, seed=15)
    worst_field = 0.0
    for w, (leg,) in zip(samples, ham_kvector(model, samples)):
        grad = np.array([evaluate(diff(model.H, name), chart, w) for name in chart])
        direct = np.linalg.solve(omega.T, grad)
        worst_field = max(worst_field, largest_abs(leg - direct))

    # classical conserved quantities from the natural lifts
    from ksfield.symmetry import noether_current

    free = hamiltonian_model(2, 1, "(p1_1^2 + p1_2^2)/2")
    momentum = noether_current(
        cotangent_lift(VectorFieldQ(free.table, (Num(1.0), Num(0.0)))),
        free,
        samples=sample_points(free.table, "hamiltonian", 50, seed=16),
    )
    rotation = VectorFieldQ(
        table, (parse("q2", table.q_names), parse("-q1", table.q_names))
    )
    angular = noether_current(
        cotangent_lift(rotation), model, samples=samples
    )
    worst_classic = 0.0
    for w in samples[:25]:
        q1, q2, p1, p2 = w
        worst_classic = max(
            worst_classic,
            abs(evaluate(momentum.components[0], chart, w) - p1),
            abs(evaluate(angular.components[0], chart, w) - (p1 * q2 - p2 * q1)),
        )

    # and they are constant along the circular orbit (cos t, sin t)
    ts = table.t_names
    orbit_base = (parse("cos(t1)", ts), parse("sin(t1)", ts))
    orbit_momenta = ((parse("-sin(t1)", ts), parse("cos(t1)", ts)),)
    t_samples = sample_parameters(table, 30, seed=17, t_box=[(0.0, TWO_PI)])
    report = verify_conservation(
        angular, table, section=Section(table, "hamiltonian", orbit_base + sum(orbit_momenta, ())),
        t_samples=t_samples, tol=1e-12,
    )

    ok = worst_field <= 1e-12 and worst_classic <= 1e-12 and report.passed
    verdict(
        9,
        "classical-reduction",
        ok,
        f"field gap {worst_field:.1e}, current gap {worst_classic:.1e}",
        started,
        1.0,
    )
