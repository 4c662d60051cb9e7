"""Symmetry verification and Noether conserved currents, both sides.

Every check is a sampled residual: "for all points" conditions are tested
at quasi-random points of a box (symbolic zero-testing of arbitrary
expressions is undecidable, sampling is falsifiable and cheap).  Lie
derivatives of forms go through Cartan's formula with exact symbolic
exterior derivatives; only the final residuals are numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .bundles import (
    TotalMap,
    VectorFieldQ,
    complete_lift,
    cotangent_lift,
    point_rows,
    pullback_by_prolongation,
    tulczyjew_derivative,
)
from .coords import VarTable
from .expr import Expr, Num, add, diff, evaluate_batch, sub, substitute
from .forms import (
    OneForm,
    VectorField,
    contract_one,
    contract_two,
    d_function,
    lie_derivative_one,
    largest_abs,
    lie_derivative_two,
    max_abs,
)
from .hamiltonian import (
    HamiltonianModel,
    canonical_one_form,
    canonical_two_form,
    ham_kvector,
    hdw_residual,
    pullback_by_section,
)
from .lagrangian import (
    LagrangianModel,
    el_residual,
    energy,
    lagrangian_two_form,
    poincare_cartan_form,
    sopde_solve,
)
from .solver import CurrentTrace, SolutionGrid, evaluate_current


class SymmetryError(ValueError):
    pass


class CurrentRejection(SymmetryError):
    """Raised when a Noether-current precondition fails; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (max residual {residual:.3e})")
        self.residual = residual


@dataclass
class Report:
    condition: str
    max_residual: float
    sample_count: int
    passed: bool
    details: dict = field(default_factory=dict)
    trace: Optional[CurrentTrace] = None  # grid conservation only; not reported

    def as_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "max_residual": float(self.max_residual),
            "sample_count": int(self.sample_count),
            "pass": bool(self.passed),
        }
        if self.details:
            out["details"] = {
                key: float(v) if isinstance(v, (float, np.floating)) else v
                for key, v in self.details.items()
            }
        return out


def all_pass(reports: Sequence[Report]) -> bool:
    return all(r.passed for r in reports)


@dataclass(frozen=True)
class SymmetryCandidate:
    """User-declared symmetry datum.

    kind "vector-field-on-q": n components over q (lifted on demand);
    kind "vector-field": components over the full chart of ``side``;
    kind "diffeomorphism": total-space map with declared inverse.
    Optional gauge data g (k expressions over q) and zeta (k expressions).
    """

    kind: str
    components: tuple
    side: Optional[str] = None
    inverse: Optional[tuple] = None
    gauge: Optional[tuple] = None
    zeta: Optional[tuple] = None

    def vector_field(self, table: VarTable, side: str) -> VectorField:
        if self.kind == "vector-field-on-q":
            Z = VectorFieldQ(table, self.components)
            return complete_lift(Z) if side == "lagrangian" else cotangent_lift(Z)
        if self.kind == "vector-field":
            if self.side is not None and self.side != side:
                raise SymmetryError(
                    f"candidate lives on the {self.side} side, requested {side}"
                )
            return VectorField(table.chart(side), self.components)
        raise SymmetryError(f"candidate of kind {self.kind!r} is not a vector field")

    def base_field(self, table: VarTable) -> VectorFieldQ:
        if self.kind != "vector-field-on-q":
            raise SymmetryError("candidate is not a vector field on the base")
        return VectorFieldQ(table, self.components)

    def total_map(self, table: VarTable, side: str) -> TotalMap:
        if self.kind != "diffeomorphism":
            raise SymmetryError("candidate is not a diffeomorphism")
        use_side = self.side or side
        return TotalMap(table, use_side, self.components, self.inverse)


@dataclass(frozen=True)
class NoetherCurrent:
    components: tuple  # k expressions
    side: str          # "lagrangian" | "hamiltonian"
    provenance: str    # "natural-lift" | "user-supplied"


# ---------------------------------------------------------------------------
# Cartan symmetry checks
#
# ``samples`` is a sequence of JetPoints/CoJetPoints or an (N, dim) array of
# chart rows; every residual expression is derived once per call and
# evaluated over all rows together.

def check_cartan_hamiltonian(
    Y: VectorField, model: HamiltonianModel, samples, tol: float = 1e-9
):
    """Infinitesimal conditions: L(Y) omega^A = 0 for all A, and Y(H) = 0."""
    table = model.table
    if Y.chart != table.momentum_chart:
        raise SymmetryError("vector field does not live on the momentum chart")
    rows, _ = point_rows(samples, table.dim_total)
    lie = [
        e
        for A in range(table.k)
        for e in lie_derivative_two(Y, canonical_two_form(table, A)).entries.values()
    ]
    worst_omega = max_abs(lie, Y.chart, rows)
    worst_h = max_abs([Y.apply(model.H)], Y.chart, rows)
    return [
        Report("lie_derivative_two_forms", worst_omega, len(rows), worst_omega <= tol),
        Report("hamiltonian_invariance", worst_h, len(rows), worst_h <= tol),
    ]


def check_cartan_lagrangian(
    Y: VectorField, model: LagrangianModel, samples, tol: float = 1e-9
):
    """Infinitesimal conditions: L(Y) omega_L^A = 0 for all A, and Y(E_L) = 0."""
    table = model.table
    if Y.chart != table.velocity_chart:
        raise SymmetryError("vector field does not live on the velocity chart")
    rows, _ = point_rows(samples, table.dim_total)
    lie = [
        e
        for A in range(table.k)
        for e in lie_derivative_two(Y, lagrangian_two_form(model, A)).entries.values()
    ]
    worst_omega = max_abs(lie, Y.chart, rows)
    worst_e = max_abs([Y.apply(energy(model))], Y.chart, rows)
    return [
        Report("lie_derivative_two_forms", worst_omega, len(rows), worst_omega <= tol),
        Report("energy_invariance", worst_e, len(rows), worst_e <= tol),
    ]


def check_cartan_diffeomorphism(Phi: TotalMap, model, samples, tol: float = 1e-9):
    """Finite conditions: Phi^* omega^A = omega^A and Phi^* (H or E) = const.

    The constant offset is tested through the gradient of the pulled-back
    function minus the original, which is what every downstream equation
    sees.
    """
    table = Phi.table
    if isinstance(model, HamiltonianModel):
        scalar = model.H
        two_forms = [canonical_two_form(table, A) for A in range(table.k)]
        side = "hamiltonian"
    else:
        scalar = energy(model)
        two_forms = [lagrangian_two_form(model, A) for A in range(table.k)]
        side = "lagrangian"
    if Phi.side != side:
        raise SymmetryError(f"map lives on the {Phi.side} side, model needs {side}")

    chart = Phi.chart
    rows, _ = point_rows(samples, len(chart))
    J = Phi.jacobians(rows)
    images = Phi.images(rows)
    worst_omega = 0.0
    for omega in two_forms:
        pulled = np.swapaxes(J, 1, 2) @ omega.matrices(images) @ J
        worst_omega = max(worst_omega, largest_abs(pulled - omega.matrices(rows)))
    gap = sub(substitute(scalar, dict(zip(chart, Phi.components))), scalar)
    worst_grad = max_abs([diff(gap, name) for name in chart], chart, rows)
    return [
        Report("pullback_two_forms", worst_omega, len(rows), worst_omega <= tol),
        Report("scalar_invariance_up_to_constant", worst_grad, len(rows), worst_grad <= tol),
    ]


# ---------------------------------------------------------------------------
# Noether currents

def noether_current_lagrangian(
    Z: VectorFieldQ,
    model: LagrangianModel,
    g: Optional[Sequence[Expr]] = None,
    samples: Sequence = (),
    tol: float = 1e-9,
) -> NoetherCurrent:
    """Current of a natural symmetry: f^A = Z-vertical-lift(L) - g^A.

    Preconditions, sampled: Z^C(L) = d_T g (g defaults to zero, the strict
    case).  The construction is re-verified against i(Z^C) omega_L^A = d f^A
    before the current is returned.
    """
    table = model.table
    if not len(samples):
        raise SymmetryError("need sample points to verify the construction")
    lifted = complete_lift(Z)
    if g is None:
        g = tuple(Num(0.0) for _ in range(table.k))
    g = tuple(g)
    if len(g) != table.k:
        raise SymmetryError(f"expected {table.k} gauge components")
    chart = table.velocity_chart
    rows, _ = point_rows(samples, len(chart))

    quasi_invariance = sub(lifted.apply(model.L), tulczyjew_derivative(table, g))
    residual = max_abs([quasi_invariance], chart, rows)
    if residual > tol:
        raise CurrentRejection("Z does not leave L quasi-invariant: Z^C(L) != d_T g", residual)

    components = [
        sub(contract_one(lifted, poincare_cartan_form(model, A)), g[A]) for A in range(table.k)
    ]

    defects = []
    for A in range(table.k):
        omega = lagrangian_two_form(model, A)
        defects += _one_form_gap(contract_two(lifted, omega), d_function(components[A], chart))
    worst = max_abs(defects, chart, rows)
    if worst > tol:
        raise CurrentRejection("constructed current fails i(Y) omega = df", worst)
    return NoetherCurrent(tuple(components), "lagrangian", "natural-lift")


def noether_current_hamiltonian(
    Y: VectorField,
    model: HamiltonianModel,
    zeta: Optional[Sequence[Expr]] = None,
    samples: Sequence = (),
    tol: float = 1e-9,
    provenance: str = "user-supplied",
) -> NoetherCurrent:
    """Current of an infinitesimal Cartan symmetry: f^A = i(Y) theta^A - zeta^A.

    zeta defaults to zero, exact for natural lifts where L(Y) theta^A = 0;
    otherwise the caller supplies zeta^A with L(Y) theta^A = d zeta^A,
    verified at the samples.
    """
    table = model.table
    if not len(samples):
        raise SymmetryError("need sample points to verify the construction")
    reports = check_cartan_hamiltonian(Y, model, samples, tol)
    if not all_pass(reports):
        worst = max(r.max_residual for r in reports)
        raise CurrentRejection("Y is not an infinitesimal Cartan symmetry", worst)
    if zeta is None:
        zeta = tuple(Num(0.0) for _ in range(table.k))
    zeta = tuple(zeta)
    if len(zeta) != table.k:
        raise SymmetryError(f"expected {table.k} zeta components")
    chart = table.momentum_chart
    rows, _ = point_rows(samples, len(chart))

    components = []
    defects = []
    for A in range(table.k):
        theta = canonical_one_form(table, A)
        defects += _one_form_gap(lie_derivative_one(Y, theta), d_function(zeta[A], chart))
        components.append(sub(contract_one(Y, theta), zeta[A]))
    worst_zeta = max_abs(defects, chart, rows)
    if worst_zeta > tol:
        raise CurrentRejection("zeta does not satisfy L(Y) theta^A = d zeta^A", worst_zeta)

    defects = []
    for A in range(table.k):
        omega = canonical_two_form(table, A)
        defects += _one_form_gap(contract_two(Y, omega), d_function(components[A], chart))
    worst = max_abs(defects, chart, rows)
    if worst > tol:
        raise CurrentRejection("constructed current fails i(Y) omega = df", worst)
    return NoetherCurrent(tuple(components), "hamiltonian", provenance)


def _one_form_gap(a: OneForm, b: OneForm) -> list:
    """Coefficients of a - b."""
    return [sub(x, y) for x, y in zip(a.coeffs, b.coeffs)]


# ---------------------------------------------------------------------------
# conservation verification

def verify_conservation(
    current: NoetherCurrent,
    table: VarTable,
    *,
    phi: Optional[Sequence[Expr]] = None,
    section=None,
    grid: Optional[SolutionGrid] = None,
    refined_grid: Optional[SolutionGrid] = None,
    model: Optional[LagrangianModel] = None,
    t_samples: Optional[np.ndarray] = None,
    tol: float = 1e-9,
) -> Report:
    """Check that the current's divergence vanishes along a solution.

    Analytic mode (``phi`` or ``section``): the symbolic total divergence is
    evaluated at the t samples.  Grid mode (``grid``): the discrete
    divergence of the trace, plus its refinement ratio when ``refined_grid``
    is supplied; the report keeps the trace on ``grid`` as ``trace``.
    """
    if grid is not None:
        trace = evaluate_current(current.components, grid, current.side, model)
        details = dict(trace.summary())
        passed = bool(np.isfinite(trace.max_divergence))
        if refined_grid is not None:
            refined = evaluate_current(
                current.components, refined_grid, current.side, model
            )
            if refined.max_divergence > 0:
                ratio = trace.max_divergence / refined.max_divergence
                details["refinement_ratio"] = ratio
                # conserved currents shrink at the stencil's second order;
                # allow one binary order of slack around the nominal 4
                passed = passed and 2.0 <= ratio <= 8.0
        return Report(
            "grid_divergence", trace.max_divergence, trace.interior_count, passed, details, trace
        )

    if phi is not None:
        if current.side != "lagrangian":
            raise SymmetryError("map solutions verify lagrangian-side currents")
        restrict = partial(pullback_by_prolongation, table, phi=phi)
    elif section is not None:
        if current.side != "hamiltonian":
            raise SymmetryError("bundle sections verify hamiltonian-side currents")
        restrict = partial(pullback_by_section, table, psi_base=section[0], psi_momenta=section[1])
    else:
        raise SymmetryError("no solution supplied")
    divergence: Expr = Num(0.0)  # total divergence of the current along the solution, in t
    for A, f_A in enumerate(current.components):
        divergence = add(divergence, diff(restrict(f_A), table.t(A)))

    if t_samples is None:
        raise SymmetryError("analytic mode needs t samples")
    t_rows, _ = point_rows(t_samples, table.k)
    worst = max_abs([divergence], table.t_names, t_rows)
    return Report("analytic_divergence", worst, len(t_rows), worst <= tol)


def verify_bracket_theorem(
    current: NoetherCurrent, model, samples, tol: float = 1e-9
) -> Report:
    """Evaluate sum_A X_A(f^A) with the canonically constructed k-vector field."""
    if isinstance(model, HamiltonianModel):
        if current.side != "hamiltonian":
            raise SymmetryError("current/model side mismatch")
        chart = model.table.momentum_chart
        construct = ham_kvector
    else:
        if current.side != "lagrangian":
            raise SymmetryError("current/model side mismatch")
        chart = model.table.velocity_chart
        construct = sopde_solve
    rows, _ = point_rows(samples, len(chart))
    legs = construct(model, rows)  # (N, k, dim)
    gradients = [diff(f_A, name) for f_A in current.components for name in chart]
    values = evaluate_batch(gradients, chart, rows).reshape(legs.shape)
    worst = largest_abs(np.sum(legs * values, axis=(1, 2)))
    return Report("kvector_bracket_sum", worst, len(rows), worst <= tol)


# ---------------------------------------------------------------------------
# finite-symmetry check by transporting solutions

def check_symmetry_by_transport(
    Phi: TotalMap,
    model,
    solution,
    t_samples: np.ndarray,
    tol: Optional[float] = None,
):
    """Map a solution through Phi and measure the field-equation residual of
    the image; the pass tolerance follows the input solution's own residual
    (an exact solution demands an exact image)."""
    table = Phi.table
    t_rows, _ = point_rows(t_samples, table.k)
    threshold_floor = tol if tol is not None else 1e-10
    if isinstance(model, HamiltonianModel):
        psi_base, psi_momenta = solution
        image = [pullback_by_section(table, c, psi_base, psi_momenta) for c in Phi.components]
        image_base = tuple(image[: table.n])
        image_momenta = tuple(
            tuple(image[table.n + A * table.n + i] for i in range(table.n))
            for A in range(table.k)
        )
        input_res = largest_abs(hdw_residual(model, psi_base, psi_momenta, t_rows))
        image_res = largest_abs(hdw_residual(model, image_base, image_momenta, t_rows))
        threshold = max(threshold_floor, 10.0 * input_res)
        return [
            Report(
                "transport_field_equations",
                image_res,
                len(t_rows),
                image_res <= threshold,
                {"input_residual": input_res},
            )
        ]

    phi = solution
    image = [pullback_by_prolongation(table, c, phi) for c in Phi.components]
    rho = tuple(image[: table.n])

    input_res = largest_abs(el_residual(model, phi, t_rows))
    image_res = largest_abs(el_residual(model, rho, t_rows))
    # the image must itself be a first prolongation: fiber components of the
    # image agree with the t-derivatives of its base part
    gaps = [
        sub(diff(rho[i], table.t(A)), image[table.fiber_slot(i, A)])
        for A in range(table.k)
        for i in range(table.n)
    ]
    worst_prolong = max_abs(gaps, table.t_names, t_rows)
    threshold = max(threshold_floor, 10.0 * input_res)
    return [
        Report(
            "transport_field_equations",
            image_res,
            len(t_rows),
            image_res <= threshold,
            {"input_residual": input_res},
        ),
        Report(
            "transport_prolongation_consistency",
            worst_prolong,
            len(t_rows),
            worst_prolong <= threshold,
        ),
    ]
