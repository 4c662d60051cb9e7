"""Symmetry verification and Noether conserved currents, both sides.

Every check is a sampled residual: "for all points" conditions are tested
at quasi-random points of a box (symbolic zero-testing of arbitrary
expressions is undecidable, sampling is falsifiable and cheap).  Lie
derivatives of forms go through Cartan's formula with exact symbolic
exterior derivatives; only the final residuals are numeric.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .bundles import (
    Section,
    TotalMap,
    VectorFieldQ,
    complete_lift,
    cotangent_lift,
    fold_constant,
    point_rows,
    tulczyjew_derivative,
)
from .coords import VarTable
from .expr import Expr, Num, diff, evaluate_batch, sub, substitute, total
from .forms import (
    OneForm,
    contract_one,
    contract_two,
    d_function,
    d_one,
    judge,
    lie_derivative_one,
)
from .hamiltonian import (
    HamiltonianModel,
    canonical_one_form,
    canonical_two_form,
    ham_kvector,
    hdw_residual,
)
from .lagrangian import (
    LagrangianModel,
    el_residual,
    energy,
    lagrangian_two_form,
    legendre_exprs,
    poincare_cartan_form,
    sopde_solve,
)
from .records import Record, Report, SymmetryError, all_pass
from .solver import SolutionGrid, evaluate_current, refinement


class CurrentRejection(SymmetryError):
    """Raised when a Noether-current precondition fails; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (max residual {residual:.3e})")
        self.residual = residual


class NoetherCurrent(Record, frozen=True):
    components: tuple  # k expressions
    side: str          # "lagrangian" | "hamiltonian"
    provenance: str    # "natural-lift" | "user-supplied"


class Side(Record, frozen=True):
    """One formalism's k-symplectic structure: what the symmetry checks read.

    The forms and the scalar are built on demand, so a check pays only for
    what it uses.
    """

    name: str             # "lagrangian" | "hamiltonian"
    chart: tuple
    fiber: str            # "velocity" | "momentum"
    lift: Callable        # VectorFieldQ -> VectorField on the chart
    theta: Callable       # A -> one-form theta^A
    omega: Callable       # A -> two-form omega^A = -d theta^A
    scalar: Callable      # () -> H, or the energy E_L
    invariance: str       # report condition of Y(scalar) = 0
    legs: Callable        # (N, dim) rows -> (N, k, dim) k-vector field legs
    residual: Callable    # (Section, t rows) -> field-equation residuals along it


def _side(model) -> Side:
    table = model.table
    if isinstance(model, HamiltonianModel):
        return Side(
            "hamiltonian", table.momentum_chart, "momentum", cotangent_lift,
            partial(canonical_one_form, table), partial(canonical_two_form, table),
            lambda: model.H, "hamiltonian_invariance", partial(ham_kvector, model),
            partial(hdw_residual, model),
        )
    return Side(
        "lagrangian", table.velocity_chart, "velocity", complete_lift,
        partial(poincare_cartan_form, model), partial(lagrangian_two_form, model),
        partial(energy, model), "energy_invariance", partial(sopde_solve, model),
        lambda section, t: el_residual(model, section.base, t),  # of the map it prolongs
    )


# ---------------------------------------------------------------------------
# Cartan symmetry checks
#
# ``samples`` is an (N, dim) matrix of chart rows; every residual expression
# is derived once per call and evaluated over all rows together.

def check_cartan(Y, model, samples, tol: float = 1e-9):
    """Infinitesimal conditions: L(Y) omega^A = 0 for all A, and Y(H) = 0
    (Y(E_L) = 0 on the Lagrangian side).  A VectorFieldQ is lifted first.
    Each omega^A = -d theta^A is exact, so L(Y) omega^A = d(i(Y) omega^A)."""
    side = _side(model)
    if isinstance(Y, VectorFieldQ):
        Y = side.lift(Y)
    if Y.chart != side.chart:
        raise SymmetryError(f"vector field does not live on the {side.fiber} chart")
    rows = point_rows(samples, len(side.chart))
    lie = [
        e
        for A in range(model.table.k)
        for e in d_one(contract_two(Y, side.omega(A))).entries.values()
    ]
    return [
        judge("lie_derivative_two_forms", tol, evaluate_batch(lie, Y.chart, rows)),
        judge(side.invariance, tol, evaluate_batch([Y.apply(side.scalar())], Y.chart, rows)),
    ]


def check_cartan_diffeomorphism(Phi: TotalMap, model, samples, tol: float = 1e-9):
    """Finite conditions: Phi^* omega^A = omega^A and Phi^* (H or E) = const.

    The constant offset is tested through the gradient of the pulled-back
    function minus the original, which is what every downstream equation
    sees.
    """
    side = _side(model)
    if Phi.side != side.name:
        raise SymmetryError(f"map lives on the {Phi.side} side, model needs {side.name}")

    chart = Phi.chart
    rows = point_rows(samples, len(chart))
    derivatives = [diff(comp, name) for comp in Phi.components for name in chart]
    omegas = [side.omega(A) for A in range(Phi.table.k)]

    def pullback_gaps(rows):  # max over A of |Phi^* omega^A - omega^A|
        J, images = Phi.jacobians(rows), Phi.images(rows)
        gaps = None
        for omega in omegas:  # one gap at a time, written over omega^A's own stack
            pulled = np.swapaxes(J, 1, 2) @ omega.matrices(images) @ J
            gap = omega.matrices(rows)
            np.abs(np.subtract(pulled, gap, out=gap), out=gap)
            gaps = gap if gaps is None else np.maximum(gaps, gap, out=gaps)  # which keeps a NaN
        return gaps

    entries = derivatives + [e for omega in omegas for e in omega.entries.values()]
    gaps = fold_constant(pullback_gaps, entries, rows)
    scalar = side.scalar()
    gap = sub(substitute(scalar, dict(zip(chart, Phi.components))), scalar)
    return [
        judge("pullback_two_forms", tol, gaps),
        judge("scalar_invariance_up_to_constant", tol,
              evaluate_batch([diff(gap, name) for name in chart], chart, rows)),
    ]


# ---------------------------------------------------------------------------
# Noether currents

def noether_current(
    Y,
    model,
    zeta: Optional[Sequence[Expr]] = None,
    samples: Sequence = (),
    tol: float = 1e-9,
) -> NoetherCurrent:
    """Current of an infinitesimal symmetry: f^A = i(Y) theta^A - zeta^A.

    ``Y`` is a VectorField on the model's chart or a VectorFieldQ Z, which
    is lifted to the model's side; zeta defaults to zero.  Preconditions,
    sampled: on the Lagrangian side a lifted Z^C must leave L
    quasi-invariant, Z^C(L) = d_T zeta (zeta is the gauge term g); every
    other Y must be a Cartan symmetry with L(Y) theta^A = d zeta^A.  The
    construction is re-verified against i(Y) omega^A = d f^A before the
    current is returned.
    """
    table = model.table
    if not len(samples):
        raise SymmetryError("need sample points to verify the construction")
    side = _side(model)
    natural = isinstance(Y, VectorFieldQ)
    if natural:
        Y = side.lift(Y)
    zeta = tuple(zeta) if zeta is not None else (Num(0.0),) * table.k
    if len(zeta) != table.k:
        raise SymmetryError(f"expected {table.k} zeta components")
    chart = side.chart
    rows = point_rows(samples, len(chart))
    thetas = [side.theta(A) for A in range(table.k)]

    def require(residuals, message):
        report = judge(message, tol, evaluate_batch(residuals, chart, rows))
        if not report.passed:
            raise CurrentRejection(message, report.max_residual)

    if natural and side.name == "lagrangian":
        quasi_invariance = sub(Y.apply(model.L), tulczyjew_derivative(table, zeta))
        require([quasi_invariance], "Z does not leave L quasi-invariant: Z^C(L) != d_T g")
    else:
        reports = check_cartan(Y, model, rows, tol)
        if not all_pass(reports):
            worst = max(r.max_residual for r in reports)
            raise CurrentRejection("Y is not an infinitesimal Cartan symmetry", worst)
        defects = []
        for A, theta in enumerate(thetas):
            defects += _one_form_gap(lie_derivative_one(Y, theta), d_function(zeta[A], chart))
        require(defects, "zeta does not satisfy L(Y) theta^A = d zeta^A")

    components = [sub(contract_one(Y, theta), zeta[A]) for A, theta in enumerate(thetas)]
    defects = []
    for A in range(table.k):
        defects += _one_form_gap(contract_two(Y, side.omega(A)), d_function(components[A], chart))
    require(defects, "constructed current fails i(Y) omega = df")
    provenance = "natural-lift" if natural else "user-supplied"
    return NoetherCurrent(tuple(components), side.name, provenance)


def _one_form_gap(a: OneForm, b: OneForm) -> list:
    """Coefficients of a - b."""
    return [sub(x, y) for x, y in zip(a.coeffs, b.coeffs)]


# ---------------------------------------------------------------------------
# conservation verification

def verify_conservation(
    current: NoetherCurrent,
    table: VarTable,
    section: Section,
    t_samples: np.ndarray,
    tol: float = 1e-9,
) -> Report:
    """Check that the current's symbolic total divergence vanishes along an
    analytic solution on the current's side, at the t samples."""
    if section.side != current.side:
        raise SymmetryError("solution and current live on different sides")
    divergence = total(diff(section.restrict(f_A), table.t(A))  # along the solution, in t
                       for A, f_A in enumerate(current.components))
    t_rows = point_rows(t_samples, table.k)
    return judge("analytic_divergence", tol, evaluate_batch([divergence], table.t_names, t_rows))


def verify_grid_conservation(
    current: NoetherCurrent,
    grid: SolutionGrid,
    refined_grid: SolutionGrid,
    lagrangian: LagrangianModel,
) -> tuple:
    """(report, trace on ``grid``): the current's discrete divergence on a grid
    solution of ``lagrangian`` and on its refinement, judged by :func:`refinement`.

    Grids carry Lagrangian jets, so a Hamiltonian current f is evaluated as its
    pullback FL^* f by the fiber derivative (p = dL/dv), a function of (q, v).
    """
    components = current.components
    if current.side == "hamiltonian":
        momenta = dict(zip(lagrangian.table.p_names, legendre_exprs(lagrangian)))
        components = [substitute(f, momenta) for f in components]
    trace = evaluate_current(components, grid)
    refined = evaluate_current(components, refined_grid)
    passed, verdict = refinement(trace.max_divergence, refined.max_divergence,
                                 2, refined.divergence_floor, "refinement_ratio")
    details = {"max_divergence": trace.max_divergence, "interior_nodes": trace.interior_count}
    return Report("grid_divergence", trace.max_divergence, trace.interior_count, passed,
                  details | verdict), trace


def verify_bracket_theorem(
    current: NoetherCurrent, model, samples, tol: float = 1e-9
) -> Report:
    """Evaluate sum_A X_A(f^A) with the canonically constructed k-vector field."""
    side = _side(model)
    if current.side != side.name:
        raise SymmetryError("current/model side mismatch")
    chart = side.chart
    rows = point_rows(samples, len(chart))
    legs = side.legs(rows)  # (N, k, dim)
    gradients = [diff(f_A, name) for f_A in current.components for name in chart]
    values = evaluate_batch(gradients, chart, rows).reshape(legs.shape)
    return judge("kvector_bracket_sum", tol, np.sum(legs * values, axis=(1, 2)))


# ---------------------------------------------------------------------------
# finite-symmetry check by transporting solutions

def check_symmetry_by_transport(
    Phi: TotalMap,
    model,
    section: Section,
    t_samples: np.ndarray,
    tol: float = 1e-10,
):
    """Map a solution through Phi and measure the field-equation residual of
    the image; the pass tolerance follows the input solution's own residual
    (an exact solution demands an exact image)."""
    table = Phi.table
    side = _side(model)
    t_rows = point_rows(t_samples, table.k)
    image = Section(table, section.side, tuple(map(section.restrict, Phi.components)))
    input_res = judge("transport_input", tol, side.residual(section, t_rows)).max_residual
    threshold = max(tol, 10.0 * input_res)
    reports = [judge("transport_field_equations", threshold, side.residual(image, t_rows),
                     {"input_residual": input_res})]
    if side.name == "lagrangian":
        # the image must itself be a first prolongation: fiber components of the
        # image agree with the t-derivatives of its base part
        holonomic = Section.prolongation(table, image.base).components
        gaps = [sub(a, b) for a, b in zip(holonomic[table.n:], image.components[table.n:])]
        reports.append(judge("transport_prolongation_consistency", threshold,
                             evaluate_batch(gaps, table.t_names, t_rows)))
    return reports
