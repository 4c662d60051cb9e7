"""The ``noether`` and ``check-symmetry`` commands: Noether currents with
their conservation along solutions, and the Cartan symmetry conditions.
Imported by ``cli.main`` on dispatch."""

from __future__ import annotations

from .cli import (
    UsageError, _apply_overrides, _emit, _model, _named, _samples, _t_samples,
)
from .cli_solve import _require_levels, _run_grid
from .expr import to_source
from .modelfile import AnalyticSolution, load_model
from .records import all_pass
from .symmetry import (
    CurrentRejection, check_cartan, check_cartan_diffeomorphism, check_symmetry_by_transport,
    noether_current, verify_bracket_theorem, verify_conservation,
)


def _verdict(payload: dict, reports, out, filename: str) -> int:
    """Write the payload with the reports, print one line per report; the exit code."""
    payload["reports"] = [r.as_dict() for r in reports]
    _emit(payload, out, filename)
    for r in reports:
        print(f"{r.condition}: max residual {r.max_residual:.3e} "
              f"({'pass' if r.passed else 'FAIL'})")
    return 0 if all_pass(reports) else 1


def cmd_noether(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    table = spec.table
    candidate = _named(spec.symmetries, "symmetry", args.symmetry)
    if candidate.kind == "diffeomorphism":
        raise UsageError("currents come from infinitesimal symmetries; use check-symmetry")
    side = candidate.side or ("lagrangian" if spec.lagrangian is not None else "hamiltonian")
    model = _model(spec, side)
    solution = None
    if args.solution is not None:  # a bad solution is a usage error before any work
        solution = _named(spec.solutions, "solution", args.solution)
        if isinstance(solution, AnalyticSolution):
            if solution.section.side != side:
                raise UsageError("solution and current live on different sides")
        else:
            _require_levels(solution, args.solution, 5, "a noether trace")  # a divergence band
    samples = _samples(spec, side)
    stem = f"noether_{args.symmetry}"  # one report per symmetry, whatever the solution

    reports = []
    payload = {"command": "noether", "symmetry": args.symmetry, "side": side}
    try:
        current = noether_current(
            candidate.datum, model, candidate.term, samples, spec.tol("noether")
        )
    except CurrentRejection as exc:
        payload["constructed"] = False
        payload["rejection"] = {"message": str(exc), "max_residual": exc.residual}
        _emit(payload, args.out, f"{stem}.json")
        print(f"current rejected: {exc}")
        return 1

    payload["constructed"] = True
    payload["current"] = [to_source(f) for f in current.components]
    payload["provenance"] = current.provenance
    print("current: " + ", ".join(payload["current"]))

    bracket = verify_bracket_theorem(current, model, samples, tol=spec.tol("cartan"))
    reports.append(bracket)

    if isinstance(solution, AnalyticSolution):
        report = verify_conservation(
            current, table, section=solution.section,
            t_samples=_t_samples(spec, solution), tol=spec.tol("conservation"),
        )
        reports.append(report)
    elif solution is not None:
        sol = _run_grid(spec, solution, solution.grid, args.solution)
        refined = _run_grid(spec, solution, solution.grid.refined(), args.solution)
        report = verify_conservation(
            current, table, grid=sol, refined_grid=refined, model=spec.lagrangian
        )
        reports.append(report)
        if args.out is not None:
            report.trace.to_csv(args.out / f"{stem}_trace.csv")

    return _verdict(payload, reports, args.out, f"{stem}.json")


def cmd_check_symmetry(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    candidate = _named(spec.symmetries, "symmetry", args.symmetry)
    tol = spec.tol("cartan")
    reports = []
    payload = {"command": "check-symmetry", "symmetry": args.symmetry, "kind": candidate.kind}

    if candidate.kind == "diffeomorphism":
        side = candidate.side
        model = _model(spec, side)
        Phi = candidate.datum
        samples = _samples(spec, side)
        Phi.verify_inverse(samples[: min(10, len(samples))], spec.tol("inverse"))
        reports.extend(check_cartan_diffeomorphism(Phi, model, samples, tol))
        for name, solution in sorted(spec.solutions.items()):
            if not isinstance(solution, AnalyticSolution) or solution.section.side != side:
                continue
            for r in check_symmetry_by_transport(
                Phi, model, solution.section, _t_samples(spec, solution), spec.tol("transport")
            ):
                r.details["solution"] = name
                reports.append(r)
    else:
        sides = [candidate.side] if candidate.side else ["lagrangian", "hamiltonian"]
        checked = False
        for side in sides:
            model = spec.lagrangian if side == "lagrangian" else spec.hamiltonian
            if model is None:
                continue
            for r in check_cartan(candidate.datum, model, _samples(spec, side), tol):
                r.details["side"] = side
                reports.append(r)
            checked = True
        if not checked:
            raise UsageError("no model present for the candidate's side")

    return _verdict(payload, reports, args.out, f"check_{args.symmetry}.json")
