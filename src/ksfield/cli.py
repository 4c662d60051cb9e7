"""Command-line surface: analyze | solve | noether | check-symmetry | gauge.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input error.
Reports are JSON (sorted keys, fixed layout), so identical model files and
seeds produce byte-identical outputs; grids and current traces go to CSV.
Under --out, each file is named after its command and its symmetry or
solution (for example noether_<symmetry>.json); README.md lists them all.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bundles import BundleError, CoJetPoint, JetPoint, fold_constant
from .expr import EvalError, ParseError, to_source
from .gauge import GaugeError, gauge_compare, verify_same_solutions
from .hamiltonian import ham_kvector, kvector_equation_residual
from .lagrangian import (
    RegularityError,
    energy,
    hessian_entries,
    legendre,
    poincare_cartan_form,
    velocity_hessian,
)
from .modelfile import (
    AnalyticSolution,
    GridSolution,
    ModelFileError,
    ModelSpec,
    load_model,
)
from .sampling import sample_parameters, sample_points
from .solver import (
    NotHyperbolicError,
    SolverError,
    integrate_k1,
    integrate_k2_hyperbolic,
    self_convergence_ratio,
)
from .symmetry import (
    CurrentRejection,
    SymmetryError,
    all_pass,
    check_cartan,
    check_cartan_diffeomorphism,
    check_symmetry_by_transport,
    gauge_entry,
    noether_current,
    verify_bracket_theorem,
    verify_conservation,
)

NOMINAL_ORDER = {1: 4.0, 2: 2.0}  # RK4 and leapfrog respectively


class UsageError(ValueError):
    pass


def _tolerance_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected KEY=VALUE")
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance value {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksfield",
        description="Geometric analysis of first-order field theories: "
        "forms, field equations, symmetries, conservation laws, gauge equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="directory for JSON/CSV outputs")
        p.add_argument("--seed", type=int, help="override the model seed")
        p.add_argument("--samples", type=int, help="override the sample count")
        p.add_argument(
            "--tol",
            action="append",
            type=_tolerance_override,
            default=[],
            metavar="KEY=VAL",
            help="override a named tolerance",
        )

    p = sub.add_parser("analyze", help="forms, energy, regularity, fiber derivative")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("solve", help="run the named grid solution")
    p.add_argument("model")
    p.add_argument("--solution", required=True)
    common(p)

    p = sub.add_parser("noether", help="construct and verify a conserved current")
    p.add_argument("model")
    p.add_argument("--symmetry", required=True)
    p.add_argument("--solution")
    common(p)

    p = sub.add_parser("check-symmetry", help="verify symmetry conditions")
    p.add_argument("model")
    p.add_argument("--symmetry", required=True)
    common(p)

    p = sub.add_parser("gauge", help="compare two Lagrangian models")
    p.add_argument("model1")
    p.add_argument("model2")
    common(p)

    return parser


def _apply_overrides(spec: ModelSpec, args) -> ModelSpec:
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError("--seed must be non-negative")
        spec.seed = args.seed
    if args.samples is not None:
        if args.samples < 1:
            raise UsageError("--samples must be positive")
        spec.samples = args.samples
    for key, value in args.tol:
        if key not in spec.tolerances:
            raise UsageError(f"unknown tolerance key {key!r}")
        spec.tolerances[key] = value
    return spec


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(payload: dict, out: Path | None, filename: str):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        (out / filename).write_text(text)


def _samples(spec: ModelSpec, side: str):
    """Sample points of the side's chart, one row each."""
    try:
        return sample_points(spec.table, side, spec.samples, spec.seed, spec.box)
    except MemoryError as exc:  # numpy refuses an array past the address space at once
        raise UsageError(f"sample count {spec.samples} is too large: {exc}") from None


def _model(spec: ModelSpec, side: str):
    """The file's model of the side; a usage error when the file has none."""
    model = spec.lagrangian if side == "lagrangian" else spec.hamiltonian
    if model is None:
        raise UsageError(f"no {side} model in the file")
    return model


def _t_samples(spec: ModelSpec, solution: AnalyticSolution):
    t_box = solution.t_box or [(0.0, 1.0)] * spec.table.k
    return sample_parameters(spec.table, spec.samples, spec.seed, t_box)


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    table = spec.table
    report = {"command": "analyze", "n": table.n, "k": table.k, "seed": spec.seed}

    if spec.lagrangian is not None:
        model = spec.lagrangian
        samples = _samples(spec, "lagrangian")
        hessians, regular = velocity_hessian(model, samples, spec.tol("hessian"))
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: the report shows inf
            dets = fold_constant(np.linalg.det, hessian_entries(model), hessians)
        regular_everywhere = bool(np.all(regular))
        images = []
        for row, image in zip(samples[:3], legendre(model, samples[:3])):
            w, p = JetPoint.from_flat(table, row), CoJetPoint.from_flat(table, image)
            images.append(
                {
                    "q": [float(x) for x in w.q],
                    "v": [[float(x) for x in row] for row in w.v],
                    "p": [[float(x) for x in row] for row in p.p],
                }
            )
        report["lagrangian"] = {
            "theta": [
                [to_source(c) for c in poincare_cartan_form(model, A).coeffs[: table.n]]
                for A in range(table.k)
            ],
            "energy": to_source(energy(model)),
            "regular": regular_everywhere,
            "hessian_det_min": float(np.min(dets)),
            "hessian_det_max": float(np.max(dets)),
            "legendre_images": images,
        }
        print(f"energy: {report['lagrangian']['energy']}")
        print(f"regular: {str(regular_everywhere).lower()} ({len(samples)} samples)")
        if not regular_everywhere:
            print(
                "warning: velocity Hessian is singular at sampled points; "
                "field-equation solvers will reject this model",
                file=sys.stderr,
            )
        for A in range(table.k):
            print(f"theta[{A + 1}]: {report['lagrangian']['theta'][A]}")

    if spec.hamiltonian is not None:
        model = spec.hamiltonian
        samples = _samples(spec, "hamiltonian")
        residuals = kvector_equation_residual(model, samples, ham_kvector(model, samples))
        worst = float(np.max(residuals, initial=0.0))
        report["hamiltonian"] = {
            "hamiltonian": to_source(model.H),
            "kvector_residual": worst,
            "kvector_pass": worst <= spec.tol("kvector"),
        }
        print(f"hamiltonian field-equation residual: {worst:.3e}")

    _emit(report, _out_dir(args), "analyze.json")
    return 0


# ---------------------------------------------------------------------------
# solve

def _run_grid(spec: ModelSpec, solution: GridSolution, name: str):
    if spec.lagrangian is None:
        raise UsageError("grid solutions need a lagrangian model")
    try:
        if spec.table.k == 1:
            return integrate_k1(spec.lagrangian, solution.q0, solution.v0, solution.grid)
        return integrate_k2_hyperbolic(
            spec.lagrangian, solution.initial, solution.initial_rate, solution.grid
        )
    except MemoryError as exc:  # numpy refuses an array past the address space at once
        raise UsageError(f"grid of solution {name!r} is too large: {exc}") from None


def _named_solution(spec: ModelSpec, name: str):
    if name not in spec.solutions:
        raise UsageError(f"model declares no solution named {name!r}")
    return spec.solutions[name]


def cmd_solve(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    solution = _named_solution(spec, args.solution)
    if not isinstance(solution, GridSolution):
        raise UsageError(f"solution {args.solution!r} is not a grid solution")

    runs = [solution.grid, solution.grid.refined(), solution.grid.refined().refined()]
    sols = [_run_grid(spec, replace(solution, grid=grid), args.solution) for grid in runs]

    ratio = self_convergence_ratio(sols)
    nominal = 2.0 ** NOMINAL_ORDER[spec.table.k]
    converged = nominal / 1.6 <= ratio <= nominal * 1.6
    payload = {
        "command": "solve",
        "solution": args.solution,
        "convergence_ratio": ratio,
        "nominal_ratio": nominal,
        "converged": bool(converged),
        "summary": {k: float(v) for k, v in sols[0].summary.items()},
    }
    out = _out_dir(args)
    if out is not None:
        sols[0].to_csv(out / f"{args.solution}_grid.csv")
    _emit(payload, out, f"{args.solution}_solve.json")
    print(f"convergence ratio: {ratio:.3f} (nominal {nominal:.0f})")
    return 0 if converged else 1


# ---------------------------------------------------------------------------
# noether

def cmd_noether(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    table = spec.table
    if args.symmetry not in spec.symmetries:
        raise UsageError(f"model declares no symmetry named {args.symmetry!r}")
    candidate = spec.symmetries[args.symmetry]
    if candidate.kind == "diffeomorphism":
        raise UsageError("currents come from infinitesimal symmetries; use check-symmetry")
    side = candidate.side or ("lagrangian" if spec.lagrangian is not None else "hamiltonian")
    model = _model(spec, side)
    samples = _samples(spec, side)
    stem = f"noether_{args.symmetry}"  # one report per symmetry, whatever the solution

    reports = []
    payload = {"command": "noether", "symmetry": args.symmetry, "side": side}
    try:
        current = noether_current(
            candidate.vector_field(table), model,
            getattr(candidate, gauge_entry(candidate.kind, side)), samples, spec.tol("noether"),
        )
    except CurrentRejection as exc:
        payload["constructed"] = False
        payload["rejection"] = {"message": str(exc), "max_residual": exc.residual}
        _emit(payload, _out_dir(args), f"{stem}.json")
        print(f"current rejected: {exc}")
        return 1

    payload["constructed"] = True
    payload["current"] = [to_source(f) for f in current.components]
    payload["provenance"] = current.provenance
    print("current: " + ", ".join(payload["current"]))

    bracket = verify_bracket_theorem(current, model, samples, tol=spec.tol("cartan"))
    reports.append(bracket)

    out = _out_dir(args)
    if args.solution is not None:
        solution = _named_solution(spec, args.solution)
        if isinstance(solution, AnalyticSolution):
            if solution.section.side != side:
                raise UsageError("solution and current live on different sides")
            report = verify_conservation(
                current, table, section=solution.section,
                t_samples=_t_samples(spec, solution), tol=spec.tol("conservation"),
            )
            reports.append(report)
        else:
            sol = _run_grid(spec, solution, args.solution)
            finer = replace(solution, grid=solution.grid.refined())
            refined = _run_grid(spec, finer, args.solution)
            report = verify_conservation(
                current, table, grid=sol, refined_grid=refined, model=spec.lagrangian
            )
            reports.append(report)
            if out is not None:
                report.trace.to_csv(out / f"{stem}_trace.csv")

    payload["reports"] = [r.as_dict() for r in reports]
    _emit(payload, out, f"{stem}.json")
    for r in reports:
        print(f"{r.condition}: max residual {r.max_residual:.3e} "
              f"({'pass' if r.passed else 'FAIL'})")
    return 0 if all_pass(reports) else 1


# ---------------------------------------------------------------------------
# check-symmetry

def cmd_check_symmetry(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    table = spec.table
    if args.symmetry not in spec.symmetries:
        raise UsageError(f"model declares no symmetry named {args.symmetry!r}")
    candidate = spec.symmetries[args.symmetry]
    tol = spec.tol("cartan")
    reports = []
    payload = {"command": "check-symmetry", "symmetry": args.symmetry, "kind": candidate.kind}

    if candidate.kind == "diffeomorphism":
        side = candidate.side
        model = _model(spec, side)
        Phi = candidate.total_map(table, side)
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
        Y = candidate.vector_field(table)
        checked = False
        for side in sides:
            model = spec.lagrangian if side == "lagrangian" else spec.hamiltonian
            if model is None:
                continue
            for r in check_cartan(Y, model, _samples(spec, side), tol):
                r.details["side"] = side
                reports.append(r)
            checked = True
        if not checked:
            raise UsageError("no model present for the candidate's side")

    payload["reports"] = [r.as_dict() for r in reports]
    _emit(payload, _out_dir(args), f"check_{args.symmetry}.json")
    for r in reports:
        print(f"{r.condition}: max residual {r.max_residual:.3e} "
              f"({'pass' if r.passed else 'FAIL'})")
    return 0 if all_pass(reports) else 1


# ---------------------------------------------------------------------------
# gauge

def cmd_gauge(args) -> int:
    spec1 = _apply_overrides(load_model(args.model1), args)
    spec2 = load_model(args.model2)
    if spec1.lagrangian is None or spec2.lagrangian is None:
        raise UsageError("gauge comparison needs lagrangian models in both files")
    if spec1.table != spec2.table:
        raise UsageError(
            f"dimension mismatch: (n={spec1.table.n}, k={spec1.table.k}) vs "
            f"(n={spec2.table.n}, k={spec2.table.k})"
        )

    samples = _samples(spec1, "lagrangian")
    verdict = gauge_compare(
        spec1.lagrangian,
        spec2.lagrangian,
        samples,
        tol=spec1.tol("gauge"),
        closedness_tol=spec1.tol("closedness"),
    )
    payload = {"command": "gauge"}
    payload.update(verdict.as_dict())
    print(f"verdict: {verdict.kind}")

    shared = sorted(
        name
        for name, sol in spec1.solutions.items()
        if isinstance(sol, AnalyticSolution)
        and sol.section.side == "lagrangian"
        and isinstance(spec2.solutions.get(name), AnalyticSolution)
    )
    reports = []
    for name in shared:
        solution = spec1.solutions[name]
        t_samples = _t_samples(spec1, solution)
        r = verify_same_solutions(
            spec1.lagrangian, spec2.lagrangian, solution.section.base, t_samples,
            tol=spec1.tol("gauge"),
        )
        r.details["solution"] = name
        reports.append(r)
        print(f"shared solution {name}: residual gap {r.max_residual:.3e} "
              f"({'pass' if r.passed else 'FAIL'})")
    payload["same_solutions"] = [r.as_dict() for r in reports]
    _emit(payload, _out_dir(args), "gauge.json")

    equivalent = verdict.kind in ("strict", "gauge")
    return 0 if equivalent and all_pass(reports) else 1


# ---------------------------------------------------------------------------

_COMMANDS = {
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "noether": cmd_noether,
    "check-symmetry": cmd_check_symmetry,
    "gauge": cmd_gauge,
}


_parser = None  # built by the first call of main; parsing leaves no state in it


def main(argv=None) -> int:
    global _parser
    _parser = _parser or _build_parser()
    args = _parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ModelFileError, UsageError, ParseError, BundleError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RegularityError, SolverError, NotHyperbolicError, GaugeError, SymmetryError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
