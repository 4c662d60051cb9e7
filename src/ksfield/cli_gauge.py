"""The ``gauge`` command: decide whether two Lagrangians are gauge equivalent
and compare their field equations along shared solutions.  Imported by
``cli.main`` on dispatch."""

from __future__ import annotations

from .cli import UsageError, _apply_overrides, _emit, _samples, _t_samples
from .gauge import gauge_compare, verify_same_solutions
from .modelfile import AnalyticSolution, load_model
from .records import all_pass


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
        spec1.lagrangian, spec2.lagrangian, samples,
        tol=spec1.tol("gauge"), closedness_tol=spec1.tol("closedness"),
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
    _emit(payload, args.out, "gauge.json")

    equivalent = verdict.kind in ("strict", "gauge")
    return 0 if equivalent and all_pass(reports) else 1
