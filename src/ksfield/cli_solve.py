"""The ``solve`` command: run a grid solution at three resolutions and check
its convergence order.  Imported by ``cli.main`` on dispatch."""

from __future__ import annotations

from .cli import UsageError, _apply_overrides, _emit, _named
from .modelfile import GridSolution, ModelSpec, load_model
from .solver import INTEGRATOR_ORDER, _grid_gap, integrate_k1, integrate_k2_hyperbolic, refinement


def _run_grid(spec: ModelSpec, solution: GridSolution, grid, name: str):
    """The solution's initial data run on ``grid``."""
    try:
        if spec.table.k == 1:
            return integrate_k1(spec.lagrangian, solution.q0, solution.v0, grid)
        return integrate_k2_hyperbolic(
            spec.lagrangian, solution.initial, solution.initial_rate, grid
        )
    except MemoryError as exc:  # numpy refuses an array past the address space at once
        raise UsageError(f"grid of solution {name!r} is too large: {exc}") from None


def _require_levels(spec: ModelSpec, solution: GridSolution, name: str, needed: int,
                    purpose: str):
    """A usage error, before any run, when the file has no Lagrangian to run
    the grid solution, or its grid has fewer evolution levels than
    ``purpose`` needs; refined grids only add levels."""
    if spec.lagrangian is None:
        raise UsageError("grid solutions need a lagrangian model")
    levels = solution.grid.axes[0].count + 1
    if levels < needed:
        raise UsageError(f"grid of solution {name!r} has {levels} evolution levels; "
                         f"{purpose} needs at least {needed}")


def cmd_solve(args) -> int:
    spec = _apply_overrides(load_model(args.model), args)
    solution = _named(spec.solutions, "solution", args.solution)
    if not isinstance(solution, GridSolution):
        raise UsageError(f"solution {args.solution!r} is not a grid solution")
    _require_levels(spec, solution, args.solution, 3, "solve")  # the jet stencils

    sols = [_run_grid(spec, solution, solution.grid, args.solution)]
    for _ in range(2):  # each refinement is made once the grid before it has run
        sols.append(_run_grid(spec, solution, sols[-1].spec.refined(), args.solution))

    order = INTEGRATOR_ORDER[spec.table.k]
    converged, verdict = refinement(_grid_gap(*sols[:2]), _grid_gap(*sols[1:]), order,
                                    sols[2].gap_floor, "convergence_ratio")
    payload = {
        "command": "solve",
        "solution": args.solution,
        "nominal_ratio": 2.0 ** order,
        "converged": converged,
        "summary": {k: float(v) for k, v in sols[0].summary.items()},
        **verdict,
    }
    if args.out is not None:
        sols[0].to_csv(args.out / f"{args.solution}_grid.csv")
    _emit(payload, args.out, f"{args.solution}_solve.json")
    ratio = "undefined" if (r := verdict["convergence_ratio"]) is None else f"{r:.3f}"
    print(f"convergence ratio: {ratio} (nominal {2.0 ** order:.0f})")
    return 0 if converged else 1
