"""Command-line surface: analyze | solve | noether | check-symmetry | gauge.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a
``CheckFailure``), 2 input error (an ``InputError``).
Reports are JSON (sorted keys, fixed layout), so identical model files and
seeds produce byte-identical outputs; grids and current traces go to CSV.
Under --out, each file is named after its command and its symmetry or
solution (for example noether_<symmetry>.json); README.md lists them all.

``analyze`` runs here, on the model-file stack and the sampler.  Every
other command lives in the module ``_MODULES`` names, which ``main``
imports when it dispatches to it, so a command loads only the layers it calls.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bundles import fold_constant
from .expr import to_source
from .forms import judge
from .hamiltonian import ham_kvector, kvector_equation_residual
from .lagrangian import energy, hessian_entries, legendre, poincare_cartan_form, velocity_hessian
from .modelfile import AnalyticSolution, ModelSpec, load_model
from .records import CheckFailure, InputError
from .sampling import _chart_box, scale

_MODULES = {"solve": "cli_solve", "noether": "cli_symmetry", "check-symmetry": "cli_symmetry",
            "gauge": "cli_gauge"}


class UsageError(InputError):
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
        if not 0.0 <= value < math.inf:
            raise UsageError(f"--tol {key}: expected a finite non-negative number")
        spec.tolerances[key] = value
    return spec


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        raise UsageError(f"--out {args.out}: {exc.strerror or exc}") from None
    return path


def _emit(payload: dict, out: Path | None, filename: str):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        (out / filename).write_text(text)


def _design(spec: ModelSpec):
    """The command's one unit design; every sample of the command scales it."""
    try:
        return spec.design()
    except (MemoryError, ValueError) as exc:  # an array past the address space or index range
        raise UsageError(f"sample count {spec.samples} is too large: {exc}") from None


def _samples(spec: ModelSpec, side: str):
    """Sample points of the side's chart, one row each."""
    return scale(_design(spec), _chart_box(spec.table, side, spec.box))


def _model(spec: ModelSpec, side: str):
    """The file's model of the side; a usage error when the file has none."""
    model = spec.lagrangian if side == "lagrangian" else spec.hamiltonian
    if model is None:
        raise UsageError(f"no {side} model in the file")
    return model


def _t_samples(spec: ModelSpec, solution: AnalyticSolution):
    """Parameter points over the solution's box, the leading k columns of the
    design the chart samples scale."""
    return scale(_design(spec), solution.t_box or [(0.0, 1.0)] * spec.table.k)


def _named(declared: dict, what: str, name: str):
    """The model's ``what`` (solution or symmetry) called ``name``."""
    if name not in declared:
        raise UsageError(f"model declares no {what} named {name!r}")
    return declared[name]


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
        n, k = table.n, table.k
        images = [
            {
                "q": row[:n].tolist(),
                "v": row[n:].reshape(k, n).T.tolist(),
                "p": image[n:].reshape(k, n).tolist(),
            }
            for row, image in zip(samples[:3], legendre(model, samples[:3]))
        ]
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
        kvector = judge("kvector", spec.tol("kvector"), residuals)
        report["hamiltonian"] = {
            "hamiltonian": to_source(model.H),
            "kvector_residual": kvector.max_residual,
            "kvector_pass": kvector.passed,
        }
        print(f"hamiltonian field-equation residual: {kvector.max_residual:.3e}")

    _emit(report, args.out, "analyze.json")
    return 0


_parser = None  # built by the first call of main; parsing leaves no state in it


def main(argv=None) -> int:
    global _parser
    _parser = _parser or _build_parser()
    args = _parser.parse_args(argv)
    try:
        args.out = _out_dir(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        module = importlib.import_module(f".{_MODULES[args.command]}", __package__)
        return getattr(module, "cmd_" + args.command.replace("-", "_"))(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
