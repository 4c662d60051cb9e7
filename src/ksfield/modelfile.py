"""Model-file ingestion: one YAML document describing a field theory setup.

A model file declares the dimensions, a Lagrangian and/or Hamiltonian in
the expression DSL, named symmetry candidates, named solutions (analytic
maps or solver grids), the sampling box, seed and tolerance overrides.
See README.md for the full schema.  The grid specs and symmetry candidates
live here, so loading a file loads neither the solver nor the checks.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import yaml

from .bundles import Section, TotalMap, VectorFieldQ
from .coords import VarTable
from .expr import Expr, ParseError, parse
from .forms import VectorField
from .hamiltonian import HamiltonianModel
from .lagrangian import REGULARITY_RTOL, LagrangianModel
from .records import InputError, Record, SolverError
from .sampling import halton

# libyaml's parser where PyYAML was built with it; both give the same dicts
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

DEFAULT_TOLERANCES = {
    "cartan": 1e-9,          # Lie-derivative residuals of the symmetry checks
    "noether": 1e-9,         # current construction and defining relation
    "conservation": 1e-9,    # analytic divergence along solutions
    "kvector": 1e-12,        # field-equation residual of constructed fields
    "closedness": 1e-10,     # curl of gauge one-forms
    "gauge": 1e-9,           # decomposition reconstruction
    "transport": 1e-10,      # residual of transported solutions
    "inverse": 1e-9,         # declared-inverse round trip
    "hessian": REGULARITY_RTOL,  # analyze's regularity flag
}


class ModelFileError(InputError):
    pass


class AnalyticSolution(Record):
    section: Section               # built once: one expression in t per chart coordinate
    t_box: Optional[list] = None


class GridSolution(Record):
    grid: GridSpec
    q0: Optional[list] = None      # k = 1 initial data
    v0: Optional[list] = None
    initial: Optional[tuple] = None       # k = 2: field on the periodic axis
    initial_rate: Optional[tuple] = None  # k = 2: its evolution rate


class ModelSpec(Record):
    table: VarTable
    lagrangian: Optional[LagrangianModel]
    hamiltonian: Optional[HamiltonianModel]
    symmetries: dict
    solutions: dict
    box: dict
    seed: int
    samples: int
    tolerances: dict

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def design(self) -> np.ndarray:
        """The rotated Halton unit matrix of (samples, seed), one column per
        chart coordinate: built on first use and kept while the spec lives, so
        every chart and parameter sample of a command scales its leading
        columns.  A spec whose samples or seed change gets a new one."""
        key = (self.samples, self.seed)
        if vars(self).get("_design_key") != key:
            self._design = halton(self.table.dim_total, self.samples, self.seed)
            self._design_key = key
        return self._design


class Axis(Record, frozen=True):
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise SolverError("axis step must be positive")
        if self.stop <= self.start:
            raise SolverError("axis extent must be increasing")
        count = (self.stop - self.start) / self.step
        if abs(count - round(count)) > 1e-9:
            raise SolverError(
                f"axis extent {self.stop - self.start} is not an integral number of steps {self.step}"
            )

    @property
    def count(self) -> int:
        return int(round((self.stop - self.start) / self.step))


class GridSpec(Record, frozen=True):
    """k = 1: one evolution axis.  k = 2: evolution axis then periodic axis."""

    axes: tuple

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise SolverError("time stepping supports k = 1 or k = 2 only")

    @property
    def k(self) -> int:
        return len(self.axes)

    def evolution_times(self) -> np.ndarray:
        ax = self.axes[0]
        return ax.start + ax.step * np.arange(ax.count + 1)

    def periodic_nodes(self) -> np.ndarray:
        ax = self.axes[1]
        return ax.start + ax.step * np.arange(ax.count)

    def refined(self) -> "GridSpec":
        return GridSpec(tuple(Axis(a.start, a.stop, a.step / 2) for a in self.axes))


class SymmetryCandidate(Record, frozen=True):
    """User-declared symmetry datum, built once by the loader.

    kind "vector-field-on-q": ``datum`` is a VectorFieldQ over q (lifted to
    each side by the check that reads it);
    kind "vector-field": a VectorField over the full chart of ``side``;
    kind "diffeomorphism": a TotalMap of ``side`` with its declared inverse.
    ``term`` is the k expressions its current subtracts: the gauge term g
    when a base field's current is read on the lagrangian side, zeta
    otherwise; None when the file declares none.
    """

    kind: str
    datum: object
    side: Optional[str] = None
    term: Optional[tuple] = None


def _require(mapping, key, context):
    if key not in mapping:
        raise ModelFileError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _parse_expr(source, names, context) -> Expr:
    if not isinstance(source, str):
        raise ModelFileError(f"{context}: expected a DSL string, got {source!r}")
    try:
        return parse(source, names)
    except ParseError as exc:
        raise ModelFileError(f"{context}: {exc}") from exc


def _parse_exprs(sources, names, context, count=None) -> tuple:
    if not isinstance(sources, (list, tuple)):
        raise ModelFileError(f"{context}: expected a list of DSL strings")
    if count is not None and len(sources) != count:
        raise ModelFileError(f"{context}: expected {count} entries, got {len(sources)}")
    return tuple(
        _parse_expr(src, names, f"{context}[{idx}]") for idx, src in enumerate(sources)
    )


def _float(value, context) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ModelFileError(f"{context}: expected a number, got {value!r}") from None


def _floats(values, context, count) -> list:
    floats = [_float(x, context) for x in values] if isinstance(values, list) else []
    if len(floats) != count or not all(map(math.isfinite, floats)):
        raise ModelFileError(f"{context}: expected a list of {count} finite numbers")
    return floats


def _interval(values, context) -> tuple:
    lo, hi = _floats(values, context, 2)
    if not math.isfinite(hi - lo):
        raise ModelFileError(f"{context}: the width of [{lo!r}, {hi!r}] overflows")
    return lo, hi


def _load_symmetry(name, raw, table: VarTable, default_side: str) -> SymmetryCandidate:
    """``default_side`` is the side a base field without one is read on:
    the lagrangian side when the model has a lagrangian."""
    context = f"symmetries.{name}"
    if not isinstance(raw, dict):
        raise ModelFileError(f"{context}: expected a mapping")
    kind = _require(raw, "kind", context)
    side = raw.get("side")
    if side not in (None, "lagrangian", "hamiltonian"):
        raise ModelFileError(f"{context}: unknown side {side!r}")
    if kind not in ("vector-field-on-q", "vector-field", "diffeomorphism"):
        raise ModelFileError(f"{context}: unknown kind {kind!r}")
    if side is None and kind != "vector-field-on-q":
        plural = "general vector fields" if kind == "vector-field" else "diffeomorphisms"
        raise ModelFileError(f"{context}: {plural} need a side")
    # the entry a current reads: "gauge" (the term g of a natural lagrangian
    # symmetry) or "zeta"; none for a diffeomorphism, which has no current
    read_side = side or default_side
    natural = kind == "vector-field-on-q" and read_side == "lagrangian"
    read = None if kind == "diffeomorphism" else "gauge" if natural else "zeta"
    for entry in ("gauge", "zeta"):
        if raw.get(entry) is not None and entry != read:
            on_side = f" on the {read_side} side" if read else ""
            raise ModelFileError(f"{context}.{entry}: a {kind}{on_side} never reads it")

    chart = table.q_names if kind == "vector-field-on-q" else table.chart(side)
    comps = _parse_exprs(
        _require(raw, "components", context), chart, f"{context}.components", len(chart)
    )
    if kind == "diffeomorphism":
        inverse = _parse_exprs(
            _require(raw, "inverse", context), chart, f"{context}.inverse", len(chart)
        )
        return SymmetryCandidate(kind, TotalMap(table, side, comps, inverse), side)
    term = None
    if raw.get(read) is not None:  # g is over q, zeta over the chart its current is read on
        term_chart = table.q_names if read == "gauge" else table.chart(read_side)
        term = _parse_exprs(raw[read], term_chart, f"{context}.{read}", table.k)
    if kind == "vector-field-on-q":
        return SymmetryCandidate(kind, VectorFieldQ(table, comps), side, term)
    return SymmetryCandidate(kind, VectorField(chart, comps), side, term)


def _load_solution(name, raw, table: VarTable):
    context = f"solutions.{name}"
    if not isinstance(raw, dict):
        raise ModelFileError(f"{context}: expected a mapping")
    kind = _require(raw, "kind", context)

    if kind == "analytic":
        side = raw.get("side", "lagrangian")
        comps = _parse_exprs(
            _require(raw, "components", context), table.t_names, f"{context}.components", table.n
        )
        if side == "hamiltonian":
            rows = _require(raw, "momenta", context)
            if not isinstance(rows, (list, tuple)) or len(rows) != table.k:
                raise ModelFileError(f"{context}.momenta: expected {table.k} rows")
            for A, row in enumerate(rows):
                comps += _parse_exprs(row, table.t_names, f"{context}.momenta[{A}]", table.n)
            section = Section(table, side, comps)
        elif side == "lagrangian":
            section = Section.prolongation(table, comps)
        else:
            raise ModelFileError(f"{context}: unknown side {side!r}")
        t_box = raw.get("t_box")
        if t_box is not None:
            if not isinstance(t_box, list) or len(t_box) != table.k:
                raise ModelFileError(f"{context}.t_box: expected {table.k} intervals")
            t_box = [_interval(box, f"{context}.t_box") for box in t_box]
        return AnalyticSolution(section, t_box)

    if kind == "grid":
        axes_raw = _require(raw, "axes", context)
        if not isinstance(axes_raw, (list, tuple)) or len(axes_raw) != table.k:
            raise ModelFileError(f"{context}.axes: expected {table.k} axes")
        try:
            grid = GridSpec(tuple(Axis(*_floats(a, f"{context}.axes", 3)) for a in axes_raw))
        except SolverError as exc:
            raise ModelFileError(f"{context}.axes: {exc}") from exc
        if table.k == 1:
            q0 = _floats(_require(raw, "q0", context), f"{context}.q0", table.n)
            v0 = _floats(_require(raw, "v0", context), f"{context}.v0", table.n)
            return GridSolution(grid, q0=q0, v0=v0)
        initial = _parse_exprs(
            _require(raw, "initial", context), ("t2",), f"{context}.initial", table.n
        )
        rate = _parse_exprs(
            _require(raw, "initial_rate", context), ("t2",), f"{context}.initial_rate", table.n
        )
        return GridSolution(grid, initial=initial, initial_rate=rate)

    raise ModelFileError(f"{context}: unknown kind {kind!r}")


def load_model(path) -> ModelSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ModelFileError(f"model file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not text
        raise ModelFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    except yaml.YAMLError as exc:
        raise ModelFileError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelFileError(f"{path}: expected a mapping at the top level")

    n = raw.get("n")
    k = raw.get("k")
    if type(n) is not int or type(k) is not int:  # not bool
        raise ModelFileError("n and k must be positive integers")
    try:
        table = VarTable(n, k)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc

    lagrangian = None
    if "lagrangian" in raw:
        expr = _parse_expr(raw["lagrangian"], table.velocity_chart, "lagrangian")
        lagrangian = LagrangianModel(table, expr)
    hamiltonian = None
    if "hamiltonian" in raw:
        expr = _parse_expr(raw["hamiltonian"], table.momentum_chart, "hamiltonian")
        hamiltonian = HamiltonianModel(table, expr)
    if lagrangian is None and hamiltonian is None:
        raise ModelFileError("model declares neither a lagrangian nor a hamiltonian")

    for key in ("box", "tolerances", "symmetries", "solutions"):
        if not isinstance(raw.get(key) or {}, dict):
            raise ModelFileError(f"{key}: expected a mapping")
    box = {}
    for name, interval in (raw.get("box") or {}).items():
        if name not in table.velocity_chart and name not in table.momentum_chart:
            raise ModelFileError(f"box: unknown coordinate {name!r}")
        box[name] = _interval(interval, f"box.{name}")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in (raw.get("tolerances") or {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise ModelFileError(f"tolerances: unknown key {key!r}")
        tolerances[key] = _float(value, f"tolerances.{key}")
        if not 0.0 <= tolerances[key] < math.inf:
            raise ModelFileError(f"tolerances.{key}: expected a finite non-negative number")

    symmetries = {
        str(name): _load_symmetry(
            name, value, table, "lagrangian" if lagrangian is not None else "hamiltonian"
        )
        for name, value in (raw.get("symmetries") or {}).items()
    }
    solutions = {
        str(name): _load_solution(name, value, table)
        for name, value in (raw.get("solutions") or {}).items()
    }

    seed = raw.get("seed", 0)
    samples = raw.get("samples", 100)
    if type(seed) is not int or type(samples) is not int or seed < 0 or samples < 1:
        raise ModelFileError("seed must be a non-negative integer and samples a positive integer")

    return ModelSpec(
        table, lagrangian, hamiltonian, symmetries, solutions, box, seed, samples, tolerances
    )
