"""Desk-scale field-equation integrators and discrete conservation machinery.

Time stepping covers k = 1 (fourth-order Runge-Kutta on the reduced
second-order system) and k = 2 (leapfrog in t1 with a periodic t2 axis);
general k remains available through the residual/verification entry points
of the lagrangian and hamiltonian modules.  Grids store the field values
plus stencil-derived first jets: centered differences inside, three-point
one-sided at the evolution-axis ends.
"""

from __future__ import annotations

import math
import re
import warnings
from functools import cached_property
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .coords import VarTable
from .expr import (
    DomainError, Expr, Var, compile_source, diff, evaluate_columns, free_vars, is_zero_expr, mul,
    sub, walk,
)
from .lagrangian import (
    REGULARITY_RTOL, LagrangianModel, RegularityError, energy, hessian_entries, velocity_hessian,
)
from .modelfile import Axis, GridSpec  # grid specs live with the model file; importable here too
from .records import Record, SolverError


class NotHyperbolicError(SolverError):
    """The Lagrangian cannot be certified explicit-hyperbolic for leapfrog."""


class CFLWarning(UserWarning):
    pass


class SolutionGrid(Record):
    """Discretized field with stencil-derived first-jet values.

    ``phi`` has shape (levels, n) for k = 1 and (levels, nodes, n) for k = 2;
    ``jets`` appends (n, k) per node and is computed from the stencil on
    first read (or set).  ``state_v`` (k = 1 only) keeps the integrator's
    exact velocities: with ``phi`` they are the states over which
    :func:`integrate_k1` evaluates the energy drift.  The stored jets always
    come from the declared stencil.
    """

    table: VarTable
    spec: GridSpec
    phi: np.ndarray
    state_v: Optional[np.ndarray] = None
    summary: dict = {}

    def __post_init__(self):
        if self.phi.shape[0] < 3:
            raise SolverError("need at least three evolution levels for jet stencils")

    @property
    def k(self) -> int:
        return self.spec.k

    @cached_property
    def jets(self) -> np.ndarray:
        return self.jets_from_stencil()

    def gap_floor(self) -> float:
        """2*eps*levels*max|phi|: each grid of a gap rounds by eps*max|phi| per level."""
        return 2 * EPS * len(self.phi) * np.max(np.abs(self.phi))

    def jets_from_stencil(self) -> np.ndarray:
        """Centred differences written straight into the jets array; at the
        evolution-axis ends, second-order one-sided ones keep the O(h^2)
        consistency bound."""
        h1 = self.spec.axes[0].step
        phi = self.phi
        jets = np.empty(phi.shape + (self.k,))
        _centred(phi[2:], phi[:-2], h1, jets[1:-1, ..., 0])
        jets[0, ..., 0] = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * h1)
        jets[-1, ..., 0] = (3 * phi[-1] - 4 * phi[-2] + phi[-3]) / (2 * h1)
        if self.k == 2:
            _centred_periodic(phi, self.spec.axes[1].step, jets[..., 1])
        return jets

    def node_coordinates(self):
        ts = self.spec.evolution_times()
        if self.k == 1:
            return (ts,)
        return ts, self.spec.periodic_nodes()

    def _csv_columns(self):
        """Header and per-node columns (shape of the grid) of the CSV form:
        node coordinates, field values, then the jets v^i_A."""
        table, k = self.table, self.k
        header = [f"t{A + 1}" for A in range(k)]
        header += [f"phi{i + 1}" for i in range(table.n)]
        header += [table.v(i, A) for i in range(table.n) for A in range(k)]
        columns = list(np.broadcast_arrays(*np.ix_(*self.node_coordinates())))
        columns += [self.phi[..., i] for i in range(table.n)]
        columns += [self.jets[..., i, A] for i in range(table.n) for A in range(k)]
        return header, columns

    def to_csv(self, path):
        _write_csv(path, *self._csv_columns())


CSV_BLOCK_ROWS = 512
# Wide rows get fewer, but a level is never split.  A block of several levels
# holds at most 2048 cells, so its orjson text stays under 64 KiB (at most 25
# bytes a cell, 3 a row break) and below glibc's 128 KiB mmap threshold, whose
# dynamic rise fragments the heap and raises peak RSS by a few MB.  A level of
# more cells is a block of its own, whatever its size: each 628-row level of
# the wave's `noether --symmetry shift --solution run` trace is about 80 KB of
# orjson text (at level 50: 77670 bytes for the 7 columns after t1, 80810
# with it; 88063 at most), and each level of its 5-column grid about 50 KB.
CSV_BLOCK_CELLS = 2048
_ROW_BREAK = re.compile(rb"\],\[")  # a literal pattern: faster than bytes.replace


def _cell(x: float) -> bytes:
    """One cell as the CSV spells it: orjson's shortest round-trip digits
    (1e16, 1.5e-6, 0.000015), or repr's nan, inf and -inf, which orjson writes as null."""
    import orjson

    return orjson.dumps(x) if math.isfinite(x) else repr(x).encode()


def _write_csv(path, header, columns):
    """One CSV row per grid node, each cell spelled by :func:`_cell` (no
    quoting; rows end in CRLF), formatted by orjson in blocks of whole levels
    (at most CSV_BLOCK_ROWS rows and CSV_BLOCK_CELLS cells unless one level
    holds more); orjson's nulls are respelled.  A block of several rows whose
    first column is bitwise one value (t1 on a level of a k = 2 grid) is
    formatted without that column; the value is spelled once and starts each row."""
    import orjson  # only commands that write a CSV load it

    rows = min(CSV_BLOCK_ROWS, CSV_BLOCK_CELLS // len(columns))
    levels_per_block = max(1, rows // columns[0][0].size)  # nodes per level
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), levels_per_block):
            stop = start + levels_per_block
            first = columns[0][start:stop].reshape(-1)
            # orjson 3.8.3 spends about 77 ns on a cell like 0.25 and 102 ns
            # on 1.0, but 42-44 ns on 17 digits, so a first column of one
            # value (t1 on a level) is left out of the block and spelled once
            bits = first.tobytes()  # compared bitwise: 0.0 and -0.0 differ
            one_value = (len(first) > 1 and len(columns) > 1
                         and bits == bits[:first.itemsize] * len(first))
            row_start = b"\r\n" + (_cell(float(first[0])) + b"," if one_value else b"")
            block = np.column_stack(
                [c[start:stop].reshape(-1) for c in (columns[1:] if one_value else columns)]
            )
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
            handle.write(row_start[2:])  # the first row's start
            text = _ROW_BREAK.sub(row_start, memoryview(text)[2:])  # after the "[["
            pieces = text.split(b"null")
            if len(pieces) > 1:  # the non-finite cells, in order
                cells = [_cell(x) for x in block[~np.isfinite(block)].tolist()]
                text = b"".join(chain.from_iterable(zip(pieces, cells + [b""])))
            handle.write(memoryview(text)[:-2])  # without the closing "]]"
            handle.write(b"\r\n")


def _centred(ahead: np.ndarray, behind: np.ndarray, h: float, out: np.ndarray):
    """out = (ahead - behind) / (2 h), in place."""
    np.subtract(ahead, behind, out=out)
    np.divide(out, 2 * h, out=out)


def _centred_periodic(f: np.ndarray, h: float, out: np.ndarray):
    """The centred difference of ``f`` along its periodic axis 1, in place.  The
    wrap columns read across the seam, their neighbours' indices taken modulo
    the node count, so an axis of one or two nodes is covered too."""
    nodes = f.shape[1]
    np.subtract(f[:, 2:], f[:, :-2], out=out[:, 1:-1])
    np.subtract(f[:, 1 % nodes], f[:, -1], out=out[:, 0])
    np.subtract(f[:, 0], f[:, -2 % nodes], out=out[:, -1])
    np.divide(out, 2 * h, out=out)


# ---------------------------------------------------------------------------
# k = 1: Runge-Kutta on the reduced second-order system

def _forces(model: LagrangianModel, A: int) -> list:
    """dL/dq_i - sum_j (d2L/dv^i_A dq_j) v^j_A for each i: the part of the
    field equation along t^A that is not the velocity-Hessian term."""
    table = model.table
    forces = []
    for i in range(table.n):
        force, momentum = model.dLdq(i), model.dLdv(i, A)
        for j in range(table.n):
            force = sub(force, mul(diff(momentum, table.q(j)), Var(table.v(j, A))))
        forces.append(force)
    return forces


# One RK4 step on Python floats; _rk4_step fills in the model's prologue and stage.
_RK4_STEP = """{prologue}
def _fn(_state, _steps):
    {Y} = {X} = _state
    for _stage in range(4):
        {stage}
        {K} = {slope}
        if _stage == 0:
            {A} = {K}
        elif _stage < 3:
            {A} = {A2K}
        else:  # the weighted sum of the four slopes
            {K} = {AK}
        _dt = _steps[_stage]
        {X} = {update}
    {finite}
    return {X},"""


def _finite_test(names) -> str:
    test = " and ".join(f"_isfinite({x})" for x in names)
    return f"if not ({test}): raise _SolverError('non-finite stage values; step rejected')"


def _eliminate(H):
    """Lines that check the symmetric n x n matrix named by ``H`` (its entries
    on and above the diagonal must be finite) and eliminate below its
    diagonal in place: Gaussian elimination with partial pivoting, unrolled
    for n.  Column ``col`` pivots on row ``_best{col}`` (the first of the
    largest magnitude); row ``r`` below it then takes ``_m{r}_{col}`` times
    the pivot row.  The determinant is the product of the pivots; H is
    singular where it is 0 or at most REGULARITY_RTOL max(1, max|H|^n)."""
    n, join = len(H), ", ".join
    upper = [H[i][j] for i in range(n) for j in range(i, n)]
    largest = join(f"abs({x})" for x in upper)
    yield _finite_test(upper)
    yield f"_scale = max(1.0, {f'max({largest})' if n > 1 else largest} ** {n})"
    yield "_det = 1.0"
    for col in range(n):
        below = range(col + 1, n)
        if below:
            yield f"_best{col}, _p = {col}, abs({H[col][col]})"
        for r in below:
            yield f"if abs({H[r][col]}) > _p: _best{col}, _p = {r}, abs({H[r][col]})"
        for r in below:
            rows = H[col][col:], H[r][col:]
            yield (f"{'if' if r == col + 1 else 'elif'} _best{col} == {r}: "
                   f"_det, {join(rows[0] + rows[1])} = -_det, {join(rows[1] + rows[0])}")
        yield f"_det *= {H[col][col]}"
        yield "if _det == 0.0: raise _RegularityError(_SINGULAR)"
        for r in below:
            yield f"_m{r}_{col} = {H[r][col]} / {H[col][col]}"
            yield from (f"{H[r][c]} -= _m{r}_{col} * {H[col][c]}" for c in below)
    yield f"if abs(_det) <= {REGULARITY_RTOL!r} * _scale: raise _RegularityError(_SINGULAR)"


def _substitute(H, R):
    """Lines that apply the row swaps and multipliers of :func:`_eliminate` to the
    right-hand side named by ``R`` and back-substitute, leaving the solution in ``R``."""
    n = len(R)
    for col in range(n):
        for r in range(col + 1, n):
            swap = f"{R[col]}, {R[r]} = {R[r]}, {R[col]}"
            yield f"{'if' if r == col + 1 else 'elif'} _best{col} == {r}: {swap}"
        yield from (f"{R[r]} -= _m{r}_{col} * {R[col]}" for r in range(col + 1, n))
    for i in reversed(range(n)):
        rest = "".join(f" - {H[i][j]} * {R[j]}" for j in range(i + 1, n))
        yield f"{R[i]} = ({R[i]}{rest}) / {H[i][i]}"


def _rk4_steps(h: float) -> tuple:
    """Each RK4 stage's step to the next stage point, for a step of size ``h``."""
    return 0.5 * h, 0.5 * h, h, h / 6.0


def _rk4_step(model: LagrangianModel):
    """One generated function per model for an RK4 step, built on first use
    and kept in the model's ``__dict__`` (not a field), so the runs of one
    command share it whatever their step size.

    ``step(state, _rk4_steps(h))`` takes the state (q..., v...) as a tuple of
    Python floats and returns the next state, or raises SolverError where a
    stage value or that state is not finite.  Each stage evaluates the forces
    and solves H a = rhs for the velocity Hessian H of :func:`hessian_entries`.
    A constant H is eliminated once, by the source's prologue; any other in
    each stage.
    """
    if (step := vars(model).get("_rk4_step")) is not None:
        return step
    table = model.table
    n, chart, join = table.n, list(table.velocity_chart), ", ".join
    H = [[f"_h{i}_{j}" for j in range(n)] for i in range(n)]
    upper = [H[i][j] for i in range(n) for j in range(i, n)]
    R = [f"_r{i}" for i in range(n)]
    Y, K, A = ([f"{x}{i}" for i in range(2 * n)] for x in ("_y", "_k", "_a"))
    namespace = {
        "_isfinite": math.isfinite, "_SolverError": SolverError,
        "_RegularityError": RegularityError,
        "_SINGULAR": "velocity Hessian became singular along the trajectory",
    }
    hessian = hessian_entries(model)
    constant = not any(free_vars(e) for e in hessian)

    def hessian_lines(lines, values):
        """The lines that compute H, given those of its upper entries."""
        yield from lines
        yield from (f"{x} = {value}" for x, value in zip(upper, values))
        yield from (f"{H[i][j]} = {H[j][i]}" for i in range(n) for j in range(i))

    def stage(blocks):
        hessian_block, (lines, values) = blocks
        if not constant:
            yield from hessian_lines(*hessian_block)
        yield from lines
        yield from (f"{x} = {value}" for x, value in zip(R, values))
        yield _finite_test(R)
        if not constant:
            yield from _eliminate(H)
        yield from _substitute(H, R)

    def write(blocks):
        prologue = chain(hessian_lines(*blocks[0]), _eliminate(H)) if constant else ()
        return _RK4_STEP.format(
            prologue="\n".join(prologue),
            Y=join(Y), X=join(chart), K=join(K), A=join(A), slope=join(chart[n:] + R),
            stage="\n".join(stage(blocks)).replace("\n", "\n        "),
            A2K=join(f"{a} + 2 * {k}" for a, k in zip(A, K)),
            AK=join(f"{a} + {k}" for a, k in zip(A, K)),
            update=join(f"{y} + _dt * {k}" for y, k in zip(Y, K)),
            finite=_finite_test(chart))

    step = compile_source([hessian, _forces(model, 0)], chart, write, namespace)
    vars(model)["_rk4_step"] = step
    return step


# states a run keeps as tuples before it copies them into the trajectory at
# once, which costs far less than a numpy row assignment per step
_LEVELS_PER_COPY = 512
# leapfrog levels tested for finiteness at once: a test per level costs about
# a tenth of a step; levels made after a blow-up are only discarded
_LEVELS_PER_TEST = 32


def _empty(shape) -> np.ndarray:
    """np.empty(shape); a shape numpy cannot index raises MemoryError, like one it cannot hold."""
    try:
        return np.empty(shape)
    except ValueError as exc:  # "Maximum allowed dimension exceeded", "array is too big"
        raise MemoryError(exc) from None


def integrate_k1(
    model: LagrangianModel, q0: Sequence[float], v0: Sequence[float], grid: GridSpec
) -> SolutionGrid:
    """RK4 integration of the second-order equation of motion.

    Each step is one call of the generated step function.  A step whose
    stage values or state are not finite, or a constant Hessian that the
    first build finds not finite (step 1), fails with its step number.  The
    summary's energy drift max|E(t) - E(0)| is measured on the exact
    integrator states after the run, by one strict evaluation of the energy.
    """
    if grid.k != 1 or model.table.k != 1:
        raise SolverError("integrate_k1 needs a k = 1 model and a one-axis grid")
    h, n, levels = grid.axes[0].step, model.table.n, grid.axes[0].count + 1
    state = tuple(float(x) for x in q0) + tuple(float(x) for x in v0)
    if len(state) != 2 * n:
        raise SolverError(f"q0 and v0 need {n} entries each")
    trajectory = _empty((levels, 2 * n))  # a grid too large to hold fails here, at once
    trajectory[0] = state
    m = 1  # a constant H that the first build rejects fails at step 1
    try:
        with np.errstate(all="ignore"):
            step, steps = _rk4_step(model), _rk4_steps(h)  # a first build eliminates a constant H
            for start in range(1, levels, _LEVELS_PER_COPY):
                states = []
                for m in range(start, min(start + _LEVELS_PER_COPY, levels)):
                    states.append(state := step(state, steps))
                values = np.fromiter(chain.from_iterable(states), float, len(states) * 2 * n)
                trajectory[start: start + len(states)] = values.reshape(-1, 2 * n)
    except (SolverError, ZeroDivisionError, OverflowError):
        # Python-float operations raise where numpy's would give inf/nan
        raise SolverError(f"non-finite state at step {m}; step rejected") from None

    # E_L over the stored states, in the layout evaluate_batch reads; a constant one is broadcast
    columns = np.ascontiguousarray(trajectory.T)
    (energies,) = evaluate_columns([energy(model)], model.table.velocity_chart, columns)
    energies = np.broadcast_to(energies, levels)
    e0 = float(energies[0])
    drift = float(np.max(np.abs(energies - e0)))
    summary = {"energy_drift": drift, "initial_energy": e0, "step": h, "levels": levels}
    return SolutionGrid(
        model.table, grid, trajectory[:, :n], state_v=trajectory[:, n:], summary=summary
    )


# ---------------------------------------------------------------------------
# k = 2: leapfrog evolution with a periodic second axis

def _hyperbolic_blocks(model: LagrangianModel):
    """Certify the explicit form M11 phi_tt = dL/dq - C2 phi_x - M22 phi_xx.

    Requires a velocity Hessian of constant entries, no v1-v2 coupling, no
    q-v1 coupling, and a positive-definite t1 block.  Rejection is symbolic:
    the relevant second derivatives must fold to constants/zero.
    """
    table = model.table
    if table.k != 2:
        raise SolverError("hyperbolic integrator needs k = 2")
    n, names = table.n, table.v_names
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    for (a, b), e in zip(pairs, hessian_entries(model)):
        if free_vars(e):
            raise NotHyperbolicError(f"velocity Hessian entry d2L/d{a} d{b} is not constant: {e}")
    # first: a Lagrangian undefined everywhere raises its DomainError here, where
    # the q-coupling test would find d(v1_1 + 0/0)/dq1 = 0/0, not zero
    (M,), _ = velocity_hessian(model, np.zeros((1, table.dim_total)))  # t1 block, then t2
    if not all(is_zero_expr(diff(model.dLdv(i, 0), q)) for i in range(n) for q in table.q_names):
        raise NotHyperbolicError(
            "q-coupled t1 momentum: system not explicitly solvable for phi_t1t1"
        )
    if np.max(np.abs(M[:n, n:])) != 0.0:
        raise NotHyperbolicError("v1-v2 cross terms block the explicit update")
    M11, M22 = M[:n, :n], M[n:, n:]
    try:
        np.linalg.cholesky(M11)
    except np.linalg.LinAlgError:
        raise NotHyperbolicError("t1 velocity block is not positive-definite") from None
    return M11, M22


def _times_transpose(m: np.ndarray, rows: int):
    """A function writing ``a @ m.T`` for an array ``a`` of ``rows`` rows into
    ``out``, bit for bit, through np.dot: for these narrow shapes @ takes a
    per-element loop where np.dot calls BLAS.  Adding 0.0 turns the -0.0 that
    np.dot's lone 1 x 1 product can give into the +0.0 of @; a lone row goes
    through gemv, whose summation order follows the layout of ``m.T``, and
    keeps that of @ only on the transposed view."""
    m_t = m.T if rows == 1 else np.ascontiguousarray(m.T)

    def product(a: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.add(np.dot(a, m_t, out=out), 0.0, out=out)
    return product


def integrate_k2_hyperbolic(
    model: LagrangianModel,
    phi0: Sequence[Expr],
    phidot0: Sequence[Expr],
    grid: GridSpec,
) -> SolutionGrid:
    """Leapfrog evolution in t1 with centered periodic differences in t2.

    ``phi0`` and ``phidot0`` are expressions in t2 giving the initial field
    and its t1 rate on the periodic axis.
    """
    table = model.table
    if grid.k != 2:
        raise SolverError("integrate_k2_hyperbolic needs a two-axis grid")
    M11, M22 = _hyperbolic_blocks(model)
    n = table.n
    h1 = grid.axes[0].step
    h2 = grid.axes[1].step
    levels = grid.axes[0].count + 1
    phi = _empty((levels, grid.axes[1].count, n))  # a grid too large to hold fails here, at once

    # wave speeds from the principal symbol; warn when the step ratio
    # exceeds the unit-CFL bound of the wave fixture.
    symbol = np.linalg.solve(M11, -M22)
    speeds = np.linalg.eigvals(symbol)
    cmax = float(np.sqrt(np.max(np.abs(speeds.real)))) if speeds.size else 0.0
    cfl_margin = float(cmax * h1 / h2)
    if cfl_margin > 1.0 + 1e-12:  # the shortest repr: short when huge, never "1" past 1
        warnings.warn(f"CFL bound exceeded: c*h1/h2 = {cfl_margin!r} > 1", CFLWarning)

    x = grid.periodic_nodes()
    phi_now, rate0 = (
        np.stack([np.broadcast_to(v, x.shape) for v in evaluate_columns(c, ("t2",), [x])], -1)
        for c in (phi0, phidot0)
    )

    forces = tuple(_forces(model, 1))
    forces_at = walk(forces, table.velocity_chart)
    by_m22, by_m11_inv = (_times_transpose(m, x.size) for m in (M22, np.linalg.inv(M11)))
    # one level's work arrays, reused by every step; the level sits between
    # its periodic wrap rows, so its neighbours along t2 are views
    padded = np.empty((x.size + 2, n))
    level, right, left = padded[1:-1], padded[2:], padded[:-2]
    v2, phixx, force, rhs, product, acc = (np.empty((x.size, n)) for _ in range(6))
    zeros = np.zeros(x.size)  # v1 slots: certified unused; v2 slots where no force reads them
    reads_v2 = any(free_vars(f) & {table.v(i, 1) for i in range(n)} for f in forces)
    args = [level[:, i] for i in range(n)] + [zeros] * n
    args += [v2[:, i] for i in range(n)] if reads_v2 else [zeros] * n

    varying = any(map(free_vars, forces))  # else filled once (the wave's 0.0)

    def fill_forces():
        for i, value in enumerate(forces_at(*args)):
            force[:, i] = value

    def acceleration(source: np.ndarray) -> np.ndarray:
        """phi_tt at the level ``source``, which also fills ``args`` from it."""
        np.copyto(level, source)
        padded[0], padded[-1] = level[-1], level[0]
        if reads_v2:
            np.divide(np.subtract(right, left, out=v2), 2 * h2, out=v2)
        np.subtract(right, np.multiply(level, 2, out=phixx), out=phixx)
        np.divide(np.add(phixx, left, out=phixx), h2_sq, out=phixx)
        if varying:
            fill_forces()
        np.subtract(force, by_m22(phixx, product), out=rhs)  # the bits of force - phixx @ M22.T
        return by_m11_inv(rhs, acc)

    phi[0] = phi_now
    tested = 1  # the first level not yet tested for finiteness
    with np.errstate(all="ignore"):  # a breach is named by the strict pass
        h1_sq, h2_sq = np.float64(h1) ** 2, np.float64(h2) ** 2  # inf where a float's ** raises
        if not varying:
            fill_forces()
        phi[1] = phi_now + h1 * rate0 + 0.5 * h1_sq * acceleration(phi_now)
        for m in range(1, levels - 1):
            acc = acceleration(phi[m])
            new = np.multiply(phi[m], 2, out=phi[m + 1])
            new -= phi[m - 1]
            acc *= h1_sq
            new += acc
            if (m + 1) % _LEVELS_PER_TEST and m + 2 < levels:
                continue
            finite = np.isfinite(phi[tested: m + 2]).all(axis=(1, 2))
            if finite.all():
                tested = m + 2
                continue
            # a node that is not finite stays so (each level adds twice the
            # one before), so the first such level is m + 1 for this m
            m = tested - 1 + int(np.argmin(finite))
            # the forces of the last finite level m, run strictly, name one that
            # left its domain there (an overflow is the blow-up itself)
            acceleration(phi[m])
            t1 = np.full(x.size, grid.evolution_times()[m])
            try:
                list(evaluate_columns(forces, table.velocity_chart + table.t_names, args + [t1, x]))
            except DomainError as exc:
                if exc.reason != "overflow":
                    raise
            raise SolverError(f"non-finite field at step {m + 1}; step rejected")

    summary = {"steps": levels - 1, "h1": h1, "h2": h2, "max_speed": cmax,
               "cfl_margin": cfl_margin}
    return SolutionGrid(table, grid, phi, summary=summary)


# ---------------------------------------------------------------------------
# current traces

class CurrentTrace(Record):
    """Nodewise values of a candidate current and its discrete divergence.

    The divergence uses the same centered stencils as the stored jets; its
    reported maximum runs over the clean interior (evolution levels 2..M-2),
    excluding every node whose stencil touches one-sided jet values.
    """

    sol: SolutionGrid
    values: np.ndarray       # (..., k)
    divergence: np.ndarray   # (...), nan outside the computed band
    max_divergence: float
    interior_count: int

    def to_csv(self, path):
        header, columns = self.sol._csv_columns()
        header += [f"F{A + 1}" for A in range(self.sol.k)] + ["divergence"]
        columns += [self.values[..., A] for A in range(self.sol.k)] + [self.divergence]
        _write_csv(path, header, columns)

    def divergence_floor(self) -> float:
        """4*eps*max|F|*sum_A 1/h_A: two values of F, each off by 4*eps*max|F|, over 2*h_A."""
        return 4 * EPS * np.max(np.abs(self.values)) * sum(1 / a.step for a in self.sol.spec.axes)


def evaluate_current(F: Sequence[Expr], sol: SolutionGrid) -> CurrentTrace:
    """Evaluate a candidate current, k functions of (q, v, t), on the grid's
    jets node by node, and form its discrete divergence.

    Evaluation is strict: a value that leaves the real domain raises
    DomainError naming the expression and the node (its coordinates t1..tk
    are bound alongside the chart for that).
    """
    table = sol.table
    k = sol.k
    F = tuple(F)
    if len(F) != k:
        raise SolverError(f"expected {k} current components")

    n, chart = table.n, table.velocity_chart
    nodes = list(np.broadcast_arrays(*np.ix_(*sol.node_coordinates())))
    args = [sol.phi[..., i] for i in range(n)]
    args += [sol.jets[..., i, A] for A in range(k) for i in range(n)]

    shape = sol.phi.shape[:-1]
    values = np.empty(shape + (k,))
    for A, component in enumerate(evaluate_columns(F, chart + table.t_names, args + nodes)):
        values[..., A] = component

    levels = shape[0]
    if levels < 5:
        raise SolverError("need at least five evolution levels for a divergence band")
    div = np.empty(shape)
    div[0] = div[-1] = np.nan
    band = div[1:-1]
    _centred(values[2:, ..., 0], values[:-2, ..., 0], sol.spec.axes[0].step, band)
    if k == 2:
        d_dx = np.empty(band.shape)
        _centred_periodic(values[1:-1, :, 1], sol.spec.axes[1].step, d_dx)
        band += d_dx

    clean = div[2: levels - 2]
    max_div = float(np.max(np.abs(clean)))
    return CurrentTrace(sol, values, div, max_div, int(np.prod(clean.shape)))


# ---------------------------------------------------------------------------
# step-halving verdicts

INTEGRATOR_ORDER = {1: 4, 2: 2}  # RK4 for k = 1, the leapfrog for k = 2
EPS = float(np.finfo(float).eps)


def refinement(coarse: float, fine: float, order: int, floor: Callable[[], float], key: str):
    """(passed, {key: coarse/fine or None}) for a scheme's errors at steps h and h/2:
    the ratio within a factor 1.6 of 2**order passes; else ``floor()`` is read, and a
    finite coarse error with a fine one at or below it passes, adding ``rounding_floor``."""
    nominal, ratio = 2.0 ** order, coarse / fine if fine else None
    if ratio is not None and nominal / 1.6 <= ratio <= nominal * 1.6:
        return True, {key: ratio}
    if math.isfinite(coarse) and fine <= (bound := floor()):
        return True, {key: ratio, "rounding_floor": bound}
    return False, {key: ratio}


def _grid_gap(coarse: SolutionGrid, fine: SolutionGrid) -> float:
    nested = fine.phi[(slice(None, None, 2),) * coarse.k]  # every other node on each axis
    if nested.shape != coarse.phi.shape:
        raise SolverError("refined grid does not nest in the coarse grid")
    return float(np.max(np.abs(nested - coarse.phi)))
