"""References the tests compare the library against.

The scalar evaluator walks an expression tree one IEEE double at a time
with the ``math`` module and shares no evaluation code with ``ksfield``: it
reads only the node classes and raises the library's error types.  Every
step is strict: a division by zero, a function outside its domain, or any
intermediate sum, difference, product, quotient or power that is not finite
raises DomainError, the contract the batched evaluator keeps as a whole.

The reference leapfrog takes each k = 2 step in fresh arrays: fancy-indexed
neighbours, stacked forces and a new array for every intermediate.  The
library's step, which reuses its work arrays, must reproduce its bits.

The reference stencils build a grid's jets and a current's divergence from
whole-array expressions, ``np.roll`` copies for the periodic axis; the
library writes the same IEEE operations in place and must match their bits.

The degree-three form calculus (d of a two-form, the contraction of a
three-form, and the Cartan formula L(Y) omega = i(Y) d omega + d(i(Y) omega)
for any two-form) is an oracle: the library's checks read only exact
two-forms, whose Lie derivative is d(i(Y) omega).  A three-form is a
:class:`ksfield.forms.Form` keyed by (a, b, c) with a < b < c.
"""

import math

import numpy as np

from ksfield.expr import (
    Add, Call, Div, DomainError, Mul, Neg, Num, Pow, Sub, UnboundVariableError, Var,
    compile_tuple, diff, evaluate_columns, is_zero_expr, mul, neg,
)
from ksfield.forms import Form, TwoForm, VectorField, _put, contract_two, d_one
from ksfield.solver import _forces, _hyperbolic_blocks

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} is not finite: {value!r}")
    return value


def _walk(e, env) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Add):
        return _finite(_walk(e.left, env) + _walk(e.right, env), "sum")
    if isinstance(e, Sub):
        return _finite(_walk(e.left, env) - _walk(e.right, env), "difference")
    if isinstance(e, Mul):
        return _finite(_walk(e.left, env) * _walk(e.right, env), "product")
    if isinstance(e, Div):
        denom = _walk(e.right, env)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _finite(_walk(e.left, env) / denom, "quotient")
    if isinstance(e, Pow):
        base = _walk(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return _finite(base ** e.exponent, "power")
        except OverflowError:
            raise DomainError(f"{base!r}^{e.exponent} overflows") from None
    if isinstance(e, Neg):
        return -_walk(e.arg, env)
    if isinstance(e, Call):
        x = _walk(e.arg, env)
        try:
            return _FUNCTIONS[e.fn](x)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{e.fn}({x!r}): {exc}") from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e, at, row=None) -> float:
    """Value of ``e`` at ``at``: a {name: value} mapping, or a chart (a tuple
    of names) with ``row`` its coordinates in chart order.

    Raises UnboundVariableError, or DomainError as soon as any step leaves
    the real domain or produces a non-finite value.
    """
    if row is not None:
        at = dict(zip(at, (float(x) for x in row)))
    value = _walk(e, at)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r}")
    return value


def leapfrog(model, phi0, phidot0, grid):
    """phi on ``grid`` of the leapfrog from the initial field ``phi0`` and
    rate ``phidot0`` (expressions in t2), or, once a level past level 0 is not
    finite, that level's index: each level is tested as it is made."""
    M11, M22 = _hyperbolic_blocks(model)
    n = model.table.n
    h1, h2 = grid.axes[0].step, grid.axes[1].step
    x = grid.periodic_nodes()
    phi_now, rate0 = (
        np.stack([np.broadcast_to(v, x.shape) for v in evaluate_columns(c, ("t2",), [x])], -1)
        for c in (phi0, phidot0)
    )
    force_fn = compile_tuple(_forces(model, 1), model.table.velocity_chart)
    m11_inv = np.linalg.inv(M11)
    ahead, behind = np.roll(np.arange(x.size), -1), np.roll(np.arange(x.size), 1)
    zeros = np.zeros(x.size)

    def acceleration(phi_level):
        right, left = phi_level[ahead], phi_level[behind]
        v2 = (right - left) / (2 * h2)
        args = [phi_level[:, i] for i in range(n)] + [zeros] * n + [v2[:, i] for i in range(n)]
        phixx = (right - 2 * phi_level + left) / h2**2
        rhs = np.stack([np.broadcast_to(f, zeros.shape) for f in force_fn(*args)], axis=-1)
        rhs -= phixx @ M22.T
        return rhs @ m11_inv.T

    levels = grid.axes[0].count + 1
    phi = np.empty((levels, x.size, n))
    with np.errstate(all="ignore"):
        phi[0] = phi_now
        phi[1] = phi_now + h1 * rate0 + 0.5 * h1**2 * acceleration(phi_now)
        if not np.all(np.isfinite(phi[1])):
            return 1
        for m in range(1, levels - 1):
            phi[m + 1] = 2 * phi[m] - phi[m - 1] + h1**2 * acceleration(phi[m])
            if not np.all(np.isfinite(phi[m + 1])):
                return m + 1
    return phi


def _time_derivative(phi, h):
    out = np.empty_like(phi)
    out[1:-1] = (phi[2:] - phi[:-2]) / (2 * h)
    out[0] = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * h)
    out[-1] = (3 * phi[-1] - 4 * phi[-2] + phi[-3]) / (2 * h)
    return out


def stencil_jets(sol):
    """The grid's first jets: centred differences, one-sided at the t1 ends."""
    phi = sol.phi
    jets = np.empty(phi.shape + (sol.k,))
    jets[..., 0] = _time_derivative(phi, sol.spec.axes[0].step)
    if sol.k == 2:
        h2 = sol.spec.axes[1].step
        jets[..., 1] = (np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (2 * h2)
    return jets


def divergence(sol, values):
    """The centred divergence of the current ``values`` (..., k) on the
    interior levels of ``sol``, nan on the first and last."""
    shape = values.shape[:-1]
    div = np.full(shape, np.nan)
    band = slice(1, shape[0] - 1)
    div[band] = (values[2:, ..., 0] - values[:-2, ..., 0]) / (2 * sol.spec.axes[0].step)
    if sol.k == 2:
        h2 = sol.spec.axes[1].step
        d_dx = (np.roll(values[..., 1], -1, axis=1) - np.roll(values[..., 1], 1, axis=1)) / (2 * h2)
        div[band] += d_dx[band]
    return div


ThreeForm = Form


def d_two(omega: TwoForm) -> ThreeForm:
    chart = omega.chart
    table: dict = {}
    for (a, b), coeff in omega.entries.items():
        for c, name in enumerate(chart):
            if c == a or c == b:
                continue
            partial = diff(coeff, name)
            if is_zero_expr(partial):
                continue
            # partial dx^c ^ dx^a ^ dx^b, sorted with sign
            if c < a:
                _put(table, (c, a, b), partial)
            elif c < b:
                _put(table, (a, c, b), neg(partial))
            else:
                _put(table, (a, b, c), partial)
    return ThreeForm(chart, table)


def contract_three(Y: VectorField, eta: ThreeForm) -> TwoForm:
    table: dict = {}
    for (a, b, c), e in eta.entries.items():
        _put(table, (b, c), mul(Y.components[a], e))
        _put(table, (a, c), neg(mul(Y.components[b], e)))
        _put(table, (a, b), mul(Y.components[c], e))
    return TwoForm(eta.chart, table)


def lie_derivative_two(Y: VectorField, omega: TwoForm) -> TwoForm:
    first = contract_three(Y, d_two(omega))
    second = d_one(contract_two(Y, omega))
    table = dict(first.entries)
    for key, e in second.entries.items():
        _put(table, key, e)
    return TwoForm(omega.chart, table)
