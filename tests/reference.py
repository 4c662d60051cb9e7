"""Scalar reference evaluator the tests compare the library against.

It walks an expression tree one IEEE double at a time with the ``math``
module and shares no evaluation code with ``ksfield``: it reads only the
node classes and raises the library's error types.  Every step is strict:
a division by zero, a function outside its domain, or any intermediate sum,
difference, product, quotient or power that is not finite raises
DomainError, the contract the batched evaluator keeps as a whole.
"""

import math
from collections.abc import Mapping

from ksfield.bundles import JetPoint
from ksfield.expr import (
    Add, Call, Div, DomainError, Mul, Neg, Num, Pow, Sub, UnboundVariableError, Var,
)

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


def evaluate(e, at) -> float:
    """Value of ``e`` at ``at``: a {name: value} mapping, a JetPoint (bound
    over its velocity chart) or a CoJetPoint (over its momentum chart).

    Raises UnboundVariableError, or DomainError as soon as any step leaves
    the real domain or produces a non-finite value.
    """
    if not isinstance(at, Mapping):
        side = "lagrangian" if isinstance(at, JetPoint) else "hamiltonian"
        at = dict(zip(at.table.chart(side), at.flat()))
    value = _walk(e, at)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r}")
    return value
