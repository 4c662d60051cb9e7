"""``diff`` against an exact oracle: SymPy's derivative of the printed source.

Both derivatives are evaluated at the sample rows to 30 significant digits,
so cancellation in either form cannot hide or fake a disagreement; what is
left is the double rounding of constants the smart constructors folded,
far inside the tolerance.  Rows where either value leaves the reals (a
pole, a log or sqrt of a negative) are skipped.
"""

import pytest
from hypothesis import given, settings

from ksfield.expr import diff, free_vars, to_source
from test_expr import PROPERTY_NAMES, _rows, _trees

sympy = pytest.importorskip("sympy")

SYMBOLS = {name: sympy.Symbol(name) for name in PROPERTY_NAMES}


def as_sympy(e):
    return sympy.sympify(to_source(e).replace("^", "**"), locals=SYMBOLS)


def value_at(expr, row):
    point = {SYMBOLS[name]: sympy.Float(x) for name, x in zip(PROPERTY_NAMES, row)}
    try:
        value = expr.evalf(30, subs=point)
    except ZeroDivisionError:  # a pole at the row
        return None
    return value if value.is_real and value.is_finite else None


@given(_trees, _rows)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_diff_matches_sympy(e, rows):
    for name in sorted(free_vars(e)):
        ours = as_sympy(diff(e, name))
        exact = sympy.diff(as_sympy(e), SYMBOLS[name])
        for row in rows:
            want, got = value_at(exact, row), value_at(ours, row)
            if want is not None and got is not None:
                assert abs(got - want) <= 1e-9 * max(1, abs(want)), name
