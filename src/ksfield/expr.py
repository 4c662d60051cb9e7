"""Symbolic scalar expressions over named real coordinates.

The AST covers real literals, named variables, +, -, *, /, integer powers
and the unary functions sin, cos, exp, log, sqrt.  Nodes are immutable
(frozen dataclasses), so expressions are safe to share across threads;
differentiation, substitution and evaluation are pure.

Simplification is best-effort only (constant folding and 0/1 identities,
applied by the smart constructors below).  Nothing downstream relies on a
canonical form: all correctness checks are evaluation-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UndeclaredNameError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"undeclared identifier '{name}'", offset)
        self.name = name


class EvalError(ExprError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvalError):
    """Evaluation left the real domain or produced a non-finite value."""


_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

Bindings = Mapping[str, float]


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{what} is not finite: {value!r}")
    return value


@dataclass(frozen=True)
class Expr:
    def diff(self, name: str) -> "Expr":
        raise NotImplementedError

    def _ev(self, env: Bindings) -> float:
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        raise NotImplementedError

    # Arithmetic sugar so library code can assemble expressions directly.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, exponent):
        return pow_int(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def diff(self, name):
        return _ZERO

    def _ev(self, env):
        return self.value

    def subs(self, mapping):
        return self

    def free_vars(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def diff(self, name):
        return _ONE if name == self.name else _ZERO

    def _ev(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def free_vars(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return add(self.left.diff(name), self.right.diff(name))

    def _ev(self, env):
        return _finite(self.left._ev(env) + self.right._ev(env), "sum")

    def subs(self, mapping):
        return add(self.left.subs(mapping), self.right.subs(mapping))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return sub(self.left.diff(name), self.right.diff(name))

    def _ev(self, env):
        return _finite(self.left._ev(env) - self.right._ev(env), "difference")

    def subs(self, mapping):
        return sub(self.left.subs(mapping), self.right.subs(mapping))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return add(
            mul(self.left.diff(name), self.right),
            mul(self.left, self.right.diff(name)),
        )

    def _ev(self, env):
        return _finite(self.left._ev(env) * self.right._ev(env), "product")

    def subs(self, mapping):
        return mul(self.left.subs(mapping), self.right.subs(mapping))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        if isinstance(self.right, Num):
            return div(self.left.diff(name), self.right)
        # (u/w)' = (u'w - uw') / w^2
        return div(
            sub(
                mul(self.left.diff(name), self.right),
                mul(self.left, self.right.diff(name)),
            ),
            pow_int(self.right, 2),
        )

    def _ev(self, env):
        denom = self.right._ev(env)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _finite(self.left._ev(env) / denom, "quotient")

    def subs(self, mapping):
        return div(self.left.subs(mapping), self.right.subs(mapping))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def diff(self, name):
        # d(u^m) = m u^(m-1) u'
        return mul(
            mul(Num(float(self.exponent)), pow_int(self.base, self.exponent - 1)),
            self.base.diff(name),
        )

    def _ev(self, env):
        base = self.base._ev(env)
        if base == 0.0 and self.exponent < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return _finite(base ** self.exponent, "power")
        except OverflowError:
            raise DomainError(f"{base!r}^{self.exponent} overflows") from None

    def subs(self, mapping):
        return pow_int(self.base.subs(mapping), self.exponent)

    def free_vars(self):
        return self.base.free_vars()


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def diff(self, name):
        return neg(self.arg.diff(name))

    def _ev(self, env):
        return -self.arg._ev(env)

    def subs(self, mapping):
        return neg(self.arg.subs(mapping))

    def free_vars(self):
        return self.arg.free_vars()


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def diff(self, name):
        u = self.arg
        du = u.diff(name)
        if _is_num(du, 0.0):
            return _ZERO  # no spurious domain conditions from log/sqrt factors
        if self.fn == "sin":
            outer = call("cos", u)
        elif self.fn == "cos":
            outer = neg(call("sin", u))
        elif self.fn == "exp":
            outer = call("exp", u)
        elif self.fn == "log":
            return div(du, u)
        elif self.fn == "sqrt":
            return div(du, mul(Num(2.0), call("sqrt", u)))
        else:  # pragma: no cover - constructors reject unknown functions
            raise ExprError(f"unknown function '{self.fn}'")
        return mul(outer, du)

    def _ev(self, env):
        x = self.arg._ev(env)
        try:
            return _FUNCTIONS[self.fn](x)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{self.fn}({x!r}): {exc}") from None

    def subs(self, mapping):
        return call(self.fn, self.arg.subs(mapping))

    def free_vars(self):
        return self.arg.free_vars()


_ZERO = Num(0.0)
_ONE = Num(1.0)


def as_expr(value: Union[Expr, int, float]) -> Expr:
    if isinstance(value, Expr):
        return value
    return Num(float(value))


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        s = a.value + b.value
        if math.isfinite(s):
            return Num(s)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        s = a.value - b.value
        if math.isfinite(s):
            return Num(s)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        p = a.value * b.value
        if math.isfinite(p):
            return Num(p)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        q = a.value / b.value
        if math.isfinite(q):
            return Num(q)
    if isinstance(b, Num) and b.value != 0.0:
        # fold constants through negation and scalar factors
        if isinstance(a, Neg):
            return neg(div(a.arg, b))
        if isinstance(a, Mul) and isinstance(a.left, Num):
            q = a.left.value / b.value
            if math.isfinite(q):
                return mul(Num(q), a.right)
        if isinstance(a, Mul) and isinstance(a.right, Num):
            q = a.right.value / b.value
            if math.isfinite(q):
                return mul(a.left, Num(q))
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_int(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise ExprError(f"exponent must be an integer, got {exponent!r}")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Num) and not (base.value == 0.0 and exponent < 0):
        try:
            p = base.value ** exponent
        except OverflowError:
            return Pow(base, exponent)  # keep node; error surfaces at eval time
        if math.isfinite(p):
            return Num(p)
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in _FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    if isinstance(arg, Num):
        try:
            v = _FUNCTIONS[fn](arg.value)
        except (ValueError, OverflowError):
            return Call(fn, arg)  # keep node; error surfaces at eval time
        if math.isfinite(v):
            return Num(v)
    return Call(fn, arg)


def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative of ``e`` with respect to ``name``."""
    return e.diff(name)


def evaluate(e: Expr, env: Bindings) -> float:
    """Scalar IEEE double evaluation, the reference for :func:`evaluate_batch`.

    Raises UnboundVariableError, or DomainError as soon as any step leaves
    the real domain or produces a non-finite value.
    """
    value = e._ev(env)
    if not math.isfinite(value):
        raise DomainError(f"non-finite result {value!r}")
    return value


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    return e.subs(mapping)


def free_vars(e: Expr) -> frozenset:
    return e.free_vars()


def is_zero_expr(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1.0
_PREC_NEG = 1.2
_PREC_MUL = 2.0
_PREC_POW = 3.0
_PREC_ATOM = 4.0


def _prec(e: Expr) -> float:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _emit(e: Expr, min_prec: float) -> str:
    if isinstance(e, Num):
        text = _fmt_num(e.value)
    elif isinstance(e, Var):
        text = e.name
    elif isinstance(e, Add):
        text = f"{_emit(e.left, _PREC_ADD)} + {_emit(e.right, _PREC_ADD + 0.5)}"
    elif isinstance(e, Sub):
        text = f"{_emit(e.left, _PREC_ADD)} - {_emit(e.right, _PREC_ADD + 0.5)}"
    elif isinstance(e, Mul):
        text = f"{_emit(e.left, _PREC_MUL)}*{_emit(e.right, _PREC_MUL + 0.5)}"
    elif isinstance(e, Div):
        text = f"{_emit(e.left, _PREC_MUL)}/{_emit(e.right, _PREC_MUL + 0.5)}"
    elif isinstance(e, Neg):
        text = f"-{_emit(e.arg, _PREC_MUL + 0.5)}"
    elif isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        text = f"{_emit(e.base, _PREC_POW + 0.5)}^{exp}"
    elif isinstance(e, Call):
        text = f"{e.fn}({_emit(e.arg, 0.0)})"
    else:  # pragma: no cover
        raise ExprError(f"cannot print {e!r}")
    if _prec(e) < min_prec:
        return f"({text})"
    return text


def to_source(e: Expr) -> str:
    """Render in the DSL grammar; parse(to_source(e)) is evaluation-equal."""
    return _emit(e, 0.0)


# ---------------------------------------------------------------------------
# parsing

class _Scanner:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.source):
            return ""
        return self.source[self.pos]

    def expect(self, char: str):
        if self.peek() != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def scan_number(self) -> float:
        start = self.pos
        src = self.source
        while self.pos < len(src) and src[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(src) and src[self.pos] == ".":
            self.pos += 1
            while self.pos < len(src) and src[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent: back off
        return float(src[start:self.pos])

    def scan_name(self) -> str:
        start = self.pos
        src = self.source
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        return src[start:self.pos]


# Parentheses, calls and prefix signs; each level costs the recursive-descent
# parser up to five Python frames, so this keeps it well inside the limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str, names):
        self.sc = _Scanner(source)
        self.names = frozenset(names)
        self.depth = 0

    def enter(self, offset: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)

    def parse(self) -> Expr:
        e = self.expr()
        if self.sc.peek() != "":
            raise ParseError(f"unexpected character {self.sc.peek()!r}", self.sc.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self.sc.peek()
            if ch == "+":
                self.sc.pos += 1
                e = add(e, self.term())
            elif ch == "-":
                self.sc.pos += 1
                e = sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            ch = self.sc.peek()
            if ch == "*":
                self.sc.pos += 1
                e = mul(e, self.unary())
            elif ch == "/":
                self.sc.pos += 1
                e = div(e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        ch = self.sc.peek()
        if ch not in ("+", "-"):
            return self.power()
        self.enter(self.sc.pos)
        self.sc.pos += 1
        e = self.unary()
        self.depth -= 1
        return neg(e) if ch == "-" else e

    def power(self) -> Expr:
        e = self.atom()
        while self.sc.peek() == "^":
            self.sc.pos += 1
            e = pow_int(e, self.exponent())
        return e

    def exponent(self) -> int:
        ch = self.sc.peek()
        offset = self.sc.pos
        if ch == "(":
            self.enter(offset)
            self.sc.pos += 1
            value = self.exponent()
            self.sc.expect(")")
            self.depth -= 1
            return value
        sign = 1
        if ch == "-":
            self.sc.pos += 1
            sign = -1
            ch = self.sc.peek()
        if not ch.isdigit():
            raise ParseError("exponent must be an integer constant", offset)
        start = self.sc.pos
        value = self.sc.scan_number()
        if value != int(value):
            raise ParseError("exponent must be an integer constant", start)
        return sign * int(value)

    def atom(self) -> Expr:
        ch = self.sc.peek()
        offset = self.sc.pos
        if ch == "":
            raise ParseError("unexpected end of input", offset)
        if ch == "(":
            self.enter(offset)
            self.sc.pos += 1
            e = self.expr()
            self.sc.expect(")")
            self.depth -= 1
            return e
        if ch.isdigit() or ch == ".":
            return Num(self.sc.scan_number())
        if ch.isalpha() or ch == "_":
            name = self.sc.scan_name()
            if self.sc.peek() == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", offset)
                self.enter(self.sc.pos)
                self.sc.pos += 1
                arg = self.expr()
                self.sc.expect(")")
                self.depth -= 1
                return call(name, arg)
            if name in _FUNCTIONS:
                raise ParseError(f"function '{name}' requires an argument", offset)
            if name not in self.names:
                raise UndeclaredNameError(name, offset)
            return Var(name)
        raise ParseError(f"unexpected character {ch!r}", offset)


def parse(source: str, names: Iterable[str]) -> Expr:
    """Parse infix source over the declared coordinate ``names``.

    Grammar (whitespace-insensitive)::

        expr     = term  { ("+" | "-") term } ;
        term     = unary { ("*" | "/") unary } ;
        unary    = ("+" | "-") unary | power ;
        power    = atom { "^" exponent } ;
        exponent = [ "-" ] integer | "(" exponent ")" ;
        atom     = number | name | name "(" expr ")" | "(" expr ")" ;

    Functions are limited to sin, cos, exp, log, sqrt.  Parentheses,
    function calls and prefix signs nest at most MAX_NESTING levels deep.
    """
    return _Parser(source, names).parse()


# ---------------------------------------------------------------------------
# compilation to vectorized numpy callables, and batched strict evaluation

# Python precedence of the emitted operators; operands are parenthesized
# only where Python would otherwise regroup them, so long left-leaning
# chains compile without hitting the parser's nesting limit.
_PY_SUM, _PY_PRODUCT, _PY_SIGN, _PY_POWER, _PY_ATOM = range(5)


def _emit_python(e: Expr, consts: list, min_prec: int = 0) -> str:
    if isinstance(e, Num):
        # literals become numpy scalars, so constant-only subtrees follow the
        # same floating-point error rules as the array operations
        consts.append(e.value)
        return f"_c{len(consts) - 1}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Add, Sub, Mul, Div)):
        prec = _PY_SUM if isinstance(e, (Add, Sub)) else _PY_PRODUCT
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
        left = _emit_python(e.left, consts, prec)
        text = f"{left} {op} {_emit_python(e.right, consts, prec + 1)}"
    elif isinstance(e, Neg):
        prec = _PY_SIGN
        text = f"-{_emit_python(e.arg, consts, _PY_SIGN)}"
    elif isinstance(e, Pow):
        prec = _PY_POWER
        text = f"{_emit_python(e.base, consts, _PY_ATOM)} ** ({e.exponent})"
    elif isinstance(e, Call):
        return f"_f_{e.fn}({_emit_python(e.arg, consts)})"
    else:  # pragma: no cover
        raise ExprError(f"cannot compile {e!r}")
    return f"({text})" if prec < min_prec else text


def compile_vectorized(e: Expr, names) -> Callable:
    """Compile to a callable over numpy arrays (one positional arg per name).

    The scalar result of a constant expression is broadcast to the shape of
    the first argument.  Domain violations follow numpy semantics (inf/nan,
    or an exception under ``np.errstate``); :func:`evaluate_batch` runs
    compiled expressions under the strict contract.
    """
    import numpy as np

    names = tuple(names)
    missing = free_vars(e) - set(names)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    arglist = ", ".join(names) if names else "*_ignored"
    consts: list = []
    try:
        src = f"lambda {arglist}: {_emit_python(e, consts)}"
        namespace = {f"_f_{fn}": getattr(np, fn) for fn in _FUNCTIONS}
        namespace.update((f"_c{i}", np.float64(value)) for i, value in enumerate(consts))
        fn = eval(src, namespace)  # source generated above; no user text reaches eval
    except (RecursionError, SyntaxError, MemoryError):
        raise EvalError("expression too deeply nested to compile") from None

    def wrapped(*args):
        out = fn(*args)
        if args and np.ndim(out) == 0 and np.ndim(args[0]) > 0:
            out = np.full(np.shape(args[0]), float(out))
        return out

    return wrapped


_STRICT = {"divide": "raise", "invalid": "raise", "over": "raise"}
_FLOAT_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError)


def _run_strict(fn, columns):
    """``(values, None)``, or ``(None, reason)`` when ``fn`` breaks the strict contract."""
    import numpy as np

    try:
        with np.errstate(**_STRICT):
            values = fn(*columns)
    except _FLOAT_ERRORS as exc:
        return None, str(exc)
    if not np.all(np.isfinite(values)):
        return None, "non-finite result"
    return values, None


def _first_failing_row(fn, columns, count: int) -> int:
    """Smallest row index whose prefix breaks the contract (rows are independent)."""
    lo, hi = 0, count  # rows [0, lo) pass, rows [0, hi) fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _run_strict(fn, [c[:mid] for c in columns])[1] is None:
            lo = mid
        else:
            hi = mid
    return hi - 1


def _domain_error(e: Expr, reason: str, names, row) -> DomainError:
    source = to_source(e)
    if len(source) > 120:
        source = source[:117] + "..."
    point = ", ".join(f"{name}={float(x)!r}" for name, x in zip(names, row))
    where = f"at ({point})" if point else "everywhere"
    return DomainError(f"{reason} evaluating {source} {where}")


def evaluate_batch(exprs: Iterable[Expr], names, points):
    """Values of each expression at each row of ``points``, shape (N, len(exprs)).

    Column j of the (N, len(names)) array ``points`` binds ``names[j]``.
    Each expression is compiled once and evaluated over all rows in one
    numpy call.  The contract is the strict one of :func:`evaluate`:
    a division by zero, an invalid operation or an overflow at any step
    raises DomainError naming the expression and the first offending row.
    """
    import numpy as np

    exprs = tuple(exprs)
    names = tuple(names)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(names):
        raise ValueError(f"points must have shape (N, {len(names)}), got {points.shape}")
    count = points.shape[0]
    out = np.empty((count, len(exprs)))
    if count == 0:
        return out
    columns = list(np.ascontiguousarray(points.T))
    for j, e in enumerate(exprs):
        if isinstance(e, Num):  # no compile needed
            if not math.isfinite(e.value):
                raise _domain_error(e, "non-finite constant", names, points[0])
            out[:, j] = e.value
            continue
        fn = compile_vectorized(e, names)
        values, reason = _run_strict(fn, columns)
        if reason is not None:
            row = _first_failing_row(fn, columns, count)
            raise _domain_error(e, reason, names, points[row])
        out[:, j] = values
    return out


def evaluate_envs(exprs: Iterable[Expr], envs: Iterable[Bindings]):
    """:func:`evaluate_batch` over binding dicts, one row per dict."""
    import numpy as np

    exprs = tuple(exprs)
    names = sorted(set().union(*(free_vars(e) for e in exprs)))
    rows = []
    for env in envs:
        try:
            rows.append([env[name] for name in names])
        except KeyError as exc:
            raise UnboundVariableError(exc.args[0]) from None
    return evaluate_batch(exprs, names, np.array(rows, dtype=float).reshape(len(rows), len(names)))
