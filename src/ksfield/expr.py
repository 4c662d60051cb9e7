"""Symbolic scalar expressions over named real coordinates.

The AST covers real literals, named variables, +, -, *, /, integer powers
and the unary functions sin, cos, exp, log, sqrt.  Nodes are immutable
(frozen dataclasses), so expressions are safe to share across threads;
differentiation and substitution are pure.

Expressions become numbers one way: :func:`evaluate_columns` compiles them
together, a numpy function each, and evaluates each over whole arrays under
a strict domain contract, :func:`evaluate_batch` over a sample matrix's rows.
The scalar reference evaluator the tests compare against lives in tests/.

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
    """Evaluation left the real domain or produced a non-finite value; the
    strict core sets ``reason``: "divide", "invalid", "overflow" or "non-finite"."""

    reason = None


_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

@dataclass(frozen=True)
class Expr:
    def diff(self, name: str) -> "Expr":
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

    def subs(self, mapping):
        return self

    def free_vars(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def diff(self, name):
        return _ONE if name == self.name else _ZERO

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

    def subs(self, mapping):
        return pow_int(self.base.subs(mapping), self.exponent)

    def free_vars(self):
        return self.base.free_vars()


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def diff(self, name):
        return neg(self.arg.diff(name))

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
        try:
            return float(src[start:self.pos])
        except ValueError:  # no digits ("." or ".e5"), or a digit like "²" float() rejects
            raise ParseError(f"malformed number {src[start:self.pos]!r}", start) from None

    def scan_name(self) -> str:
        start = self.pos
        src = self.source
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        return src[start:self.pos]


# Parentheses, calls and prefix signs; each level costs the recursive-descent
# parser up to five Python frames, so this keeps it well inside the limit.
MAX_NESTING = 100

# Cap on the weighted depth of a parsed tree.  The recursive tree walks (diff,
# subs, free_vars, printing, compiling) take one Python frame per level, and
# the second derivatives that ``analyze`` takes deepen each level of the
# source by up to its weight here (measured per operator chain): 1 for "+",
# "-" and prefix signs, 3 for "*", 5 for a call, 6 for "/", and 3 for "^",
# whose levels each also nest one more pair of parentheses in the compiled
# source (Python allows 200); parentheses weigh nothing.  At the cap the
# derived trees stay well inside the default recursion limit.
MAX_DEPTH = 600
_WEIGHTS = {"+": 1, "-": 1, "^": 3, "*": 3, "call": 5, "/": 6}


class _Parser:
    """Recursive descent; each method returns the parsed tree and its
    weighted depth (an upper bound: folding only makes trees shallower)."""

    def __init__(self, source: str, names):
        self.sc = _Scanner(source)
        self.names = frozenset(names)
        self.nesting = 0

    def enter(self, offset: int):
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)

    @staticmethod
    def deepen(depth: int, op: str, offset: int) -> int:
        depth += _WEIGHTS[op]
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than the cap of {MAX_DEPTH}", offset)
        return depth

    def parse(self) -> Expr:
        e, _ = self.expr()
        if self.sc.peek() != "":
            raise ParseError(f"unexpected character {self.sc.peek()!r}", self.sc.pos)
        return e

    def expr(self):
        e, depth = self.term()
        while True:
            ch = self.sc.peek()
            if ch not in ("+", "-"):
                return e, depth
            offset = self.sc.pos
            self.sc.pos += 1
            right, right_depth = self.term()
            e = add(e, right) if ch == "+" else sub(e, right)
            depth = self.deepen(max(depth, right_depth), ch, offset)

    def term(self):
        e, depth = self.unary()
        while True:
            ch = self.sc.peek()
            if ch not in ("*", "/"):
                return e, depth
            offset = self.sc.pos
            self.sc.pos += 1
            right, right_depth = self.unary()
            e = mul(e, right) if ch == "*" else div(e, right)
            depth = self.deepen(max(depth, right_depth), ch, offset)

    def unary(self):
        ch = self.sc.peek()
        if ch not in ("+", "-"):
            return self.power()
        offset = self.sc.pos
        self.enter(offset)
        self.sc.pos += 1
        e, depth = self.unary()
        self.nesting -= 1
        return (neg(e) if ch == "-" else e), self.deepen(depth, ch, offset)

    def power(self):
        e, depth = self.atom()
        while self.sc.peek() == "^":
            offset = self.sc.pos
            self.sc.pos += 1
            e = pow_int(e, self.exponent())
            depth = self.deepen(depth, "^", offset)
        return e, depth

    def exponent(self) -> int:
        ch = self.sc.peek()
        offset = self.sc.pos
        if ch == "(":
            self.enter(offset)
            self.sc.pos += 1
            value = self.exponent()
            self.sc.expect(")")
            self.nesting -= 1
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
        if not value.is_integer():  # a fraction, or an overflow to inf
            raise ParseError("exponent must be an integer constant", start)
        return sign * int(value)

    def atom(self):
        ch = self.sc.peek()
        offset = self.sc.pos
        if ch == "":
            raise ParseError("unexpected end of input", offset)
        if ch == "(":
            self.enter(offset)
            self.sc.pos += 1
            parsed = self.expr()
            self.sc.expect(")")
            self.nesting -= 1
            return parsed
        if ch.isdigit() or ch == ".":
            value = self.sc.scan_number()
            if not math.isfinite(value):
                raise ParseError("number too large for a float", offset)
            return Num(value), 0
        if ch.isalpha() or ch == "_":
            name = self.sc.scan_name()
            if self.sc.peek() == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", offset)
                self.enter(self.sc.pos)
                self.sc.pos += 1
                arg, depth = self.expr()
                self.sc.expect(")")
                self.nesting -= 1
                return call(name, arg), self.deepen(depth, "call", offset)
            if name in _FUNCTIONS:
                raise ParseError(f"function '{name}' requires an argument", offset)
            if name not in self.names:
                raise UndeclaredNameError(name, offset)
            return Var(name), 0
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
    function calls and prefix signs nest at most MAX_NESTING levels deep,
    and the weighted depth of the tree is at most MAX_DEPTH (see there);
    past either cap ParseError names the offending character's offset.
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
        # literals become names that compile_source binds to numpy or Python
        # floats, so constant-only subtrees follow the callers' error rules
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


def compile_tuple(exprs: Iterable[Expr], names) -> Callable:
    """One callable over numpy arrays (one positional arg per name) returning
    the tuple of the expressions' values, constants not broadcast.  Domain
    violations follow numpy semantics: callers check the results, as
    :func:`evaluate_columns` and the leapfrog forces do."""
    names = tuple(names)
    return compile_source(exprs, names, lambda s: f"_fn = {_lambda(names)}({', '.join(s)},)")


def _lambda(names) -> str:
    return f"lambda {', '.join(names) or '*_ignored'}: "


def compile_source(exprs: Iterable[Expr], names, write, namespace=None, float_literals=False):
    """The function ``_fn`` that the Python source ``write(sources)`` defines,
    where ``sources`` holds each expression's Python source over ``names``.

    Functions in the sources call numpy's ufuncs; literals are numpy floats,
    or Python floats with ``float_literals``.  ``namespace`` adds the other
    globals the source uses.  A source too deep to compile raises EvalError.
    """
    import numpy as np

    exprs, names = tuple(exprs), tuple(names)
    missing = frozenset().union(*(free_vars(e) for e in exprs)) - set(names)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    literal = float if float_literals else np.float64
    consts: list = []
    try:
        src = write([_emit_python(e, consts) for e in exprs])
        scope = {f"_f_{fn}": getattr(np, fn) for fn in _FUNCTIONS}
        scope.update((f"_c{i}", literal(value)) for i, value in enumerate(consts))
        scope.update(namespace or {})
        exec(src, scope)  # source generated above; no user text reaches exec
    except (RecursionError, SyntaxError, MemoryError):
        raise EvalError("expression too deeply nested to compile") from None
    return scope["_fn"]


_STRICT = {"divide": "raise", "invalid": "raise", "over": "raise"}
_FLOAT_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError)


def _run_strict(fn, columns):
    """``(values, None)``, or ``(None, (DomainError.reason, message))`` on a breach."""
    import numpy as np

    try:
        with np.errstate(**_STRICT):
            values = fn(*columns)[0]
    except _FLOAT_ERRORS as exc:  # numpy's message starts with the breach, "overflow encountered"
        breach = {ZeroDivisionError: "divide", OverflowError: "overflow"}.get(type(exc))
        return None, (breach or str(exc).split()[0], str(exc))
    if not np.all(np.isfinite(values)):
        return None, ("non-finite", "non-finite result")
    return values, None


def _first_failing_row(fn, columns) -> int:
    """Smallest row index whose prefix breaks the contract (rows are independent)."""
    lo, hi = 0, len(columns[0]) if columns else 1  # rows [0, lo) pass, rows [0, hi) fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _run_strict(fn, [c[:mid] for c in columns])[1] is None:
            lo = mid
        else:
            hi = mid
    return hi - 1


def _domain_error(e: Expr, breach, names, row) -> DomainError:
    source = to_source(e)
    if len(source) > 120:
        source = source[:117] + "..."
    point = ", ".join(f"{name}={float(x)!r}" for name, x in zip(names, row))
    where = f"at ({point})" if point else "everywhere"
    error = DomainError(f"{breach[1]} evaluating {source} {where}")
    error.reason = breach[0]
    return error


def evaluate_columns(exprs: Iterable[Expr], names, columns):
    """Yield each expression's values over the arrays ``columns``, strictly.

    ``columns[j]`` binds ``names[j]``.  The expressions are compiled
    together, in one exec, and evaluated in order as they are read: each
    yields an array of the columns' broadcast shape, or a scalar where it is
    constant.  A division by zero, an invalid operation or an overflow at
    any step raises DomainError naming the expression and the first
    offending point in row-major order; the earliest failing expression
    raises, so an error of one not yet read never shows.
    """
    import numpy as np

    exprs, names = tuple(exprs), tuple(names)
    constant = [isinstance(e, Num) and math.isfinite(e.value) for e in exprs]
    compiled = [e for e, c in zip(exprs, constant) if not c]

    def write(sources):  # the tuple of one-value lambdas, in order
        return "_fn = " + "".join(f"{_lambda(names)}({x},), " for x in sources)

    try:  # on failure, each compiles when reached, and the first failing one raises
        fns = iter(compile_source(compiled, names, write) if compiled else ())
    except EvalError:
        fns = (compile_tuple((e,), names) for e in compiled)
    for e, is_constant in zip(exprs, constant):
        if is_constant:  # no compile needed
            yield e.value
            continue
        fn = next(fns)
        values, breach = _run_strict(fn, columns)
        if breach is not None:
            flat = [c.reshape(-1) for c in np.broadcast_arrays(*columns)]
            row = _first_failing_row(fn, flat)
            raise _domain_error(e, breach, names, [c[row] for c in flat])
        yield values


def evaluate_batch(exprs: Iterable[Expr], names, points):
    """Values of each expression at each row of ``points``, shape (N, len(exprs)).

    Column j of the (N, len(names)) array ``points`` binds ``names[j]``;
    each expression is evaluated over all rows in one numpy call under the
    strict contract of :func:`evaluate_columns`.
    """
    import numpy as np

    exprs, names = tuple(exprs), tuple(names)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(names):
        raise ValueError(f"points must have shape (N, {len(names)}), got {points.shape}")
    out = np.empty((points.shape[0], len(exprs)))
    if points.shape[0]:
        columns = list(np.ascontiguousarray(points.T))
        for j, values in enumerate(evaluate_columns(exprs, names, columns)):
            out[:, j] = values
    return out
