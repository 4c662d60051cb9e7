"""Symbolic scalar expressions over named real coordinates.

The AST covers real literals, named variables, +, -, *, /, integer powers
and the unary functions sin, cos, exp, log, sqrt.  Nodes are immutable and
interned (hash-consed) as they are built, in a weak table: structurally
equal expressions are one object, so ``==`` is identity, and an expression
is a DAG whose repeated subtrees are one node.  Each node keeps the names
of its free variables and memoizes its derivatives by variable name.  Every
walk (diff, substitute, printing, evaluating, compiling) visits each distinct
node once, children first, through the one iterative :func:`_post_order`.

Expressions become numbers one way: :func:`evaluate_columns` walks their DAG,
one numpy operation per node, over whole arrays under a strict domain
contract, :func:`evaluate_batch` over a sample matrix's rows.  Only the
solvers' per-step functions are compiled to numpy code (:func:`compile_source`).
The scalar reference evaluator the tests compare against lives in tests/.

Expressions are built one way: by :func:`parse` or the smart constructors
below (add, sub, mul, div, neg, pow_int, call), and sums of many terms by
:func:`total`, their left fold from zero through add; Expr has no arithmetic
operators.
Simplification is best-effort only (constant folding and 0/1 identities,
applied by those constructors).  Nothing downstream relies on a
canonical form: all correctness checks are evaluation-based.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from functools import partial, reduce
from itertools import accumulate, islice
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .records import InputError


class ExprError(InputError):
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

# every live node, weakly, by its class and arguments; a child node by its
# id, so that the key does not keep it alive: a node whose memoized
# derivative refers back to it, like exp(u), would never be collected
_TABLE: dict = {}


class _Ref(weakref.ref):  # one object per entry, so the table adds little for gc to scan
    __slots__ = ("key",)


def _forget(ref: _Ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _node(cls, key: tuple, kids: tuple, fields: dict):
    """A new node of ``cls`` with the attributes ``fields``, the child nodes
    ``kids`` (left to right) and the names of its variables ``_vars``,
    interned as ``key``."""
    node = object.__new__(cls)
    node._vars = kids[0]._vars.union(*[kid._vars for kid in kids[1:]]) if kids else frozenset()
    node.__dict__.update(fields)
    node._kids = kids
    _TABLE[key] = ref = _Ref(node, _forget)
    ref.key = key
    return node


class Expr:
    """An interned node: each subclass's constructor returns the live node
    of its arguments or registers a new one, and its ``_derive(name, *d)``
    is d(node)/d(name) given the derivatives ``d`` of its child nodes.  The
    constructor's arguments are the node's public attributes."""

    _diffs: Mapping = MappingProxyType({})  # derivatives by variable name, once derived

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({fields})"


class Num(Expr):
    def __new__(cls, value):
        key = (cls, type(value), value, math.copysign(1.0, value))  # -0.0 apart from 0.0
        ref = _TABLE.get(key)
        return ref and ref() or _node(cls, key, (), {"value": value})

    def _derive(self, name):
        return _ZERO


class Var(Expr):
    def __new__(cls, name):
        ref = _TABLE.get((cls, name))
        return ref and ref() or _node(cls, (cls, name), (), {"name": name, "_vars": frozenset((name,))})

    def _derive(self, name):
        return _ONE if name == self.name else _ZERO


class _Binary(Expr):
    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        ref = _TABLE.get(key)
        return ref and ref() or _node(cls, key, (left, right), {"left": left, "right": right})


class Add(_Binary):
    def _derive(self, name, dl, dr):
        return add(dl, dr)


class Sub(_Binary):
    def _derive(self, name, dl, dr):
        return sub(dl, dr)


class Mul(_Binary):
    def _derive(self, name, dl, dr):
        return add(mul(dl, self.right), mul(self.left, dr))


class Div(_Binary):
    def _derive(self, name, dl, dr):
        if isinstance(self.right, Num):
            return div(dl, self.right)
        # (u/w)' = (u'w - uw') / w^2
        return div(sub(mul(dl, self.right), mul(self.left, dr)), pow_int(self.right, 2))


class Pow(Expr):
    def __new__(cls, base, exponent):
        key = (cls, id(base), exponent)
        ref = _TABLE.get(key)
        return ref and ref() or _node(cls, key, (base,), {"base": base, "exponent": exponent})

    def _derive(self, name, du):
        # d(u^m) = m u^(m-1) u'
        return mul(mul(Num(float(self.exponent)), pow_int(self.base, self.exponent - 1)), du)


class Neg(Expr):
    def __new__(cls, arg):
        key = (cls, id(arg))
        ref = _TABLE.get(key)
        return ref and ref() or _node(cls, key, (arg,), {"arg": arg})

    def _derive(self, name, du):
        return neg(du)


class Call(Expr):
    def __new__(cls, fn, arg):
        key = (cls, fn, id(arg))
        ref = _TABLE.get(key)
        return ref and ref() or _node(cls, key, (arg,), {"fn": fn, "arg": arg})

    def _derive(self, name, du):
        u = self.arg
        if is_zero_expr(du):
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


_ZERO = Num(0.0)
_ONE = Num(1.0)


def add(a: Expr, b: Expr) -> Expr:
    a_num, b_num = isinstance(a, Num), isinstance(b, Num)
    if a_num and a.value == 0.0:
        return b
    if b_num and b.value == 0.0:
        return a
    if a_num and b_num:
        s = a.value + b.value
        if math.isfinite(s):
            return Num(s)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    a_num, b_num = isinstance(a, Num), isinstance(b, Num)
    if b_num and b.value == 0.0:
        return a
    if a_num and a.value == 0.0:
        return neg(b)
    if a_num and b_num:
        s = a.value - b.value
        if math.isfinite(s):
            return Num(s)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    a_num, b_num = isinstance(a, Num), isinstance(b, Num)
    if (a_num and a.value == 0.0) or (b_num and b.value == 0.0):
        return _ZERO
    if a_num and a.value == 1.0:
        return b
    if b_num and b.value == 1.0:
        return a
    if a_num and b_num:
        p = a.value * b.value
        if math.isfinite(p):
            return Num(p)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value == 1.0:
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


def total(terms: Iterable[Expr]) -> Expr:
    """add(...add(add(0, t1), t2)..., tn): the sum of ``terms``, grouped from the left."""
    return reduce(add, terms, _ZERO)


def _post_order(roots: Iterable[Expr], done: Callable[[Expr], bool] | None = None) -> list:
    """The distinct nodes reachable from ``roots``, each once and after its
    children, left before right; a node for which ``done`` holds is neither
    listed nor entered."""
    order, seen = [], set()
    stack = [(None, iter(roots))]  # the roots, as the children of no node
    while stack:
        for kid in stack[-1][1]:
            if kid not in seen and (done is None or not done(kid)):
                seen.add(kid)
                if kid._kids:
                    stack.append((kid, iter(kid._kids)))
                    break
                order.append(kid)  # a leaf
        else:
            node = stack.pop()[0]
            if stack:
                order.append(node)
    return order


def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative of ``e`` with respect to ``name``,
    memoized on every node it derives.  The rules see only zero derivatives
    at the leaves of a node free of ``name``, so its derivative is the same
    for every name it is free of: it is memoized once, under None."""

    def derivative(node):  # its memoized derivative, or None
        return node._diffs.get(name if name in node._vars else None)

    if derivative(e) is None:
        for node in _post_order((e,), derivative):
            if not node._diffs:
                node._diffs = {}
            node._diffs[name if name in node._vars else None] = node._derive(
                name, *map(derivative, node._kids))
    return derivative(e)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """``e`` with each variable named in ``mapping`` replaced by its image,
    rebuilt through the smart constructors."""
    image: dict = {}
    for node in _post_order((e,)):
        if isinstance(node, Var):
            image[node] = mapping.get(node.name, node)
        else:  # the public attributes are the constructor's arguments, in order
            args = [image.get(v, v) for k, v in vars(node).items() if k[0] != "_"]
            image[node] = _SMART[type(node)](*args)
    return image[e]


def free_vars(e: Expr) -> frozenset:
    """The names of the variables in ``e``, kept on every node as it is built."""
    return e._vars


def is_zero_expr(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


_SMART = {Num: Num, Add: add, Sub: sub, Mul: mul, Div: div, Pow: pow_int, Neg: neg, Call: call}
Expr.free_vars = free_vars  # a method too, which is also how outside tools tell nodes apart


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1.0
_PREC_NEG = 1.2
_PREC_MUL = 2.0
_PREC_POW = 3.0
_PREC_ATOM = 4.0
_OPERATORS = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))  # -0.0 prints as "0"
    return repr(value)


def _print(e: Expr, text: Mapping) -> tuple:
    """The source of ``e`` and its precedence, given those of its children."""

    def operand(child, min_prec):
        source, prec = text[child]
        return f"({source})" if prec < min_prec else source

    if isinstance(e, Num):
        return _fmt_num(e.value), _PREC_NEG if e.value < 0 else _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, (Add, Sub, Mul, Div)):
        prec = _PREC_ADD if isinstance(e, (Add, Sub)) else _PREC_MUL
        return f"{operand(e.left, prec)}{_OPERATORS[type(e)]}{operand(e.right, prec + 0.5)}", prec
    if isinstance(e, Neg):
        return f"-{operand(e.arg, _PREC_MUL + 0.5)}", _PREC_NEG
    if isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{operand(e.base, _PREC_POW + 0.5)}^{exp}", _PREC_POW
    return f"{e.fn}({text[e.arg][0]})", _PREC_ATOM  # a Call


def to_source(e: Expr) -> str:
    """Render in the DSL grammar; parse(to_source(e)) is evaluation-equal."""
    text: dict = {}
    for node in _post_order((e,)):
        text[node] = _print(node, text)
    return text[e][0]


# ---------------------------------------------------------------------------
# parsing

# Parentheses, calls and prefix signs; each level costs the recursive-descent
# parser up to five Python frames, so this keeps it well inside the limit.
MAX_NESTING = 100

# Cap on the weighted depth of a parsed tree.  The second derivatives that
# ``analyze`` takes deepen each level of the source by up to its weight here
# (measured per operator chain): 1 for "+", "-" and prefix signs, 3 for "*"
# and "^", 5 for a call and 6 for "/"; parentheses weigh nothing.  The walks
# are iterative and compiled code is straight-line, so the cap no longer
# guards the recursion limit: it bounds the depth of the derived trees that
# ``to_source`` prints in full and that the walks descend.
MAX_DEPTH = 600
_WEIGHTS = {"+": 1, "-": 1, "^": 3, "*": 3, "call": 5, "/": 6}

# the binary operators by level, loosest first; see _Parser.binary
_LEVELS = ({"+": add, "-": sub}, {"*": mul, "/": div})
_NAME = re.compile(r"\w*")  # the characters for which str.isalnum holds, and "_"


class _Parser:
    """Recursive descent; each method returns the parsed tree and its
    weighted depth (an upper bound: folding only makes trees shallower)."""

    def __init__(self, source: str, names):
        self.source, self.pos = source, 0
        self.names = frozenset(names)
        self.nesting = 0

    def peek(self) -> str:
        """The next character past whitespace, which it skips; "" at the end."""
        src = self.source
        while self.pos < len(src) and src[self.pos] in " \t\r\n":
            self.pos += 1
        return src[self.pos] if self.pos < len(src) else ""

    def digits(self) -> int:
        """Move past the characters str.isdigit accepts; the count moved."""
        start, src = self.pos, self.source
        while self.pos < len(src) and src[self.pos].isdigit():
            self.pos += 1
        return self.pos - start

    def number(self) -> float:
        start, src = self.pos, self.source
        self.digits()
        if src.startswith(".", self.pos):
            self.pos += 1
            self.digits()
        if src[self.pos:self.pos + 1] in ("e", "E"):
            mark = self.pos
            self.pos += 2 if src[self.pos + 1:self.pos + 2] in ("+", "-") else 1
            if not self.digits():
                self.pos = mark  # not an exponent: back off
        try:
            return float(src[start:self.pos])
        except ValueError:  # no digits ("." or ".e5"), or a digit like "²" float() rejects
            raise ParseError(f"malformed number {src[start:self.pos]!r}", start) from None

    def enter(self):
        """Step past the character at pos, one level deeper into the nesting."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        self.pos += 1

    def close(self):
        """Step past the ')' that ends the innermost level of nesting."""
        if self.peek() != ")":
            raise ParseError("expected ')'", self.pos)
        self.pos += 1
        self.nesting -= 1

    @staticmethod
    def deepen(depth: int, op: str, offset: int) -> int:
        depth += _WEIGHTS[op]
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than the cap of {MAX_DEPTH}", offset)
        return depth

    def parse(self) -> Expr:
        e, _ = self.binary()
        if self.peek() != "":
            raise ParseError(f"unexpected character {self.peek()!r}", self.pos)
        return e

    def binary(self, level: int = 0):
        """A left-associative chain of the operators of ``_LEVELS[level]``, whose
        operands are read at the next level, or by unary after the last."""
        operators = _LEVELS[level]
        operand = partial(self.binary, level + 1) if level + 1 < len(_LEVELS) else self.unary
        e, depth = operand()
        while (ch := self.peek()) in operators:
            offset = self.pos
            self.pos += 1
            right, right_depth = operand()
            e = operators[ch](e, right)
            depth = self.deepen(max(depth, right_depth), ch, offset)
        return e, depth

    def unary(self):
        ch = self.peek()
        if ch not in ("+", "-"):
            return self.power()
        offset = self.pos
        self.enter()
        e, depth = self.unary()
        self.nesting -= 1
        return (neg(e) if ch == "-" else e), self.deepen(depth, ch, offset)

    def power(self):
        e, depth = self.atom()
        while self.peek() == "^":
            offset = self.pos
            self.pos += 1
            e = pow_int(e, self.exponent())
            depth = self.deepen(depth, "^", offset)
        return e, depth

    def exponent(self) -> int:
        ch = self.peek()
        offset = self.pos
        if ch == "(":
            self.enter()
            value = self.exponent()
            self.close()
            return value
        sign = -1 if ch == "-" else 1
        if sign < 0:
            self.pos += 1
            ch = self.peek()
        if not ch.isdigit():
            raise ParseError("exponent must be an integer constant", offset)
        start = self.pos
        value = self.number()
        if not value.is_integer():  # a fraction, or an overflow to inf
            raise ParseError("exponent must be an integer constant", start)
        return sign * int(value)

    def atom(self):
        ch = self.peek()
        offset = self.pos
        if ch == "":
            raise ParseError("unexpected end of input", offset)
        if ch.isdigit() or ch == ".":
            value = self.number()
            if not math.isfinite(value):
                raise ParseError("number too large for a float", offset)
            return Num(value), 0
        name = _NAME.match(self.source, offset).group() if ch.isalpha() or ch == "_" else ""
        if name:
            self.pos += len(name)
            if self.peek() != "(":
                if name in _FUNCTIONS:
                    raise ParseError(f"function '{name}' requires an argument", offset)
                if name not in self.names:
                    raise UndeclaredNameError(name, offset)
                return Var(name), 0
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", offset)
        elif ch != "(":
            raise ParseError(f"unexpected character {ch!r}", offset)
        self.enter()
        e, depth = self.binary()
        self.close()
        return (call(name, e), self.deepen(depth, "call", offset)) if name else (e, depth)


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
# compilation to straight-line numpy code, and batched strict evaluation

def compile_source(groups: Iterable[Iterable[Expr]], names, write, namespace=None,
                   float_literals=False):
    """The function ``_fn`` that the Python source ``write(blocks)`` defines.

    Per group of expressions, ``blocks`` holds the lines that compute the
    group's DAG nodes not computed by an earlier group, one local per node
    in post-order, and the names of the group's values.  Each node does its
    IEEE operation on the same operands as in the expression; a variable not
    in ``names`` raises UnboundVariableError when reached.  Functions are
    numpy's ufuncs; literals are numpy floats, or Python floats with
    ``float_literals``, which also makes Python floats of the values whose
    DAG holds a function call.  ``namespace`` adds other globals.
    """
    import numpy as np

    literal, names = (float if float_literals else np.float64), frozenset(names)
    scope = {"_unbound": _unbound, **{f"_f_{fn}": getattr(np, fn) for fn in _FUNCTIONS}}
    atom: dict = {}  # node -> the name holding its value
    calls: set = set()  # nodes whose DAG holds a Call
    blocks = []
    for group in map(tuple, groups):
        lines = []
        for node in _post_order(group, atom.__contains__):
            args = [atom[kid] for kid in node._kids]
            if isinstance(node, Call) or any(kid in calls for kid in node._kids):
                calls.add(node)
            if isinstance(node, Var) and node.name in names:
                atom[node] = node.name
            elif isinstance(node, Num):
                # a name bound to a numpy or Python float, so constant-only
                # subtrees follow the callers' error rules
                atom[node] = f"_c{len(atom)}"
                scope[atom[node]] = literal(node.value)
            else:
                atom[node] = f"_t{len(atom)}"
                lines.append(f"{atom[node]} = {_PYTHON[type(node)].format(*args, e=node)}")
        values = [atom[e] for e in group]
        if float_literals:  # numpy functions give numpy floats: make Python floats again
            values = [f"float({v})" if e in calls else v for e, v in zip(group, values)]
        blocks.append((lines, values))
    scope.update(namespace or {})
    exec(write(blocks), scope)  # source generated above; no user text reaches exec
    return scope["_fn"]


# each node's Python expression over the names of its children, {0} and {1}
_PYTHON = {Add: "{0} + {1}", Sub: "{0} - {1}", Mul: "{0} * {1}", Div: "{0} / {1}", Neg: "-{0}",
           Pow: "{0} ** ({e.exponent})", Call: "_f_{e.fn}({0})", Var: "_unbound({e.name!r})"}


def _unbound(name: str):
    raise UnboundVariableError(name)


_OPERATIONS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv,
               Neg: operator.neg}


def _walk(exprs: tuple, names: tuple) -> Callable:
    """A generator of the expressions' values in order over arrays, one per name: one step
    per DAG node in post-order, each the IEEE operation :func:`compile_source` emits for
    the node, on the same operands, so every bit is the same."""
    import numpy as np

    bound, literals, steps, ends = frozenset(names), {}, [], {}
    for node in _post_order(exprs):
        kind = type(node)
        if kind is Num:
            literals[node] = np.float64(node.value)
        elif kind is Pow:
            steps.append((node, lambda base, m=node.exponent: base ** m, node._kids))
        elif kind is not Var:  # an operator, or a call of a numpy ufunc
            steps.append((node, _OPERATIONS.get(kind) or getattr(np, node.fn), node._kids))
        elif node.name not in bound:  # a variable without a column raises when reached
            steps.append((node, partial(_unbound, node.name), ()))
        ends[node] = len(steps)  # the steps up to and including its own
    stops, variables = tuple(accumulate((ends[e] for e in exprs), max)), list(map(Var, names))

    def run(*columns):
        value = dict(literals)  # every node's value, held until the walk ends
        value.update(zip(variables, columns))
        start = 0
        for e, stop in zip(exprs, stops):
            for node, fn, kids in steps[start:stop]:
                value[node] = fn(*[value[kid] for kid in kids])
            start = stop
            yield value[e]

    return run


def compile_tuple(exprs: Iterable[Expr], names) -> Callable:
    """One callable over numpy arrays (one positional arg per name) returning
    the tuple of the expressions' values, constants not broadcast.  Domain
    violations follow numpy semantics: callers check the results, as the
    leapfrog forces do."""
    names = tuple(names)

    def write(blocks):
        ((lines, values),) = blocks
        head = f"def _fn({', '.join(names) or '*_ignored'}):"
        return "\n    ".join([head] + lines + [f"return ({', '.join(values)},)"])

    return compile_source([exprs], names, write)


_STRICT = {"divide": "raise", "invalid": "raise", "over": "raise"}
_FLOAT_ERRORS = (FloatingPointError, ZeroDivisionError, OverflowError)


def _run_strict(value_of):
    """``(value_of(), None)``, or ``(None, (DomainError.reason, message))`` on a breach."""
    import numpy as np

    try:
        with np.errstate(**_STRICT):
            values = value_of()
    except _FLOAT_ERRORS as exc:  # numpy's message starts with the breach, "overflow encountered"
        breach = {ZeroDivisionError: "divide", OverflowError: "overflow"}.get(type(exc))
        return None, (breach or str(exc).split()[0], str(exc))
    if not np.all(np.isfinite(values)):
        return None, ("non-finite", "non-finite result")
    return values, None


def _first_failing_row(fn, columns, index: int) -> int:
    """Smallest row index whose prefix breaks the contract for the ``index``-th
    value of the generator ``fn`` (rows are independent)."""
    lo, hi = 0, len(columns[0]) if columns else 1  # rows [0, lo) pass, rows [0, hi) fail

    def value_of():
        return next(islice(fn(*[c[:mid] for c in columns]), index, None))

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _run_strict(value_of)[1] is None:
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

    ``columns[j]`` binds ``names[j]``.  One walk over the expressions' DAG
    computes each node once, with numpy's operators and ufuncs, and they
    are evaluated in order as they are read: each yields an array of the
    columns' broadcast shape, or a scalar where it is constant.  A
    division by zero, an invalid operation or an overflow at any step raises
    DomainError naming the expression and the first offending point in
    row-major order; the earliest failing expression raises, so an error of
    one not yet read never shows.  So does an unbound variable's
    UnboundVariableError.
    """
    import numpy as np

    exprs, names = tuple(exprs), tuple(names)
    constant = [isinstance(e, Num) and math.isfinite(e.value) for e in exprs]
    if not all(constant):
        fn = _walk(tuple(e for e, c in zip(exprs, constant) if not c), names)
        values, index = fn(*columns), 0
    for e, is_constant in zip(exprs, constant):
        if is_constant:  # nothing to walk
            yield e.value
            continue
        value, breach = _run_strict(lambda: next(values))
        if breach is not None:
            flat = [c.reshape(-1) for c in np.broadcast_arrays(*columns)]
            row = _first_failing_row(fn, flat, index)
            raise _domain_error(e, breach, names, [c[row] for c in flat])
        index += 1
        yield value


def evaluate_batch(exprs: Iterable[Expr], names, points):
    """Values of each expression at each row of ``points``, shape (N, len(exprs)).

    Column j of the (N, len(names)) array ``points`` binds ``names[j]``;
    each expression is evaluated over all rows in one numpy call under the
    strict contract of :func:`evaluate_columns`.  The walk reads and writes
    whole columns, so the output is column-major and a column-major
    ``points`` is read without a copy; a row-major one is transposed once.
    """
    import numpy as np

    exprs, names = tuple(exprs), tuple(names)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != len(names):
        raise ValueError(f"points must have shape (N, {len(names)}), got {points.shape}")
    out = np.empty((points.shape[0], len(exprs)), order="F")
    if points.shape[0]:
        columns = list(np.ascontiguousarray(points.T))
        for j, values in enumerate(evaluate_columns(exprs, names, columns)):
            out[:, j] = values
    return out
