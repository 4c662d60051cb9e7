"""Expression kernel: parsing, differentiation, evaluation."""

import gc
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksfield import expr
from ksfield.expr import (
    MAX_DEPTH,
    MAX_NESTING,
    Add,
    Call,
    Div,
    DomainError,
    Mul,
    Neg,
    Num,
    Pow,
    ParseError,
    Sub,
    UnboundVariableError,
    UndeclaredNameError,
    Var,
    add,
    call,
    compile_tuple,
    diff,
    div,
    evaluate_batch,
    evaluate_columns,
    free_vars,
    mul,
    neg,
    parse,
    pow_int,
    substitute,
    sub,
    to_source,
)
from ksfield.coords import VarTable
from reference import evaluate

NAMES = ("q1", "q2", "v1_1", "v1_2", "t1")


def centered_difference(e, name, env, h=1e-5):
    """Independent derivative oracle: (f(x+h) - f(x-h)) / 2h."""
    hi = dict(env)
    lo = dict(env)
    hi[name] = env[name] + h
    lo[name] = env[name] - h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)


def random_polynomial(rng, names, max_terms=5, max_degree=3):
    """Random multivariate polynomial with O(1) coefficients."""
    e = Num(float(rng.uniform(-1, 1)))
    for _ in range(rng.integers(1, max_terms + 1)):
        term = Num(float(rng.uniform(-2, 2)))
        for _ in range(rng.integers(1, max_degree + 1)):
            term = mul(term, Var(str(rng.choice(names))))
        e = add(e, term)
    return e


def random_expression(rng, names, depth=3):
    """Random smooth expression; unary functions get bounded arguments."""
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return Var(str(rng.choice(names)))
        return Num(float(rng.uniform(-2, 2)))
    choice = rng.integers(0, 6)
    a = random_expression(rng, names, depth - 1)
    b = random_expression(rng, names, depth - 1)
    if choice == 0:
        return add(a, b)
    if choice == 1:
        return sub(a, b)
    if choice == 2:
        return mul(a, b)
    if choice == 3:
        return pow_int(a, int(rng.integers(2, 4)))
    fn = str(rng.choice(["sin", "cos", "exp"]))
    # keep exp arguments bounded so values stay O(1)
    scaled = mul(Num(0.3), a)
    return call(fn, scaled)


class TestParse:
    def test_half_square(self):
        e = parse("v1_1^2/2", NAMES)
        assert evaluate(e, {"v1_1": 3.0}) == 4.5

    def test_free_variables(self):
        e = parse("q1 + sin(q2)*v1_2", NAMES)
        assert free_vars(e) == {"q1", "q2", "v1_2"}

    def test_undeclared_identifier(self):
        with pytest.raises(UndeclaredNameError) as err:
            parse("q3", NAMES)
        assert err.value.name == "q3"

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("q1 + ", NAMES)
        assert err.value.offset == 5

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(q1)", NAMES)

    def test_integer_exponent_required(self):
        with pytest.raises(ParseError):
            parse("q1^2.5", NAMES)
        assert evaluate(parse("q1^(-2)", NAMES), {"q1": 2.0}) == 0.25

    @pytest.mark.parametrize(
        "source, offset", [("v1_1^2/2 + .", 11), ("q1 + .e5", 5), ("q1*\u00b2", 3)]
    )
    def test_malformed_number(self, source, offset):
        # float() rejects these; the scanner must report them, not raise ValueError
        with pytest.raises(ParseError) as err:
            parse(source, NAMES)
        assert err.value.offset == offset
        assert "malformed number" in str(err.value)

    @pytest.mark.parametrize("source", ["q1^1e999", "q1^-9e999", "q1^(1e999)"])
    def test_exponent_overflowing_a_float(self, source):
        with pytest.raises(ParseError, match="exponent must be an integer constant"):
            parse(source, NAMES)

    def test_literal_overflowing_a_float(self):
        with pytest.raises(ParseError, match="number too large") as err:
            parse("v1_1^2/2 + 9e999", NAMES)
        assert err.value.offset == 11

    def test_whitespace_insensitive(self):
        a = parse("q1+q2 * v1_1", NAMES)
        b = parse(" q1 + q2*v1_1 ", NAMES)
        env = {"q1": 1.0, "q2": 2.0, "v1_1": 3.0}
        assert evaluate(a, env) == evaluate(b, env)

    def test_nesting_capped_at_offset(self):
        source = "(" * 3000 + "q1" + ")" * 3000
        with pytest.raises(ParseError) as err:
            parse(source, NAMES)
        assert err.value.offset == MAX_NESTING  # the first parenthesis past the cap

    def test_nesting_cap_counts_calls_and_signs(self):
        with pytest.raises(ParseError):
            parse("sin(" * 3000 + "q1" + ")" * 3000, NAMES)
        with pytest.raises(ParseError):
            parse("-" * 3000 + "q1", NAMES)

    def test_nesting_up_to_cap_accepted(self):
        e = parse("(" * MAX_NESTING + "q1" + ")" * MAX_NESTING, NAMES)
        assert evaluate(e, {"q1": 2.0}) == 2.0

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", "")],
                             ids=["parentheses", "calls", "signs"])
    def test_nesting_cap_costs_at_most_five_frames_a_level(self, opening, closing):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 5 * MAX_NESTING + 20)
        try:
            e = parse(opening * MAX_NESTING + "q1" + closing * MAX_NESTING, NAMES)
        finally:
            sys.setrecursionlimit(limit)
        assert free_vars(e) == {"q1"}

    def test_flat_sum_capped_at_operator_offset(self):
        # a flat chain needs no parser recursion but builds a left-deep tree
        at_cap = " + ".join(["q1"] * (MAX_DEPTH + 1))
        assert evaluate(parse(at_cap, NAMES), {"q1": 1.0}) == MAX_DEPTH + 1
        with pytest.raises(ParseError) as err:
            parse(at_cap + " - q1", NAMES)
        assert err.value.offset == len(at_cap) + 1  # the "-" past the cap

    def test_depth_weights_products_and_quotients(self):
        assert parse("*".join(["q1"] * (MAX_DEPTH // 3 + 1)), NAMES) is not None
        with pytest.raises(ParseError):
            parse("*".join(["q1"] * (MAX_DEPTH // 3 + 2)), NAMES)
        assert parse("q1" + "/q2" * (MAX_DEPTH // 6), NAMES) is not None
        with pytest.raises(ParseError):
            parse("q1" + "/q2" * (MAX_DEPTH // 6 + 1), NAMES)
        with pytest.raises(ParseError):
            parse("q1" + "^2" * 3000, NAMES)

    def test_unary_minus_binds_tighter_than_product(self):
        # "-a*b" reads as (-a)*b; value identical either way
        e = parse("-q1*q2", NAMES)
        assert evaluate(e, {"q1": 2.0, "q2": 3.0}) == -6.0


class TestEvaluate:
    def test_linear(self):
        e = parse("q1 + 2*v1_1", NAMES)
        assert evaluate(e, {"q1": 1.0, "v1_1": 3.0}) == 7.0

    def test_division_by_zero(self):
        e = parse("1/q1", NAMES)
        with pytest.raises(DomainError):
            evaluate(e, {"q1": 0.0})

    def test_log_of_negative(self):
        e = parse("log(q1)", NAMES)
        with pytest.raises(DomainError):
            evaluate(e, {"q1": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("q1 + q2", NAMES), {"q1": 0.0})

    def test_overflowing_constant_power_is_domain_error(self):
        e = parse("1e200^2", NAMES)  # left unfolded by the parser
        with pytest.raises(DomainError):
            evaluate(e, {})

    def test_overflow_is_domain_error(self):
        e = parse("exp(q1)", NAMES)
        with pytest.raises(DomainError):
            evaluate(e, {"q1": 1e9})


class TestRoundTrip:
    def test_print_parse_eval_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            e = random_expression(rng, NAMES)
            text = to_source(e)
            back = parse(text, NAMES)
            env = {name: float(rng.uniform(-1, 1)) for name in NAMES}
            try:
                expected = evaluate(e, env)
            except DomainError:
                continue
            assert evaluate(back, env) == expected  # exact, 0 ulp

    def test_negative_exponent_round_trip(self):
        e = pow_int(Var("q1"), -2)
        assert evaluate(parse(to_source(e), NAMES), {"q1": 2.0}) == 0.25


class TestDiff:
    def test_quadratic(self):
        e = parse("v1_1^2/2", NAMES)
        d = diff(e, "v1_1")
        for value in (0.0, 1.5, -2.0):
            assert evaluate(d, {"v1_1": value}) == value

    def test_product(self):
        e = parse("sin(q1)*v1_1", NAMES)
        d = diff(e, "q1")
        env = {"q1": 0.7, "v1_1": 2.0}
        assert d.free_vars() <= free_vars(e)
        assert abs(evaluate(d, env) - math.cos(0.7) * 2.0) < 1e-15

    def test_constant_call_has_zero_derivative(self):
        # no 0/sqrt(q1)-style factor that would add a domain condition
        assert diff(parse("sqrt(q1) + log(q2)", NAMES), "v1_1") == Num(0.0)

    def test_free_vars_never_grow(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            e = random_expression(rng, NAMES)
            assert free_vars(diff(e, "q1")) <= free_vars(e)

    def test_against_centered_differences(self):
        # Independent finite-difference oracle on 50 random polynomials.
        rng = np.random.default_rng(11)
        for _ in range(50):
            e = random_polynomial(rng, NAMES)
            name = str(rng.choice(NAMES))
            env = {key: float(rng.uniform(-1, 1)) for key in NAMES}
            exact = evaluate(diff(e, name), env)
            approx = centered_difference(e, name, env)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e1 = random_polynomial(rng, NAMES)
            e2 = random_polynomial(rng, NAMES)
            a, b = 1.7, -0.3
            combo = add(mul(Num(a), e1), mul(Num(b), e2))
            lhs = diff(combo, "q1")
            rhs = add(mul(Num(a), diff(e1, "q1")), mul(Num(b), diff(e2, "q1")))
            for _ in range(5):
                env = {key: float(rng.uniform(-1, 1)) for key in NAMES}
                x, y = evaluate(lhs, env), evaluate(rhs, env)
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = random_expression(rng, NAMES)
            d_xy = diff(diff(e, "q1"), "q2")
            d_yx = diff(diff(e, "q2"), "q1")
            for _ in range(5):
                env = {key: float(rng.uniform(-1, 1)) for key in NAMES}
                try:
                    x, y = evaluate(d_xy, env), evaluate(d_yx, env)
                except DomainError:
                    continue
                assert abs(x - y) <= 1e-10 * max(1.0, abs(x), abs(y))


def test_polynomial_diff_is_exact():
    # d/dx (a x^3 + b x^2 + c x) = 3a x^2 + 2b x + c, checked pointwise for
    # every integer coefficient triple in [-3, 3]
    x = Var("q1")
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        cubic = add(mul(Num(float(a)), pow_int(x, 3)), mul(Num(float(b)), pow_int(x, 2)))
        d = diff(add(cubic, mul(Num(float(c)), x)), "q1")
        for point in (-1.5, -0.25, 0.0, 0.75, 2.0):
            expected = 3 * a * point**2 + 2 * b * point + c
            assert evaluate(d, {"q1": point}) == pytest.approx(expected, abs=1e-12)


class TestSubstitute:
    def test_composition(self):
        e = parse("q1^2 + v1_1", NAMES)
        image = substitute(e, {"q1": parse("t1 + 1", NAMES), "v1_1": Num(2.0)})
        assert evaluate(image, {"t1": 2.0}) == 11.0

    def test_untouched_names_remain(self):
        e = parse("q1 + q2", NAMES)
        image = substitute(e, {"q1": Num(0.0)})
        assert free_vars(image) == {"q2"}


class TestVectorized:
    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(2)
        e = parse("sin(q1)*v1_1 + q2^2", NAMES)
        fn = compile_tuple([e], NAMES)
        args = [rng.uniform(-1, 1, size=17) for _ in NAMES]
        (out,) = fn(*args)
        for idx in range(17):
            env = {name: float(col[idx]) for name, col in zip(NAMES, args)}
            assert out[idx] == pytest.approx(evaluate(e, env), abs=0)

    def test_long_chain_compiles(self):
        # a left-leaning chain needs no nested parentheses in the generated source
        e = parse(" + ".join(["q1"] * 600), NAMES)
        assert compile_tuple([e], NAMES)(*[np.ones(3)] * len(NAMES))[0].tolist() == [600.0] * 3

    def test_constant_broadcast(self):
        out = evaluate_batch([Num(3.0)], ("q1",), np.zeros((4, 1)))[:, 0]
        assert out.shape == (4,)
        assert np.all(out == 3.0)


class TestEvaluateBatch:
    def test_rows_and_columns(self):
        points = np.array([[0.5, 2.0, 0.0, 0.0, 0.0], [-1.0, 3.0, 0.0, 0.0, 0.0]])
        exprs = [parse("q1*q2", NAMES), Num(4.0), parse("q2 - q1", NAMES)]
        assert evaluate_batch(exprs, NAMES, points).tolist() == [[1.0, 4.0, 1.5], [-3.0, 4.0, 4.0]]

    def test_domain_error_names_expression_and_first_bad_row(self):
        points = np.zeros((6, len(NAMES)))
        points[:, 0] = [1.0, 0.25, 0.5, -0.5, -1.0, 0.75]
        with pytest.raises(DomainError) as err:
            evaluate_batch([parse("sqrt(q1)", NAMES)], NAMES, points)
        assert "sqrt(q1)" in str(err.value)
        assert "q1=-0.5" in str(err.value)

    def test_intermediate_overflow_breaks_contract(self):
        # the product overflows although its reciprocal would round to 0
        e = parse("1/(exp(q1)*exp(q1))", NAMES)
        env = {"q1": 400.0}
        with pytest.raises(DomainError):
            evaluate(e, env)
        with pytest.raises(DomainError):
            evaluate_batch([e], ["q1"], [[400.0]])

    def test_earlier_domain_error_wins(self):
        # both fail at row 0; the expressions are walked as one DAG, yet the
        # first in order is the one reported
        points = np.zeros((3, len(NAMES)))
        exprs = [parse("q2 + 1", NAMES), parse("log(q1)", NAMES), parse("1/q2", NAMES)]
        with pytest.raises(DomainError, match=r"log\(q1\)"):
            evaluate_batch(exprs, NAMES, points)
        with pytest.raises(DomainError, match="1/q2"):
            evaluate_batch(exprs[::-1], NAMES, points)

    def test_columns_evaluate_in_order_as_read(self):
        columns = [np.array([0.0, 2.0])]
        values = evaluate_columns([Var("q1"), parse("1/q1", ["q1"])], ["q1"], columns)
        assert next(values).tolist() == [0.0, 2.0]  # the later failure does not show yet
        with pytest.raises(DomainError, match="q1=0.0"):
            next(values)

    def test_unbound_name_loses_to_an_earlier_domain_error(self):
        columns = [np.array([-1.0, 1.0])]
        # an unbound name in a later expression: the earlier DomainError wins
        with pytest.raises(DomainError, match=r"sqrt\(q1\)"):
            list(evaluate_columns([parse("sqrt(q1)", ["q1"]), Var("zz")], ["q1"], columns))
        # and values before the unbound one are still yielded first
        values = evaluate_columns([Var("q1"), Var("zz"), Var("yy")], ["q1"], columns)
        assert next(values).tolist() == [-1.0, 1.0]
        with pytest.raises(UnboundVariableError) as err:
            next(values)
        assert err.value.name == "zz"

    def test_empty_sample_matrix(self):
        empty = np.empty((0, len(NAMES)))
        assert evaluate_batch([parse("1/q1", NAMES)], NAMES, empty).shape == (0, 1)


PROPERTY_NAMES = ("q1", "q2", "v1_1")
_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-3.0, max_value=3.0),
)
# Three variables to one constant, constants and exponents kept away from
# 0 and 1: the smart constructors would fold such subtrees into constants.
_constants = st.one_of(st.floats(0.25, 3.0), st.floats(-3.0, -0.25)).map(Num)
_leaves = st.sampled_from([*PROPERTY_NAMES, None]).flatmap(
    lambda name: _constants if name is None else st.just(Var(name))
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from([add, sub, mul, div]), children, children).map(
            lambda args: args[0](args[1], args[2])
        ),
        st.tuples(children, st.sampled_from([2, 3, -1, -2, -3])).map(
            lambda args: pow_int(*args)
        ),
        children.map(neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), children).map(
            lambda args: call(*args)
        ),
    )


def _evaluate_or_none(e, row):
    try:
        return evaluate(e, dict(zip(PROPERTY_NAMES, row)))
    except DomainError:
        return None


_trees = _branches(st.recursive(_leaves, _branches, max_leaves=8))
_rows = st.lists(st.lists(_coordinates, min_size=3, max_size=3), min_size=1, max_size=6)


@given(_trees, _rows)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batched_evaluation_matches_scalar_reference(e, rows):
    # the batched core either agrees row by row with the scalar evaluate,
    # or raises DomainError exactly when some row's scalar evaluation does
    scalar = [_evaluate_or_none(e, row) for row in rows]
    if None in scalar:
        with pytest.raises(DomainError):
            evaluate_batch([e], PROPERTY_NAMES, rows)
        return
    batched = evaluate_batch([e], PROPERTY_NAMES, rows)[:, 0]
    for got, want in zip(batched, scalar):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@given(_trees, _trees, _rows)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_source_round_trip_evaluates_the_same(a, b, rows):
    # the printed source parses back into a tree with the same value at
    # every row, or the same DomainError; joining two trees by each operator
    # puts compound operands on both sides of it
    for e in (a, add(a, b), sub(a, b), mul(a, b), div(a, b)):
        again = parse(to_source(e), PROPERTY_NAMES)
        for row in rows:
            assert _evaluate_or_none(again, row) == _evaluate_or_none(e, row)


@st.composite
def _dags(draw):
    """Names and root expressions of a random DAG over two or three of
    PROPERTY_NAMES, built with the node classes, so no subtree is folded:
    shared nodes, literals of both zero signs, negative integer powers,
    every function and a constant-only subtree."""
    names = PROPERTY_NAMES[: draw(st.integers(2, 3))]
    literal = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]).map(Num)
    functions = st.sampled_from(["sin", "cos", "exp", "log", "sqrt"])
    pool = [Var(name) for name in names] + [Num(0.0), Num(-0.0)]
    pool.append(Call(draw(functions), Add(draw(literal), Neg(draw(literal)))))
    for _ in range(draw(st.integers(1, 12))):
        left, right = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(2))
        kind = draw(st.sampled_from(["binary", "pow", "neg", "call"]))
        if kind == "binary":
            pool.append(draw(st.sampled_from([Add, Sub, Mul, Div]))(left, right))
        elif kind == "pow":
            pool.append(Pow(left, draw(st.sampled_from([-3, -2, -1, 2, 3]))))
        elif kind == "neg":
            pool.append(Neg(left))
        else:
            pool.append(Call(draw(functions), left))
    return names, draw(st.lists(st.sampled_from(pool[len(names):]), min_size=1, max_size=4))


@given(_dags(), _rows)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_walk_matches_compiled_code_bit_for_bit(dag, rows):
    # the walk does each node's IEEE operation on the same operands as the
    # generated code: where every value is finite, the bytes are the same;
    # where the generated code breaches the strict contract, the walk raises
    names, roots = dag
    columns = [np.array([row[j] for row in rows]) for j in range(len(names))]
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            compiled = compile_tuple(roots, names)(*columns)
        finite = all(np.all(np.isfinite(value)) for value in compiled)
    except ArithmeticError:
        finite = False
    if not finite:
        with pytest.raises(DomainError):
            list(evaluate_columns(roots, names, columns))
        return
    for e, got, want in zip(roots, evaluate_columns(roots, names, columns), compiled):
        if not isinstance(e, Num):  # a literal root is yielded as its Python float
            assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@given(_dags(), _rows)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_evaluate_batch_is_column_major_for_either_input_layout(dag, rows):
    # row-major and column-major copies of the same points give the same
    # bytes in a column-major matrix, or the same DomainError
    names, roots = dag
    points = np.array([row[: len(names)] for row in rows])
    outcomes = []
    for order in "CF":
        try:
            outcomes.append(evaluate_batch(roots, names, np.asarray(points, order=order)))
        except DomainError as exc:
            outcomes.append(str(exc))
    row_major, column_major = outcomes
    if isinstance(row_major, str):
        assert row_major == column_major
        return
    for out in outcomes:
        assert out.shape == (len(rows), len(roots)) and out.flags.f_contiguous
    assert row_major.tobytes() == column_major.tobytes()


class TestInternedDag:
    def test_equal_expressions_are_one_object(self):
        source = "sin(q1)*v1_1 + q2^(-2)/(1 - q1)"
        assert parse(source, NAMES) is parse(source, NAMES)
        assert add(Var("q1"), Num(2.0)) is parse("q1 + 2", NAMES)
        assert call("cos", Var("q2")) is parse("cos(q2)", NAMES)
        assert parse("q1 + 2", NAMES) is not parse("2 + q1", NAMES)

    def test_negative_zero_is_its_own_node(self):
        assert Num(-0.0) is not Num(0.0)
        assert neg(Num(0.0)) is Num(-0.0)
        assert math.copysign(1.0, neg(Num(0.0)).value) == -1.0
        # printed as before, and compiled with its sign, next to a +0.0
        assert to_source(Num(-0.0)) == to_source(Num(0.0)) == "0"
        values = compile_tuple([Num(0.0), Num(-0.0), div(Num(-0.0), Var("q1"))], ["q1"])(1.0)
        assert [math.copysign(1.0, x) for x in values] == [1.0, -1.0, -1.0]

    def test_derivatives_are_memoized(self):
        e = parse("exp(q1*q2)/(1 + q1^2)", NAMES)
        assert diff(e, "q1") is diff(e, "q1")
        assert diff(diff(e, "q1"), "q2") is diff(diff(e, "q1"), "q2")

    def test_second_derivative_of_a_long_product_stays_small(self):
        # as a tree this derivative has about 10^7 nodes; as a DAG about 1200
        product = parse(" * ".join(["(v1_1 + 2)"] * 200), NAMES)
        second = diff(diff(product, "v1_1"), "v1_1")
        assert len(expr._post_order([second])) <= 3000

    def test_shared_call_is_computed_once(self, monkeypatch):
        calls, sin = [], np.sin

        def counting_sin(x):
            calls.append(x)
            return sin(x)

        e = parse("sin(q1)*sin(q1) + sin(q1)", NAMES)
        monkeypatch.setattr(np, "sin", counting_sin)
        (value,) = compile_tuple([e], ["q1"])(np.array([0.5]))
        assert len(calls) == 1
        assert value[0] == math.sin(0.5) * math.sin(0.5) + math.sin(0.5)
        (walked,) = evaluate_columns([e], ["q1"], [np.array([0.5])])
        assert len(calls) == 2 and walked.tobytes() == value.tobytes()

    def test_dropped_expressions_leave_the_table(self):
        gc.collect()
        before = len(expr._TABLE)
        e = parse("exp(123.25*q1)*sqrt(q2 + 456.5) - q1^7", NAMES)
        diff(diff(e, "q1"), "q2")  # memoized derivatives that refer back to e
        assert len(expr._TABLE) > before
        del e
        gc.collect()
        assert len(expr._TABLE) == before


class TestVarTable:
    def test_names_and_counts(self):
        table = VarTable(2, 3)
        assert table.q_names == ("q1", "q2")
        assert len(table.v_names) == 6
        assert len(table.p_names) == 6
        assert table.t_names == ("t1", "t2", "t3")
        assert table.v(0, 2) == "v1_3"
        assert table.p(2, 0) == "p3_1"
        assert len(set(table.velocity_chart + table.p_names + table.t_names)) == 2 + 6 + 6 + 3

    def test_fiber_slot_layout(self):
        table = VarTable(2, 2)
        assert table.velocity_chart == ("q1", "q2", "v1_1", "v2_1", "v1_2", "v2_2")
        assert table.fiber_slot(1, 1) == 5

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            VarTable(0, 1)
