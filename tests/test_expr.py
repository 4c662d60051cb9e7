"""Expression kernel: parsing, differentiation, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksfield.expr import (
    MAX_NESTING,
    DomainError,
    Num,
    ParseError,
    UnboundVariableError,
    UndeclaredNameError,
    Var,
    add,
    call,
    compile_vectorized,
    diff,
    div,
    evaluate,
    evaluate_batch,
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


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_diff_is_exact(a, b, c):
    # d/dx (a x^3 + b x^2 + c x) = 3a x^2 + 2b x + c, checked pointwise
    x = Var("q1")
    e = add(add(mul(Num(float(a)), pow_int(x, 3)), mul(Num(float(b)), pow_int(x, 2))), mul(Num(float(c)), x))
    d = diff(e, "q1")
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
        fn = compile_vectorized(e, NAMES)
        args = [rng.uniform(-1, 1, size=17) for _ in NAMES]
        out = fn(*args)
        for idx in range(17):
            env = {name: float(col[idx]) for name, col in zip(NAMES, args)}
            assert out[idx] == pytest.approx(evaluate(e, env), abs=0)

    def test_long_chain_compiles(self):
        # a left-leaning chain needs no nested parentheses in the generated source
        e = parse(" + ".join(["q1"] * 600), NAMES)
        assert compile_vectorized(e, NAMES)(*[np.ones(3)] * len(NAMES)).tolist() == [600.0] * 3

    def test_constant_broadcast(self):
        fn = compile_vectorized(Num(3.0), ("q1",))
        out = fn(np.zeros(4))
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


@given(
    _branches(st.recursive(_leaves, _branches, max_leaves=8)),
    st.lists(st.lists(_coordinates, min_size=3, max_size=3), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batched_evaluation_matches_scalar_reference(e, rows):
    # the batched core either agrees row by row with the scalar evaluate,
    # or raises DomainError exactly when some row's scalar evaluation does
    scalar = []
    for row in rows:
        try:
            scalar.append(evaluate(e, dict(zip(PROPERTY_NAMES, row))))
        except DomainError:
            scalar.append(None)
    if None in scalar:
        with pytest.raises(DomainError):
            evaluate_batch([e], PROPERTY_NAMES, rows)
        return
    batched = evaluate_batch([e], PROPERTY_NAMES, rows)[:, 0]
    for got, want in zip(batched, scalar):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


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
