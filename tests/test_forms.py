"""Exterior calculus building blocks, pinned against hand computations, and
the sampled-verdict rule, pinned against the plain reduction."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ksfield.expr import Num, Var, evaluate_batch, parse
from ksfield.forms import (
    OneForm,
    TwoForm,
    VectorField,
    contract_one,
    contract_two,
    d_function,
    d_one,
    judge,
    lie_bracket,
    lie_derivative_one,
)
from ksfield.records import Report
from reference import ThreeForm, contract_three, d_two, evaluate, lie_derivative_two, max_abs

CHART = ("x", "y", "z")


def env(x=0.0, y=0.0, z=0.0):
    return {"x": x, "y": y, "z": z}


def row(x=0.0, y=0.0, z=0.0):
    """One point of CHART as a (1, 3) matrix."""
    return np.array([[x, y, z]])


def at(exprs, point):
    """Values of the expressions at a one-row ``point``."""
    return evaluate_batch(exprs, CHART, point)[0]


def matrix(form, point):
    """A two-form's antisymmetric matrix at a one-row ``point``."""
    return form.matrices(point)[0]


class TestExteriorDerivative:
    def test_gradient(self):
        beta = d_function(parse("x^2*y", CHART), CHART)
        values = at(beta.coeffs, row(x=2.0, y=3.0, z=-1.0))
        assert values == pytest.approx([12.0, 4.0, 0.0], abs=0)

    def test_d_one_curl(self):
        # d(x dy) = dx ^ dy
        beta = OneForm(CHART, (Num(0.0), Var("x"), Num(0.0)))
        omega = d_one(beta)
        assert set(omega.entries) == {(0, 1)}
        assert evaluate(omega.entries[(0, 1)], env()) == 1.0

    def test_d_one_of_gradient_vanishes(self):
        beta = d_function(parse("x*y*z + sin(x)", CHART), CHART)
        omega = d_one(beta)
        rng = np.random.default_rng(0)
        for _ in range(5):
            point = row(*rng.uniform(-1, 1, 3))
            assert np.max(np.abs(matrix(omega, point))) <= 1e-15

    @pytest.mark.parametrize(
        "coeff_pos, coeff, expected_sign",
        [
            ((0, 1), "z", 1.0),   # d(z dx^dy) = +dx^dy^dz
            ((1, 2), "x", 1.0),   # d(x dy^dz) = +dx^dy^dz
            ((0, 2), "y", -1.0),  # d(y dx^dz) = -dx^dy^dz
        ],
    )
    def test_d_two_orientation(self, coeff_pos, coeff, expected_sign):
        omega = TwoForm(CHART, {coeff_pos: parse(coeff, CHART)})
        eta = d_two(omega)
        assert set(eta.entries) == {(0, 1, 2)}
        assert evaluate(eta.entries[(0, 1, 2)], env()) == expected_sign


class TestContractions:
    def test_one_form(self):
        Y = VectorField(CHART, (Num(2.0), Num(-1.0), Num(0.5)))
        beta = OneForm(CHART, (Var("x"), Num(3.0), Num(0.0)))
        assert evaluate(contract_one(Y, beta), env(x=4.0)) == 8.0 - 3.0

    def test_two_form(self):
        # i(a dx + b dy + c dz)(dx^dy) = a dy - b dx
        Y = VectorField(CHART, (Num(2.0), Num(5.0), Num(7.0)))
        omega = TwoForm(CHART, {(0, 1): Num(1.0)})
        coeffs = at(contract_two(Y, omega).coeffs, row())
        assert coeffs == pytest.approx([-5.0, 2.0, 0.0], abs=0)

    def test_three_form(self):
        # i(Y)(dx^dy^dz) = a dy^dz - b dx^dz + c dx^dy
        Y = VectorField(CHART, (Num(2.0), Num(5.0), Num(7.0)))
        eta = ThreeForm(CHART, {(0, 1, 2): Num(1.0)})
        M = matrix(contract_three(Y, eta), row())
        expected = np.zeros((3, 3))
        expected[1, 2], expected[2, 1] = 2.0, -2.0
        expected[0, 2], expected[2, 0] = -5.0, 5.0
        expected[0, 1], expected[1, 0] = 7.0, -7.0
        assert np.array_equal(M, expected)


class TestLieDerivative:
    def test_function_via_flow_oracle(self):
        # L_Y f along Y = -y d/dx + x d/dy equals d/ds f(flow_s) at s = 0,
        # approximated by a central difference along the rotation flow.
        Y = VectorField(CHART, (parse("-y", CHART), parse("x", CHART), Num(0.0)))
        f = parse("x^2 + x*y", CHART)
        exact = Y.apply(f)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x, y, z = rng.uniform(-1, 1, 3)
            s = 1e-6
            def at_angle(a):
                c, snn = np.cos(a), np.sin(a)
                return evaluate(f, env(c * x - snn * y, snn * x + c * y, z))
            fd = (at_angle(s) - at_angle(-s)) / (2 * s)
            assert evaluate(exact, env(x, y, z)) == pytest.approx(fd, abs=1e-7)

    def test_two_form_with_non_closed_input(self):
        # omega = x dy^dz is not closed, so both Cartan terms contribute and
        # must cancel for Y = d/dy: d(i_Y omega) = d(x dz) = dx^dz while
        # i_Y(d omega) = i_Y(dx^dy^dz) = -dx^dz.  Geometrically the
        # y-translation leaves the form unchanged, so the sum is zero; a
        # wrong interior-product sign would leave +-2 dx^dz.
        Y = VectorField(CHART, (Num(0.0), Num(1.0), Num(0.0)))
        omega = TwoForm(CHART, {(1, 2): Var("x")})
        lie = lie_derivative_two(Y, omega)
        rng = np.random.default_rng(2)
        for _ in range(3):
            point = row(*rng.uniform(-1, 1, 3))
            assert np.max(np.abs(matrix(lie, point))) == 0.0

    def test_two_form_flow_oracle(self):
        # L_Y (x dy^dz) along Y = x d/dx: flow (e^s x, y, z) pulls the form
        # back to e^s x dy^dz, so the Lie derivative is x dy^dz itself.
        Y = VectorField(CHART, (Var("x"), Num(0.0), Num(0.0)))
        omega = TwoForm(CHART, {(1, 2): Var("x")})
        lie = lie_derivative_two(Y, omega)
        rng = np.random.default_rng(3)
        for _ in range(5):
            point = row(*rng.uniform(-1, 1, 3))
            expected = matrix(omega, point)
            assert np.max(np.abs(matrix(lie, point) - expected)) <= 1e-14

    def test_one_form_flow_oracle(self):
        # L_Y (x dy) for Y = x d/dx is x dy (same scaling argument).
        Y = VectorField(CHART, (Var("x"), Num(0.0), Num(0.0)))
        beta = OneForm(CHART, (Num(0.0), Var("x"), Num(0.0)))
        lie = lie_derivative_one(Y, beta)
        point = row(0.7, -0.2, 0.4)
        assert at(lie.coeffs, point) == pytest.approx(at(beta.coeffs, point), abs=0)


class TestBracket:
    def test_rotation_translations(self):
        # [d/dx, rotation] = d/dy for rotation = -y d/dx + x d/dy
        T = VectorField(CHART, (Num(1.0), Num(0.0), Num(0.0)))
        R = VectorField(CHART, (parse("-y", CHART), Var("x"), Num(0.0)))
        B = lie_bracket(T, R)
        assert at(B.components, row(0.3, 0.5, 0.0)) == pytest.approx([0.0, 1.0, 0.0], abs=0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        Y1 = VectorField(CHART, (parse("x*y", CHART), parse("z^2", CHART), Num(1.0)))
        Y2 = VectorField(CHART, (parse("y", CHART), parse("x", CHART), parse("x*z", CHART)))
        B12 = lie_bracket(Y1, Y2)
        B21 = lie_bracket(Y2, Y1)
        for _ in range(5):
            point = row(*rng.uniform(-1, 1, 3))
            assert at(B12.components, point) == pytest.approx(-at(B21.components, point), abs=1e-15)


# ---------------------------------------------------------------------------
# the sampled-verdict rule

# few distinct magnitudes, so maxima tie within and across rows
_ENTRIES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0]) | st.floats(-4.0, 4.0)
_RESIDUALS = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                    elements=_ENTRIES)
_LAYOUTS = st.sampled_from(["C", "F", "strided"])
_TOLS = st.sampled_from([0.0, 0.5, 2.0, 4.0])


def laid_out(values, layout):
    """A copy of ``values`` in one memory layout; "strided" is every other
    entry of a larger array whose skipped entries would win any maximum."""
    if layout != "strided":
        return values.copy(order=layout)
    every_other = (slice(None, None, 2),) * values.ndim
    spread = np.full(tuple(2 * side for side in values.shape), 1e300)
    spread[every_other] = values
    return spread[every_other]


def lowest_worst_row(values):
    """The lowest row holding the largest |entry| (a NaN counts as the largest), or None."""
    if not values.size:
        return None
    magnitudes = [np.abs(row) for row in values]
    if np.isnan(values).any():
        return next(r for r, m in enumerate(magnitudes) if np.isnan(m).any())
    return next(r for r, m in enumerate(magnitudes) if (m == max_abs(values)).any())


class TestJudge:
    @given(_RESIDUALS, _LAYOUTS, _TOLS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_plain_reduction(self, values, layout, tol):
        report = judge("c", tol, laid_out(values, layout))
        worst = max_abs(values)
        assert struct.pack("<d", report.max_residual) == struct.pack("<d", worst)
        assert report.sample_count == len(values)
        assert report.passed is (worst <= tol)
        assert report.worst_row == lowest_worst_row(values)
        for other in ("C", "F"):
            assert judge("c", tol, values.copy(order=other)) == report

    @given(_RESIDUALS.filter(lambda v: v.size), _LAYOUTS, st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_nan_fails_wherever_it_sits(self, values, layout, data):
        def index():
            return data.draw(st.tuples(*(st.integers(0, side - 1) for side in values.shape)))
        values = values.copy()
        values[index()] = 1e300
        values[index()] = math.nan
        report = judge("c", math.inf, laid_out(values, layout))
        assert math.isnan(report.max_residual)
        assert not report.passed
        assert report.worst_row == lowest_worst_row(values)

    @given(st.sampled_from([1, 2, 5000]), array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
           st.sampled_from(["broadcast", "C", "F", "strided"]), _TOLS, st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_any_layout_judges_as_its_materialized_copy(self, count, tail, layout, tol, data):
        pool = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)),) + tail,
                                elements=_ENTRIES | st.sampled_from([math.inf, -math.inf, math.nan])))
        if layout == "broadcast":  # one row repeated with stride 0, as fold_constant returns it
            residuals = np.broadcast_to(pool[:1], (count,) + tail)
        else:
            seed = data.draw(st.integers(0, 2**32 - 1))
            residuals = laid_out(pool[np.random.default_rng(seed).integers(0, len(pool), count)], layout)
        report = judge("c", tol, residuals)
        assert repr(report) == repr(judge("c", tol, np.array(residuals)))  # a NaN too
        assert report.sample_count == count

    def test_no_rows_pass_with_no_row(self):
        for empty in (np.zeros(0), np.zeros((0, 3)), np.zeros((0, 2, 2), order="F")):
            assert judge("c", 0.0, empty) == Report("c", 0.0, 0, True)
        assert judge("c", 0.0, np.zeros((4, 0))) == Report("c", 0.0, 4, True)

    def test_signed_zeros_and_the_tolerance_itself_pass(self):
        assert judge("c", 0.0, np.array([[0.0, -0.0], [-0.0, 0.0]])) == Report(
            "c", 0.0, 2, True, worst_row=0)
        at_tol = judge("c", 0.25, np.array([[0.125], [-0.25], [0.25]]))
        assert at_tol == Report("c", 0.25, 3, True, worst_row=1)
        assert not judge("c", 0.25, np.array([0.25, np.nextafter(0.25, 1.0)])).passed
