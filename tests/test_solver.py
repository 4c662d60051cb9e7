"""Integrators, grids, current traces and convergence behaviour."""

import csv
import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksfield import solver
from ksfield.coords import VarTable
from ksfield.expr import DomainError, parse
from ksfield.lagrangian import RegularityError
from ksfield.modelfile import load_model
from ksfield.solver import (
    CSV_BLOCK_ROWS,
    Axis,
    CFLWarning,
    GridSpec,
    NotHyperbolicError,
    SolutionGrid,
    SolverError,
    _write_csv,
    evaluate_current,
    integrate_k1,
    integrate_k2_hyperbolic,
    self_convergence_ratio,
)

from conftest import lagrangian_model
from reference import divergence as reference_divergence
from reference import leapfrog as reference_leapfrog
from reference import stencil_jets as reference_jets

TWO_PI = 2 * np.pi
MODELS = Path(__file__).resolve().parent.parent / "models"


def wave_grid(nodes=314, steps=100, ratio=0.5):
    h2 = TWO_PI / nodes
    h1 = h2 * ratio
    return GridSpec((Axis(0.0, steps * h1, h1), Axis(0.0, TWO_PI, h2)))


WAVE_DATA = (parse("sin(t2)", ("t2",)),), (parse("-cos(t2)", ("t2",)),)


def run_wave(model, grid):
    return integrate_k2_hyperbolic(model, *WAVE_DATA, grid)


def wave_error(sol):
    ts = sol.spec.evolution_times()
    xs = sol.spec.periodic_nodes()
    exact = np.sin(xs[None, :] - ts[:, None])
    return float(np.max(np.abs(sol.phi[:, :, 0] - exact)))


class TestGridSpec:
    def test_non_integral_extent_rejected(self):
        with pytest.raises(SolverError):
            Axis(0.0, 1.0, 0.3)

    def test_refinement_halves_steps(self):
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        assert grid.refined().axes[0].step == 0.05

    def test_three_axes_rejected(self):
        with pytest.raises(SolverError):
            GridSpec((Axis(0, 1, 0.1), Axis(0, 1, 0.1), Axis(0, 1, 0.1)))


class TestIntegrateK1:
    def test_harmonic_oscillator_period(self, oscillator_model):
        h = TWO_PI / 6283  # ~1e-3, commensurate with the horizon
        grid = GridSpec((Axis(0.0, TWO_PI, h),))
        sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
        assert abs(sol.phi[-1, 0] - 1.0) <= 1e-8

    def test_free_particle_is_exact(self):
        model = lagrangian_model(1, 1, "v1_1^2/2")
        grid = GridSpec((Axis(0.0, 1.0, 0.01),))
        sol = integrate_k1(model, [0.5], [2.0], grid)
        ts = sol.spec.evolution_times()
        assert np.max(np.abs(sol.phi[:, 0] - (0.5 + 2.0 * ts))) <= 1e-12

    def test_energy_drift_bounded_by_h4(self, oscillator_model):
        h = 0.01
        grid = GridSpec((Axis(0.0, TWO_PI // h * h, h),))
        sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
        assert sol.summary["energy_drift"] <= 1.0 * h**4

    def test_closed_form_error_is_fourth_order(self, oscillator_model):
        errors = []
        for h in (0.02, 0.01):
            steps = int(round(TWO_PI / h / 2) * 2)  # even, fixed horizon
            grid = GridSpec((Axis(0.0, steps * h, h),))
            sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
            ts = sol.spec.evolution_times()
            errors.append(float(np.max(np.abs(sol.phi[:, 0] - np.cos(ts)))))
        order = np.log2(errors[0] / errors[1])
        assert 3.0 <= order <= 5.0  # nominal 4 within 25%

    def test_divergent_state_rejected(self):
        model = lagrangian_model(1, 1, "v1_1^2/2 + q1^4/4")  # inverted quartic
        grid = GridSpec((Axis(0.0, 10.0, 0.1),))
        with pytest.raises(SolverError):
            integrate_k1(model, [1.0], [10.0], grid)

    def test_singular_hessian_rejected(self):
        model = lagrangian_model(1, 1, "v1_1^4/4")  # Hessian 3 v^2 vanishes at v = 0
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        with pytest.raises(RegularityError):
            integrate_k1(model, [0.0], [0.0], grid)

    @pytest.mark.parametrize("source", [
        "v1_1^2/2 + 1/q1",     # force -1/q^2 evaluates to -inf at q = 0
        "v1_1^2/2 + v1_1/q1",  # -v/q^2 on two Python floats raises ZeroDivisionError
    ])
    def test_non_finite_stage_rejected(self, source):
        model = lagrangian_model(1, 1, source)
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        with pytest.raises(SolverError):
            integrate_k1(model, [0.0], [0.0], grid)

    @pytest.mark.parametrize("n, source", [
        (1, "log(-1)*v1_1^2 - q1^2/2"),  # NaN
        (1, "(1/0)*v1_1^2 - q1^2/2"),  # its value raises ZeroDivisionError
        (2, "1e200*(v1_1^2 + v2_1^2) - q1^2/2"),  # the scale max|H|^2 overflows
        # singular, but the velocity derivatives of 1/q1 leave unfolded 0/q1^2
        # terms, so the Hessian is eliminated in each stage, after the
        # finiteness test of the force, which is -inf at q = 0
        (2, "(v1_1 + v2_1)^2/2 + 1/q1"),
    ])
    def test_broken_constant_hessian_rejected_as_non_finite(self, n, source):
        model = lagrangian_model(n, 1, source)
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        with pytest.raises(SolverError, match="^non-finite stage values; step rejected$"):
            integrate_k1(model, [0.0] * n, [0.0] * n, grid)

    def test_singular_constant_hessian_rejected(self):
        model = lagrangian_model(2, 1, "(v1_1 + v2_1)^2/2 - q1^2/2")  # Hessian [[1, 1], [1, 1]]
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        with pytest.raises(RegularityError, match="^velocity Hessian became singular along the trajectory$"):
            integrate_k1(model, [1.0, 0.0], [0.0, 0.0], grid)

    def test_singular_constant_hessian_is_named_before_the_first_step(self):
        # the force 1/q1 is not finite at q = 0, but a constant Hessian is
        # checked once, before any stage runs
        model = lagrangian_model(2, 1, "(v1_1 + v2_1)^2/2 + log(q1)")
        grid = GridSpec((Axis(0.0, 1.0, 0.1),))
        with pytest.raises(RegularityError, match="^velocity Hessian became singular along the trajectory$"):
            integrate_k1(model, [0.0, 0.0], [0.0, 0.0], grid)

    # sha256 of phi, state_v and the energy drift, recorded before the step
    # folded constant Hessians: the constant ones (the first five; the
    # pivoting ones start off the symmetric lines, so a lost row swap shows)
    # and the v- or q-dependent ones eliminated in each stage keep their bits
    @pytest.mark.parametrize("n, source, q0, v0, digest", [
        pytest.param(1, "v1_1^2/2 - q1^2/2", [1.0], [0.0],
                     "5f8bc0ea9f118f1229bfe3ac1c9adc9f93a791f25e87b18dbfebfa63d9130233",
                     id="oscillator"),
        pytest.param(3, "(v1_1^2 + v2_1^2 + v3_1^2)/2 + cos(q1 - q2) + cos(q2 - q3) - q1^2/2",
                     [0.3, -0.2, 0.1], [0.0, 0.5, -0.4],
                     "d75ce6a3d8646865bc1177826a74a4777c31bffc7ea23b29788497d6d584ff72",
                     id="pendulum-chain"),
        pytest.param(2, "v1_1*v2_1 - q1*q2", [1.0, -0.5], [0.2, 0.3],
                     "5bbd1c895c8aaad9027e6f8b81eed6aff986bf767b60a830511c21ab0b37a7d6",
                     id="zero-diagonal"),
        pytest.param(3, "v1_1*v3_1 + v2_1^2/2 - q1*q3 - q2^2/2",
                     [1.0, -0.5, 0.25], [0.2, 0.3, -0.1],
                     "906a28ec1084a5d6559bbe2820a50e0ab8df1b1934939f749c3d1a9e581c993d",
                     id="anti-diagonal"),
        pytest.param(2, "(v1_1^2 + v1_1*v2_1 + 2*v2_1^2)/2 - (q1^2 + q2^2)/2 + cos(q1 - q2)",
                     [1.0, -0.5], [0.2, 0.3],
                     "2f7c85dfb84e373b89a0a8c3514581a100ab2feb34610acc78cd85c114885c2a",
                     id="non-diagonal"),
        pytest.param(1, "v1_1^4/12 + v1_1^2/2 - q1^2/2", [1.0], [0.5],
                     "0a77188ba67ce54d251a9a95a8eb8923f358ff1a40b1f358f2bba75f93ef32df",
                     id="v-dependent"),
        pytest.param(2, "(1 + q2^2/10)*v1_1^2/2 + v1_1*v2_1/2 + v2_1^2/2 - (q1^2 + q2^2)/2",
                     [1.0, -0.5], [0.2, 0.3],
                     "7137f04b169e4f6a762c385034f912e13e18fdeeae164f17f6dedb885e0e4fe0",
                     id="q-dependent"),
    ])
    def test_trajectory_bits_are_pinned(self, n, source, q0, v0, digest):
        grid = GridSpec((Axis(0.0, TWO_PI, TWO_PI / 628),))
        sol = integrate_k1(lagrangian_model(n, 1, source), q0, v0, grid)
        drift = struct.pack("<d", sol.summary["energy_drift"])
        assert hashlib.sha256(sol.phi.tobytes() + sol.state_v.tobytes() + drift).hexdigest() == digest

    def test_varying_hessian_tests_only_its_upper_entries(self, monkeypatch):
        # H = [[1 + q2^2/10, 1/2], [1/2, 1]] is eliminated in each stage; its
        # mirror _h1_0 = _h0_1 is neither tested for finiteness nor scaled again
        sources, compile_source = [], solver.compile_source

        def keeping_source(groups, names, write, *args, **kwargs):
            def written(blocks):
                sources.append(write(blocks))
                return sources[-1]
            return compile_source(groups, names, written, *args, **kwargs)

        monkeypatch.setattr(solver, "compile_source", keeping_source)
        solver._rk4_step(lagrangian_model(
            2, 1, "(1 + q2^2/10)*v1_1^2/2 + v1_1*v2_1/2 + v2_1^2/2 - (q1^2 + q2^2)/2"
        ), 0.01)
        (source,) = sources
        (scale,) = [line for line in source.splitlines() if "_scale =" in line]
        upper = ["_h0_0", "_h0_1", "_h1_1"]
        assert re.findall(r"_isfinite\((_h\d+_\d+)\)", source) == upper
        assert re.findall(r"abs\((_h\d+_\d+)\)", scale) == upper

    def test_zero_diagonal_hessian_needs_pivoting(self):
        # Hessian [[0, 1], [1, 0]]: elimination without a row swap divides by
        # zero; the equations are q1'' = -q1, q2'' = -q2
        model = lagrangian_model(2, 1, "v1_1*v2_1 - q1*q2")
        grid = GridSpec((Axis(0.0, TWO_PI, TWO_PI / 628),))
        sol = integrate_k1(model, [1.0, 1.0], [0.0, 0.0], grid)
        ts = sol.spec.evolution_times()
        assert np.max(np.abs(sol.phi - np.cos(ts)[:, None])) <= 1e-8

    def test_anti_diagonal_hessian_pivots_past_the_next_row(self):
        # Hessian [[0, 0, 1], [0, 1, 0], [1, 0, 0]]: column 0 pivots on row 2,
        # not the adjacent row; the equations are q_i'' = -q_i
        model = lagrangian_model(3, 1, "v1_1*v3_1 + v2_1^2/2 - q1*q3 - q2^2/2")
        grid = GridSpec((Axis(0.0, TWO_PI, TWO_PI / 628),))
        sol = integrate_k1(model, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], grid)
        ts = sol.spec.evolution_times()
        assert np.max(np.abs(sol.phi - np.cos(ts)[:, None])) <= 1e-8

    def test_hessian_singular_mid_run_rejected(self):
        # the Hessian exp(-10 q) is regular at q = 0, but the force drives
        # q'' = 5 v^2, and a stage point of step 2 reaches a q where the
        # Hessian falls below the singularity threshold
        model = lagrangian_model(1, 1, "exp(-10*q1)*v1_1^2/2")
        h = TWO_PI / 100
        with pytest.raises(SolverError, match="three evolution levels"):
            integrate_k1(model, [0.0], [3.0], GridSpec((Axis(0.0, h, h),)))  # step 1 is fine
        with pytest.raises(RegularityError):
            integrate_k1(model, [0.0], [3.0], GridSpec((Axis(0.0, TWO_PI, h),)))

    def test_coupled_hessian_converges_at_order_four(self):
        # non-diagonal, q-dependent Hessian [[1 + q2^2/10, 1/2], [1/2, 1]], so
        # the right-hand side carries the mixed d2L/dv dq terms too
        model = lagrangian_model(
            2, 1, "(1 + q2^2/10)*v1_1^2/2 + v1_1*v2_1/2 + v2_1^2/2 - (q1^2 + q2^2)/2"
        )
        grids = [GridSpec((Axis(0.0, 2.0, 0.05),))]
        grids.append(grids[0].refined())
        grids.append(grids[1].refined())
        sols = [integrate_k1(model, [1.0, -0.5], [0.2, 0.3], g) for g in grids]
        ratio = self_convergence_ratio(sols)
        assert 16 / 1.6 <= ratio <= 16 * 1.6

    def test_state_velocities_accompany_stencil_jets(self, oscillator_model):
        grid = GridSpec((Axis(0.0, 1.0, 0.01),))
        sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
        # exact velocities and stencil jets agree to the stencil's own order
        assert np.max(np.abs(sol.state_v - sol.jets[:, :, 0])) <= 1e-4
        assert np.max(np.abs(sol.jets_from_stencil() - sol.jets)) <= 1e-12


class TestIntegrateK2:
    def test_travelling_wave_second_order(self, wave_model):
        e1 = wave_error(run_wave(wave_model, wave_grid()))
        e2 = wave_error(run_wave(wave_model, wave_grid(nodes=628, steps=200)))
        ratio = e1 / e2
        assert 3.0 <= ratio <= 5.0

    def test_zero_data_stays_zero(self, wave_model):
        phi0 = (parse("0", ("t2",)),)
        sol = integrate_k2_hyperbolic(wave_model, phi0, phi0, wave_grid(nodes=32, steps=16))
        assert np.all(sol.phi == 0.0)

    def test_klein_gordon_dispersion(self, kg_model):
        kappa, omega = 2.0, float(np.sqrt(5.0))
        nodes = 628
        grid = GridSpec(
            (Axis(0.0, 400 * 0.005, 0.005), Axis(0.0, TWO_PI, TWO_PI / nodes))
        )
        phi0 = (parse("cos(2*t2)", ("t2",)),)
        phidot0 = (parse(f"{omega!r}*sin(2*t2)", ("t2",)),)
        sol = integrate_k2_hyperbolic(kg_model, phi0, phidot0, grid)
        xs = sol.spec.periodic_nodes()
        ts = sol.spec.evolution_times()
        mode = sol.phi[:, :, 0] @ np.exp(-1j * kappa * xs)
        phase = np.unwrap(np.angle(mode))
        measured = -np.polyfit(ts, phase, 1)[0]
        assert abs(measured - omega) <= 1e-2

    def test_initial_data_leaving_the_domain_raises(self, wave_model):
        # log(t2) at the first node t2 = 0 of the periodic axis: rejected
        # before the first step, naming the expression and the node
        phi0 = (parse("log(t2)", ("t2",)),)
        phidot0 = (parse("0", ("t2",)),)
        with pytest.raises(DomainError, match=r"log\(t2\) at \(t2=0\.0\)"):
            integrate_k2_hyperbolic(wave_model, phi0, phidot0, wave_grid(nodes=32, steps=16))

    def test_cfl_warning(self, wave_model):
        with pytest.warns(CFLWarning):
            run_wave(wave_model, wave_grid(nodes=64, steps=8, ratio=2.0))

    def test_cfl_warning_of_a_huge_step_is_short(self, wave_model):
        # c*h1/h2 is about 1.6e299: its repr, not 300 digits
        grid = GridSpec((Axis(0.0, 1.0e300, 1.0e299), Axis(0.0, TWO_PI, TWO_PI / 10)))
        with pytest.warns(CFLWarning, match=r"^CFL bound exceeded: c\*h1/h2 = 1\.59\d*e\+299 > 1$"):
            with pytest.raises(SolverError, match="^non-finite field at step 1; step rejected$"):
                run_wave(wave_model, grid)

    def test_cfl_warning_just_past_the_bound_reads_past_one(self, wave_model):
        grid = wave_grid(nodes=64, steps=8, ratio=1.0 + 1e-9)
        with pytest.warns(CFLWarning) as caught:
            run_wave(wave_model, grid)
        message = str(caught[0].message)
        margin = message.removeprefix("CFL bound exceeded: c*h1/h2 = ").removesuffix(" > 1")
        assert len(margin) < 25 and float(margin) > 1.0

    # the leapfrog tests levels for finiteness 32 at a time and at the last
    # level; the step named is the first non-finite level wherever it falls
    @pytest.mark.parametrize("steps, ratio, step", [
        pytest.param(400, 2.0, 284, id="in-a-chunk"),
        pytest.param(400, 2.75, 224, id="chunk-end"),
        pytest.param(284, 2.0, 284, id="grid-end"),
    ])
    def test_cfl_blow_up_rejected_without_a_runtime_warning(self, wave_model, steps, ratio, step):
        # pytest turns a numpy RuntimeWarning from the overflowing step into an error
        grid = wave_grid(nodes=64, steps=steps, ratio=ratio)
        with pytest.warns(CFLWarning):
            with pytest.raises(SolverError, match=f"^non-finite field at step {step}; step rejected$"):
                run_wave(wave_model, grid)
        assert reference_leapfrog(wave_model, *WAVE_DATA, grid) == step

    @pytest.mark.parametrize("steps, ratio, step", [
        pytest.param(3000, 2.0, 21, id="in-a-chunk"),
        pytest.param(3000, 1.35, 32, id="chunk-end"),
        pytest.param(21, 2.0, 21, id="grid-end"),
    ])
    def test_blow_up_of_cubic_forces_is_not_a_domain_error(self, steps, ratio, step):
        # the force -q1^3 overflows at the last finite level: the blow-up
        # itself, not a model that left its domain
        model = lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - q1^4/4")
        grid = wave_grid(nodes=64, steps=steps, ratio=ratio)
        with pytest.warns(CFLWarning):
            with pytest.raises(SolverError, match=f"^non-finite field at step {step}; step rejected$"):
                run_wave(model, grid)
        assert reference_leapfrog(model, *WAVE_DATA, grid) == step

    @pytest.mark.parametrize("source, grid, initial, rate", [
        ("(v1_1^2 - v1_2^2)/2", wave_grid(), ("sin(t2)",), ("-cos(t2)",)),
        (  # the n = 3 chain of the benchmark, each component its own wave
            "(v1_1^2 + v2_1^2 + v3_1^2 - v1_2^2 - v2_2^2 - v3_2^2)/2"
            " + cos(q1 - q2) + cos(q2 - q3)",
            GridSpec((Axis(0.0, 0.5, 0.01), Axis(0.0, TWO_PI, TWO_PI / 200))),
            ("sin(t2)", "0.5*cos(2*t2)", "sin(3*t2)/3"), ("-cos(t2)", "0", "cos(t2)"),
        ),
        (  # non-diagonal M11 and M22: the matmuls sum over two terms
            "(v1_1^2 + v1_1*v2_1 + 2*v2_1^2)/2 - (v1_2^2 + v1_2*v2_2 + 3*v2_2^2)/4"
            " + cos(q1 - q2) - q1^2/2",
            wave_grid(nodes=120, steps=400, ratio=0.4),
            ("sin(t2)", "0.5*cos(2*t2)"), ("-cos(t2)", "0"),
        ),
        (  # forces v2_2 - sin(q1 - q2), sin(q1 - q2) - v1_2 read the t2 differences
            "(v1_1^2 + v2_1^2 - v1_2^2 - v2_2^2)/2 + q1*v2_2 + cos(q1 - q2)",
            wave_grid(nodes=120, steps=200, ratio=0.4),
            ("sin(t2)", "0.5*cos(2*t2)"), ("-cos(t2)", "0"),
        ),
        (  # one node, t2 = 0, where phi = -sin(t2) and its force are -0.0: the
           # lone 1 x 1 product by M11^-1 keeps the sign under np.dot, not under @
            "(v1_1^2 + v1_2^2)/2 + q1^2/2",
            GridSpec((Axis(0.0, 0.05, 0.01), Axis(0.0, TWO_PI, TWO_PI))),
            ("-sin(t2)",), ("-sin(t2)",),
        ),
        (  # one node, n = 3, a full M11: the lone row's product by M11^-1 sums
           # in the order of @ only on the transposed view of the matrix
            "(v1_1^2 + v1_1*v2_1 + 2*v2_1^2 + v2_1*v3_1 + 3*v3_1^2 + v1_1*v3_1)/2"
            " - (v1_2^2 + v2_2^2 + v3_2^2)/2 + cos(q1 - q2) + cos(q2 - q3) - q1^2/2",
            GridSpec((Axis(0.0, 10.0, 0.25), Axis(0.0, TWO_PI, TWO_PI))),
            ("0.3", "-0.2", "0.1"), ("0.2", "-0.1", "0.4"),
        ),
        (  # the benchmark's finest wave level, where @ and np.dot take other paths
            "(v1_1^2 - v1_2^2)/2",
            GridSpec((Axis(0.0, 0.01, 0.001), Axis(0.0, TWO_PI, TWO_PI / 2512))),
            ("sin(t2)",), ("-cos(t2)",),
        ),
    ])
    def test_leapfrog_bits_match_the_reference(self, source, grid, initial, rate):
        n = len(initial)
        model = lagrangian_model(n, 2, source)
        phi0, phidot0 = ([parse(c, ("t2",)) for c in cs] for cs in (initial, rate))
        sol = integrate_k2_hyperbolic(model, phi0, phidot0, grid)
        assert sol.summary["cfl_margin"] <= 1.0
        assert sol.phi.tobytes() == reference_leapfrog(model, phi0, phidot0, grid).tobytes()

    def test_rejects_velocity_coupling(self):
        model = lagrangian_model(1, 2, "v1_1*v1_2")
        with pytest.raises(NotHyperbolicError):
            run_wave(model, wave_grid(nodes=32, steps=8))

    def test_rejects_non_quadratic(self):
        model = lagrangian_model(1, 2, "sin(v1_1) - v1_2^2/2")
        with pytest.raises(NotHyperbolicError):
            run_wave(model, wave_grid(nodes=32, steps=8))

    def test_names_the_entry_that_is_not_constant(self):
        model = lagrangian_model(1, 2, "v1_1^2/2 + q1*v1_1*v1_2 - v1_2^2/2")
        with pytest.raises(NotHyperbolicError,
                           match="^velocity Hessian entry d2L/dv1_1 dv1_2 is not constant: q1$"):
            run_wave(model, wave_grid(nodes=32, steps=8))

    def test_rejects_q_coupled_momentum(self):
        model = lagrangian_model(1, 2, "v1_1^2/2 + q1*v1_1 - v1_2^2/2")
        with pytest.raises(NotHyperbolicError):
            run_wave(model, wave_grid(nodes=32, steps=8))

    def test_rejects_indefinite_time_block(self):
        model = lagrangian_model(1, 2, "-v1_1^2/2 + v1_2^2/2")
        with pytest.raises(NotHyperbolicError):
            run_wave(model, wave_grid(nodes=32, steps=8))


# Finite entries with signed zeros and the ends of the exponent range, whose
# products overflow to inf (and their sums to nan) or underflow to zero.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.sampled_from([1, 2, 3, 200, 2512]), st.integers(1, 4),
       st.lists(_entries, min_size=1, max_size=8),
       st.lists(st.one_of(st.just(0.0), _entries), min_size=16, max_size=16))
# a lone row, whose gemv sums in another order on a contiguous m.T
@example(1, 3, [1.3, -0.3, 1.1], [0.3, 0.3, 0.1, 0.1, 0.1, 0.2, 1.3, -0.3, 0.9] + [0.0] * 7)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_blas_products_keep_the_bits_of_matmul(nodes, n, cells, matrix):
    # the leapfrog's constant-matrix products rest on this identity; the
    # cells tile the rows, and the matrix has zeroed entries too
    a = np.resize(np.array(cells), (nodes, n))
    M = np.array(matrix[: n * n]).reshape(n, n)
    out = np.empty((nodes, n))
    with np.errstate(all="ignore"):
        solver._times_transpose(M, nodes)(a, out)
        assert out.tobytes() == (a @ M.T).tobytes()


class TestCurrentTrace:
    def test_momentum_current_divergence_small(self, wave_model):
        grid = wave_grid()
        sol = run_wave(wave_model, grid)
        chart = wave_model.table.velocity_chart
        F = (parse("v1_1", chart), parse("-v1_2", chart))
        trace = evaluate_current(F, sol)
        h2 = grid.axes[1].step
        assert trace.max_divergence <= 5 * h2**2

    def test_divergence_refines_second_order(self, wave_model):
        chart = wave_model.table.velocity_chart
        F = (parse("v1_1", chart), parse("-v1_2", chart))
        coarse = evaluate_current(F, run_wave(wave_model, wave_grid()))
        fine = evaluate_current(F, run_wave(wave_model, wave_grid(nodes=628, steps=200)))
        ratio = coarse.max_divergence / fine.max_divergence
        assert 3.0 <= ratio <= 5.0

    def test_constant_current_is_flat(self, wave_model):
        sol = run_wave(wave_model, wave_grid(nodes=32, steps=16))
        chart = wave_model.table.velocity_chart
        trace = evaluate_current((parse("2", chart), parse("-1", chart)), sol)
        assert trace.max_divergence == 0.0

    def test_non_conserved_current_flagged(self, wave_model):
        sol = run_wave(wave_model, wave_grid())
        chart = wave_model.table.velocity_chart
        trace = evaluate_current((parse("q1", chart), parse("0", chart)), sol)
        # divergence equals d(phi)/dt1 = v1 on solutions: order-one values
        band = trace.divergence[2:-2]
        jets_band = sol.jets[2:-2, :, 0, 0]
        assert trace.max_divergence > 0.5
        assert np.max(np.abs(band - jets_band)) <= 5e-3

    def test_current_leaving_the_domain_raises(self):
        # q1 = sin(t2 - t1) is negative on half the shipped wave run grid
        spec = load_model(MODELS / "wave.yaml")
        run = spec.solutions["run"]
        sol = integrate_k2_hyperbolic(spec.lagrangian, run.initial, run.initial_rate, run.grid)
        chart = spec.table.velocity_chart
        with pytest.raises(DomainError) as err:
            evaluate_current((parse("log(q1)", chart), parse("v1_2", chart)), sol)
        assert "log(q1)" in str(err.value)
        assert "t1=" in str(err.value) and "t2=" in str(err.value)  # the node

    def test_hamiltonian_side_uses_fiber_derivative(self, wave_model):
        sol = run_wave(wave_model, wave_grid(nodes=32, steps=16))
        chart_l = wave_model.table.velocity_chart
        chart_h = wave_model.table.momentum_chart
        lag = evaluate_current((parse("v1_1", chart_l), parse("-v1_2", chart_l)), sol)
        ham = evaluate_current(
            (parse("p1_1", chart_h), parse("p2_1", chart_h)),
            sol,
            side="hamiltonian",
            model=wave_model,
        )
        # p1 = v1, p2 = -v2 for the wave Lagrangian: identical traces
        assert np.allclose(lag.values, ham.values, atol=0)

    def test_k1_energy_current(self, oscillator_model, tmp_path):
        # the energy itself is the conserved current of the k = 1 fixture
        grid = GridSpec((Axis(0.0, TWO_PI, TWO_PI / 628),))
        sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
        chart = oscillator_model.table.velocity_chart
        trace = evaluate_current((parse("(v1_1^2 + q1^2)/2", chart),), sol)
        assert trace.max_divergence <= 5 * (TWO_PI / 628) ** 2
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_text().splitlines()[0] == "t1,phi1,v1_1,F1,divergence"

    def test_csv_round_trip(self, wave_model, tmp_path):
        sol = run_wave(wave_model, wave_grid(nodes=16, steps=8))
        chart = wave_model.table.velocity_chart
        trace = evaluate_current((parse("v1_1", chart), parse("-v1_2", chart)), sol)
        grid_path = tmp_path / "grid.csv"
        trace_path = tmp_path / "trace.csv"
        sol.to_csv(grid_path)
        trace.to_csv(trace_path)
        rows = grid_path.read_text().strip().splitlines()
        assert rows[0] == "t1,t2,phi1,v1_1,v1_2"
        assert len(rows) == 1 + 9 * 16
        cells = rows[1].split(",")
        assert float(cells[2]) == sol.phi[0, 0, 0]
        trace_rows = trace_path.read_text().strip().splitlines()
        assert trace_rows[0] == "t1,t2,phi1,v1_1,v1_2,F1,F2,divergence"


def reference_csv(path, sol, trace=None):
    """The csv.writer row loop both to_csv methods ran before the block
    writer, kept as the byte-for-byte reference."""
    table, k = sol.table, sol.k
    header = [f"t{A + 1}" for A in range(k)]
    header += [f"phi{i + 1}" for i in range(table.n)]
    header += [table.v(i, A) for i in range(table.n) for A in range(k)]
    if trace is not None:
        header += [f"F{A + 1}" for A in range(k)] + ["divergence"]
    coords = sol.node_coordinates()
    if k == 1:
        nodes = [((m,), (repr(float(t)),)) for m, t in enumerate(coords[0])]
    else:
        nodes = [
            ((m, j), (repr(float(t1)), repr(float(t2))))
            for m, t1 in enumerate(coords[0])
            for j, t2 in enumerate(coords[1])
        ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for idx, row_coords in nodes:
            row = list(row_coords)
            row += [repr(float(v)) for v in sol.phi[idx]]
            row += [repr(float(sol.jets[idx][i, A])) for i in range(table.n) for A in range(k)]
            if trace is not None:
                row += [repr(float(trace.values[idx][A])) for A in range(k)]
                row.append(repr(float(trace.divergence[idx])))
            writer.writerow(row)


def with_special_cells(array):
    """Copy of ``array`` with -0.0, 1e-300 and 1e+16 written into its first cells."""
    out = np.array(array, dtype=float)
    flat = out.reshape(-1)
    flat[:3] = (-0.0, 1e-300, 1e16)
    return out


class TestCsvBytes:
    def assert_same_bytes(self, tmp_path, sol, trace=None):
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        (trace or sol).to_csv(ours)
        reference_csv(reference, sol, trace)
        assert ours.read_bytes() == reference.read_bytes()

    def test_k1_grid(self, oscillator_model, tmp_path):
        levels = 2 * CSV_BLOCK_ROWS + 7  # not a whole number of blocks
        grid = GridSpec((Axis(0.0, (levels - 1) * 0.01, 0.01),))
        sol = integrate_k1(oscillator_model, [1.0], [0.0], grid)
        assert sol.phi.shape[0] == levels
        special = SolutionGrid(
            sol.table, grid, with_special_cells(sol.phi), jets=with_special_cells(sol.jets)
        )
        self.assert_same_bytes(tmp_path, special)

    def test_k2_grid(self, wave_model, tmp_path):
        sol = run_wave(wave_model, wave_grid(nodes=200, steps=6))  # 7 levels of 200 nodes
        assert (7 * 200) % CSV_BLOCK_ROWS != 0
        special = SolutionGrid(
            sol.table, sol.spec, with_special_cells(sol.phi), jets=with_special_cells(sol.jets)
        )
        self.assert_same_bytes(tmp_path, special)

    def test_current_trace_with_nan_divergence(self, wave_model, tmp_path):
        sol = run_wave(wave_model, wave_grid(nodes=300, steps=8))
        chart = wave_model.table.velocity_chart
        trace = evaluate_current((parse("v1_1", chart), parse("-v1_2", chart)), sol)
        assert np.isnan(trace.divergence[0]).all()  # outside the computed band
        trace.values = with_special_cells(trace.values)
        self.assert_same_bytes(tmp_path, sol, trace)

    def test_current_trace_with_infinite_values(self, wave_model, tmp_path):
        sol = run_wave(wave_model, wave_grid(nodes=300, steps=8))
        chart = wave_model.table.velocity_chart
        trace = evaluate_current((parse("v1_1", chart), parse("-v1_2", chart)), sol)
        assert np.isnan(trace.divergence[[0, -1]]).all()
        trace.values[0, :5, 0] = np.inf   # beside the nan divergence levels
        trace.values[-1, -5:, 1] = -np.inf
        trace.values[1, 7] = (-np.inf, np.inf)
        self.assert_same_bytes(tmp_path, sol, trace)

    def test_k1_grid_in_the_positional_band(self, oscillator_model, tmp_path):
        # repr writes 1e-5 <= |x| < 1e-4 with an exponent, orjson positionally
        levels = CSV_BLOCK_ROWS + 11
        grid = GridSpec((Axis(0.0, (levels - 1) * 0.01, 0.01),))
        sol = integrate_k1(oscillator_model, [6e-5], [0.0], grid)
        band = (np.abs(sol.jets) >= 1e-5) & (np.abs(sol.jets) < 1e-4)
        assert band.sum() > CSV_BLOCK_ROWS // 2
        self.assert_same_bytes(tmp_path, sol)


# Cells whose repr orjson spells differently, or that sit at the edge of a
# spelling rule: sign, non-finite, subnormal, exponent width and the
# positional ranges of both writers.
SPELLING_EDGES = (
    0.0, math.inf, math.nan, 5e-324, 1e-07, 1e-05, 9.999999999999999e-05, 1e-4,
    9999999999999998.0, 1e16, 1e300,
)
_cells = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.tuples(st.sampled_from(SPELLING_EDGES), st.booleans()).map(
        lambda edge: -edge[0] if edge[1] else edge[0]
    ),
)
# Rows of a k = 1 column, and (levels, nodes) of a k = 2 one, around the block
# size (rows wider than CSV_BLOCK_CELLS / CSV_BLOCK_ROWS cells make shorter blocks).
_shapes = st.sampled_from([
    (1,), (CSV_BLOCK_ROWS - 1,), (CSV_BLOCK_ROWS,), (CSV_BLOCK_ROWS + 1,),
    (2 * CSV_BLOCK_ROWS + 7,), (5, 200), (3, CSV_BLOCK_ROWS + 1),
])
# A block whose first column is bitwise one value, as t1 on a level of a k = 2
# grid, spells it once: k = 2 shapes whose first column holds one of these per
# level (None: tiled like the other columns).  A block of two levels, at most
# 5 columns of (5, 200), holds two values unless both levels drew the same.
LEVEL_VALUES = (math.nan, math.inf, -math.inf, 5e-5, 3e-7, 1e16, 0.25, 1.0, -0.0)
_shapes_and_levels = st.one_of(
    st.tuples(_shapes, st.none()),
    st.tuples(st.sampled_from([(5, 200), (3, CSV_BLOCK_ROWS + 1)]),
              st.lists(st.sampled_from(LEVEL_VALUES), min_size=1, max_size=5)),
)
# 0.0 and -0.0 compare equal but are spelled apart: their blocks are not of one value
_SIGNED_ZERO_LEVELS = {"shape_and_levels": ((5, 200), [0.0, -0.0]), "width": 3}


def _columns(shape_and_levels, width, cells):
    """The cells tiled over ``width`` columns of ``shape``, the first column
    holding the drawn level values if any."""
    shape, levels = shape_and_levels
    values = np.resize(np.array(cells), (width,) + shape)
    if levels is not None:
        values[0] = np.resize(np.array(levels), shape[0])[:, None]
    return values


@given(_shapes_and_levels, st.integers(1, 15), st.lists(_cells, min_size=1, max_size=64))
@example(**_SIGNED_ZERO_LEVELS, cells=[1.0, 5e-5])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_csv_cells_spelled_as_repr(tmp_path_factory, shape_and_levels, width, cells):
    # the cells tile the columns, so each drawn cell lands in many rows and
    # columns and, in the longer shapes, in more than one block
    path = tmp_path_factory.getbasetemp() / "spelling.csv"
    values = _columns(shape_and_levels, width, cells)
    _write_csv(path, [f"c{j}" for j in range(width)], list(values))
    line = ",".join(["%r"] * width) + "\r\n"
    rows = values.reshape(width, -1).T.tolist()
    reference = ",".join(f"c{j}" for j in range(width)) + "\r\n"
    reference += "".join(line % tuple(row) for row in rows)
    assert path.read_bytes() == reference.encode()


def _decimal(exponents):
    """Floats of either sign with 1-17 significant decimal digits, the
    leading one in the decimal place drawn from ``exponents``."""
    mantissas = st.integers(1, 17).flatmap(
        lambda digits: st.tuples(st.just(digits), st.integers(10 ** (digits - 1), 10 ** digits - 1))
    )
    return st.tuples(st.sampled_from("+-"), mantissas, exponents).map(
        lambda t: float(f"{t[0]}{t[1][1]}e{t[2] - t[1][0] + 1}")
    )


# Mostly cells that orjson spells otherwise and the writer respells: the
# positional band 1e-5 <= |x| < 1e-4, unpadded exponents down to 1e-09
# (9.999999999999999e-10 is the first cell spelled alike), unsigned ones
# from 1e+16, and the non-finite.
DENSE_EDGES = (
    1e-05, 2e-05, 9.999999999999999e-05, 1e-09, 9.999999999999999e-10, 1e16,
    math.nan, math.inf,
)
_dense_cells = st.one_of(
    _decimal(st.just(-5)),
    _decimal(st.integers(-9, -6)),
    _decimal(st.integers(16, 307)),
    st.tuples(st.sampled_from(DENSE_EDGES), st.booleans()).map(
        lambda edge: -edge[0] if edge[1] else edge[0]
    ),
    _cells,
)


@given(_shapes_and_levels, st.integers(1, 15), st.lists(_dense_cells, min_size=1, max_size=64))
@example(**_SIGNED_ZERO_LEVELS, cells=[2e-05, math.nan, 1e16])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_csv_dense_special_cells_spelled_as_repr(tmp_path_factory, shape_and_levels, width, cells):
    path = tmp_path_factory.getbasetemp() / "dense.csv"
    values = _columns(shape_and_levels, width, cells)
    _write_csv(path, [f"c{j}" for j in range(width)], list(values))
    line = ",".join(["%r"] * width) + "\r\n"
    reference = ",".join(f"c{j}" for j in range(width)) + "\r\n"
    reference += "".join(line % tuple(row) for row in values.reshape(width, -1).T.tolist())
    assert path.read_bytes() == reference.encode()


class TestJetConsistency:
    def test_stencil_error_within_second_order_bound(self, wave_model):
        # stencil jets of exactly sampled values stay within 2h^2 times the
        # third-derivative bound (here |d^3 sin| <= 1)
        from ksfield.solver import SolutionGrid

        grid = wave_grid(nodes=128, steps=64)
        ts = grid.evolution_times()
        xs = grid.periodic_nodes()
        exact = np.sin(xs[None, :] - ts[:, None])[..., None]
        sol = SolutionGrid(wave_model.table, grid, exact)
        h1 = grid.axes[0].step
        h2 = grid.axes[1].step
        dt_exact = -np.cos(xs[None, :] - ts[:, None])
        dx_exact = np.cos(xs[None, :] - ts[:, None])
        assert np.max(np.abs(sol.jets[..., 0, 0] - dt_exact)) <= 2 * h1**2
        assert np.max(np.abs(sol.jets[..., 0, 1] - dx_exact)) <= 2 * h2**2


@pytest.mark.parametrize("k, n, nodes", [
    (1, 1, None), (1, 3, None), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 3, 1), (2, 3, 2), (2, 3, 3),
    (2, 3, 40),
])
def test_stencils_written_in_place_match_the_reference_bits(monkeypatch, k, n, nodes):
    levels = 7
    axes = (Axis(0.0, (levels - 1) * 0.1, 0.1),)
    if k == 2:
        axes += (Axis(0.0, TWO_PI, TWO_PI / nodes),)
    spec = GridSpec(axes)
    rng = np.random.default_rng(100 * k + 10 * n + (nodes or 0))
    phi = rng.standard_normal((levels,) + ((nodes,) if k == 2 else ()) + (n,))
    flat = phi.reshape(-1)  # special cells among finite ones, at the t1 ends and on the seam
    cells = rng.choice(flat.size, size=min(flat.size, max(12, flat.size // 6)), replace=False)
    flat[cells] = np.resize([-0.0, np.nan, np.inf, -np.inf, 0.0, 5e-324], cells.size)
    sol = SolutionGrid(VarTable(n, k), spec, phi)
    chart = sol.table.velocity_chart
    # the current reads the field and a jet, so the divergence sees both; its
    # variables are read without the strict check, which rejects nan and inf
    F = (parse("q1", chart), parse(f"v{n}_{k}", chart))[:k]
    monkeypatch.setattr(solver, "evaluate_columns", lambda exprs, names, columns: (
        dict(zip(names, columns))[e.name] for e in exprs
    ))
    with np.errstate(invalid="ignore"):  # inf - inf
        jets = sol.jets_from_stencil()
        assert jets.tobytes() == reference_jets(sol).tobytes()
        trace = evaluate_current(F, sol)
        assert trace.divergence.tobytes() == reference_divergence(sol, trace.values).tobytes()
    for stencil in (jets, trace.divergence[1:-1]):
        assert np.isnan(stencil).any() and np.isinf(stencil).any()


class TestSelfConvergence:
    def test_wave_ratio_near_four(self, wave_model):
        grids = [wave_grid(nodes=64, steps=32)]
        grids.append(grids[0].refined())
        grids.append(grids[1].refined())
        sols = [run_wave(wave_model, g) for g in grids]
        ratio = self_convergence_ratio(sols)
        assert 2.5 <= ratio <= 6.0
