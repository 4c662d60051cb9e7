"""Model-file loading and end-to-end command behaviour."""

import functools
import inspect
import json
import math
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ksfield import (
    bundles, cli, cli_solve, cli_symmetry, expr, gauge, lagrangian, modelfile, sampling, solver,
    symmetry,
)
from ksfield.cli import main
from ksfield.expr import evaluate_batch, parse
from ksfield.modelfile import (
    AnalyticSolution,
    Axis,
    GridSolution,
    ModelFileError,
    load_model,
)
from ksfield.solver import SolutionGrid

from conftest import recording

TWO_PI = 6.283185307179586
MODELS = Path(__file__).resolve().parent.parent / "models"

WAVE_YAML = f"""
n: 1
k: 2
lagrangian: "(v1_1^2 - v1_2^2)/2"
hamiltonian: "(p1_1^2 - p2_1^2)/2"
seed: 7
samples: 60
symmetries:
  shift:
    kind: vector-field-on-q
    components: ["1"]
  translate:
    kind: diffeomorphism
    side: lagrangian
    components: ["q1 + 1", "v1_1", "v1_2"]
    inverse: ["q1 - 1", "v1_1", "v1_2"]
  stretch:
    kind: diffeomorphism
    side: lagrangian
    components: ["2*q1", "2*v1_1", "2*v1_2"]
    inverse: ["q1/2", "v1_1/2", "v1_2/2"]
solutions:
  dalembert:
    kind: analytic
    components: ["sin(t1 - t2)"]
    t_box: [[0.0, 1.0], [0.0, 6.0]]
  run:
    kind: grid
    axes: [[0.0, 1.0, 0.01], [0.0, {TWO_PI!r}, {TWO_PI / 320!r}]]
    initial: ["sin(t2)"]
    initial_rate: ["-cos(t2)"]
"""

GAUGE_SHIFTED_YAML = WAVE_YAML.replace(
    'lagrangian: "(v1_1^2 - v1_2^2)/2"',
    'lagrangian: "(v1_1^2 - v1_2^2)/2 + 3*v1_1 + 2"',
)

KLEIN_GORDON_YAML = WAVE_YAML.replace(
    'lagrangian: "(v1_1^2 - v1_2^2)/2"',
    'lagrangian: "(v1_1^2 - v1_2^2)/2 - q1^2/2"',
)

OSCILLATOR_YAML = f"""
n: 1
k: 1
lagrangian: "v1_1^2/2 - q1^2/2"
seed: 3
samples: 40
solutions:
  orbit:
    kind: grid
    axes: [[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]
    q0: [1.0]
    v0: [0.0]
"""


@pytest.fixture
def wave_file(tmp_path):
    path = tmp_path / "wave.yaml"
    path.write_text(WAVE_YAML)
    return path


class TestModelFile:
    def test_loads_models_and_sections(self, wave_file):
        spec = load_model(wave_file)
        assert spec.table.n == 1 and spec.table.k == 2
        assert spec.lagrangian is not None and spec.hamiltonian is not None
        assert set(spec.symmetries) == {"shift", "translate", "stretch"}
        assert isinstance(spec.solutions["dalembert"], AnalyticSolution)
        assert isinstance(spec.solutions["run"], GridSolution)
        assert spec.seed == 7

    def test_missing_models_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("n: 1\nk: 2\n")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_bad_expression_carries_context(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text('n: 1\nk: 2\nlagrangian: "v1_1^2/2 + "\n')
        with pytest.raises(ModelFileError) as err:
            load_model(path)
        assert "lagrangian" in str(err.value)

    def test_undeclared_name_rejected(self, tmp_path):
        path = tmp_path / "bad2.yaml"
        path.write_text('n: 1\nk: 2\nlagrangian: "q3^2"\n')
        with pytest.raises(ModelFileError) as err:
            load_model(path)
        assert "q3" in str(err.value)

    def test_numbers_without_a_decimal_point_load(self, tmp_path):
        # YAML 1.1 reads 1e-9 as a string, not a float; the loader converts it
        assert yaml.safe_load("x: 1e-9") == {"x": "1e-9"}
        path = tmp_path / "exponents.yaml"
        path.write_text(
            'n: 1\nk: 1\nlagrangian: "v1_1^2/2"\ntolerances: {cartan: 1e-9, noether: 2E-8}\n'
            "box: {q1: [-1e1, 1e1]}\nsolutions:\n  orbit:\n    kind: grid\n"
            "    axes: [[0, 1e0, 1e-2]]\n    q0: [0]\n    v0: [1]\n"
        )
        spec = load_model(path)
        assert (spec.tol("cartan"), spec.tol("noether")) == (1e-9, 2e-8)
        assert spec.box == {"q1": (-10.0, 10.0)}
        assert spec.solutions["orbit"].grid.axes == (Axis(0.0, 1.0, 0.01),)

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        path = tmp_path / "bad3.yaml"
        for key in ("bogus", "sopde"):  # sopde: the second-order condition holds by construction
            path.write_text(
                f'n: 1\nk: 2\nlagrangian: "v1_1^2/2"\ntolerances: {{{key}: 1.0}}\n'
            )
            with pytest.raises(ModelFileError, match=f"unknown key '{key}'"):
                load_model(path)
        assert main(["analyze", str(MODELS / "wave.yaml"), "--tol", "sopde=1e-9"]) == 2
        assert capsys.readouterr().err == "error: unknown tolerance key 'sopde'\n"

    @pytest.mark.parametrize("text, old, new, message", [
        (WAVE_YAML, "samples: 60", "samples: 60\nbox: [q1]", "box: expected a mapping"),
        (WAVE_YAML, "samples: 60", "samples: 60\nbox:\n  q1: [-1.0]",
         "box.q1: expected a list of 2 finite numbers"),
        (WAVE_YAML, "t_box: [[0.0, 1.0], [0.0, 6.0]]", "t_box: 2",
         "solutions.dalembert.t_box: expected 2 intervals"),
        (WAVE_YAML, "t_box: [[0.0, 1.0], [0.0, 6.0]]", "t_box: [[0.0, 1.0], []]",
         "solutions.dalembert.t_box: expected a list of 2 finite numbers"),
        (WAVE_YAML, "axes: [[0.0, 1.0, 0.01]", "axes: [[0.0, .inf, 0.01]",
         "solutions.run.axes: expected a list of 3 finite numbers"),
        (WAVE_YAML, "samples: 60", "samples: true", "samples a positive integer"),
        (OSCILLATOR_YAML, "k: 1", "k: true", "n and k must be positive integers"),
        (WAVE_YAML, "seed: 7", "seed: -1", "seed must be a non-negative integer"),
        (OSCILLATOR_YAML, "q0: [1.0]", "q0: 1.0", "solutions.orbit.q0: expected a list of 1"),
        (OSCILLATOR_YAML, "n: 1", "n: 0", "need n >= 1 and k >= 1"),
        (WAVE_YAML, "samples: 60", "samples: 60\nbox: {zz: [0, 1]}",
         "box: unknown coordinate 'zz'"),
        (WAVE_YAML, '"(v1_1^2 - v1_2^2)/2"', '"sin + q1"', "function 'sin' requires an argument"),
        (WAVE_YAML, "kind: analytic", "kind: analytic\n    side: other",
         "solutions.dalembert: unknown side 'other'"),
        (OSCILLATOR_YAML, "solutions:", 'solutions:\n  orbit_h:\n    kind: analytic\n'
         '    side: hamiltonian\n    components: ["cos(t1)"]\n    momenta: [["0"], ["0"]]',
         "solutions.orbit_h.momenta: expected 1 rows"),
        (OSCILLATOR_YAML, f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]", "[[0.0, 1.0, 0.0]]",
         "solutions.orbit.axes: axis step must be positive"),
        (OSCILLATOR_YAML, f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]", "[[1.0, 0.0, 0.1]]",
         "solutions.orbit.axes: axis extent must be increasing"),
        # extent over step overflows to an infinite count of steps
        (OSCILLATOR_YAML, f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]", "[[0.0, 1.0e300, 1.0e-300]]",
         "solutions.orbit.axes: axis step 1e-300 is too small for its extent"),
    ], ids=[
        "box", "box-interval", "t_box", "t_box-interval", "axis", "samples", "k", "seed", "q0",
        "n", "box-coordinate", "bare-function", "analytic-side", "momenta-rows", "axis-step",
        "axis-extent", "axis-count",
    ])
    def test_malformed_structure_exits_two(self, tmp_path, capsys, text, old, new, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text.replace(old, new))
        assert path.read_text() != text
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("old, new, context", [
        ("samples: 60", "samples: 60\nbox:\n  q1: [-1.0e+308, 1.0e+308]", "box.q1"),
        ("t_box: [[0.0, 1.0], [0.0, 6.0]]", "t_box: [[-1.0e+308, 1.0e+308], [0.0, 6.0]]",
         "solutions.dalembert.t_box"),
    ], ids=["box", "t_box"])
    def test_interval_whose_width_overflows_exits_two(self, tmp_path, capsys, old, new, context):
        # both ends are finite, their difference is not
        path = tmp_path / "wide.yaml"
        path.write_text(WAVE_YAML.replace(old, new))
        assert path.read_text() != WAVE_YAML
        assert main(["noether", str(path), "--symmetry", "shift", "--solution", "dalembert"]) == 2
        assert capsys.readouterr().err == (
            f"error: {context}: the width of [-1e+308, 1e+308] overflows\n"
        )

    @pytest.mark.parametrize("argv", [
        ["analyze", "{model}", "--samples", "10000000000000"],
        ["gauge", "{model}", "{model}", "--samples", "10000000000000"],
        ["noether", "{model}", "--symmetry", "shift", "--solution", "dalembert"],  # file's count
        ["analyze", "{model}", "--samples", "10000000000000000000"],
    ])
    def test_sample_count_too_large_to_allocate_exits_two(self, wave_file, capsys, argv):
        # 1e13 rows of 3 coordinates, 218 TiB: past the 47-bit user address
        # space, so numpy refuses the array at once and nothing is allocated;
        # 1e19 rows are past numpy's index range
        count = argv[-1] if "--samples" in argv else "10000000000000"
        if "--samples" not in argv:
            wave_file.write_text(WAVE_YAML.replace("samples: 60", f"samples: {count}"))
        assert main([arg.format(model=wave_file) for arg in argv]) == 2
        error = capsys.readouterr().err
        assert error.startswith(f"error: sample count {count} is too large")
        assert error.count("\n") == 1

    def test_negative_seed_override_exits_two(self, wave_file, capsys):
        assert main(["analyze", str(wave_file), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"

    @pytest.mark.parametrize("kind", ["directory", "undecodable", "missing"])
    def test_unreadable_model_path_exits_two(self, tmp_path, capsys, kind):
        path = tmp_path / "model.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":  # byte 0xff inside the lagrangian string
            path.write_bytes(WAVE_YAML.encode().replace(b"v1_1^2 -", b"v1_1^2 \xff-", 1))
        assert main(["analyze", str(path)]) == 2
        error = capsys.readouterr().err
        expected = f"error: model file not found: {path}\n" if kind == "missing" else f"error: {path}: "
        assert error.startswith(expected) and error.count("\n") == 1

    def test_out_onto_an_existing_file_exits_two(self, wave_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["analyze", str(wave_file), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"error: --out {taken}: File exists\n"

    def test_out_is_refused_before_the_solver_runs(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        runs = recording(monkeypatch, cli_solve, "integrate_k1")
        recording(monkeypatch, cli_solve, "integrate_k2_hyperbolic", runs)
        argv = ["solve", str(MODELS / "wave.yaml"), "--solution", "run", "--out", str(taken)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --out {taken}: File exists\n"
        assert runs == []

    @pytest.mark.parametrize("key, argv", [
        ("cartan", ["check-symmetry", "{model}", "--symmetry", "shift"]),
        ("conservation", ["noether", "{model}", "--symmetry", "shift", "--solution", "dalembert"]),
    ])
    @pytest.mark.parametrize("value, spelled", [
        ("nan", ".nan"), ("-1", "-1.0"), ("inf", ".inf"), ("-inf", "-.inf"),
    ])
    def test_tolerance_must_be_finite_and_non_negative(
        self, wave_file, tmp_path, capsys, key, argv, value, spelled
    ):
        command = [arg.format(model=wave_file) for arg in argv]
        assert main(command + ["--tol", f"{key}={value}"]) == 2
        assert capsys.readouterr().err == f"error: --tol {key}: expected a finite non-negative number\n"
        path = tmp_path / "tolerances.yaml"
        path.write_text(WAVE_YAML + f"tolerances:\n  {key}: {spelled}\n")
        assert main([arg.format(model=path) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: tolerances.{key}: expected a finite non-negative number\n"
        )


class TestAnalyze:
    def test_regular_model(self, wave_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(wave_file), "--out", str(out)]) == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["lagrangian"]["regular"] is True
        assert report["hamiltonian"]["kvector_pass"] is True
        assert "regular: true" in capsys.readouterr().out

    def test_velocity_free_lagrangian_is_singular(self, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text('n: 1\nk: 2\nlagrangian: "q1^2"\n')
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["lagrangian"]["regular"] is False

    def test_malformed_model_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text('n: 1\nk: 2\nlagrangian: "(v1_1"\n')
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_yaml_syntax_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text('n: 1\nk: [1\nlagrangian: "v1_1^2/2"\n')
        assert main(["analyze", str(path)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "broken.yaml" in error

    def test_deeply_nested_lagrangian_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.yaml"
        source = "(" * 3000 + "v1_1^2" + ")" * 3000
        path.write_text(f'n: 1\nk: 2\nlagrangian: "{source}"\n')
        assert main(["analyze", str(path)]) == 2
        assert "nesting" in capsys.readouterr().err

    def analyze_lagrangian(self, tmp_path, source):
        path = tmp_path / "chain.yaml"
        path.write_text(f'n: 1\nk: 1\nlagrangian: "{source}"\nsamples: 20\n')
        out = tmp_path / "out"
        return main(["analyze", str(path), "--out", str(out)]), out / "analyze.json"

    def test_flat_sum_at_depth_cap_runs(self, tmp_path):
        # "v1_1^2/2" weighs 3 + 6 and each "+ q1" one more: 591 of them reach the cap
        code, report = self.analyze_lagrangian(tmp_path, "v1_1^2/2" + " + q1" * 591)
        assert code == 0
        assert json.loads(report.read_text())["lagrangian"]["regular"] is True

    def test_product_chain_at_depth_cap_runs(self, tmp_path):
        # each "*" weighs 3: 199 of them and the "+" make 598, the most this shape allows
        code, report = self.analyze_lagrangian(tmp_path, "v1_1^2/2 + " + "*".join(["q1"] * 200))
        assert code == 0
        assert json.loads(report.read_text())["lagrangian"]["regular"] is True

    def test_long_product_of_sums_runs(self, tmp_path):
        # its second derivative is a tree of about 10^7 nodes but a DAG of
        # about 1200, which every walk and the compiled code follow
        code, report = self.analyze_lagrangian(tmp_path, "v1_1^2/2 + " + "*".join(["(v1_1+2)"] * 200))
        assert code == 0
        assert json.loads(report.read_text())["lagrangian"]["regular"] is True

    @pytest.mark.parametrize("source", [
        "(v1_1^2 - v1_2^2)/2 + (log((v1_1)^-1))*(((0)/(1e300))-(1e300))",
        "1e200*(v1_1^2 + v1_2^2)/2",  # the determinant itself overflows
    ])
    def test_huge_hessian_entries_print_no_warning(self, tmp_path, capsys, source):
        # runs under the error::RuntimeWarning filter: a numpy warning would raise
        path = tmp_path / "huge.yaml"
        path.write_text(f'n: 1\nk: 2\nlagrangian: "{source}"\n')
        assert main(["analyze", str(path)]) in (0, 1)
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("source", [
        "v1_1^2/2" + " + q1" * 592,
        "v1_1^2/2 + " + "*".join(["q1"] * 201),
        "v1_1^2/2" + " + q1" * 2999,
    ])
    def test_past_depth_cap_exits_two(self, tmp_path, capsys, source):
        code, _ = self.analyze_lagrangian(tmp_path, source)
        assert code == 2
        assert "deeper than the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["v1_1^2/2 + .", "v1_1^2/2 + q1^1e999", "9e999"])
    def test_malformed_number_exits_two(self, tmp_path, capsys, source):
        path = tmp_path / "number.yaml"
        path.write_text(f'n: 1\nk: 2\nlagrangian: "{source}"\n')
        assert main(["analyze", str(path)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: lagrangian: ") and "Traceback" not in error

    def test_json_identical_across_runs(self, wave_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["analyze", str(wave_file), "--out", str(out1)])
        main(["analyze", str(wave_file), "--out", str(out2)])
        assert (out1 / "analyze.json").read_bytes() == (out2 / "analyze.json").read_bytes()


class TestSolve:
    def test_oscillator_grid(self, tmp_path):
        path = tmp_path / "ho.yaml"
        path.write_text(OSCILLATOR_YAML)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--solution", "orbit", "--out", str(out)]) == 0
        report = json.loads((out / "orbit_solve.json").read_text())
        assert report["converged"] is True
        assert 10.0 <= report["convergence_ratio"] <= 25.6
        rows = (out / "orbit_grid.csv").read_text().strip().splitlines()
        assert rows[0] == "t1,phi1,v1_1"
        assert len(rows) == 1 + 1001

    def test_wave_grid(self, wave_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(wave_file), "--solution", "run", "--out", str(out)]) == 0
        report = json.loads((out / "run_solve.json").read_text())
        assert 2.5 <= report["convergence_ratio"] <= 6.4

    FREE_PARTICLE_YAML = (
        'n: 1\nk: 1\nlagrangian: "v1_1^2/2"\nsolutions:\n  line:\n    kind: grid\n'
        "    axes: [[0.0, 1.0, 0.01]]\n    q0: [0.3]\n    v0: [1.0]\n"
    )

    # RK4 is exact on the free particle, and the leapfrog on a field linear in
    # t1, so every gap is rounding: the ratio misses its window, the floor decides
    @pytest.mark.parametrize("text, solution, printed", [
        pytest.param(FREE_PARTICLE_YAML, "line", "0.606 (nominal 16)", id="free-particle"),
        pytest.param(FREE_PARTICLE_YAML.replace("[0.3]", "[0.0]").replace("[1.0]", "[0.0]"),
                     "line", "undefined (nominal 16)", id="rest-state"),
        pytest.param((MODELS / "wave.yaml").read_text().replace('["sin(t2)"]', '["0.25"]')
                     .replace('["-cos(t2)"]', '["1.0"]'), "run", "1.000 (nominal 4)",
                     id="wave-linear-in-t1"),
    ])
    def test_exact_solution_converges_on_its_rounding_floor(
        self, tmp_path, capsys, text, solution, printed
    ):
        path = tmp_path / "exact.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--solution", solution, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"convergence ratio: {printed}\n"
        report = json.loads((out / f"{solution}_solve.json").read_text())
        assert report["converged"] is True
        assert report["rounding_floor"] < 1e-12
        if printed.startswith("undefined"):  # the rest state: both gaps are exactly 0
            assert report["convergence_ratio"] is None and report["rounding_floor"] == 0.0

    def test_unknown_solution_exits_two(self, wave_file):
        assert main(["solve", str(wave_file), "--solution", "nope"]) == 2

    def test_leapfrog_force_leaving_the_domain_exits_two(self, tmp_path, capsys):
        # the force -(log(q1 + 0.5) + q1/(q1 + 0.5)) is fine in the sampling
        # box, but the run grid starts at sin(t2), which reaches q1 < -1/2
        path = tmp_path / "log.yaml"
        path.write_text(WAVE_YAML.replace(
            'lagrangian: "(v1_1^2 - v1_2^2)/2"',
            'lagrangian: "(v1_1^2 - v1_2^2)/2 - q1*log(q1 + 0.5)"\nbox:\n  q1: [0.0, 1.0]',
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", str(path), "--solution", "run"]) == 2
        assert not caught
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "log(q1 + 0.5)" in error

    def test_leapfrog_of_a_lagrangian_undefined_everywhere_exits_two(self, tmp_path, capsys):
        # d/dq1 of the t1 momentum v1_1 + 0/0 is 0/0, not zero: the leapfrog
        # evaluates the constant Hessian 1 + 0/0 before its q-coupling test, and
        # analyze at its samples; a constant fails at no point in particular
        path = tmp_path / "undefined.yaml"
        path.write_text(WAVE_YAML.replace(
            'lagrangian: "(v1_1^2 - v1_2^2)/2"', 'lagrangian: "(v1_1^2 - v1_2^2)/2 + q1/0"'
        ))
        for argv in (["solve", str(path), "--solution", "run"], ["analyze", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: invalid value encountered in scalar divide evaluating 1 + 0/0 everywhere\n"
            )

    @pytest.mark.parametrize("lagrangian, q0, message", [
        pytest.param("(v1_1 + v2_1)^2/2 - q1^2/2", "[1.0, 0.0]",
                     "velocity Hessian became singular along the trajectory", id="singular"),
        # singular too, but the velocity derivatives of 1/q1 leave unfolded 0/q1^2
        # terms, so the Hessian is eliminated in each stage, after the finiteness
        # test of the force, which is -inf at q0
        pytest.param("(v1_1 + v2_1)^2/2 + 1/q1", "[0.0, 0.0]",
                     "non-finite state at step 1; step rejected", id="singular-and-non-finite"),
        # the same constant Hessian is checked before the first step, so it is
        # named although the force 1/q1 is not finite at q0
        pytest.param("(v1_1 + v2_1)^2/2 + log(q1)", "[0.0, 0.0]",
                     "velocity Hessian became singular along the trajectory",
                     id="singular-before-non-finite"),
    ])
    def test_singular_constant_hessian_exits_one(self, tmp_path, capsys, lagrangian, q0, message):
        path = tmp_path / "singular.yaml"
        path.write_text(OSCILLATOR_YAML.replace("n: 1", "n: 2").replace(
            '"v1_1^2/2 - q1^2/2"', f'"{lagrangian}"'
        ).replace("q0: [1.0]", f"q0: {q0}").replace("v0: [0.0]", "v0: [0.0, 0.0]"))
        assert main(["solve", str(path), "--solution", "orbit"]) == 1
        assert capsys.readouterr().err == f"check failed: {message}\n"

    def test_state_overflow_rejects_the_step(self, tmp_path, capsys):
        # the free particle moves 1e150 per unit time over a step of 1e200
        path = tmp_path / "overflow.yaml"
        path.write_text(
            'n: 1\nk: 1\nlagrangian: "v1_1^2/2"\nsolutions:\n  orbit:\n    kind: grid\n'
            "    axes: [[0.0, 3.0e200, 1.0e200]]\n    q0: [0.0]\n    v0: [1.0e150]\n"
        )
        assert main(["solve", str(path), "--solution", "orbit"]) == 1
        error = capsys.readouterr().err
        assert error == "check failed: non-finite state at step 1; step rejected\n"

    @pytest.mark.parametrize("lagrangian, step", [
        ("v1_1^2/2 + q1^4", 34),  # q'' = 4 q^3 from q = 3
        ("v1_1^2/2 + exp(q1)", 51),  # q'' = exp(q) from q = 3
    ])
    def test_blow_up_names_its_step(self, tmp_path, capsys, lagrangian, step):
        path = tmp_path / "blow_up.yaml"
        path.write_text(OSCILLATOR_YAML.replace('"v1_1^2/2 - q1^2/2"', f'"{lagrangian}"').replace(
            f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]", "[[0.0, 10.0, 0.01]]"
        ).replace("q0: [1.0]", "q0: [3.0]"))
        assert main(["solve", str(path), "--solution", "orbit"]) == 1
        assert capsys.readouterr().err == (
            f"check failed: non-finite state at step {step}; step rejected\n"
        )

    @pytest.mark.parametrize("text, solution, message", [
        pytest.param(WAVE_YAML.replace("[[0.0, 1.0, 0.01]", "[[0.0, 1.0e300, 1.0e299]"), "run",
                     "non-finite field at step 1; step rejected", id="leapfrog"),
        pytest.param(OSCILLATOR_YAML.replace(f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]",
                                             "[[0.0, 1.0e300, 1.0e299]]"), "orbit",
                     "non-finite state at step 1; step rejected", id="rk4"),
    ])
    def test_step_whose_square_overflows_rejects_the_step(self, tmp_path, capsys, text, solution,
                                                           message):
        # h1^2 = 1e598 is past the float range, so level 1 is not finite
        path = tmp_path / "huge_step.yaml"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", solver.CFLWarning)
            assert main(["solve", str(path), "--solution", solution]) == 1
        assert capsys.readouterr().err == f"check failed: {message}\n"

    @pytest.mark.parametrize("argv, text, message", [
        pytest.param(["solve", "--solution", "run"],
                     WAVE_YAML.replace("[[0.0, 1.0, 0.01]", "[[0.0, 0.01, 0.01]"),
                     "grid of solution 'run' has 2 evolution levels; solve needs at least 3",
                     id="leapfrog"),
        pytest.param(["solve", "--solution", "orbit"],
                     OSCILLATOR_YAML.replace(f"[[0.0, {TWO_PI!r}, {TWO_PI / 1000!r}]]",
                                             "[[0.0, 0.01, 0.01]]"),
                     "grid of solution 'orbit' has 2 evolution levels; solve needs at least 3",
                     id="rk4"),
        pytest.param(["noether", "--symmetry", "shift", "--solution", "run"],
                     WAVE_YAML.replace("[[0.0, 1.0, 0.01]", "[[0.0, 0.03, 0.01]"),
                     "grid of solution 'run' has 4 evolution levels; "
                     "a noether trace needs at least 5", id="noether-trace"),
    ])
    def test_grid_too_short_for_its_command_exits_two_before_running(
        self, tmp_path, capsys, monkeypatch, argv, text, message
    ):
        runs = recording(monkeypatch, cli_solve, "integrate_k1")
        recording(monkeypatch, cli_solve, "integrate_k2_hyperbolic", runs)
        path = tmp_path / "short.yaml"
        path.write_text(text)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")  # no current printed first
        assert runs == []

    def test_analytic_solution_rejected(self, wave_file):
        assert main(["solve", str(wave_file), "--solution", "dalembert"]) == 2

    WAVE_AXES = "[[0.0, 0.5, 0.005], [0.0, 6.283185307179586, 0.010005072145190424]]"
    OSCILLATOR_AXES = "[[0.0, 6.283185307179586, 0.006283185307179586]]"

    @pytest.mark.parametrize("argv, axes", [
        # 1e11 levels of 628 nodes, 457 TiB
        (["solve", "wave.yaml", "--solution", "run"],
         "[[0.0, 100000000.0, 0.001], [0.0, 6.283185307179586, 0.010005072145190424]]"),
        (["noether", "wave.yaml", "--symmetry", "shift", "--solution", "run"],
         "[[0.0, 100000000.0, 0.001], [0.0, 6.283185307179586, 0.010005072145190424]]"),
        # 2e13 levels of 2 values, 291 TiB
        (["solve", "oscillator.yaml", "--solution", "orbit"], "[[0.0, 1.0e13, 0.5]]"),
        # 1e300 levels, or 1e300 nodes on the periodic axis: past numpy's index range
        (["solve", "oscillator.yaml", "--solution", "orbit"], "[[0.0, 1.0, 1.0e-300]]"),
        (["solve", "wave.yaml", "--solution", "run"], "[[0.0, 0.5, 0.005], [0.0, 1.0, 1.0e-300]]"),
        # 9e307 levels, whose second refinement has more steps than a float holds
        (["solve", "oscillator.yaml", "--solution", "orbit"], "[[0.0, 1.0e300, 1.1e-8]]"),
        # 1e10 levels of 1e10 nodes: the byte count is past numpy's index range
        (["solve", "wave.yaml", "--solution", "run"], "[[0.0, 1.0e10, 1.0], [0.0, 1.0e10, 1.0]]"),
    ], ids=["argv0", "argv1", "argv2", "oscillator-levels", "wave-nodes", "oscillator-refinement",
            "wave-bytes"])
    def test_grid_too_large_to_allocate_exits_two(self, tmp_path, capsys, argv, axes):
        # numpy refuses each array at once, so nothing is allocated: the
        # byte counts are past the 47-bit user address space
        command, model, *rest = argv
        shipped = (MODELS / model).read_text()
        path = tmp_path / "huge.yaml"
        shipped_axes = self.WAVE_AXES if model == "wave.yaml" else self.OSCILLATOR_AXES
        path.write_text(shipped.replace(shipped_axes, axes))
        assert path.read_text() != shipped
        assert main([command, str(path), *rest]) == 2
        error = capsys.readouterr().err
        assert error.startswith(f"error: grid of solution '{rest[-1]}' is too large")
        assert error.count("\n") == 1


@pytest.mark.parametrize("argv, built", [
    (["solve"], 1),  # three grids run, the coarse one is written
    (["noether", "--symmetry", "shift"], 2),  # the coarse and the refined trace
])
def test_jets_built_only_for_grids_that_are_read(wave_file, tmp_path, monkeypatch, argv, built):
    calls = []
    stencil = SolutionGrid.jets_from_stencil

    def counted(sol):
        calls.append(sol)
        return stencil(sol)

    monkeypatch.setattr(SolutionGrid, "jets_from_stencil", counted)
    out = tmp_path / "out"
    argv = [argv[0], str(wave_file), *argv[1:], "--solution", "run", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == built


def halton_calls(monkeypatch) -> list:
    """Every Halton design built from now on, wherever it is called from."""
    calls = []
    for module in (sampling, modelfile):
        recording(monkeypatch, module, "halton", calls)
    return calls


@pytest.mark.parametrize("argv", [
    ["analyze", "{model}"],  # both sides
    ["check-symmetry", "{model}", "--symmetry", "translate"],  # chart and t-samples
    ["noether", "{model}", "--symmetry", "shift", "--solution", "dalembert"],
    ["gauge", "{model}", "{model}"],
])
def test_one_halton_design_per_command(wave_file, monkeypatch, argv):
    calls = halton_calls(monkeypatch)
    assert main([arg.format(model=wave_file) for arg in argv]) == 0
    assert calls == [(3, 60, 7)]  # the chart's n + n k columns; t-samples read the first k


def test_halton_design_not_reused_across_commands(wave_file, monkeypatch, capsys):
    calls = halton_calls(monkeypatch)
    argv = ["noether", str(wave_file), "--symmetry", "shift", "--solution", "dalembert"]
    assert main(argv) == 0 and main(argv) == 0
    assert calls == [(3, 60, 7)] * 2
    assert main(["analyze", str(wave_file), "--samples", "10000000000000"]) == 2
    assert capsys.readouterr().err.startswith("error: sample count 10000000000000 is too large")


class TestNoether:
    def test_shift_current_on_analytic_solution(self, wave_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "noether", str(wave_file), "--symmetry", "shift",
            "--solution", "dalembert", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "noether_shift.json").read_text())
        assert report["constructed"] is True
        conditions = {r["condition"]: r for r in report["reports"]}
        assert conditions["analytic_divergence"]["pass"] is True
        assert conditions["kvector_bracket_sum"]["pass"] is True

    def test_shift_current_on_grid_solution(self, wave_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "noether", str(wave_file), "--symmetry", "shift",
            "--solution", "run", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "noether_shift.json").read_text())
        grid_report = {r["condition"]: r for r in report["reports"]}["grid_divergence"]
        assert grid_report["max_residual"] <= 1e-3
        assert 3.0 <= grid_report["details"]["refinement_ratio"] <= 5.0
        trace = (out / "noether_shift_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "t1,t2,phi1,v1_1,v1_2,F1,F2,divergence"

    def test_constant_current_is_conserved_on_its_rounding_floor(self, tmp_path, capsys):
        # sin(q1)^2 + cos(q1)^2 is 1 in the reals, so its divergences are rounding
        path = tmp_path / "constant.yaml"
        path.write_text(OSCILLATOR_YAML.replace("solutions:", (
            "symmetries:\n  const:\n    kind: vector-field\n    side: lagrangian\n"
            '    components: ["0", "0"]\n    zeta: ["sin(q1)^2 + cos(q1)^2"]\nsolutions:'
        )))
        out = tmp_path / "out"
        argv = ["noether", str(path), "--symmetry", "const", "--solution", "orbit"]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads((out / "noether_const.json").read_text())
        grid_report = {r["condition"]: r for r in report["reports"]}["grid_divergence"]
        assert grid_report["pass"] is True
        assert grid_report["details"]["refinement_ratio"] == 0.5
        assert 0.0 < grid_report["details"]["rounding_floor"] < 1e-12
        assert "grid_divergence: max residual" in capsys.readouterr().out

    def test_broken_symmetry_fails(self, tmp_path):
        path = tmp_path / "kg.yaml"
        path.write_text(KLEIN_GORDON_YAML)
        out = tmp_path / "out"
        code = main(["noether", str(path), "--symmetry", "shift", "--out", str(out)])
        assert code == 1
        report = json.loads((out / "noether_shift.json").read_text())
        assert report["constructed"] is False
        assert "rejection" in report

    def test_current_leaving_the_domain_on_a_grid_exits_two(self, tmp_path, capsys):
        # v1_2*log(q1 + 1/2) is a null Lagrangian, so the shift is a symmetry
        # up to the gauge term log(q1 + 1/2), and the current carries it as
        # "+ log(q1 + 0.5) - log(q1 + 0.5)": fine in the sampling box, but
        # not where the run grid reaches q1 < -1/2
        path = tmp_path / "null.yaml"
        path.write_text(
            WAVE_YAML.replace(
                'lagrangian: "(v1_1^2 - v1_2^2)/2"',
                'lagrangian: "(v1_1^2 - v1_2^2)/2 + v1_2*log(q1 + 0.5)"\n'
                "box:\n  q1: [0.0, 1.0]",
            ).replace('components: ["1"]', 'components: ["1"]\n    gauge: ["0", "log(q1 + 0.5)"]')
        )
        argv = ["noether", str(path), "--symmetry", "shift", "--solution", "run"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "log(q1 + 0.5)" in error
        assert not (tmp_path / "out" / "noether_shift_trace.csv").exists()

    def test_hamiltonian_current_leaving_the_domain_names_its_pullback(self, tmp_path, capsys):
        # the free particle's current G = sqrt(p1_1 + 5), of the Hamiltonian
        # field of G, is fine in the sampling box; on the grid it is read as
        # G(v1_1), which the run's v1_1 = -10 takes out of its domain
        path = tmp_path / "free.yaml"
        path.write_text(
            'n: 1\nk: 1\nlagrangian: "v1_1^2/2"\nhamiltonian: "p1_1^2/2"\nsymmetries:\n'
            '  g:\n    kind: vector-field\n    side: hamiltonian\n'
            '    components: ["1/(2*sqrt(p1_1 + 5))", "0"]\n'
            '    zeta: ["p1_1/(2*sqrt(p1_1 + 5)) - sqrt(p1_1 + 5)"]\n'
            "solutions:\n  fast:\n    kind: grid\n    axes: [[0.0, 1.0, 0.1]]\n"
            "    q0: [0.0]\n    v0: [-10.0]\n"
        )
        assert main(["noether", str(path), "--symmetry", "g", "--solution", "fast"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1
        assert "sqrt(v1_1 + 5)" in error and "(q1=0.0, v1_1=-10.0, t1=0.0)" in error
        assert "p1_1" not in error

    def test_declared_side_of_a_base_field_is_honoured(self, tmp_path):
        # both commands read only the declared side, and the current keeps zeta
        path = tmp_path / "wave.yaml"
        path.write_text(WAVE_YAML.replace(
            'components: ["1"]', 'components: ["1"]\n    side: hamiltonian\n    zeta: ["5", "0"]'
        ))
        out = tmp_path / "out"
        assert main(["noether", str(path), "--symmetry", "shift", "--out", str(out)]) == 0
        report = json.loads((out / "noether_shift.json").read_text())
        assert (report["side"], report["current"]) == ("hamiltonian", ["p1_1 - 5", "p2_1"])
        assert main(["check-symmetry", str(path), "--symmetry", "shift", "--out", str(out)]) == 0
        report = json.loads((out / "check_shift.json").read_text())
        assert {r["details"]["side"] for r in report["reports"]} == {"hamiltonian"}

    # a natural lagrangian current reads only gauge, every other current only
    # zeta, and a diffeomorphism neither; an entry nothing reads is an error
    @pytest.mark.parametrize("old, new, argv, entry", [
        ('components: ["1"]', 'components: ["1"]\n    side: lagrangian\n    zeta: ["5", "0"]',
         ["noether", "--symmetry", "shift"], "zeta"),
        ('components: ["1"]', 'components: ["1"]\n    side: hamiltonian\n    gauge: ["q1", "0"]',
         ["noether", "--symmetry", "shift"], "gauge"),
        ('components: ["1"]', 'components: ["1"]\n    zeta: ["5", "0"]',
         ["noether", "--symmetry", "shift"], "zeta"),  # no side: read on the lagrangian side
        ('inverse: ["q1 - 1", "v1_1", "v1_2"]',
         'inverse: ["q1 - 1", "v1_1", "v1_2"]\n    zeta: ["junk(", "0"]',
         ["check-symmetry", "--symmetry", "translate"], "zeta"),
        ('inverse: ["q1 - 1", "v1_1", "v1_2"]',
         'inverse: ["q1 - 1", "v1_1", "v1_2"]\n    gauge: ["0", "0"]',
         ["check-symmetry", "--symmetry", "translate"], "gauge"),
        ("symmetries:", 'symmetries:\n  flow:\n    kind: vector-field\n    side: hamiltonian\n'
         '    components: ["1", "0", "0"]\n    gauge: ["0", "0"]',
         ["noether", "--symmetry", "flow"], "gauge"),
    ], ids=["lagrangian-zeta", "hamiltonian-gauge", "picked-side-zeta", "diffeomorphism-zeta",
            "diffeomorphism-gauge", "vector-field-gauge"])
    def test_entry_the_side_never_reads_exits_two(self, tmp_path, capsys, old, new, argv, entry):
        path = tmp_path / "wave.yaml"
        path.write_text(WAVE_YAML.replace(old, new, 1))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and argv[-1] in err and entry in err

    def test_zeta_that_misses_the_lie_derivative_is_rejected(self, tmp_path, capsys):
        # rot_h is a Cartan symmetry, but L(Y) theta = d(p^2/2 - q^2/2), not d(p^2/2 + q^2/2)
        shipped = (Path(__file__).resolve().parent / "models" / "rotation.yaml").read_text()
        path = tmp_path / "rotation.yaml"
        path.write_text(shipped.replace('zeta: ["p1_1^2/2 - q1^2/2"]', 'zeta: ["p1_1^2/2 + q1^2/2"]'))
        assert path.read_text() != shipped
        out = tmp_path / "out"
        assert main(["noether", str(path), "--symmetry", "rot_h", "--out", str(out)]) == 1
        report = json.loads((out / "noether_rot_h.json").read_text())
        assert report["constructed"] is False
        message = report["rejection"]["message"]
        assert message.startswith("zeta does not satisfy L(Y) theta^A = d zeta^A")
        assert report["rejection"]["max_residual"] == pytest.approx(1.97, abs=0.01)
        assert capsys.readouterr().out == f"current rejected: {message}\n"

    # noether checks --solution before it builds the current, as solve does
    def test_solution_on_the_other_side_exits_two(self, capsys, monkeypatch):
        built = recording(monkeypatch, cli_symmetry, "noether_current")
        path = Path(__file__).resolve().parent / "models" / "rotation.yaml"
        argv = ["noether", str(path), "--symmetry", "rot_l", "--solution", "closed_form_h"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: solution and current live on different sides\n")
        assert built == []

    def test_unknown_solution_exits_two_before_the_current_is_built(self, capsys, monkeypatch):
        built = recording(monkeypatch, cli_symmetry, "noether_current")
        argv = ["noether", str(MODELS / "wave.yaml"), "--symmetry", "shift", "--solution", "nosuch"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: model declares no solution named 'nosuch'\n")
        assert built == []

    @pytest.mark.parametrize("solution, condition", [
        ("closed_form", "analytic_divergence"), ("orbit", "grid_divergence"),
    ])
    def test_lagrangian_cartan_symmetry_yields_the_energy(self, tmp_path, solution, condition):
        # rot_l is the oscillator's phase-space rotation as a general field on
        # the lagrangian side; its current i(Y) theta - zeta is the energy
        path = Path(__file__).resolve().parent / "models" / "rotation.yaml"
        out = tmp_path / "out"
        argv = ["noether", str(path), "--symmetry", "rot_l", "--solution", solution]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads((out / "noether_rot_l.json").read_text())
        assert (report["side"], report["provenance"]) == ("lagrangian", "user-supplied")
        chart = ("q1", "v1_1")
        points = [[0.3, -0.7], [-1.0, 0.5], [0.9, 0.9]]
        values = evaluate_batch([parse(report["current"][0], chart)], chart, points)
        for (q1, v1_1), (value,) in zip(points, values):
            assert value == pytest.approx(v1_1**2 / 2 + q1**2 / 2, abs=1e-15)
        conserved = {r["condition"]: r for r in report["reports"]}[condition]
        assert conserved["pass"] is True

    def test_diffeomorphism_candidate_rejected(self, wave_file):
        assert main(["noether", str(wave_file), "--symmetry", "translate"]) == 2

    def test_byte_identical_reports(self, wave_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["noether", str(wave_file), "--symmetry", "shift", "--solution", "dalembert"]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert (out1 / "noether_shift.json").read_bytes() == (
            out2 / "noether_shift.json"
        ).read_bytes()


class TestCheckSymmetry:
    def test_translation_field_passes_both_sides(self, wave_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "check-symmetry", str(wave_file), "--symmetry", "shift", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "check_shift.json").read_text())
        sides = {r["details"]["side"] for r in report["reports"]}
        assert sides == {"lagrangian", "hamiltonian"}

    def test_translation_diffeo_passes(self, wave_file):
        assert main(["check-symmetry", str(wave_file), "--symmetry", "translate"]) == 0

    def test_stretch_diffeo_fails(self, wave_file):
        assert main(["check-symmetry", str(wave_file), "--symmetry", "stretch"]) == 1

    def test_domain_failure_exits_two(self, tmp_path, capsys):
        # sqrt(q1) leaves the real domain on the default box [-1, 1]
        path = tmp_path / "sqrt.yaml"
        path.write_text(WAVE_YAML.replace(
            'lagrangian: "(v1_1^2 - v1_2^2)/2"',
            'lagrangian: "(v1_1^2 - v1_2^2)/2 + sqrt(q1)"',
        ))
        assert main(["check-symmetry", str(path), "--symmetry", "translate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sqrt(q1" in err and "q1=-" in err

    def test_unknown_symmetry_exits_two(self, wave_file):
        assert main(["check-symmetry", str(wave_file), "--symmetry", "nope"]) == 2

    def test_tolerance_override(self, wave_file):
        # an absurdly tight tolerance makes float-noise residuals fail
        code = main([
            "check-symmetry", str(wave_file), "--symmetry", "shift",
            "--tol", "cartan=1e-30",
        ])
        assert code in (0, 1)  # outcome depends on exact zeros; must not crash


class TestGauge:
    def test_gauge_pair(self, wave_file, tmp_path):
        other = tmp_path / "shifted.yaml"
        other.write_text(GAUGE_SHIFTED_YAML)
        out = tmp_path / "out"
        code = main(["gauge", str(wave_file), str(other), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "gauge.json").read_text())
        assert report["verdict"] == "gauge"
        solutions = {r["details"]["solution"] for r in report["same_solutions"]}
        assert "dalembert" in solutions

    def test_inequivalent_pair(self, wave_file, tmp_path):
        other = tmp_path / "kg.yaml"
        other.write_text(KLEIN_GORDON_YAML)
        assert main(["gauge", str(wave_file), str(other)]) == 1

    def test_dimension_mismatch_exits_two(self, wave_file, tmp_path):
        other = tmp_path / "ho.yaml"
        other.write_text(OSCILLATOR_YAML)
        assert main(["gauge", str(wave_file), str(other)]) == 2

    def test_identity_pair_is_strict(self, wave_file, tmp_path):
        code = main(["gauge", str(wave_file), str(wave_file)])
        assert code == 0


HAMILTONIAN_ONLY_YAML = """
n: 1
k: 1
hamiltonian: "p1_1^2/2 + q1^2/2"
symmetries:
  rot:
    kind: vector-field
    side: lagrangian
    components: ["v1_1", "-q1"]
  turn:
    kind: diffeomorphism
    side: lagrangian
    components: ["q1 + 1", "v1_1"]
    inverse: ["q1 - 1", "v1_1"]
solutions:
  orbit:
    kind: grid
    axes: [[0.0, 1.0, 0.01]]
    q0: [1.0]
    v0: [0.0]
"""


# the shipped wave's Hamiltonian, base field and grid run, without its Lagrangian
WAVE_H_YAML = """
n: 1
k: 2
hamiltonian: "(p1_1^2 - p2_1^2)/2"
symmetries:
  shift:
    kind: vector-field-on-q
    components: ["1"]
solutions:
  run:
    kind: grid
    axes: [[0.0, 0.5, 0.005], [0.0, 6.283185307179586, 0.010005072145190424]]
    initial: ["sin(t2)"]
    initial_rate: ["-cos(t2)"]
"""


class TestHamiltonianOnly:
    """A file whose only model is a Hamiltonian, read by commands that need more."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "hamiltonian.yaml"
        path.write_text(HAMILTONIAN_ONLY_YAML)
        return path

    @pytest.mark.parametrize("argv, message", [
        (["check-symmetry", "{model}", "--symmetry", "rot"],
         "no model present for the candidate's side"),
        (["check-symmetry", "{model}", "--symmetry", "turn"], "no lagrangian model in the file"),
        (["noether", "{model}", "--symmetry", "rot"], "no lagrangian model in the file"),
        (["gauge", "{model}", "{model}"], "gauge comparison needs lagrangian models in both files"),
        (["solve", "{model}", "--solution", "orbit"], "grid solutions need a lagrangian model"),
        (["analyze", "{model}", "--samples", "0"], "--samples must be positive"),
    ], ids=["check-field", "check-map", "noether", "gauge", "solve", "samples"])
    def test_usage_error_exits_two(self, path, capsys, argv, message):
        assert main([arg.format(model=path) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_grid_solution_refused_before_the_current_is_built(self, tmp_path, capsys):
        # noether checks --solution before it builds the current, so the k = 2
        # Hamiltonian current is never printed
        path = tmp_path / "wave_h.yaml"
        path.write_text(WAVE_H_YAML)
        assert main(["noether", str(path), "--symmetry", "shift", "--solution", "run"]) == 2
        assert capsys.readouterr() == ("", "error: grid solutions need a lagrangian model\n")

    def test_malformed_tolerance_override_exits_two(self, path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", str(path), "--tol", "cartan=abc"])
        assert exit_.value.code == 2
        assert "--tol: invalid tolerance value 'abc'" in capsys.readouterr().err

    def test_base_field_without_side_is_checked_on_the_hamiltonian_side(self, tmp_path):
        path = tmp_path / "free.yaml"
        path.write_text('n: 1\nk: 1\nhamiltonian: "p1_1^2/2"\nsymmetries:\n  shift:\n'
                        '    kind: vector-field-on-q\n    components: ["1"]\n')
        out = tmp_path / "out"
        assert main(["check-symmetry", str(path), "--symmetry", "shift", "--out", str(out)]) == 0
        reports = json.loads((out / "check_shift.json").read_text())["reports"]
        assert [(r["details"]["side"], r["pass"]) for r in reports] == [("hamiltonian", True)] * 2


@pytest.mark.parametrize("function, parameter, key", [
    (symmetry.check_cartan, "tol", "cartan"),
    (symmetry.check_cartan_diffeomorphism, "tol", "cartan"),
    (symmetry.verify_bracket_theorem, "tol", "cartan"),
    (symmetry.noether_current, "tol", "noether"),
    (symmetry.verify_conservation, "tol", "conservation"),
    (symmetry.check_symmetry_by_transport, "tol", "transport"),
    (gauge.gauge_compare, "tol", "gauge"),
    (gauge.gauge_compare, "closedness_tol", "closedness"),
    (gauge.verify_same_solutions, "tol", "gauge"),
    (bundles.DiffeoQ.verify_inverse, "tol", "inverse"),
    (bundles.TotalMap.verify_inverse, "tol", "inverse"),
    (lagrangian.velocity_hessian, "det_rtol", "hessian"),
], ids=lambda x: getattr(x, "__qualname__", x))
def test_library_tolerance_defaults_are_the_file_defaults(function, parameter, key):
    # a library call without a tolerance judges as the command does with the
    # key it passes for that parameter
    default = inspect.signature(function).parameters[parameter].default
    assert default == modelfile.DEFAULT_TOLERANCES[key]


class TestParserReuse:
    """``main`` builds its argument parser once; no call may see another's options."""

    def analyze(self, wave_file, out, *options):
        assert main(["analyze", str(wave_file), "--out", str(out), *options]) == 0
        return json.loads((out / "analyze.json").read_text())

    def test_overrides_do_not_leak_into_the_next_call(self, wave_file, tmp_path):
        before = self.analyze(wave_file, tmp_path / "before")
        parser = cli._parser
        overridden = self.analyze(
            wave_file, tmp_path / "a", "--tol", "hessian=2", "--seed", "5", "--samples", "3"
        )
        assert overridden["seed"] == 5 and overridden["lagrangian"]["regular"] is False
        after = self.analyze(wave_file, tmp_path / "after")
        assert after["seed"] == 7 and after["lagrangian"]["regular"] is True
        assert after == before
        assert cli._parser is parser  # built once, by the first call

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["analyze"], ["solve", "model.yaml"], ["analyze", "m.yaml", "--tol", "x"],
        ["analyze", "m.yaml", "--seed", "five"], ["--help"],
    ])
    def test_usage_errors_leave_the_parser_working(self, wave_file, tmp_path, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert self.analyze(wave_file, tmp_path / "after")["seed"] == 7


# Lagrangian text from a token alphabet: operands (names, numbers with
# malformed ones among them, a call, a parenthesis), each followed by an
# operator or a closing parenthesis.  Whatever the text, main answers with
# an exit code of the contract and never raises.
_OPERANDS = ("q1", "v1_1", "v1_2", "2", "2.5", ".", "1.", "1e", "9e999", "sin(", "(")
_OPERATORS = ("+", "-", "*", "/", "^", "^(", ")")


@given(
    st.lists(st.tuples(st.sampled_from(_OPERANDS), st.sampled_from(_OPERATORS)), max_size=10)
    .map(lambda pairs: "".join(token for pair in pairs for token in pair))
)
@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_lagrangian_text_gets_an_exit_code(tmp_path, source):
    path = tmp_path / "fuzz.yaml"
    path.write_text(f'n: 1\nk: 2\nsamples: 5\nlagrangian: "{source}"\n')
    assert main(["analyze", str(path)]) in (0, 1, 2)


# Model files fuzzed over their structure: one of two complete models with
# up to two entries (the whole file, a section, a key or a list item)
# dropped or replaced by a value of another shape or out of range.  Grid
# axes come from the models or from _JUNK, so no example runs a grid larger
# than the models' own (about 0.1 s).
_FUZZ_MODELS = (
    {
        "n": 1, "k": 2, "seed": 7, "samples": 6,
        "lagrangian": "(v1_1^2 - v1_2^2)/2",
        "hamiltonian": "(p1_1^2 - p2_1^2)/2",
        "box": {"q1": [-1.0, 1.0], "v1_1": [-2.0, 2.0]},
        "tolerances": {"cartan": 1e-9, "conservation": 1e-9},
        "symmetries": {
            "shift": {"kind": "vector-field-on-q", "components": ["1"], "gauge": ["0", "0"]},
            "translate": {"kind": "diffeomorphism", "side": "lagrangian",
                          "components": ["q1 + 1", "v1_1", "v1_2"],
                          "inverse": ["q1 - 1", "v1_1", "v1_2"]},
            "flow": {"kind": "vector-field", "side": "hamiltonian",
                     "components": ["1", "0", "0"]},
        },
        "solutions": {
            "dalembert": {"kind": "analytic", "components": ["sin(t1 - t2)"],
                          "t_box": [[0.0, 1.0], [0.0, 6.0]]},
            "hdw": {"kind": "analytic", "side": "hamiltonian", "components": ["sin(t1 - t2)"],
                    "momenta": [["cos(t1 - t2)"], ["cos(t1 - t2)"]]},
            "run": {"kind": "grid", "axes": [[0.0, 0.2, 0.02], [0.0, TWO_PI, TWO_PI / 16]],
                    "initial": ["sin(t2)"], "initial_rate": ["-cos(t2)"]},
        },
    },
    {
        "n": 1, "k": 1, "samples": 6,
        "lagrangian": "v1_1^2/2 - q1^2/2",
        "hamiltonian": "p1_1^2/2 + q1^2/2",
        "symmetries": {"shift": {"kind": "vector-field-on-q", "components": ["q1"]}},
        "solutions": {
            "orbit": {"kind": "grid", "axes": [[0.0, 1.0, 0.05]], "q0": [1.0], "v0": [0.0]},
            "wave": {"kind": "analytic", "components": ["cos(t1)"], "t_box": [[0.0, 1.0]]},
        },
    },
)
_DROPPED = object()
_JUNK = (
    _DROPPED, None, 0, -1, 2.5, True, math.inf, math.nan, "", "q1", "q1 +", "1/0",
    "log(q1)", "t3", [], ["q1"], [[0.0, 1.0]], [[0.0, 1.0, 0.3]], [[1.0, 0.0, 0.1]], {"q1": 1},
)


def _entries(value, path=()):
    """Paths of every entry of ``value``: itself, then its keys and items."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _entries(item, path + (key,))


def _mutated(value, path, junk):
    """``value`` with the entry at ``path`` replaced by ``junk``, or dropped."""
    if not path:
        return junk
    if not isinstance(value, (dict, list)) or path[0] not in (
        value if isinstance(value, dict) else range(len(value))
    ):
        return value  # an earlier mutation took the entry away
    copy = type(value)(value)
    copy[path[0]] = _mutated(value[path[0]], path[1:], junk)
    if copy[path[0]] is _DROPPED:
        del copy[path[0]]
    return copy


def _fuzzed_run(model):
    """A fuzzed copy of ``model`` and a command naming its symmetries and
    solutions (or "nope"); MODEL stands for the file's path."""
    symmetries = st.sampled_from([*model["symmetries"], "nope"])
    solutions = st.sampled_from([*model["solutions"], "nope"])
    argv = st.one_of(
        st.just(["analyze", "MODEL"]),
        symmetries.map(lambda s: ["check-symmetry", "MODEL", "--symmetry", s]),
        st.tuples(symmetries, st.one_of(st.none(), solutions)).map(
            lambda names: ["noether", "MODEL", "--symmetry", names[0]]
            + (["--solution", names[1]] if names[1] else [])
        ),
        solutions.map(lambda s: ["solve", "MODEL", "--solution", s]),
        st.just(["gauge", "MODEL", "MODEL"]),
    )
    changes = st.lists(
        st.tuples(st.sampled_from(list(_entries(model))), st.sampled_from(_JUNK)), max_size=2
    )
    fuzzed = changes.map(
        lambda cs: functools.reduce(lambda m, change: _mutated(m, *change), cs, model)
    )
    return st.tuples(fuzzed.map(lambda m: None if m is _DROPPED else m), argv)


@given(st.one_of(*map(_fuzzed_run, _FUZZ_MODELS)))
@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_model_files_get_an_exit_code(tmp_path, run):
    model, argv = run
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(model))
    assert main([str(path) if arg == "MODEL" else arg for arg in argv]) in (0, 1, 2)


class TestNoCodegen:
    """Checks and leapfrog runs evaluate their expressions by walking the DAG;
    only the RK4 step compiles, one function per model."""

    @staticmethod
    def compiled(monkeypatch) -> list:
        calls = recording(monkeypatch, expr, "compile_source")
        return recording(monkeypatch, solver, "compile_source", calls)

    @pytest.mark.parametrize("argv", [
        ["analyze", "{wave}"],
        ["check-symmetry", "{wave}", "--symmetry", "translate"],
        ["gauge", "{wave}", "{wave}"],
        ["noether", "{wave}", "--symmetry", "shift", "--solution", "dalembert"],
    ], ids=["analyze", "check-symmetry", "gauge", "noether"])
    def test_checks_compile_nothing(self, monkeypatch, tmp_path, argv):
        calls = self.compiled(monkeypatch)
        wave = str(MODELS / "wave.yaml")
        assert main([arg.format(wave=wave) for arg in argv] + ["--out", str(tmp_path)]) == 0
        assert calls == []

    @pytest.mark.parametrize("argv, count", [
        (["solve", str(MODELS / "oscillator.yaml"), "--solution", "orbit"], 3),
        (["noether", str(Path(__file__).resolve().parent / "models" / "rotation.yaml"),
          "--symmetry", "rot_h", "--solution", "orbit"], 2),
    ], ids=["solve", "noether"])
    def test_each_command_compiles_its_rk4_step_once(self, monkeypatch, tmp_path, argv, count):
        calls = self.compiled(monkeypatch)
        runs = recording(monkeypatch, cli_solve, "integrate_k1")
        assert main(argv + ["--out", str(tmp_path)]) == 0
        # the runs at h, h/2 (and h/4) share one step; the model's constant
        # velocity Hessian is eliminated by its prologue
        assert len(runs) == count and calls == [calls[0]]
        assert calls[0][1] == ["q1", "v1_1"]

    def test_each_leapfrog_run_compiles_nothing(self, monkeypatch, tmp_path):
        calls = self.compiled(monkeypatch)
        runs = recording(monkeypatch, cli_solve, "integrate_k2_hyperbolic")
        argv = ["solve", str(MODELS / "wave.yaml"), "--solution", "run"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(runs) == 3 and calls == []
