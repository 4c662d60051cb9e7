"""Model-file loading and end-to-end command behaviour."""

import json

import pytest

from ksfield.cli import main
from ksfield.modelfile import (
    AnalyticSolution,
    GridSolution,
    ModelFileError,
    load_model,
)

TWO_PI = 6.283185307179586

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

    def test_unknown_tolerance_key(self, tmp_path):
        path = tmp_path / "bad3.yaml"
        path.write_text(
            'n: 1\nk: 2\nlagrangian: "v1_1^2/2"\ntolerances: {bogus: 1.0}\n'
        )
        with pytest.raises(ModelFileError):
            load_model(path)


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

    def test_deeply_nested_lagrangian_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.yaml"
        source = "(" * 3000 + "v1_1^2" + ")" * 3000
        path.write_text(f'n: 1\nk: 2\nlagrangian: "{source}"\n')
        assert main(["analyze", str(path)]) == 2
        assert "nesting" in capsys.readouterr().err

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

    def test_unknown_solution_exits_two(self, wave_file):
        assert main(["solve", str(wave_file), "--solution", "nope"]) == 2

    def test_analytic_solution_rejected(self, wave_file):
        assert main(["solve", str(wave_file), "--solution", "dalembert"]) == 2


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

    def test_broken_symmetry_fails(self, tmp_path):
        path = tmp_path / "kg.yaml"
        path.write_text(KLEIN_GORDON_YAML)
        out = tmp_path / "out"
        code = main(["noether", str(path), "--symmetry", "shift", "--out", str(out)])
        assert code == 1
        report = json.loads((out / "noether_shift.json").read_text())
        assert report["constructed"] is False
        assert "rejection" in report

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
