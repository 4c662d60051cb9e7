"""Workloads of the ksfield benchmark: CLI commands, generated models, known answers.

Every expected value here is derived by hand from the mathematics of the
model (Euler-Lagrange equations, Legendre map, closed-form solutions) and
never from ksfield's own output.  This module imports nothing from ksfield,
so the orchestrator can build a workload without paying the import.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

TWO_PI = 6.283185307179586

# Tolerances of the independent checks.
EXPR_TOL = 1e-12         # report expression vs hand-derived formula, per unit scale
ORBIT_TOL = 1e-8         # oscillator orbit vs cos(t1); RK4 at h = 2*pi/1000 errs 6e-11
CHAIN_ORBIT_TOL = 1e-9   # pendulum-chain orbit vs an independent RK4 on the same steps
WAVE_TOL = 1e-4          # leapfrog grids vs the travelling wave, relative to amplitude; errs <= 1.3e-5
RATIO_SLACK = 1.6        # the CLI's convergence band: nominal / 1.6 .. nominal * 1.6


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its known answer.

    ``check(report, files)`` returns a list of problems; ``work(report)``
    returns the units of work the command did (sampled points or grid nodes).
    """

    key: str
    argv: tuple
    exit_code: int
    check: Callable
    work: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    model_files: tuple   # loaded by the set-up probe


# ---------------------------------------------------------------------------
# independent evaluation of the expression strings the reports carry

_SOURCE = re.compile(r"^[0-9a-z_+\-*/^(). ]*$")
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


def eval_source(source: str, env: dict) -> float:
    """Evaluate a DSL string (infix, integer ``^`` powers) with Python's math."""
    if not _SOURCE.match(source):
        raise ValueError(f"unexpected characters in {source!r}")
    return float(eval(source.replace("^", "**"), {"__builtins__": {}, **_MATH}, dict(env)))


def _test_points(n: int, k: int) -> list:
    """Five fixed points of the (q, v) chart, coordinates in [-1, 1]."""
    rng = random.Random(f"points-{n}-{k}")
    names = [f"q{i}" for i in range(1, n + 1)]
    names += [f"v{i}_{A}" for A in range(1, k + 1) for i in range(1, n + 1)]
    return [{name: rng.uniform(-1.0, 1.0) for name in names} for _ in range(5)]


def _same_function(source: str, expected: Callable, points: list, what: str) -> list:
    try:
        for env in points:
            got, want = eval_source(source, env), expected(env)
            if abs(got - want) > EXPR_TOL * max(1.0, abs(want)):
                return [f"{what}: {source!r} gives {got!r}, expected {want!r} at {env}"]
    except (ValueError, SyntaxError, NameError, TypeError, ZeroDivisionError) as exc:
        return [f"{what}: cannot evaluate {source!r}: {exc}"]
    return []


# ---------------------------------------------------------------------------
# field theories: hand-derived energy, momenta and Noether current of
#   L = sum_i (v_i1^2 - v_i2^2)/2 + U(q)   (k = 2)

@dataclass(frozen=True)
class WaveTheory:
    n: int
    potential: Callable          # U(q) as a function of the env

    def energy(self, env):
        # E = v dL/dv - L = sum_i (v_i1^2 - v_i2^2)/2 - U
        kinetic = sum(env[f"v{i}_1"] ** 2 - env[f"v{i}_2"] ** 2 for i in range(1, self.n + 1))
        return kinetic / 2 - self.potential(env)

    @staticmethod
    def momentum(A: int, i: int) -> Callable:
        # p^A_i = dL/dv_iA = +v_i1 (A = 1), -v_i2 (A = 2); 1-based labels
        sign = 1.0 if A == 1 else -1.0
        return lambda env: sign * env[f"v{i}_{A}"]

    def shift_current(self, A: int) -> Callable:
        # f^A = sum_i dL/dv_iA for the shift q_i -> q_i + s
        return lambda env: sum(self.momentum(A, i)(env) for i in range(1, self.n + 1))


WAVE = WaveTheory(1, lambda env: 0.0)
CHAIN = WaveTheory(3, lambda env: math.cos(env["q1"] - env["q2"]) + math.cos(env["q2"] - env["q3"]))


# ---------------------------------------------------------------------------
# generated models (seeded), each with its expected verdicts

CHAIN_L = (
    "(v1_1^2 + v2_1^2 + v3_1^2 - v1_2^2 - v2_2^2 - v3_2^2)/2"
    " + cos(q1 - q2) + cos(q2 - q3)"
)
CHAIN_H = (
    "(p1_1^2 + p1_2^2 + p1_3^2 - p2_1^2 - p2_2^2 - p2_3^2)/2"
    " - cos(q1 - q2) - cos(q2 - q3)"
)
# L + d(q1 q2)/dt1 + 2: same field equations, gauge-equivalent
PARTNER_L = CHAIN_L + " + v1_1*q2 + v2_1*q1 + 2"
# the q2-q3 coupling doubled: the energies differ by a non-constant
NONEQUIVALENT_L = CHAIN_L.replace("+ cos(q2 - q3)", "+ 2*cos(q2 - q3)")
PENDULUM_L = "(v1_1^2 + v2_1^2 + v3_1^2)/2 + cos(q1 - q2) + cos(q2 - q3) - q1^2/2"

CHAIN_RUN_AXES = ((0.0, 0.5, 0.01), (0.0, TWO_PI, TWO_PI / 200))
PENDULUM_AXES = ((0.0, TWO_PI, TWO_PI / 200),)

LOCKSTEP = """  lockstep:
    kind: analytic
    components: ["sin(t1 - t2)", "sin(t1 - t2)", "sin(t1 - t2)"]
    t_box: [[0.0, 1.0], [0.0, 6.283185307179586]]
"""


def _axes_yaml(axes) -> str:
    return "[" + ", ".join(f"[{a!r}, {b!r}, {h!r}]" for a, b, h in axes) + "]"


def chain_parameters(seed: int):
    """Amplitude and phase of the lockstep travelling wave the chain `run` starts from."""
    rng = random.Random(f"chain-{seed}")
    return round(rng.uniform(0.5, 1.0), 6), round(rng.uniform(0.0, TWO_PI), 6)


def pendulum_parameters(seed: int):
    rng = random.Random(f"pendulum-{seed}")
    q0 = [round(rng.uniform(-0.5, 0.5), 6) for _ in range(3)]
    v0 = [round(rng.uniform(-0.3, 0.3), 6) for _ in range(3)]
    return q0, v0


def _chain_yaml(seed: int, lagrangian: str, with_extras: bool) -> str:
    text = f"""# Coupled wave chain, n = 3, k = 2, generated for benchmark seed {seed}.
n: 3
k: 2
lagrangian: "{lagrangian}"
seed: {seed}
samples: 100
"""
    if not with_extras:
        return text + "solutions:\n" + LOCKSTEP
    amp, phase = chain_parameters(seed)
    shifted = ", ".join(f'"q{i} + 1"' for i in (1, 2, 3))
    back = ", ".join(f'"q{i} - 1"' for i in (1, 2, 3))
    fibers = ", ".join(f'"v{i}_{A}"' for A in (1, 2) for i in (1, 2, 3))
    initial = ", ".join([f'"{amp!r}*sin(t2 + {phase!r})"'] * 3)
    rate = ", ".join([f'"-{amp!r}*cos(t2 + {phase!r})"'] * 3)
    return text + f"""hamiltonian: "{CHAIN_H}"
symmetries:
  shift:
    kind: vector-field-on-q
    components: ["1", "1", "1"]
  translate:
    kind: diffeomorphism
    side: lagrangian
    components: [{shifted}, {fibers}]
    inverse: [{back}, {fibers}]
solutions:
{LOCKSTEP}  run:
    kind: grid
    axes: {_axes_yaml(CHAIN_RUN_AXES)}
    initial: [{initial}]
    initial_rate: [{rate}]
"""


def _pendulum_yaml(seed: int) -> str:
    q0, v0 = pendulum_parameters(seed)
    return f"""# Pendulum chain, n = 3, k = 1, generated for benchmark seed {seed}.
n: 3
k: 1
lagrangian: "{PENDULUM_L}"
seed: {seed}
samples: 100
solutions:
  orbit:
    kind: grid
    axes: {_axes_yaml(PENDULUM_AXES)}
    q0: {q0!r}
    v0: {v0!r}
"""


# Each generated model with the verdicts the mathematics predicts for it.
GENERATED = {
    # shift and translate are symmetries (L depends on q only through
    # differences); lockstep phi_i = sin(t1 - t2) solves the chain because
    # every coupling force vanishes when q1 = q2 = q3; `run` starts on the
    # lockstep wave A*sin(t2 + c - t1).  Every command exits 0.
    "chain.yaml": lambda seed: _chain_yaml(seed, CHAIN_L, with_extras=True),
    # gauge chain.yaml partner.yaml: verdict "gauge", constant c = -2,
    # alpha^1 = (-q2, -q1, 0), alpha^2 = 0, exit 0.
    "partner.yaml": lambda seed: _chain_yaml(seed, PARTNER_L, with_extras=False),
    # gauge chain.yaml nonequivalent.yaml: verdict "inequivalent", reason
    # "energies_differ" (L1 - L2 = -cos(q2 - q3) is velocity-free and not
    # constant), exit 1.
    "nonequivalent.yaml": lambda seed: _chain_yaml(seed, NONEQUIVALENT_L, with_extras=False),
    # solve --solution orbit: RK4 converges at order 4 (ratio near 16), exit 0.
    "pendulum.yaml": _pendulum_yaml,
}


def write_models(directory: Path, seed: int) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, render in GENERATED.items():
        path = directory / name
        path.write_text(render(seed))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# report checks

def _reports(report: dict, key: str = "reports") -> list:
    return report.get(key) or []


def _all_reports_pass(report: dict, conditions, samples=None, key: str = "reports") -> list:
    problems = []
    found = sorted(str(r.get("condition")) for r in _reports(report, key))
    if found != sorted(conditions):
        problems.append(f"conditions {found}, expected {sorted(conditions)}")
    for r in _reports(report, key):
        if r.get("pass") is not True:
            problems.append(f"{r.get('condition')} failed: {r.get('max_residual')}")
        if samples is not None and r.get("sample_count") != samples:
            problems.append(f"{r.get('condition')} used {r.get('sample_count')} samples")
    return problems


def sampled_points(report: dict) -> int:
    """Points the command's checks sampled; grid_divergence counts grid nodes instead."""
    return sum(int(r.get("sample_count", 0)) for key in ("reports", "same_solutions")
               for r in _reports(report, key) if r.get("condition") != "grid_divergence")


def check_analyze(theory: WaveTheory, seed: int):
    points = _test_points(theory.n, 2)

    def check(report, files):
        lag, ham = report.get("lagrangian", {}), report.get("hamiltonian", {})
        problems = []
        if (report.get("n"), report.get("k"), report.get("seed")) != (theory.n, 2, seed):
            problems.append("wrong n, k or seed in the report")
        if lag.get("regular") is not True:
            problems.append("velocity Hessian reported singular")
        # Hessian diag(+1 x n, -1 x n): det = (-1)^n at every point
        for key in ("hessian_det_min", "hessian_det_max"):
            if abs(lag.get(key, 0.0) - (-1.0) ** theory.n) > 1e-9:
                problems.append(f"{key} = {lag.get(key)}")
        problems += _same_function(lag.get("energy", ""), theory.energy, points, "energy")
        theta = lag.get("theta", [])
        if len(theta) != 2 or any(len(row) != theory.n for row in theta):
            return problems + ["theta has the wrong shape"]
        for A in (1, 2):
            for i in range(1, theory.n + 1):
                problems += _same_function(
                    theta[A - 1][i - 1], theory.momentum(A, i), points, f"theta[{A}][{i}]"
                )
        for image in lag.get("legendre_images", []):
            for A in (1, 2):
                for i in range(1, theory.n + 1):
                    want = (1.0 if A == 1 else -1.0) * image["v"][i - 1][A - 1]
                    if abs(image["p"][A - 1][i - 1] - want) > EXPR_TOL:
                        problems.append(f"Legendre image p[{A}][{i}] off")
        if ham.get("kvector_pass") is not True:
            problems.append(f"k-vector residual {ham.get('kvector_residual')}")
        return problems

    return check


def check_symmetry(conditions, samples: int):
    def check(report, files):
        return _all_reports_pass(report, conditions, samples)

    return check


def check_noether(theory: WaveTheory, conditions, samples=None, trace: bool = False):
    points = _test_points(theory.n, 2)

    def check(report, files):
        if report.get("constructed") is not True:
            return ["current not constructed"]
        current = report.get("current", [])
        if len(current) != 2:
            return [f"current has {len(current)} components"]
        problems = []
        for A in (1, 2):
            problems += _same_function(
                current[A - 1], theory.shift_current(A), points, f"current[{A}]"
            )
        problems += _all_reports_pass(report, conditions, samples)
        if trace and not any(name.endswith(".csv") for name in files):
            problems.append("no current trace written")
        return problems

    return check


def check_gauge(verdict: str, reason=None, c=None, alpha=None, samples=None):
    points = _test_points(3, 2)

    def check(report, files):
        problems = []
        if report.get("verdict") != verdict:
            problems.append(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
        if reason is not None and report.get("witness", {}).get("reason") != reason:
            problems.append(f"witness {report.get('witness')}, expected reason {reason!r}")
        decomposition = report.get("decomposition", {})
        if c is not None and abs(decomposition.get("c", math.inf) - c) > EXPR_TOL:
            problems.append(f"constant {decomposition.get('c')}, expected {c}")
        if alpha is not None:
            rows = decomposition.get("alpha", [])
            if [len(row) for row in rows] != [len(row) for row in alpha]:
                return problems + ["alpha has the wrong shape"]
            for A, (got_row, want_row) in enumerate(zip(rows, alpha)):
                for i, (got, want) in enumerate(zip(got_row, want_row)):
                    problems += _same_function(got, want, points, f"alpha[{A + 1}][{i + 1}]")
        problems += _all_reports_pass(
            report, ["equal_field_equation_residuals"], samples, key="same_solutions"
        )
        return problems

    return check


def _grid_rows(files: dict):
    """Rows of the command's single CSV (a solve writes only its grid) as
    {column: float}, one at a time."""
    grids = [name for name in files if name.endswith(".csv")]
    if len(grids) != 1:
        raise ValueError(f"expected one grid CSV, found {sorted(files)}")
    reader = csv.reader(io.StringIO(files[grids[0]].decode()))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty grid CSV")
    for row in reader:
        yield dict(zip(header, map(float, row)))


def check_solve(nominal: float, expected: Callable, tol: float, n: int, rows: int):
    """``expected(index, row)`` gives the hand-derived phi at the CSV row;
    the CSV must hold ``rows`` rows, one per node of the coarse grid."""

    def check(report, files):
        problems = []
        ratio = report.get("convergence_ratio", math.nan)
        if report.get("converged") is not True:
            problems.append("not converged")
        if report.get("nominal_ratio") != nominal:
            problems.append(f"nominal ratio {report.get('nominal_ratio')}, expected {nominal}")
        if not nominal / RATIO_SLACK <= ratio <= nominal * RATIO_SLACK:
            problems.append(f"convergence ratio {ratio} outside the band around {nominal}")
        worst, count = 0.0, 0
        try:
            for count, row in enumerate(_grid_rows(files), start=1):
                want = expected(count - 1, row)
                worst = max(worst, *(abs(row[f"phi{i}"] - want[i - 1]) for i in range(1, n + 1)))
        except (ValueError, KeyError, IndexError) as exc:
            return problems + [f"unreadable grid CSV: {exc!r}"]
        if count != rows:
            problems.append(f"grid CSV has {count} rows, expected {rows}")
        if not worst <= tol:
            problems.append(f"grid deviates from the known solution by {worst:.3e} > {tol}")
        return problems

    return check


def oscillator_orbit(index, row):
    """q(t) = cos(t) for q0 = 1, v0 = 0 and L = v^2/2 - q^2/2."""
    return [math.cos(row["t1"])]


def travelling_wave(amp: float, phase: float, n: int) -> Callable:
    """phi_i = amp*sin(t2 + phase - t1): the wave equation's solution for the
    initial data amp*sin(t2 + phase), rate -amp*cos(t2 + phase)."""
    return lambda index, row: [amp * math.sin(row["t2"] + phase - row["t1"])] * n


def pendulum_reference(q0, v0, axes) -> Callable:
    """Independent RK4 of the pendulum chain on the same steps, with its
    hand-derived acceleration (unit mass matrix; force = dL/dq)."""

    def rhs(state):
        q = state[:3]
        s12, s23 = math.sin(q[0] - q[1]), math.sin(q[1] - q[2])
        return state[3:] + [-q[0] - s12, s12 - s23, s23]

    (start, stop, h), = axes
    state = list(q0) + list(v0)
    levels = [state[:3]]
    for _ in range(int(round((stop - start) / h))):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * h * d for s, d in zip(state, k1)])
        k3 = rhs([s + 0.5 * h * d for s, d in zip(state, k2)])
        k4 = rhs([s + h * d for s, d in zip(state, k3)])
        state = [s + h / 6.0 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        levels.append(state[:3])
    return lambda index, row: levels[index]


def grid_nodes(axes, runs: int) -> int:
    """Nodes of ``runs`` integrator runs on successively halved grids:
    levels (evolution axis, both ends) times periodic nodes (second axis)."""
    total = 0
    for r in range(runs):
        scale = 2 ** r
        levels = int(round((axes[0][1] - axes[0][0]) / axes[0][2])) * scale + 1
        nodes = int(round((axes[1][1] - axes[1][0]) / axes[1][2])) * scale if len(axes) > 1 else 1
        total += levels * nodes
    return total


def _fixed(count: int) -> Callable:
    return lambda report: count


# ---------------------------------------------------------------------------
# the three workloads

def _grid_axes(path: str, solution: str) -> tuple:
    """Axes of a grid solution as the model file declares them."""
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    return tuple(tuple(float(x) for x in axis) for axis in raw["solutions"][solution]["axes"])


def _checks_5000(root: Path, seed: int, generated: dict) -> Workload:
    wave = str(root / "models" / "wave.yaml")
    common = ("--samples", "5000", "--seed", str(seed))
    cartan_translate = [
        "pullback_two_forms", "scalar_invariance_up_to_constant",
        "transport_field_equations", "transport_prolongation_consistency",
    ]
    commands = (
        Command("analyze wave", ("analyze", wave) + common, 0,
                check_analyze(WAVE, seed), _fixed(2 * 5000)),   # L and H sides
        Command("check-symmetry wave translate",
                ("check-symmetry", wave, "--symmetry", "translate") + common, 0,
                check_symmetry(cartan_translate, 5000), sampled_points),
        Command("noether wave shift dalembert",
                ("noether", wave, "--symmetry", "shift", "--solution", "dalembert") + common, 0,
                check_noether(WAVE, ["kvector_bracket_sum", "analytic_divergence"], 5000),
                sampled_points),
        Command("gauge wave wave", ("gauge", wave, wave) + common, 0,
                check_gauge("strict", samples=5000), sampled_points),
    )
    return Workload("checks-5000", commands, (wave,))


def _grids_out(root: Path, seed: int, generated: dict) -> Workload:
    oscillator = str(root / "models" / "oscillator.yaml")
    wave = str(root / "models" / "wave.yaml")
    chain, pendulum = str(generated["chain.yaml"]), str(generated["pendulum.yaml"])
    orbit_axes, run_axes = _grid_axes(oscillator, "orbit"), _grid_axes(wave, "run")
    amp, phase = chain_parameters(seed)
    q0, v0 = pendulum_parameters(seed)
    commands = (
        Command("solve oscillator orbit", ("solve", oscillator, "--solution", "orbit"), 0,
                check_solve(16.0, oscillator_orbit, ORBIT_TOL, 1, grid_nodes(orbit_axes, 1)),
                _fixed(grid_nodes(orbit_axes, 3))),
        Command("solve wave run", ("solve", wave, "--solution", "run"), 0,
                check_solve(4.0, travelling_wave(1.0, 0.0, 1), WAVE_TOL, 1, grid_nodes(run_axes, 1)),
                _fixed(grid_nodes(run_axes, 3))),
        Command("noether wave shift run",
                ("noether", wave, "--symmetry", "shift", "--solution", "run"), 0,
                check_noether(WAVE, ["kvector_bracket_sum", "grid_divergence"], trace=True),
                _fixed(grid_nodes(run_axes, 2))),
        Command("solve pendulum orbit", ("solve", pendulum, "--solution", "orbit"), 0,
                check_solve(16.0, pendulum_reference(q0, v0, PENDULUM_AXES), CHAIN_ORBIT_TOL, 3,
                            grid_nodes(PENDULUM_AXES, 1)),
                _fixed(grid_nodes(PENDULUM_AXES, 3))),
        Command("solve chain run", ("solve", chain, "--solution", "run"), 0,
                check_solve(4.0, travelling_wave(amp, phase, 3), WAVE_TOL * amp, 3,
                            grid_nodes(CHAIN_RUN_AXES, 1)),
                _fixed(grid_nodes(CHAIN_RUN_AXES, 3))),
    )
    return Workload("grids-out", commands, (oscillator, wave, chain, pendulum))


WIDE_SEEDS = 3   # CLI seeds per pass, so a pass measures more than one small run


def _wide_default(root: Path, seed: int, generated: dict) -> Workload:
    chain = str(generated["chain.yaml"])
    partner, nonequivalent = str(generated["partner.yaml"]), str(generated["nonequivalent.yaml"])
    commands = []
    for cli_seed in range(seed, seed + WIDE_SEEDS):
        s = ("--seed", str(cli_seed))
        commands += [
            Command(f"analyze chain @{cli_seed}", ("analyze", chain) + s, 0,
                    check_analyze(CHAIN, cli_seed), _fixed(2 * 100)),
            Command(f"check-symmetry chain shift @{cli_seed}",
                    ("check-symmetry", chain, "--symmetry", "shift") + s, 0,
                    check_symmetry(["lie_derivative_two_forms", "energy_invariance",
                                    "lie_derivative_two_forms", "hamiltonian_invariance"], 100),
                    sampled_points),
            Command(f"check-symmetry chain translate @{cli_seed}",
                    ("check-symmetry", chain, "--symmetry", "translate") + s, 0,
                    check_symmetry(["pullback_two_forms", "scalar_invariance_up_to_constant",
                                    "transport_field_equations",
                                    "transport_prolongation_consistency"], 100),
                    sampled_points),
            Command(f"noether chain shift lockstep @{cli_seed}",
                    ("noether", chain, "--symmetry", "shift", "--solution", "lockstep") + s, 0,
                    check_noether(CHAIN, ["kvector_bracket_sum", "analytic_divergence"], 100),
                    sampled_points),
            Command(f"noether chain shift run @{cli_seed}",
                    ("noether", chain, "--symmetry", "shift", "--solution", "run") + s, 0,
                    check_noether(CHAIN, ["kvector_bracket_sum", "grid_divergence"], trace=True),
                    sampled_points),
            Command(f"gauge chain partner @{cli_seed}", ("gauge", chain, partner) + s, 0,
                    check_gauge("gauge", c=-2.0, samples=100, alpha=(
                        (lambda e: -e["q2"], lambda e: -e["q1"], lambda e: 0.0),
                        (lambda e: 0.0, lambda e: 0.0, lambda e: 0.0),
                    )),
                    sampled_points),
            Command(f"gauge chain nonequivalent @{cli_seed}",
                    ("gauge", chain, nonequivalent) + s, 1,
                    check_gauge("inequivalent", reason="energies_differ", samples=100),
                    sampled_points),
        ]
    return Workload("wide-default", tuple(commands), (chain, partner, nonequivalent))


_BUILDERS = {"checks-5000": _checks_5000, "grids-out": _grids_out, "wide-default": _wide_default}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, root: Path, model_dir: Path) -> Workload:
    """Write the seed's generated models under ``model_dir`` and return the workload."""
    return _BUILDERS[name](root, seed, write_models(model_dir, seed))


def report_json(files: dict) -> dict:
    """The command's single JSON report, found by globbing its output directory."""
    reports = [name for name in files if name.endswith(".json")]
    if len(reports) != 1:
        raise ValueError(f"expected one JSON report, found {sorted(files)}")
    return json.loads(files[reports[0]])
