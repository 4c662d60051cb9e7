"""Shared fixture models used across the suite."""

import numpy as np
import pytest

from ksfield.bundles import Section, fold_constant
from ksfield.coords import VarTable
from ksfield.expr import evaluate_batch, parse
from ksfield.forms import judge
from ksfield.hamiltonian import HamiltonianModel
from ksfield.lagrangian import LagrangianModel


def lagrangian_model(n, k, source):
    table = VarTable(n, k)
    return LagrangianModel(table, parse(source, table.velocity_chart))


def hamiltonian_model(n, k, source):
    table = VarTable(n, k)
    return HamiltonianModel(table, parse(source, table.momentum_chart))


def jet(q, v):
    """The velocity-chart row of q (n,) and v (n, k), v[i, A] = v^i_A, as a (1, dim) matrix."""
    return np.concatenate([np.asarray(q, float), np.asarray(v, float).T.ravel()])[None]


def cojet(q, p):
    """The momentum-chart row of q (n,) and p (k, n), p[A, i] = p^A_i, as a (1, dim) matrix."""
    return np.concatenate([np.asarray(q, float), np.asarray(p, float).ravel()])[None]


def prolong(table, phi, t):
    """The first prolongation of the map phi at the parameter point t, as a (1, dim) matrix."""
    section = Section.prolongation(table, phi)
    return evaluate_batch(section.components, table.t_names, np.array([t], float))


def checked_folds(monkeypatch, module) -> list:
    """Run every fold_constant call made in ``module`` twice: as it runs, and
    with its kernel over the full stacks and every fold inside it undone.
    Assert both give the same shapes and bytes, and that judge gives the same
    report on each.  Returns one flag per call over two rows or more, in the
    order the calls return: whether its kernel ran once."""
    folded = []

    def checked(kernel, entries, *stacks):
        out = fold_constant(kernel, entries, *stacks)
        monkeypatch.setattr(module, "fold_constant", lambda kernel, _, *stacks: kernel(*stacks))
        full = kernel(*stacks)
        monkeypatch.setattr(module, "fold_constant", checked)
        pairs = zip(out, full) if isinstance(out, tuple) else [(out, full)]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert repr(judge("fold", 0.0, got)) == repr(judge("fold", 0.0, want))  # a NaN too
        first = out[0] if isinstance(out, tuple) else out
        if len(stacks[0]) > 1:
            folded.append(first.strides[0] == 0 and not first.flags.writeable)
        return out

    monkeypatch.setattr(module, "fold_constant", checked)
    return folded


def recording(monkeypatch, module, name, calls=None) -> list:
    """Patch ``module.name`` to append each call's positional arguments to
    ``calls`` (a new list by default) before running it; returns the list."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.fixture
def free_model():
    """n=1, k=2 free field: L = (v1^2 + v2^2)/2."""
    return lagrangian_model(1, 2, "(v1_1^2 + v1_2^2)/2")


@pytest.fixture
def wave_model():
    """n=1, k=2 wave: L = (v1^2 - v2^2)/2, EL equation phi_tt = phi_xx."""
    return lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2")


@pytest.fixture
def kg_model():
    """Klein-Gordon with unit mass: wave Lagrangian minus q^2/2."""
    return lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 - q1^2/2")


@pytest.fixture
def rotational_model():
    """n=2, k=2 rotationally symmetric quadratic Lagrangian."""
    return lagrangian_model(2, 2, "(v1_1^2 + v2_1^2 + v1_2^2 + v2_2^2)/2")


@pytest.fixture
def gauge_shifted_model():
    """Wave Lagrangian plus a closed-one-form term and a constant."""
    return lagrangian_model(1, 2, "(v1_1^2 - v1_2^2)/2 + 3*v1_1 + 2")


@pytest.fixture
def oscillator_model():
    """k=1 harmonic oscillator, L = v^2/2 - q^2/2."""
    return lagrangian_model(1, 1, "v1_1^2/2 - q1^2/2")


@pytest.fixture
def free_hamiltonian():
    """n=1, k=2 free Hamiltonian H = (p1^2 + p2^2)/2."""
    return hamiltonian_model(1, 2, "(p1_1^2 + p2_1^2)/2")


@pytest.fixture
def wave_hamiltonian():
    """Legendre image of the wave Lagrangian: H = (p1^2 - p2^2)/2."""
    return hamiltonian_model(1, 2, "(p1_1^2 - p2_1^2)/2")


def rotation_field(table):
    """Z = q2 d/dq1 - q1 d/dq2 on n = 2."""
    from ksfield.bundles import VectorFieldQ
    from ksfield.expr import Neg, Var

    return VectorFieldQ(table, (Var("q2"), Neg(Var("q1"))))


def rng_points(rng, count, dim, scale=1.0):
    return [scale * rng.uniform(-1, 1, size=dim) for _ in range(count)]
