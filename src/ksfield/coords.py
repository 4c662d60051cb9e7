"""Coordinate tables for the velocity and momentum bundles over Q = R^n.

Naming convention (1-based labels, fixed so model files are unambiguous):
base q<i>, velocities v<i>_<A>, momenta p<A>_<i>, parameters t<A>.

Chart orderings used everywhere for flat component vectors and matrices:

* velocity side:  (q1..qn, v1_1..vn_1, v1_2..vn_2, ..., v1_k..vn_k)
* momentum side:  (q1..qn, p1_1..p1_n, p2_1..p2_n, ..., pk_1..pk_n)

i.e. the fiber slots come in k blocks of n, block A holding the A-th copy.
Python-level indices i and A are 0-based.
"""

from __future__ import annotations

from .records import Record


class CoordinateError(ValueError):
    pass


class VarTable(Record, frozen=True):
    """Declared coordinates for fixed field dimension n and base dimension k;
    the name tuples ``q_names``, ``v_names``, ``p_names``, ``t_names`` follow
    from them."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise CoordinateError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        qs = tuple(f"q{i + 1}" for i in range(self.n))
        vs = tuple(f"v{i + 1}_{A + 1}" for A in range(self.k) for i in range(self.n))
        ps = tuple(f"p{A + 1}_{i + 1}" for A in range(self.k) for i in range(self.n))
        ts = tuple(f"t{A + 1}" for A in range(self.k))
        names = qs + vs + ps + ts
        if len(set(names)) != len(names):  # pragma: no cover - convention is clash-free
            raise CoordinateError("coordinate names are not unique")
        vars(self).update(q_names=qs, v_names=vs, p_names=ps, t_names=ts)

    # -- single-name helpers (0-based i, A) --------------------------------
    def q(self, i: int) -> str:
        return self.q_names[i]

    def v(self, i: int, A: int) -> str:
        self._check(i, A)
        return self.v_names[A * self.n + i]

    def p(self, A: int, i: int) -> str:
        self._check(i, A)
        return self.p_names[A * self.n + i]

    def t(self, A: int) -> str:
        return self.t_names[A]

    def _check(self, i: int, A: int):
        if not (0 <= i < self.n):
            raise CoordinateError(f"field index {i} out of range 0..{self.n - 1}")
        if not (0 <= A < self.k):
            raise CoordinateError(f"copy index {A} out of range 0..{self.k - 1}")

    # -- charts -------------------------------------------------------------
    @property
    def velocity_chart(self) -> tuple:
        """Coordinates of the k-velocity bundle, (q, v)."""
        return self.q_names + self.v_names

    @property
    def momentum_chart(self) -> tuple:
        """Coordinates of the k-covelocity bundle, (q, p)."""
        return self.q_names + self.p_names

    def fiber_slot(self, i: int, A: int) -> int:
        """Flat chart position of v<i>_<A> / p<A>_<i> (both sit at the same slot)."""
        self._check(i, A)
        return self.n + A * self.n + i

    def chart(self, side: str) -> tuple:
        if side == "lagrangian":
            return self.velocity_chart
        if side == "hamiltonian":
            return self.momentum_chart
        raise CoordinateError(f"unknown side {side!r}")

    @property
    def dim_total(self) -> int:
        return self.n + self.n * self.k
