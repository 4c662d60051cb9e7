"""A fixed CPU-bound loop that measures how fast the machine runs right now.

On a shared host the same pass of Python code takes from 1x to 2x its
uncontended time, in phases lasting tens of seconds, and CPU time inflates
just as wall time does.  The harness times this loop between commands and
scales each command's time by ``NOMINAL_S / loop time``, so that a phase of
contention slows both and cancels.  The loop mixes what ksfield does:
object allocation and recursion over small expression trees, dict lookups,
math calls and small numpy solves.  It must never change: every
speed-corrected figure is relative to it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.010   # the loop's time on an uncontended core of the reference machine

_M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b

    def value(self, env):
        if self.op == "v":
            return env[self.a]
        if self.op == "c":
            return self.a
        x, y = self.a.value(env), self.b.value(env)
        if self.op == "+":
            return x + y
        if self.op == "*":
            return x * y
        return math.sin(x) + y

    def derivative(self, name):
        if self.op == "v":
            return _Node("c", 1.0 if self.a == name else 0.0, None)
        if self.op == "c":
            return _Node("c", 0.0, None)
        da, db = self.a.derivative(name), self.b.derivative(name)
        if self.op == "+":
            return _Node("+", da, db)
        if self.op == "*":
            return _Node("+", _Node("*", da, self.b), _Node("*", self.a, db))
        return _Node("+", _Node("*", da, _Node("c", math.cos(0.5), None)), db)


def _tree(depth):
    if depth == 0:
        return _Node("v", "x", None)
    leaf = _Node("c", 0.5, None) if depth % 2 else _Node("v", "y", None)
    return _Node("+*s"[depth % 3], _tree(depth - 1), leaf)


def loop_seconds() -> float:
    """Wall time of one run of the fixed loop."""
    start = time.perf_counter()
    total = 0.0
    for i in range(170):
        tree = _tree(8).derivative("x")
        env = {"x": i * 1e-2, "y": 0.7}
        for j in range(10):
            env["y"] = j * 0.1
            total += tree.value(env)
        total += float(np.linalg.solve(_M, np.array([1.0, i, 2.0]))[0])
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):   # keeps the result live
        raise ArithmeticError("reference loop diverged")
    return elapsed
