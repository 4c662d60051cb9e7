"""Records and errors shared by every layer.

A :class:`Record` subclass declares its fields as annotations, after its
bases' fields, with a class attribute as the default (a dict default is
copied per record).  No code is generated per class: one ``__init__`` sets
the fields by position or keyword (all in one step when each comes by
position and no data descriptor backs one), then calls ``__post_init__``;
equality and repr go over the fields.  ``frozen=True`` forbids assignment
and hashes the fields; other records are unhashable.  Attributes that are
not annotated stay out of equality, hash and repr.
"""

from __future__ import annotations

from typing import Optional, Sequence


class InputError(ValueError):
    """Bad input: a malformed file, expression, option or value (exit code 2)."""


class CheckFailure(ValueError):
    """A mathematical check failed or cannot be carried out (exit code 1)."""


class SolverError(CheckFailure):
    pass


class SymmetryError(CheckFailure):
    pass


class Record:
    _fields: tuple = ()
    _direct: bool = True  # no field is set through a data descriptor (as SolutionGrid.jets is)

    def __init_subclass__(cls, frozen: bool = False):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._direct = not any(hasattr(type(vars(owner).get(name)), "__set__")
                              for owner in cls.__mro__ for name in cls._fields)
        cls.__hash__ = Record._hash if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if not kwargs and len(args) == len(fields) and cls._direct:  # every field, in order
            self.__dict__.update(zip(fields, args))
            self.__post_init__()
            return
        values = dict(zip(fields, args), **kwargs)
        extra = [name for name in kwargs if name not in fields[len(args):]] + list(args[len(fields):])
        missing = [name for name in fields if name not in values and not hasattr(cls, name)]
        if extra or missing:
            raise TypeError(f"{cls.__name__}: unexpected {extra}, missing {missing}")
        for name in fields:
            if name not in values:
                default = getattr(cls, name)
                values[name] = dict(default) if type(default) is dict else default
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self):
        return hash(self._values())

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Report(Record):
    condition: str
    max_residual: float
    sample_count: int
    passed: bool
    details: dict = {}
    trace: Optional[object] = None  # grid conservation only (a solver.CurrentTrace); not reported
    worst_row: Optional[int] = None  # the lowest sample row attaining max_residual; not reported

    def as_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "max_residual": float(self.max_residual),
            "sample_count": int(self.sample_count),
            "pass": bool(self.passed),
        }
        if self.details:  # numpy floats are floats
            out["details"] = {
                key: float(v) if isinstance(v, float) else v for key, v in self.details.items()
            }
        return out


def all_pass(reports: Sequence[Report]) -> bool:
    return all(r.passed for r in reports)
