"""Record construction: every field by position is set in one step, and
builds the same record as the general path."""

import pytest

from ksfield.expr import parse
from ksfield.forms import VectorField
from ksfield.records import Record, Report


def by_keyword(cls, values):
    return cls(**dict(zip(cls._fields, values)))


class Checked(Record):
    a: int
    b: dict = {}
    c: tuple = ()

    def __post_init__(self):
        self.seen = (self.a, self.b, self.c)  # not a field: out of equality


class TestPositionalFastPath:
    def test_report_matches_the_keyword_build(self):
        values = ("c", 0.25, 5000, True, {"ratio": 4.0}, 3)
        fast = Report(*values)
        assert fast == by_keyword(Report, values)
        assert vars(fast) == vars(by_keyword(Report, values))
        assert fast.details is values[4]  # a given dict is kept, not copied

    def test_post_init_runs_and_defaults_copy_only_when_defaulted(self):
        given = {"x": 1}
        fast = Checked(1, given, (2,))
        assert fast.seen == (1, given, (2,)) and fast.b is given
        defaulted, again = Checked(1), Checked(1)
        assert defaulted.b == {} and defaulted.b is not again.b and defaulted.b is not Checked.b
        assert vars(fast) == vars(by_keyword(Checked, (1, given, (2,))))

    def test_frozen_record_still_refuses_assignment(self):
        chart = ("x", "y")
        components = (parse("y", chart), parse("x", chart))
        fast = VectorField(chart, components)
        assert fast == by_keyword(VectorField, (chart, components))
        assert hash(fast) == hash(by_keyword(VectorField, (chart, components)))
        with pytest.raises(AttributeError, match="frozen"):
            fast.chart = ("z",)
        with pytest.raises(AttributeError, match="frozen"):
            del fast.components

    @pytest.mark.parametrize("args, kwargs", [
        (("c", 0.0), {}),
        (("c", 0.0, 1, True, {}, 0, "extra"), {}),
        (("c", 0.0, 1, True, {}, 0), {"worst_row": 1}),
        (("c",), {"nonsense": 1}),
    ], ids=["missing", "extra", "twice", "unknown"])
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^Report: unexpected \[.*\], missing \[.*\]$"):
            Report(*args, **kwargs)
