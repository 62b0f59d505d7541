"""The record classes: frozen value objects compared by a fixed set of fields."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzaut.errors import Record
from fuzzaut.groups import FiniteGroup, builtin_group, make_group
from fuzzaut.harness import DEFAULT_GROUPS, STATEMENT_IDS, Campaign, SuiteResult
from fuzzaut.homs import HomCheckReport, HomWitness
from fuzzaut.induced import InnGroup
from fuzzaut.maps import FuzzyMap, FuzzyRelation
from fuzzaut.subsets import FuzzySubset

SRC = Path(__file__).resolve().parents[1] / "src"

# class -> (constructor fields in order, the fields equality and hashing cover)
RECORDS = {
    FiniteGroup: (("name", "order", "table", "identity", "inverses"),) * 2,
    FuzzySubset: (("group", "grades"),) * 2,
    FuzzyRelation: (("domain", "codomain", "grades"),) * 2,
    FuzzyMap: (("domain", "codomain", "grades", "images"),) * 2,
    HomWitness: (("x1", "x2", "y", "lhs", "rhs"),) * 2,
    HomCheckReport: (("verdict", "witness"),) * 2,
    InnGroup: (("group", "mu", "classes", "class_of", "table"),) * 2,
    Campaign: (("groups", "mu_sources", "suites", "seed"),) * 2,
    SuiteResult: (
        ("statement", "instance", "verdict", "witness", "ms", "expected_failure"),
        ("statement", "instance", "verdict", "witness", "expected_failure"),
    ),
}


def value(field, tag):
    """A fresh object per call, equal across calls with the same tag.

    Records do not validate their fields, so stand-ins do, except for the
    grades a constructor ranks."""
    if field == "grades":
        return tuple((F(1), F(tag)) for _ in range(2))
    return (field, tag)


def build(cls, tag=1, **changed):
    names, _ = RECORDS[cls]
    return cls(**{name: changed.get(name, value(name, tag)) for name in names})


def ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", RECORDS, ids=ids(RECORDS))
class TestRecordContract:
    def test_equal_fields_give_equal_records(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)

    def test_every_compared_field_counts(self, cls):
        a = build(cls)
        for name in RECORDS[cls][1]:
            other = build(cls, **{name: value(name, 2)})
            assert a != other, name
            assert hash(a) != hash(other), name

    def test_other_fields_do_not_count(self, cls):
        names, compared = RECORDS[cls]
        a = build(cls)
        for name in set(names) - set(compared):
            other = build(cls, **{name: value(name, 2)})
            assert a == other and hash(a) == hash(other), name

    def test_fields_are_frozen(self, cls):
        a = build(cls)
        for name in RECORDS[cls][0] + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(a, name, value(name, 2))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert build(cls) == a

    def test_positional_and_keyword_construction_agree(self, cls):
        names, _ = RECORDS[cls]
        args = [value(name, 1) for name in names]
        assert cls(*args) == build(cls)
        assert all(getattr(cls(*args), name) == arg for name, arg in zip(names, args))

    def test_equal_records_hash_equal_before_and_after_the_first_hash(self, cls):
        a, b, c = build(cls), build(cls), build(cls)
        first = hash(a)
        assert "_hash" in vars(a) and "_hash" not in vars(b)
        assert hash(b) == first  # b hashed for the first time, a from its dict
        assert hash(a) == hash(b) == first
        assert a == b == c and hash(c) == first

    def test_unequal_to_other_classes_and_tuples(self, cls):
        a = build(cls)
        fields = tuple(getattr(a, name) for name in RECORDS[cls][1])
        assert a != fields and a.__eq__(fields) is NotImplemented
        for other in RECORDS:
            if other is not cls:
                assert a.__eq__(build(other)) is NotImplemented


def library_records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("fuzzaut."):
            yield sub
        yield from library_records(sub)


OWN_CONSTRUCTORS = {FuzzyMap, FuzzySubset}  # they rank their grades
SHARED = [cls for cls in RECORDS if cls not in OWN_CONSTRUCTORS]


class TestDeclaredFields:
    def test_records_lists_every_record_class(self):
        assert set(library_records()) == set(RECORDS)

    @pytest.mark.parametrize("cls", RECORDS, ids=ids(RECORDS))
    def test_declared_order_is_the_constructor_order(self, cls):
        assert cls._fields == RECORDS[cls][0]

    @pytest.mark.parametrize("cls", RECORDS, ids=ids(RECORDS))
    def test_only_the_ranking_records_define_a_constructor(self, cls):
        assert ("__init__" in vars(cls)) == (cls in OWN_CONSTRUCTORS)
        if cls not in OWN_CONSTRUCTORS:
            assert cls.__init__ is Record.__init__

    @pytest.mark.parametrize("cls", SHARED, ids=ids(SHARED))
    def test_bad_calls_raise_type_error_naming_the_class(self, cls):
        names, _ = RECORDS[cls]
        args = [value(name, 1) for name in names]
        required = len(names) - len(cls._defaults)
        calls = [
            (args, {"unknown": 1}),  # an unknown keyword
            (args + [1], {}),  # too many positional arguments
            (args, {names[0]: args[0]}),  # a field given twice
        ]
        if required:
            calls.append((args[:required - 1], {}))  # a field missing
        for call_args, kwargs in calls:
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*call_args, **kwargs)

    def test_keyword_calls_fill_in_defaults(self):
        row = SuiteResult(statement="Lemma 3.1", instance="S3|mu=chain", verdict=True,
                          witness=None, expected_failure=True)
        assert row == SuiteResult("Lemma 3.1", "S3|mu=chain", True, None, 0, True)
        assert row.ms == 0
        assert Campaign(seed=3) == Campaign(DEFAULT_GROUPS, ("chain", "class"), STATEMENT_IDS, 3)

    def test_a_required_field_after_a_default_is_refused(self):
        with pytest.raises(TypeError, match="'b' follows a field with a default"):
            class Broken(Record):
                a: int = 0
                b: int

    def test_a_subclass_adds_its_fields_after_its_base(self):
        class Base(Record):
            a: int
            b: int = 2

        class Derived(Base):
            c: int = 3

        assert Derived._fields == ("a", "b", "c")
        assert Derived(1).__dict__ == {"a": 1, "b": 2, "c": 3}
        assert Derived(1, c=4) == Derived(1, 2, 4) != Base(1, 2)


class TestSpecificRecords:
    def test_map_never_equals_a_relation(self):
        rel = build(FuzzyRelation)
        fmap = FuzzyMap(rel.domain, rel.codomain, rel.grades, (0, 1))
        assert rel != fmap and fmap != rel

    def test_report_is_not_its_tuple(self):
        assert HomCheckReport(True, None) != (True, None)
        assert tuple(HomCheckReport(True, None)) == (True, None)

    def test_defaults(self):
        assert Campaign() == Campaign(DEFAULT_GROUPS, ("chain", "class"), STATEMENT_IDS, 0)
        assert HomCheckReport(True).witness is None
        row = SuiteResult("Lemma 3.1", "S3|mu=chain", True, None)
        assert row.ms == 0 and row.expected_failure is False

    def test_reprs(self):
        s3 = builtin_group("S3")
        assert repr(s3) == "FiniteGroup('S3', order=6)"
        assert repr(HomWitness(1, 2, 3, F(1), F(1, 2))) == (
            "HomWitness(x1=1, x2=2, y=3, lhs=Fraction(1, 1), rhs=Fraction(1, 2))"
        )

    def test_the_hash_is_kept_in_the_instance_dict_beside_the_fields(self):
        class Pair(Record):
            a: int
            b: int = 2

        pair = Pair(1)
        assert pair.__dict__ == {"a": 1, "b": 2}
        h = hash(pair)
        assert pair.__dict__ == {"a": 1, "b": 2, "_hash": h}
        pair.__dict__["_hash"] = h + 1  # read back, not recomputed
        assert hash(pair) == h + 1
        assert pair == Pair(1, 2) and repr(pair) == "Pair(a=1, b=2)"
        with pytest.raises(AttributeError):
            pair._hash = 0

    def test_group_equality_sees_the_table(self):
        # Z5 relabeled by the swap 1<->2, 3<->4 keeps its name, order,
        # identity and inverses; only the table differs
        z5 = builtin_group("Z5")
        swap = (0, 2, 1, 4, 3)
        table = [[swap[z5.table[swap[a]][swap[b]]] for b in range(5)] for a in range(5)]
        twin = make_group(table, name="Z5")
        assert (twin.name, twin.order, twin.identity, twin.inverses) == (
            z5.name, z5.order, z5.identity, z5.inverses
        )
        assert twin.table != z5.table
        assert twin != z5 and hash(twin) != hash(z5)


def test_cli_import_loads_no_dataclasses():
    code = "import sys, fuzzaut.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
