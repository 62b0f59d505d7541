"""The record classes: frozen value objects compared by a fixed set of fields."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzaut.automorphisms import FuzzyAutomorphism
from fuzzaut.groups import ElementSubset, FiniteGroup, builtin_group, make_group
from fuzzaut.harness import DEFAULT_GROUPS, STATEMENT_IDS, Campaign, SuiteResult
from fuzzaut.homs import HomCheckReport, HomWitness, Theorem22Report
from fuzzaut.induced import InducedInner, InnGroup, ThetaCheck, ZetaCheck
from fuzzaut.maps import FuzzyMap, FuzzyRelation
from fuzzaut.subsets import FuzzySubset, SubgroupViolation

SRC = Path(__file__).resolve().parents[1] / "src"

# class -> (constructor fields in order, the fields equality and hashing cover)
RECORDS = {
    FiniteGroup: (("name", "order", "table", "identity", "inverses"),) * 2,
    ElementSubset: (("group", "mask"),) * 2,
    FuzzySubset: (("group", "grades"),) * 2,
    SubgroupViolation: (("kind", "x", "y", "lhs", "rhs"),) * 2,
    FuzzyRelation: (("domain", "codomain", "grades"),) * 2,
    FuzzyMap: (("domain", "codomain", "grades", "images"),) * 2,
    HomWitness: (("x1", "x2", "y", "lhs", "rhs"),) * 2,
    HomCheckReport: (("verdict", "witness"),) * 2,
    Theorem22Report: (("kernel", "kernel_is_normal", "one_one", "kernel_trivial"),) * 2,
    FuzzyAutomorphism: (("fmap",),) * 2,
    InducedInner: (("label", "mu", "fmap"),) * 2,
    InnGroup: (("group", "mu", "classes", "class_of", "table"),) * 2,
    ZetaCheck: ((
        "inn", "images", "multiplicative", "surjective", "kernel",
        "kernel_is_center", "quotient", "coset_map", "induced_iso", "isomorphism",
    ),) * 2,
    ThetaCheck: ((
        "fmap", "label_group", "hom_report", "images_are_inverses",
        "kernel", "kernel_trivial", "one_one", "onto",
    ),) * 2,
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

    def test_unequal_to_other_classes_and_tuples(self, cls):
        a = build(cls)
        fields = tuple(getattr(a, name) for name in RECORDS[cls][1])
        assert a != fields and a.__eq__(fields) is NotImplemented
        for other in RECORDS:
            if other is not cls:
                assert a.__eq__(build(other)) is NotImplemented


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
        assert repr(ElementSubset(s3, 0b101)) == "ElementSubset(S3, {0, 2})"
        assert repr(HomWitness(1, 2, 3, F(1), F(1, 2))) == (
            "HomWitness(x1=1, x2=2, y=3, lhs=Fraction(1, 1), rhs=Fraction(1, 2))"
        )

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
