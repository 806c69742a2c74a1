"""The contract of the records on ``core._Frozen``, whose constructor fills
every record's fields.

The table covers the audit's ``AuditConfig``, ``LawResult``, ``AuditReport``
and ``_Law``, the formulas' ``CoeffBreakdown``, ``SlaveDecomposition`` and
``Space3Breakdown``, ``Tolerance``, ``RootSet``, ``RotationChain`` and the five
syntax-tree nodes.  Each record is built by position, by keyword or from its
defaults; it is equal and hashes alike by its fields and class, pickles, and
raises ``FrozenInstanceError`` on assignment and deletion.  Its ``repr`` is
the one a frozen dataclass of the same fields prints.
"""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from hyperspace.algebra import RootSet
from hyperspace.audit import AuditConfig, AuditReport, Domain, LawResult, _Law, _law_add_commutative
from hyperspace.coeff_formulas import CoeffBreakdown
from hyperspace.core import DEFAULT_TOLERANCE, CartesianHC, Orientation, Tolerance
from hyperspace.expr import Binary, Call, Literal, Power, Unary
from hyperspace.rotation import RotationChain
from hyperspace.space3 import SlaveDecomposition, Space3Breakdown

RESULT = LawResult("distributive", 3, 50, 41, 0.25, None, 2)
ONE, TWO = Literal("c", (1.0, 2.0), 4), Literal("s3", (1.0, 2.0, 3.0), 9)

# class: (its fields in constructor order, the values of one record, the
# defaults of the trailing fields a caller may omit, another first field)
CASES = {
    "AuditConfig": (
        AuditConfig, ("dims", "samples", "seed", "tolerance", "domain"),
        ((3, 5), 7, 9, Tolerance(1e-10, 1e-8), Domain.POSITIVE_RESTRICTED),
        ((2, 3, 4), 1000, 42, DEFAULT_TOLERANCE, Domain.UNRESTRICTED), (3, 6),
    ),
    "LawResult": (
        LawResult, ("law", "dim", "samples", "passes", "max_dev", "counterexample", "resamples"),
        ("distributive", 3, 50, 41, 0.25, None, 2), (), "demoivre",
    ),
    "AuditReport": (
        AuditReport, ("config", "laws", "results", "version", "generated_at"),
        (AuditConfig(), ("distributive",), (RESULT,), "0.1.0", "2026-01-01T00:00:00+00:00"), (),
        AuditConfig(seed=7),
    ),
    "_Law": (
        _Law, ("claims", "operands", "normative", "dim", "chart", "ints"),
        (_law_add_commutative, 2, True, 3, Orientation.S3, ((1, 5),)),
        (None, Orientation.ANTICLOCKWISE, ()), len,
    ),
    "CoeffBreakdown": (
        CoeffBreakdown, ("a0", "coeffs", "thetas", "sub_components"),
        (1.0, (2.0, -3.0), (0.5, 0.25), ((1.5, (0.5,)), (-2.0, (0.5, 0.25)))), (), -1.0,
    ),
    "SlaveDecomposition": (SlaveDecomposition, ("c_r", "c_i"), (0.6, 0.8), (), -0.6),
    "Space3Breakdown": (
        Space3Breakdown, ("a", "b", "c", "theta", "c_r", "c_i"), (1.0, 2.0, 3.0, 0.5, 0.6, 0.7), (), 4.0,
    ),
    "Tolerance": (Tolerance, ("abs_eps", "rel_eps"), (1e-10, 1e-8), (1e-12, 1e-9), 1e-11),
    "RootSet": (
        RootSet, ("roots",), ((CartesianHC((1.0, 0.0)), CartesianHC((-1.0, 0.0))),), (),
        (CartesianHC((0.0, 1.0)),),
    ),
    "RotationChain": (RotationChain, ("radius", "steps", "dim"), (2.0, ((1, 0.5), (2, -0.25)), 3), (), 1.0),
    "Literal": (Literal, ("head", "numbers", "offset"), ("c", (1.0, 2.0), 4), (0,), "p"),
    "Unary": (Unary, ("op", "child", "offset"), ("neg", ONE, 3), (0,), "pos"),
    "Binary": (Binary, ("op", "left", "right", "offset"), ("*", ONE, TWO, 7), (0,), "+"),
    "Power": (Power, ("child", "n", "offset"), (ONE, 3, 6), (0,), TWO),
    "Call": (Call, ("fn", "child", "arg", "offset"), ("roots", ONE, 3, 2), (0,), "arg"),
}

cases = pytest.mark.parametrize("case", list(CASES))


def build(case):
    cls, _, values, _, _ = CASES[case]
    return cls(*values)


@cases
def test_construction_by_position_and_by_keyword_fills_the_fields_in_order(case):
    cls, fields, values, _, _ = CASES[case]
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert mixed == by_position


@cases
def test_omitted_fields_take_the_old_defaults(case):
    cls, fields, values, defaults, _ = CASES[case]
    required = len(fields) - len(defaults)
    record = cls(*values[:required])
    assert [getattr(record, f) for f in fields] == [*values[:required], *defaults]
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


@cases
def test_a_bad_argument_list_is_a_type_error(case):
    cls, fields, values, _, _ = CASES[case]
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one too many
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(*values, bogus=1)


@cases
def test_equality_and_hashing_read_every_field_and_the_class(case):
    cls, fields, values, _, other = CASES[case]
    a, b = build(case), build(case)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    changed = cls(other, *values[1:])
    assert a != changed and hash(a) != hash(changed)
    subclass = type("Subclass", (cls,), {"__slots__": ()})
    assert a != tuple(values) and a != subclass(*values)


def test_nodes_that_differ_only_in_offset_are_equal_and_hash_alike():
    here = Binary("*", ONE, Unary("neg", TWO, 12), 7)
    there = Binary("*", Literal("c", (1.0, 2.0)), Unary("neg", Literal("s3", (1.0, 2.0, 3.0), 1), 2), 30)
    assert here == there and hash(here) == hash(there)
    assert here.offset == 7 and there.offset == 30


def test_the_repr_is_the_dataclass_one():
    assert repr(AuditConfig()) == (
        "AuditConfig(dims=(2, 3, 4), samples=1000, seed=42, "
        "tolerance=Tolerance(abs_eps=1e-12, rel_eps=1e-09), domain=<Domain.UNRESTRICTED: 'unrestricted'>)"
    )
    assert repr(LawResult("distributive", 3, 50, 41, 0.25, {"sample_index": 7}, 2)) == (
        "LawResult(law='distributive', dim=3, samples=50, passes=41, max_dev=0.25, "
        "counterexample={'sample_index': 7}, resamples=2)"
    )
    assert repr(RotationChain(2, [(1, 0.5)], 3)) == "RotationChain(radius=2.0, steps=((1, 0.5),), dim=3)"


@cases
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickle_round_trip_gives_an_equal_record(case, protocol):
    record = build(case)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and back == record


@cases
def test_assigning_or_deleting_a_field_raises_frozen_instance_error(case):
    _, fields, values, _, other = CASES[case]
    record = build(case)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{fields[0]}'"):
        setattr(record, fields[0], other)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{fields[0]}'"):
        delattr(record, fields[0])
    with pytest.raises(FrozenInstanceError):  # a name that is no field too
        record.not_a_field = 1
    assert getattr(record, fields[0]) == values[0]
