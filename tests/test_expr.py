import math
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hyperspace.algebra import RootSet
from hyperspace.core import CartesianHC, Orientation, PolarHC
from hyperspace.expr import (
    Binary,
    Call,
    ExprTypeError,
    Literal,
    ParseError,
    Power,
    Unary,
    evaluate,
    format_value,
    parse,
    unparse,
    value_to_dict,
)
from hyperspace.space3 import Space3

from util import COPIES, close, expr_trees, vec_close, wide_floats

ACW = Orientation.ANTICLOCKWISE
CW = Orientation.CLOCKWISE


def ev(text, orientation=ACW):
    return evaluate(parse(text), orientation)


class TestParsing:
    def test_mul_of_literals(self):
        tree = parse("c[1,1] * c[1,1]")
        assert isinstance(tree, Binary) and tree.op == "*"
        assert tree.left == Literal("c", (1.0, 1.0))

    def test_roots_call(self):
        tree = parse("roots(c[-1,0], 2)")
        assert isinstance(tree, Call) and tree.fn == "roots" and tree.arg == 2

    def test_mixed_families_rejected(self):
        with pytest.raises(ExprTypeError) as err:
            parse("c[1,2] + s3[1,2,3]")
        assert "mix" in str(err.value)

    @pytest.mark.parametrize("text, error", [
        ("-abs(c[3,4])", "cannot negate a scalar value"),
        ("-roots(c[1,0], 2)", "cannot negate a roots value"),
        ("abs(c[3,4])^2", "cannot raise a scalar value to a power"),
    ])
    def test_a_sign_or_power_of_a_non_number_rejected(self, text, error):
        with pytest.raises(ExprTypeError, match=error):
            parse(text)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ExprTypeError) as err:
            parse("c[1,2] + c[1,2,3]")
        assert "dimension mismatch" in str(err.value)

    def test_pi_arithmetic(self):
        tree = parse("p[2; pi/4, -pi/2]")
        assert tree.numbers[0] == 2.0
        assert close(tree.numbers[1], math.pi / 4)
        assert close(tree.numbers[2], -math.pi / 2)

    def test_scalar_expressions_in_slots(self):
        tree = parse("c[1+1, 2*3, 2^3, (4-1)/2]")
        assert tree.numbers == (2.0, 6.0, 8.0, 1.5)

    def test_precedence_power_before_unary(self):
        tree = parse("-c[1,1]^2")
        assert isinstance(tree, Unary) and isinstance(tree.child, Power)

    def test_precedence_mul_before_add(self):
        tree = parse("c[1,0] + c[0,1] * c[0,1]")
        assert isinstance(tree, Binary) and tree.op == "+"
        assert isinstance(tree.right, Binary) and tree.right.op == "*"

    def test_left_associativity(self):
        tree = parse("c[4,0] / c[2,0] / c[2,0]")
        assert tree.op == "/" and isinstance(tree.left, Binary)

    def test_parentheses(self):
        tree = parse("(c[1,0] + c[0,1]) * c[0,1]")
        assert tree.op == "*" and isinstance(tree.left, Binary)

    def test_s3_literal_arity(self):
        with pytest.raises(ExprTypeError):
            parse("s3[1,2]")
        assert parse("s3[1,2,3]") == Literal("s3", (1.0, 2.0, 3.0))

    def test_offsets_reported(self):
        with pytest.raises(ParseError) as err:
            parse("c[1,1] * * c[1,1]")
        assert err.value.offset == 9
        with pytest.raises(ParseError) as err:
            parse("c[1,")
        assert err.value.offset == 4
        assert err.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("c[1,1] c[2,2]")
        assert "end of input" in str(err.value)

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            parse("c[1,1] @ c[1,1]")
        assert err.value.offset == 7

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("quaternion[1,2]")

    def test_arg_index_bounds(self):
        with pytest.raises(ExprTypeError):
            parse("arg(c[1,2], 2)")
        with pytest.raises(ExprTypeError):
            parse("arg(c[1,2], 0)")

    def test_roots_order_validated(self):
        with pytest.raises(ExprTypeError):
            parse("roots(c[1,2], 0)")

    def test_lift_on_s3_rejected(self):
        with pytest.raises(ExprTypeError):
            parse("lift(s3[1,2,3], 1)")

    def test_roots_not_an_operand(self):
        with pytest.raises(ExprTypeError):
            parse("roots(c[1,1], 2) + c[1,1]")

    def test_negative_modulus_rejected(self):
        with pytest.raises(ExprTypeError):
            parse("p[-1; 0]")


class TestEvaluation:
    def test_classic_square(self):
        got = ev("c[1,1] * c[1,1]")
        assert isinstance(got, PolarHC)
        assert format_value(got if isinstance(got, CartesianHC) else got, 12)

    def test_worked_examples(self):
        from hyperspace.expr import _cart

        assert vec_close(_cart(ev("c[1,1] * c[1,1]")).coeffs, (0, 2))
        assert ev("abs(c[3,4])") == 5.0
        assert ev("lift(c[3,4], 12)").coeffs == (3, 4, 12)

    def test_lift_chain_dimension(self):
        got = ev("lift(lift(c[1,0], 2), 3)")
        assert got.coeffs == (1, 0, 2, 3)

    def test_addition_projects(self):
        got = ev("c[1,1]^3 - c[-2,2]")
        assert isinstance(got, CartesianHC)
        assert vec_close(got.coeffs, (0, 0), abs_eps=1e-12)

    def test_unary_minus(self):
        assert ev("-c[1,-2]").coeffs == (-1, 2)

    def test_conj(self):
        assert ev("conj(c[1,2,3])").coeffs == (1, -2, -3)
        assert ev("conj(s3[1,2,3])") == Space3(1, -2, -3)

    def test_arg(self):
        assert close(ev("arg(c[1,1], 1)"), math.pi / 4)
        assert close(ev("arg(c[1,1,1], 2)"), math.atan(1 / math.sqrt(2)))
        assert close(ev("arg(s3[0,0,2], 1)"), math.pi / 2)
        assert close(ev("arg(s3[0,0,2], 2)"), math.pi / 2)

    def test_roots_value(self):
        got = ev("roots(c[-1,0], 2)")
        assert isinstance(got, RootSet) and len(got) == 2
        assert vec_close(got[0].coeffs, (0, 1))

    def test_chained_products_compose_at_angle_level(self):
        # (1; [0, 1.4])^2 * (1; [0, 0.5]) must match the angle sums, which
        # a coordinate-projecting evaluation of N >= 3 products would not
        from hyperspace.core import from_polar

        got = ev("p[1; 0, 1.4] * p[1; 0, 1.4] * p[1; 0, 0.5]")
        want = from_polar(PolarHC(1.0, (0.0, 3.3), ACW))
        assert vec_close(from_polar(got).coeffs, want.coeffs, rel=1e-12)

    def test_orientation_flag(self):
        ccw = ev("p[2; pi/2, pi/2]", ACW)
        cw = ev("p[2; pi/2, pi/2]", CW)
        from hyperspace.core import from_polar

        assert vec_close(from_polar(ccw).coeffs, (0, 0, 2))
        assert vec_close(from_polar(cw).coeffs, (0, 2, 0))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ev("c[1,0] / c[0,0]")

    def test_s3_arithmetic(self):
        got = ev("s3p[1; pi/2, 0] * s3p[1; pi/2, 0]")
        from hyperspace.space3 import from_polar3, Space3Polar

        assert isinstance(got, Space3Polar)
        assert vec_close(from_polar3(got).coeffs, (-1, 0, 0))

    def test_s3_power(self):
        got = ev("s3[0,1,0]^2")
        from hyperspace.space3 import from_polar3

        assert vec_close(from_polar3(got).coeffs, (-1, 0, 0))


class TestFormatting:
    def test_snap_to_axis(self):
        from hyperspace.expr import _cart

        assert format_value(_cart(ev("c[1,1] * c[1,1]"))) == "c[0,2]"

    def test_scalar(self):
        assert format_value(5.0) == "5"

    def test_digits_flag(self):
        assert format_value(math.pi, digits=4) == "3.142"

    def test_roots_one_per_line(self):
        got = format_value(ev("roots(c[-1,0], 2)"))
        assert got.splitlines() == ["c[0,1]", "c[0,-1]"]

    def test_negative_zero_normalized(self):
        assert format_value(CartesianHC((-0.0, 1.0))) == "c[0,1]"

    def test_subnormal_coefficients_print(self):
        assert format_value(CartesianHC((1e-313, 1e-313)), 6) == "c[1e-313,1e-313]"
        tiny = format(5e-324, ".12g")
        assert format_value(CartesianHC((5e-324,) * 3)) == f"c[{tiny},{tiny},{tiny}]"
        assert format_value(CartesianHC((0.0, -0.0))) == "c[0,0]"

    def test_snapping_is_relative_at_every_scale(self):
        assert format_value(CartesianHC((1e-300, 1e-313))) == "c[1e-300,0]"
        assert format_value(CartesianHC((1e-300, 1e-311)), 3) == "c[1e-300,1e-311]"
        assert format_value(CartesianHC((1e300, 1e287))) == "c[1e+300,0]"

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(*[wide_floats] * n)))
    def test_seventeen_digits_parse_back(self, coeffs):
        scale = max(map(abs, coeffs))
        assume(all(c == 0 or abs(c) >= 1e-12 * scale for c in coeffs))  # none snaps
        text = format_value(CartesianHC(coeffs), 17)
        assert parse(text) == Literal("c", coeffs)

    @given(wide_floats.map(abs),
           st.lists(wide_floats.filter(lambda a: a == 0 or abs(a) >= 1e-12), min_size=1, max_size=5))
    def test_seventeen_digit_polar_parses_back(self, modulus, angles):
        text = format_value(PolarHC(modulus, tuple(angles)), 17)
        assert parse(text) == Literal("p", (modulus, *angles))

    @pytest.mark.parametrize("digits", range(0, 20))
    def test_the_largest_float_parses_back_at_every_digit_count(self, digits):
        big = sys.float_info.max
        for value, head in ((CartesianHC((big, -big)), "c"), (PolarHC(big, (0.5,)), "p"),
                            (Space3(big, 0.0, -big), "s3")):
            literal = parse(format_value(value, digits))  # no "numeric literal out of range"
            assert literal.head == head and all(map(math.isfinite, literal.numbers))

    def test_a_coefficient_rounded_past_the_largest_float_prints_at_17_digits(self):
        # 15 and 16 digits round 1.7976931348623157e308 up to 1.79769313486232e308
        big, exact = sys.float_info.max, "1.7976931348623157e+308"
        assert format_value(CartesianHC((big, 0.0)), 15) == f"c[{exact},0]"
        assert format_value(PolarHC(big, (0.5,)), 16) == f"p[{exact}; 0.5]"
        assert format_value(Space3(big, 0.0, -big), 15) == f"s3[{exact},0,-{exact}]"
        assert format_value(CartesianHC((big, 0.0)), 12) == "c[1.79769313486e+308,0]"  # no rounding up
        assert format_value(CartesianHC((1e308, 0.0)), 15) == "c[1e+308,0]"

    def test_json_kinds(self):
        assert value_to_dict(5.0) == {"kind": "scalar", "value": 5.0}
        assert value_to_dict(CartesianHC((1, 2)))["kind"] == "cartesian"
        roots = value_to_dict(ev("roots(c[-1,0], 2)"))
        assert roots["kind"] == "roots" and len(roots["roots"]) == 2


class TestPrinterParserRoundTrip:
    CASES = [
        "c[1,1] * c[1,1]",
        "roots(c[-1,0], 2)",
        "lift(c[3,4], 12)",
        "-c[1,1]^2",
        "(c[1,0] + c[0,1]) * c[0,1] - c[2,2]",
        "p[2; pi/4, 0.25] / c[1,0,0]",
        "abs(c[3,4])",
        "arg(c[1,1,1], 2)",
        "conj(s3[1,2,3]) + s3p[1; pi/2, 0]",
        "s3[0,1,0]^-2",
        "c[4,0] / c[2,0] / c[2,0]",
        "c[1,0] - (c[0,1] - c[1,1])",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_reparse_fixed_cases(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree

    @given(expr_trees)
    def test_reparse_random_trees(self, tree):
        text = unparse(tree)
        assert parse(text) == tree
        assert unparse(parse(text)) == text  # each number bit for bit, -0.0 too


def _nodes(tree):
    """The tree and every node below it."""
    children = [getattr(tree, name) for name in ("child", "left", "right") if hasattr(tree, name)]
    return [tree] + [node for child in children for node in _nodes(child)]


class TestCopies:
    # every node type, each at a nonzero offset
    TREE = parse("c[0,1,0] - -c[1,2,0]^2 * lift(c[3,4], 12)")

    def test_the_tree_holds_every_node_type(self):
        nodes = _nodes(self.TREE)
        assert {type(n) for n in nodes} == {Literal, Unary, Binary, Power, Call}
        assert all(n.offset > 0 for n in nodes if n is not self.TREE.left)

    @pytest.mark.parametrize("node", _nodes(TREE), ids=repr)
    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_a_copy_keeps_every_field_and_offset(self, node, how):
        twin = COPIES[how](node)
        assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)
        assert twin.offset == node.offset
        assert repr(twin) == repr(node)  # the repr shows every offset below too

    @pytest.mark.parametrize("node", _nodes(TREE), ids=repr)
    @pytest.mark.parametrize("name", ["offset", "child", "x"])
    def test_a_node_is_frozen(self, node, name):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


class TestHandBuiltTrees:
    # parse builds a Call only for a known function name and only the node
    # and value types below, so these raises guard trees and values built by
    # hand, which no text reaches
    BOGUS = Call("bogus", Literal("c", (1.0, 2.0)), None)

    def test_check_rejects_an_unknown_function(self):
        from hyperspace.expr import check

        with pytest.raises(ExprTypeError, match="unknown function 'bogus'") as err:
            check(self.BOGUS)
        assert err.value.offset == 0

    def test_evaluate_rejects_an_unhandled_node(self):
        with pytest.raises(AssertionError, match="unhandled node Call\\(fn='bogus'"):
            evaluate(self.BOGUS)

    def test_format_value_rejects_a_non_value(self):
        with pytest.raises(TypeError, match="cannot format <object object"):
            format_value(object())

    def test_unparse_rejects_a_non_node(self):
        with pytest.raises(TypeError, match="cannot unparse <object object"):
            unparse(object())


class TestLimits:
    def test_nesting_up_to_the_limit_parses(self):
        from hyperspace.expr import MAX_DEPTH

        text = "(" * MAX_DEPTH + "c[1,2]" + ")" * MAX_DEPTH
        assert ev(text).coeffs == (1, 2)
        chain = " * ".join(["c[1,0]"] * (MAX_DEPTH + 1))
        assert vec_close(ev(chain).angles, (0,))
        literal = "c[" + "+".join(["1"] * (MAX_DEPTH + 1)) + ",0]"
        assert ev(literal).coeffs == (MAX_DEPTH + 1, 0)

    def test_one_level_more_is_rejected_at_its_token(self):
        from hyperspace.expr import MAX_DEPTH

        with pytest.raises(ParseError) as err:
            parse("(" * (MAX_DEPTH + 1) + "c[1,2]" + ")" * (MAX_DEPTH + 1))
        assert err.value.offset == MAX_DEPTH
        with pytest.raises(ParseError) as err:
            parse(" - ".join(["c[1,2]"] * (MAX_DEPTH + 2)))
        assert err.value.offset == (MAX_DEPTH + 1) * len("c[1,2] - ") - 2
        with pytest.raises(ParseError) as err:
            parse("c[" + "*".join(["2"] * (MAX_DEPTH + 2)) + ",0]")
        assert err.value.offset == len("c[") + (MAX_DEPTH + 1) * len("2*") - 1

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "c[1,0]" + ")" * n,
        lambda n: "conj(" * n + "c[1,0]" + ")" * n,
        lambda n: "-" * n + "c[1,0]",
        lambda n: "p[" + "(" * n + "1" + ")" * n + "; 0]",
        lambda n: "c[" + "1^" * n + "1,0]",
    ], ids=["parentheses", "calls", "signs", "scalar", "scalar_powers"])
    def test_a_nesting_level_costs_at_most_four_frames(self, nest):
        from hyperspace.expr import MAX_DEPTH

        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 4 * (MAX_DEPTH + 1) + 20)
        try:
            parse(nest(MAX_DEPTH))
            with pytest.raises(ParseError, match="nesting levels"):
                parse(nest(MAX_DEPTH + 1))
        finally:
            sys.setrecursionlimit(limit)

    def test_root_order_bound(self):
        from hyperspace.expr import MAX_ROOT_ORDER

        assert len(ev(f"roots(c[1,1], {MAX_ROOT_ORDER})")) == MAX_ROOT_ORDER
        with pytest.raises(ExprTypeError):
            parse(f"roots(c[1,1], {MAX_ROOT_ORDER + 1})")
