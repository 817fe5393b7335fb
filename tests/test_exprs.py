"""The small function-expression language used by experiment configs."""

import numpy as np
import pytest

from fracvar import parse_function
from fracvar.errors import ArityError, DomainError, EvalError, ParseError


def ev(text, arity=1, coords=None, u=None, allow_u=False):
    fn = parse_function(text, arity, allow_u=allow_u)
    if coords is None:
        coords = [np.array(0.5)] * arity
    return fn(coords, u)


class TestGrammar:
    def test_numbers(self):
        assert ev("3") == 3.0
        assert ev("2.5") == 2.5
        assert ev(".5") == 0.5
        assert ev("1e2") == 100.0
        assert ev("2.5e-1") == 0.25

    def test_pi(self):
        assert ev("pi") == pytest.approx(np.pi)

    def test_precedence(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("7 - 4 - 2") == 1.0          # left-assoc subtraction
        assert ev("8 / 4 / 2") == 1.0
        assert ev("-2^2") == -4.0              # unary binds above '^' operand

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("exp(0)") == 1.0
        assert ev("sqrt(4)") == 2.0
        assert ev("abs(0-3)") == 3.0

    def test_function_requires_paren(self):
        with pytest.raises(ParseError):
            parse_function("sin 3", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_function("(1 + 2", 1)

    def test_unexpected_character_position(self):
        # "$" is no token; ")" is a token that cannot start an operand.
        for text in ("1 + $", "1 + )"):
            with pytest.raises(ParseError) as exc:
                parse_function(text, 1)
            assert exc.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_function("1 2", 1)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_function("tau", 1)


class TestVariables:
    def test_coordinates(self):
        c = [np.array(0.25), np.array(0.5)]
        assert ev("t1", 2, c) == 0.25
        assert ev("t2", 2, c) == 0.5
        assert ev("t1 + 10*t2", 2, c) == 5.25

    def test_arity_out_of_range(self):
        with pytest.raises(ArityError):
            parse_function("t2", 1)
        with pytest.raises(ArityError):
            parse_function("t0", 2)
        with pytest.raises(ArityError, match="'x' needs a space axis"):
            parse_function("x", 0)

    @pytest.mark.parametrize("text, arity", [
        ("t2 + 1", 1.5), ("1", 2.0), ("1", True), ("1", "1"), ("1", None),
        ("1", 0), ("1", -1)], ids=repr)
    def test_arity_must_be_a_positive_integer(self, text, arity):
        # parse_function("t2 + 1", 1.5) parsed, and evaluating it on 1D
        # coordinates raised a bare TypeError.  Below 1 the arity is checked
        # after parsing, so "x" above still raises ArityError.
        with pytest.raises(DomainError, match="arity"):
            parse_function(text, arity)

    def test_x_alias(self):
        # In 1D, x is the only coordinate; with a time axis present it is the
        # first space coordinate.
        c = [np.array(2.0), np.array(3.0)]
        assert ev("x", 1, [np.array(2.0)]) == 2.0
        assert ev("x", 2, c) == 3.0

    def test_u_gated(self):
        with pytest.raises(ParseError):
            parse_function("u + 1", 1)
        fn = parse_function("u + 1", 1, allow_u=True)
        assert fn([np.array(0.0)], np.array(2.0)) == 3.0
        with pytest.raises(EvalError):
            fn([np.array(0.0)], None)


class TestEvaluation:
    def test_broadcasts_over_grid(self):
        t = np.linspace(0.0, 1.0, 5)
        out = ev("t1^2", 1, [t])
        np.testing.assert_allclose(out, t ** 2)

    def test_non_finite_raises(self):
        with pytest.raises(EvalError):
            ev("1/0")
        with pytest.raises(EvalError):
            ev("1/(t1 - t1)", 1, [np.array(0.5)])
        with pytest.raises(EvalError):
            ev("sqrt(0 - t1)", 1, [np.array(1.0)])

    def test_fractional_exponent(self):
        assert ev("4^0.5") == 2.0
        assert ev("t1^2.5", 1, [np.array(4.0)]) == 32.0

    @pytest.mark.parametrize("text", [
        "1/0 + t1", "10^400", "2^1024", "0^(0-1)", "(0-8)^(1/3) + t1"])
    def test_non_finite_constant_raises_eval_error(self, text):
        # Constant subexpressions run in numpy, not in Python floats: a
        # division by zero, an overflow or a negative base to a fractional
        # power is inf or NaN (not a ZeroDivisionError, an OverflowError or
        # a complex number), and the finiteness check raises EvalError.
        with pytest.raises(EvalError):
            ev(text, 1, [np.linspace(0.0, 1.0, 5)])

    def test_constants_keep_their_values(self):
        # Finite constant arithmetic gives the bits of Python floats.
        t = np.linspace(0.0, 1.0, 9)
        for text, want in (("pi*t1", np.pi * t), ("2^0.5 + t1", 2.0 ** 0.5 + t),
                           ("1/3 - t1^2", 1.0 / 3.0 - t ** 2.0),
                           ("10^(0-3)*t1", 10.0 ** -3.0 * t)):
            assert ev(text, 1, [t]).tobytes() == want.tobytes()
