from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rplaces.coeff import (
    RADICAND_BOUND, QuadExt, format_coeff, rational_between,
)

Q = Fraction


def quad(a, b=0, d=2):
    return QuadExt(Q(a), Q(b), d if b else None)


class TestSign:
    # Oracle: sign(a + b*sqrt(d)) for mixed-sign a, b is settled by
    # comparing a^2 with b^2*d, since squaring preserves order on
    # positives.  Values below were checked by hand that way.
    def test_three_vs_two_sqrt2(self):
        # 3 - 2*sqrt(2): 9 > 8 so positive
        assert quad(3, -2).sign() == 1

    def test_two_sqrt2_vs_three(self):
        assert quad(-3, 2).sign() == -1

    def test_seven_vs_five_sqrt2(self):
        # 7 - 5*sqrt(2): 49 < 50 so negative
        assert quad(7, -5).sign() == -1

    def test_equal_signs(self):
        assert quad(1, 1).sign() == 1
        assert quad(-1, -1).sign() == -1

    def test_pure_parts(self):
        assert quad(0, 1).sign() == 1
        assert quad(0, -3).sign() == -1
        assert quad("-7/5").sign() == -1
        assert QuadExt(0).sign() == 0

    def test_golden_ratio_ish(self):
        # (1 + sqrt(5))/2 > 8/5  <=>  sqrt(5) > 11/5  <=>  125 > 121
        x = QuadExt(Q(1, 2), Q(1, 2), 5)
        assert x > Q(8, 5)
        assert x < Q(13, 8)


class TestArithmetic:
    def test_inverse_of_sqrt2_minus_1(self):
        # 1/(sqrt(2)-1) = sqrt(2)+1
        x = quad(-1, 1)
        assert x.inverse() == quad(1, 1)

    def test_norm(self):
        assert quad(3, -2).norm() == 1
        assert quad(1, 1, 5).norm() == -4

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            quad(0, 1, 2) + quad(0, 1, 3)

    def test_rational_radicand_coercion(self):
        assert quad(2) + quad(0, 1) == quad(2, 1)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 4)
        with pytest.raises(ValueError):
            QuadExt(0, 1, 12)

    def test_radicand_above_the_bound_refused_before_trial_division(self):
        big = RADICAND_BOUND + 39  # squarefree: 10^12 + 39 is prime
        with pytest.raises(ValueError, match="exceeds the bound"):
            QuadExt(0, 1, big)
        assert QuadExt(0, 1, 1000003).sign() == 1

    def test_pow(self):
        x = quad(1, 1)  # 1 + sqrt(2)
        assert x ** 2 == quad(3, 2)
        assert x ** -1 == quad(-1, 1)
        assert x ** 0 == QuadExt(1)

    def test_pow_builds_no_unused_square(self, monkeypatch):
        # square-and-multiply from the first needed power: one product per
        # exponent bit set after the lowest and one square per bit after
        # the first, none after the last bit and none with the identity
        x = quad(1, 1)
        calls = []
        mul = QuadExt.__mul__
        monkeypatch.setattr(QuadExt, "__mul__", lambda self, other: (
            calls.append(1), mul(self, other))[1])
        for n in range(1, 21):
            calls.clear()
            got = x ** n
            assert len(calls) == bin(n).count("1") + n.bit_length() - 2, n
            want = x
            for _ in range(n - 1):
                want = mul(want, x)
            assert got == want


class TestFloor:
    def test_sqrt2(self):
        assert quad(0, 1).floor() == 1
        assert quad(0, -1).floor() == -2
        assert quad(0, 10).floor() == 14  # 10*sqrt(2) = 14.14...
        assert quad(0, 7, 5).floor() == 15  # 7*sqrt(5) = 15.65...

    def test_exact_boundary(self):
        assert QuadExt(Q(7, 2)).floor() == 3
        assert QuadExt(Q(-7, 2)).floor() == -4
        assert QuadExt(4).floor() == 4

    def test_near_integer(self):
        # 5 - 7*sqrt(2)/2 = 0.0502...
        x = quad(5, Q(-7, 2))
        assert x.floor() == 0
        assert (-x).floor() == -1


class TestFormat:
    def test_forms(self):
        assert format_coeff(QuadExt(Q(3, 2))) == "3/2"
        assert format_coeff(quad(0, 1)) == "sqrt(2)"
        assert format_coeff(quad(1, -2, 5)) == "1-2*sqrt(5)"
        assert format_coeff(quad(0, Q(1, 3))) == "1/3*sqrt(2)"


class TestBetween:
    def test_between_irrationals(self):
        lo = quad(0, 1)  # sqrt(2)
        hi = quad(0, 1) + Q(1, 100)
        q = rational_between(lo, hi)
        assert lo < q < hi

    def test_below(self):
        x = quad(0, Q(1, 1000))
        q = rational_between(QuadExt(0), x)
        assert 0 < q < x

    def test_empty(self):
        with pytest.raises(ValueError):
            rational_between(quad(1), quad(1))


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def quads(d=2):
    return st.builds(lambda a, b: QuadExt(a, b, d if b else None),
                     rationals, rationals)


class TestProperties:
    @given(quads(), quads(), quads())
    def test_field_axioms(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x
        if not x.is_zero():
            assert x * x.inverse() == QuadExt(1)

    @given(quads(5), quads(5))
    def test_order_compatible(self, x, y):
        if x < y:
            assert x + 1 < y + 1
            assert 2 * x < 2 * y
            assert -y < -x

    @given(quads())
    def test_floor_bound(self, x):
        n = x.floor()
        assert QuadExt(n) <= x < QuadExt(n + 1)

    @given(quads(3), quads(3))
    def test_sign_multiplicative(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()


# The general formulas the rational fast paths of QuadExt shortcut; they
# serve as oracles, and results are compared component by component.

def _ref_radicand(x, y):
    if x.d is None:
        return y.d
    if y.d is None or y.d == x.d:
        return x.d
    raise ValueError(f"mixed radicands {x.d} and {y.d}")


def ref_add(x, y):
    return QuadExt(x.a + y.a, x.b + y.b, _ref_radicand(x, y))


def ref_mul(x, y):
    d = _ref_radicand(x, y)
    dd = 0 if d is None else d
    return QuadExt(x.a * y.a + x.b * y.b * dd, x.a * y.b + x.b * y.a, d)


def ref_inverse(x):
    n = x.norm()
    return QuadExt(x.a / n, -x.b / n, x.d)


def ref_eq(x, y):
    return ref_add(x, QuadExt(-y.a, -y.b, y.d)).sign() == 0


def parts(x):
    return (type(x.a), x.a, type(x.b), x.b, x.d)


rational_quads = st.builds(QuadExt, rationals)
mixed_quads = st.one_of(rational_quads, quads())


class TestFastPaths:
    @given(mixed_quads, mixed_quads)
    def test_add_and_mul_match_general_formula(self, x, y):
        assert parts(x + y) == parts(ref_add(x, y))
        assert parts(x * y) == parts(ref_mul(x, y))

    @given(mixed_quads)
    def test_inverse_matches_general_formula(self, x):
        if not x.is_zero():
            assert parts(x.inverse()) == parts(ref_inverse(x))

    @given(mixed_quads, mixed_quads)
    def test_eq_matches_sign_of_difference(self, x, y):
        assert (x == y) == ref_eq(x, y)
        assert x == QuadExt(x.a, x.b, x.d)

    @given(rationals, rationals)
    def test_eq_and_hash_agree_with_fraction(self, q, b):
        assert QuadExt(q) == q and hash(QuadExt(q)) == hash(q)
        if b:
            assert QuadExt(q, b, 2) != q
        n = q.numerator
        assert QuadExt(n) == n and hash(QuadExt(n)) == hash(n)
        assert (QuadExt(q) == n) == (q == n)

    def test_eq_rejects_mixed_radicands(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 2) == QuadExt(0, 1, 3)
        assert QuadExt(1) != QuadExt(0, 1, 3)
        assert QuadExt(0, 1, 3) != QuadExt(1, 1, 3)
