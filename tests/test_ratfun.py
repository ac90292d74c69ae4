"""Polynomial and rational-function arithmetic, substitution, printing."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ratfun_reference import (evaluate_per_term, parse_per_token,
                              tokenize_by_regex)
import rplaces.ratfun as ratfun_module
from rplaces.coeff import QuadExt
from rplaces.ordfield import (
    FieldDescriptor, FieldElement, FieldMismatchError, HahnSum, _sum, lift,
)
from rplaces.ratfun import (
    POLE, Poly, PoleMarker, RatFun, RatFunSyntaxError, _is_one,
    _tokenize, format_poly, format_ratfun, parse_ratfun,
)
from rplaces.valgroup import LEX, WEIGHTED, ValueGroup

Q = Fraction


def rational_field(name="R"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 1))


def random_coeff(F, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return F.const(Q(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
    t = F.monomial(F.group.elem(Q(rng.randint(-4, 4) or 1,
                                  rng.randint(1, 3))))
    if kind == 1:
        return t * rng.randint(1, 3)
    if kind == 2:
        return F.const(rng.randint(-3, 3)) + t
    return (F.one() + t) / (F.const(rng.randint(1, 4)) + t * t)


def random_poly(F, rng, variables, allow_zero=False):
    n = rng.randint(0 if allow_zero else 1, 3)
    terms = {}
    for _ in range(n):
        key = tuple(rng.randint(0, 4) for _ in variables)
        terms[key] = random_coeff(F, rng)
    return Poly(F, variables, terms)


def random_ratfun(F, rng, variables):
    num = random_poly(F, rng, variables, allow_zero=True)
    den = random_poly(F, rng, variables)
    return RatFun(num, den)


class TestPoly:
    def test_zero_coefficients_dropped(self):
        R = rational_field()
        p = Poly(R, ("x",), {(1,): R.zero(), (0,): R.one()})
        assert p.terms == {(0,): R.one()}
        assert Poly(R, ("x",), {}).is_zero()

    def test_arity_checked(self):
        R = rational_field()
        with pytest.raises(ValueError):
            Poly(R, ("x", "y"), {(1,): R.one()})
        with pytest.raises(ValueError):
            Poly(R, ("x",), {(-1,): R.one()})
        with pytest.raises(ValueError):
            RatFun.var(R, ("x",), "z")


class TestRatFun:
    def test_denominator_normalized(self):
        R = rational_field()
        x = Poly(R, ("x",), {(1,): 1})
        f = RatFun(Poly(R, ("x",), {(0,): 3}), Poly(R, ("x",), {(1,): 2}))
        assert f.den == x
        assert f.num == Poly(R, ("x",), {(0,): Q(3, 2)})

    def test_zero_denominator_rejected(self):
        R = rational_field()
        with pytest.raises(ZeroDivisionError):
            RatFun(Poly(R, ("x",), {(0,): 1}), Poly(R, ("x",), {}))
        x = RatFun.var(R, ("x",), "x")
        with pytest.raises(ZeroDivisionError):
            x / (x - x)

    def test_num_and_den_share_the_setting(self):
        R = rational_field()
        one = Poly(R, ("x",), {(0,): 1})
        for den in (Poly(R, ("y",), {(0,): 1}),
                    Poly(rational_field("S"), ("x",), {(0,): 1})):
            with pytest.raises(FieldMismatchError):
                RatFun(one, den)

    def test_equality_reads_constants_as_the_operators_do(self):
        R = rational_field()
        F = R.extend_coeff("F", 2)
        vs = ("y",)
        two = RatFun.const(F, vs, 2)
        rt2 = QuadExt(0, 1, 2)
        for c in (2, Q(2), QuadExt(2), F.const(2), R.const(2)):
            assert (two - c).is_zero()
            assert two == c and c == two and not two != c
        assert RatFun.const(F, vs, rt2) == F.const(rt2) == rt2
        assert two != 3 and two != F.const(3) and two != RatFun.var(F, vs, "y")
        # another setting, an element of a field that F does not hold, or a
        # number outside F
        assert two != RatFun.const(F, ("x",), 2)
        assert two != RatFun.const(R, vs, 2)
        assert two != rational_field("U").const(2)
        assert two != QuadExt(0, 1, 3) and RatFun.const(R, vs, 2) != rt2
        assert two.__eq__("2") is NotImplemented and two != "2"
        assert two.__eq__(None) is NotImplemented

    def test_field_ops_sampled(self):
        R = rational_field()
        rng = random.Random(5)
        vs = ("x",)
        for _ in range(30):
            f = random_ratfun(R, rng, vs)
            g = random_ratfun(R, rng, vs)
            a = R.const(Q(rng.randint(1, 7), rng.randint(1, 4)))
            x = {"x": a}
            fa, ga = f.eval_at(x), g.eval_at(x)
            if isinstance(fa, PoleMarker) or isinstance(ga, PoleMarker):
                continue
            s = (f + g).eval_at(x)
            p = (f * g).eval_at(x)
            assert s == fa + ga
            assert p == fa * ga
            if not g.is_zero() and not isinstance((f / g).eval_at(x),
                                                  PoleMarker):
                assert (f / g).eval_at(x) * ga == fa

    def test_zero_is_stored_as_zero_over_one(self):
        # the zero function keeps no denominator, so it has no pole
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        f = y / (y - 2) - y / (y - 2)
        assert format_ratfun(f) == "0"
        assert f.eval_at({"y": R.const(2)}).is_zero()

    def test_negative_power(self):
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        assert (y + 1) ** -2 == 1 / ((y + 1) * (y + 1))

    def test_equality_ignores_common_factors(self):
        # fractions are never reduced, so equality must not compare the
        # stored numerator and denominator
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        assert y == (y * y) / y
        assert (y + 1) / (y + 1) == 1
        assert (y * y - 1) / (y - 1) == y + 1
        assert (y * y - 1) / (y - 1) != y - 1
        assert y != RatFun.var(rational_field("S"), ("y",), "y")


class TestEval:
    def test_square(self):
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        assert (y * y).eval_at({"y": R.const(2)}) == R.const(4)

    def test_pole(self):
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        assert (1 / (y - 2)).eval_at({"y": R.const(2)}) is POLE

    def test_two_variable_substitution(self):
        F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
        x = RatFun.var(F, ("x", "y"), "x")
        y = RatFun.var(F, ("x", "y"), "y")
        f = (x + y ** 2) / x
        s = F.monomial(F.group.elem(1, 0))
        u = F.monomial(F.group.elem(0, 1))
        assert f.eval_at({"x": s, "y": u}) == 1 + u * u / s

    def test_values_in_extension(self):
        R = rational_field()
        F = R.extend_coeff("F", 2)
        rt2 = F.const(QuadExt(0, 1, 2))
        y = RatFun.var(R, ("y",), "y")
        assert (y * y - 2).eval_at({"y": rt2}).is_zero()

    def test_unrelated_fields_rejected(self):
        R = rational_field()
        other = rational_field("other")
        y = RatFun.var(R, ("y",), "y")
        with pytest.raises(FieldMismatchError):
            (y + 1).eval_at({"y": other.one()})

    def test_missing_variable(self):
        R = rational_field()
        f = RatFun.var(R, ("x", "y"), "x")
        with pytest.raises(ValueError):
            f.eval_at({"x": R.one()})

    def test_pole_is_singleton(self):
        assert PoleMarker() is POLE


class TestText:
    def test_polynomial_layout(self):
        R = rational_field()
        vs = ("x", "y")
        p = Poly(R, vs, {(2, 1): 1, (0, 1): R.const(Q(-1, 2)), (0, 0): -3})
        assert format_poly(p) == "x^2*y - 1/2*y - 3"
        assert format_ratfun(RatFun(p, Poly(R, vs, {(0, 0): 1}))) == \
            "x^2*y - 1/2*y - 3"

    def test_constant_forms(self):
        R = rational_field()
        t = R.monomial(R.group.elem(Q(1, 2)))
        f = RatFun.const(R, ("y",), t)
        assert format_ratfun(f) == "(t^(1/2))"
        assert parse_ratfun("(t^(1/2))", R, ("y",)) == f

    def test_fraction_text(self):
        R = rational_field()
        y = RatFun.var(R, ("y",), "y")
        assert format_ratfun((y - 1) / (y + 1)) == "(y - 1)/(y + 1)"

    def test_leading_coefficient_is_not_made_a_unit(self):
        # the denominator's leading coefficient 1 + t has leading monomial
        # 1, so it stays as it is: no unit (1 + t)/(1 + t) multiplies into
        # num and den
        R = rational_field()
        f = parse_ratfun("y/((1+t)*y + 1)", R, ("y",))
        assert format_ratfun(f) == "(y)/((1+t^(1))*y + 1)"
        t = R.monomial(R.group.elem(1))
        assert f.den.terms[(1,)] == 1 + t
        assert all(len(c.den.terms) == 1
                   for p in (f.num, f.den) for c in p.terms.values())

    def test_round_trip_corpus(self):
        R = rational_field()
        rng = random.Random(11)
        for _ in range(700):
            f = random_ratfun(R, rng, ("y",))
            assert parse_ratfun(format_ratfun(f), R, ("y",)) == f
        for _ in range(300):
            f = random_ratfun(R, rng, ("x", "y"))
            assert parse_ratfun(format_ratfun(f), R, ("x", "y")) == f

    def test_round_trip_rank_two_exponents(self):
        F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
        rng = random.Random(13)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                c = F.monomial(F.group.elem(rng.randint(-3, 3),
                                            Q(rng.randint(-6, 6), 2)),
                               rng.randint(1, 5))
                terms[(rng.randint(0, 3),)] = c
            f = RatFun(Poly(F, ("y",), terms), Poly(F, ("y",), {(0,): 1}))
            assert parse_ratfun(format_ratfun(f), F, ("y",)) == f

    def test_quadratic_coefficients(self):
        R = rational_field()
        F = R.extend_coeff("F", 2)
        rt2 = F.const(QuadExt(0, 1, 2))
        y = RatFun.var(F, ("y",), "y")
        f = (y ** 2 - 2) * RatFun.const(F, ("y",), rt2)
        assert parse_ratfun(format_ratfun(f), F, ("y",)) == f
        assert parse_ratfun("sqrt(2)*y", F, ("y",)) == \
            y * RatFun.const(F, ("y",), rt2)

    def test_syntax_errors(self):
        R = rational_field()
        with pytest.raises(RatFunSyntaxError):
            parse_ratfun("y +", R, ("y",))
        with pytest.raises(RatFunSyntaxError):
            parse_ratfun("(y", R, ("y",))
        with pytest.raises(RatFunSyntaxError):
            parse_ratfun("z + 1", R, ("y",))
        with pytest.raises(RatFunSyntaxError):
            parse_ratfun("y y", R, ("y",))
        with pytest.raises(RatFunSyntaxError):
            parse_ratfun("y @ 1", R, ("y",))
        err = None
        try:
            parse_ratfun("1 + $", R, ("y",))
        except RatFunSyntaxError as e:
            err = e
        assert err is not None and err.position == 4

    def test_non_decimal_digits_are_unexpected_characters(self):
        # "²" is a digit to str.isdigit() but no literal to int()
        R = rational_field()
        F = R.extend_coeff("F", 2)
        for text, at in (("²", 0), ("2²", 1), ("t^(²)", 3), ("sqrt(²)", 5)):
            for parse in (parse_ratfun, parse_per_token):
                with pytest.raises(RatFunSyntaxError) as info:
                    parse(text, F, ("y",))
                assert info.value.position == at
                assert "unexpected character" in str(info.value)

    def test_other_decimal_digits_keep_their_value(self):
        R = rational_field()
        for parse in (parse_ratfun, parse_per_token):
            assert parse("\u0663 + 1", R, ("y",)) == \
                RatFun.const(R, ("y",), R.const(4))

    def test_zero_exponent_denominator(self):
        R = rational_field()
        for text, at in (("t^(1/0)", 5), ("y + t^(-2/0)", 10)):
            with pytest.raises(RatFunSyntaxError) as info:
                parse_ratfun(text, R, ("y",))
            assert info.value.position == at

    def test_negative_power_of_zero_is_division_by_zero(self):
        # in text, at the ^; a library caller keeps ZeroDivisionError
        R = rational_field()
        for text, at in (("0^-1", 1), ("(1-1)^-2", 5), ("y + (y - y)^-1", 11),
                         ("1/0", 3)):
            with pytest.raises(RatFunSyntaxError,
                               match="^division by zero at") as info:
                parse_ratfun(text, R, ("y",))
            assert info.value.position == at
        assert parse_ratfun("0^0 + 0^2", R, ("y",)) == 1
        with pytest.raises(ZeroDivisionError, match="negative power of zero"):
            RatFun.const(R, ("y",), 0) ** -1

    def test_bare_t_needs_a_rank(self):
        Q0 = FieldDescriptor("Q0", None, ValueGroup(LEX, 0))
        for text, at in (("t", 0), ("2*t + 1", 2), ("t^(1)", 5)):
            with pytest.raises(RatFunSyntaxError,
                               match="^exponent rank 1 does not match"
                               ) as info:
                parse_ratfun(text, Q0, ())
            assert info.value.position == at


# -- fast paths against the validating constructor --------------------------
#
# The arithmetic builds its results without re-checking them; these
# references rebuild each operation the slow way, through the public
# Poly(...) and FieldElement arithmetic.

def ref_const(F, vs, c):
    return Poly(F, vs, {(0,) * len(vs): c})


def ref_var(F, vs, name):
    return Poly(F, vs, {tuple(int(v == name) for v in vs): F.const(1)})


def ref_add(a, b):
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out[k] + c if k in out else c
    return Poly(a.field, a.variables, out)


def ref_neg(a):
    return Poly(a.field, a.variables, {k: -c for k, c in a.terms.items()})


def ref_mul(a, b):
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return Poly(a.field, a.variables, out)


def ref_scale(a, c):
    return Poly(a.field, a.variables, {k: v * c for k, v in a.terms.items()})


def ref_pow(a, n):
    out = ref_const(a.field, a.variables, 1)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def whole(F, h):
    """The Hahn sum h as an element of F over the denominator 1."""
    return FieldElement(F, h, F.one().den)


def ref_ratfun(num, den):
    """(num, den) in RatFun's normal form.  Every coefficient becomes its
    numerator times each distinct coefficient denominator other than its
    own, over 1; then num and den are divided by the leading monomial of
    den's leading coefficient.  Zero is 0/1."""
    F, vs = num.field, num.variables
    if num.is_zero():
        return num, ref_const(F, vs, 1)
    dens = []
    for c in list(num.terms.values()) + list(den.terms.values()):
        d = whole(F, c.den)
        if d != F.one() and all(d != e for e in dens):
            dens.append(d)

    def cleared(p):
        out = {}
        for k, c in p.terms.items():
            x = whole(F, c.num)
            for e in dens:
                if e != whole(F, c.den):
                    x = x * e
            out[k] = x
        return Poly(F, vs, out)
    num, den = cleared(num), cleared(den)
    lead = den.terms[max(den.terms)]
    m = F.monomial(lead.val(), lead.leading_coeff())
    return ref_scale(num, 1 / m), ref_scale(den, 1 / m)


def ref_rat_add(f, g):
    return ref_ratfun(ref_add(ref_mul(f[0], g[1]), ref_mul(g[0], f[1])),
                      ref_mul(f[1], g[1]))


def ref_rat_mul(f, g):
    return ref_ratfun(ref_mul(f[0], g[0]), ref_mul(f[1], g[1]))


def ref_rat_pow(f, n):
    if n < 0:
        f, n = ref_ratfun(f[1], f[0]), -n
    num, den = f[0], f[1]
    out = ref_ratfun(ref_const(num.field, num.variables, 1),
                     ref_const(num.field, num.variables, 1))
    for _ in range(n):
        out = ref_rat_mul(out, (num, den))
    return out


def sum_form(h):
    return h.group, h._d, dict(h.terms)


def stored(p):
    """A Poly's stored form, coefficient by coefficient: the terms of each
    numerator and denominator sum, and the keys with their types.  Equal
    coefficients stored as different fractions compare unequal."""
    return p.field, p.variables, {
        tuple((type(e), e) for e in k): (c.field, sum_form(c.num),
                                         sum_form(c.den))
        for k, c in p.terms.items()}


def assert_invariant(p):
    for k, c in p.terms.items():
        assert type(k) is tuple and len(k) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in k)
        assert c.field is p.field and not c.is_zero()


def assert_same_ratfun(f, ref):
    assert_invariant(f.num)
    assert_invariant(f.den)
    assert stored(f.num) == stored(ref[0])
    assert stored(f.den) == stored(ref[1])


def field_of(kind):
    if kind == "Q":
        return rational_field()
    if kind == "Q(sqrt 2)":
        return rational_field().extend_coeff("R2", 2)
    return FieldDescriptor("F2", None, ValueGroup(LEX, 2))


def coeff_in(F, rng):
    """A random nonzero element of F: monomials, sums and quotients, with
    sqrt(2) coefficients when F has them."""
    def mono():
        g = F.group.elem(*(Q(rng.randint(-3, 3), rng.randint(1, 2))
                           for _ in range(F.group.rank)))
        c = Q(rng.randint(-5, 5) or 1, rng.randint(1, 3))
        if F.coeff_d is not None and rng.randrange(2):
            c = QuadExt(c, rng.randint(-2, 2), F.coeff_d)
        return F.monomial(g, c)
    kind = rng.randrange(4)
    if kind == 0:
        x = F.const(Q(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
    elif kind == 1:
        x = mono()
    elif kind == 2:
        x = mono() + mono()
    else:
        x = (F.one() + mono()) / (F.const(rng.randint(1, 4)) + mono() ** 2)
    return F.one() if x.is_zero() else x


def poly_in(F, rng, vs, allow_zero=True, most=3):
    """A random polynomial; with allow_zero=False it is redrawn until it is
    nonzero, since adding a bare variable can cancel a coefficient -1."""
    while True:
        terms = {}
        for _ in range(rng.randint(0 if allow_zero else 1, most)):
            terms[tuple(rng.randint(0, 3) for _ in vs)] = coeff_in(F, rng)
        p = Poly(F, vs, terms)
        if rng.randrange(3) == 0:            # a bare variable: coefficient 1
            p = ref_add(p, ref_var(F, vs, rng.choice(vs)))
        if allow_zero or not p.is_zero():
            return p


FIELD_KINDS = st.sampled_from(["Q", "Q(sqrt 2)", "lex 2"])
VARIABLES = st.sampled_from([("y",), ("x", "y")])


class TestTrustedResults:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), FIELD_KINDS, VARIABLES)
    def test_poly_ops_match_the_validating_constructor(self, seed, kind, vs):
        """The views `num` and `den`, built from the stored pair without
        checks, are the Polys that the validating constructor builds from
        the same coefficients over 1."""
        rng = random.Random(seed)
        F = field_of(kind)
        f = RatFun(poly_in(F, rng, vs), poly_in(F, rng, vs, allow_zero=False))
        c = coeff_in(F, rng)
        for g in (f, -f, f * f, f + RatFun.const(F, vs, c),
                  RatFun.const(F, vs, c), RatFun.const(F, vs, Q(3, 7)),
                  RatFun.const(F, vs, 0), RatFun.var(F, vs, vs[-1])):
            for got, p in zip((g.num, g.den), g._terms):
                assert_invariant(got)
                assert stored(got) == stored(
                    Poly(F, vs, {k: whole(F, h) for k, h in p.items()}))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), FIELD_KINDS, VARIABLES,
           st.integers(-2, 2))
    # this seed once drew the zero polynomial as a denominator
    @example(seed=242, kind="Q", vs=("y",), n=0)
    def test_ratfun_ops_match_the_validating_constructor(self, seed, kind,
                                                         vs, n):
        rng = random.Random(seed)
        F = field_of(kind)
        fp, gp = [(poly_in(F, rng, vs, most=2),
                   poly_in(F, rng, vs, allow_zero=False, most=2))
                  for _ in range(2)]
        f, g = RatFun(*fp), RatFun(*gp)
        fr, gr = ref_ratfun(*fp), ref_ratfun(*gp)
        assert_same_ratfun(f, fr)
        assert_same_ratfun(g, gr)
        neg_g = ref_ratfun(ref_neg(gr[0]), gr[1])
        assert_same_ratfun(f + g, ref_rat_add(fr, gr))
        assert_same_ratfun(f - g, ref_rat_add(fr, neg_g))
        assert_same_ratfun(f * g, ref_rat_mul(fr, gr))
        # a swap renormalises: `/` either way round, negative powers, and
        # the final pair of a parse, here of the printed forms
        assert_same_ratfun(parse_ratfun(format_ratfun(f), F, vs), fr)
        if not g.is_zero():
            quotient = ref_ratfun(ref_mul(fr[0], gr[1]),
                                  ref_mul(fr[1], gr[0]))
            assert_same_ratfun(f / g, quotient)
            assert_same_ratfun(parse_ratfun(
                f"({format_ratfun(f)})/({format_ratfun(g)})", F, vs),
                quotient)
            assert_same_ratfun(3 / g, ref_ratfun(
                ref_mul(ref_const(F, vs, 3), gr[1]), gr[0]))
            assert_same_ratfun(g ** -1, ref_ratfun(gr[1], gr[0]))
        if n >= 0 or not f.is_zero():
            assert_same_ratfun(f ** n, ref_rat_pow(fr, n))
        one = ref_const(F, vs, 1)
        assert_same_ratfun(RatFun.var(F, vs, vs[0]),
                           ref_ratfun(ref_var(F, vs, vs[0]), one))
        c = coeff_in(F, rng)
        assert_same_ratfun(RatFun.const(F, vs, c),
                           ref_ratfun(ref_const(F, vs, c), one))
        assert_same_ratfun(f * 3, ref_rat_mul(
            fr, ref_ratfun(ref_const(F, vs, 3), one)))
        # with no variables a parse is the element that FieldElement
        # arithmetic gives, stored as its num over its den
        a, b = coeff_in(F, rng), coeff_in(F, rng)
        names = {"a": a, "b": b}
        for text, x in (
                ("(a - b)/(a*a + b*b) + 3/(a*b)",
                 (a - b) / (a * a + b * b) + 3 / (a * b)),
                ("a^-2*b - (a + 1)^2/b + b",
                 a ** -2 * b - (a + 1) ** 2 / b + b),
                ("a/b - a/b", a / b - a / b)):
            h = parse_ratfun(text, F, (), names)
            assert_same_ratfun(h, (ref_const(F, (), whole(F, x.num)),
                                   ref_const(F, (), whole(F, x.den))))
            assert str(h.num.terms.get((), F.zero()) / h.den.terms[()]) \
                == str(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), FIELD_KINDS)
    def test_unit_decision_matches_subtracting_one(self, seed, kind):
        rng = random.Random(seed)
        F = field_of(kind)
        x = coeff_in(F, rng)
        candidates = [x, x / x, x * x.inverse(), F.one() + x - x,
                      F.const(1), F.const(-1), (x * x + 1) / (1 + x * x)]
        vs = ("y",)
        num = ref_var(F, vs, "y")
        for c in candidates:
            den = ref_const(F, vs, c)
            f = RatFun(num, den)
            # RatFun stores the sums of a pair already in normal form as
            # they are and rebuilds every other pair; a one stored as s/s
            # gives y*s over s, with no s/s left in any coefficient
            normal = len(c.den.terms) == 1 and c.val().sign() == 0 and \
                c.leading_coeff() == QuadExt(1)
            kept = f._terms[0][(1,)] is num.terms[(1,)].num and \
                f._terms[1][(0,)] is c.num
            assert kept == normal
            assert_same_ratfun(f, ref_ratfun(num, den))
            if (c - F.one()).is_zero():
                assert f == RatFun.var(F, vs, "y")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), FIELD_KINDS, VARIABLES)
    def test_product_with_one_returns_equal_terms(self, seed, kind, vs):
        rng = random.Random(seed)
        F = field_of(kind)
        f = RatFun(poly_in(F, rng, vs), ref_const(F, vs, 1))
        x = coeff_in(F, rng)
        # a unit stored as 1/1 leaves every coefficient's stored form as it
        # is; one stored as x/x multiplies into num and den
        for one, plain in ((RatFun.const(F, vs, 1), True),
                           (RatFun(ref_const(F, vs, F.const(1)),
                                   ref_const(F, vs, 1)), True),
                           (RatFun.const(F, vs, x / x), len(x.num.terms) == 1
                            and len(x.den.terms) == 1)):
            want = ref_rat_mul(ref_ratfun(f.num, f.den),
                               ref_ratfun(one.num, one.den))
            for got in (f * one, one * f):
                assert got == f
                assert_same_ratfun(got, want)
                if plain:
                    assert_same_ratfun(got, (f.num, f.den))


def eval_setting(kind):
    """(B, T): functions over B, values in T.  T is B, or B with sqrt(2)
    coefficients, or B's exponents placed at coordinate 1 of a rank-2 lex
    group, or a weighted group over constants with sqrt(2) coefficients."""
    if kind == "Q":
        B = rational_field()
        return B, B.extend_coeff("R2", 2)
    if kind == "Q(sqrt 2)":
        B = rational_field().extend_coeff("R2", 2)
        return B, B
    if kind == "lex 2":
        B = rational_field()
        return B, B.extend_group("F2", ValueGroup(LEX, 2), (1,))
    B = FieldDescriptor("k", 2, ValueGroup(LEX, 0))
    return B, B.extend_group(
        "W", ValueGroup(WEIGHTED, 2, (QuadExt(1), QuadExt.sqrt(2))), ())


def quotient_in(F, rng):
    """(a + m)/(b + m^2) for a monomial m of nonzero value, such as
    (1 + t)/(2 + t^2): an element whose denominator is not 1."""
    g = F.group.elem(*(Q(rng.choice((1, -1)) * rng.randint(1, 3),
                         rng.randint(1, 2)) for _ in range(F.group.rank)))
    m = F.monomial(g)
    x = (F.const(rng.randint(-3, 3)) + m) / \
        (F.const(rng.randint(1, 4)) + m * m)
    assert len(x.den.terms) == 2
    return x


class TestCommonDenominatorEvaluation:
    """eval_at against substitution term by term (tests/ratfun_reference.py):
    the same value, and POLE exactly when the reference denominator is 0."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["Q", "Q(sqrt 2)", "lex 2", "weighted"]),
           VARIABLES, st.booleans())
    def test_eval_at_matches_per_term_substitution(self, seed, kind, vs,
                                                   pole):
        rng = random.Random(seed)
        B, T = eval_setting(kind)
        num = poly_in(B, rng, vs)
        den = poly_in(B, rng, vs, allow_zero=False)
        # mostly values with a denominator; some stay in B and are lifted
        assignment = {v: quotient_in(T, rng) if rng.randrange(3)
                      else coeff_in(B, rng) for v in vs}
        if pole:
            v, a = rng.choice(vs), coeff_in(B, rng)
            den = ref_mul(den, ref_add(ref_var(B, vs, v),
                                       ref_const(B, vs, -a)))
            assignment[v] = a if rng.randrange(2) else lift(a, T)
        f = RatFun(num, den)
        target = B
        for x in assignment.values():
            target = target.join(x.field)
        want_den = evaluate_per_term(f.den, assignment, target)
        got = f.eval_at(assignment)
        if want_den.is_zero():
            assert got is POLE
            return
        assert got is not POLE and got.field is target
        assert got == evaluate_per_term(f.num, assignment, target) / want_den
        assert f.eval_at(assignment, T) == got

    def test_field_without_an_embedding_is_refused(self):
        R, other = rational_field(), rational_field("other")
        y = RatFun.var(R, ("y",), "y")
        with pytest.raises(FieldMismatchError, match="R does not embed"):
            (y + 1).eval_at({"y": other.one()}, other)


# -- the parser against the per-token reference ------------------------------
#
# parse_ratfun carries one unnormalised (num, den) pair and normalises once;
# parse_per_token (tests/ratfun_reference.py) builds a RatFun per token and
# normalises after every operator.  Their stored forms, printed forms and
# errors must agree.

def text_atoms(F, rng, vs, names):
    """(atoms, poison): tokens that stand alone in F, namely literals,
    variables, t monomials, sqrt(2) when F has it and the names bound to
    elements of F or of a subfield; and tokens F refuses: unknown names,
    names bound outside F, sqrt(3), t at a wrong rank."""
    rank = F.group.rank
    c = [f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}" for _ in range(rank)]
    monos = ["t", f"t^({c[0]})" if rank == 1 else f"t^(({','.join(c)}))"] \
        if rank else []
    inside = [k for k, x in names.items()
              if x.field.embedding_mask_into(F) is not None]
    atoms = [str(rng.randint(0, 9)), str(rng.randint(10, 99)), "0", "1",
             *monos, *monos, *vs, *vs, *inside, *inside]
    poison = ["w", "sqrt(3)", "t^((1,2,3))", "t" if not rank else "t^()",
              *(k for k in names if k not in inside)]
    (atoms if F.coeff_d == 2 else poison).append("sqrt(2)")
    return atoms, poison


def expr_text(rng, atoms, depth):
    """Text from the grammar: sums, differences (X - X among them),
    products, quotients and powers, negative ones included, with and
    without parentheses."""
    if depth == 0 or rng.randrange(4) == 0:
        return rng.choice(atoms)
    a = expr_text(rng, atoms, depth - 1)
    kind = rng.randrange(8)
    if kind == 0:
        return f"({a})^{rng.randint(-2, 2)}"
    if kind == 1:
        return f"{rng.choice(atoms)}^{rng.randint(-2, 3)}"
    if kind == 2:
        return f"-{a}" if rng.randrange(2) else f"({a} - {a})"
    b = expr_text(rng, atoms, depth - 1)
    op = "+-*/"[kind - 3] if kind < 7 else rng.choice("+-*/")
    if rng.randrange(2):
        return f"({a}) {op} ({b})"
    return f"{a} {op} {b}"


def malformed(rng, text):
    """text with one character dropped or one stray character inserted."""
    i = rng.randrange(len(text) + 1)
    if rng.randrange(2) and text:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice("+-*/^(),$0t") + text[i:]


def parse_outcome(parse, text, F, vs, names):
    try:
        return parse(text, F, vs, names), None
    except Exception as exc:        # the two must fail alike
        return None, exc


def assert_same_parse(got, want):
    (f, f_exc), (g, g_exc) = got, want
    if f_exc is not None or g_exc is not None:
        assert type(f_exc) is type(g_exc) and str(f_exc) == str(g_exc)
        assert getattr(f_exc, "position", None) == \
            getattr(g_exc, "position", None)
        return
    one = f.field.one().den
    for p, q in ((f.num, g.num), (f.den, g.den)):
        assert p.terms.keys() == q.terms.keys()
        for k, c in p.terms.items():
            assert c.den == one and q.terms[k].den == one
            assert c.num == q.terms[k].num
    assert format_ratfun(f) == format_ratfun(g)


class TestParseAgainstPerToken:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["Q", "Q(sqrt 2)", "lex 2", "weighted"]),
           VARIABLES, st.booleans())
    def test_stored_forms_and_errors_match(self, seed, kind, vs, sub):
        rng = random.Random(seed)
        B, T = eval_setting(kind)
        # parse in the base field or in its extension; names bound in the
        # base field are lifted, names of the extension may be refused
        F = B if sub else T
        if F.group.rank == 0:
            vs = ()
        names = {"z": F.zero(), "u": F.one(), "c": coeff_in(B, rng),
                 "d": coeff_in(T, rng)}
        # names whose den is not 1, such as (1 + t)/(2 + t^2)
        if B.group.rank:
            names["q"] = quotient_in(B, rng)
        if T.group.rank:
            names["p"] = quotient_in(T, rng)
        atoms, poison = text_atoms(F, rng, vs, names)
        for _ in range(4):
            if rng.randrange(4):
                text = expr_text(rng, atoms, 3)
            else:                 # one refused token, perhaps deep inside
                text = expr_text(rng, atoms + [rng.choice(poison)], 3)
            if rng.randrange(6) == 0:
                text = malformed(rng, text)
            assert_same_parse(parse_outcome(parse_ratfun, text, F, vs, names),
                              parse_outcome(parse_per_token, text, F, vs,
                                            names))

    @pytest.mark.parametrize("text", [
        "0", "z", "z/q", "(q - q)*q + q", "(q - q) + q", "q + q*0",
        "q/(u - u)", "0^-1", "(z - 0)^-2",
        "y^-1 - (y - y)", "(q + y)^-2/(3*q)", "7/5/t", "t^(1/2)/t^(1/2)",
        "(t + y)/(2*t)", "sqrt(2)*y/sqrt(2)", "q^-2", "1/q - (1/q)^2",
        "((y))", "y^(1)", "y -", "t^(1", "q q", "-(-y)"])
    def test_fixed_texts_match(self, text):
        B, T = eval_setting("Q(sqrt 2)")
        rng = random.Random(7)
        names = {"z": T.zero(), "u": T.one(), "q": quotient_in(B, rng)}
        for vs in (("y",), ("x", "y")):
            assert_same_parse(parse_outcome(parse_ratfun, text, T, vs, names),
                              parse_outcome(parse_per_token, text, T, vs,
                                            names))


# characters on both sides of each str-method class the tokenizer reads:
# ASCII and other decimal digits (Arabic-Indic, Devanagari, fullwidth);
# digits and numbers that are not decimal ("²", "½", "Ⅻ", "①"), word
# characters that start no name; letters of the categories Lu, Ll, Lt, Lm
# and Lo; spaces that isspace accepts ("\x1c", "\x85", no-break, em,
# ideographic) and one it does not (zero-width); a combining mark, which
# is no word character
TOKEN_CHARS = list("09_ty+-*/^(),.$ \t\n") + [
    "\u0663", "\u0967", "\uff10", "\u00b2", "\u00bd", "\u216b", "\u2460",
    "\u00c9", "\u03bb", "\u01c5", "\u02b0", "\u4e2d", "\x1c", "\x85",
    "\u00a0", "\u2003", "\u3000", "\u200b", "\u0301"]


def token_outcome(tokenize, text):
    try:
        return tokenize(text)
    except RatFunSyntaxError as exc:
        return str(exc), exc.position


class TestTokenize:
    @settings(max_examples=60, deadline=None)
    @given(st.text(st.sampled_from(TOKEN_CHARS) | st.characters(),
                   max_size=24))
    def test_matches_the_regular_expression_reference(self, text):
        assert token_outcome(_tokenize, text) == \
            token_outcome(tokenize_by_regex, text)

    @pytest.mark.parametrize("text, error_at", [
        ("y\u00b2", None), ("1\u00b2", 1), ("\u00bd + y", 0),
        ("\u0663\u0967 + y", None), ("\u03bb\u00a0*\x1cy", None),
        ("y\u200b", 1), ("\u0301", 0)])
    def test_non_ascii_characters(self, text, error_at):
        # non-ASCII digits are numbers and "y²" is one name, while "²" and
        # "½" start no token, and a zero-width space or a lone combining
        # mark is no space
        got = token_outcome(_tokenize, text)
        assert got == token_outcome(tokenize_by_regex, text)
        assert (got[1] if isinstance(got, tuple) else None) == error_at


class TestBuildCost:
    def test_is_one_reads_the_stored_form(self):
        """`_is_one` agrees with comparing a term dict's one sum with 1."""
        R = rational_field()
        R2 = R.extend_coeff("R2", 2)
        t = R.monomial(R.group.elem(Q(1, 2)))
        rt2 = R2.const(QuadExt(0, 1, 2))
        # 1 and 1 + t at the exponent scale 2, as a sum may store them
        one2 = _sum(R.group, 2, 1, None, {(0,): 1})
        hs = [R.one().num, R.const(2).num, R.const(-1).num,
              R.const(Q(1, 2)).num, t.num, (R.one() + t).num, one2,
              one2 + t.num, R2.one().num, rt2.num, ((1 + rt2) - rt2).num,
              (rt2 * rt2 / 2).num]
        got = []
        for h in hs:
            for key in ((0,), (1,)):
                want = not any(key) and h == HahnSum.one(h.group)
                assert _is_one({key: h}) == want
                got.append(want)
        assert got.count(True) == 5
        assert not _is_one({})
        assert not _is_one({(0,): one2, (1,): one2})

    def test_parse_runs_no_subtraction_and_shares_the_unit(self,
                                                           monkeypatch):
        R = rational_field()
        counts = {"sub": 0, "const": 0, "normal": 0, "ratfun": 0}
        sub, const, normal, init = FieldElement.__sub__, \
            FieldDescriptor.const, ratfun_module._normal, RatFun.__init__

        def counting_sub(self, other):
            counts["sub"] += 1
            return sub(self, other)

        def counting_const(self, c):
            counts["const"] += 1
            return const(self, c)

        def counting_normal(x, one):
            counts["normal"] += 1
            return normal(x, one)

        def counting_init(self, num, den):
            counts["ratfun"] += 1
            init(self, num, den)

        monkeypatch.setattr(FieldElement, "__sub__", counting_sub)
        monkeypatch.setattr(FieldDescriptor, "const", counting_const)
        monkeypatch.setattr(ratfun_module, "_normal", counting_normal)
        monkeypatch.setattr(RatFun, "__init__", counting_init)
        text = "(3/2 + 5/3*y)/(2 + y)"
        f = parse_ratfun(text, R, ("y",))
        # the five integer literals are stored sums, not field constants,
        # and the pair is a pair of sums, so no field constant is built;
        # the pair is normalised once, and never by the public constructor
        assert counts == {"sub": 0, "const": 0, "normal": 1, "ratfun": 0}
        assert parse_ratfun(text, R, ("y",)) is not f
        assert counts == {"sub": 0, "const": 0, "normal": 2, "ratfun": 0}
        # the unit dict of a setting is shared by every parse
        assert parse_ratfun("y", R, ("y",))._terms[1] is \
            parse_ratfun("7*y", R, ("y",))._terms[1]
        one = R.one()
        assert R.one() is one and R.zero() is R.zero()
        assert counts["const"] == 2
        monkeypatch.undo()
        assert one == R.const(1) and R.zero() == R.const(0)
        assert format_ratfun(f) == "(5/3*y + 3/2)/(y + 2)"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), FIELD_KINDS, VARIABLES)
    def test_only_a_swap_renormalises(self, seed, kind, vs):
        """Sums and products of normal pairs are normal: `+`, `-`, `*` and
        positive powers neither clear denominators nor divide by a leading
        monomial.  `/` and negative powers divide at most once, when the
        new den does not lead with 1."""
        rng = random.Random(seed)
        F = field_of(kind)
        f, g = [RatFun(poly_in(F, rng, vs, most=2),
                       poly_in(F, rng, vs, allow_zero=False, most=2))
                for _ in range(2)]
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper
        unswapped = (lambda: f + g, lambda: f - g, lambda: f * g,
                     lambda: -f, lambda: 2 * f - Q(1, 3), lambda: f ** 3,
                     lambda: g ** 0)
        with mock.patch.object(HahnSum, "_monic_factor",
                               counted("monic", HahnSum._monic_factor)), \
                mock.patch.object(ratfun_module, "_cleared",
                                  counted("cleared", ratfun_module._cleared)):
            for op in unswapped:
                op()
                assert calls == {}
            if g.is_zero():
                return
            # the new den leads with g's num's leading coefficient; a zero
            # quotient is 0/1 at once
            lead = g._terms[0][max(g._terms[0])]
            for op, zero in ((lambda: f / g, f.is_zero()),
                             (lambda: 1 / g, False), (lambda: g ** -2, False)):
                calls.clear()
                op()
                assert calls["cleared"] == 0
                assert calls["monic"] == (not lead._is_monic() and not zero)

    def test_field_constants_are_built_on_first_use(self, monkeypatch):
        built = []
        const = FieldDescriptor.const
        monkeypatch.setattr(FieldDescriptor, "const",
                            lambda self, c: (built.append(c),
                                             const(self, c))[1])
        R = rational_field()
        assert built == []
        R.zero(), R.one(), R.zero(), R.one()
        assert built == [0, 1]
