"""Polynomial and rational-function arithmetic, substitution, printing."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rplaces.coeff import QuadExt
from rplaces.ordfield import FieldDescriptor, FieldMismatchError, lift
from rplaces.ratfun import (
    POLE, Poly, PoleMarker, RatFun, RatFunSyntaxError, format_poly,
    format_ratfun, parse_ratfun,
)
from rplaces.valgroup import LEX, ValueGroup

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
            Poly.var(R, ("x",), "z")

    def test_ring_axioms_sampled(self):
        R = rational_field()
        rng = random.Random(3)
        vs = ("x", "y")
        for _ in range(40):
            a = random_poly(R, rng, vs, allow_zero=True)
            b = random_poly(R, rng, vs, allow_zero=True)
            c = random_poly(R, rng, vs, allow_zero=True)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Poly(R, vs, {})

    def test_pow(self):
        R = rational_field()
        x = Poly.var(R, ("x",), "x")
        one = Poly.const(R, ("x",), 1)
        assert (x + one) ** 2 == x * x + 2 * x + one
        assert x ** 0 == one
        with pytest.raises(ValueError):
            x ** -1

    def test_lead_key_lex(self):
        R = rational_field()
        p = Poly(R, ("x", "y"), {(1, 3): R.one(), (2, 0): R.one()})
        assert p.lead_key() == (2, 0)


class TestRatFun:
    def test_denominator_normalized(self):
        R = rational_field()
        x = Poly.var(R, ("x",), "x")
        f = RatFun(Poly.const(R, ("x",), 3), x.scale(R.const(2)))
        assert f.den == x
        assert f.num == Poly.const(R, ("x",), Q(3, 2))

    def test_zero_denominator_rejected(self):
        R = rational_field()
        with pytest.raises(ZeroDivisionError):
            RatFun(Poly.const(R, ("x",), 1), Poly(R, ("x",), {}))
        x = RatFun.var(R, ("x",), "x")
        with pytest.raises(ZeroDivisionError):
            x / (x - x)

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


def evaluate_per_term(p, assignment, target):
    """Poly.evaluate with a fresh `v ** e` in every term: the reference
    the power table must reproduce representation for representation."""
    values = [lift(assignment[v], target) for v in p.variables]
    total = target.zero()
    for key, c in p.terms.items():
        part = lift(c, target)
        for v, e in zip(values, key):
            if e:
                part = part * v ** e
        total = total + part
    return total


class TestPowerTable:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([("y",), ("x", "y")]),
           st.booleans())
    def test_matches_per_term_powers(self, seed, variables, extend):
        rng = random.Random(seed)
        R = rational_field()
        F = R.extend_coeff("F", 2) if extend else R
        p = random_poly(R, rng, variables, allow_zero=True)
        assignment = {}
        for v in variables:
            value = random_coeff(F, rng)
            if extend and rng.randrange(2):
                value = value + F.const(QuadExt(0, rng.randint(1, 3), 2))
            assignment[v] = value
        got = p.evaluate(assignment)
        want = evaluate_per_term(p, assignment, F)
        assert got.field is want.field is F
        assert got.num.terms == want.num.terms
        assert got.den.terms == want.den.terms


class TestText:
    def test_polynomial_layout(self):
        R = rational_field()
        x = Poly.var(R, ("x", "y"), "x")
        y = Poly.var(R, ("x", "y"), "y")
        one = Poly.const(R, ("x", "y"), 1)
        p = x * x * y - y.scale(R.const(Q(1, 2))) - one * 3
        assert format_poly(p) == "x^2*y - 1/2*y - 3"

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
            f = RatFun(Poly(F, ("y",), terms), Poly.const(F, ("y",), 1))
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
