"""The integer HahnSum kernel against the Fraction/QuadExt reference it
replaced (tests/hahn_reference.py): every operation gives the same terms,
leading term, support and equality, and every result keeps the stored-form
invariants."""
import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import hahn_reference as ref
from rplaces.coeff import QuadExt
from rplaces.ordfield import (
    HahnSum, _as_pairs, _common_scale, _join_radicand, _reduced,
)
from rplaces.valgroup import LEX, WEIGHTED, ValueGroup

GROUPS = [ValueGroup(LEX, rank) for rank in range(4)] + [
    ValueGroup(WEIGHTED, 2, (QuadExt(1), QuadExt.sqrt(2))),
    ValueGroup(WEIGHTED, 2, (QuadExt(Fraction(2, 3)), QuadExt(1, 1, 5))),
]
RADICANDS = (None, 2, 1000003)

coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
rationals = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 2, 3, 4, 6, 7]))


def coeffs(d):
    if d is None:
        return st.builds(QuadExt, rationals)
    return st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals)


def term_lists(group, d):
    return st.lists(st.tuples(st.tuples(*[coords] * group.rank), coeffs(d)),
                    max_size=4)


@st.composite
def cases(draw):
    group = draw(st.sampled_from(GROUPS))
    d = draw(st.sampled_from(RADICANDS))
    return (group, d, draw(term_lists(group, d)), draw(term_lists(group, d)),
            draw(coeffs(d)), group.elem(draw(st.tuples(*[coords] * group.rank))))


def build(cls, group, terms):
    h = cls.zero(group)
    for k, c in terms:
        h = h + cls.monomial(group, group.elem(k), c)
    return h


def check_stored_form(h: HahnSum) -> None:
    assert h._n >= 1 and h._q >= 1
    for k in h._t:
        assert len(k) == h.group.rank and all(type(x) is int for x in k)
    values = list(h._t.values())
    if h._d is None:
        assert all(type(v) is int and v for v in values)
        nums = values
    else:
        assert all(type(v) is tuple and v != (0, 0) for v in values)
        assert any(b for _, b in values)
        nums = [x for v in values for x in v]
    assert math.gcd(h._q, *nums) == 1


def same(new: HahnSum, old: ref.HahnSum) -> None:
    check_stored_form(new)
    assert new.terms == old.terms
    assert dict(new.terms) == old.terms
    assert len(new.terms) == len(old.terms)
    assert new.support() == old.support()
    assert new.is_zero() == old.is_zero()
    if not old.is_zero():
        assert new.leading() == old.leading()


@settings(max_examples=300, deadline=None)
@given(cases())
def test_operations_match_reference(case):
    group, d, xs, ys, c, g = case
    x, y = build(HahnSum, group, xs), build(HahnSum, group, ys)
    rx, ry = build(ref.HahnSum, group, xs), build(ref.HahnSum, group, ys)
    same(x, rx)
    same(y, ry)
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(x * y, rx * ry)
    same(-x, -rx)
    same(x.scale(c), rx.scale(c))
    same(x.shift(g), rx.shift(g))
    same(y.shift(g) * x.scale(c), ry.shift(g) * rx.scale(c))
    assert (x == y) == (rx == ry)
    assert hash(x) == hash(rx)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_constructor_matches_reference(case):
    group, d, xs, _, _, _ = case
    terms = {group.elem(k).coords: c for k, c in xs}
    same(HahnSum(group, terms),
         ref.HahnSum(group, {k: c for k, c in terms.items() if not c.is_zero()}))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_equality_across_exponent_scales(case):
    """A round trip through a finer exponent scale is equal to the start,
    hashes alike, and prints alike."""
    group, d, xs, _, _, g = case
    x = build(HahnSum, group, xs)
    back = x.shift(g).shift(-g)
    check_stored_form(back)
    assert back == x and x == back
    assert hash(back) == hash(x)
    assert back.terms == x.terms


@settings(max_examples=100, deadline=None)
@given(cases())
def test_full_cancellation(case):
    group, d, xs, ys, c, _ = case
    x, y = build(HahnSum, group, xs), build(HahnSum, group, ys)
    for zero in (x - x, x + (-x), (x + y) - y - x, x.scale(c) - x.scale(c)):
        check_stored_form(zero)
        assert zero.is_zero() and zero == HahnSum.zero(group)
        assert (zero._q, zero._d) == (1, None)
        assert not zero.terms


def test_cross_terms_cancel_in_a_product():
    G = ValueGroup(LEX, 1)
    t = HahnSum.monomial(G, G.elem(Fraction(1, 2)), QuadExt(Fraction(1, 3)))
    one = HahnSum.one(G)
    got = (one + t) * (one - t)
    check_stored_form(got)
    assert got.terms == {(Fraction(0),): QuadExt(1),
                         (Fraction(1),): QuadExt(Fraction(-1, 9))}


def test_irrational_parts_cancel_to_a_rational_sum():
    G = ValueGroup(LEX, 1)
    r2 = HahnSum.const(G, QuadExt.sqrt(2))
    for h in (r2 * r2, (r2 + HahnSum.one(G)) - r2, r2.scale(QuadExt(0, 3, 2))):
        check_stored_form(h)
        assert h._d is None
    assert (r2 * r2).terms == {(Fraction(0),): QuadExt(2)}


class TestMixedRadicands:
    G = ValueGroup(LEX, 1)

    def sums(self):
        a = HahnSum.const(self.G, QuadExt.sqrt(2))
        b = HahnSum.monomial(self.G, self.G.elem(1), QuadExt.sqrt(3))
        return a, b

    def test_refused_where_irrational_coefficients_meet(self):
        a, b = self.sums()
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a.scale(QuadExt.sqrt(3))
        with pytest.raises(ValueError):
            a + HahnSum.const(self.G, QuadExt.sqrt(3))
        # the reference refused these too
        ra = ref.HahnSum.const(self.G, QuadExt.sqrt(2))
        with pytest.raises(ValueError):
            ra + ref.HahnSum.const(self.G, QuadExt.sqrt(3))

    def test_refused_for_one_sum_over_two_radicands(self):
        """A sum carries one radicand, so even disjoint supports refuse."""
        a, b = self.sums()
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a == b
        with pytest.raises(ValueError):
            HahnSum(self.G, {(0,): QuadExt.sqrt(2), (1,): QuadExt.sqrt(3)})

    def test_rational_sums_combine_with_either(self):
        a, b = self.sums()
        one = HahnSum.one(self.G)
        assert (a + one)._d == 2 and (b * one)._d == 3


def full_product(x: HahnSum, y: HahnSum) -> HahnSum:
    """HahnSum.__mul__ without its unit shortcut: the product loop over both
    factors' terms at their common scale, then the reduction."""
    if not x._t or not y._t:
        return HahnSum.zero(x.group)
    n, t1, t2 = _common_scale(x, y)
    d = _join_radicand(x._d, y._d)
    out = {}
    for k1, (a1, b1) in _as_pairs(t1, x._d).items():
        for k2, (a2, b2) in _as_pairs(t2, y._d).items():
            k = tuple(map(add, k1, k2))
            a, b = out.pop(k, (0, 0))
            a, b = a + a1 * a2 + b1 * b2 * (d or 0), b + a1 * b2 + b1 * a2
            if a or b:
                out[k] = (a, b)
    if d is None:
        out = {k: a for k, (a, _) in out.items()}
    return _reduced(x.group, n, x._q * y._q, d, out)


def stored(h: HahnSum) -> tuple:
    return h._n, h._q, h._d, h._t


@settings(max_examples=150, deadline=None)
@given(cases())
def test_products_with_the_unit_keep_the_full_products_stored_form(case):
    group, d, xs, ys, c, g = case
    x, y = build(HahnSum, group, xs).shift(g), build(HahnSum, group, ys)
    one = HahnSum.one(group)
    for a, b in ((x, one), (one, x), (x, y), (y, x), (one, one)):
        check_stored_form(a * b)
        assert stored(a * b) == stored(full_product(a, b))
    if x._t and not x._is_unit():
        assert x * one is x and one * x is x


@settings(max_examples=100, deadline=None)
@given(cases())
def test_a_unit_valued_sum_at_scale_2_rescales_the_product(case):
    """1 stored at scale 2 is not the unit: the product is at scale 2."""
    group, d, xs, _, _, _ = case
    half = group.elem((Fraction(1, 2),) * group.rank)
    u = HahnSum.one(group).shift(half).shift(-half)
    x = build(HahnSum, group, xs)
    if group.rank:
        assert u._n == 2 and u == HahnSum.one(group)
    for a, b in ((x, u), (u, x), (u, u)):
        assert stored(a * b) == stored(full_product(a, b))
    if x._t and group.rank:
        assert (x * u)._n == math.lcm(x._n, 2)
        assert x * u == x


@settings(max_examples=100, deadline=None)
@given(cases())
def test_terms_view_reads_as_the_converted_dict(case):
    group, d, xs, _, _, g = case
    x = build(HahnSum, group, xs).shift(g)
    want = build(ref.HahnSum, group, xs).shift(g).terms
    view = x.terms
    assert dict(view) == want and view == want
    assert len(view) == len(want)
    assert list(view.items()) == [(k, view[k]) for k in view]
    assert list(view.values()) == [view[k] for k in view]
    assert dict(view.items()) == want and view.items() == want.items()
    assert len(view.items()) == len(want)
    assert all(kv in view.items() for kv in want.items())
    assert sorted(view.values()) == sorted(want.values())
    for k in want:
        assert view.get(k) == want[k] and k in view
    missing = (Fraction(1, 7),) * group.rank
    if missing not in want:
        assert view.get(missing) is None and view.get(missing, 0) == 0
    assert repr(view) == repr(dict(view))
    assert repr(x) == f"HahnSum({dict(view)!r})"
