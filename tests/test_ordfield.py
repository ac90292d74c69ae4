"""Field arithmetic, valuation, expansion and subfield analysis tests."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rplaces.coeff import QuadExt
from rplaces.ordfield import (
    DEFAULT_MAX_STEPS, INF, Exhausted, ExpansionBudgetError, FieldDescriptor,
    FieldElement, FieldMismatchError, HahnSum, InSubfield, Obstructed,
    _mask_search, adjoin_infinitesimal, approx_analysis, declare_embedding,
    lift, settled_analysis,
)
from rplaces.valgroup import LEX, WEIGHTED, ValueGroup, check_mask

Q = Fraction


def rank1_field(name="F1"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 1))


def rank2_field(name="F2"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 2))


class TestArithmetic:
    def test_difference_of_squares(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        lhs = (1 - t) * (1 + t)
        rhs = 1 - t * t
        assert lhs.cmp(rhs) == 0
        assert lhs.num.terms == {(Q(0),): QuadExt(1), (Q(2),): QuadExt(-1)}

    def test_fractional_exponent_inverse(self):
        F = rank1_field()
        h = F.monomial(F.group.elem(Q(1, 2)))
        x = 1 / h
        assert x.val() == F.group.elem(Q(-1, 2))
        assert (x * h).cmp(1) == 0

    def test_geometric_tail_identity(self):
        # 1/(1-t) - 1 = t/(1-t), checked by cross multiplication
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        lhs = 1 / (1 - t) - 1
        rhs = t / (1 - t)
        assert lhs.cmp(rhs) == 0
        assert (lhs.num * rhs.den).terms == (rhs.num * lhs.den).terms

    def test_lex_monomial_order(self):
        F = rank2_field()
        s = F.monomial(F.group.elem(1, 0))
        u = F.monomial(F.group.elem(0, 1))
        assert s.cmp(u) < 0          # v(s)=(1,0) > (0,1)=v(u), so s < u
        assert (u - s).sign() > 0
        assert s.sign() > 0 and u.sign() > 0

    def test_valuation_of_fraction(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        x = (1 + t) / t
        assert x.val() == F.group.elem(-1)
        assert x.sign() > 0

    def test_valuation_of_zero(self):
        F = rank1_field()
        assert F.zero().val() is INF
        assert F.zero().sign() == 0

    def test_canonical_denominator(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        num = t + t * t
        den = 2 * t
        x = num / den
        lead, c = x.den.leading()
        assert lead.is_zero() and c == QuadExt(1)
        assert x.cmp((1 + t) / 2) == 0

    @pytest.mark.parametrize("group", [
        ValueGroup(LEX, 1), ValueGroup(WEIGHTED, 2, (1, QuadExt.sqrt(2)))])
    def test_canonical_denominator_is_read_from_the_stored_form(
            self, group, monkeypatch):
        """An element whose denominator is already canonical is built
        without reading a leading term or making a group element."""
        F = FieldDescriptor("Fc", 2, group)
        g = group.elem(*[Fraction(1, 2)] * group.rank)
        num = HahnSum.monomial(group, g, QuadExt(3)) + HahnSum.one(group)
        den = HahnSum.one(group) + HahnSum.monomial(group, g,
                                                    QuadExt.sqrt(2))
        calls = []
        leading, elem = HahnSum.leading, ValueGroup.elem
        monkeypatch.setattr(HahnSum, "leading", lambda self: (
            calls.append("leading"), leading(self))[1])
        monkeypatch.setattr(ValueGroup, "elem", lambda self, *c: (
            calls.append("elem"), elem(self, *c))[1])
        x = FieldElement(F, num, den)
        assert calls == [] and x.num is num and x.den is den
        y = FieldElement(F, num, den.scale(QuadExt(1, 1, 2)))
        assert calls == []
        monkeypatch.undo()
        assert y.den.leading() == (group.zero(), QuadExt(1))
        assert y == x / QuadExt(1, 1, 2)

    def test_pow_and_inverse(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        x = (1 + t) / (1 - t)
        assert (x ** 3 * x ** -3).cmp(1) == 0
        assert (x.inverse() * x).cmp(1) == 0

    def test_pow_builds_no_unused_square(self, monkeypatch):
        # one product per exponent bit set after the lowest and one square
        # per bit after the first, none after the last bit and none with
        # the identity
        F = rank1_field()
        x = (1 + F.monomial(F.group.elem(1))) / 3
        calls = []
        mul = FieldElement.__mul__
        monkeypatch.setattr(FieldElement, "__mul__", lambda self, other: (
            calls.append(1), mul(self, other))[1])
        for n in range(1, 21):
            calls.clear()
            got = x ** n
            assert len(calls) == bin(n).count("1") + n.bit_length() - 2, n
            want = x
            for _ in range(n - 1):
                want = mul(want, x)
            assert got == want

    def test_division_by_zero(self):
        F = rank1_field()
        with pytest.raises(ZeroDivisionError):
            F.one() / F.zero()


class TestCoercionAndLifting:
    def test_lift_along_edge(self):
        F = rank2_field()
        R = F.subfield("R", mask=(1,))
        tr = R.monomial(R.group.elem(2))
        lifted = lift(tr, F)
        assert lifted.val() == F.group.elem(0, 2)

    def test_mixed_arithmetic_lifts(self):
        F = rank2_field()
        R = F.subfield("R", mask=(1,))
        tr = R.monomial(R.group.elem(1))
        s = F.monomial(F.group.elem(1, 0))
        x = tr + s
        assert x.field is F
        assert x.val() == F.group.elem(0, 1)

    def test_two_step_chain(self):
        F = rank1_field("base")
        M = F.extend_coeff("mid", 2)
        big_group = ValueGroup(LEX, 2)
        G = M.extend_group("top", big_group, mask=(1,))
        x = F.monomial(F.group.elem(3), 2)
        y = lift(x, G)
        assert y.val() == G.group.elem(0, 3)
        r2 = M.const(QuadExt.sqrt(2))
        assert (y * r2).field is G

    def test_unrelated_fields_refused(self):
        A = rank1_field("A")
        B = rank1_field("B")
        with pytest.raises(FieldMismatchError):
            A.one() + B.one()

    def test_equality_across_unrelated_fields_is_false(self):
        """cmp refuses, == falls back to identity: False, and != True."""
        A = rank1_field("A")
        B = rank1_field("B")
        a, b = A.one(), B.one()
        assert a.__eq__(b) is NotImplemented
        assert not a == b and not b == a
        assert a != b and b != a
        assert a == a
        with pytest.raises(FieldMismatchError):
            a.cmp(b)
        with pytest.raises(FieldMismatchError):
            a < b

    def test_equality_with_a_number_outside_the_field_is_false(self):
        """== is False and != True for a number the field does not admit,
        on either side; the order still refuses it."""
        R = rank1_field("R")
        R2 = R.extend_coeff("R2", 2)
        for x, c in ((R.const(2), QuadExt.sqrt(2)),
                     (R.zero(), QuadExt.sqrt(2)),
                     (R2.const(QuadExt.sqrt(2)), QuadExt.sqrt(3))):
            assert not x == c and not c == x
            assert x != c and c != x
            with pytest.raises(ValueError):
                x.cmp(c)
            with pytest.raises(ValueError):
                x < c
        assert R2.const(QuadExt.sqrt(2)) == QuadExt.sqrt(2)
        assert R2.const(2) == 2 and R.const(2) == QuadExt(2)

    @pytest.mark.parametrize("d", [4, 1, 0, -3, 10 ** 12 + 39])
    def test_radicand_checked_when_the_field_is_declared(self, d):
        with pytest.raises(ValueError):
            FieldDescriptor("Fd", d, ValueGroup(LEX, 1))
        with pytest.raises(ValueError):
            rank1_field().extend_coeff("Fd", d)

    def test_coeff_outside_field(self):
        F = rank1_field()
        with pytest.raises(ValueError):
            F.const(QuadExt.sqrt(2))


def grow_tower(fields: list, rng: random.Random, i: int) -> None:
    """One random declaration: a subfield, a coefficient or group
    extension, or an explicit embedding between two existing fields (which
    may close a diamond).  Declarations the library refuses are skipped."""
    F = rng.choice(fields)
    r = F.group.rank
    kind = rng.randrange(4)
    try:
        if kind == 0:
            fields.append(F.subfield(
                f"S{i}", mask=rng.sample(range(r), rng.randint(0, r))))
        elif kind == 1:
            fields.append(F.extend_coeff(f"C{i}", F.coeff_d or 2))
        elif kind == 2:
            big = ValueGroup(LEX, r + rng.randint(1, 2))
            fields.append(F.extend_group(
                f"G{i}", big, mask=rng.sample(range(big.rank), r)))
        else:
            sup = rng.choice(fields)
            if sup.group.rank >= r:
                declare_embedding(F, sup, rng.sample(range(sup.group.rank), r))
    except ValueError:
        pass


def assert_masks_match_the_search(fields: list) -> None:
    for _ in range(2):            # the second round reads the memo
        for a in fields:
            for b in fields:
                assert a.embedding_mask_into(b) == _mask_search(a, b)


class TestEmbeddingMemo:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_memo_matches_the_search_as_edges_are_added(self, seed):
        rng = random.Random(seed)
        base = ValueGroup(LEX, rng.randint(1, 2))
        fields = [FieldDescriptor("B", None, base)]
        for i in range(10):
            assert_masks_match_the_search(fields)
            grow_tower(fields, rng, i)
        assert_masks_match_the_search(fields)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_every_answer_is_an_increasing_mask(self, seed):
        # lift and the evaluation of rational functions use the answer
        # unchecked: each edge is checked when it is declared, and chains
        # compose increasing masks
        rng = random.Random(seed)
        r = rng.randint(1, 2)
        A = FieldDescriptor("A", None, ValueGroup(LEX, r))
        fields = [A]
        for i in range(8):
            grow_tower(fields, rng, i)
        # a diamond closed by an explicit declaration with an unsorted mask
        B = A.extend_coeff("B", 2)
        C = A.extend_group("C", ValueGroup(LEX, r + 2),
                           mask=rng.sample(range(r + 2), r))
        D = C.extend_coeff("D", 2)
        declare_embedding(B, D, rng.sample(range(r + 2), r))
        fields += [B, C, D]
        assert B.embedding_mask_into(D) is not None
        for a in fields:
            for b in fields:
                mask = a.embedding_mask_into(b)
                if mask is not None:
                    assert mask == check_mask(mask, b.group)
                    assert len(mask) == a.group.rank

    def test_declared_diamond_replaces_a_remembered_none(self):
        A = rank1_field("A")
        B = A.extend_coeff("B", 2)
        C = A.extend_group("C", ValueGroup(LEX, 2), mask=(1,))
        D = C.extend_coeff("D", 2)
        assert B.embedding_mask_into(D) is None
        declare_embedding(B, D, (1,))
        assert B.embedding_mask_into(D) == _mask_search(B, D) == (1,)
        assert A.embedding_mask_into(D) == (1,)


class TestExpansion:
    def test_geometric_series(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        terms, tail = (1 / (1 - t)).expand(F.group.elem(3))
        assert tail is True
        assert terms.terms == {(Q(k),): QuadExt(1) for k in range(4)}

    def test_rational_function_head(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        x = (2 + t) / (1 + t)
        terms, tail = x.expand(F.group.elem(0))
        assert tail is True
        assert terms.terms == {(Q(0),): QuadExt(2)}

    def test_exact_termination(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        terms, tail = (1 + t).expand(F.group.elem(5))
        assert tail is False
        assert terms.terms == {(Q(0),): QuadExt(1), (Q(1),): QuadExt(1)}

    def test_negative_valuation_terms(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        terms, tail = ((1 + t) / t).expand(F.group.elem(0))
        assert tail is False
        assert terms.terms == {(Q(-1),): QuadExt(1), (Q(0),): QuadExt(1)}

    def test_budget_exhaustion_rank2(self):
        # below the cutoff (1,0) sit infinitely many exponents (0,k)
        F = rank2_field()
        u = F.monomial(F.group.elem(0, 1))
        x = 1 / (1 - u)
        with pytest.raises(ExpansionBudgetError):
            x.expand(F.group.elem(1, 0), max_steps=DEFAULT_MAX_STEPS)
        terms, tail = x.expand(F.group.elem(0, 40), max_steps=100)
        assert tail is True
        assert len(terms.terms) == 41

    def test_expansion_matches_value(self):
        # head + remainder reconstructs the element exactly
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        x = (3 - t ** 2) / (1 - 2 * t)
        terms, tail = x.expand(F.group.elem(6))
        head = F.zero()
        for g in terms.support():
            head = head + F.monomial(g, terms.terms[g.coords])
        assert tail is True
        assert (x - head).val().cmp(F.group.elem(6)) > 0


class TestResidue:
    def test_unit_residue(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        assert ((2 + t) / (1 + t)).residue() == QuadExt(2)

    def test_infinitesimal_residue(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        assert (t / (1 + t)).residue() == QuadExt(0)

    def test_infinite_residue(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        assert ((1 + t) / t).residue() is INF

    def test_quadratic_residue(self):
        F = rank1_field().extend_coeff("F2", 2)
        t = F.monomial(F.group.elem(1))
        r2 = F.const(QuadExt.sqrt(2))
        x = (r2 + t) / (1 - t)
        assert x.residue() == QuadExt.sqrt(2)

    def test_residue_matches_expansion_head(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        rng = random.Random(7)
        for _ in range(50):
            num = F.const(rng.randint(1, 9)) + rng.randint(-9, 9) * t
            den = F.one() + rng.randint(-9, 9) * t
            x = num / den
            if x.is_zero() or x.val().sign() != 0:
                continue
            terms, _ = x.expand(F.group.elem(0))
            assert x.residue() == terms.terms[(Q(0),)]


class TestFieldAxioms:
    def _sample(self, F, rng, allow_sqrt=False):
        group = F.group

        def sum_of_terms():
            h = HahnSum.zero(group)
            for _ in range(rng.randint(1, 3)):
                coords = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(group.rank))
                a = Q(rng.randint(-5, 5))
                b = Q(rng.randint(-2, 2)) if allow_sqrt else Q(0)
                c = QuadExt(a, b, 2 if allow_sqrt else None)
                h = h + HahnSum.monomial(group, group.elem(coords), c)
            return h

        num = sum_of_terms()
        den = sum_of_terms()
        while den.is_zero():
            den = sum_of_terms()
        from rplaces.ordfield import FieldElement
        return FieldElement(F, num, den)

    def test_axioms_rank1(self):
        F = rank1_field()
        rng = random.Random(11)
        for _ in range(600):
            x = self._sample(F, rng)
            y = self._sample(F, rng)
            z = self._sample(F, rng)
            assert ((x + y) + z).cmp(x + (y + z)) == 0
            assert ((x * y) * z).cmp(x * (y * z)) == 0
            assert (x * (y + z)).cmp(x * y + x * z) == 0
            assert (x + y).cmp(y + x) == 0
            if not y.is_zero():
                assert ((x * y) / y).cmp(x) == 0

    def test_axioms_rank2_sqrt(self):
        F = FieldDescriptor("F", 2, ValueGroup(LEX, 2))
        rng = random.Random(13)
        for _ in range(400):
            x = self._sample(F, rng, allow_sqrt=True)
            y = self._sample(F, rng, allow_sqrt=True)
            z = self._sample(F, rng, allow_sqrt=True)
            assert ((x + y) + z).cmp(x + (y + z)) == 0
            assert (x * (y + z)).cmp(x * y + x * z) == 0
            if not y.is_zero():
                assert ((x * y) / y).cmp(x) == 0

    def test_order_compatibility(self):
        F = rank1_field()
        rng = random.Random(17)
        for _ in range(400):
            x = self._sample(F, rng)
            y = self._sample(F, rng)
            z = self._sample(F, rng)
            if x.cmp(y) < 0:
                assert (x + z).cmp(y + z) < 0
            if x.sign() > 0 and y.sign() > 0:
                assert (x * y).sign() > 0

    def test_valuation_rules(self):
        F = rank2_field()
        rng = random.Random(19)
        for _ in range(400):
            x = self._sample(F, rng)
            y = self._sample(F, rng)
            if x.is_zero() or y.is_zero():
                continue
            assert (x * y).val() == x.val() + y.val()
            s = x + y
            if not s.is_zero():
                assert s.val().cmp(min(x.val(), y.val())) >= 0


CMP_FIELDS = [
    FieldDescriptor("L1", None, ValueGroup(LEX, 1)),
    FieldDescriptor("L2r", 2, ValueGroup(LEX, 2)),
    FieldDescriptor("L1r", 1000003, ValueGroup(LEX, 1)),
    FieldDescriptor("W", None, ValueGroup(WEIGHTED, 2,
                                          (QuadExt(1), QuadExt.sqrt(2)))),
    FieldDescriptor("Wr", 2, ValueGroup(WEIGHTED, 2,
                                        (QuadExt(1), QuadExt.sqrt(2)))),
]


@st.composite
def element_pairs(draw):
    """Two elements of one field, each with a denominator of 2-3 terms."""
    F = draw(st.sampled_from(CMP_FIELDS))
    coord = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    part = st.integers(-3, 3)

    def sum_of(lo):
        h = HahnSum.zero(F.group)
        for _ in range(draw(st.integers(lo, 3))):
            e = F.group.elem(draw(st.tuples(*[coord] * F.group.rank)))
            c = QuadExt(draw(part), draw(part) if F.coeff_d else 0, F.coeff_d)
            h = h + HahnSum.monomial(F.group, e, c)
        return h

    def element():
        den = sum_of(2)
        if len(den.terms) < 2:  # exponents 5 and 6 are past every drawn one
            for e in (5, 6):
                den = den + HahnSum.monomial(
                    F.group, F.group.elem((Q(e),) * F.group.rank), QuadExt(e))
        return FieldElement(F, sum_of(1), den)

    return element(), element()


class TestComparisonBySign:
    @settings(max_examples=60, deadline=None)
    @given(element_pairs())
    def test_cmp_is_the_sign_of_the_difference(self, pair):
        x, y = pair
        for z in pair:
            assert z.is_zero() or not z.den._is_unit()
        s = (x - y).sign()
        assert x.cmp(y) == s and y.cmp(x) == -s
        assert (x == y) == (s == 0) and (x != y) == (s != 0)
        assert (x < y) == (s < 0) and (y < x) == (s > 0)
        assert x.cmp(x) == 0
        if not y.is_zero():
            assert x == x * y / y and x.cmp(x * y / y) == 0
        assert x.cmp(0) == x.sign() and (x == 0) == x.is_zero()


class TestAdjoinInfinitesimal:
    def test_positive_above_zero(self):
        F = rank1_field()
        Fe, eps = adjoin_infinitesimal(F, F.group.above(F.group.zero()))
        assert eps.sign() > 0
        assert eps.cmp(0) > 0
        t = lift(F.monomial(F.group.elem(1)), Fe)
        one = Fe.one()
        assert eps.cmp(one) < 0 and t.cmp(eps) < 0  # t << eps << 1

    def test_negative_sign(self):
        F = rank1_field()
        Fe, eps = adjoin_infinitesimal(F, F.group.above(F.group.zero()),
                                       sign=-1)
        assert eps.sign() < 0
        assert (-eps).cmp(0) > 0

    def test_coset_edge_example(self):
        F = rank2_field()
        pos = F.group.coset_edge(F.group.zero(), 1, 1)
        Fe, eps = adjoin_infinitesimal(F, pos)
        assert eps.val().coords == (Q(0), Q(1), Q(0))

    def test_placement_sampled(self):
        rng = random.Random(23)
        F = rank2_field()
        group = F.group
        count = 0
        while count < 120:
            g = group.elem(Q(rng.randint(-6, 6), rng.randint(1, 3)),
                           Q(rng.randint(-6, 6), rng.randint(1, 3)))
            choice = rng.randrange(4)
            if choice == 0:
                at = group.above(g)
            elif choice == 1:
                at = group.below(g)
            elif choice == 2:
                at = group.coset_edge(g, 1, rng.choice((-1, 1)))
            else:
                at = rng.choice((group.minus_inf(), group.plus_inf()))
            Fe, eps = adjoin_infinitesimal(F, at)
            tg = lift(F.monomial(g), Fe)
            # |eps| > t^g exactly when v(eps) < g, i.e. g lies above `at`
            big = abs(eps).cmp(tg) > 0
            assert big == (at.side_of(g) > 0)
            count += 1

    def test_rejects_element_position(self):
        F = rank1_field()
        with pytest.raises(ValueError):
            adjoin_infinitesimal(F, F.group.at(F.group.zero()))


class TestApproxAnalysis:
    def test_in_subfield_through_fraction(self):
        F = rank2_field()
        R = F.subfield("R", mask=(0,))
        s = F.monomial(F.group.elem(1, 0))
        x = (1 - s * s) / (1 - s)   # equals 1 + s, supported in the subgroup
        res = approx_analysis(x, R)
        assert isinstance(res, InSubfield)
        r = res.approximant
        assert r.field is R
        assert lift(r, F).cmp(x) == 0
        assert settled_analysis(x, R).approximant.cmp(r) == 0

    def test_exponent_obstruction(self):
        F = rank2_field()
        R = F.subfield("R", mask=(1,))
        s = F.monomial(F.group.elem(1, 0))
        u = F.monomial(F.group.elem(0, 1))
        res = approx_analysis(u + s, R)
        assert isinstance(res, Obstructed)
        assert res.obstruction == "exponent"
        assert res.gamma0 == F.group.elem(1, 0)
        assert res.coeff == QuadExt(1)
        assert lift(res.approximant, F).cmp(u) == 0
        # best approximation distance is attained at gamma0
        assert ((u + s) - lift(res.approximant, F)).val() == res.gamma0

    def test_coefficient_obstruction(self):
        F = rank1_field().extend_coeff("Fs", 2)
        R = F.subfield("R", coeff_d=None)
        t = F.monomial(F.group.elem(1))
        r2 = F.const(QuadExt.sqrt(2))
        res = approx_analysis(1 + r2 * t, R)
        assert isinstance(res, Obstructed)
        assert res.obstruction == "coefficient"
        assert res.gamma0 == F.group.elem(1)
        assert res.coeff == QuadExt.sqrt(2)
        assert lift(res.approximant, F).cmp(1) == 0

    def test_exhaustion(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        res = approx_analysis(1 / (1 - t), F, max_steps=8)
        assert isinstance(res, Exhausted)
        with pytest.raises(ExpansionBudgetError):
            settled_analysis(1 / (1 - t), F, max_steps=8)

    def test_obstruction_bounds_every_approximant(self):
        # sampled r never beats r*: v(x - r) <= gamma0
        F = rank1_field().extend_coeff("Fs", 2)
        R = F.subfield("R", coeff_d=None)
        t = F.monomial(F.group.elem(1))
        x = 1 / (1 - F.const(QuadExt.sqrt(2)) * t)
        res = approx_analysis(x, R)
        assert isinstance(res, Obstructed)
        assert res.gamma0 == F.group.elem(1)
        rng = random.Random(29)
        for _ in range(60):
            r = R.const(rng.randint(-3, 3))
            tr = R.monomial(R.group.elem(1), rng.randint(-3, 3))
            cand = lift(r + tr, F)
            d = x - cand
            assert d.val().cmp(res.gamma0) <= 0


class TestPrinting:
    def test_plain_sum(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        assert str(1 - t * t) == "1-t^(2)"
        assert str(F.monomial(F.group.elem(Q(1, 2)))) == "t^(1/2)"

    def test_fraction_form(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        assert str(t / (1 - t)) == "(t^(1))/(1-t^(1))"

    def test_rank2_exponents(self):
        F = rank2_field()
        u = F.monomial(F.group.elem(0, 1), Q(3, 2))
        assert str(u) == "3/2*t^((0,1))"

    def test_quadratic_coefficient(self):
        F = rank1_field().extend_coeff("Fs", 2)
        x = F.monomial(F.group.elem(1), QuadExt(1, 1, 2))
        assert str(x) == "(1+sqrt(2))*t^(1)"
