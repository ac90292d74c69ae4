"""Cut construction, ordering, equivalence, classification, restriction,
fibers and the elements found between cuts."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rplaces.cuts as cuts_module
import rplaces.ordfield as ordfield_module
import rplaces.places as places_module
from rplaces.balls import Ball, ball_eq
from rplaces.coeff import QuadExt
from rplaces.cuts import (
    ABOVE, BELOW, EQ, GT, LT, CutComparisonError, classify, cut_cmp,
    cut_edge, cut_filler, cut_lt_witness, cut_minus_inf, cut_plus_inf,
    cut_principal, equivalent, fiber, find_between, is_full_ball_interval,
    restrict, side_of,
)
from rplaces.ordfield import (
    ExpansionBudgetError, FieldDescriptor, FieldMismatchError,
    adjoin_infinitesimal, lift, obstruction,
)
from rplaces.places import find_separating_function
from rplaces.valgroup import LEX, LOWER, UPPER, FinalSegment, ValueGroup

Q = Fraction


def rational_field(name="R"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 1))


def sqrt2_pair():
    """Rank-1 field with rational coefficients and its quadratic
    coefficient extension, plus the new constant."""
    R = rational_field()
    F = R.extend_coeff("F", 2)
    return R, F, F.const(QuadExt(0, 1, 2))


def tail_pair():
    """R living on the trailing lex coordinate of a rank-2 field, so vR is
    neither cofinal nor coinitial in vF."""
    F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
    R = F.subfield("R", mask=(1,))
    return R, F


def seg_above(group, *coords):
    return FinalSegment(group.above(group.elem(*coords)))


def seg_at_least(group, *coords):
    return FinalSegment(group.below(group.elem(*coords)))


def random_element(F, rng, span=4):
    """A nonzero plain sum with small rational coefficients."""
    n = rng.randint(1, 3)
    x = F.zero()
    exps = rng.sample(range(-span, span + 1), n)
    for e in exps:
        c = Q(rng.randint(-9, 9), rng.randint(1, 4))
        x = x + F.monomial(F.group.elem(Q(e, 2)), c)
    return x if not x.is_zero() else F.one()


class TestFactories:
    def test_principal_is_singleton_edge(self):
        R = rational_field()
        C = cut_principal(R.one(), UPPER)
        assert C.kind == "edge"
        assert C.is_principal()
        assert C.ball.is_singleton()

    def test_whole_field_edges_normalize(self):
        R = rational_field()
        B = Ball(R, R.zero(), FinalSegment(R.group.minus_inf()))
        assert cut_edge(B, LOWER).kind == "minus_inf"
        assert cut_edge(B, UPPER).kind == "plus_inf"

    def test_filler_needs_proper_extension(self):
        R, F, rt2 = sqrt2_pair()
        with pytest.raises(ValueError):
            cut_filler(rt2, UPPER, F)
        # an extension element that collapses into the base field
        with pytest.raises(ValueError):
            cut_filler(F.const(3), UPPER, R)

    def test_filler_needs_declared_embedding(self):
        R, F, rt2 = sqrt2_pair()
        other = rational_field("other")
        with pytest.raises(FieldMismatchError):
            cut_filler(rt2, UPPER, other)

    def test_filler_budget(self):
        R, F, rt2 = sqrt2_pair()
        x = F.zero()
        for k in range(1, 80):
            x = x + F.monomial(F.group.elem(k))
        with pytest.raises(ExpansionBudgetError):
            cut_filler(x + rt2 * F.monomial(F.group.elem(100)), UPPER, R)
        C = cut_filler(x + rt2 * F.monomial(F.group.elem(100)), UPPER, R,
                       max_steps=200)
        assert C.kind == "filler"

    def test_bad_side(self):
        R = rational_field()
        with pytest.raises(ValueError):
            cut_principal(R.one(), 0)


class TestSideOf:
    def test_below_principal(self):
        R = rational_field()
        assert side_of(cut_principal(R.zero(), UPPER), R.const(-5)) == BELOW
        assert side_of(cut_principal(R.zero(), UPPER), R.zero()) == BELOW
        assert side_of(cut_principal(R.zero(), LOWER), R.zero()) == ABOVE

    def test_ball_member_below_upper_edge(self):
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        C = cut_edge(B, UPPER)
        assert side_of(C, t ** 3) == BELOW
        assert side_of(C, R.one()) == ABOVE
        assert side_of(cut_edge(B, LOWER), t ** 3) == ABOVE

    def test_filler_splits_rationals(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, UPPER, R)
        assert side_of(C, R.const(Q(7, 5))) == BELOW
        assert side_of(C, R.const(Q(3, 2))) == ABOVE
        assert side_of(C, R.const(Q(41, 29))) == BELOW
        assert side_of(C, R.const(Q(99, 70))) == ABOVE

    def test_improper(self):
        R = rational_field()
        x = R.const(-1000)
        assert side_of(cut_minus_inf(R), x) == ABOVE
        assert side_of(cut_plus_inf(R), x) == BELOW


class TestCutCmp:
    def test_principal_order(self):
        R = rational_field()
        assert cut_cmp(cut_principal(R.zero(), UPPER),
                       cut_principal(R.one(), LOWER)) == LT

    def test_two_edges_of_one_ball(self):
        R = rational_field()
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        assert cut_cmp(cut_edge(B, LOWER), cut_edge(B, UPPER)) == LT
        assert cut_cmp(cut_edge(B, UPPER), cut_edge(B, LOWER)) == GT
        assert cut_cmp(cut_edge(B, UPPER), cut_edge(B, UPPER)) == EQ

    def test_filler_above_principal(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, LOWER, R)
        assert cut_cmp(C, cut_principal(R.one(), UPPER)) == GT
        assert cut_cmp(C, cut_principal(R.const(2), LOWER)) == LT

    def test_nested_ball_edges(self):
        R = rational_field()
        big = Ball(R, R.zero(), seg_above(R.group, 0))
        small = Ball(R, R.zero(), seg_above(R.group, 1))
        assert cut_cmp(cut_edge(big, LOWER), cut_edge(small, LOWER)) == LT
        assert cut_cmp(cut_edge(small, UPPER), cut_edge(big, UPPER)) == LT
        assert cut_cmp(cut_edge(small, LOWER), cut_edge(big, LOWER)) == GT

    def test_recentred_edges_equal(self):
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        S = seg_above(R.group, 0)
        assert cut_cmp(cut_edge(Ball(R, R.zero(), S), UPPER),
                       cut_edge(Ball(R, t, S), UPPER)) == EQ

    def test_disjoint_balls_follow_centers(self):
        R = rational_field()
        S = seg_above(R.group, 0)
        B0 = Ball(R, R.zero(), S)
        B5 = Ball(R, R.const(5), S)
        assert cut_cmp(cut_edge(B0, UPPER), cut_edge(B5, LOWER)) == LT

    def test_improper_vs_everything(self):
        R = rational_field()
        M, P = cut_minus_inf(R), cut_plus_inf(R)
        C = cut_principal(R.const(-100), LOWER)
        assert cut_cmp(M, P) == LT
        assert cut_cmp(M, C) == LT
        assert cut_cmp(C, P) == LT
        assert cut_cmp(M, M) == EQ and cut_cmp(P, P) == EQ

    def test_same_generator_both_sides_equal(self):
        R, F, rt2 = sqrt2_pair()
        lo = cut_filler(rt2, LOWER, R)
        hi = cut_filler(rt2, UPPER, R)
        assert cut_cmp(lo, hi) == EQ
        assert equivalent(lo, hi)

    def test_different_fields_rejected(self):
        R = rational_field()
        R2 = rational_field("R2")
        with pytest.raises(CutComparisonError):
            cut_cmp(cut_principal(R.zero(), UPPER),
                    cut_principal(R2.zero(), UPPER))

    def test_unrelated_extensions_reported(self):
        R = rational_field()
        F1, eps = adjoin_infinitesimal(R, R.group.plus_inf())
        F2 = R.extend_coeff("F2", 2)
        rt2 = F2.const(QuadExt(0, 1, 2))
        C1 = cut_filler(eps, UPPER, R)
        C2 = cut_filler(rt2, UPPER, R)
        with pytest.raises(CutComparisonError):
            cut_cmp(C1, C2)

    def test_construction_budget_is_the_only_budget(self):
        # both analyses need more than the default 64 steps; the cuts keep
        # the ones made under max_steps=200, and comparing never re-runs them
        R, F, rt2 = sqrt2_pair()
        x = F.zero()
        for k in range(1, 80):
            x = x + F.monomial(F.group.elem(k))
        g = x + rt2 * F.monomial(F.group.elem(100))
        C1 = cut_filler(g, UPPER, R, max_steps=200)
        C2 = cut_filler(g + F.monomial(F.group.elem(50)), UPPER, R,
                        max_steps=200)
        assert cut_cmp(C1, C2) == LT
        assert cut_cmp(C2, C1) == GT
        w = cut_lt_witness(C1, C2)
        assert side_of(C1, w) == ABOVE and side_of(C2, w) == BELOW

    def test_antisymmetry_sampled(self):
        R = rational_field()
        cuts = _population(R)
        for C1 in cuts:
            for C2 in cuts:
                assert cut_cmp(C1, C2) == -cut_cmp(C2, C1)

    def test_transitivity_sampled(self):
        R = rational_field()
        cuts = _population(R)
        for C1 in cuts:
            for C2 in cuts:
                for C3 in cuts:
                    if cut_cmp(C1, C2) <= 0 and cut_cmp(C2, C3) <= 0:
                        assert cut_cmp(C1, C3) <= 0


def _population(R):
    """A mixed bag of cuts of the rank-1 rational field."""
    F = R.extend_coeff(R.name + "^2", 2)
    rt2 = F.const(QuadExt(0, 1, 2))
    t = R.monomial(R.group.elem(1))
    cuts = [cut_minus_inf(R), cut_plus_inf(R)]
    for a in (R.zero(), R.one(), t):
        cuts.append(cut_principal(a, LOWER))
        cuts.append(cut_principal(a, UPPER))
    for center, S in ((R.zero(), seg_above(R.group, 0)),
                      (R.zero(), seg_at_least(R.group, 0)),
                      (R.zero(), seg_above(R.group, 1)),
                      (R.const(5), seg_above(R.group, 1))):
        B = Ball(R, center, S)
        cuts.append(cut_edge(B, LOWER))
        cuts.append(cut_edge(B, UPPER))
    cuts.append(cut_filler(rt2, LOWER, R))
    cuts.append(cut_filler(rt2, UPPER, R))
    cuts.append(cut_filler(rt2 * t + 1, UPPER, R))
    return cuts


class TestSideConsistency:
    def test_side_of_matches_principal_comparison(self):
        R = rational_field()
        rng = random.Random(71)
        cuts = _population(R)
        for _ in range(60):
            x = random_element(R, rng)
            for C in cuts:
                below = side_of(C, x) == BELOW
                assert below == (cut_cmp(cut_principal(x, UPPER), C) <= 0)
                assert (not below) == \
                    (cut_cmp(cut_principal(x, LOWER), C) >= 0)

    @given(st.fractions(min_value=-50, max_value=50),
           st.fractions(min_value=-50, max_value=50))
    def test_rational_principals_mirror_fractions(self, a, b):
        R = rational_field()
        Ca = cut_principal(R.const(a), UPPER)
        Cb = cut_principal(R.const(b), UPPER)
        expect = LT if a < b else (EQ if a == b else GT)
        assert cut_cmp(Ca, Cb) == expect
        if a < b:
            m = find_between(Ca, Cb)
            assert side_of(Ca, m) == ABOVE and side_of(Cb, m) == BELOW


class TestEquivalence:
    def test_ball_edges_equivalent(self):
        R = rational_field()
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        assert equivalent(cut_edge(B, LOWER), cut_edge(B, UPPER))

    def test_principal_pair_equivalent(self):
        R = rational_field()
        a = R.const(Q(7, 2))
        assert equivalent(cut_principal(a, LOWER), cut_principal(a, UPPER))

    def test_distinct_balls_not_equivalent(self):
        R = rational_field()
        S = seg_above(R.group, 0)
        B1 = Ball(R, R.zero(), S)
        B2 = Ball(R, R.const(5), S)
        assert not equivalent(cut_edge(B1, UPPER), cut_edge(B2, LOWER))

    def test_improper_pair_equivalent(self):
        R = rational_field()
        assert equivalent(cut_minus_inf(R), cut_plus_inf(R))

    def test_strict_filler_pair_around_singleton(self):
        # -s and s straddle only the point 0 of R, so their cuts are the
        # two edges of the singleton ball at 0
        R, F = tail_pair()
        s = F.monomial(F.group.elem(1, 0))
        lo = cut_filler(-s, LOWER, R)
        hi = cut_filler(s, UPPER, R)
        assert cut_cmp(lo, hi) == LT
        assert equivalent(lo, hi)

    def test_classes_never_exceed_two(self):
        R = rational_field()
        cuts = _population(R)
        for C in cuts:
            mates = [D for D in cuts if equivalent(C, D)
                     and cut_cmp(C, D) != EQ]
            distinct = []
            for D in mates:
                if all(cut_cmp(D, E) != EQ for E in distinct):
                    distinct.append(D)
            assert len(distinct) <= 1

    def test_equivalence_is_symmetric(self):
        R = rational_field()
        cuts = _population(R)
        for C1 in cuts:
            for C2 in cuts:
                assert equivalent(C1, C2) == equivalent(C2, C1)


class TestHullZones:
    def test_gap_adjacent_traces_ball_edges(self):
        R = rational_field()
        pos = R.group.below(R.group.elem(1))
        E, eps = adjoin_infinitesimal(R, pos)
        B = Ball(R, R.zero(), seg_at_least(R.group, 1))
        assert cut_cmp(cut_filler(eps, UPPER, R), cut_edge(B, UPPER)) == EQ
        assert cut_cmp(cut_filler(-eps, LOWER, R), cut_edge(B, LOWER)) == EQ
        assert equivalent(cut_filler(eps, LOWER, R), cut_edge(B, UPPER))

    def test_point_adjacent_traces_principal(self):
        R = rational_field()
        E, eps = adjoin_infinitesimal(R, R.group.plus_inf())
        a = R.const(Q(3, 4))
        C = cut_filler(lift(a, E) + eps, LOWER, R)
        assert cut_cmp(C, cut_principal(a, UPPER)) == EQ
        assert equivalent(C, cut_principal(a, LOWER))
        D = cut_filler(lift(a, E) - eps, UPPER, R)
        assert cut_cmp(D, cut_principal(a, LOWER)) == EQ

    def test_inside_hull_stays_strict(self):
        R = rational_field()
        E, eps = adjoin_infinitesimal(R, R.group.below(R.group.elem(1)))
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        C = cut_filler(eps, UPPER, R)
        lo, hi = cut_edge(B, LOWER), cut_edge(B, UPPER)
        assert cut_cmp(lo, C) == LT and cut_cmp(C, hi) == LT
        w = cut_lt_witness(C, hi)
        assert side_of(C, w) == ABOVE and side_of(hi, w) == BELOW

    def test_beyond_hull_follows_sign(self):
        R = rational_field()
        E, eps = adjoin_infinitesimal(R, R.group.below(R.group.elem(1)))
        B = Ball(R, R.one(), seg_above(R.group, 0))
        C = cut_filler(eps, UPPER, R)
        assert cut_cmp(C, cut_edge(B, LOWER)) == LT
        w = cut_lt_witness(C, cut_edge(B, LOWER))
        assert side_of(C, w) == ABOVE
        assert side_of(cut_edge(B, LOWER), w) == BELOW

    def test_generator_beyond_the_field(self):
        R = rational_field()
        E, eps = adjoin_infinitesimal(R, R.group.plus_inf())
        huge = 1 / eps
        assert cut_cmp(cut_filler(huge, LOWER, R), cut_plus_inf(R)) == EQ
        assert cut_cmp(cut_filler(-huge, UPPER, R), cut_minus_inf(R)) == EQ
        assert cut_cmp(cut_filler(huge, LOWER, R), cut_minus_inf(R)) == GT


class TestFillerPairs:
    def test_gap_scale_in_the_image(self):
        R, F = tail_pair()
        s = F.monomial(F.group.elem(1, 0))
        u5 = F.monomial(F.group.elem(0, 5))
        lo = cut_filler(s, LOWER, R)
        hi = cut_filler(s + 2 * u5, UPPER, R)
        assert cut_cmp(lo, hi) == LT
        assert cut_lt_witness(lo, hi) == R.monomial(R.group.elem(5))

    def test_gap_at_obstruction_scale(self):
        R, F, rt2 = sqrt2_pair()
        t = F.monomial(F.group.elem(1))
        lo = cut_filler(rt2 * t, LOWER, R)
        hi = cut_filler(rt2 * t + 3 * t, UPPER, R)
        assert cut_cmp(lo, hi) == LT
        assert cut_lt_witness(lo, hi) == R.monomial(R.group.elem(1), 2)

    def test_generators_from_nested_extensions(self):
        # the lower generator's analysis lives in the smaller extension F
        # and is read against distances measured in G
        R, F, rt2 = sqrt2_pair()
        G, eps = adjoin_infinitesimal(F, F.group.plus_inf())
        t = F.monomial(F.group.elem(1))
        lo = cut_filler(rt2 * t, UPPER, R)
        hi = cut_filler(lift(rt2 * t + 3 * t, G) + eps, LOWER, R)
        assert cut_cmp(lo, hi) == LT and cut_cmp(hi, lo) == GT
        assert cut_lt_witness(lo, hi) == R.monomial(R.group.elem(1), 2)
        same = cut_filler(lift(rt2 * t, G) + eps, LOWER, R)
        assert cut_cmp(lo, same) == EQ and cut_cmp(same, lo) == EQ

    def test_coefficient_nudge_slot(self):
        R, F, rt2 = sqrt2_pair()
        G, delta = adjoin_infinitesimal(F, F.group.below(F.group.elem(1)))
        t = F.monomial(F.group.elem(1))
        lo = cut_filler(lift(rt2 * t, G), LOWER, R)
        hi = cut_filler(lift(rt2 * t, G) + delta, UPPER, R)
        assert cut_cmp(lo, hi) == LT
        assert cut_lt_witness(lo, hi) == R.monomial(R.group.elem(1), 2)

    def test_exponent_slot(self):
        R = rational_field()
        G, delta = adjoin_infinitesimal(R, R.group.below(R.group.elem(0)))
        lo = cut_filler(delta, LOWER, R)
        hi = cut_filler(delta + G.monomial(G.group.elem(-1, -2)), UPPER, R)
        assert cut_cmp(lo, hi) == LT
        assert cut_lt_witness(lo, hi) == R.monomial(R.group.elem(Q(-1, 2)))

    def test_no_slot_means_equal(self):
        R = rational_field()
        G, delta = adjoin_infinitesimal(R, R.group.below(R.group.elem(1)))
        lo = cut_filler(delta, UPPER, R)
        hi = cut_filler(delta + G.monomial(G.group.elem(1, -2)), UPPER, R)
        assert cut_cmp(lo, hi) == EQ
        assert equivalent(lo, hi)

    def test_approximant_between(self):
        R, F = tail_pair()
        s = F.monomial(F.group.elem(1, 0))
        lo = cut_filler(-s, LOWER, R)
        hi = cut_filler(s, UPPER, R)
        assert cut_lt_witness(lo, hi) == R.zero()


class TestClassify:
    def test_edge_is_ball_cut(self):
        R = rational_field()
        B = Ball(R, R.one(), seg_above(R.group, 0))
        res = classify(cut_edge(B, UPPER), R.group.elem(0))
        assert res.kind == "ball"
        assert ball_eq(res.ball, B) and res.side == UPPER

    def test_principal_edge(self):
        R = rational_field()
        res = classify(cut_principal(R.one(), LOWER), R.group.elem(0))
        assert res.kind == "principal"
        assert res.element == R.one() and res.side == LOWER

    def test_improper_is_whole_field_ball(self):
        R = rational_field()
        res = classify(cut_plus_inf(R), R.group.elem(0))
        assert res.kind == "ball"
        assert res.ball.is_whole_field() and res.side == UPPER

    def test_quadratic_generator_is_non_ball(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, LOWER, R)
        res = classify(C, R.group.elem(3))
        assert res.kind == "non_ball"
        cert = res.certificate
        assert cert.gamma0 == R.group.elem(0)
        assert cert.coeff == QuadExt(0, 1, 2)
        assert cert.approximant == R.zero()
        assert len(cert.refutations) == 12
        closed = seg_at_least(R.group, 0)
        open_ = seg_above(R.group, 0)
        radii = {ref.radius.boundary.key for ref in cert.refutations}
        assert radii == {closed.boundary.key, open_.boundary.key}
        for ref in cert.refutations:
            edge = cut_edge(Ball(R, ref.center, ref.radius), ref.side)
            assert side_of(C, ref.witness) != side_of(edge, ref.witness)

    def test_deep_non_ball_keeps_approximant(self):
        R, F, rt2 = sqrt2_pair()
        t = F.monomial(F.group.elem(1))
        C = cut_filler(1 + rt2 * t, UPPER, R)
        res = classify(C, R.group.elem(3))
        assert res.kind == "non_ball"
        assert res.certificate.gamma0 == R.group.elem(1)
        assert res.certificate.approximant == R.one()

    def test_generator_above_every_scale_is_principal(self):
        R, F = tail_pair()
        u = F.monomial(F.group.elem(0, 1))
        s = F.monomial(F.group.elem(1, 0))
        C = cut_filler(u + s, UPPER, R)
        res = classify(C, F.group.elem(2, 0))
        assert res.kind == "principal"
        assert res.element == R.monomial(R.group.elem(1))
        assert res.side == UPPER
        neg = classify(cut_filler(u - s, UPPER, R), F.group.elem(2, 0))
        assert neg.kind == "principal" and neg.side == LOWER

    def test_interior_scale_is_ball_cut(self):
        R = rational_field()
        E, eps = adjoin_infinitesimal(R, R.group.below(R.group.elem(1)))
        C = cut_filler(eps, UPPER, R)
        res = classify(C, R.group.elem(3))
        assert res.kind == "ball"
        assert ball_eq(res.ball, Ball(R, R.zero(), seg_at_least(R.group, 1)))
        assert res.side == UPPER
        edge = cut_edge(res.ball, res.side)
        rng = random.Random(73)
        for _ in range(120):
            x = random_element(R, rng)
            assert side_of(C, x) == side_of(edge, x)

    def test_cutoff_reports_unknown(self):
        R, F = tail_pair()
        u = F.monomial(F.group.elem(0, 1))
        s = F.monomial(F.group.elem(1, 0))
        C = cut_filler(u + s, UPPER, R)
        res = classify(C, R.group.elem(5))
        assert res.kind == "unknown"
        assert res.reached == R.group.elem(5)

    def test_budget_reports_unknown(self):
        R, F = tail_pair()
        s = F.monomial(F.group.elem(1, 0))
        g = s
        for k in range(1, 12):
            g = g + F.monomial(F.group.elem(0, k))
        C = cut_filler(g, UPPER, R)
        res = classify(C, F.group.elem(2, 0), max_steps=3)
        assert res.kind == "unknown"
        assert res.reached is None

    def test_agrees_with_shared_analysis(self):
        """classify against obstruction() on filler cuts with a cutoff
        below, at and above the obstruction, and with budgets smaller than
        the number of terms in front of it."""
        R, F, rt2 = sqrt2_pair()
        t = F.monomial(F.group.elem(1))
        coeff_case = (R, F, 1 + t + t * t + rt2 * t ** 3)
        R2, F2 = tail_pair()
        u = F2.monomial(F2.group.elem(0, 1))
        s = F2.monomial(F2.group.elem(1, 0))
        exp_case = (R2, F2, u + u * u - s)
        for base, ext, g in (coeff_case, exp_case):
            C = cut_filler(g, UPPER, base)
            res = obstruction(g, base)
            gamma0 = res.gamma0
            below = ext.group.elem(*gamma0.coords[:-1],
                                   gamma0.coords[-1] - Q(1, 2))
            above = ext.group.elem(*gamma0.coords[:-1],
                                   gamma0.coords[-1] + 1)
            unknown = classify(C, below)
            assert unknown.kind == "unknown" and unknown.reached == below
            assert unknown.reason == "no obstruction at or below the cutoff"
            for cutoff in (gamma0, above):
                out = classify(C, cutoff)
                if res.obstruction == "coefficient":
                    assert out.kind == "non_ball"
                    cert = out.certificate
                    assert cert.coeff == res.coeff
                    assert cert.approximant == res.approximant
                    assert cert.gamma0 == base.group.elem(gamma0.coords)
                else:
                    assert out.kind == "principal"
                    assert out.element == res.approximant
                    assert out.side == (UPPER if res.coeff.sign() > 0
                                        else LOWER)
            # two terms precede each obstruction; with one step the budget
            # runs out, and the cutoff decides which reason is reported
            first = g.val()
            budget = classify(C, above, max_steps=1)
            assert budget.kind == "unknown" and budget.reached is None
            assert budget.reason == "term extraction exceeded the step budget"
            assert classify(C, first, max_steps=1).reached is None
            under = ext.group.elem(*first.coords[:-1],
                                   first.coords[-1] - 1)
            early = classify(C, under, max_steps=2)
            assert early.kind == "unknown" and early.reached == under
            assert early.reason == "no obstruction at or below the cutoff"

    def test_foreign_precision_rejected(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, LOWER, R)
        with pytest.raises(ValueError):
            classify(C, ValueGroup(LEX, 3).elem(0, 0, 0))


class TestRestrict:
    def test_ball_missing_subfield_becomes_filler(self):
        R, F, rt2 = sqrt2_pair()
        B = Ball(F, rt2, seg_above(F.group, 0))
        lo = restrict(cut_edge(B, LOWER), R)
        hi = restrict(cut_edge(B, UPPER), R)
        assert lo.kind == "filler" and hi.kind == "filler"
        assert cut_cmp(lo, hi) == EQ
        for q in (Q(1), Q(7, 5), Q(41, 29), Q(3, 2), Q(2)):
            assert side_of(lo, R.const(q)) == \
                side_of(cut_edge(B, LOWER), F.const(q))

    def test_radius_restricts_coordinatewise(self):
        R, F = tail_pair()
        S = FinalSegment(F.group.above(F.group.elem(0, 2)))
        C = cut_edge(Ball(F, F.zero(), S), UPPER)
        res = restrict(C, R)
        assert res.kind == "edge"
        expected = Ball(R, R.zero(), seg_above(R.group, 2))
        assert ball_eq(res.ball, expected) and res.side == UPPER

    def test_improper_stays_improper(self):
        R, F = tail_pair()
        assert restrict(cut_plus_inf(F), R).kind == "plus_inf"
        assert restrict(cut_minus_inf(F), R).kind == "minus_inf"

    def test_undeclared_subfield_rejected(self):
        R = rational_field()
        other = rational_field("other")
        with pytest.raises(FieldMismatchError):
            restrict(cut_plus_inf(R), other)

    def test_preserves_order_and_equivalence(self):
        R, F, rt2 = sqrt2_pair()
        t = F.monomial(F.group.elem(1))
        cuts = [cut_minus_inf(F), cut_plus_inf(F),
                cut_principal(F.zero(), UPPER),
                cut_principal(rt2, LOWER), cut_principal(rt2, UPPER)]
        for center, S in ((F.zero(), seg_above(F.group, 0)),
                          (rt2, seg_above(F.group, 0)),
                          (rt2 * t, seg_above(F.group, 1)),
                          (F.const(5), seg_at_least(F.group, 0))):
            B = Ball(F, center, S)
            cuts.append(cut_edge(B, LOWER))
            cuts.append(cut_edge(B, UPPER))
        down = [restrict(C, R) for C in cuts]
        for C1, D1 in zip(cuts, down):
            for C2, D2 in zip(cuts, down):
                order = cut_cmp(C1, C2)
                got = cut_cmp(D1, D2)
                assert got == order or got == EQ
                if equivalent(C1, C2):
                    assert equivalent(D1, D2)


class TestFiber:
    def test_coefficient_extension_fibers_are_singletons(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_edge(Ball(R, R.zero(), seg_above(R.group, 0)), UPPER)
        fd = fiber(C, F)
        assert fd.singleton
        assert cut_cmp(fd.lower, fd.upper) == EQ
        assert cut_cmp(restrict(fd.lower, R), C) == EQ
        assert fiber(cut_plus_inf(R), F).singleton

    def test_principal_over_sparse_image(self):
        R, F = tail_pair()
        a = R.one()
        fd = fiber(cut_principal(a, UPPER), F)
        assert not fd.singleton
        assert cut_cmp(fd.lower, cut_principal(lift(a, F), UPPER)) == EQ
        hull = Ball(F, lift(a, F),
                    FinalSegment(F.group.coset_edge(F.group.zero(), 1,
                                                    UPPER)))
        assert cut_cmp(fd.upper, cut_edge(hull, UPPER)) == EQ
        assert cut_cmp(restrict(fd.lower, R), cut_principal(a, UPPER)) == EQ
        assert cut_cmp(restrict(fd.upper, R), cut_principal(a, UPPER)) == EQ

    def test_plus_inf_over_sparse_image(self):
        R, F = tail_pair()
        fd = fiber(cut_plus_inf(R), F)
        assert not fd.singleton
        assert fd.upper.kind == "plus_inf"
        hull = Ball(F, F.zero(),
                    FinalSegment(F.group.coset_edge(F.group.zero(), 1,
                                                    LOWER)))
        assert cut_cmp(fd.lower, cut_edge(hull, UPPER)) == EQ
        assert restrict(fd.lower, R).kind == "plus_inf"

    def test_filler_fiber_is_between_ball(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, UPPER, R)
        fd = fiber(C, F)
        assert not fd.singleton
        B = Ball(F, rt2, seg_above(F.group, 0))
        assert cut_cmp(fd.lower, cut_edge(B, LOWER)) == EQ
        assert cut_cmp(fd.upper, cut_edge(B, UPPER)) == EQ
        assert cut_cmp(restrict(fd.lower, R), C) == EQ
        assert cut_cmp(restrict(fd.upper, R), C) == EQ

    def test_ball_edge_roundtrip(self):
        R, F = tail_pair()
        C = cut_edge(Ball(R, R.one(), seg_above(R.group, 2)), LOWER)
        fd = fiber(C, F)
        assert cut_cmp(restrict(fd.lower, R), C) == EQ
        assert cut_cmp(restrict(fd.upper, R), C) == EQ
        assert cut_cmp(fd.lower, fd.upper) <= 0

    def test_undeclared_extension_rejected(self):
        R = rational_field()
        other = rational_field("other")
        with pytest.raises(FieldMismatchError):
            fiber(cut_plus_inf(R), other)


class TestFindBetween:
    def test_midpoint_of_principals(self):
        R = rational_field()
        a = find_between(cut_principal(R.zero(), UPPER),
                         cut_principal(R.one(), LOWER))
        assert a == R.const(Q(1, 2))

    def test_above_a_ball(self):
        R = rational_field()
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        a = find_between(cut_edge(B, UPPER), cut_plus_inf(R))
        assert a == R.const(2)
        assert side_of(cut_edge(B, UPPER), a) == ABOVE

    def test_below_zero(self):
        R = rational_field()
        a = find_between(cut_minus_inf(R), cut_principal(R.zero(), LOWER))
        assert a == R.const(-1)

    def test_point_between_its_own_edges(self):
        R = rational_field()
        a = R.const(Q(7, 3))
        assert find_between(cut_principal(a, LOWER),
                            cut_principal(a, UPPER)) == a

    def test_requires_strict_order(self):
        R = rational_field()
        C = cut_principal(R.zero(), UPPER)
        with pytest.raises(ValueError):
            find_between(C, C)
        with pytest.raises(ValueError):
            find_between(cut_principal(R.one(), LOWER), C)

    def test_fallback_to_witness(self):
        R, F, rt2 = sqrt2_pair()
        C = cut_filler(rt2, UPPER, R)
        a = find_between(cut_principal(R.zero(), UPPER), C)
        assert side_of(C, a) == BELOW and a.sign() > 0

    def test_decides_the_order_once(self, monkeypatch):
        R, F, rt2 = sqrt2_pair()
        calls = []
        order = cuts_module._order

        def counted(C1, C2):
            calls.append((C1, C2))
            return order(C1, C2)

        monkeypatch.setattr(cuts_module, "_order", counted)
        C1 = cut_principal(R.zero(), UPPER)
        C2 = cut_filler(rt2, UPPER, R)
        a = find_between(C1, C2)
        assert side_of(C1, a) == ABOVE and side_of(C2, a) == BELOW
        assert len(calls) == 1

    def test_side_checks_on_population(self):
        R = rational_field()
        cuts = _population(R)
        for C1 in cuts:
            for C2 in cuts:
                if cut_cmp(C1, C2) != LT:
                    continue
                a = find_between(C1, C2)
                assert side_of(C1, a) == ABOVE
                assert side_of(C2, a) == BELOW


class TestWitness:
    def test_requires_strict_order(self):
        R = rational_field()
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        with pytest.raises(ValueError):
            cut_lt_witness(cut_edge(B, UPPER), cut_edge(B, LOWER))
        with pytest.raises(ValueError):
            cut_lt_witness(cut_edge(B, UPPER), cut_edge(B, UPPER))

    def test_nested_edges_witnessed_inside_gap(self):
        R = rational_field()
        big = Ball(R, R.zero(), seg_above(R.group, 0))
        small = Ball(R, R.zero(), seg_above(R.group, 2))
        w = cut_lt_witness(cut_edge(big, LOWER), cut_edge(small, LOWER))
        assert side_of(cut_edge(big, LOWER), w) == ABOVE
        assert side_of(cut_edge(small, LOWER), w) == BELOW

    def test_population_witnesses(self):
        R = rational_field()
        cuts = _population(R)
        for C1 in cuts:
            for C2 in cuts:
                if cut_cmp(C1, C2) != LT:
                    continue
                w = cut_lt_witness(C1, C2)
                assert side_of(C1, w) == ABOVE
                assert side_of(C2, w) == BELOW


class TestFullBallInterval:
    def test_relations_report(self):
        R = rational_field()
        t = R.monomial(R.group.elem(1))
        B = Ball(R, R.zero(), seg_above(R.group, 0))
        samples = [Ball(R, R.const(5), seg_above(R.group, 0)),
                   Ball(R, R.zero(), seg_above(R.group, 1)),
                   Ball(R, t, seg_above(R.group, 0)),
                   Ball(R, R.zero(), seg_at_least(R.group, 0))]
        report = is_full_ball_interval(B, samples)
        assert report.all_consistent
        assert [c["relation"] for c in report.cases] == \
            ["disjoint", "inside", "equal", "contains"]

    def test_member_singletons_sit_inside(self):
        R = rational_field()
        rng = random.Random(77)
        B = Ball(R, R.one(), seg_above(R.group, 1))
        S = FinalSegment(R.group.plus_inf())
        samples = []
        for _ in range(20):
            d = R.monomial(R.group.elem(Q(rng.randint(3, 9), 2)),
                           rng.choice((-1, 1)) * rng.randint(1, 5))
            samples.append(Ball(R, B.center + d, S))
        report = is_full_ball_interval(B, samples)
        assert report.all_consistent
        assert all(c["relation"] == "inside" for c in report.cases)


# -- filler normal forms ------------------------------------------------------

def _tail_fillers(*elems):
    """Filler cuts of R (the trailing coordinate of a rank-2 field) traced
    by elements of F given as {exponent: coefficient} maps."""
    R, F = tail_pair()
    cuts = []
    for terms in elems:
        g = F.zero()
        for e, c in terms.items():
            g = g + F.monomial(F.group.elem(*e), c)
        cuts.append(cut_filler(g, LOWER, R))
    return R, F, cuts


class TestStoredAnalysis:
    def test_order_operations_run_no_analysis(self, monkeypatch):
        R, F, rt2 = sqrt2_pair()
        E, eps = adjoin_infinitesimal(F, F.group.plus_inf())
        C1 = cut_filler(rt2, UPPER, R)
        C2 = cut_filler(rt2 + 3, LOWER, R)
        Cx = cut_filler(lift(F.one(), E) + eps, UPPER, R)
        Ce = cut_edge(Ball(R, R.const(5), seg_above(R.group, 0)), LOWER)
        cuts = [C1, C2, Cx, Ce]
        assert Cx.normal is not None and C1.normal is None

        def refuse(*args, **kwargs):
            raise AssertionError("an order operation ran an analysis")

        for module in (cuts_module, places_module, ordfield_module):
            for name in ("obstruction", "approx_analysis",
                         "settled_analysis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert cut_cmp(C1, C2) == LT and cut_cmp(C2, C1) == GT
        probes = [R.const(q) for q in (-1, 1, Q(3, 2), 2, 4, 5, 6)]
        for A in cuts:
            for x in probes:
                assert side_of(A, x) in (ABOVE, BELOW)
            for B in cuts:
                assert cut_cmp(A, B) == -cut_cmp(B, A)
                if cut_cmp(A, B) != LT:
                    continue
                assert not equivalent(A, B)
                for a in (cut_lt_witness(A, B), find_between(A, B)):
                    assert side_of(A, a) == ABOVE and side_of(B, a) == BELOW
        f, v1, v2 = find_separating_function(C1, C2)
        assert v1 != v2


class TestNormalForm:
    def test_beyond_and_infinitesimal_fillers_order_transitively(self):
        # 1 - t^(-1,0) lies below every element of R and -1 + t^(1,0) just
        # above -1, so -2 separates them
        R, F, (C1, C2) = _tail_fillers({(0, 0): 1, (-1, 0): -1},
                                       {(0, 0): -1, (1, 0): 1})
        M = cut_minus_inf(R)
        assert cut_cmp(C1, M) == EQ
        assert cut_cmp(M, C2) == LT
        assert cut_cmp(C1, C2) == LT
        assert side_of(C1, R.const(-2)) == ABOVE
        assert side_of(C2, R.const(-2)) == BELOW
        w = cut_lt_witness(C1, C2)
        assert side_of(C1, w) == ABOVE and side_of(C2, w) == BELOW

    def test_fiber_of_disguised_principal_restricts_back(self):
        # 2t^(0,3) + t^(1,-4/3) fills the cut (2t^3)+ of R
        R, F, (D,) = _tail_fillers({(0, 3): 2, (1, Q(-4, 3)): 1})
        assert cut_cmp(D.normal, cut_principal(R.monomial(R.group.elem(3),
                                                          2), UPPER)) == EQ
        fd = fiber(D, F)
        assert cut_cmp(restrict(fd.lower, R), D) == EQ
        assert cut_cmp(restrict(fd.upper, R), D) == EQ

    def test_fiber_of_filler_beyond_the_field(self):
        R, F, (D,) = _tail_fillers({(-1, 2): 1, (0, -1): -1})
        assert D.normal.kind == "plus_inf"
        fd, top = fiber(D, F), fiber(cut_plus_inf(R), F)
        assert cut_cmp(fd.lower, top.lower) == EQ
        assert cut_cmp(fd.upper, top.upper) == EQ
        assert fd.singleton == top.singleton

    def test_filler_restriction_runs_its_analysis(self):
        # over F the generator leaves through its sqrt(2) coefficient, over
        # R through an exponent, so the restriction is a disguised edge
        R, F = tail_pair()
        W = F.extend_coeff("W", 2)
        g = W.monomial(W.group.elem(0, 1)) + \
            W.monomial(W.group.elem(1, 0), QuadExt(0, 1, 2))
        C = cut_filler(g, UPPER, F)
        assert C.normal is None
        D = restrict(C, R)
        assert D.kind == "filler"
        assert cut_cmp(D.normal, cut_principal(R.monomial(R.group.elem(1)),
                                               UPPER)) == EQ
        with pytest.raises(ExpansionBudgetError):
            restrict(C, R, max_steps=1)


_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_coeff = _small_q.filter(lambda q: q != 0)


@st.composite
def _exponent_filler_case(draw):
    """An exponent filler of R, R on one coordinate of a rank-2 lex field,
    and elements of R drawn around the filler's R-part."""
    m = draw(st.sampled_from((0, 1)))
    F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
    R = F.subfield("R", mask=(m,))

    def f_exp(q, off):
        coords = [Q(0), Q(0)]
        coords[m], coords[1 - m] = q, off
        return F.group.elem(*coords)

    r_terms = draw(st.lists(st.tuples(_small_q, _coeff), max_size=3,
                            unique_by=lambda t: t[0]))
    g = F.zero()
    for q, c in r_terms:
        g = g + F.monomial(f_exp(q, 0), c)
    off = draw(st.sampled_from((Q(-1), Q(1), Q(1, 2))))
    g = g + F.monomial(f_exp(draw(_small_q), off), draw(_coeff))
    xs = []
    for _ in range(draw(st.integers(1, 4))):
        x = R.zero()
        for q, c in r_terms[:draw(st.integers(0, len(r_terms)))]:
            x = x + R.monomial(R.group.elem(q), c)
        xs.append(x + R.monomial(R.group.elem(draw(_small_q)), draw(_coeff)))
    side = draw(st.sampled_from((LOWER, UPPER)))
    return cut_filler(g, side, R), xs


@st.composite
def _coefficient_filler_and_edge(draw):
    """A sqrt(2)-coefficient filler of the rank-1 rational field and a
    ball edge centred near it."""
    R, F, rt2 = sqrt2_pair()
    terms = draw(st.lists(st.tuples(_small_q, _coeff), max_size=3,
                          unique_by=lambda t: t[0]))
    x = R.zero()
    for q, c in terms:
        x = x + R.monomial(R.group.elem(q), c)
    q0 = draw(_small_q)
    a = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    g = lift(x, F) + F.monomial(F.group.elem(q0), QuadExt(a, draw(_coeff), 2))
    C = cut_filler(g, draw(st.sampled_from((LOWER, UPPER))), R)
    center = x + R.monomial(R.group.elem(draw(_small_q)), draw(_coeff))
    radius = draw(st.sampled_from((
        R.group.seg_empty(), R.group.seg_all(),
        seg_above(R.group, draw(_small_q)),
        seg_at_least(R.group, draw(_small_q)))))
    E = cut_edge(Ball(R, center, radius), draw(st.sampled_from((LOWER,
                                                                UPPER))))
    return C, E


class TestNormalFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(_exponent_filler_case())
    def test_exponent_filler_equals_its_normal(self, case):
        C, xs = case
        assert C.normal is not None
        assert cut_cmp(C, C.normal) == EQ
        for x in xs:
            assert side_of(C, x) == side_of(C.normal, x)

    @settings(max_examples=60, deadline=None)
    @given(_coefficient_filler_and_edge())
    def test_coefficient_filler_is_no_ball_edge(self, case):
        C, E = case
        assert C.normal is None
        assert cut_cmp(C, E) != EQ
        assert not equivalent(C, E)


# -- the order ladder over a tower --------------------------------------------

def _ladder_tower():
    """R < F2 < W2 < E: R on the trailing coordinate of a rank-2 lex field
    F2, W2 adds sqrt(2) coefficients and E an infinitesimal just above
    t^(0,1)."""
    F2 = FieldDescriptor("F2", None, ValueGroup(LEX, 2))
    R = F2.subfield("R", mask=(1,))
    W2 = F2.extend_coeff("W2", 2)
    E, eps = adjoin_infinitesimal(W2, W2.group.above(W2.group.elem(0, 1)))
    return R, F2, W2, E, eps


_TOWER = _ladder_tower()
_CUT_FORMS = ("minus_inf", "plus_inf", "edge", "principal", "exponent",
              "beyond", "sqrt2", "infinitesimal")


@st.composite
def _tower_cuts(draw):
    """Cuts of R of every kind.  Each proper cut starts from a prefix of
    one shared element of R, and exponents are often drawn from that
    element's, so centres, approximants and generators agree to varying
    depth: edges, principal cuts, fillers from F2 with an exponent
    obstruction (one form beyond every element of R), sqrt(2) fillers
    written in W2 or in E, half of them on one shared obstruction and some
    with a twin, and infinitesimal fillers from E."""
    R, F2, W2, E, eps = _TOWER
    base = draw(st.lists(st.tuples(_small_q, _coeff), max_size=3,
                         unique_by=lambda t: t[0]))
    exps = [q for q, _ in base]

    def exponent():
        if exps and draw(st.booleans()):
            return draw(st.sampled_from(exps))
        return draw(_small_q)

    def surd():
        a = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        return a, draw(_coeff), exponent()

    shared = surd()
    cuts = []
    for _ in range(draw(st.integers(3, 7))):
        form = draw(st.sampled_from(_CUT_FORMS))
        side = draw(st.sampled_from((LOWER, UPPER)))
        r = R.zero()
        for q, c in base[:draw(st.integers(0, len(base)))]:
            r = r + R.monomial(R.group.elem(q), c)
        if draw(st.booleans()):
            r = r + R.monomial(R.group.elem(exponent()), draw(_coeff))
        q, c = exponent(), draw(_coeff)
        if form == "minus_inf":
            C = cut_minus_inf(R)
        elif form == "plus_inf":
            C = cut_plus_inf(R)
        elif form == "edge":
            S = seg_above(R.group, q) if draw(st.booleans()) \
                else seg_at_least(R.group, q)
            C = cut_edge(Ball(R, r, S), side)
        elif form == "principal":
            C = cut_principal(r, side)
        elif form in ("exponent", "beyond"):
            first = 1 if form == "exponent" else -1
            g = lift(r, F2) + F2.monomial(F2.group.elem(first, q), c)
            C = cut_filler(g, side, R)
        elif form == "sqrt2":
            a, b, q = shared if draw(st.booleans()) else surd()
            g = lift(r, W2) + W2.monomial(W2.group.elem(0, q),
                                          QuadExt(a, b, 2))
            C = cut_filler(lift(g, E) if draw(st.booleans()) else g, side, R)
            if draw(st.booleans()):
                # a twin differing only past the obstruction: no element
                # of R lies between the two generators
                twin = g + W2.monomial(W2.group.elem(0, q + 1), c)
                cuts.append(cut_filler(twin, side, R))
        else:
            C = cut_filler(lift(r, E) + c * eps, side, R)
        cuts.append(C)
    return cuts


class TestOrderLadder:
    @settings(max_examples=60, deadline=None)
    @given(_tower_cuts())
    def test_order_and_witnesses_over_the_tower(self, cuts):
        order = {(i, j): cut_cmp(A, B) for i, A in enumerate(cuts)
                 for j, B in enumerate(cuts)}
        n = len(cuts)
        for i in range(n):
            for j in range(n):
                assert order[i, j] == -order[j, i]
                assert equivalent(cuts[i], cuts[j]) == \
                    equivalent(cuts[j], cuts[i])
                for k in range(n):
                    if order[i, j] <= 0 and order[j, k] <= 0:
                        assert order[i, k] <= 0
                if order[i, j] != LT:
                    continue
                A, B = cuts[i], cuts[j]
                for a in (cut_lt_witness(A, B), find_between(A, B)):
                    assert side_of(A, a) == ABOVE
                    assert side_of(B, a) == BELOW

    # g = 1 + sqrt(2) t, so r* = 1, gamma0 = 1 and c0 = sqrt(2); each case
    # names the ball centre and v(g - centre) with the sign of its leading
    # coefficient
    @pytest.mark.parametrize("center_terms, v, sign", [
        ({0: 1}, 1, 1),                       # e = 0
        ({0: 1, Q(1, 2): 3}, Q(1, 2), -1),    # v(e) below gamma0
        ({0: 1, 1: 2}, 1, -1),                # v(e) at gamma0: sqrt(2) - 2
        ({0: 1, 2: 5}, 1, 1),                 # v(e) above gamma0
    ], ids=["e_zero", "below_gamma0", "at_gamma0", "above_gamma0"])
    @pytest.mark.parametrize("holds_v", [True, False],
                             ids=["radius_holds_v", "radius_misses_v"])
    def test_edge_against_filler_branches(self, center_terms, v, sign,
                                          holds_v):
        R, F, rt2 = sqrt2_pair()
        g = 1 + rt2 * F.monomial(F.group.elem(1))
        center = R.zero()
        for q, c in center_terms.items():
            center = center + R.monomial(R.group.elem(q), c)
        d = g - lift(center, F)
        assert d.val() == F.group.elem(v) and d.sign() == sign
        radius = seg_above(R.group, v - 1) if holds_v \
            else seg_above(R.group, v)
        assert radius.contains(R.group.elem(v)) == holds_v
        B = Ball(R, center, radius)
        Cf = cut_filler(g, UPPER, R)
        lo, hi = cut_edge(B, LOWER), cut_edge(B, UPPER)
        if holds_v:
            expect = (LT, GT)
        else:
            expect = (LT, LT) if sign > 0 else (GT, GT)
        assert (cut_cmp(lo, Cf), cut_cmp(hi, Cf)) == expect
        for E in (lo, hi):
            assert cut_cmp(Cf, E) == -cut_cmp(E, Cf)
            A, C = (E, Cf) if cut_cmp(E, Cf) == LT else (Cf, E)
            for a in (cut_lt_witness(A, C), find_between(A, C)):
                assert side_of(A, a) == ABOVE and side_of(C, a) == BELOW
