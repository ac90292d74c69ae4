"""Ball membership, equality, distance sets and between-set tests."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rplaces.balls import (
    Ball, BallComplement, NonBallWithFiller, ball_contains, ball_eq,
    between_ball, complement_pair_at, distance_sets,
)
from rplaces.coeff import QuadExt
from rplaces.ordfield import (
    FieldDescriptor, adjoin_infinitesimal, lift,
)
from rplaces.valgroup import (
    LEX, FinalSegment, InitialSegment, ValueGroup, restrict_position,
)

Q = Fraction


def rank1_field(name="F1"):
    return FieldDescriptor(name, None, ValueGroup(LEX, 1))


def rank2_pair():
    """R on the second coordinate inside a rank-2 lex field."""
    F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
    R = F.subfield("R", mask=(1,))
    return R, F


def seg_above(group, *coords):
    return FinalSegment(group.above(group.elem(*coords)))


class TestContains:
    def test_infinitesimal_ball(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        B = Ball(F, F.zero(), seg_above(F.group, 0))
        assert ball_contains(B, t)
        assert not ball_contains(B, F.one())
        assert ball_contains(B, F.zero())

    def test_radius_two(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        B = Ball(F, F.zero(), seg_above(F.group, 2))
        assert ball_contains(B, t ** 3)
        assert not ball_contains(B, t ** 2)

    def test_singleton(self):
        F = rank1_field()
        B = Ball(F, F.one(), FinalSegment(F.group.plus_inf()))
        assert B.is_singleton()
        assert ball_contains(B, F.one())
        assert not ball_contains(B, F.one() + F.monomial(F.group.elem(5)))

    def test_whole_field(self):
        F = rank1_field()
        B = Ball(F, F.zero(), FinalSegment(F.group.minus_inf()))
        assert B.is_whole_field()
        assert ball_contains(B, 1 / F.monomial(F.group.elem(3)))

    def test_convexity_sampled(self):
        F = rank1_field()
        rng = random.Random(41)
        B = Ball(F, F.one(), seg_above(F.group, 1))
        for _ in range(100):
            da = F.monomial(F.group.elem(Q(rng.randint(3, 8), 2)),
                            rng.randint(1, 5))
            db = F.monomial(F.group.elem(Q(rng.randint(3, 8), 2)),
                            -rng.randint(1, 5))
            a = B.center + da
            b = B.center + db
            assert ball_contains(B, a) and ball_contains(B, b)
            # anything at least as close to a as b is also inside
            for x in (a, b, (a + b) / 2, a + (b - a) * 2):
                if (a - x).is_zero() or \
                        (a - x).val().cmp((a - b).val()) >= 0:
                    assert ball_contains(B, x)


class TestEquality:
    def test_recentering(self):
        F = rank1_field()
        t = F.monomial(F.group.elem(1))
        S = seg_above(F.group, 0)
        assert ball_eq(Ball(F, F.zero(), S), Ball(F, t, S))

    def test_distant_centers(self):
        F = rank1_field()
        S = seg_above(F.group, 0)
        assert not ball_eq(Ball(F, F.zero(), S), Ball(F, F.one(), S))

    def test_singleton_equality(self):
        F = rank1_field()
        S = FinalSegment(F.group.plus_inf())
        a = F.monomial(F.group.elem(2), 3)
        assert ball_eq(Ball(F, a, S), Ball(F, a * 1, S))
        assert not ball_eq(Ball(F, a, S), Ball(F, a + 1, S))

    def test_mutual_containment_oracle(self):
        F = rank1_field()
        rng = random.Random(43)
        S = seg_above(F.group, 0)
        B1 = Ball(F, F.zero(), S)
        B2 = Ball(F, F.monomial(F.group.elem(1)), S)
        for _ in range(60):
            x = F.monomial(F.group.elem(Q(rng.randint(-6, 6), 2)),
                           rng.randint(-4, 4) or 1)
            assert ball_contains(B1, x) == ball_contains(B2, x)

    def test_different_radii(self):
        F = rank1_field()
        B1 = Ball(F, F.zero(), seg_above(F.group, 0))
        B2 = Ball(F, F.zero(), seg_above(F.group, 1))
        assert not ball_eq(B1, B2)
        assert B1 != B2


class TestDistanceSets:
    def test_unit_ball(self):
        F = rank1_field()
        B = Ball(F, F.zero(), seg_above(F.group, 0))
        d = distance_sets(B)
        assert d.contains(F.group.elem(0))
        assert d.contains(F.group.elem(-3))
        assert not d.contains(F.group.elem(Q(1, 2)))

    def test_singleton_all_distances(self):
        F = rank1_field()
        B = Ball(F, F.one(), FinalSegment(F.group.plus_inf()))
        d = distance_sets(B)
        assert d.contains(F.group.elem(100))
        assert d.contains(F.group.elem(-100))

    def test_whole_field_refused(self):
        F = rank1_field()
        B = Ball(F, F.zero(), FinalSegment(F.group.minus_inf()))
        with pytest.raises(ValueError):
            distance_sets(B)

    def test_realizing_pairs(self):
        # d = a - t^g, e = a + t^g realize each distance g outside S
        F = rank1_field()
        B = Ball(F, F.one(), seg_above(F.group, 2))
        for q in (Q(2), Q(0), Q(-1), Q(3, 2)):
            d, e = complement_pair_at(B, F.group.elem(q))
            assert (e - d).val() == F.group.elem(q)
            assert not ball_contains(B, d) and not ball_contains(B, e)
            assert d.cmp(B.center) < 0 < e.cmp(B.center)
        with pytest.raises(ValueError):
            complement_pair_at(B, F.group.elem(3))

    def test_triple_equality_sampled(self):
        # v(e-d), v(e-b), v(b-d) all fall outside S, 100+ samples
        F = rank1_field()
        rng = random.Random(47)
        B = Ball(F, F.one(), seg_above(F.group, 1))
        comp = distance_sets(B)
        for _ in range(120):
            gamma = F.group.elem(Q(rng.randint(-8, 4), 4))
            if B.radius.contains(gamma):
                continue
            d, e = complement_pair_at(B, gamma)
            delta = F.group.elem(Q(rng.randint(5, 16), 4))
            assert B.radius.contains(delta)
            b = B.center + F.monomial(F.group.elem(delta.coords[0]),
                                      rng.choice((-2, -1, 1, 2)))
            assert ball_contains(B, b)
            for pair in (e - d, e - b, b - d):
                assert comp.contains(pair.val())
                assert not B.radius.contains(pair.val())


class TestBetweenBall:
    def test_subfield_ball_complement(self):
        R, F = rank2_pair()
        B0 = Ball(R, R.zero(), seg_above(R.group, 2))
        out = between_ball(BallComplement(B0), ambient=F)
        assert out.field is F
        assert out.radius.boundary == F.group.above(F.group.elem(0, 2))
        assert out.center.is_zero()

    def test_irrational_filler(self):
        R = rank1_field("R")
        F = R.extend_coeff("F", 2)
        root2 = F.const(QuadExt.sqrt(2))
        out = between_ball(NonBallWithFiller(R, root2))
        assert out.field is F
        assert out.radius.boundary == F.group.above(F.group.elem(0))
        assert out.center.cmp(root2) == 0

    def test_principal_pair_in_extension(self):
        R = rank1_field("R")
        F, eps = adjoin_infinitesimal(R, R.group.plus_inf())
        a = R.const(3)
        B0 = Ball(R, a, FinalSegment(R.group.plus_inf()))
        out = between_ball(BallComplement(B0), ambient=F)
        assert out.radius.boundary == F.group.coset_edge(F.group.zero(), 1, 1)
        assert ball_contains(out, lift(a, F) + eps)
        assert not ball_contains(out, lift(a, F) +
                                 lift(R.monomial(R.group.elem(1)), F))

    def test_small_filler_cut(self):
        # s fills the cut just above 0 in the subfield on the second axis
        R, F = rank2_pair()
        s = F.monomial(F.group.elem(1, 0))
        out = between_ball(NonBallWithFiller(R, s))
        assert out.radius.boundary == F.group.coset_edge(F.group.zero(), 1, 1)
        assert ball_contains(out, s * 2)
        assert ball_contains(out, s ** 3)
        assert not ball_contains(out, F.monomial(F.group.elem(0, 1)))

    def test_filler_independence(self):
        R, F = rank2_pair()
        B0 = Ball(R, R.zero(), seg_above(R.group, 2))
        s = F.monomial(F.group.elem(1, 0))
        out1 = between_ball(BallComplement(B0), ambient=F)
        out2 = between_ball(BallComplement(B0), ambient=F, filler=s)
        assert ball_eq(out1, out2)

    def test_invalid_filler(self):
        R, F = rank2_pair()
        B0 = Ball(R, R.zero(), seg_above(R.group, 2))
        u = F.monomial(F.group.elem(0, 1))
        with pytest.raises(ValueError):
            between_ball(BallComplement(B0), ambient=F, filler=u)

    def test_filler_beyond_field(self):
        R, F = rank2_pair()
        s = F.monomial(F.group.elem(1, 0))
        with pytest.raises(ValueError):
            between_ball(NonBallWithFiller(R, 1 / s))

    def test_filler_inside_subfield(self):
        R, F = rank2_pair()
        u = F.monomial(F.group.elem(0, 1))
        with pytest.raises(ValueError):
            between_ball(NonBallWithFiller(R, 1 + u))

    def test_members_fill_sampled(self):
        # every member of the between ball separates lifted pairs (d, e)
        R, F = rank2_pair()
        rng = random.Random(53)
        B0 = Ball(R, R.zero(), seg_above(R.group, 2))
        out = between_ball(BallComplement(B0), ambient=F)
        members = [out.center,
                   F.monomial(F.group.elem(1, 0)),
                   F.monomial(F.group.elem(0, Q(5, 2)), 7),
                   F.monomial(F.group.elem(1, -9), -3)]
        outsiders = [F.monomial(F.group.elem(0, 1)),
                     F.monomial(F.group.elem(0, 2)),
                     F.one()]
        for _ in range(60):
            q = Q(rng.randint(-8, 8), 4)
            if B0.radius.contains(R.group.elem(q)):
                continue
            d, e = complement_pair_at(B0, R.group.elem(q))
            dl, el = lift(d, F), lift(e, F)
            for m in members:
                assert ball_contains(out, m)
                assert dl.cmp(m) < 0 < el.cmp(m)
            for x in outsiders:
                assert not ball_contains(out, x)
        # each outsider fails to fill for some witnessed pair
        for x in outsiders:
            d, e = complement_pair_at(B0, R.group.elem(x.val().coords[1]))
            assert not (lift(d, F).cmp(x) < 0 < lift(e, F).cmp(x))

    @staticmethod
    def distances(spec):
        """v(E-D) of the filled cut, read as `between filler` reads it: the
        between ball's radius restricted to the subfield's value group."""
        out = between_ball(spec)
        R = spec.subfield
        return InitialSegment(restrict_position(
            out.radius.boundary, R.embedding_mask_into(out.field), R.group))

    def test_distance_segment_exponent_kind(self):
        R, F = rank2_pair()
        u = F.monomial(F.group.elem(0, 1))
        s = F.monomial(F.group.elem(1, 0))
        seg = self.distances(NonBallWithFiller(R, u + s))
        # distances below (1,0) restrict to all of the subgroup
        assert seg.boundary == R.group.plus_inf()

    def test_distance_segment_coefficient_kind(self):
        R = rank1_field("R")
        F = R.extend_coeff("F", 2)
        root2 = F.const(QuadExt.sqrt(2))
        seg = self.distances(NonBallWithFiller(R, root2))
        assert seg.contains(F.group.elem(0))
        assert not seg.contains(F.group.elem(Q(1, 3)))
