import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rplaces.coeff import QuadExt
from rplaces.ordfield import HahnSum, _least_key
from rplaces.valgroup import (
    LOWER, UPPER, FinalSegment, GroupCut, InitialSegment, ValueGroup,
    element_in_interval, embed_element, embed_position, extend_at_position,
    is_cofinal, is_convex,
    convexity_witness, restrict_element, restrict_position, segment_above,
)

Q = Fraction

LEX1 = ValueGroup("lex", 1)
LEX2 = ValueGroup("lex", 2)
LEX3 = ValueGroup("lex", 3)
LEX0 = ValueGroup("lex", 0)
W12 = ValueGroup("weighted", 2, (QuadExt(1), QuadExt.sqrt(2)))


class TestCmpGroup:
    def test_lex(self):
        assert LEX2.elem(0, 1) < LEX2.elem(1, 0)
        assert LEX2.elem(1, -5) > LEX2.elem(0, 100)

    def test_weighted(self):
        # 3*e1 vs 2*e2, i.e. 3 vs 2*sqrt(2): 9 > 8
        assert W12.elem(3, 0) > W12.elem(0, 2)
        assert W12.elem(0, 5) > W12.elem(7, 0)  # 50 > 49

    def test_reflexive(self):
        g = LEX2.elem(Q(1, 3), -2)
        assert g.cmp(g) == 0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            LEX2.elem(0, 1).cmp(LEX1.elem(0))

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            ValueGroup("weighted", 2, (QuadExt(1), QuadExt(2)))
        with pytest.raises(ValueError):
            ValueGroup("weighted", 2, (QuadExt(1), QuadExt(-1, 1, 2) * -1))

    def test_weights_dependent_as_a_set_rejected(self):
        # pairwise independent, yet 1 + sqrt(2) is the sum of the others:
        # t^(1,1,0) and t^(0,0,1) would be distinct elements of one size
        rt2 = QuadExt.sqrt(2)
        for ws in ((QuadExt(1), rt2, QuadExt(1, 1, 2)),
                   (QuadExt(1), rt2, QuadExt(1, 1, 2), QuadExt(3, 5, 2))):
            with pytest.raises(ValueError, match="rationally dependent"):
                ValueGroup("weighted", len(ws), ws)
        with pytest.raises(ValueError, match="one quadratic extension"):
            ValueGroup("weighted", 2, (rt2, QuadExt.sqrt(3)))
        assert ValueGroup("weighted", 2, (QuadExt(1, 1, 2), rt2)).rank == 2

    def test_cmp_total_order_sampled(self):
        rng = random.Random(7)
        pool = [Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(40)]
        elems = [LEX2.elem(rng.choice(pool), rng.choice(pool))
                 for _ in range(120)]
        welems = [W12.elem(rng.choice(pool), rng.choice(pool))
                  for _ in range(40)]
        n = 0
        for g1, g2, g3 in zip(elems, elems[1:], elems[2:]):
            c12, c23, c13 = g1.cmp(g2), g2.cmp(g3), g1.cmp(g3)
            assert c12 in (-1, 0, 1)
            assert g2.cmp(g1) == -c12
            if c12 <= 0 and c23 <= 0:
                assert c13 <= 0
            n += 1
        for g1, g2, g3 in itertools.combinations(welems, 3):
            if g1.cmp(g2) <= 0 and g2.cmp(g3) <= 0:
                assert g1.cmp(g3) <= 0
            n += 1
        assert n >= 1000


class TestConvexity:
    def test_spec_cases(self):
        assert is_convex((1,), LEX2) is True
        assert is_convex((0,), LEX2) is False
        assert is_convex((0, 1), LEX2) is True
        assert is_convex((), LEX2) is True

    def test_witness(self):
        x, y = convexity_witness((0,), LEX2)
        zero = LEX2.zero()
        assert zero < x < y
        assert x == LEX2.elem(0, 1) and y == LEX2.elem(1, 0)

    def test_exhaustive_counts(self):
        for group, n in ((LEX2, 2), (LEX3, 3)):
            masks = []
            for r in range(n + 1):
                masks += list(itertools.combinations(range(n), r))
            convex = [m for m in masks if is_convex(m, group)]
            assert len(convex) == n + 1

    def test_weighted(self):
        assert is_convex((), W12)
        assert is_convex((0, 1), W12)
        assert not is_convex((0,), W12)
        x, y = convexity_witness((0,), W12)
        assert W12.zero() < x < y

    def test_cofinal(self):
        assert is_cofinal((1,), LEX2) is False
        assert is_cofinal((0,), LEX2) is True
        assert is_cofinal((0, 1), LEX2) is True
        assert is_cofinal((), LEX0) is True
        assert is_cofinal((), LEX2) is False
        assert is_cofinal((1,), W12) is True


def pos_pool(group, coords, rng, count):
    """Random positions drawn from a coordinate pool."""
    out = [group.minus_inf(), group.plus_inf()]
    n = group.rank
    while len(out) < count:
        g = group.elem(*[rng.choice(coords) for _ in range(n)])
        kind = rng.randrange(4)
        if kind == 0:
            out.append(group.at(g))
        elif kind == 1:
            out.append(group.above(g))
        elif kind == 2:
            out.append(group.below(g))
        else:
            k = rng.randint(1, n) if n else 0
            out.append(group.coset_edge(g, k, rng.choice((LOWER, UPPER))))
    return out


class TestPositions:
    def test_adjacency(self):
        g = LEX2.elem(1, 2)
        assert LEX2.below(g) < LEX2.at(g) < LEX2.above(g)
        assert LEX2.coset_edge(g, 1, LOWER) < LEX2.below(g)
        assert LEX2.above(g) < LEX2.coset_edge(g, 1, UPPER)

    def test_coset_edges_vs_members(self):
        g = LEX3.elem(1, 2, 3)
        up = LEX3.coset_edge(g, 1, UPPER)
        lo = LEX3.coset_edge(g, 1, LOWER)
        for member in (LEX3.elem(1, 100, -7), LEX3.elem(1, 2, 3)):
            assert lo.side_of(member) > 0
            assert up.side_of(member) < 0
        assert up.side_of(LEX3.elem(Q(3, 2), -9, 0)) > 0
        assert lo.side_of(LEX3.elem(0, 10**6, 0)) < 0

    def test_element_side(self):
        c = LEX2.above(LEX2.elem(0, 0))
        assert c.side_of(LEX2.elem(0, Q(1, 10**9))) > 0
        assert c.side_of(LEX2.elem(0, 0)) < 0
        assert c.side_of(LEX2.elem(0, -1)) < 0

    def test_rank0(self):
        assert LEX0.above(LEX0.elem()) == LEX0.plus_inf()
        assert LEX0.below(LEX0.elem()) == LEX0.minus_inf()
        assert LEX0.minus_inf() < LEX0.at(LEX0.elem()) < LEX0.plus_inf()

    def test_rank0_element_position_describes(self):
        pos = LEX0.at(LEX0.zero())
        assert pos.describe() == {"kind": "element", "coords": []}
        assert repr(pos) == "<()>"
        assert repr(LEX1.at(LEX1.zero())) == "<(0)>"

    def test_order_transitive_sampled(self):
        rng = random.Random(3)
        coords = [Q(k, d) for k in range(-4, 5) for d in (1, 2, 3)]
        pool = pos_pool(LEX2, coords, rng, 60)
        for p1, p2, p3 in itertools.islice(
                itertools.combinations(pool, 3), 2500):
            if p1.cmp(p2) <= 0 and p2.cmp(p3) <= 0:
                assert p1.cmp(p3) <= 0

    def test_weighted_positions(self):
        g1 = W12.elem(3, 0)
        g2 = W12.elem(0, 2)
        assert W12.above(g2) < W12.below(g1)
        assert W12.at(g1) < W12.above(g1)
        with pytest.raises(ValueError):
            W12.coset_edge(g1, 1, UPPER)


class TestSegments:
    def test_contains(self):
        s = LEX2.seg_above(LEX2.elem(1, 0))
        assert s.contains(LEX2.elem(1, Q(1, 7)))
        assert not s.contains(LEX2.elem(1, 0))
        t = LEX2.seg_at_least(LEX2.elem(1, 0))
        assert t.contains(LEX2.elem(1, 0))
        assert s.subset_of(t) and not t.subset_of(s)

    def test_empty_all(self):
        assert LEX2.seg_empty().is_empty()
        assert LEX2.seg_all().is_all()
        assert LEX2.seg_empty().subset_of(LEX2.seg_above(LEX2.zero()))

    def test_complement(self):
        s = LEX1.seg_above(LEX1.elem(0))
        c = s.complement()
        assert c.contains(LEX1.elem(0))
        assert not c.contains(LEX1.elem(Q(1, 2)))

    def test_element_boundary_rejected(self):
        with pytest.raises(ValueError):
            FinalSegment(LEX1.at(LEX1.elem(0)))


class TestSegmentAbove:
    def test_same_group_principal(self):
        s = segment_above(InitialSegment(LEX1.above(LEX1.elem(0))))
        assert s.boundary == LEX1.above(LEX1.elem(0))
        assert s.contains(LEX1.elem(Q(1, 100)))
        assert not s.contains(LEX1.elem(0))

    def test_same_group_rank2(self):
        s = segment_above(InitialSegment(LEX2.above(LEX2.elem(1, 0))))
        assert s.boundary == LEX2.above(LEX2.elem(1, 0))

    def test_cross_group_inner_coordinate(self):
        # sub is the second (less significant) coordinate of the big group;
        # the part of sub at most (0,2) pushes the boundary to just above it
        sub = LEX1
        s0 = sub.seg_above(sub.elem(2))
        s = segment_above(s0.complement(), into=LEX2, mask=(1,))
        assert s.boundary == LEX2.above(LEX2.elem(0, 2))
        assert s.contains(LEX2.elem(0, Q(5, 2)))
        assert s.contains(LEX2.elem(1, -100))
        assert not s.contains(LEX2.elem(0, 2))

    def test_cross_group_outer_coordinate(self):
        # sub is the dominant coordinate: everything in the gap below it
        # stays above the image, so the boundary is pushed one level deeper
        sub = LEX1
        s0 = sub.seg_above(sub.elem(0))
        s = segment_above(s0.complement(), into=LEX2, mask=(0,))
        assert s.boundary == LEX2.above(LEX2.elem(0, 0))
        assert s.contains(LEX2.elem(0, 1))
        assert s.contains(LEX2.elem(Q(1, 9), -3))
        assert not s.contains(LEX2.elem(0, -1))

    def test_cross_group_whole_subgroup(self):
        sub = LEX1
        s = segment_above(InitialSegment(sub.plus_inf()), into=LEX2,
                          mask=(1,))
        assert s.boundary == LEX2.coset_edge(LEX2.zero(), 1, UPPER)
        assert s.contains(LEX2.elem(1, -10**6))
        assert not s.contains(LEX2.elem(0, 10**6))

    def test_brute_force_minimality(self):
        # oracle: the returned boundary is disjoint from the image and any
        # strictly smaller pool boundary lets an image element through
        rng = random.Random(11)
        coords = [Q(k, d) for k in range(-2, 3) for d in (1, 2)]
        sub = LEX1
        # dense enough that any interval cut out by pool positions (all of
        # denominator <= 2, magnitude <= 2) contains a grid point
        sub_elems = [sub.elem(Q(k, 16)) for k in range(-80, 81)]
        for mask in ((0,), (1,)):
            pool = pos_pool(LEX2, coords, rng, 80)
            for b in (sub.above(sub.elem(0)), sub.below(sub.elem(0)),
                      sub.above(sub.elem(-1)), sub.plus_inf()):
                seg = segment_above(InitialSegment(b), into=LEX2, mask=mask)
                image_low = [embed_element(e, mask, LEX2) for e in sub_elems
                             if InitialSegment(b).contains(e)]
                for e in image_low:
                    assert not seg.contains(e)
                for p in pool:
                    if p < seg.boundary:
                        bigger = FinalSegment(p) if p.nudge() != 0 else None
                        if bigger is None:
                            continue
                        assert any(bigger.contains(e) for e in image_low), \
                            (mask, b, p)


class TestWalks:
    def masks(self, big):
        n = big.rank
        out = []
        for r in range(n + 1):
            out += list(itertools.combinations(range(n), r))
        return out

    def test_round_trip(self):
        rng = random.Random(19)
        coords = [Q(k, d) for k in range(-3, 4) for d in (1, 2)]
        for big in (LEX2, LEX3):
            for mask in self.masks(big):
                sub = ValueGroup("lex", len(mask))
                for p in pos_pool(sub, coords, rng, 25):
                    if p.kind == "key" and p.nudge() == 0:
                        continue
                    lo = embed_position(p, mask, big, LOWER)
                    hi = embed_position(p, mask, big, UPPER)
                    assert restrict_position(lo, mask, sub) == p
                    assert restrict_position(hi, mask, sub) == p
                    assert lo <= hi
                    if p.kind == "key":
                        if is_convex(mask, big):
                            assert lo == hi
                    elif is_cofinal(mask, big):
                        # infinities collapse exactly for cofinal subgroups
                        assert lo == hi

    def test_transport_is_extremal(self):
        # every big position restricting to p lies between the least and
        # the greatest transport of p
        rng = random.Random(23)
        coords = [Q(k, d) for k in range(-2, 3) for d in (1, 2)]
        checked = 0
        for big in (LEX1, LEX2, LEX3):
            big_pool = pos_pool(big, coords, rng, 120)
            for mask in self.masks(big):
                sub = ValueGroup("lex", len(mask))
                for p in pos_pool(sub, coords, rng, 25):
                    if p.kind == "key" and p.nudge() == 0:
                        continue
                    lo = embed_position(p, mask, big, LOWER)
                    hi = embed_position(p, mask, big, UPPER)
                    for q in big_pool:
                        if restrict_position(q, mask, sub) == p:
                            assert lo <= q <= hi, (mask, p, q)
                            checked += 1
        assert checked > 500

    def test_gap_strict_when_not_convex(self):
        sub = LEX1
        p = sub.above(sub.elem(0))
        lo = embed_position(p, (0,), LEX2, LOWER)
        hi = embed_position(p, (0,), LEX2, UPPER)
        assert lo < hi
        assert lo == LEX2.above(LEX2.elem(0, 0))
        assert hi == LEX2.coset_edge(LEX2.zero(), 1, UPPER)
        # the gap contains a whole copy of the missing coordinate
        assert lo.side_of(LEX2.elem(0, 5)) > 0
        assert hi.side_of(LEX2.elem(0, 5)) < 0

    def test_restrict_off_subgroup_positions(self):
        sub = LEX1
        assert restrict_position(LEX2.at(LEX2.elem(0, 1)), (0,), sub) \
            == sub.above(sub.elem(0))
        assert restrict_position(LEX2.at(LEX2.elem(0, -1)), (0,), sub) \
            == sub.below(sub.elem(0))
        assert restrict_position(LEX2.above(LEX2.elem(0, 1)), (1,), sub) \
            == sub.above(sub.elem(1))
        assert restrict_position(LEX2.above(LEX2.elem(1, 4)), (1,), sub) \
            == sub.plus_inf()
        assert restrict_position(LEX2.below(LEX2.elem(-1, 4)), (1,), sub) \
            == sub.minus_inf()

    def test_restrict_elements(self):
        sub = LEX1
        assert restrict_element(LEX2.elem(0, 3), (1,), sub) == sub.elem(3)
        assert restrict_element(LEX2.elem(1, 3), (1,), sub) is None
        g = embed_element(sub.elem(Q(2, 7)), (0,), LEX2)
        assert g == LEX2.elem(Q(2, 7), 0)

    def test_restriction_is_order_preserving(self):
        rng = random.Random(23)
        coords = [Q(k, 2) for k in range(-4, 5)]
        sub = LEX1
        for mask in ((0,), (1,)):
            pool = pos_pool(LEX2, coords, rng, 50)
            for p1, p2 in itertools.combinations(pool, 2):
                r1 = restrict_position(p1, mask, sub)
                r2 = restrict_position(p2, mask, sub)
                if p1 <= p2:
                    assert r1 <= r2


class TestElementInInterval:
    def test_basic(self):
        lo = LEX2.above(LEX2.elem(0, 0))
        hi = LEX2.coset_edge(LEX2.zero(), 1, UPPER)
        g = element_in_interval(lo, hi)
        assert g is not None
        assert lo.side_of(g) > 0 and hi.side_of(g) < 0

    def test_adjacent_none(self):
        g = LEX2.elem(1, 2)
        assert element_in_interval(LEX2.below(g), LEX2.at(g)) is None
        assert element_in_interval(LEX2.at(g), LEX2.above(g)) is None

    def test_rank0(self):
        """In rank 0 the infinities are the positions just below and just
        above the one element 0, so the intervals reaching its position
        hold no element strictly inside, as for below(g), at(g) in any
        rank; the whole group's interval holds 0."""
        at0 = LEX0.at(LEX0.zero())
        assert LEX0.below(LEX0.zero()) == LEX0.minus_inf()
        assert element_in_interval(LEX0.minus_inf(), at0) is None
        assert element_in_interval(at0, LEX0.plus_inf()) is None
        assert element_in_interval(LEX0.minus_inf(),
                                   LEX0.plus_inf()) == LEX0.zero()

    def test_around_infinities(self):
        g = element_in_interval(LEX2.minus_inf(), LEX2.below(LEX2.zero()))
        assert g is not None and g < LEX2.zero()
        g = element_in_interval(LEX2.coset_edge(LEX2.zero(), 1, UPPER),
                                LEX2.plus_inf())
        assert g is not None and g > LEX2.zero()

    def test_sampled_pairs(self):
        rng = random.Random(5)
        coords = [Q(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
        for group in (LEX1, LEX2, LEX3):
            pool = pos_pool(group, coords, rng, 40)
            for p1, p2 in itertools.combinations(pool, 2):
                if p1.cmp(p2) >= 0:
                    p1, p2 = p2, p1
                if p1.cmp(p2) == 0:
                    continue
                g = element_in_interval(p1, p2)
                if g is None:
                    # only adjacency produces None
                    a, b = (p1, p2)
                    assert a.kind == "key" and b.kind == "key"
                    assert abs(a.nudge() - b.nudge()) == 1
                else:
                    assert p1.side_of(g) > 0 and p2.side_of(g) < 0

    def test_weighted(self):
        lo = W12.above(W12.elem(0, 1))  # sqrt(2)+
        hi = W12.below(W12.elem(2, 0))  # 2-
        g = element_in_interval(lo, hi)
        assert g is not None
        assert lo.side_of(g) > 0 and hi.side_of(g) < 0
        # hitting an exact value between its two edges
        v = W12.elem(3, 2)
        g = element_in_interval(W12.below(v), W12.above(v))
        assert g is not None and g.cmp(v) == 0
        g = element_in_interval(W12.minus_inf(), W12.below(W12.elem(-5, 1)))
        assert g is not None and W12.below(W12.elem(-5, 1)).side_of(g) < 0


# weighted groups of rank 1 and 2: a rational weight, a surd, a rational
# and a surd, two surds, and weights over different denominators
WEIGHTED_GROUPS = [
    ValueGroup("weighted", 1, (QuadExt(Q(2, 3)),)),
    ValueGroup("weighted", 1, (QuadExt.sqrt(3),)),
    W12,
    ValueGroup("weighted", 2, (QuadExt(1, 1, 2), QuadExt.sqrt(2))),
    ValueGroup("weighted", 2, (QuadExt(Q(1, 2)), QuadExt(0, Q(2, 5), 5))),
]

COORD = st.builds(Q, st.integers(-8, 8), st.integers(1, 3))


def by_value(pos):
    """The reference order of a position: the infinities outside, a key
    position by the real value of its element, then by its nudge."""
    if pos.kind == "minf":
        return (0,)
    if pos.kind == "pinf":
        return (2,)
    (coords, nudge), = pos.key
    return (1, pos.group.real_value(pos.group.elem(coords)), nudge)


def ref_cmp(x, y) -> int:
    return 0 if x == y else 1 if x > y else -1


class TestWeightedOrder:
    """Every weighted order (elements, positions, intervals, the support of
    a sum and its least key) agrees with the order of real values, then of
    nudges."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(WEIGHTED_GROUPS), st.data())
    def test_orders_agree_with_real_values(self, group, data):
        elems = data.draw(st.lists(
            st.lists(COORD, min_size=group.rank, max_size=group.rank).map(
                group.elem), min_size=1, max_size=4))
        real = group.real_value
        for g1, g2 in itertools.product(elems, repeat=2):
            assert g1.cmp(g2) == real(g1).cmp(real(g2))
        positions = [group.minus_inf(), group.plus_inf()] + [
            p for g in elems
            for p in (group.below(g), group.at(g), group.above(g))]
        for p1, p2 in itertools.product(positions, repeat=2):
            assert p1.cmp(p2) == ref_cmp(by_value(p1), by_value(p2))
            if p1.cmp(p2) >= 0:
                continue
            e = element_in_interval(p1, p2)
            if e is None:
                # only an element's position and a nudge next to it hold
                # no element between them
                (_, v1, s1), (_, v2, s2) = by_value(p1), by_value(p2)
                assert v1 == v2 and s2 - s1 == 1
            else:
                at = by_value(group.at(e))
                assert by_value(p1) < at < by_value(p2)
        h = HahnSum(group, {g.coords: 1 for g in elems})
        values = [real(g) for g in h.support()]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert {g.coords for g in h.support()} == {g.coords for g in elems}
        least = group.elem([Q(k, h._n) for k in _least_key(group, h._t)])
        assert real(least) == min(values)


class TestExtendAtPosition:
    def test_placement_sampled(self):
        rng = random.Random(31)
        coords = [Q(k, d) for k in range(-3, 4) for d in (1, 2)]
        olds = [LEX2.elem(rng.choice(coords), rng.choice(coords))
                for _ in range(30)]
        ats = [p for p in pos_pool(LEX2, coords, rng, 30)
               if not (p.kind == "key" and p.nudge() == 0)]
        checked = 0
        for at in ats:
            big, mask, veps = extend_at_position(at)
            assert big.rank == 3
            for g in olds:
                lifted = embed_element(g, mask, big)
                below = at.side_of(g) > 0  # g above at <=> veps < lifted
                assert (veps < lifted) == below
                assert veps != lifted
                checked += 1
        assert checked >= 100

    def test_infinities(self):
        big, mask, veps = extend_at_position(LEX1.plus_inf())
        assert veps > embed_element(LEX1.elem(10**9), mask, big)
        big, mask, veps = extend_at_position(LEX1.minus_inf())
        assert veps < embed_element(LEX1.elem(-10**9), mask, big)

    def test_element_position_rejected(self):
        with pytest.raises(ValueError):
            extend_at_position(LEX1.at(LEX1.elem(0)))
