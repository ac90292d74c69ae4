"""Tests for cut-space embeddings: convexity decisions, the canonical
image map on cuts and places, principal-cut preservation, and the
witness record for non-convex inclusions."""
import json
import random

import pytest

from rplaces.coeff import QuadExt
from rplaces.valgroup import (LEX, LOWER, UPPER, WEIGHTED, FinalSegment,
                              ValueGroup)
from rplaces.ordfield import (FieldDescriptor, FieldMismatchError,
                              adjoin_infinitesimal, declare_embedding, lift)
from rplaces.ratfun import Poly, RatFun, parse_ratfun
from rplaces.balls import Ball
from rplaces.cuts import (cut_cmp, cut_edge, cut_filler, cut_minus_inf,
                          cut_plus_inf, cut_principal, equivalent, restrict,
                          side_of)
from rplaces.places import eval_place, gauss_extension, place_from_cut
from rplaces.embed import (EmbeddingContext, NonConvexWitness, iota_place,
                           iota_tilde, nonconvex_witness,
                           principal_preservation)

SQRT2 = QuadExt(0, 1, 2)


def plane_tower():
    """F with a rank-2 group, the convex subfield on the fast coordinate
    and the non-convex one on the slow coordinate."""
    F = FieldDescriptor("F", None, ValueGroup(LEX, 2))
    Rc = F.subfield("Rc", (1,))
    Rn = F.subfield("Rn", (0,))
    return F, Rc, Rn


def diamond():
    """R below both a group extension F and a coefficient extension R2,
    with the common cover W completing the square."""
    R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
    F = R.extend_group("F", ValueGroup(LEX, 2), (1,))
    R2 = R.extend_coeff("R2", 2)
    W = F.extend_coeff("W", 2)
    declare_embedding(R2, W, (1,))
    return R, F, R2, W


def cut_catalog(R):
    """A spread of inequivalent and equivalent cuts of a rank-1 field."""
    G = R.group
    B = Ball(R, R.zero(), G.seg_above(G.elem(2)))
    shifted = Ball(R, R.const(1) + R.monomial(G.elem(1)),
                   G.seg_above(G.elem(3)))
    wide = Ball(R, R.zero(), G.seg_at_least(G.elem(1)))
    return [
        cut_minus_inf(R),
        cut_edge(B, LOWER),
        cut_edge(B, UPPER),
        cut_principal(R.const(-5), LOWER),
        cut_principal(R.zero(), UPPER),
        cut_edge(wide, LOWER),
        cut_edge(shifted, UPPER),
        cut_principal(R.const(7), UPPER),
        cut_plus_inf(R),
    ]


def random_ratfun(rng, field, variables=("y",)):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = tuple(rng.randint(0, 3) for _ in variables)
            terms[key] = field.const(rng.randint(-5, 5))
        return Poly(field, variables, terms)

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFun(num, den)


class TestEmbeddingContext:
    def test_convexity_split(self):
        F, Rc, Rn = plane_tower()
        assert EmbeddingContext(Rc, F).convex
        assert not EmbeddingContext(Rn, F).convex

    def test_identity_and_rank_zero(self):
        F, Rc, _ = plane_tower()
        assert EmbeddingContext(F, F).convex
        Q0 = Rc.subfield("Q0", ())
        assert EmbeddingContext(Q0, F).convex
        assert EmbeddingContext(Q0, Rc).convex

    def test_coeff_extension_is_convex(self):
        R, F, R2, W = diamond()
        assert EmbeddingContext(R, R2).convex
        assert EmbeddingContext(F, W).convex
        # the declared diamond edge rides the fast coordinate, a suffix
        assert EmbeddingContext(R2, W).convex

    def test_weighted_ambient(self):
        R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
        Fw = R.extend_group("Fw", ValueGroup(WEIGHTED, 2, (1, SQRT2)), (0,))
        assert not EmbeddingContext(R, Fw).convex
        Q0 = R.subfield("Q0", ())
        assert EmbeddingContext(Q0, Fw).convex

    def test_unrelated_fields(self):
        A = FieldDescriptor("A", None, ValueGroup(LEX, 1))
        B = FieldDescriptor("B", None, ValueGroup(LEX, 1))
        with pytest.raises(FieldMismatchError):
            EmbeddingContext(A, B)

    def test_describe(self):
        F, Rc, _ = plane_tower()
        d = EmbeddingContext(Rc, F).describe()
        assert d == {"subfield": "Rc", "field": "F", "mask": [1],
                     "convex": True}


class TestIotaTilde:
    def test_ball_edge_image(self):
        # radius {q > 2} over the fast coordinate lands at {g > (0, 2)}
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        B = Ball(Rc, Rc.zero(), Rc.group.seg_above(Rc.group.elem(2)))
        for side in (LOWER, UPPER):
            img = iota_tilde(cut_edge(B, side), ctx)
            assert img.kind == "edge" and img.side == side
            assert img.ball.center.is_zero()
            assert img.ball.radius.boundary.describe() == \
                {"kind": "above", "coords": ["0", "2"]}

    def test_improper_fixed(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        assert iota_tilde(cut_minus_inf(Rc), ctx).kind == "minus_inf"
        assert iota_tilde(cut_plus_inf(Rc), ctx).kind == "plus_inf"

    def test_principal_fattens_without_cofinality(self):
        F, Rc, _ = plane_tower()
        img = iota_tilde(cut_principal(Rc.const(2), UPPER),
                         EmbeddingContext(Rc, F))
        assert img.kind == "edge" and not img.is_principal()
        assert img.ball.radius.boundary.describe() == \
            {"kind": "coset_edge", "side": "upper", "fixed_coords": ["0"]}
        # the fattened ball still separates 2 from the other constants
        assert side_of(img, F.const(2)) == "below"
        assert side_of(img, F.const(3)) == "above"
        assert side_of(img, F.const(2) + F.monomial(F.group.elem(1, 0))) \
            == "below"

    def test_principal_stays_principal_when_cofinal(self):
        R, F, R2, W = diamond()
        C = cut_principal(R.const(3), LOWER)
        assert iota_tilde(C, EmbeddingContext(R, R)).is_principal()
        assert iota_tilde(C, EmbeddingContext(R, R2)).is_principal()

    def test_filler_representation_of_principal_cut(self):
        # a filler built from an adjoined infinitesimal denotes 2+ and
        # maps exactly where the principal cut maps
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        big, eps = adjoin_infinitesimal(Rc, Rc.group.plus_inf(), 1)
        C = cut_filler(lift(Rc.const(2), big) + eps, UPPER, Rc)
        direct = iota_tilde(cut_principal(Rc.const(2), UPPER), ctx)
        assert cut_cmp(iota_tilde(C, ctx), direct) == 0

    def test_filled_nonball_becomes_between_edge(self):
        R, F, R2, W = diamond()
        s2 = R2.const(SQRT2)
        ctx = EmbeddingContext(R, R2)
        for side in (LOWER, UPPER):
            img = iota_tilde(cut_filler(s2, side, R), ctx)
            assert img.kind == "edge" and img.side == LOWER
            assert img.ball.center == s2
            assert img.ball.radius.boundary.describe() == \
                {"kind": "above", "coords": ["0"]}

    def test_unfilled_nonball_stays_nonball(self):
        R, F, R2, W = diamond()
        s2 = R2.const(SQRT2)
        ctx = EmbeddingContext(R, F)
        img = iota_tilde(cut_filler(s2, UPPER, R), ctx)
        assert img.kind == "filler" and img.g.field is W
        other = iota_tilde(cut_filler(s2, LOWER, R), ctx)
        assert cut_cmp(img, other) == 0

    def test_nonball_sides_share_one_image(self):
        R, F, R2, W = diamond()
        s2 = R2.const(SQRT2)
        ctx = EmbeddingContext(R, R2)
        lo = iota_tilde(cut_filler(s2, LOWER, R), ctx)
        hi = iota_tilde(cut_filler(s2, UPPER, R), ctx)
        assert cut_cmp(lo, hi) == 0 and lo.side == hi.side

    def test_section_property(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        for C in cut_catalog(Rc):
            back = restrict(iota_tilde(C, ctx), Rc)
            assert cut_cmp(back, C) == 0
            assert equivalent(back, C)

    def test_section_property_nonball(self):
        R, F, R2, W = diamond()
        s2 = R2.const(SQRT2)
        C = cut_filler(s2, UPPER, R)
        for target in (F, R2):
            img = iota_tilde(C, EmbeddingContext(R, target))
            assert cut_cmp(restrict(img, R), C) == 0

    def test_order_preserved(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        cuts = cut_catalog(Rc)
        images = [iota_tilde(C, ctx) for C in cuts]
        for i, (C1, I1) in enumerate(zip(cuts, images)):
            for C2, I2 in zip(cuts[i:], images[i:]):
                assert cut_cmp(I1, I2) == cut_cmp(C1, C2)

    def test_equivalence_preserved_both_ways(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        cuts = cut_catalog(Rc)
        images = [iota_tilde(C, ctx) for C in cuts]
        for i, (C1, I1) in enumerate(zip(cuts, images)):
            for C2, I2 in zip(cuts[i:], images[i:]):
                assert equivalent(C1, C2) == equivalent(I1, I2)

    def test_nonball_image_iff_nonball_unfilled(self):
        R, F, R2, W = diamond()
        s2 = R2.const(SQRT2)
        nonball = cut_filler(s2, UPPER, R)
        ball = cut_principal(R.const(2), UPPER)
        assert iota_tilde(nonball, EmbeddingContext(R, F)).kind == "filler"
        assert iota_tilde(nonball, EmbeddingContext(R, R2)).kind == "edge"
        assert iota_tilde(ball, EmbeddingContext(R, F)).kind == "edge"
        assert iota_tilde(ball, EmbeddingContext(R, R2)).kind == "edge"

    def test_rejects_nonconvex_context(self):
        F, _, Rn = plane_tower()
        ctx = EmbeddingContext(Rn, F)
        with pytest.raises(ValueError, match="not convex"):
            iota_tilde(cut_principal(Rn.zero(), UPPER), ctx)

    def test_rejects_foreign_cut(self):
        F, Rc, Rn = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        with pytest.raises(ValueError, match="subfield"):
            iota_tilde(cut_principal(Rn.zero(), UPPER), ctx)


class TestIotaPlace:
    def test_principal_evaluation_preserved(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        zeta = place_from_cut(cut_principal(Rc.const(2), UPPER), "y")
        image = iota_place(zeta, ctx)
        f = parse_ratfun("y^2", Rc, ("y",))
        assert str(eval_place(zeta, f)) == "4"
        assert str(eval_place(image, f)) == "4"
        pole = parse_ratfun("1/(y - 2)", Rc, ("y",))
        assert eval_place(image, pole).is_infinite()

    def test_plus_inf_evaluation(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        zeta = place_from_cut(cut_plus_inf(Rc), "y")
        image = iota_place(zeta, ctx)
        f = parse_ratfun("1/y", Rc, ("y",))
        assert eval_place(image, f).is_zero()

    def test_restriction_acts_like_original(self):
        rng = random.Random(7)
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        sources = [cut_principal(Rc.const(2), UPPER),
                   cut_principal(Rc.zero(), LOWER),
                   cut_edge(Ball(Rc, Rc.const(1),
                                 Rc.group.seg_above(Rc.group.elem(1))),
                            UPPER),
                   cut_plus_inf(Rc)]
        for C in sources:
            zeta = place_from_cut(C, "y")
            image = iota_place(zeta, ctx)
            for _ in range(12):
                f = random_ratfun(rng, Rc)
                assert str(eval_place(image, f)) == str(eval_place(zeta, f))

    def test_two_edges_one_place(self):
        rng = random.Random(11)
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        B = Ball(Rc, Rc.zero(), Rc.group.seg_above(Rc.group.elem(1)))
        lower = place_from_cut(iota_tilde(cut_edge(B, LOWER), ctx), "y")
        upper = place_from_cut(iota_tilde(cut_edge(B, UPPER), ctx), "y")
        for _ in range(25):
            f = random_ratfun(rng, Rc)
            assert str(eval_place(lower, f)) == str(eval_place(upper, f))

    def test_rejects_other_place_kinds(self):
        F, Rc, _ = plane_tower()
        ctx = EmbeddingContext(Rc, F)
        with pytest.raises(ValueError):
            iota_place(gauss_extension(Rc), ctx)


class TestPrincipalPreservation:
    def test_not_cofinal(self):
        F, Rc, _ = plane_tower()
        assert principal_preservation(EmbeddingContext(Rc, F)) is False

    def test_identity_and_coeff_extension(self):
        R, F, R2, W = diamond()
        assert principal_preservation(EmbeddingContext(R, R)) is True
        assert principal_preservation(EmbeddingContext(R, R2)) is True

    def test_rank_zero_into_rank_one(self):
        R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
        Q0 = R.subfield("Q0", ())
        assert principal_preservation(EmbeddingContext(Q0, R)) is False

    def test_rejects_nonconvex(self):
        F, _, Rn = plane_tower()
        with pytest.raises(ValueError):
            principal_preservation(EmbeddingContext(Rn, F))


class TestNonConvexWitness:
    def test_frozen_example(self):
        F, _, Rn = plane_tower()
        w = nonconvex_witness(EmbeddingContext(Rn, F))
        assert str(w.alpha) == "(0)"
        assert str(w.beta) == "(1)"
        assert str(w.gamma) == "(0,1)"
        assert w.S0.boundary.describe() == {"kind": "above", "coords": ["0"]}
        assert w.S.boundary.describe() == \
            {"kind": "above", "coords": ["0", "0"]}
        assert w.hull_edge.ball.radius.boundary.describe() == \
            {"kind": "coset_edge", "side": "upper", "fixed_coords": ["0"]}
        assert str(w.separator) == "t^((0,1))"

    def test_relations_hold(self):
        F, _, Rn = plane_tower()
        w = nonconvex_witness(EmbeddingContext(Rn, F))
        assert cut_cmp(w.hull_edge, w.segment_edge) < 0
        assert w.S.contains(w.gamma) and not w.S0.contains(w.alpha)
        assert not w.B0.is_whole_field() and not w.B0.is_singleton()
        member = Rn.monomial(w.beta)
        assert w.B0.contains(member)
        assert side_of(w.hull_edge, w.separator) == "above"
        assert side_of(w.segment_edge, w.separator) == "below"
        assert lift(member, F) < w.separator

    def test_deeper_mask(self):
        F3 = FieldDescriptor("F3", None, ValueGroup(LEX, 3))
        R = F3.subfield("Rmid", (1,))
        w = nonconvex_witness(EmbeddingContext(R, F3))
        assert str(w.gamma) == "(0,0,1)"
        assert cut_cmp(w.hull_edge, w.segment_edge) < 0

    def test_json_serializable(self):
        F, _, Rn = plane_tower()
        w = nonconvex_witness(EmbeddingContext(Rn, F))
        text = json.dumps(w.describe(), sort_keys=True)
        assert "separator" in text

    def test_rejects_convex(self):
        F, Rc, _ = plane_tower()
        with pytest.raises(ValueError, match="convex"):
            nonconvex_witness(EmbeddingContext(Rc, F))

    def test_rejects_weighted_ambient(self):
        R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
        Fw = R.extend_group("Fw", ValueGroup(WEIGHTED, 2, (1, SQRT2)), (0,))
        with pytest.raises(ValueError, match="lexicographic"):
            nonconvex_witness(EmbeddingContext(R, Fw))


class TestDeclareEmbedding:
    def test_diamond_paths_agree(self):
        R, F, R2, W = diamond()
        x = R.const(3) + R.monomial(R.group.elem(2), -1)
        via_R2 = lift(lift(x, R2), W)
        via_F = lift(lift(x, F), W)
        assert via_R2 == via_F

    def test_rejects_self(self):
        R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
        with pytest.raises(ValueError):
            declare_embedding(R, R, (0,))

    def test_rejects_duplicate_and_cycle(self):
        R = FieldDescriptor("R", None, ValueGroup(LEX, 1))
        F = R.extend_group("F", ValueGroup(LEX, 2), (1,))
        with pytest.raises(ValueError, match="already"):
            declare_embedding(R, F, (0,))
        C = R.extend_group("C", ValueGroup(LEX, 1), (0,))
        with pytest.raises(ValueError, match="cycle"):
            declare_embedding(C, R, (0,))

    def test_rejects_coeff_mismatch(self):
        A = FieldDescriptor("A", 2, ValueGroup(LEX, 1))
        B = FieldDescriptor("B", 3, ValueGroup(LEX, 2))
        with pytest.raises(ValueError, match="incompatible"):
            declare_embedding(A, B, (0,))

    def test_rejects_bad_mask(self):
        A = FieldDescriptor("A", None, ValueGroup(LEX, 2))
        B = FieldDescriptor("B", None, ValueGroup(LEX, 2))
        with pytest.raises(ValueError):
            declare_embedding(A, B, (0,))

    def test_rejects_order_reversing_groups(self):
        # in R, t^(1,0) > t^(0,1) because 1 < sqrt(2); a coordinate
        # injection into a lex group would reverse the pair
        R = FieldDescriptor("R", None, ValueGroup(WEIGHTED, 2, (1, SQRT2)))
        G = FieldDescriptor("G", None, ValueGroup(LEX, 3))
        with pytest.raises(ValueError, match="order"):
            declare_embedding(R, G, (0, 1))
        assert R.embedding_mask_into(G) is None
        with pytest.raises(ValueError, match="order"):
            R.extend_group("H", ValueGroup(LEX, 3), (0, 1))
        L = FieldDescriptor("L", None, ValueGroup(LEX, 2))
        with pytest.raises(ValueError, match="order"):
            L.extend_group("W", ValueGroup(WEIGHTED, 2, (1, SQRT2)), (0, 1))
