"""Embedding one field's cut space into an extension's cut space.

For a declared inclusion R in F, each cut of R has a canonical image
among the cuts of F whenever the embedded value group sits convexly in
the larger one.  Ball edges map through the largest final segment of vF
above the embedded complement of the radius, so the image ball restricts
back to the original; non-ball cuts map to the lower edge of the
between-ball when F fills them and stay non-ball otherwise.  When the
embedded group is not convex, no order embedding compatible with
restriction exists, and a finite witness object records why: a ball of
R whose image is not cofinal in the ball of F built from the same
radius data.
"""
from __future__ import annotations

from dataclasses import dataclass

from .valgroup import (LOWER, UPPER, FinalSegment, GroupElem, LEX,
                       convexity_witness, embed_element, embed_position,
                       is_cofinal, is_convex, restrict_element,
                       restrict_position, segment_above)
from .ordfield import (DEFAULT_MAX_STEPS, FieldDescriptor, FieldElement,
                       FieldMismatchError, InSubfield, Obstructed,
                       approx_analysis, lift, settled_analysis)
from .balls import Ball, NonBallWithFiller, between_ball
from .cuts import (Cut, cut_cmp, cut_edge, cut_filler_analyzed,
                   cut_minus_inf, cut_plus_inf, cut_principal, equivalent,
                   side_of)
from .places import RPlace, induced_cut, place_from_cut


class EmbeddingContext:
    """A declared inclusion R in F with its convexity decided once."""

    __slots__ = ("R", "F", "mask", "convex")

    def __init__(self, R: FieldDescriptor, F: FieldDescriptor):
        mask = R.embedding_mask_into(F)
        if mask is None:
            raise FieldMismatchError(
                f"{R.name} does not embed in {F.name}")
        self.R = R
        self.F = F
        self.mask = mask
        self.convex = is_convex(mask, F.group)

    def describe(self) -> dict:
        return {"subfield": self.R.name, "field": self.F.name,
                "mask": list(self.mask), "convex": self.convex}

    def __repr__(self) -> str:
        tag = "convex" if self.convex else "non-convex"
        return f"EmbeddingContext({self.R.name} in {self.F.name}, {tag})"


def _host_field(A: FieldDescriptor, B: FieldDescriptor) -> FieldDescriptor:
    """The nearest of B and its declared extensions that contains A."""
    frontier = [B]
    seen = {id(B)}
    while frontier:
        field = frontier.pop(0)
        if A.embedding_mask_into(field) is not None:
            return field
        for sup, _ in field._ups:
            if id(sup) not in seen:
                seen.add(id(sup))
                frontier.append(sup)
    raise FieldMismatchError(
        f"no declared field contains both {A.name} and {B.name}")


def _edge_image(B: Ball, side: int, ctx: EmbeddingContext) -> Cut:
    S = segment_above(B.radius.complement(), into=ctx.F.group,
                      mask=ctx.mask)
    return cut_edge(Ball(ctx.F, lift(B.center, ctx.F), S), side)


def _fills(x: FieldElement, C: Cut, max_steps: int) -> bool:
    """Whether the element x of an extension field sits strictly between
    the halves of the non-ball cut C."""
    res = approx_analysis(x, C.field, max_steps)
    if not isinstance(res, Obstructed):
        return False
    return equivalent(cut_filler_analyzed(x, LOWER, C.field, res), C)


def iota_tilde(C: Cut, ctx: EmbeddingContext,
               max_steps: int = DEFAULT_MAX_STEPS) -> Cut:
    """The canonical image of a cut of R among the cuts of F.

    Improper cuts are fixed.  A ball edge keeps its side, with the image
    radius the largest final segment of vF restricting to the original;
    filler representations of ball cuts are normalized first.  A non-ball
    cut maps to the lower edge of its between-ball when some element of F
    fills it, and to the same filler's cut of F otherwise; both sides of
    a non-ball cut share one image.
    """
    if not ctx.convex:
        raise ValueError("the embedded value group is not convex; "
                         "no cut-space embedding exists")
    if C.field is not ctx.R:
        raise ValueError("cut does not live over the context's subfield")
    F = ctx.F
    if C.normal is not None:
        C = C.normal  # a ball edge of R in disguise
    if C.kind == "minus_inf":
        return cut_minus_inf(F)
    if C.kind == "plus_inf":
        return cut_plus_inf(F)
    if C.kind == "edge":
        return _edge_image(C.ball, C.side, ctx)

    g = lift(C.g, _host_field(C.g.field, F))
    res_F = settled_analysis(g, F, max_steps)
    if isinstance(res_F, InSubfield):
        filler = res_F.approximant
    elif res_F.obstruction == "exponent" and \
            _fills(res_F.approximant, C, max_steps):
        filler = res_F.approximant
    else:
        return cut_filler_analyzed(g, LOWER, F, res_F)
    B = between_ball(NonBallWithFiller(ctx.R, filler), ambient=F,
                     max_steps=max_steps)
    return cut_edge(B, LOWER)


def iota_place(zeta: RPlace, ctx: EmbeddingContext,
               max_steps: int = DEFAULT_MAX_STEPS) -> RPlace:
    """Transport a one-variable cut place of R(y) to F(y) through the
    image of its induced cut; restriction of the result to R(y)
    evaluates like the original."""
    if zeta.kind != "realized" or len(zeta.variables) != 1:
        raise ValueError("iota_place needs a realized one-variable place")
    var = zeta.variables[0]
    C = induced_cut(zeta, var, max_steps)
    return place_from_cut(iota_tilde(C, ctx, max_steps), var)


def principal_preservation(ctx: EmbeddingContext) -> bool:
    """Whether the embedding sends principal cuts to principal cuts:
    exactly when the embedded group is cofinal.  Cross-checked on one
    principal cut."""
    if not ctx.convex:
        raise ValueError("no embedding exists for a non-convex context")
    flag = is_cofinal(ctx.mask, ctx.F.group)
    img = iota_tilde(cut_principal(ctx.R.one(), UPPER), ctx)
    if img.is_principal() != flag:
        raise ArithmeticError("cofinality cross-check failed")
    return flag


@dataclass(frozen=True)
class NonConvexWitness:
    """Finite record showing why a non-convex inclusion admits no
    cut-space embedding.

    gamma in vF sits strictly between the embedded alpha < beta of vR,
    outside the image.  S0 collects the vR-values above gamma and B0 is
    the ball of R it defines around 0.  In F, the one radius datum S0
    spreads between two different final segments: the upward closure of
    its image (the hull of B0, upper edge `hull_edge`) and the largest
    segment restricting to S0 (the ball any embedding would need, upper
    edge `segment_edge`).  The separator element lies in the second ball
    above everything in the first, so the two candidate images straddle
    it and no single image cut restricts correctly.
    """

    alpha: GroupElem
    beta: GroupElem
    gamma: GroupElem
    S0: FinalSegment
    B0: Ball
    S: FinalSegment
    hull_edge: Cut
    segment_edge: Cut
    separator: FieldElement

    def describe(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "S0": self.S0.describe(),
            "B0": self.B0.describe(),
            "S": self.S.describe(),
            "hull_edge": self.hull_edge.describe(),
            "segment_edge": self.segment_edge.describe(),
            "separator": str(self.separator),
        }


def _witness_check(ok: bool, what: str) -> None:
    if not ok:
        raise ArithmeticError(f"witness invariant failed: {what}")


def nonconvex_witness(ctx: EmbeddingContext) -> NonConvexWitness:
    """Construct and verify the obstruction record for a non-convex
    inclusion; every listed relation is checked exactly."""
    if ctx.convex:
        raise ValueError("context is convex; embeddings exist")
    R, F, mask = ctx.R, ctx.F, ctx.mask
    if F.group.kind != LEX:
        raise ValueError("witness construction needs a lexicographic "
                         "ambient group")
    gamma, beta_F = convexity_witness(mask, F.group)
    alpha = R.group.zero()
    beta = restrict_element(beta_F, mask, R.group)
    _witness_check(beta is not None, "beta lies in the embedded group")
    _witness_check(restrict_element(gamma, mask, R.group) is None,
                   "gamma avoids the embedded group")
    a_F = embed_element(alpha, mask, F.group)
    _witness_check(a_F.cmp(gamma) < 0 and gamma.cmp(beta_F) < 0,
                   "alpha < gamma < beta")

    S0 = FinalSegment(restrict_position(F.group.at(gamma), mask, R.group))
    _witness_check(S0.contains(beta) and not S0.contains(alpha),
                   "S0 separates beta from alpha")
    B0 = Ball(R, R.zero(), S0)
    _witness_check(not B0.is_whole_field() and not B0.is_singleton(),
                   "B0 is a proper ball")

    S = segment_above(S0.complement(), into=F.group, mask=mask)
    _witness_check(S.contains(gamma), "gamma in S")
    hull = Ball(F, F.zero(), FinalSegment(
        embed_position(S0.boundary, mask, F.group, UPPER)))
    hull_edge = cut_edge(hull, UPPER)
    segment_edge = cut_edge(Ball(F, F.zero(), S), UPPER)
    _witness_check(cut_cmp(hull_edge, segment_edge) < 0,
                   "hull edge below segment edge")

    separator = F.monomial(gamma)
    member = R.monomial(beta)
    _witness_check(B0.contains(member), "sample member of B0")
    _witness_check(Ball(F, F.zero(), S).contains(separator),
                   "separator inside the segment ball")
    _witness_check(not hull.contains(separator),
                   "separator outside the hull of B0")
    _witness_check(side_of(hull_edge, separator) == "above",
                   "separator above the hull edge")
    _witness_check(lift(member, F) < separator,
                   "separator above the embedded member")
    return NonConvexWitness(alpha, beta, gamma, S0, B0, S,
                            hull_edge, segment_edge, separator)
