"""Cuts in ordered Hahn-sum fields.

A cut splits a field into an initial segment D and its complement E.  Four
representations cover everything this library produces: the two improper
cuts, an edge of an ultrametric ball (principal cuts are edges of singleton
balls), and the cut traced by an element g of a declared extension field
("filler": D = {x : x < g}).

A filler leaves the base field either through an exponent, and then its
cut is a ball edge (or an improper cut) in disguise, or through a
coefficient, and then its cut is a genuine non-ball cut.  `cut_filler`
decides which once and stores the equal edge or improper cut as the
filler's `normal`; the order operations work on that normal form, so a
filler cut they see with `normal is None` is always a non-ball cut.

Comparison is exact.  The only undecidable-looking corner, filler against
filler, reduces to finding a field element strictly between the two
generators; the term extraction relative to the base field that settles it
is the filler's stored `analysis`.  Its step budget is spent once, when the
cut is built, and the order operations never analyse again.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .balls import (
    Ball, NonBallWithFiller, ball_contains, ball_eq, between_ball,
)
from .coeff import QuadExt, rational_between
from .ordfield import (
    DEFAULT_MAX_STEPS, ExpansionBudgetError, FieldDescriptor, FieldElement,
    FieldMismatchError, Obstructed, lift, obstruction, settled_analysis,
)
from .valgroup import (
    LOWER, UPPER, FinalSegment, GroupElem, element_in_interval,
    embed_element, embed_position_max, embed_position_min, restrict_element,
    restrict_position, side_name,
)

BELOW = "below"
ABOVE = "above"

LT, EQ, GT = -1, 0, 1


class CutComparisonError(Exception):
    """The cuts cannot be compared: they live in different fields, or they
    are fillers from extension fields no declared embedding relates."""


def _rational_under(c: QuadExt) -> Fraction:
    return rational_between(c - 1, c)


def _rational_over(c: QuadExt) -> Fraction:
    return rational_between(c, c + 1)


class Cut:
    """One cut of `field`; construct through the cut_* factories.

    A filler cut keeps its generator `g` and side for membership, places
    and printing, and the `analysis` of g over the field it was built
    from.  Its `normal` is the equal edge or improper cut when g leaves
    the field through an exponent, and None when the cut is a genuine
    non-ball cut; other kinds have neither.
    """

    __slots__ = ("field", "kind", "ball", "side", "g", "normal", "analysis")

    def __init__(self, field: FieldDescriptor, kind: str,
                 ball: Optional[Ball] = None, side: Optional[int] = None,
                 g: Optional[FieldElement] = None,
                 normal: Optional["Cut"] = None,
                 analysis: Optional[Obstructed] = None):
        self.field = field
        self.kind = kind
        self.ball = ball
        self.side = side
        self.g = g
        self.normal = normal
        self.analysis = analysis

    def is_principal(self) -> bool:
        return self.kind == "edge" and self.ball.is_singleton()

    def describe(self) -> dict:
        if self.kind in ("minus_inf", "plus_inf"):
            return {"kind": self.kind}
        if self.kind == "edge":
            return {"kind": "edge", "ball": self.ball.describe(),
                    "side": side_name(self.side)}
        return {"kind": "filler", "element": str(self.g),
                "extension": self.g.field.name,
                "side": side_name(self.side)}

    def __repr__(self):
        if self.kind == "minus_inf":
            return f"Cut(-inf over {self.field.name})"
        if self.kind == "plus_inf":
            return f"Cut(+inf over {self.field.name})"
        sign = "+" if self.side == UPPER else "-"
        if self.kind == "edge":
            return f"Cut({self.ball!r}{sign})"
        return f"Cut({self.g}{sign} over {self.field.name})"


def cut_minus_inf(field: FieldDescriptor) -> Cut:
    return Cut(field, "minus_inf")


def cut_plus_inf(field: FieldDescriptor) -> Cut:
    return Cut(field, "plus_inf")


def cut_edge(ball: Ball, side: int) -> Cut:
    """Edge of a ball; the whole-field ball's edges are the improper cuts."""
    if side not in (LOWER, UPPER):
        raise ValueError("side must be LOWER or UPPER")
    if ball.is_whole_field():
        return cut_minus_inf(ball.field) if side == LOWER \
            else cut_plus_inf(ball.field)
    return Cut(ball.field, "edge", ball=ball, side=side)


def cut_principal(a: FieldElement, side: int) -> Cut:
    return cut_edge(Ball(a.field, a, a.field.group.seg_empty()), side)


def cut_filler(g: FieldElement, side: int, target: FieldDescriptor,
               max_steps: int = DEFAULT_MAX_STEPS) -> Cut:
    """The cut of `target` traced by an element of a declared extension.

    The analysis of g over `target` runs here, once, under `max_steps`,
    and the cut carries it as its `analysis`: an exponent obstruction
    makes the cut's `normal` the ball edge it equals, and a filler cut
    left with `normal is None` is a non-ball cut."""
    if side not in (LOWER, UPPER):
        raise ValueError("side must be LOWER or UPPER")
    if g.field is target:
        raise ValueError("filler element must come from a proper extension")
    return cut_filler_analyzed(g, side, target,
                               obstruction(g, target, max_steps))


def cut_filler_analyzed(g: FieldElement, side: int,
                        target: FieldDescriptor, res: Obstructed) -> Cut:
    """cut_filler for a g whose analysis over `target` has already run."""
    normal = None
    if res.obstruction == "exponent":
        mask = target.embedding_mask_into(g.field)
        normal = cut_edge(*_disguised_ball(res, target, mask))
    return Cut(target, "filler", side=side, g=g, normal=normal, analysis=res)


def _disguised_ball(res: Obstructed, R: FieldDescriptor,
                    mask: tuple) -> tuple[Ball, int]:
    """The ball of R, and the side of it, whose edge an element with an
    exponent obstruction over R traces: every r of R closer to the
    approximant than the obstruction lies on the coefficient's side."""
    above = res.gamma0.group.above(res.gamma0)
    T = FinalSegment(restrict_position(above, mask, R.group))
    side = UPPER if res.coeff.sign() > 0 else LOWER
    return Ball(R, res.approximant, T), side


def _normal(C: Cut) -> Cut:
    """The edge or improper cut a disguised filler equals; C otherwise."""
    return C if C.normal is None else C.normal


# -- membership ---------------------------------------------------------------

def side_of(C: Cut, x: FieldElement) -> str:
    """Which side of the cut x falls on; BELOW means x is in D."""
    if x.field is not C.field:
        x = lift(x, C.field)
    if C.kind == "minus_inf":
        return ABOVE
    if C.kind == "plus_inf":
        return BELOW
    if C.kind == "edge":
        B = C.ball
        if ball_contains(B, x):
            return BELOW if C.side == UPPER else ABOVE
        return BELOW if x.cmp(B.center) < 0 else ABOVE
    return BELOW if lift(x, C.g.field).cmp(C.g) < 0 else ABOVE


# -- comparison ---------------------------------------------------------------

def cut_cmp(C1: Cut, C2: Cut) -> int:
    """Total order on cuts of one field: -1, 0, +1."""
    if C1.field is not C2.field:
        raise CutComparisonError("cuts live in different fields")
    if C1.kind == "filler" and C2.kind == "filler":
        # fillers from unrelated extensions stay incomparable even when
        # their normal forms are not
        G = _joined_field(C1, C2)
    C1, C2 = _normal(C1), _normal(C2)
    k1, k2 = C1.kind, C2.kind
    if k1 == "minus_inf" or k2 == "minus_inf":
        if k1 == k2:
            return EQ
        return LT if k1 == "minus_inf" else GT
    if k1 == "plus_inf" or k2 == "plus_inf":
        if k1 == k2:
            return EQ
        return LT if k2 == "plus_inf" else GT
    if k1 == "edge" and k2 == "edge":
        return _edge_pair_cmp(C1, C2)
    if k1 == "edge":
        return _edge_vs_filler(C1, C2)
    if k2 == "edge":
        return -_edge_vs_filler(C2, C1)
    return _filler_pair_cmp(C1, C2, G)


def _edge_pair_cmp(C1: Cut, C2: Cut) -> int:
    B1, B2 = C1.ball, C2.ball
    d = B2.center - B1.center
    if B1.radius.boundary == B2.radius.boundary and \
            (d.is_zero() or B1.radius.contains(d.val())):
        if C1.side == C2.side:
            return EQ
        return LT if C1.side == LOWER else GT
    big, small, flip = (B1, B2, False) if B2.radius.subset_of(B1.radius) \
        else (B2, B1, True)
    if not d.is_zero() and not big.radius.contains(d.val()):
        return LT if B1.center.cmp(B2.center) < 0 else GT
    # small sits strictly inside big, so big's edge decides
    big_side = C2.side if flip else C1.side
    out = LT if big_side == LOWER else GT
    return -out if flip else out


def _hull_offset(B: Ball, g: FieldElement) -> tuple[bool, FieldElement]:
    """g - center for the generator g of a non-ball filler of B's field,
    and whether g sits strictly between members of the convex hull of B
    (else it lies past some field element outside B).  Only a disguised
    ball edge could sit in the gap between B and the rest of the field."""
    G = g.field
    d = g - lift(B.center, G)
    bnd = B.radius.boundary
    mask = B.field.embedding_mask_into(G)
    inside = G.group.at(d.val()).cmp(embed_position_max(bnd, mask,
                                                        G.group)) > 0
    return inside, d


def _edge_vs_filler(Ce: Cut, Cf: Cut) -> int:
    inside, d = _hull_offset(Ce.ball, Cf.g)
    if inside:
        return LT if Ce.side == LOWER else GT
    return LT if d.sign() > 0 else GT


def _joined_field(C1: Cut, C2: Cut) -> FieldDescriptor:
    """The larger of the extension fields of two filler cuts."""
    try:
        return C1.g.field.join(C2.g.field)
    except FieldMismatchError as exc:
        raise CutComparisonError(str(exc)) from exc


def _filler_pair_cmp(C1: Cut, C2: Cut, G: FieldDescriptor) -> int:
    """Order of two non-ball filler cuts of one field; G is the larger of
    their extension fields."""
    d = lift(C2.g, G) - lift(C1.g, G)
    if d.is_zero():
        return EQ
    if d.sign() > 0:
        lo, hi, order = C1, C2, LT
    else:
        lo, hi, order = C2, C1, GT
    x = _element_between_fillers(lo, hi, G)
    return order if x is not None else EQ


def _element_between_fillers(lo_cut: Cut, hi_cut: Cut, G: FieldDescriptor
                             ) -> Optional[FieldElement]:
    """An element of F strictly between the generators lo < hi of two
    non-ball filler cuts of F, lifted to G, the larger of their extension
    fields, or None when no such element exists.

    The lower cut's analysis over F holds the best approximant r* and the
    coefficient obstruction at gamma0 = max v(lo - F).  Writing
    w = v(hi - lo), an element between the two exists exactly when w does
    not exceed gamma0: a coefficient nudge at gamma0 when w equals it, and
    otherwise r* itself or a coefficient slot at w, which lies in the
    exponent image as every distance from hi to F does.
    """
    F = lo_cut.field
    lo, hi = lift(lo_cut.g, G), lift(hi_cut.g, G)
    delta = hi - lo
    res = lo_cut.analysis
    gamma0, c0, r_star = res.gamma0, res.coeff, res.approximant
    if lo_cut.g.field is not G:
        gamma0 = embed_element(
            gamma0, lo_cut.g.field.embedding_mask_into(G), G.group)
    w = delta.val()
    order = w.cmp(gamma0)
    if order > 0:
        return None
    mask = F.embedding_mask_into(G)

    def between(cand: FieldElement) -> bool:
        c = lift(cand, G)
        return c.cmp(lo) > 0 and c.cmp(hi) < 0

    if order == 0:
        s = rational_between(c0, c0 + delta.leading_coeff())
    elif between(r_star):
        return r_star
    else:
        s = rational_between(QuadExt(0), delta.leading_coeff())
    cand = r_star + F.monomial(restrict_element(w, mask, F.group), s)
    if not between(cand):
        raise AssertionError("slot candidate failed its side checks")
    return cand


# -- equivalence --------------------------------------------------------------

def equivalent(C1: Cut, C2: Cut) -> bool:
    """Equal cuts, or the two edges of one ball."""
    order = cut_cmp(C1, C2)
    if order == EQ:
        return True
    lo, hi = (C1, C2) if order == LT else (C2, C1)
    return _ordered_equivalent(lo, hi)


def _ordered_equivalent(lo: Cut, hi: Cut) -> bool:
    """equivalent for two cuts already known to satisfy lo < hi."""
    lo, hi = _normal(lo), _normal(hi)
    if lo.kind == "minus_inf" and hi.kind == "plus_inf":
        return True  # edges of the whole-field ball
    if lo.kind == "edge" and hi.kind == "edge":
        return lo.side == LOWER and hi.side == UPPER and \
            ball_eq(lo.ball, hi.ball)
    # a non-ball cut is equivalent only to itself
    return False


# -- classification -----------------------------------------------------------

@dataclass(frozen=True)
class PrincipalResult:
    element: FieldElement
    side: int

    kind = "principal"


@dataclass(frozen=True)
class BallCutResult:
    ball: Ball
    side: int

    kind = "ball"


@dataclass(frozen=True)
class NonBallRefutation:
    """One disagreement between the analyzed cut and a candidate ball-edge
    cut: the witness element lands on different sides of the two."""
    radius: FinalSegment
    side: int
    center: FieldElement
    witness: FieldElement


@dataclass(frozen=True)
class NonBallCertificate:
    gamma0: GroupElem           # obstruction exponent, in the base group
    coeff: QuadExt              # the coefficient outside the base field
    approximant: FieldElement   # best base-field approximant
    refutations: tuple


@dataclass(frozen=True)
class NonBallResult:
    certificate: NonBallCertificate

    kind = "non_ball"


@dataclass(frozen=True)
class UnknownResult:
    reached: Optional[GroupElem]
    reason: str

    kind = "unknown"


ClassifyResult = Union[PrincipalResult, BallCutResult, NonBallResult,
                       UnknownResult]


def classify(C: Cut, precision: GroupElem,
             max_steps: int = DEFAULT_MAX_STEPS) -> ClassifyResult:
    """Decide what kind of cut a representation denotes: principal, a ball
    edge, or certified non-ball.  Filler cuts are analyzed term by term;
    obstructions past the precision cutoff yield Unknown."""
    if C.kind in ("minus_inf", "plus_inf"):
        side = UPPER if C.kind == "plus_inf" else LOWER
        return BallCutResult(Ball(C.field, C.field.zero(),
                                  C.field.group.seg_all()), side)
    if C.kind == "edge":
        if C.ball.is_singleton():
            return PrincipalResult(C.ball.center, C.side)
        return BallCutResult(C.ball, C.side)

    R = C.field
    G = C.g.field
    mask = R.embedding_mask_into(G)
    if precision.group == R.group:
        cutoff = embed_element(precision, mask, G.group)
    elif precision.group == G.group:
        cutoff = precision
    else:
        raise ValueError("precision cutoff must live in the value group of "
                         "the cut's field or of the filler's field")
    past_cutoff = UnknownResult(precision,
                                "no obstruction at or below the cutoff")
    try:
        res = obstruction(C.g, R, max_steps)
    except ExpansionBudgetError as exc:
        # the budget decides only if every extracted term met the cutoff
        if exc.reached is not None and \
                embed_element(exc.reached, mask, G.group).cmp(cutoff) > 0:
            return past_cutoff
        return UnknownResult(None, "term extraction exceeded the step budget")
    gamma, c, approx = res.gamma0, res.coeff, res.approximant
    if gamma.cmp(cutoff) > 0:
        return past_cutoff
    if res.obstruction == "exponent":
        B, side = _disguised_ball(res, R, mask)
        if B.is_singleton():
            return PrincipalResult(approx, side)
        return BallCutResult(B, side)
    g_sub = restrict_element(gamma, mask, R.group)
    return NonBallResult(_non_ball_certificate(C, approx, g_sub, c))


def _non_ball_certificate(C: Cut, r_star: FieldElement, gamma0: GroupElem,
                          c0: QuadExt) -> NonBallCertificate:
    """Refute every candidate ball whose edge could trace the cut.

    At the obstruction scale the cut behaves like the cut of the rationals
    at the irrational c0: elements r* + q*t^gamma0 fall below it exactly
    when q < c0.  A ball edge at that scale splits instead at a rational
    threshold (its center's coefficient) or not at all, so for each
    candidate radius, side, and center a rational q between the two
    thresholds gives a concrete disagreement witness.
    """
    R = C.field
    group = R.group
    lo_q = _rational_under(c0)
    hi_q = _rational_over(c0)
    mid_q = rational_between(QuadExt(lo_q), c0)

    def at_coeff(q) -> FieldElement:
        return r_star + R.monomial(gamma0, q)

    refutations = []
    closed = group.seg_at_least(gamma0)
    open_ = group.seg_above(gamma0)
    for T in (closed, open_):
        for side in (LOWER, UPPER):
            for center_q in (Fraction(0), lo_q, mid_q):
                center = at_coeff(center_q)
                edge = cut_edge(Ball(R, center, T), side)
                if T is closed:
                    # every sampled coefficient lies inside this ball, so
                    # the edge puts them all on its own side
                    wq = hi_q if side == UPPER else lo_q
                elif QuadExt(center_q).cmp(c0) < 0:
                    wq = rational_between(QuadExt(center_q), c0)
                else:
                    wq = rational_between(c0, QuadExt(center_q))
                witness = at_coeff(wq)
                if side_of(C, witness) == side_of(edge, witness):
                    raise AssertionError("refutation witness agreed with "
                                         "the candidate ball edge")
                refutations.append(
                    NonBallRefutation(T, side, center, witness))
    return NonBallCertificate(gamma0, c0, r_star, tuple(refutations))


# -- restriction ---------------------------------------------------------------

def restrict(C: Cut, R: FieldDescriptor,
             max_steps: int = DEFAULT_MAX_STEPS) -> Cut:
    """The cut (D intersect R, E intersect R) of the subfield R."""
    F = C.field
    mask = R.embedding_mask_into(F)
    if mask is None:
        raise FieldMismatchError(f"{R.name} is not a declared subfield of "
                                 f"{F.name}")
    if C.kind == "minus_inf":
        return cut_minus_inf(R)
    if C.kind == "plus_inf":
        return cut_plus_inf(R)
    if C.kind == "filler":
        return cut_filler(C.g, C.side, R, max_steps)
    B = C.ball
    res = settled_analysis(B.center, R, max_steps)
    if isinstance(res, Obstructed) and not B.radius.contains(res.gamma0):
        # the ball misses R entirely; both edges trace the center's cut
        return cut_filler_analyzed(B.center, C.side, R, res)
    center = res.approximant
    S0 = FinalSegment(restrict_position(B.radius.boundary, mask, R.group))
    return cut_edge(Ball(R, center, S0), C.side)


# -- fibers ---------------------------------------------------------------------

@dataclass(frozen=True)
class FiberDescription:
    """The closed interval of extension-field cuts restricting to a cut."""
    lower: Cut
    upper: Cut
    singleton: bool

    def describe(self) -> dict:
        return {"lower": self.lower.describe(),
                "upper": self.upper.describe(),
                "singleton": self.singleton}


def fiber(C: Cut, F: FieldDescriptor,
          max_steps: int = DEFAULT_MAX_STEPS) -> FiberDescription:
    R = C.field
    mask = R.embedding_mask_into(F)
    if mask is None:
        raise FieldMismatchError(f"{R.name} is not a declared subfield of "
                                 f"{F.name}")
    C = _normal(C)
    if C.kind == "filler":
        if C.g.field.embedding_mask_into(F) is None:
            raise FieldMismatchError(
                "fiber of a filler cut needs the filler's field inside the "
                "target extension")
        between = between_ball(NonBallWithFiller(R, C.g), ambient=F,
                               max_steps=max_steps)
        return FiberDescription(cut_edge(between, LOWER),
                                cut_edge(between, UPPER), False)
    if C.kind == "edge":
        center, bnd, side = C.ball.center, C.ball.radius.boundary, C.side
    else:
        center = R.zero()
        bnd = R.group.minus_inf()
        side = UPPER if C.kind == "plus_inf" else LOWER
    tight = FinalSegment(embed_position_max(bnd, mask, F.group))
    wide = FinalSegment(embed_position_min(bnd, mask, F.group))
    aF = lift(center, F)
    small_edge = cut_edge(Ball(F, aF, tight), side)
    big_edge = cut_edge(Ball(F, aF, wide), side)
    if side == UPPER:
        lower, upper = small_edge, big_edge
    else:
        lower, upper = big_edge, small_edge
    return FiberDescription(lower, upper, tight.boundary == wide.boundary)


# -- elements around cuts --------------------------------------------------------

def _element_past(C: Cut, direction: int) -> FieldElement:
    """An element of C's field strictly on the given side of C; the cut
    must not be improper in that direction."""
    F = C.field
    if C.kind in ("minus_inf", "plus_inf"):
        return F.zero()
    if C.kind == "edge":
        B = C.ball
        if B.is_singleton():
            return B.center + direction
        out = element_in_interval(F.group.minus_inf(), B.radius.boundary)
        return B.center + F.monomial(out, direction)
    # a non-ball filler: nudge the coefficient at the obstruction scale
    res = C.analysis
    mask = F.embedding_mask_into(C.g.field)
    gF = restrict_element(res.gamma0, mask, F.group)
    s = Fraction(abs(res.coeff.floor()) + 1)
    return res.approximant + F.monomial(gF, direction * s)


def cut_lt_witness(C1: Cut, C2: Cut) -> FieldElement:
    """An element strictly between two cuts with C1 < C2: above C1 and
    below C2."""
    if cut_cmp(C1, C2) != LT:
        raise ValueError("witness requires strictly ordered cuts")
    return _ordered_witness(C1, C2)


def _ordered_witness(C1: Cut, C2: Cut) -> FieldElement:
    """cut_lt_witness for two cuts already known to satisfy C1 < C2."""
    C1, C2 = _normal(C1), _normal(C2)
    if C1.kind == "minus_inf":
        return _element_past(C2, -1)
    if C2.kind == "plus_inf":
        return _element_past(C1, +1)
    if C1.kind == "edge" and C2.kind == "edge":
        return _edge_pair_witness(C1, C2)
    if C1.kind == "edge" and C2.kind == "filler":
        return _edge_filler_witness(C1, C2, below_filler=True)
    if C1.kind == "filler" and C2.kind == "edge":
        return _edge_filler_witness(C2, C1, below_filler=False)
    x = _element_between_fillers(C1, C2, _joined_field(C1, C2))
    if x is None:
        raise AssertionError("strictly ordered filler cuts admitted no "
                             "witness")
    return x


def _edge_pair_witness(C1: Cut, C2: Cut) -> FieldElement:
    B1, B2 = C1.ball, C2.ball
    if ball_eq(B1, B2):
        return B1.center
    d = B2.center - B1.center
    big, small = (B1, B2) if B2.radius.subset_of(B1.radius) else (B2, B1)
    if not d.is_zero() and not big.radius.contains(d.val()):
        return (B1.center + B2.center) / 2
    gamma = element_in_interval(big.radius.boundary, small.radius.boundary)
    if gamma is None:
        raise AssertionError("properly nested balls with no radius between")
    step = small.center.field.monomial(gamma)
    # a member of the big ball on the far side of the small one
    return small.center - step if big is B1 else small.center + step


def _edge_filler_witness(Ce: Cut, Cf: Cut, below_filler: bool
                         ) -> FieldElement:
    """Element between a ball-edge cut and a non-ball filler cut;
    below_filler says the edge cut is the smaller one.  The generator's
    distance to any element of the field, the ball's center included, is
    an exponent of the field."""
    B = Ce.ball
    F = Ce.field
    inside, d = _hull_offset(B, Cf.g)
    sigma = d.sign()
    vd = restrict_element(d.val(), F.embedding_mask_into(d.field), F.group)
    c0 = d.leading_coeff()
    if inside:
        if (sigma > 0) == below_filler:
            return B.center
        # a member of B on the far side of g
        s = Fraction(abs(c0.floor()) + 1)
        return B.center + F.monomial(vd, s if sigma > 0 else -s)
    # beyond the hull: an element of F between the ball and g
    s = rational_between(QuadExt(0), c0) if sigma > 0 \
        else rational_between(c0, QuadExt(0))
    return B.center + F.monomial(vd, s)


def find_between(C1: Cut, C2: Cut) -> FieldElement:
    """A deterministic element a with C1 <= a- and a+ <= C2: the midpoint
    of the cut anchors when that passes the side checks, else a
    constructed witness."""
    if cut_cmp(C1, C2) != LT:
        raise ValueError("find_between requires C1 < C2")
    return _ordered_between(C1, C2)


def _ordered_between(C1: Cut, C2: Cut) -> FieldElement:
    """find_between for two cuts already known to satisfy C1 < C2."""
    a1 = _anchor(C1)
    a2 = _anchor(C2)
    F = C1.field
    if a1 is None and a2 is None:
        cand = F.zero()
    elif a1 is None:
        cand = a2 - 1
    elif a2 is None:
        cand = a1 + 1
    else:
        cand = (a1 + a2) / 2
    if side_of(C1, cand) == ABOVE and side_of(C2, cand) == BELOW:
        return cand
    return _ordered_witness(C1, C2)


def _anchor(C: Cut) -> Optional[FieldElement]:
    if C.kind in ("minus_inf", "plus_inf"):
        return None
    F = C.field
    if C.kind == "edge":
        B = C.ball
        if B.is_singleton():
            return B.center
        rep = F.monomial(element_in_interval(F.group.minus_inf(),
                                             B.radius.boundary))
        return B.center + rep if C.side == UPPER else B.center - rep
    return C.analysis.approximant


# -- full ball intervals -----------------------------------------------------------

@dataclass(frozen=True)
class FullBallReport:
    """Edge positions of sampled balls relative to one ball's edge
    interval: members' edges land jointly inside, others' jointly outside,
    which is what makes the interval full."""
    cases: tuple
    all_consistent: bool


def is_full_ball_interval(B: Ball, samples) -> FullBallReport:
    lower = cut_edge(B, LOWER)
    upper = cut_edge(B, UPPER)

    def in_closed(C: Cut) -> bool:
        return cut_cmp(lower, C) <= 0 and cut_cmp(C, upper) <= 0

    def in_open(C: Cut) -> bool:
        return cut_cmp(lower, C) < 0 and cut_cmp(C, upper) < 0

    cases = []
    consistent = True
    for B1 in samples:
        e_lo, e_hi = cut_edge(B1, LOWER), cut_edge(B1, UPPER)
        if ball_eq(B1, B):
            relation = "equal"
            joint = in_closed(e_lo) and in_closed(e_hi) and \
                not in_open(e_lo) and not in_open(e_hi)
        else:
            d = B1.center - B.center
            inside_big = d.is_zero() or B1.radius.contains(d.val())
            inside_self = d.is_zero() or B.radius.contains(d.val())
            if B.radius.subset_of(B1.radius) and inside_big:
                relation = "contains"
                joint = cut_cmp(e_lo, lower) < 0 and \
                    cut_cmp(upper, e_hi) < 0
            elif B1.radius.subset_of(B.radius) and inside_self:
                relation = "inside"
                joint = in_open(e_lo) and in_open(e_hi)
            else:
                relation = "disjoint"
                joint = cut_cmp(e_hi, lower) <= 0 or \
                    cut_cmp(upper, e_lo) <= 0
        consistent = consistent and joint
        cases.append({"ball": B1.describe(), "relation": relation,
                      "joint": joint})
    return FullBallReport(tuple(cases), consistent)
