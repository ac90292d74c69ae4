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

Comparison is exact and rests on one fact: C1 < C2 exactly when some
element of the field lies above C1 and below C2.  One case ladder decides
the order from what that element needs and returns a function that builds
it, for the witness, `find_between` and the place search.  An edge against
a non-ball filler is read in the field itself from the filler's stored
`analysis` (approximant, obstruction exponent and coefficient), and two
fillers through the lower one's.  That analysis spends its step budget
once, when the cut is built, and the order operations never analyse again.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

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
    embed_element, embed_position, restrict_element, restrict_position,
    side_name,
)

BELOW = "below"
ABOVE = "above"

LT, EQ, GT = -1, 0, 1


class CutComparisonError(Exception):
    """The cuts cannot be compared: they live in different fields, or they
    are fillers from extension fields no declared embedding relates."""


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

_END = {"minus_inf": -1, "plus_inf": 1}
# _order's second answer: it builds an element between the two cuts
_Witness = Optional[Callable[[], FieldElement]]


def cut_cmp(C1: Cut, C2: Cut) -> int:
    """Total order on cuts of one field: -1, 0, +1."""
    return _order(C1, C2)[0]


def _order(C1: Cut, C2: Cut) -> tuple[int, _Witness]:
    """cut_cmp's answer and, unless it is EQ, a function building an
    element of the field above the lower cut and below the upper one.

    C1 < C2 exactly when such an element exists, so each rung of the case
    ladder decides the order from what that element needs, and the
    function builds it only when asked."""
    if C1.field is not C2.field:
        raise CutComparisonError("cuts live in different fields")
    if C1.kind == "filler" and C2.kind == "filler":
        # fillers from unrelated extensions stay incomparable even when
        # their normal forms are not
        try:
            G = C1.g.field.join(C2.g.field)
        except FieldMismatchError as exc:
            raise CutComparisonError(str(exc)) from exc
    C1, C2 = _normal(C1), _normal(C2)
    k1, k2 = C1.kind, C2.kind
    e1, e2 = _END.get(k1, 0), _END.get(k2, 0)
    if e1 or e2:
        if e1 == e2:
            return EQ, None
        lo, hi = (C1, C2) if e1 < e2 else (C2, C1)
        past = (hi, -1) if lo.kind == "minus_inf" else (lo, +1)
        return (LT if lo is C1 else GT), lambda: _element_past(*past)
    if k1 == "edge" and k2 == "edge":
        return _edge_pair(C1, C2)
    if k1 == "edge":
        return _edge_filler(C1, C2)
    if k2 == "edge":
        order, witness = _edge_filler(C2, C1)
        return -order, witness
    return _filler_pair(C1, C2, G)


def _edge_pair(C1: Cut, C2: Cut) -> tuple[int, _Witness]:
    B1, B2 = C1.ball, C2.ball
    d = B2.center - B1.center
    if B1.radius.boundary == B2.radius.boundary and \
            (d.is_zero() or B1.radius.contains(d.val())):
        # one ball: its center separates its two edges
        if C1.side == C2.side:
            return EQ, None
        lo = C1 if C1.side == LOWER else C2
        return (LT if lo is C1 else GT), lambda: lo.ball.center
    big, small = (C1, C2) if B2.radius.subset_of(B1.radius) else (C2, C1)
    if not d.is_zero() and not big.ball.radius.contains(d.val()):
        # disjoint balls: the centers decide, and their midpoint separates
        lo, hi = (C1, C2) if B1.center.cmp(B2.center) < 0 else (C2, C1)
        return (LT if lo is C1 else GT), \
            lambda: (lo.ball.center + hi.ball.center) / 2
    # small sits strictly inside big, so big's edge decides; a member of
    # big on the far side of small separates them
    lo = big if big.side == LOWER else small

    def witness() -> FieldElement:
        gamma = element_in_interval(big.ball.radius.boundary,
                                    small.ball.radius.boundary)
        if gamma is None:
            raise AssertionError("properly nested balls with no radius "
                                 "between")
        c = small.ball.center
        step = c.field.monomial(gamma)
        return c - step if lo is big else c + step
    return (LT if lo is C1 else GT), witness


def _edge_filler(Ce: Cut, Cf: Cut) -> tuple[int, _Witness]:
    """A ball edge against a non-ball filler, read in the field F from the
    filler's stored analysis.  Its generator is g = r* + c0 t^gamma0 +
    (higher terms); with e = r* - center, v(g - center) and its leading
    coefficient are those of e when v(e) < gamma0, (gamma0, c0 + lc(e))
    when v(e) = gamma0 (never 0, as c0 is no coefficient of F), and
    (gamma0, c0) when v(e) > gamma0 or e = 0."""
    B, F, res = Ce.ball, Ce.field, Cf.analysis
    v = restrict_element(res.gamma0, F.embedding_mask_into(Cf.g.field),
                         F.group)
    c = res.coeff
    e = res.approximant - B.center
    k = 1 if e.is_zero() else e.val().cmp(v)
    if k < 0:
        v, c = e.val(), e.leading_coeff()
    elif k == 0:
        c = c + e.leading_coeff()
    up = c.sign() > 0
    # g sits in the convex hull of B exactly when the radius holds v;
    # past the hull, only a disguised ball edge could fill the gap
    inside = B.radius.contains(v)
    edge_first = Ce.side == LOWER if inside else up

    def witness() -> FieldElement:
        if not inside:
            # an element of F between the ball and g
            s = rational_between(QuadExt(0), c) if up \
                else rational_between(c, QuadExt(0))
        elif up == edge_first:
            return B.center
        else:
            # a member of B on the far side of g
            s = (1 if up else -1) * Fraction(abs(c.floor()) + 1)
        return B.center + F.monomial(v, s)
    return (LT if edge_first else GT), witness


def _filler_pair(C1: Cut, C2: Cut, G: FieldDescriptor
                 ) -> tuple[int, _Witness]:
    """Two non-ball filler cuts of F, through their generators lo < hi
    lifted to G, the larger of their extension fields.

    The lower cut's analysis over F holds the best approximant r* and the
    coefficient obstruction at gamma0 = max v(lo - F).  Writing
    w = v(hi - lo), an element of F between the two exists exactly when w
    does not exceed gamma0: a coefficient nudge at gamma0 when w equals
    it, and otherwise r* itself or a coefficient slot at w, which lies in
    the exponent image as every distance from hi to F does.
    """
    g1, g2 = lift(C1.g, G), lift(C2.g, G)
    delta = g2 - g1
    if delta.is_zero():
        return EQ, None
    if delta.sign() > 0:
        lo, glo, ghi = C1, g1, g2
    else:
        lo, glo, ghi, delta = C2, g2, g1, -delta
    F = lo.field
    res = lo.analysis
    gamma0, c0, r_star = res.gamma0, res.coeff, res.approximant
    if lo.g.field is not G:
        gamma0 = embed_element(
            gamma0, lo.g.field.embedding_mask_into(G), G.group)
    w = delta.val()
    at_gamma0 = w.cmp(gamma0)
    if at_gamma0 > 0:
        return EQ, None

    def between(cand: FieldElement) -> bool:
        c = lift(cand, G)
        return c.cmp(glo) > 0 and c.cmp(ghi) < 0

    def witness() -> FieldElement:
        if at_gamma0 == 0:
            s = rational_between(c0, c0 + delta.leading_coeff())
        elif between(r_star):
            return r_star
        else:
            s = rational_between(QuadExt(0), delta.leading_coeff())
        wF = restrict_element(w, F.embedding_mask_into(G), F.group)
        cand = r_star + F.monomial(wF, s)
        if not between(cand):
            raise AssertionError("slot candidate failed its side checks")
        return cand
    return (LT if lo is C1 else GT), witness


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
    lo_q = rational_between(c0 - 1, c0)
    hi_q = rational_between(c0, c0 + 1)
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
    tight = embed_position(bnd, mask, F.group, UPPER)
    wide = embed_position(bnd, mask, F.group, LOWER)
    aF = lift(center, F)
    # the wider ball's edge lies farther towards `side`, so read as
    # (lower, upper) the pair runs forwards for UPPER, backwards for LOWER
    small_edge, big_edge = (cut_edge(Ball(F, aF, FinalSegment(b)), side)
                            for b in (tight, wide))
    lower, upper = (small_edge, big_edge)[::side]
    return FiberDescription(lower, upper, tight == wide)


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
    order, witness = _order(C1, C2)
    if order != LT:
        raise ValueError("witness requires strictly ordered cuts")
    return witness()


def find_between(C1: Cut, C2: Cut) -> FieldElement:
    """A deterministic element a with C1 <= a- and a+ <= C2: the midpoint
    of the cut anchors when that passes the side checks, else a
    constructed witness."""
    order, witness = _order(C1, C2)
    if order != LT:
        raise ValueError("find_between requires C1 < C2")
    return _between(C1, C2, witness)


def _between(C1: Cut, C2: Cut, witness: _Witness) -> FieldElement:
    """find_between for C1 < C2, given the witness builder of _order."""
    a1, a2 = _anchor(C1), _anchor(C2)
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
    return witness()


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
