"""Ultrametric balls in ordered Hahn-sum fields.

A ball is the set of elements within a prescribed valuation distance of a
center: B = {x : v(center - x) in S or x = center} for a final segment S of
the value group.  Empty S gives the singleton {center}; the whole group
gives the whole field.  Every member is a center, so equality is radius
equality plus center distance.

The between-set construction turns a cut complement (either the pair
D < B0 < E around a ball of a subfield, or the two sides of a filled cut)
into the ball of all elements of a bigger field falling strictly between
the two sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .ordfield import (
    DEFAULT_MAX_STEPS, FieldDescriptor, FieldElement, FieldMismatchError,
    Obstructed, lift, obstruction,
)
from .valgroup import (
    FinalSegment, GroupElem, InitialSegment, restrict_position, segment_above,
)


class Ball:
    """B_S(center) inside a fixed field; immutable."""

    __slots__ = ("field", "center", "radius")

    def __init__(self, field: FieldDescriptor, center: FieldElement,
                 radius: FinalSegment):
        if center.field is not field:
            raise FieldMismatchError("center must belong to the ball's field")
        if radius.boundary.group != field.group:
            raise ValueError("radius segment must live in the value group "
                             "of the ball's field")
        self.field = field
        self.center = center
        self.radius = radius

    def contains(self, x: FieldElement) -> bool:
        return ball_contains(self, x)

    def is_singleton(self) -> bool:
        return self.radius.is_empty()

    def is_whole_field(self) -> bool:
        return self.radius.is_all()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        if other.field is not self.field:
            return False
        return ball_eq(self, other)

    __hash__ = None

    def describe(self) -> dict:
        return {"center": str(self.center),
                "radius": self.radius.describe()}

    def __repr__(self):
        return f"Ball({self.center}; v>{self.radius.boundary!r})"


def ball_contains(B: Ball, x: FieldElement) -> bool:
    """Membership: v(center - x) in S, including x = center."""
    if x.field is not B.field:
        x = lift(x, B.field)
    d = B.center - x
    if d.is_zero():
        return True
    return B.radius.contains(d.val())


def ball_eq(B1: Ball, B2: Ball) -> bool:
    """Set equality: same radius segment and centers within it."""
    if B1.field is not B2.field:
        raise FieldMismatchError("balls live in different fields")
    if B1.radius.boundary != B2.radius.boundary:
        return False
    return ball_contains(B1, B2.center)


def distance_sets(B: Ball) -> InitialSegment:
    """The common value set v(E-D) = v(E-B) = v(B-D) of the complement
    pair D < B < E; exactly the complement of the radius segment."""
    if B.is_whole_field():
        raise ValueError("the whole field has no complement pair")
    return B.radius.complement()


def complement_pair_at(B: Ball, gamma: GroupElem
                       ) -> tuple[FieldElement, FieldElement]:
    """A pair (d, e) with d < B < e and v(e-d) = gamma, built as
    center -+ t^gamma; gamma must lie outside the radius segment."""
    if B.radius.contains(gamma):
        raise ValueError("distance value lies inside the radius segment")
    c = B.field.monomial(gamma)
    return B.center - c, B.center + c


@dataclass(frozen=True)
class BallComplement:
    """The pair D < B0 < E around a ball of a subfield."""
    ball: Ball


@dataclass(frozen=True)
class NonBallWithFiller:
    """The two sides of the cut that `filler` (from an extension of the
    subfield) fills: D = {r in R : r < filler}, E = {r : r > filler}."""
    subfield: FieldDescriptor
    filler: FieldElement


CutComplementSpec = Union[BallComplement, NonBallWithFiller]


def between_ball(spec: CutComplementSpec,
                 ambient: Optional[FieldDescriptor] = None,
                 filler: Optional[FieldElement] = None,
                 max_steps: int = DEFAULT_MAX_STEPS) -> Ball:
    """The set of ambient-field elements strictly between the two sides of
    the complement pair, as a ball B_S(filler) with S the largest final
    segment above v(E-D)."""
    if isinstance(spec, BallComplement):
        B0 = spec.ball
        if B0.is_whole_field():
            raise ValueError("the whole field has no complement pair")
        if ambient is None:
            ambient = filler.field if filler is not None else B0.field
        mask = B0.field.embedding_mask_into(ambient)
        if mask is None:
            raise FieldMismatchError(
                f"{B0.field.name} does not embed in {ambient.name}")
        S = segment_above(distance_sets(B0), into=ambient.group, mask=mask)
        center = lift(B0.center, ambient)
        if filler is None:
            filler = center
        out = Ball(ambient, filler, S)
        if not ball_contains(out, center):
            raise ValueError("filler does not fall between the sides of "
                             "the complement pair")
        return out

    R = spec.subfield
    a = spec.filler if filler is None else filler
    if ambient is None:
        ambient = a.field
    elif a.field is not ambient:
        a = lift(a, ambient)
    mask = R.embedding_mask_into(ambient)
    if mask is None:
        raise FieldMismatchError(f"{R.name} does not embed in {ambient.name}")
    res = obstruction(a, R, max_steps)
    dist = _filler_distance_values(res, R, ambient, mask)
    if dist.is_empty():
        raise ValueError("filler lies beyond the subfield; the complement "
                         "pair has an empty side")
    return Ball(ambient, a, segment_above(dist, into=ambient.group,
                                          mask=mask))


def _filler_distance_values(res: Obstructed, R: FieldDescriptor,
                            ambient: FieldDescriptor,
                            mask: tuple) -> InitialSegment:
    """v(E-D) for the cut filled by the analyzed element, read inside the
    ambient value group.

    Coefficient obstruction at gamma0: distances reach gamma0 from both
    sides, so v(E-D) = {delta <= gamma0}.  Exponent obstruction: gamma0 is
    hit only on the side of the obstructing coefficient, so across the cut
    v(E-D) = {delta in vR : delta < gamma0}.  Returned in subgroup
    coordinates.
    """
    group = ambient.group
    nudged = group.above if res.obstruction == "coefficient" else group.below
    return InitialSegment(restrict_position(nudged(res.gamma0), mask,
                                            R.group))

