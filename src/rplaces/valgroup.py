"""Finite-rank ordered abelian groups of exponents, and cut positions in them.

Two group kinds are supported:

* lexicographic QQ^n (coordinate 0 most significant),
* weighted: QQ^n order-embedded in the reals by q |-> sum q_i * w_i for
  positive, QQ-linearly independent weights w_i in one Q(sqrt(d)); the
  span of Q(sqrt(d)) over QQ has dimension 2, so n <= 2.

A *position* (GroupCut) is a point of the order completion: below all
elements, above all, exactly at an element, immediately above/below an
element, or an edge of a coset g + H_k of a standard convex subgroup
H_k = {0}^k x QQ^(n-k).  A lexicographic position is a nudge-terminated
key, so that one tuple comparison decides the order of any two of them and
of any element against any of them.  A weighted position rests on an
element and is keyed by its coordinates and a nudge; its order is that of
the elements' sizes (ValueGroup._size), then of the nudges.

Final segments of the group are represented by their boundary position:
S = {g : g > boundary}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Optional, Sequence

from .coeff import Ordered, QuadExt, _surd_sign, rational_between

LOWER = -1
UPPER = 1

LEX = "lex"
WEIGHTED = "weighted"

Q0 = Fraction(0)


def side_name(side: int) -> str:
    """'upper' for UPPER, 'lower' for LOWER."""
    return "upper" if side > 0 else "lower"


class ValueGroup:
    """Exponent group descriptor.  Immutable."""

    __slots__ = ("kind", "rank", "weights", "_surd")

    def __init__(self, kind: str, rank: int,
                 weights: Optional[Sequence[QuadExt]] = None):
        if kind not in (LEX, WEIGHTED):
            raise ValueError(f"unknown group kind {kind!r}")
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if kind == WEIGHTED:
            if rank < 1:
                raise ValueError("weighted groups need rank >= 1")
            if weights is None or len(weights) != rank:
                raise ValueError("weighted groups need one weight per rank")
            weights = tuple(QuadExt.of(w) for w in weights)
            if any(w.sign() <= 0 for w in weights):
                raise ValueError("weights must be positive")
            if len({w.d for w in weights} - {None}) > 1:
                raise ValueError("weights must share one quadratic extension")
            # over the basis (1, sqrt(d)) the weights span dimension <= 2,
            # so three or more are always dependent; two are iff the 2x2
            # determinant of their coordinates vanishes
            if rank > 2 or rank == 2 and \
                    weights[0].a * weights[1].b == weights[1].a * weights[0].b:
                raise ValueError("weights are rationally dependent")
            self.weights = weights
            # the weights as a_i + b_i*sqrt(d) over one positive integer
            # denominator, which it drops (see _size)
            den = math.lcm(*(q.denominator for w in weights
                             for q in (w.a, w.b)))
            d = next((w.d for w in weights if w.d is not None), None)
            self._surd = (tuple(int(w.a * den) for w in weights),
                          tuple(int(w.b * den) for w in weights), d)
        else:
            if weights is not None:
                raise ValueError("lexicographic groups take no weights")
            self.weights = None
            self._surd = None
        self.kind = kind
        self.rank = rank

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueGroup):
            return NotImplemented
        return (self.kind == other.kind and self.rank == other.rank
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((self.kind, self.rank, self.weights))

    def __repr__(self) -> str:
        if self.kind == WEIGHTED:
            ws = ",".join(str(w) for w in self.weights)
            return f"ValueGroup(weighted;{ws})"
        return f"ValueGroup(lex^{self.rank})"

    # -- elements -------------------------------------------------------------

    def elem(self, *coords) -> "GroupElem":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError(f"need {self.rank} coordinates, got {len(coords)}")
        return GroupElem(self, tuple(Fraction(c) for c in coords))

    def zero(self) -> "GroupElem":
        return self.elem(*([0] * self.rank))

    def unit(self, i: int) -> "GroupElem":
        coords = [0] * self.rank
        coords[i] = 1
        return self.elem(*coords)

    def real_value(self, g: "GroupElem") -> QuadExt:
        """sum q_i*w_i as a real number, for printing; orders use _size."""
        if self.kind != WEIGHTED:
            raise ValueError("real_value needs a weighted group")
        out = QuadExt(0)
        for q, w in zip(g.coords, self.weights):
            out = out + w * q
        return out

    def _size(self, k) -> tuple:
        """The pair (a, b) with sum k_i*w_i = (a + b*sqrt(d))/den, for int
        or rational coordinates k of a weighted group and den the weights'
        common denominator: the sign of a difference of two sizes, by
        coeff._surd_sign, orders their coordinate tuples."""
        wa, wb, _ = self._surd
        return sum(map(mul, k, wa)), sum(map(mul, k, wb))

    def _order(self, k1, k2) -> int:
        """-1, 0 or 1 as the coordinates k1 of a weighted group lie below,
        at or above k2."""
        return _surd_sign(*self._size(tuple(map(sub, k1, k2))),
                          self._surd[2])

    def cmp(self, g1: "GroupElem", g2: "GroupElem") -> int:
        if g1.group != self or g2.group != self:
            raise ValueError("elements from a different group")
        if self.kind == LEX:
            if g1.coords == g2.coords:
                return 0
            return 1 if g1.coords > g2.coords else -1
        return self._order(g1.coords, g2.coords)

    # -- positions ------------------------------------------------------------

    def minus_inf(self) -> "GroupCut":
        return GroupCut(self, "minf", ())

    def plus_inf(self) -> "GroupCut":
        return GroupCut(self, "pinf", ())

    def at(self, g: "GroupElem") -> "GroupCut":
        """The position occupied by the element itself."""
        self._own(g)
        if self.kind == WEIGHTED:
            return GroupCut(self, "key", ((g.coords, 0),))
        return GroupCut(self, "key", tuple((q, 0) for q in g.coords))

    def above(self, g: "GroupElem") -> "GroupCut":
        """Position immediately above g (no element in between)."""
        return self._nudged(g, UPPER)

    def below(self, g: "GroupElem") -> "GroupCut":
        return self._nudged(g, LOWER)

    def _nudged(self, g: "GroupElem", side: int) -> "GroupCut":
        self._own(g)
        if self.rank == 0:
            return self.plus_inf() if side > 0 else self.minus_inf()
        if self.kind == WEIGHTED:
            return GroupCut(self, "key", ((g.coords, side),))
        key = tuple((q, 0) for q in g.coords[:-1]) + ((g.coords[-1], side),)
        return GroupCut(self, "key", key)

    def coset_edge(self, g: "GroupElem", fixed: int, side: int) -> "GroupCut":
        """Edge of the coset of g modulo the subgroup zeroing the first
        `fixed` coordinates.  fixed=rank degenerates to above/below,
        fixed=0 to the infinities."""
        self._own(g)
        if self.kind != LEX:
            raise ValueError("coset edges exist only in lexicographic groups")
        if not 0 <= fixed <= self.rank:
            raise ValueError("fixed coordinate count out of range")
        if fixed == 0:
            return self.plus_inf() if side > 0 else self.minus_inf()
        key = tuple((q, 0) for q in g.coords[:fixed - 1]) \
            + ((g.coords[fixed - 1], side),)
        return GroupCut(self, "key", key)

    def _own(self, g: "GroupElem") -> None:
        if g.group != self:
            raise ValueError("element from a different group")

    # -- segments -------------------------------------------------------------

    def seg_empty(self) -> "FinalSegment":
        return FinalSegment(self.plus_inf())

    def seg_all(self) -> "FinalSegment":
        return FinalSegment(self.minus_inf())

    def seg_above(self, g: "GroupElem") -> "FinalSegment":
        """{x : x > g}"""
        return FinalSegment(self.above(g))

    def seg_at_least(self, g: "GroupElem") -> "FinalSegment":
        """{x : x >= g}"""
        return FinalSegment(self.below(g))


@dataclass(frozen=True)
class GroupElem(Ordered):
    group: ValueGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise ValueError("coordinate count must match the group rank")

    def cmp(self, other: "GroupElem") -> int:
        return self.group.cmp(self, other)

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self.group._own(other)
        return GroupElem(self.group, tuple(a + b for a, b
                                           in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElem":
        return GroupElem(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        return self + (-other)

    def scale(self, q) -> "GroupElem":
        q = Fraction(q)
        return GroupElem(self.group, tuple(a * q for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def sign(self) -> int:
        return self.cmp(self.group.zero())

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class GroupCut(Ordered):
    """A position in the order completion of the group.

    key encoding (lexicographic groups): a tuple of (coord, nudge) entries,
    nudges 0 except possibly on the last entry.  A full-length key with
    final nudge 0 is the position of an element; a final nudge of +/-1 on a
    key of length k is the upper/lower edge of the coset fixing the first k
    coordinates (k=rank: immediately above/below a single element), and
    tuple comparison of keys decides the order.  A weighted position is
    keyed by one (coordinates, nudge) entry of the element it rests on,
    ordered by the element's size (ValueGroup._size), then by the nudge.
    "minf"/"pinf" sort below/above every key.
    """

    __slots__ = ("group", "kind", "key")

    def __init__(self, group: ValueGroup, kind: str, key: tuple):
        self.group = group
        self.kind = kind
        self.key = key

    # -- order ----------------------------------------------------------------

    def cmp(self, other: "GroupCut") -> int:
        if self.group != other.group:
            raise ValueError("positions in different groups")
        if self.kind != other.kind:
            return 1 if _KIND_ORDER[self.kind] > _KIND_ORDER[other.kind] \
                else -1
        if self.kind != "key":
            return 0
        k1, k2 = self.key, other.key
        if self.group.kind == WEIGHTED:
            # one entry each: the elements decide, then the nudges
            (c1, k1), (c2, k2) = k1[0], k2[0]
            c = self.group._order(c1, c2)
            if c:
                return c
        # a shorter lexicographic key ends in a nonzero nudge where the
        # longer one continues with nudge 0, so no key is a prefix of another
        return 0 if k1 == k2 else 1 if k1 > k2 else -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupCut):
            return NotImplemented
        return (self.group == other.group and self.kind == other.kind
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.kind, self.key))

    def side_of(self, g: GroupElem) -> int:
        """-1 if g is below this position, +1 above, 0 exactly at it."""
        return -self.cmp(self.group.at(g))

    # -- structure ------------------------------------------------------------

    def nudge(self) -> int:
        """Final nudge; 0 for element positions, sign for infinities."""
        if self.kind == "minf":
            return -1
        if self.kind == "pinf":
            return 1
        return self.key[-1][1] if self.key else 0

    def coords(self) -> tuple:
        """Key coordinates padded with zeros to full rank (lex only)."""
        if self.kind != "key" or self.group.kind != LEX:
            raise ValueError("no coordinate vector for this position")
        qs = [q for q, _ in self.key]
        qs += [Q0] * (self.group.rank - len(qs))
        return tuple(qs)

    def describe(self) -> dict:
        """Stable plain-data form for printing and JSON."""
        if self.kind == "minf":
            return {"kind": "minus_inf"}
        if self.kind == "pinf":
            return {"kind": "plus_inf"}
        s = self.nudge()
        if self.group.kind == WEIGHTED:
            base = {"value": str(_real(self))}
        else:
            qs = [str(q) for q, _ in self.key]
            if len(self.key) != self.group.rank:
                return {"kind": "coset_edge", "side": side_name(s),
                        "fixed_coords": qs}
            base = {"coords": qs}
        kind = "element" if s == 0 else "above" if s > 0 else "below"
        return {"kind": kind, **base}

    def __repr__(self) -> str:
        d = self.describe()
        kind = d.pop("kind")
        if not d:
            return f"<{kind}>"
        val = d.get("coords", d.get("fixed_coords", d.get("value")))
        if kind == "coset_edge":
            return f"<coset({','.join(val)}){'+' if self.nudge() > 0 else '-'}>"
        mark = {"above": "+", "below": "-", "element": ""}[kind]
        if isinstance(val, list):
            val = ",".join(val)
        return f"<({val}){mark}>"


_KIND_ORDER = {"minf": 0, "key": 1, "pinf": 2}


def _real(pos: GroupCut) -> QuadExt:
    """The real value of the element a weighted key position rests on."""
    return pos.group.real_value(GroupElem(pos.group, pos.key[0][0]))


@dataclass(frozen=True)
class FinalSegment:
    """Upward-closed subset {g : g > boundary} of the group."""

    boundary: GroupCut

    def __post_init__(self):
        if self.boundary.kind == "key" and self.boundary.nudge() == 0:
            raise ValueError("segment boundary must be a proper cut position")

    @property
    def group(self) -> ValueGroup:
        return self.boundary.group

    def contains(self, g: GroupElem) -> bool:
        return self.boundary.side_of(g) > 0

    def is_empty(self) -> bool:
        return self.boundary.kind == "pinf"

    def is_all(self) -> bool:
        return self.boundary.kind == "minf"

    def subset_of(self, other: "FinalSegment") -> bool:
        return self.boundary >= other.boundary

    def complement(self) -> "InitialSegment":
        return InitialSegment(self.boundary)

    def describe(self) -> dict:
        return {"above": self.boundary.describe()}

    def __repr__(self) -> str:
        return f"Seg[> {self.boundary!r}]"


@dataclass(frozen=True)
class InitialSegment:
    """Downward-closed subset {g : g < boundary} of the group."""

    boundary: GroupCut

    def __post_init__(self):
        if self.boundary.kind == "key" and self.boundary.nudge() == 0:
            raise ValueError("segment boundary must be a proper cut position")

    @property
    def group(self) -> ValueGroup:
        return self.boundary.group

    def contains(self, g: GroupElem) -> bool:
        return self.boundary.side_of(g) < 0

    def is_empty(self) -> bool:
        return self.boundary.kind == "minf"

    def __repr__(self) -> str:
        return f"Seg[< {self.boundary!r}]"


# -- coordinate subgroups ------------------------------------------------------

def check_mask(mask: Sequence[int], group: ValueGroup) -> tuple:
    mask = tuple(sorted(mask))
    if len(set(mask)) != len(mask):
        raise ValueError("repeated coordinates in mask")
    if mask and (mask[0] < 0 or mask[-1] >= group.rank):
        raise ValueError("mask coordinate out of range")
    return mask


def is_convex(mask: Sequence[int], group: ValueGroup) -> bool:
    """Whether the subgroup supported on the masked coordinates is convex."""
    mask = check_mask(mask, group)
    if len(mask) in (0, group.rank):
        return True
    if group.kind == WEIGHTED:
        # archimedean: nothing strictly between the trivial and the whole
        return False
    # lex: convex subgroups are exactly the coordinate suffixes
    return mask[0] == group.rank - len(mask)


def convexity_witness(mask: Sequence[int],
                      group: ValueGroup) -> tuple[GroupElem, GroupElem]:
    """A pair (x, y) with 0 < x < y, y in the subgroup, x outside it."""
    mask = check_mask(mask, group)
    if is_convex(mask, group):
        raise ValueError("subgroup is convex")
    if group.kind == WEIGHTED:
        i = mask[0]
        j = next(k for k in range(group.rank) if k not in mask)
        y = group.unit(i)
        # shrink a mixed element below y; n halvings suffice and are checked
        x = group.unit(j)
        while not x < y:
            x = x.scale(Fraction(1, 2))
        return x, y
    i = mask[0]
    j = next(k for k in range(group.rank) if k not in mask and k > i)
    return group.unit(j), group.unit(i)


def is_cofinal(mask: Sequence[int], group: ValueGroup) -> bool:
    """Whether the masked subgroup is cofinal in the group."""
    mask = check_mask(mask, group)
    if group.rank == 0:
        return True
    if not mask:
        return False
    if group.kind == WEIGHTED:
        return True
    return mask[0] == 0


# -- position transport along a coordinate injection ---------------------------

def _require_lex(*groups: ValueGroup) -> None:
    for g in groups:
        if g.kind != LEX:
            raise ValueError("position transport needs lexicographic groups")


def restrict_position(pos: GroupCut, mask: Sequence[int],
                      sub: ValueGroup) -> GroupCut:
    """Where a position of the big group falls among the subgroup's elements.

    mask[i] is the big-group coordinate carrying the subgroup's i-th one.
    """
    big = pos.group
    _require_lex(big, sub)
    mask = check_mask(mask, big)
    if len(mask) != sub.rank:
        raise ValueError("mask length must equal the subgroup rank")
    if pos.kind == "minf":
        return sub.minus_inf()
    if pos.kind == "pinf":
        return sub.plus_inf()
    prefix: list[Fraction] = []
    up = {level: i for i, level in enumerate(mask)}
    for level, (q, s) in enumerate(pos.key):
        terminal = level == len(pos.key) - 1
        if level in up:
            if terminal and s != 0:
                g = sub.elem(prefix + [q] + [0] * (sub.rank - len(prefix) - 1))
                return sub.coset_edge(g, len(prefix) + 1, s)
            prefix.append(q)
            continue
        side = 1 if q > 0 or (q == 0 and s > 0) else \
            (-1 if q < 0 or (q == 0 and s < 0) else 0)
        if side == 0:
            continue
        g = sub.elem(prefix + [0] * (sub.rank - len(prefix)))
        return sub.coset_edge(g, len(prefix), side)
    # keys ending in nudge 0 are full length, so every mask level was seen
    # and all off-mask entries were exact zeros: an element of the subgroup
    return sub.at(sub.elem(prefix))


def _lift_coords(prefix: Sequence[Fraction], mask: tuple,
                 upto: int) -> list[Fraction]:
    """Big-group coordinates 0..upto-1 embedding the subgroup prefix."""
    out = []
    pos = {level: i for i, level in enumerate(mask)}
    for level in range(upto):
        out.append(prefix[pos[level]] if level in pos else Q0)
    return out


def embed_position(pos: GroupCut, mask: Sequence[int], big: ValueGroup,
                   side: int) -> GroupCut:
    """The least (side LOWER) or greatest (side UPPER) big-group position
    restricting back to pos.

    The least one is also the boundary of the largest final segment of the
    big group lying above every subgroup element below pos.  A position
    nudged towards `side` keeps its own coset edge; one nudged away from it
    widens to the edge of the coset of the next masked coordinate (from an
    infinity: of the first one).
    """
    sub = pos.group
    _require_lex(big, sub)
    mask = check_mask(mask, big)
    nudge = pos.nudge()
    if pos.kind != "key":
        level, qs = -1, []
    elif nudge == 0:
        raise ValueError("element positions have no unique transport")
    else:
        level, qs = len(pos.key) - 1, [q for q, _ in pos.key]
    if nudge == side:
        fixed = mask[level] + 1 if level >= 0 else 0
    else:
        fixed = mask[level + 1] if level + 1 < len(mask) else big.rank
    coords = _lift_coords(qs, mask, fixed)
    g = big.elem(coords + [0] * (big.rank - len(coords)))
    return big.coset_edge(g, fixed, nudge)


def segment_above(seg: InitialSegment, into: Optional[ValueGroup] = None,
                  mask: Optional[Sequence[int]] = None) -> FinalSegment:
    """Largest final segment lying strictly above the initial segment.

    Same-group form: the complement.  With into/mask, the initial segment
    of the subgroup is read inside the big group and the result is the
    largest final segment of the big group above its image.
    """
    if into is None:
        return FinalSegment(seg.boundary)
    if mask is None:
        raise ValueError("cross-group form needs the coordinate mask")
    return FinalSegment(embed_position(seg.boundary, mask, into, LOWER))


def embed_element(g: GroupElem, mask: Sequence[int],
                  big: ValueGroup) -> GroupElem:
    mask = check_mask(mask, big)
    coords = _lift_coords(g.coords, mask, big.rank)
    return big.elem(coords)


def restrict_element(g: GroupElem, mask: Sequence[int],
                     sub: ValueGroup) -> Optional[GroupElem]:
    """Subgroup preimage of g, or None if g is off the subgroup."""
    mask = check_mask(mask, g.group)
    keep = []
    for level, q in enumerate(g.coords):
        if level in mask:
            keep.append(q)
        elif q != 0:
            return None
    return sub.elem(keep)


# -- elements strictly inside an interval of positions --------------------------

def element_in_interval(lo: GroupCut, hi: GroupCut) -> Optional[GroupElem]:
    """A group element strictly between two positions, or None if the
    interval contains no element (adjacent element/nudge positions)."""
    group = lo.group
    if group != hi.group:
        raise ValueError("positions in different groups")
    if lo.cmp(hi) >= 0:
        raise ValueError("empty position interval")
    if group.kind == WEIGHTED:
        return _weighted_between(lo, hi)
    n = group.rank
    if lo.kind == "minf" and hi.kind == "pinf":
        return group.zero()
    if lo.kind == "minf":
        return _just_past(hi, LOWER)
    if hi.kind == "pinf":
        return _just_past(lo, UPPER)
    k1, k2 = lo.key, hi.key
    for j in range(min(len(k1), len(k2))):
        (q1, s1), (q2, s2) = k1[j], k2[j]
        if q1 != q2:
            qs = [q for q, _ in k1[:j]]
            mid = (q1 + q2) / 2
            return group.elem(qs + [mid] + [0] * (n - j - 1))
        if s1 != s2:
            # same coordinate, different nudges; s1 < s2 since lo < hi
            qs = [q for q, _ in k1[:j + 1]]
            if s1 == -1 and s2 == 1:
                # lower vs upper edge of the same coset: its base element
                return group.elem(qs + [0] * (n - j - 1))
            # lo is the lower coset edge and hi continues inside the coset
            # (s1 == -1), or lo continues inside the coset hi tops
            e = _just_past(hi, LOWER) if s1 == -1 else _just_past(lo, UPPER)
            return e if e is not None and _strictly_inside(e, lo, hi) else None
    raise AssertionError("identical prefixes of different lengths")


def _strictly_inside(e: GroupElem, lo: GroupCut, hi: GroupCut) -> bool:
    return lo.side_of(e) > 0 and hi.side_of(e) < 0


def _just_past(pos: GroupCut, direction: int) -> Optional[GroupElem]:
    """An element on the given side of pos (LOWER: below, UPPER: above) and
    short of any strictly farther coset-mate, when one exists immediately
    past the key."""
    group = pos.group
    n = group.rank
    qs = [q for q, _ in pos.key]
    if not qs:  # rank 0: the one element sits at pos, none lies past it
        return None
    if pos.key[-1][1] == -direction:
        return group.elem(qs + [0] * (n - len(qs)))
    # an element position (full length), or the coset edge on that side,
    # steps its last coordinate
    qs[-1] += direction
    return group.elem(qs + [0] * (n - len(qs)))


def _weighted_between(lo: GroupCut, hi: GroupCut) -> Optional[GroupElem]:
    group = lo.group
    w0 = group.weights[0]

    def along0(q0: Fraction) -> GroupElem:
        return group.elem((q0,) + (Q0,) * (group.rank - 1))

    if lo.kind == "minf" and hi.kind == "pinf":
        return group.zero()
    if lo.kind == "minf":
        # (floor - 1) * w0 < v regardless of the nudge
        return along0(Fraction((_real(hi) / w0).floor() - 1))
    if hi.kind == "pinf":
        return along0(Fraction((_real(lo) / w0).floor() + 1))
    (c1, s1), (c2, s2) = lo.key[0], hi.key[0]
    if c1 != c2:
        return along0(rational_between(_real(lo) / w0, _real(hi) / w0))
    # just below / just above the same element: the element itself
    return group.elem(c1) if s1 == -1 and s2 == 1 else None


# -- adjoining one fresh lex coordinate at a position ---------------------------

def extend_at_position(at: GroupCut) -> tuple[ValueGroup, tuple, GroupElem]:
    """A rank+1 lexicographic group with one new coordinate placed so that
    its unit element sits exactly at position `at` among the old elements.

    Returns (new group, mask of the old coordinates, value of the new unit).
    """
    group = at.group
    if group.kind != LEX:
        raise ValueError("only lexicographic groups can be extended this way")
    if at.kind == "key" and at.nudge() == 0:
        raise ValueError("cannot place a new value on top of an element")
    n = group.rank
    big = ValueGroup(LEX, n + 1)
    if at.kind == "minf":
        j, prefix, s = 0, [], -1
    elif at.kind == "pinf":
        j, prefix, s = 0, [], 1
    else:
        j = len(at.key)
        prefix = [q for q, _ in at.key]
        s = at.nudge()
    mask = tuple(i if i < j else i + 1 for i in range(n))
    coords = prefix + [Fraction(s)] + [Q0] * (n - j)
    return big, mask, big.elem(coords)
