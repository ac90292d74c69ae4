"""Exact arithmetic in fields of fractions of finite Hahn sums.

An element is num/den where both parts are finite sums  sum c_g * t^g  with
coefficients in QQ or Q(sqrt(d)) and exponents in a ValueGroup.  The
denominator is kept canonical (leading exponent 0, leading coefficient 1),
which makes sign, valuation and residue read off the numerator's leading
term: "leading" always means minimum exponent, so v(x) > 0 iff x is
infinitesimal.

A HahnSum keeps its terms in integers: exponents as int tuples at one scale
n per sum (the key k stands for k/n, so a sum with rational exponents is a
Laurent sum in t^(1/n)), and coefficients as integer numerators over one
denominator q per sum, pairs (a, b) for (a + b*sqrt(d))/q when the sum has
the radicand d.  Arithmetic runs on ints alone.  Fraction, QuadExt and
GroupElem values are built only where terms leave a sum: leading(),
support(), printing, and the `terms` view, converted anew on each access:
nothing is kept per sum, and coordinates come from a bounded memo.

Fields are identified by descriptors that also record how they embed into
one another; arithmetic silently lifts along a declared embedding chain and
refuses anything else.
"""
from __future__ import annotations

import functools
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import add
from typing import Optional, Sequence, Union

from .coeff import (Ordered, QuadExt, _check_radicand, _power, _surd_sign,
                    format_coeff)
from .valgroup import (
    LEX, Q0, GroupCut, GroupElem, ValueGroup, check_mask, extend_at_position,
    restrict_element,
)


class FieldMismatchError(Exception):
    """Operands live in fields with no declared embedding between them."""


class ExpansionBudgetError(Exception):
    """Term extraction exceeded its step budget before reaching the goal.

    `reached` is the exponent of the last extracted term when the raiser
    records it, else None."""

    def __init__(self, message: str, reached: Optional[GroupElem] = None):
        super().__init__(message)
        self.reached = reached


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

DEFAULT_MAX_STEPS = 64


class FieldDescriptor:
    """A field H(k; Gamma) of Hahn-sum fractions, with its embedding edges.

    coeff_d: None for QQ coefficients, else the squarefree radicand d,
    checked here (ValueError unless 2 <= d <= coeff.RADICAND_BOUND).
    Edges are added when subfields/extensions are declared; each edge keeps
    the coordinate mask injecting the smaller exponent group into the larger.
    """

    __slots__ = ("name", "coeff_d", "group", "_ups", "_zero", "_one")

    def __init__(self, name: str, coeff_d: Optional[int], group: ValueGroup):
        if coeff_d is not None:
            _check_radicand(coeff_d)
        self.name = name
        self.coeff_d = coeff_d
        self.group = group
        self._ups: list[tuple[FieldDescriptor, tuple]] = []
        self._zero = self._one = None

    def __repr__(self):
        k = "Q" if self.coeff_d is None else f"Q(sqrt{self.coeff_d})"
        return f"<field {self.name}=H({k};{self.group!r})>"

    def admits_coeff(self, c: QuadExt) -> bool:
        return c.d is None or c.d == self.coeff_d

    # -- tower construction ---------------------------------------------------

    def subfield(self, name: str, mask: Optional[Sequence[int]] = None,
                 coeff_d: Optional[int] = "same") -> "FieldDescriptor":
        """Declare the subfield on the masked exponent coordinates with an
        equal or smaller coefficient field."""
        if coeff_d == "same":
            coeff_d = self.coeff_d
        if coeff_d is not None and coeff_d != self.coeff_d:
            raise ValueError("subfield coefficients must shrink or stay")
        if mask is None:
            mask = tuple(range(self.group.rank))
        mask = check_mask(mask, self.group)
        if self.group.kind != LEX and len(mask) != self.group.rank:
            raise ValueError("weighted groups only allow full-group subfields")
        if self.group.kind == LEX:
            sub_group = ValueGroup(LEX, len(mask))
        else:
            sub_group = self.group
        sub = FieldDescriptor(name, coeff_d, sub_group)
        _add_edge(sub, self, mask)
        return sub

    def extend_coeff(self, name: str, d: int) -> "FieldDescriptor":
        if self.coeff_d is not None and self.coeff_d != d:
            raise ValueError("coefficient field already extended differently")
        big = FieldDescriptor(name, d, self.group)
        _add_edge(self, big, tuple(range(self.group.rank)))
        return big

    def extend_group(self, name: str, big_group: ValueGroup,
                     mask: Sequence[int]) -> "FieldDescriptor":
        """Declare an extension with more exponent coordinates; mask places
        this field's coordinates inside the new group."""
        mask = check_mask(mask, big_group)
        if len(mask) != self.group.rank:
            raise ValueError("mask must cover every existing coordinate")
        big = FieldDescriptor(name, self.coeff_d, big_group)
        _add_edge(self, big, mask)
        return big

    # -- embedding lookup -------------------------------------------------------

    def embedding_mask_into(self, other: "FieldDescriptor") -> Optional[tuple]:
        """Coordinate mask of the declared embedding chain self -> other,
        remembered per pair until the next edge is declared.  Edge masks
        are checked when declared, so a chain's mask is increasing."""
        pair = (self, other)
        try:
            return _MASKS[pair]
        except KeyError:
            mask = _MASKS[pair] = _mask_search(self, other)
            return mask

    def join(self, other: "FieldDescriptor") -> "FieldDescriptor":
        """The larger of two fields when a declared embedding chain leads
        from one into the other."""
        if other is self:
            return self
        if self.embedding_mask_into(other) is not None:
            return other
        if other.embedding_mask_into(self) is not None:
            return self
        raise FieldMismatchError(
            f"no declared embedding relates {self.name} and {other.name}")

    def zero(self) -> "FieldElement":
        """The field's zero, built on first use; elements are immutable,
        so every caller shares it."""
        if self._zero is None:
            self._zero = self.const(0)
        return self._zero

    def one(self) -> "FieldElement":
        """The field's one, built on first use and shared like zero()."""
        if self._one is None:
            self._one = self.const(1)
        return self._one

    def const(self, c) -> "FieldElement":
        c = QuadExt.of(c)
        if not self.admits_coeff(c):
            raise ValueError(f"coefficient {c} outside the field {self.name}")
        return FieldElement(self, HahnSum.const(self.group, c),
                            HahnSum.one(self.group))

    def monomial(self, exponent: GroupElem, c=1) -> "FieldElement":
        c = QuadExt.of(c)
        if not self.admits_coeff(c):
            raise ValueError(f"coefficient {c} outside the field {self.name}")
        return FieldElement(self, HahnSum.monomial(self.group, exponent, c),
                            HahnSum.one(self.group))


# (sub, sup) -> embedding_mask_into's answer.  A new edge can turn a None
# into a mask and change which chain the search meets first, so
# _add_edge empties all of it; until then it keeps the fields it names.
_MASKS: dict = {}


def _mask_search(sub: FieldDescriptor,
                 sup: FieldDescriptor) -> Optional[tuple]:
    """Depth-first search of the declared edges for a chain sub -> sup."""
    if sup is sub:
        return tuple(range(sub.group.rank))
    seen = {id(sub)}
    frontier = [(sub, tuple(range(sub.group.rank)))]
    while frontier:
        field, mask = frontier.pop()
        for up, edge_mask in field._ups:
            comp = tuple(edge_mask[i] for i in mask)
            if up is sup:
                return comp
            if id(up) not in seen:
                seen.add(id(up))
                frontier.append((up, comp))
    return None


def _add_edge(sub: FieldDescriptor, sup: FieldDescriptor,
              mask: tuple) -> None:
    """Record the embedding edge sub -> sup.  A coordinate injection keeps
    the order only between lexicographic groups, from a group into an
    equal one, or from a group of rank at most 1."""
    a, b = sub.group, sup.group
    if not (a.kind == b.kind == LEX or a == b or a.rank <= 1):
        raise ValueError(f"the embedding of {sub.name} in {sup.name} would "
                         "not preserve the order of the value groups")
    sub._ups.append((sup, mask))
    _MASKS.clear()


def declare_embedding(sub: FieldDescriptor, sup: FieldDescriptor,
                      mask: Sequence[int]) -> None:
    """Record that sub sits inside sup along the coordinate mask.

    The tower factories add their edge automatically; an explicit
    declaration completes a diamond, e.g. two independently built
    extensions of one field sharing a common cover."""
    if sub is sup:
        raise ValueError("a field does not properly embed in itself")
    mask = check_mask(mask, sup.group)
    if len(mask) != sub.group.rank:
        raise ValueError("mask length must equal the subfield rank")
    if not (sub.coeff_d is None or sub.coeff_d == sup.coeff_d):
        raise ValueError("coefficient fields are incompatible")
    if sub.embedding_mask_into(sup) is not None:
        raise ValueError("embedding already declared")
    if sup.embedding_mask_into(sub) is not None:
        raise ValueError("declaration would create a cycle")
    _add_edge(sub, sup, mask)


class HahnSum:
    """Finite formal sum of monomials c * t^g with exponents g in the group
    and nonzero coefficients c in Q or Q(sqrt(d)).

    Stored form: one exponent scale n >= 1, one denominator q >= 1 and at
    most one radicand d per sum.  `_t` maps int tuples k to numerators: the
    key k stands for the exponent k/n, and its value is an int a meaning
    a/q or, when the sum has a radicand, a pair (a, b) meaning
    (a + b*sqrt(d))/q.  No stored value is zero, gcd(q, all numerators) is
    1, and a sum keeps a radicand only while some b is nonzero, so two sums
    at one scale are equal exactly when they store the same q, d and dict.
    Operations align the scales of their operands by lcm.  A sum carries
    one radicand, so combining sums over two radicands raises ValueError.
    """

    __slots__ = ("group", "_n", "_q", "_d", "_t")

    def __init__(self, group: ValueGroup, terms: dict):
        """The sum of c * t^k over a dict from rational coordinate tuples k
        to coefficients c (QuadExt or rational)."""
        h = HahnSum.zero(group)
        for k, c in terms.items():
            h = h + HahnSum.monomial(group, GroupElem(group, tuple(k)),
                                     QuadExt.of(c))
        self.group, self._n, self._q, self._d, self._t = \
            group, h._n, h._q, h._d, h._t

    @staticmethod
    def zero(group: ValueGroup) -> "HahnSum":
        return _sum(group, 1, 1, None, {})

    @staticmethod
    def const(group: ValueGroup, c: QuadExt) -> "HahnSum":
        return _unit(group).scale(c)

    @staticmethod
    def one(group: ValueGroup) -> "HahnSum":
        return _unit(group)

    @staticmethod
    def _int(group: ValueGroup, k: int) -> "HahnSum":
        """The stored form of the integer k, built without a scaling."""
        return _sum(group, 1, 1, None, {(0,) * group.rank: k} if k else {})

    @staticmethod
    def monomial(group: ValueGroup, g: GroupElem, c: QuadExt) -> "HahnSum":
        return _unit(group).scale(c).shift(g)

    def is_zero(self) -> bool:
        return not self._t

    @property
    def terms(self) -> Mapping:
        """The terms as a read-only mapping {exponent coordinates (tuple of
        Fractions): QuadExt}.  It is built out of the stored form on each
        access, so hot paths must not use it; `items()` converts terms as
        they are read, and `values()` is the converted dict's own view."""
        return _TermsView(self)

    def __add__(self, other: "HahnSum") -> "HahnSum":
        if not other._t:
            return self
        if not self._t:
            return other
        n, t1, t2 = _common_scale(self, other)
        q1, q2 = self._q, other._q
        q = math.lcm(q1, q2)
        d = _join_radicand(self._d, other._d)
        t1, t2 = _times(t1, q // q1, self._d), _times(t2, q // q2, other._d)
        if d is None:
            out = dict(t1)
            for k, a in t2.items():
                s = out.get(k)
                if s is None:
                    out[k] = a
                elif s + a:
                    out[k] = s + a
                else:
                    del out[k]
        else:
            out = dict(t1) if self._d is not None else _as_pairs(t1, None)
            for k, (a, b) in _as_pairs(t2, other._d).items():
                s = out.get(k)
                if s is None:
                    out[k] = (a, b)
                elif s[0] + a or s[1] + b:
                    out[k] = (s[0] + a, s[1] + b)
                else:
                    del out[k]
        return _reduced(self.group, n, q, d, out)

    def __neg__(self) -> "HahnSum":
        return _sum(self.group, self._n, self._q, self._d,
                    _times(self._t, -1, self._d))

    def __sub__(self, other: "HahnSum") -> "HahnSum":
        return self + (-other)

    def __mul__(self, other: "HahnSum") -> "HahnSum":
        """The product; a factor stored as 1 at scale 1 gives back the other
        factor itself, which is the stored form the full product has."""
        if not self._t or not other._t:
            return HahnSum.zero(self.group)
        if other._is_unit():
            return self
        if self._is_unit():
            return other
        n, t1, t2 = _common_scale(self, other)
        d = _join_radicand(self._d, other._d)
        out: dict = {}
        if d is None:
            for k1, a1 in t1.items():
                for k2, a2 in t2.items():
                    k = tuple(map(add, k1, k2))
                    s = out.get(k)
                    if s is None:
                        out[k] = a1 * a2
                    elif s + a1 * a2:
                        out[k] = s + a1 * a2
                    else:
                        del out[k]
        else:
            t2 = _as_pairs(t2, other._d)
            for k1, (a1, b1) in _as_pairs(t1, self._d).items():
                for k2, (a2, b2) in t2.items():
                    k = tuple(map(add, k1, k2))
                    a = a1 * a2 + b1 * b2 * d
                    b = a1 * b2 + b1 * a2
                    s = out.get(k)
                    if s is not None:
                        a += s[0]
                        b += s[1]
                    if a or b:
                        out[k] = (a, b)
                    else:
                        del out[k]
        return _reduced(self.group, n, self._q * other._q, d, out)

    def scale(self, c: QuadExt) -> "HahnSum":
        if c.is_zero():
            return HahnSum.zero(self.group)
        q = math.lcm(c.a.denominator, c.b.denominator)
        return self._times_monomial(
            (), 1, c.a.numerator * (q // c.a.denominator),
            c.b.numerator * (q // c.b.denominator), q, c.d)

    def shift(self, g: GroupElem) -> "HahnSum":
        m = math.lcm(*(x.denominator for x in g.coords))
        return self._times_monomial(_int_coords(g.coords, m), m, 1, 0, 1,
                                    None)

    def _times_monomial(self, key: tuple, m: int, a: int, b: int, c: int,
                        d: Optional[int]) -> "HahnSum":
        """self * (a + b*sqrt(d))/c * t^(key/m), for c > 0 and a or b
        nonzero; the empty key stands for the exponent 0."""
        t, n = self._t, self._n
        if not t:
            return self
        if m != n:
            big = math.lcm(n, m)
            t, n = _rescaled(t, big // n), big
            key = tuple(x * (big // m) for x in key)
        if any(key):
            t = {tuple(map(add, k, key)): v for k, v in t.items()}
        if b:
            d = _join_radicand(self._d, d)
            t = {k: (x * a + y * b * d, x * b + y * a)
                 for k, (x, y) in _as_pairs(t, self._d).items()}
        else:
            d = self._d
            t = _times(t, a, d)
            if c == 1 and a in (1, -1):
                return _sum(self.group, n, self._q, d, t)
        return _reduced(self.group, n, self._q * c, d, t)

    # -- reading terms out of the stored form -----------------------------------

    def _lead_key(self) -> tuple:
        """The stored key of the minimum exponent."""
        if self.group._surd is None:
            return min(self._t)
        return _least_key(self.group, self._t)

    def _lead(self, scale: int, group: ValueGroup,
              mask: Optional[tuple] = None) -> tuple:
        """(key, (a, b), q): the leading term (a + b*sqrt(d))/q *
        t^(key/scale) for a multiple of `_n` (b = 0 without a radicand),
        its key moved into `group` by `mask` as in `_embedded`."""
        k = self._lead_key()
        a = self._t[k]
        if scale != self._n:
            k = tuple(x * (scale // self._n) for x in k)
        if mask is not None:
            k = _embed_key(k, group.rank, mask)
        return k, (a, 0) if self._d is None else a, self._q

    def _sorted_keys(self) -> list:
        """The stored keys by increasing exponent."""
        group = self.group
        if group._surd is None:
            return sorted(self._t)
        d = group._surd[2]
        size = {k: group._size(k) for k in self._t}
        return sorted(self._t, key=cmp_to_key(lambda k1, k2: _surd_sign(
            size[k1][0] - size[k2][0], size[k1][1] - size[k2][1], d)))

    def _coeff(self, v) -> QuadExt:
        q = self._q
        if self._d is None:  # Fraction(v) skips the gcd of Fraction(v, 1)
            return QuadExt(Fraction(v) if q == 1 else Fraction(v, q), Q0)
        return QuadExt(Fraction(v[0], q), Fraction(v[1], q), self._d)

    def _lead_sign(self) -> int:
        if not self._t:
            return 0
        v = self._t[self._lead_key()]
        if self._d is None:
            return 1 if v > 0 else -1
        return _surd_sign(v[0], v[1], self._d)

    def _is_unit(self) -> bool:
        """Whether the stored form is that of 1 at scale 1."""
        return self._n == 1 and self._q == 1 and self._d is None \
            and len(self._t) == 1 and self._t.get((0,) * self.group.rank) == 1

    def _is_monic(self) -> bool:
        """Whether the leading term is t^0 with coefficient 1."""
        k = self._lead_key()
        one = self._q if self._d is None else (self._q, 0)
        return self._t[k] == one and not any(k)

    def _monic_factor(self) -> tuple:
        """The _times_monomial arguments dividing by the leading term."""
        k = self._lead_key()
        v, q = self._t[k], self._q
        if self._d is None:
            a, b, c = q, 0, v
        else:
            # q/(x + y*sqrt(d)) = q*(x - y*sqrt(d))/(x^2 - d*y^2)
            x, y = v
            a, b, c = q * x, -q * y, x * x - self._d * y * y
        if c < 0:
            a, b, c = -a, -b, -c
        return tuple(-x for x in k), self._n, a, b, c, self._d

    def _embedded(self, group: ValueGroup, mask: tuple) -> "HahnSum":
        """The sum in a bigger group, exponent coordinate i moved to
        coordinate mask[i] (mask increasing) and zeros elsewhere."""
        return _sum(group, self._n, self._q, self._d,
                    {_embed_key(k, group.rank, mask): v
                     for k, v in self._t.items()})

    def leading(self) -> tuple[GroupElem, QuadExt]:
        """(minimum exponent, its coefficient); the dominant monomial."""
        if not self._t:
            raise ValueError("zero sum has no leading term")
        k = self._lead_key()
        return (GroupElem(self.group, _coords(k, self._n)),
                self._coeff(self._t[k]))

    def support(self) -> list[GroupElem]:
        return [GroupElem(self.group, _coords(k, self._n))
                for k in self._sorted_keys()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HahnSum):
            return NotImplemented
        _join_radicand(self._d, other._d)
        if self.group != other.group or self._q != other._q \
                or self._d != other._d:
            return False
        _, t1, t2 = _common_scale(self, other)
        return t1 == t2

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.terms.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"HahnSum({dict(self.terms)})"


class _TermsView(Mapping):
    """HahnSum.terms: the Fraction-keyed dict of QuadExt coefficients,
    built on first use; its length and items() need no dict."""

    __slots__ = ("_h", "_dict")

    def __init__(self, h: HahnSum):
        self._h, self._dict = h, None

    def _items(self) -> dict:
        if self._dict is None:
            self._dict = dict(self.items())
        return self._dict

    def items(self):
        return _TermItems(self)

    def values(self):
        return self._items().values()

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return len(self._h._t)

    def __repr__(self):
        return repr(self._items())


class _TermItems(ItemsView):
    """A terms view's items, converted as they are read: nothing hashed."""

    def __iter__(self):
        h = self._mapping._h
        return ((_coords(k, h._n), h._coeff(v)) for k, v in h._t.items())


def _sum(group: ValueGroup, n: int, q: int, d: Optional[int],
         t: dict) -> HahnSum:
    """A HahnSum from its stored form, taken as it is."""
    h = object.__new__(HahnSum)
    h.group, h._n, h._q, h._d, h._t = group, n, q, d, t
    return h


def _reduced(group: ValueGroup, n: int, q: int, d: Optional[int],
             t: dict) -> HahnSum:
    """A HahnSum from numerators without zeros over q: the radicand goes
    when no value has an irrational part, then gcd(q, numerators) is
    divided out."""
    if d is not None and not any(b for _, b in t.values()):
        d, t = None, {k: a for k, (a, _) in t.items()}
    g = q
    if d is None:
        for a in t.values():
            if g == 1:
                break
            g = math.gcd(g, a)
        if g != 1:
            t = {k: a // g for k, a in t.items()}
    else:
        for a, b in t.values():
            if g == 1:
                break
            g = math.gcd(g, a, b)
        if g != 1:
            t = {k: (a // g, b // g) for k, (a, b) in t.items()}
    return _sum(group, n, q // g, d, t)


def _least_key(group: ValueGroup, keys) -> tuple:
    """The key of the least exponent among int keys at one scale, for a
    weighted group by the sign of the difference of their sizes."""
    if group._surd is None:
        return min(keys)
    d = group._surd[2]
    best = None
    for k in keys:
        a, b = group._size(k)
        if best is None or _surd_sign(a - ba, b - bb, d) < 0:
            best, ba, bb = k, a, b
    return best


def _mono_mul(x: tuple, y: tuple, d: int) -> tuple:
    """x * y for `_lead` monomials at one scale (d = 0 over Q)."""
    (k1, (a1, b1), q1), (k2, (a2, b2), q2) = x, y
    return tuple(map(add, k1, k2)), (a1 * a2 + b1 * b2 * d,
                                     a1 * b2 + b1 * a2), q1 * q2


def _embed_key(k: tuple, rank: int, mask: tuple) -> tuple:
    """Key k with coordinate i moved to coordinate mask[i] of a key of the
    rank, zeros elsewhere."""
    key = [0] * rank
    for x, level in zip(k, mask):
        key[level] = x
    return tuple(key)


def _unit(group: ValueGroup) -> HahnSum:
    return _sum(group, 1, 1, None, {(0,) * group.rank: 1})


def _int_coords(coords, n: int) -> tuple:
    """Integer keys of rational coordinates at the exponent scale n."""
    return tuple(x.numerator * (n // x.denominator) for x in coords)


@functools.lru_cache(maxsize=2048)
def _coords(key: tuple, n: int) -> tuple:
    """The exponent coordinates of the stored key at the scale n."""
    return tuple(Fraction(x, n) for x in key)


def _rescaled(t: dict, f: int) -> dict:
    if f == 1:
        return t
    return {tuple(x * f for x in k): v for k, v in t.items()}


def _common_scale(x: HahnSum, y: HahnSum) -> tuple:
    """(n, x's terms, y's terms) with both keyed at the scale n."""
    if x._n == y._n:
        return x._n, x._t, y._t
    n = math.lcm(x._n, y._n)
    return n, _rescaled(x._t, n // x._n), _rescaled(y._t, n // y._n)


def _times(t: dict, f: int, d: Optional[int]) -> dict:
    """The values of t, numerators of a sum with radicand d, times f."""
    if f == 1:
        return t
    if d is None:
        return {k: a * f for k, a in t.items()}
    return {k: (a * f, b * f) for k, (a, b) in t.items()}


def _as_pairs(t: dict, d: Optional[int]) -> dict:
    """The values of t, numerators of a sum with radicand d, as pairs."""
    return {k: (a, 0) for k, a in t.items()} if d is None else t


def _join_radicand(d1: Optional[int], d2: Optional[int]) -> Optional[int]:
    if d1 is None or d1 == d2:
        return d2
    if d2 is None:
        return d1
    raise ValueError(f"mixed radicands {d1} and {d2}")


class FieldElement(Ordered):
    """num/den over a field descriptor, with den canonical: leading
    exponent 0 and leading coefficient 1 (so den > 0 always)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldDescriptor, num: HahnSum, den: HahnSum):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = HahnSum.one(field.group)
        elif not den._is_monic():
            f = den._monic_factor()
            num = num._times_monomial(*f)
            den = den._times_monomial(*f)
        self.field = field
        self.num = num
        self.den = den

    # -- coercion ---------------------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, (int, Fraction, QuadExt)):
            return self, self.field.const(other)
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.field is self.field:
            return self, other
        F = self.field.join(other.field)
        return lift(self, F), lift(other, F)

    # -- ring/field operations ----------------------------------------------------

    def __add__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.num * y.den + y.num * x.den,
                            x.den * y.den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.num, self.den)

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._pair(other)[1])

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return FieldElement(x.field, x.num * y.num, x.den * y.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        if y.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return FieldElement(x.field, x.num * y.den, x.den * y.num)

    def __rtruediv__(self, other) -> "FieldElement":
        x, y = self._pair(other)
        return y / x

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return (self.field.one() / self) ** (-k)
        return _power(self, k, self.field.one)

    def inverse(self) -> "FieldElement":
        return self.field.one() / self

    # -- order, valuation, residue --------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def sign(self) -> int:
        return self.num._lead_sign()

    def cmp(self, other) -> int:
        """sign(x - y) = sign(x.num*y.den - y.num*x.den): dens lead with 1."""
        x, y = self._pair(other)
        return (x.num * y.den - y.num * x.den)._lead_sign()

    def __eq__(self, other) -> bool:
        """Equality in the field.  If neither field embeds in the other, cmp
        raises FieldMismatchError and == falls back to identity (False)."""
        try:
            return self.cmp(other) == 0
        except (TypeError, FieldMismatchError):
            return NotImplemented

    def __hash__(self):
        raise TypeError("field elements are not hashable")

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def val(self) -> Union[GroupElem, _Infinity]:
        """Leading-exponent valuation; v(0) = inf."""
        if self.num.is_zero():
            return INF
        h = self.num  # den leading exponent is 0
        return GroupElem(h.group, _coords(h._lead_key(), h._n))

    def leading_coeff(self) -> QuadExt:
        if self.num.is_zero():
            return QuadExt(0)
        h = self.num
        return h._coeff(h._t[h._lead_key()])

    def residue(self) -> Union[QuadExt, _Infinity]:
        if self.num.is_zero():
            return QuadExt(0)
        v, c = self.num.leading()
        s = v.sign()
        if s < 0:
            return INF
        if s > 0:
            return QuadExt(0)
        return c

    # -- expansion -------------------------------------------------------------------

    def expand(self, cutoff: GroupElem,
               max_steps: int = DEFAULT_MAX_STEPS) -> tuple[HahnSum, bool]:
        """All expansion terms with exponent <= cutoff plus a nonzero-tail
        flag.  Term extraction is monomial long division; each step yields
        the strictly next exponent.  Raises ExpansionBudgetError if more
        than max_steps terms fit under the cutoff (possible once the value
        group has rank >= 2)."""
        group = self.field.group
        out = HahnSum.zero(group)
        rem = self.num
        steps = 0
        while not rem.is_zero():
            g, c = rem.leading()
            if g.cmp(cutoff) > 0:
                return out, True
            steps += 1
            if steps > max_steps:
                raise ExpansionBudgetError(
                    f"more than {max_steps} terms at or below the cutoff; "
                    "raise max_steps to expand further")
            out = out + HahnSum.monomial(group, g, c)
            rem = rem - HahnSum.monomial(group, g, c) * self.den
        return out, False

    # -- printing -------------------------------------------------------------------

    def __str__(self) -> str:
        if self.num.is_zero():
            return "0"
        num = _format_sum(self.num)
        if len(self.den._t) == 1:  # canonical, so the denominator is 1
            return num
        return f"({num})/({_format_sum(self.den)})"

    def __repr__(self):
        return f"<{self.field.name}: {self}>"


def _format_monomial(coords: tuple, c: QuadExt) -> str:
    cs = format_coeff(c)
    if all(q == 0 for q in coords):
        return cs
    if len(coords) == 1:
        mono = f"t^({coords[0]})"
    else:
        mono = "t^((" + ",".join(str(q) for q in coords) + "))"
    if c == QuadExt(1):
        return mono
    if c == QuadExt(-1):
        return f"-{mono}"
    if ("+" in cs[1:]) or ("-" in cs[1:]):
        cs = f"({cs})"
    return f"{cs}*{mono}"


def _format_sum(h: HahnSum) -> str:
    parts = []
    for k in h._sorted_keys():
        s = _format_monomial(_coords(k, h._n), h._coeff(h._t[k]))
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


def lift(x: FieldElement, big: FieldDescriptor) -> FieldElement:
    """Rewrite x in a declared extension of its field."""
    if x.field is big:
        return x
    mask = x.field.embedding_mask_into(big)
    if mask is None:
        raise FieldMismatchError(
            f"{x.field.name} does not embed in {big.name}")
    return FieldElement(big, x.num._embedded(big.group, mask),
                        x.den._embedded(big.group, mask))


def adjoin_infinitesimal(F: FieldDescriptor, at: GroupCut, sign: int = 1,
                         name: Optional[str] = None
                         ) -> tuple[FieldDescriptor, FieldElement]:
    """An extension F' = F(eps) with v(eps) sitting exactly at position
    `at` of vF and eps of the requested sign."""
    if at.group != F.group:
        raise ValueError("position must live in the field's value group")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    big_group, mask, veps = extend_at_position(at)
    if name is None:
        name = f"{F.name}<eps>"
    big = F.extend_group(name, big_group, mask)
    eps = big.monomial(veps, QuadExt(sign))
    return big, eps


# -- approximation analysis relative to a subfield ---------------------------------

@dataclass(frozen=True)
class InSubfield:
    """x equals an element of the subfield."""
    approximant: FieldElement  # element of R

    @property
    def kind(self):
        return "in_subfield"


@dataclass(frozen=True)
class Obstructed:
    """Term extraction hit the first monomial not expressible over R."""
    obstruction: str            # "exponent" | "coefficient"
    gamma0: GroupElem           # exponent of the obstructing term, in vF
    coeff: QuadExt              # its coefficient
    approximant: FieldElement   # best R-approximant r*: v(x - r*) = gamma0

    @property
    def kind(self):
        return self.obstruction


@dataclass(frozen=True)
class Exhausted:
    """Budget ran out with extraction still in the subfield's range."""
    approximant: FieldElement
    steps: int

    @property
    def kind(self):
        return "exhausted"


AnalysisResult = Union[InSubfield, Obstructed, Exhausted]


def approx_analysis(x: FieldElement, R: FieldDescriptor,
                    max_steps: int = DEFAULT_MAX_STEPS) -> AnalysisResult:
    """Peel R-expressible leading terms off x until x is exhausted or the
    first non-R monomial appears.

    The approximant r* is a plain sum in R.  On Obstructed, every r in R
    satisfies v(x - r) <= gamma0, with equality attained by r*; for a
    coefficient obstruction both signs of x - r occur at distance gamma0,
    for an exponent obstruction only the sign of coeff occurs.
    """
    F = x.field
    mask = R.embedding_mask_into(F)
    if mask is None:
        raise FieldMismatchError(f"{R.name} is not a declared subfield "
                                 f"of {F.name}")
    approx = HahnSum.zero(R.group)
    residual = x
    for _ in range(max_steps):
        if residual.is_zero():
            return InSubfield(FieldElement(R, approx, HahnSum.one(R.group)))
        g, c = residual.num.leading()
        g_sub = restrict_element(g, mask, R.group)
        r_star = FieldElement(R, approx, HahnSum.one(R.group))
        if g_sub is None:
            return Obstructed("exponent", g, c, r_star)
        if not (c.d is None or c.d == R.coeff_d):
            return Obstructed("coefficient", g, c, r_star)
        approx = approx + HahnSum.monomial(R.group, g_sub, c)
        residual = residual - F.monomial(g, c)
    r_star = FieldElement(R, approx, HahnSum.one(R.group))
    if residual.is_zero():
        return InSubfield(r_star)
    return Exhausted(r_star, max_steps)


def settled_analysis(x: FieldElement, R: FieldDescriptor,
                     max_steps: int = DEFAULT_MAX_STEPS
                     ) -> Union[InSubfield, Obstructed]:
    """approx_analysis with an exhausted budget raised as
    ExpansionBudgetError; its `reached` is the exponent, in R's group, of
    the last term extracted."""
    res = approx_analysis(x, R, max_steps)
    if not isinstance(res, Exhausted):
        return res
    done = res.approximant.num.support()
    reached = done[-1] if done else None
    raise ExpansionBudgetError(
        f"analysis over {R.name} extracted {len(done)} terms without "
        f"leaving the subfield (last at exponent {reached}); "
        "raise max_steps", reached)


def obstruction(x: FieldElement, R: FieldDescriptor,
                max_steps: int = DEFAULT_MAX_STEPS) -> Obstructed:
    """The first term of x not expressible over R, with the best
    R-approximant before it.  Raises ValueError when x lies in R and
    ExpansionBudgetError when the budget runs out first."""
    res = settled_analysis(x, R, max_steps)
    if isinstance(res, InSubfield):
        raise ValueError(f"the element lies in the subfield {R.name}; "
                         "no term leaves it")
    return res

