"""Sparse polynomials and rational functions over one Hahn-sum field.

A Poly's coefficients are FieldElement values; the variables are the
transcendentals a place realizes.  A RatFun num/den is the one fraction
level: inside it every coefficient of num and den has denominator 1, so it
is a plain sum.  `RatFun(num, den)` multiplies coefficient denominators out
of its input once; arithmetic on such pairs keeps them 1.  The pair is
normalised by the rule FieldElement applies to its own num/den: both are
divided by the leading monomial of den's leading coefficient, and 0 is
stored as 0/1.  A parse carries one unnormalised pair of plain-sum term
dicts and normalises it once (`_Parser`).  Fractions are never gcd-reduced.
Substitution makes num and den two plain sums over one common denominator
(`_homogeneous`); their quotient is the value, and a zero den sum is a pole.
A place needs only their leading terms, read in integers from leading
monomials (`_leading_sums`).

Invariant: a Poly's terms map int exponent tuples, one entry per variable,
to nonzero elements of its field.  The public constructor checks and
converts its input; arithmetic results keep the invariant by construction
and are built through `_poly` without re-checking.  Polys, RatFuns and
their coefficients are never changed after they are built, so results may
share terms (and whole operands) with their inputs.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial, reduce
from operator import add, mul
from typing import Callable, Optional, Sequence, Union

from .coeff import QuadExt, _power
from .ordfield import (FieldDescriptor, FieldElement, FieldMismatchError,
                       HahnSum, _least_key, _mono_mul, lift)


class PoleMarker:
    """Denominator vanished under an exact substitution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"


POLE = PoleMarker()


def _as_element(field: FieldDescriptor, c) -> FieldElement:
    """c in `field`: a constant, or an element of a declared subfield."""
    if isinstance(c, FieldElement):
        if c.field is not field:
            return lift(c, field)
        return c
    return field.const(c)


class Poly:
    """Finite map from exponent tuples to nonzero coefficients.

    `terms` maps int tuples of length len(variables), all entries >= 0, to
    nonzero elements of `field`.  `Poly(...)` validates and converts its
    input; the arithmetic below builds its results through `_poly`, which
    takes terms already in this form.  A Poly is never changed after it is
    built, so results may share terms, or be one of the operands."""

    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: FieldDescriptor, variables: Sequence[str],
                 terms: dict):
        self.field = field
        self.variables = tuple(variables)
        clean = {}
        for key, c in terms.items():
            key = tuple(int(e) for e in key)
            if len(key) != len(self.variables):
                raise ValueError("exponent tuple does not match variables")
            if any(e < 0 for e in key):
                raise ValueError("polynomial exponents must be nonnegative")
            c = _as_element(field, c)
            if not c.is_zero():
                clean[key] = clean[key] + c if key in clean else c
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}

    @staticmethod
    def const(field: FieldDescriptor, variables: Sequence[str],
              c) -> "Poly":
        variables = tuple(variables)
        c = _as_element(field, c)
        if c.is_zero():
            return _poly(field, variables, {})
        return _poly(field, variables, {(0,) * len(variables): c})

    @staticmethod
    def var(field: FieldDescriptor, variables: Sequence[str],
            name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        key = tuple(1 if v == name else 0 for v in variables)
        return _poly(field, variables, {key: field.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def lead_key(self) -> tuple:
        """Largest exponent tuple in lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms)

    def _pair(self, other) -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            other = Poly.const(self.field, self.variables, other)
        if other.field is not self.field or \
                other.variables != self.variables:
            raise FieldMismatchError("polynomials over different settings")
        return self, other

    def __add__(self, other) -> "Poly":
        a, b = self._pair(other)
        return _poly(self.field, self.variables, _sum_terms(a.terms, b.terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.field, self.variables,
                     {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        a, b = self._pair(other)
        if _is_one(a):
            return b
        if _is_one(b):
            return a
        return _poly(self.field, self.variables,
                     _product_terms(a.terms, b.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, lambda: Poly.const(
            self.field, self.variables, self.field.one()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and \
            self.variables == other.variables and \
            self.terms.keys() == other.terms.keys() and \
            all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        raise TypeError("polynomials are not hashable")

    def __repr__(self):
        return f"<poly {format_poly(self)}>"


def _poly(field: FieldDescriptor, variables: tuple, terms: dict) -> Poly:
    """A Poly from terms already in its invariant form, taken as they
    are."""
    p = object.__new__(Poly)
    p.field, p.variables, p.terms = field, variables, terms
    return p


def _sum_terms(a: dict, b: dict) -> dict:
    """a + b for {exponent tuple: FieldElement or HahnSum} term dicts."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _product_terms(a: dict, b: dict) -> dict:
    """a * b for term dicts, as in `_sum_terms`."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(map(add, k1, k2))
            c = c1 * c2
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _is_one(p: Poly) -> bool:
    """p is the constant polynomial 1 with its coefficient stored as 1/1 (a
    canonical denominator with one term is 1, and so is a monic one-term
    numerator), so a product with p leaves every representation as it is.
    A one stored as (1 + t)/(1 + t), which only a Poly outside a RatFun can
    hold, multiplies out as usual."""
    if len(p.terms) != 1:
        return False
    (key, c), = p.terms.items()
    return not any(key) and len(c.den._t) == 1 and len(c.num._t) == 1 \
        and c.num._is_monic()


def _cleared(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den times every distinct coefficient denominator: each
    coefficient becomes its numerator times the other denominators, over 1.
    Polys whose coefficients all have denominator 1 come back as they are."""
    dens = []
    for p in (num, den):
        for c in p.terms.values():
            if len(c.den._t) != 1 and c.den not in dens:
                dens.append(c.den)
    if not dens:
        return num, den
    one = num.field.one().den

    def clear(p: Poly) -> Poly:
        out = {}
        for k, c in p.terms.items():
            h = c.num
            for d in dens:
                if d != c.den:
                    h = h * d
            out[k] = FieldElement(p.field, h, one)
        return _poly(p.field, p.variables, out)
    return clear(num), clear(den)


def _times(p: Poly, f: tuple) -> Poly:
    """p with every coefficient's numerator times the monomial that
    `HahnSum._monic_factor` describes as f."""
    return _poly(p.field, p.variables,
                 {k: FieldElement(p.field, c.num._times_monomial(*f), c.den)
                  for k, c in p.terms.items()})


class RatFun:
    """Quotient of two polynomials whose coefficients have denominator 1.
    The leading coefficient of den (at its largest exponent tuple) has
    leading monomial 1, and the zero function is 0/1.  Like Poly, a RatFun
    is never changed after it is built."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        num, den = num._pair(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.const(num.field, num.variables, num.field.one())
        else:
            num, den = _cleared(num, den)
            lead = den.terms[den.lead_key()].num
            if not lead._is_monic():
                f = lead._monic_factor()
                num, den = _times(num, f), _times(den, f)
        self.num = num
        self.den = den

    @staticmethod
    def const(field: FieldDescriptor, variables: Sequence[str],
              c) -> "RatFun":
        """c = a/b as the constant function with num a and den b."""
        return RatFun(Poly.const(field, variables, c),
                      Poly.const(field, variables, field.one()))

    @staticmethod
    def var(field: FieldDescriptor, variables: Sequence[str],
            name: str) -> "RatFun":
        return RatFun(Poly.var(field, variables, name),
                      Poly.const(field, variables, field.one()))

    @property
    def field(self) -> FieldDescriptor:
        return self.num.field

    @property
    def variables(self) -> tuple:
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return other
        return RatFun.const(self.field, self.variables, other)

    def __add__(self, other) -> "RatFun":
        o = self._coerce(other)
        return RatFun(self.num * o.den + o.num * self.den,
                      self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return -(self - other)

    def __mul__(self, other) -> "RatFun":
        o = self._coerce(other)
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFun":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFun(self.den, self.num) ** (-n)
        return _power(self, n, lambda: RatFun.const(
            self.field, self.variables, self.field.one()))

    def __eq__(self, other) -> bool:
        """Equality of functions: fractions are not reduced, so compare
        by cross-multiplication.  The products' coefficients have
        denominator 1, so equal coefficients store equal numerators."""
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        elif not isinstance(other, RatFun):
            return NotImplemented
        if self.field is not other.field or \
                self.variables != other.variables:
            return False
        a, b = self.num * other.den, other.num * self.den
        return a.terms.keys() == b.terms.keys() and \
            all(c.num == b.terms[k].num for k, c in a.terms.items())

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    def eval_at(self, assignment: dict,
                target: Optional[FieldDescriptor] = None
                ) -> Union[FieldElement, PoleMarker]:
        """Substitute; POLE when the denominator vanishes exactly, else one
        FieldElement of `target` built from the two `_homogeneous` sums."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"assignment misses {missing}")
        values = [assignment[v] for v in self.variables]
        if target is None:
            target = reduce(FieldDescriptor.join, [v.field for v in values],
                            self.field)
        top, bottom = _homogeneous(self, values, target)
        if bottom.is_zero():
            return POLE
        return FieldElement(target, top, bottom)

    def __repr__(self):
        return f"<ratfun {format_ratfun(self)}>"


def _prepared(f: RatFun, values: list, target: FieldDescriptor) -> tuple:
    """(mask embedding f's group in target's, None when f is over target;
    the values lifted into target), or FieldMismatchError."""
    mask = None if f.field is target else f.field.embedding_mask_into(target)
    if mask is None and f.field is not target:
        raise FieldMismatchError(
            f"{f.field.name} does not embed in {target.name}")
    return mask, [lift(v, target) for v in values]


def _tabled(table: list, e: int, times=mul):
    """table[0] ** e for e >= 1, where table[i] holds table[0] ** (i + 1);
    missing powers are appended by `times`."""
    while len(table) < e:
        table.append(times(table[-1], table[0]))
    return table[e - 1]


def _substitution(f: RatFun, mask: Optional[tuple], values: list,
                  group) -> Callable[[Poly], HahnSum]:
    """The map p -> sum c_k * prod n_i^k_i * d_i^(D_i - k_i), for p in
    (f.num, f.den) at the lifted values n_i/d_i, D_i = max(deg_i num,
    deg_i den): p(values) * prod d_i^D_i (Knuth, TAOCP vol. 2, 4.6.4).
    Coefficients have denominator 1 and enter as numerators; powers are
    tabled on demand and a d_i of 1 is skipped."""
    degrees = [max(e) for e in zip(*f.num.terms, *f.den.terms)]
    tables = [([v.num], [v.den] if len(v.den._t) != 1 else None)
              for v in values]

    def total(p: Poly) -> HahnSum:
        out = HahnSum.zero(group)
        for key, c in p.terms.items():
            part = c.num if mask is None else c.num._embedded(group, mask)
            for (ns, ds), e, top in zip(tables, key, degrees):
                if e:
                    part = part * _tabled(ns, e)
                if ds is not None and top > e:
                    part = part * _tabled(ds, top - e)
            out = out + part
        return out
    return total


def _homogeneous(f: RatFun, values: list,
                 target: FieldDescriptor) -> tuple[HahnSum, HahnSum]:
    """(N, M), sums in `target`'s group with f(values) = N/M: num and den
    under `_substitution`.  Used by `RatFun.eval_at`."""
    total = _substitution(f, *_prepared(f, values, target), target.group)
    return total(f.num), total(f.den)


def _leading_sums(f: RatFun, values: list, target: FieldDescriptor) -> tuple:
    """The leading terms of the `_homogeneous` sums N and M as `_lead`
    triples (key, (x, y), q) at one scale, None for a zero sum, read in
    integers: c_k * prod n_i^k_i * d_i^(D_i - k_i) leads with lead(c_k) *
    prod lead(n_i)^k_i (a canonical d_i leads with 1), or is 0 if a k_i > 0
    falls on a value 0.  If the least of these cancel in one sum, that sum
    alone is built, and both triples move to a scale that covers it."""
    mask, values = _prepared(f, values, target)
    group, d = target.group, target.coeff_d
    times = partial(_mono_mul, d=d or 0)
    scale = math.lcm(*{c.num._n for p in (f.num, f.den)
                       for c in p.terms.values()}, *{v.num._n for v in values})
    # powers of lead(n_i), tabled on demand; None for a value 0
    tables = [[v.num._lead(scale, group)] if v.num._t else None
              for v in values]
    out, full = [], None
    for p in (f.num, f.den):
        cands = []
        for exps, c in p.terms.items():
            m = c.num._lead(scale, group, mask)
            for table, e in zip(tables, exps):
                if e and table is None:
                    break
                if e:
                    m = times(m, _tabled(table, e, times))
            else:
                cands.append(m)
        if not cands:
            out.append(None)
            continue
        least = _least_key(group, [m[0] for m in cands])
        x, y, q = 0, 0, 1
        for k, (a, b), r in cands:
            if k == least:
                x, y, q = x * r + a * q, y * r + b * q, q * r
        if x or y:
            out.append((least, (x, y), q))
            continue
        full = full or _substitution(f, mask, values, group)
        s = full(p)
        out.append(s if s._t else None)
    if full is None:
        return tuple(out)
    # a value's den may hold exponents at a scale that `scale` lacks
    n = math.lcm(scale, *(s._n for s in out if isinstance(s, HahnSum)))
    return tuple(s._lead(n, group) if isinstance(s, HahnSum) else
                 s and (tuple(x * (n // scale) for x in s[0]), *s[1:])
                 for s in out)


# -- printing -------------------------------------------------------------------

_PLAIN = frozenset("0123456789/")


def _coeff_text(c: FieldElement) -> str:
    s = str(c)
    body = s[1:] if s.startswith("-") else s
    if body and set(body) <= _PLAIN:
        return s
    return f"({s})"


def _monomial_text(variables: tuple, key: tuple) -> str:
    parts = []
    for v, e in zip(variables, key):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for key in sorted(p.terms, reverse=True):
        mono = _monomial_text(p.variables, key)
        cs = _coeff_text(p.terms[key])
        if not mono:
            text = cs
        elif cs == "1":
            text = mono
        elif cs == "-1":
            text = f"-{mono}"
        else:
            text = f"{cs}*{mono}"
        if not chunks:
            chunks.append(text)
        elif text.startswith("-"):
            chunks.append(f" - {text[1:]}")
        else:
            chunks.append(f" + {text}")
    return "".join(chunks)


def format_ratfun(f: RatFun) -> str:
    num = format_poly(f.num)
    if _is_one(f.den):
        return num
    return f"({num})/({format_poly(f.den)})"


# -- parsing --------------------------------------------------------------------

class RatFunSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# one match per token; whitespace matches nothing and is skipped.  The
# classes are those of the str methods: \s is isspace, \d isdecimal (the
# digits int() reads) and \w is isalnum or "_"
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>\w+)|(?P<op>[-+*/^(),])|\S")


def _tokenize(text: str) -> list:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, at = m.lastgroup, m.group(), m.start()
        # a name starts with a letter or "_"; "²" and "½" are word
        # characters that start none
        if kind is None or (kind == "name" and not (
                tok[0].isalpha() or tok[0] == "_")):
            raise RatFunSyntaxError(f"unexpected character {tok[0]!r}", at)
        tokens.append((tok if kind == "op" else kind, tok, at))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, ^ with the usual precedence;
    identifiers are the declared variables, `t` monomials, `sqrt` or bound
    names.  Each rule returns an unnormalised pair (num, den) of term dicts
    {int exponent tuple: HahnSum}, built by the RatFun operators' rules with
    0 as 0/1, and `parse` normalises once.  Normalising a step would only
    multiply num and den by a monomial c*t^g, constant in the variables,
    which the final division by den's leading monomial removes.  So a
    shortcut may change a pair by such a common factor and by nothing else
    (fractions are not gcd-reduced): an integer literal is its stored sum,
    and dividing by a one-term constant multiplies num by its inverse."""

    def __init__(self, text: str, field: FieldDescriptor,
                 variables: Sequence[str], names=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.variables = tuple(variables)
        self.names = names or {}
        self.key = (0,) * len(self.variables)
        self.one = {self.key: HahnSum.one(field.group)}

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> tuple:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise RatFunSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> RatFun:
        pair = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise RatFunSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        field, one = self.field, self.field.one().den
        return RatFun(*(_poly(field, self.variables,
                              {k: FieldElement(field, h, one)
                               for k, h in p.items()}) for p in pair))

    def times(self, a: dict, b: dict) -> dict:
        """a * b; the dict `one` multiplies as the identity."""
        if a is self.one:
            return b
        return a if b is self.one else _product_terms(a, b)

    def product(self, x: tuple, y: tuple) -> tuple:
        num = self.times(x[0], y[0])
        return (num, self.times(x[1], y[1])) if num else (num, self.one)

    def const(self, h: HahnSum) -> tuple:
        return {self.key: h} if h._t else {}, self.one

    def expr(self) -> tuple:
        num, den = {}, self.one
        op = "+"
        if self.peek()[0] == "-":
            op = self.take()[0]
        while True:
            n2, d2 = self.term()
            if op == "-":
                n2 = {k: -h for k, h in n2.items()}
            num = _sum_terms(self.times(num, d2), self.times(n2, den))
            den = self.times(den, d2) if num else self.one
            if self.peek()[0] not in ("+", "-"):
                return num, den
            op = self.take()[0]

    def term(self) -> tuple:
        out = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            num, den = self.power()
            if op == "*":
                out = self.product(out, (num, den))
            elif not num:
                raise RatFunSyntaxError("division by zero", self.peek()[2])
            elif den is self.one and num.keys() == {self.key} and \
                    len(num[self.key]._t) == 1:
                f = num[self.key]._monic_factor()
                out = ({k: h._times_monomial(*f) for k, h in out[0].items()},
                       out[1])
            else:
                out = self.product(out, (den, num))
        return out

    def power(self) -> tuple:
        kind, name, _ = self.peek()
        if kind == "name" and name == "t" and \
                name not in self.variables and \
                self.tokens[self.pos + 1][0] == "^":
            return self.hahn_monomial()
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        at = self.take()[2]
        n = self.signed_int()
        if n < 0:
            if not base[0]:
                raise RatFunSyntaxError("division by zero", at)
            base, n = base[::-1], -n
        return _power(base, n, lambda: (self.one, self.one), self.product)

    def atom(self) -> tuple:
        kind, text, at = self.take()
        if kind == "num":
            # fractions like 7/5 arrive as divisions by a constant
            return self.const(HahnSum._int(self.field.group, int(text)))
        if kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind == "name":
            if text in self.variables:
                key = tuple(int(v == text) for v in self.variables)
                return {key: self.one[self.key]}, self.one
            if text == "sqrt":
                self.take("(")
                d = int(self.take("num")[1])
                self.take(")")
                return self.const(self.field.const(QuadExt(0, 1, d)).num)
            if text == "t":
                rank = self.field.group.rank
                if not rank:
                    raise RatFunSyntaxError(
                        "exponent rank 1 does not match the field", at)
                return self.monomial([1] + [0] * (rank - 1))
            if text in self.names:
                val = self.names[text]
                if val.field is not self.field:
                    val = lift(val, self.field)
                den = self.one if len(val.den._t) == 1 else {self.key: val.den}
                return self.const(val.num)[0], den
            raise RatFunSyntaxError(f"unknown name {text!r}", at)
        raise RatFunSyntaxError(f"unexpected token {text!r}", at)

    def monomial(self, coords: list) -> tuple:
        group = self.field.group
        return self.const(HahnSum.one(group).shift(group.elem(*coords)))

    def hahn_monomial(self) -> tuple:
        self.take("name")
        self.take("^")
        self.take("(")
        if self.peek()[0] == "(":
            self.take()
            coords = [self.fraction()]
            while self.peek()[0] == ",":
                self.take()
                coords.append(self.fraction())
            self.take(")")
        else:
            coords = [self.fraction()]
        self.take(")")
        if len(coords) != self.field.group.rank:
            raise RatFunSyntaxError(
                f"exponent rank {len(coords)} does not match the field",
                self.peek()[2])
        return self.monomial(coords)

    def fraction(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        top = int(self.take("num")[1])
        if self.peek()[0] == "/":
            self.take()
            _, text, at = self.take("num")
            if int(text) == 0:
                raise RatFunSyntaxError("zero denominator in an exponent", at)
            return Fraction(sign * top, int(text))
        return Fraction(sign * top)

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        return sign * int(self.take("num")[1])


def parse_ratfun(text: str, field: FieldDescriptor,
                 variables: Sequence[str], names=None) -> RatFun:
    return _Parser(text, field, variables, names).parse()
