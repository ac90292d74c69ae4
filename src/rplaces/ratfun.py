"""Sparse rational functions over one Hahn-sum field.

A RatFun stores one fraction, a pair (num, den) of plain-sum term dicts
{int exponent tuple: HahnSum}; the variables are the transcendentals a
place realizes.  Its operators and the parser build pairs by one set of
pair rules.  Normal form is FieldElement's rule for its own num/den: den's
leading coefficient (at its largest exponent tuple) leads with the monomial
1, and 0 is 0/1.  Sums and products of normal pairs are normal, so only a
swap (`/`, negative powers), the parser's final pair and the public
`RatFun(num, den)` renormalise.  Fractions are never gcd-reduced.

A Poly, a map from exponent tuples to FieldElement coefficients, is only
the validated input of `RatFun(num, den)`, which multiplies coefficient
denominators out of it (`_cleared`), and the read view `RatFun.num` and
`.den`, with coefficients over 1, built on first read; it has no
arithmetic.  Substitution makes num and den two plain sums over one common
denominator (`_homogeneous`), whose quotient is the value; a zero den sum
is a pole.  A place reads only their leading terms, in integers
(`_leading_sums`), from those of the coefficients, memoised in the RatFun
per (scale, group rank, mask), and of the values, memoised in the place
per (variables, scale): neither changes, so neither memo goes stale.

Invariant: term dicts map int exponent tuples, one entry per variable, to
nonzero coefficients.  The public constructors check and convert their
input; arithmetic results keep the invariant by construction and are built
through `_ratfun` without re-checking.  Polys, RatFuns and their
coefficients are never changed after they are built, so results may share
terms (and whole operands) with their inputs.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import add, mul
from typing import Callable, Optional, Sequence, Union

from .coeff import QuadExt, _power
from .ordfield import (FieldDescriptor, FieldElement, FieldMismatchError,
                       HahnSum, _format_sum, _least_key, _mono_mul, lift)


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
_ONE = QuadExt(1)


def _as_element(field: FieldDescriptor, c) -> FieldElement:
    """c in `field`: a constant, or an element of a declared subfield."""
    if isinstance(c, FieldElement):
        return c if c.field is field else lift(c, field)
    return field.const(c)


class Poly:
    """Finite map from exponent tuples to nonzero coefficients: the
    validated input of `RatFun(num, den)` and the type of its read views
    `num` and `den`, with no arithmetic.

    `terms` maps int tuples of length len(variables), all entries >= 0, to
    nonzero elements of `field`.  `Poly(...)` validates and converts its
    input; `_poly` builds a view from terms already in this form.  A Poly
    is never changed after it is built."""

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and \
            self.variables == other.variables and self.terms == other.terms

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
    """a + b for {exponent tuple: HahnSum} term dicts."""
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


# -- the pair rules on (num, den), two plain-sum term dicts ---------------------

@lru_cache(maxsize=256)
def _unit_terms(field: FieldDescriptor, n: int) -> dict:
    """The term dict of 1 in n variables over `field`, one shared dict per
    setting: the rules' `one`, the identity of products and the den of 0."""
    return {(0,) * n: HahnSum.one(field.group)}


def _mul(a: dict, b: dict, one: dict) -> dict:
    return b if a is one else a if b is one else _product_terms(a, b)


def _product(x: tuple, y: tuple, one: dict) -> tuple:
    """x * y; 0 as 0/1."""
    num = _mul(x[0], y[0], one)
    return (num, _mul(x[1], y[1], one)) if num else ({}, one)


def _pair_sum(x: tuple, y: tuple, one: dict) -> tuple:
    """x + y over the den product; 0 as 0/1."""
    num = _sum_terms(_mul(x[0], y[1], one), _mul(y[0], x[1], one))
    return (num, _mul(x[1], y[1], one)) if num else ({}, one)


def _negated(x: tuple) -> tuple:
    return {k: -h for k, h in x[0].items()}, x[1]


def _normal(x: tuple, one: dict) -> tuple:
    """x divided on both sides by the leading monomial of den's leading
    coefficient; 0 as 0/1.  Sums and products of normal pairs are normal
    (their den leads with 1 * 1), so only a swap needs this rule."""
    num, den = x
    if not num:
        return {}, one
    lead = den[max(den)]
    if lead._is_monic():
        return x
    f = lead._monic_factor()
    return tuple({k: h._times_monomial(*f) for k, h in p.items()} for p in x)


def _constant(field: FieldDescriptor, n: int, c) -> tuple:
    """c = a/b as the pair (a, b) in n variables, which is normal: a
    canonical b leads with 1, and one with one term is 1."""
    c, one = _as_element(field, c), _unit_terms(field, n)
    key = (0,) * n
    return {key: c.num} if c.num._t else {}, \
        one if len(c.den._t) == 1 else {key: c.den}


def _quotient(x: tuple, y: tuple, one: dict) -> tuple:
    """x / y: x times y swapped, renormalised."""
    if not y[0]:
        raise ZeroDivisionError("division by the zero function")
    return _normal(_product(x, y[::-1], one), one)


def _cleared(num: Poly, den: Poly) -> tuple[dict, dict]:
    """The term dicts of num and den times every distinct coefficient
    denominator: each numerator times the denominators other than its own."""
    dens = []
    for c in (*num.terms.values(), *den.terms.values()):
        if len(c.den._t) != 1 and c.den not in dens:
            dens.append(c.den)
    return tuple({k: reduce(mul, (d for d in dens if d != c.den), c.num)
                  for k, c in p.terms.items()} for p in (num, den))


class RatFun:
    """Quotient of two polynomials, stored as the pair `_terms` = (num,
    den) of plain-sum term dicts in the normal form of the module
    docstring.  `num` and `den` are Poly views of the pair, built on first
    read and kept; the RatFun itself never changes."""

    __slots__ = ("field", "variables", "_terms", "_views", "_leads")

    def __init__(self, num: Poly, den: Poly):
        if den.field is not num.field or den.variables != num.variables:
            raise FieldMismatchError("polynomials over different settings")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.field, self.variables, self._views, self._leads = \
            num.field, num.variables, None, None
        self._terms = _normal(_cleared(num, den), self._one())

    @staticmethod
    def const(field: FieldDescriptor, variables: Sequence[str],
              c) -> "RatFun":
        return _ratfun(field, tuple(variables),
                       _constant(field, len(variables), c))

    @staticmethod
    def var(field: FieldDescriptor, variables: Sequence[str],
            name: str) -> "RatFun":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        key = tuple(int(v == name) for v in variables)
        return _ratfun(field, variables, ({key: HahnSum.one(field.group)},
                                          _unit_terms(field, len(key))))

    def _polys(self) -> tuple[Poly, Poly]:
        if self._views is None:
            field, one = self.field, HahnSum.one(self.field.group)
            self._views = tuple(_poly(field, self.variables, {
                k: FieldElement(field, h, one) for k, h in p.items()})
                for p in self._terms)
        return self._views

    num = property(lambda self: self._polys()[0])
    den = property(lambda self: self._polys()[1])

    def is_zero(self) -> bool:
        return not self._terms[0]

    def _one(self) -> dict:
        return _unit_terms(self.field, len(self.variables))

    def _coerce(self, other) -> tuple:
        """other's pair: a RatFun over the same setting, or a constant."""
        if not isinstance(other, RatFun):
            return _constant(self.field, len(self.variables), other)
        if other.field is not self.field or \
                other.variables != self.variables:
            raise FieldMismatchError("polynomials over different settings")
        return other._terms

    def _apply(self, rule: Callable, x: tuple, y: tuple) -> "RatFun":
        return _ratfun(self.field, self.variables, rule(x, y, self._one()))

    def __add__(self, other) -> "RatFun":
        return self._apply(_pair_sum, self._terms, self._coerce(other))

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return _ratfun(self.field, self.variables, _negated(self._terms))

    def __sub__(self, other) -> "RatFun":
        return self._apply(_pair_sum, self._terms,
                           _negated(self._coerce(other)))

    def __rsub__(self, other) -> "RatFun":
        return -(self - other)

    def __mul__(self, other) -> "RatFun":
        return self._apply(_product, self._terms, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        return self._apply(_quotient, self._terms, self._coerce(other))

    def __rtruediv__(self, other) -> "RatFun":
        return self._apply(_quotient, self._coerce(other), self._terms)

    def __pow__(self, n: int) -> "RatFun":
        x, one = self._terms, self._one()
        if n < 0:
            if not x[0]:
                raise ZeroDivisionError("negative power of zero")
            x, n = _normal(x[::-1], one), -n
        return _ratfun(self.field, self.variables, _power(
            x, n, lambda: (one, one), partial(_product, one=one)))

    def __eq__(self, other) -> bool:
        """Equality of functions: fractions are not reduced, so compare
        by cross-multiplication, as the num of a difference.  A constant
        is read as the operators read it; a function over another setting,
        an element of an unrelated field or a number outside the field is
        unequal."""
        if not isinstance(other, (RatFun, FieldElement, QuadExt, int,
                                  Fraction)):
            return NotImplemented
        try:
            return (self - other).is_zero()
        except (FieldMismatchError, ValueError):
            return False

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


def _ratfun(field: FieldDescriptor, variables: tuple, x: tuple) -> RatFun:
    """A RatFun from a pair already in normal form, taken as it is."""
    f = object.__new__(RatFun)
    f.field, f.variables, f._terms = field, variables, x
    f._views = f._leads = None
    return f


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
                  group) -> Callable[[dict], HahnSum]:
    """The map p -> sum c_k * prod n_i^k_i * d_i^(D_i - k_i), for p in
    f's pair (num, den) at the lifted values n_i/d_i, D_i = max(deg_i num,
    deg_i den): p(values) * prod d_i^D_i (Knuth, TAOCP vol. 2, 4.6.4).
    Powers are tabled on demand and a d_i of 1 is skipped."""
    degrees = [max(e) for e in zip(*f._terms[0], *f._terms[1])]
    tables = [([v.num], [v.den] if len(v.den._t) != 1 else None)
              for v in values]

    def total(p: dict) -> HahnSum:
        out = HahnSum.zero(group)
        for key, h in p.items():
            part = h if mask is None else h._embedded(group, mask)
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
    return total(f._terms[0]), total(f._terms[1])


def _leading_sums(f: RatFun, values: list, target: FieldDescriptor,
                  memo: Optional[dict] = None) -> tuple:
    """The leading terms of the `_homogeneous` sums N and M as `_lead`
    triples (key, (x, y), q) at one scale, None for a zero sum, read in
    integers: c_k * prod n_i^k_i * d_i^(D_i - k_i) leads with lead(c_k) *
    prod lead(n_i)^k_i (a canonical d_i leads with 1), or is 0 if a k_i > 0
    falls on a value 0.  If the least of these cancel in one sum, that sum
    alone is built, and both triples move to a scale that covers it.  f's
    `_leads` holds its coefficient scales' lcm and their `_lead` triples per
    (scale, rank of target's group, mask), all that `_lead` reads; `memo`, a
    place's, holds the first powers lead(n_i) (None for 0) per (f.variables,
    scale).  Neither goes stale: f and the values never change."""
    mask, values = _prepared(f, values, target)
    group, d = target.group, target.coeff_d
    times = partial(_mono_mul, d=d or 0)
    if f._leads is None:
        f._leads = math.lcm(*{h._n for p in f._terms for h in p.values()}), {}
    scale = math.lcm(f._leads[0], *{v.num._n for v in values})
    leads = f._leads[1].get((scale, group.rank, mask))
    if leads is None:
        leads = f._leads[1][scale, group.rank, mask] = [[
            (exps, h._lead(scale, group, mask)) for exps, h in p.items()]
            for p in f._terms]
    memo = {} if memo is None else memo
    firsts = memo.get((f.variables, scale))
    if firsts is None:
        firsts = memo[f.variables, scale] = [
            v.num._lead(scale, group) if v.num._t else None for v in values]
    tables = [m and [m] for m in firsts]
    out, full = [], None
    for p, terms in zip(f._terms, leads):
        cands = []
        for exps, m in terms:
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


def _coeff_text(s: str) -> str:
    body = s[1:] if s.startswith("-") else s
    if body and set(body) <= _PLAIN:
        return s
    return f"({s})"


def _monomial_text(variables: tuple, key: tuple) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in zip(variables, key) if e)


def _is_one(p: dict) -> bool:
    """p is the term dict of the constant 1 (a monic one-term sum is 1): the
    den that `format_ratfun` leaves out."""
    if len(p) != 1:
        return False
    (key, h), = p.items()
    return not any(key) and len(h._t) == 1 and h._is_monic()


def _format_terms(variables: tuple, terms: dict, show=_format_sum) -> str:
    """The term dict as a sum of monomials, largest exponent tuple first;
    `show` prints a coefficient."""
    if not terms:
        return "0"
    chunks = []
    for key in sorted(terms, reverse=True):
        mono = _monomial_text(variables, key)
        cs = _coeff_text(show(terms[key]))
        text = cs if not mono else mono if cs == "1" else \
            f"-{mono}" if cs == "-1" else f"{cs}*{mono}"
        if chunks:
            text = f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        chunks.append(text)
    return "".join(chunks)


def format_poly(p: Poly) -> str:
    return _format_terms(p.variables, p.terms, str)


def format_ratfun(f: RatFun) -> str:
    num, den = f._terms
    text = _format_terms(f.variables, num)
    if _is_one(den):
        return text
    return f"({text})/({_format_terms(f.variables, den)})"


# -- parsing --------------------------------------------------------------------

class RatFunSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str) -> list:
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch.isspace():
            pass
        elif ch.isdecimal():
            # exactly the digits int() reads; "²" passes isdigit() only
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("num", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif ch in "+-*/^(),":
            tokens.append((ch, ch, i))
        else:
            raise RatFunSyntaxError(f"unexpected character {ch!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, /, ^ with the usual precedence;
    identifiers are the declared variables, `t` monomials, `sqrt` or bound
    names.  Each rule returns a pair (num, den) of term dicts {int exponent
    tuple: HahnSum}, built by the pair rules that the RatFun operators use,
    with 0 as 0/1; a division swaps without `_normal`, and `parse`
    normalises once.  Normalising a step would only multiply num and den
    by a monomial c*t^g, constant in the variables, which the final
    division by den's leading monomial removes.  So a
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
        self.one = _unit_terms(field, len(self.variables))

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
        return _ratfun(self.field, self.variables, _normal(pair, self.one))

    def const(self, h: HahnSum) -> tuple:
        return {self.key: h} if h._t else {}, self.one

    def expr(self) -> tuple:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        out = self.term()
        if negate:
            out = _negated(out)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = _pair_sum(out, rhs if op == "+" else _negated(rhs),
                            self.one)
        return out

    def term(self) -> tuple:
        out = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            num, den = self.power()
            if op == "*":
                out = _product(out, (num, den), self.one)
            elif not num:
                raise RatFunSyntaxError("division by zero", self.peek()[2])
            elif den is self.one and num.keys() == {self.key} and \
                    len(num[self.key]._t) == 1:
                f = num[self.key]._monic_factor()
                out = ({k: h._times_monomial(*f) for k, h in out[0].items()},
                       out[1])
            else:
                out = _product(out, (den, num), self.one)
        return out

    def power(self) -> tuple:
        if self.peek()[1] == "t" and "t" not in self.variables and \
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
        return _power(base, n, lambda: (self.one, self.one),
                      partial(_product, one=self.one))

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
                return _constant(self.field, len(self.key), QuadExt(0, 1, d))
            if text == "t":
                rank = self.field.group.rank
                if not rank:
                    raise RatFunSyntaxError(
                        "exponent rank 1 does not match the field", at)
                return self.monomial([1] + [0] * (rank - 1))
            if text in self.names:
                return _constant(self.field, len(self.key), self.names[text])
            raise RatFunSyntaxError(f"unknown name {text!r}", at)
        raise RatFunSyntaxError(f"unexpected token {text!r}", at)

    def monomial(self, coords: list) -> tuple:
        group = self.field.group
        return self.const(HahnSum.monomial(group, group.elem(*coords), _ONE))

    def hahn_monomial(self) -> tuple:
        for kind in ("name", "^", "("):
            self.take(kind)
        nested = self.peek()[0] == "("
        if nested:
            self.take()
        coords = [self.fraction()]
        while nested and self.peek()[0] == ",":
            self.take()
            coords.append(self.fraction())
        self.take(")")
        if nested:
            self.take(")")
        if len(coords) != self.field.group.rank:
            raise RatFunSyntaxError(
                f"exponent rank {len(coords)} does not match the field",
                self.peek()[2])
        return self.monomial(coords)

    def fraction(self) -> Fraction:
        top = self.signed_int()
        if self.peek()[0] != "/":
            return Fraction(top)
        self.take()
        _, text, at = self.take("num")
        if int(text) == 0:
            raise RatFunSyntaxError("zero denominator in an exponent", at)
        return Fraction(top, int(text))

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        return sign * int(self.take("num")[1])


def parse_ratfun(text: str, field: FieldDescriptor,
                 variables: Sequence[str], names=None) -> RatFun:
    return _Parser(text, field, variables, names).parse()
