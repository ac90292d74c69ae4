"""Line-oriented command language over the whole library.

A session holds named fields, elements, balls, cuts and places; each
command line either defines a new named object or runs a query against
existing ones.  Every command produces one plain-data record

    {"command": ..., "inputs": ..., "result": ...}

(plus "certificates" when a query yields one, or "error" with a stable
machine-readable code).  All numbers are printed exactly, as strings like
"7/5" or "2+3*sqrt(2)"; nothing is ever rounded, so identical scripts with
identical seeds produce byte-identical JSON.

Grammar sketch (one command per line, '#' starts a comment):

    def-field F = hahn rational lex 2
    def-field R = subfield F mask (1)
    def-field W = extend-coeff R sqrt 2
    def-field G = extend-group R lex 2 mask (1)
    def-field E eps = adjoin R above (2) +
    def-field declare R in W mask (0)
    def-elem  a in R = 1 + t^(1/2)
    def-ball  B in R = ball(a; above (3))
    def-cut   C in R = edge(B, lower) | a+ | a- | +inf | -inf
                       | filler(a, lower, over R)
    def-place P = from-cut C var y | stacked in Q x = 0; y = 0
                  | independent in Q x = 0 : 1; y = 0 : sqrt(2)
                  | gauss F var y | residue F
                  | compose via Z x = 1+t; y = 2
                  | constext Z over F | realized over R in G x = t^(1)
    cmp elem a b | cmp exp F (1,0) (0,1) | cmp cut C1 C2
                 | cmp side C a | cmp in B a
    val a | residue a | expand a cutoff (5)
    classify C cutoff (4) | classify ball B
    equiv C1 C2 | equiv ball B1 B2
    restrict cut C to R as D | restrict place P to x,y as Q2
                             | restrict place P cut y as D
    fiber C in F
    between complement B in F as B2 | between filler a over R as B2
                                    | between cuts C1 C2 as m
    embed exists R in F | embed cut C from R into F as D
                        | embed place P from R into F as P2
                        | embed principal R in F
    witness nonconvex R F | witness three-case P
                          | witness separate C1 C2 var y
                          | witness distinguish P1 P2
    eval P (x - y)/(x + y) | harrison P x*y - 2
    probe <experiment>
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional

from .coeff import QuadExt
from .valgroup import (
    LEX, LOWER, UPPER, WEIGHTED, FinalSegment, GroupCut, GroupElem,
    ValueGroup, element_in_interval, restrict_position, side_name,
)
from .ordfield import (
    DEFAULT_MAX_STEPS, ExpansionBudgetError, FieldDescriptor, FieldElement,
    FieldMismatchError, HahnSum, INF, adjoin_infinitesimal, declare_embedding,
    lift,
)
from .ratfun import RatFun, RatFunSyntaxError, format_ratfun, parse_ratfun
from .balls import (
    Ball, BallComplement, NonBallWithFiller, ball_contains, ball_eq,
    between_ball, complement_pair_at,
)
from .cuts import (
    Cut, CutComparisonError, classify, cut_cmp, cut_edge, cut_filler,
    cut_minus_inf, cut_plus_inf, cut_principal, equivalent, fiber,
    find_between, is_full_ball_interval, restrict, side_of,
)
from .places import (
    ResiduePlace, RPlace, constant_ext_embed, distinguish_stacked_independent,
    eval_place, find_separating_function, gauss_extension, harrison,
    independent_place, induced_cut, place_from_cut, place_restrict,
    rational_place_compose, realized_place, stacked_place, three_case_witness,
)
from .embed import (
    EmbeddingContext, iota_place, iota_tilde, nonconvex_witness,
    principal_preservation,
)

_SIDE_BY_NAME = {"lower": LOWER, "upper": UPPER}
_ORDER_NAME = {-1: "LT", 0: "EQ", 1: "GT"}
_RESERVED = frozenset({"t", "sqrt", "inf", "ball", "edge", "filler"})


class CliError(Exception):
    """Command failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _error_code(exc: Exception) -> str:
    if isinstance(exc, CliError):
        return exc.code
    if isinstance(exc, RatFunSyntaxError):
        return "syntax"
    if isinstance(exc, FieldMismatchError):
        return "field-mismatch"
    if isinstance(exc, ExpansionBudgetError):
        return "budget"
    if isinstance(exc, CutComparisonError):
        return "incomparable"
    if isinstance(exc, LookupError):
        return "search-failed"
    if isinstance(exc, ArithmeticError):
        return "arithmetic"
    if isinstance(exc, TypeError):
        return "type"
    if isinstance(exc, ValueError):
        return "domain"
    return "internal"


# -- scanning -------------------------------------------------------------------


class _Scan:
    """Cursor over one command line: words, balanced paren groups, rest."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self._skip()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def word(self) -> str:
        self._skip()
        j = self.pos
        while (j < len(self.text) and not self.text[j].isspace()
               and self.text[j] not in "()"):
            j += 1
        if j == self.pos:
            raise CliError("syntax",
                           f"expected a word at column {self.pos + 1}")
        out = self.text[self.pos:j]
        self.pos = j
        return out

    def expect(self, *options: str) -> str:
        w = self.word()
        if w not in options:
            raise CliError("syntax",
                           f"expected {' or '.join(options)}, found {w!r}")
        return w

    def group(self) -> str:
        """One balanced parenthesized chunk, parentheses included."""
        if self.peek() != "(":
            raise CliError("syntax",
                           f"expected '(' at column {self.pos + 1}")
        depth = 0
        for j in range(self.pos, len(self.text)):
            if self.text[j] == "(":
                depth += 1
            elif self.text[j] == ")":
                depth -= 1
                if depth == 0:
                    out = self.text[self.pos:j + 1]
                    self.pos = j + 1
                    return out
        raise CliError("syntax", "unbalanced parentheses")

    def rest(self) -> str:
        self._skip()
        out = self.text[self.pos:].strip()
        self.pos = len(self.text)
        return out


def _split_top(text: str, sep: str) -> list:
    """Split on sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _fractions_in(chunk: str) -> tuple:
    inner = chunk.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise CliError("syntax", f"expected a tuple, found {chunk!r}")
    inner = inner[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(Fraction(p) for p in _split_top(inner, ","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("syntax", f"bad rational in {chunk!r}: {exc}")


# -- session --------------------------------------------------------------------


class Session:
    """Named objects shared by the commands of one script."""

    def __init__(self, seed: int = 0, max_steps: int = DEFAULT_MAX_STEPS):
        self.seed = seed
        self.max_steps = max_steps
        self.fields: dict = {}
        self.elems: dict = {}
        self.balls: dict = {}
        self.cuts: dict = {}
        self.places: dict = {}

    def rng(self, label: str) -> random.Random:
        # per-experiment stream: command order cannot disturb the draws
        return random.Random(f"{self.seed}:{label}")

    def fresh(self, name: str) -> str:
        ok = name and (name[0].isalpha() or name[0] == "_") \
            and all(c.isalnum() or c == "_" for c in name)
        if not ok or name in _RESERVED:
            raise CliError("syntax", f"invalid or reserved name {name!r}")
        for space in (self.fields, self.elems, self.balls, self.cuts,
                      self.places):
            if name in space:
                raise CliError("duplicate-name",
                               f"name {name!r} is already defined")
        return name

    def _get(self, space: dict, name: str, what: str):
        if name not in space:
            raise CliError("unknown-name", f"no {what} named {name!r}")
        return space[name]

    def field(self, name: str) -> FieldDescriptor:
        return self._get(self.fields, name, "field")

    def elem(self, name: str) -> FieldElement:
        return self._get(self.elems, name, "element")

    def ball(self, name: str) -> Ball:
        return self._get(self.balls, name, "ball")

    def cut(self, name: str) -> Cut:
        return self._get(self.cuts, name, "cut")

    def place(self, name: str):
        return self._get(self.places, name, "place")

    def rplace(self, name: str) -> RPlace:
        p = self.place(name)
        if not isinstance(p, RPlace):
            raise CliError("type", f"{name!r} is a residue place, not a "
                           "rational-function place")
        return p


# -- element, group and coefficient parsing --------------------------------------


def _parse_element(sess: Session, field: FieldDescriptor,
                   text: str) -> FieldElement:
    if not text:
        raise CliError("syntax", "expected an element expression")
    return parse_ratfun(text, field, (), names=sess.elems).eval_at({})


def _parse_coeff(text: str) -> QuadExt:
    """A coefficient literal like 2, -1/3 or 1+sqrt(2), via a scratch
    rank-zero field."""
    d = None
    i = text.find("sqrt(")
    if i >= 0:
        j = text.find(")", i)
        if j < 0:
            raise CliError("syntax", f"unclosed sqrt in {text!r}")
        try:
            d = int(text[i + 5:j])
        except ValueError:
            raise CliError("syntax", f"sqrt argument must be an integer "
                           f"in {text!r}")
    scratch = FieldDescriptor("_coeff", d, ValueGroup(LEX, 0))
    x = parse_ratfun(text, scratch, ()).eval_at({})
    r = x.residue()
    if r is INF:
        raise CliError("syntax", f"{text!r} is not a constant")
    return r


def _parse_group_elem(scan: _Scan, G: ValueGroup) -> GroupElem:
    return G.elem(*_fractions_in(scan.group()))


def _parse_position(scan: _Scan, G: ValueGroup) -> GroupCut:
    w = scan.word()
    if w == "+inf":
        return G.plus_inf()
    if w == "-inf":
        return G.minus_inf()
    if w not in ("above", "below"):
        raise CliError("syntax",
                       f"expected above, below, +inf or -inf, found {w!r}")
    side = UPPER if w == "above" else LOWER
    if scan.peek() != "(":
        scan.expect("coset")
        g = _parse_group_elem(scan, G)
        suffix = scan.word()
        if not suffix.startswith("+H_"):
            raise CliError("syntax",
                           f"expected +H_<k> after the coset, found {suffix!r}")
        try:
            fixed = int(suffix[3:])
        except ValueError:
            raise CliError("syntax", f"bad coset subgroup {suffix!r}")
        return G.coset_edge(g, fixed, side)
    g = _parse_group_elem(scan, G)
    return G.above(g) if side == UPPER else G.below(g)


def _parse_segment(scan: _Scan, G: ValueGroup) -> FinalSegment:
    if scan.peek() not in ("(", ""):
        mark = scan.pos
        w = scan.word()
        if w == "empty":
            return G.seg_empty()
        if w == "all":
            return G.seg_all()
        if w == "at-least":
            return G.seg_at_least(_parse_group_elem(scan, G))
        scan.pos = mark
    return FinalSegment(_parse_position(scan, G))


def _parse_ball_literal(sess: Session, field: FieldDescriptor,
                        text: str) -> Ball:
    s = _Scan(text)
    s.expect("ball")
    chunk = s.group()
    if not s.done():
        raise CliError("syntax", f"trailing input after ball: {s.rest()!r}")
    parts = _split_top(chunk[1:-1], ";")
    if len(parts) != 2:
        raise CliError("syntax",
                       "a ball literal is ball(<center>; <segment>)")
    center = _parse_element(sess, field, parts[0])
    radius = _parse_segment(_Scan(parts[1]), field.group)
    return Ball(field, center, radius)


def _ball_operand(sess: Session, field: FieldDescriptor, text: str) -> Ball:
    text = text.strip()
    if text.startswith("ball"):
        return _parse_ball_literal(sess, field, text)
    return sess.ball(text)


def _parse_cut(sess: Session, field: FieldDescriptor, text: str) -> Cut:
    text = text.strip()
    if text == "+inf":
        return cut_plus_inf(field)
    if text == "-inf":
        return cut_minus_inf(field)
    if text.startswith("edge") or text.startswith("filler"):
        s = _Scan(text)
        form = s.word()
        chunk = s.group()
        if not s.done():
            raise CliError("syntax", f"trailing input: {s.rest()!r}")
        parts = _split_top(chunk[1:-1], ",")
        if form == "edge":
            if len(parts) != 2:
                raise CliError("syntax",
                               "edge takes (<ball>, lower|upper)")
            B = _ball_operand(sess, field, parts[0])
            if B.field is not field:
                raise CliError("field-mismatch",
                               f"ball lives in {B.field.name}, cut was "
                               f"requested in {field.name}")
            side = _side(parts[1])
            return cut_edge(B, side)
        if len(parts) not in (2, 3):
            raise CliError("syntax",
                           "filler takes (<elem>, lower|upper[, over <R>])")
        g = sess.elem(parts[0])
        side = _side(parts[1])
        target = field
        if len(parts) == 3:
            over = _Scan(parts[2])
            over.expect("over")
            target = sess.field(over.word())
            if target is not field:
                raise CliError("domain",
                               "the filler target must be the cut's field")
        return cut_filler(g, side, target, sess.max_steps)
    if text.endswith("+") or text.endswith("-"):
        side = UPPER if text.endswith("+") else LOWER
        x = _parse_element(sess, field, text[:-1])
        return cut_principal(x, side)
    raise CliError("syntax", f"unrecognized cut form {text!r}")


def _side(word: str) -> int:
    w = word.strip()
    if w not in _SIDE_BY_NAME:
        raise CliError("syntax", f"expected lower or upper, found {w!r}")
    return _SIDE_BY_NAME[w]


def _parse_assignments(sess: Session, field: FieldDescriptor, text: str,
                       weighted: bool = False):
    """'x = 0; y = 1+t' -> [(var, value)]; with weighted=True each clause is
    'x = 0 : <coeff>' and the weights come back as a second list."""
    items, weights, order = [], [], None
    for part in _split_top(text, ";"):
        if not part:
            continue
        if part.startswith("order "):
            order = [v.strip() for v in part[6:].split(",")]
            continue
        var, eq, value = part.partition("=")
        if not eq:
            raise CliError("syntax", f"expected <var> = <value> in {part!r}")
        var = var.strip()
        if weighted:
            vtext, wtext = _split_colon(value)
            items.append((var, _parse_element(sess, field, vtext)))
            weights.append(_parse_coeff(wtext))
        else:
            items.append((var, _parse_element(sess, field, value)))
    if order is not None:
        named = dict(items)
        if sorted(named) != sorted(order):
            raise CliError("domain", "order must list exactly the "
                           "assigned variables")
        items = [(v, named[v]) for v in order]
    if weighted:
        return items, weights
    return items


def _split_colon(text: str):
    parts = _split_top(text, ":")
    if len(parts) != 2:
        raise CliError("syntax",
                       f"expected <value> : <weight> in {text.strip()!r}")
    return parts[0], parts[1]


# -- serialization ----------------------------------------------------------------


def _field_info(F: FieldDescriptor) -> dict:
    group: dict = {"kind": F.group.kind, "rank": F.group.rank}
    if F.group.weights is not None:
        group["weights"] = [str(w) for w in F.group.weights]
    coeff = "rational" if F.coeff_d is None else f"sqrt({F.coeff_d})"
    return {"field": F.name, "coeff": coeff, "group": group}


def _elem_info(x: FieldElement) -> dict:
    v = x.val()
    return {"field": x.field.name, "value": str(x),
            "valuation": "inf" if v is INF else str(v)}


def _ball_info(B: Ball) -> dict:
    d = B.describe()
    d["field"] = B.field.name
    return d


def _cut_info(C: Cut) -> dict:
    d = C.describe()
    d["field"] = C.field.name
    return d


def _classify_info(res) -> dict:
    out: dict = {"kind": res.kind}
    if res.kind == "principal":
        out["side"] = side_name(res.side)
        out["element"] = str(res.element)
    elif res.kind == "ball":
        out["side"] = side_name(res.side)
        out["ball"] = _ball_info(res.ball)
    elif res.kind == "non_ball":
        cert = res.certificate
        out["__certs__"] = {
            "obstruction_exponent": str(cert.gamma0),
            "obstruction_coeff": str(cert.coeff),
            "approximant": str(cert.approximant),
            "refutations": [
                {"radius": r.radius.describe(),
                 "side": side_name(r.side),
                 "center": str(r.center),
                 "witness": str(r.witness)}
                for r in cert.refutations],
        }
    else:
        out["reached"] = None if res.reached is None else str(res.reached)
        out["reason"] = res.reason
    return out


# -- definition commands -----------------------------------------------------------


def _built_group(scan: _Scan) -> ValueGroup:
    kind = scan.expect("lex", "weighted")
    if kind == "lex":
        try:
            rank = int(scan.word())
        except ValueError:
            raise CliError("syntax", "lex needs an integer rank")
        return ValueGroup(LEX, rank)
    chunk = scan.group()
    weights = tuple(_parse_coeff(p) for p in _split_top(chunk[1:-1], ","))
    return ValueGroup(WEIGHTED, len(weights), weights)


def _mask(scan: _Scan) -> tuple:
    scan.expect("mask")
    coords = _fractions_in(scan.group())
    out = []
    for q in coords:
        if q.denominator != 1:
            raise CliError("syntax", "mask entries are coordinate indices")
        out.append(int(q))
    return tuple(out)


def _radicand(scan: _Scan) -> int:
    try:
        return int(scan.word())
    except ValueError:
        raise CliError("syntax", "sqrt needs an integer")


def _cmd_def_field(sess: Session, scan: _Scan) -> dict:
    first = scan.word()
    if first == "declare":
        sub = sess.field(scan.word())
        scan.expect("in")
        sup = sess.field(scan.word())
        mask = _mask(scan)
        declare_embedding(sub, sup, mask)
        return {"declared": f"{sub.name} in {sup.name}",
                "mask": list(mask)}
    name = first
    second = scan.word()
    epsname = None
    if second != "=":
        epsname = second
        scan.expect("=")
    form = scan.word()
    if form == "adjoin":
        if epsname is None:
            raise CliError("syntax",
                           "adjoin needs two names: the field and the "
                           "new infinitesimal")
        parent = sess.field(scan.word())
        at = _parse_position(scan, parent.group)
        sign = 1 if scan.expect("+", "-") == "+" else -1
        sess.fresh(name)
        sess.fresh(epsname)
        F, eps = adjoin_infinitesimal(parent, at, sign, name)
        sess.fields[name] = F
        sess.elems[epsname] = eps
        out = _field_info(F)
        out["adjoined"] = {"name": epsname, "value": str(eps)}
        return out
    if epsname is not None:
        raise CliError("syntax", f"unexpected name {epsname!r}")
    sess.fresh(name)
    if form == "hahn":
        ckind = scan.expect("rational", "sqrt")
        d = _radicand(scan) if ckind == "sqrt" else None
        F = FieldDescriptor(name, d, _built_group(scan))
    elif form == "subfield":
        parent = sess.field(scan.word())
        mask = _mask(scan)
        coeff = "same"
        if not scan.done():
            scan.expect("rational")
            coeff = None
        F = parent.subfield(name, mask, coeff)
    elif form == "extend-coeff":
        parent = sess.field(scan.word())
        scan.expect("sqrt")
        F = parent.extend_coeff(name, _radicand(scan))
    elif form == "extend-group":
        parent = sess.field(scan.word())
        G = _built_group(scan)
        mask = _mask(scan)
        F = parent.extend_group(name, G, mask)
    else:
        raise CliError("syntax", f"unknown field form {form!r}")
    sess.fields[name] = F
    return _field_info(F)


def _definer(kind: str, parse, info):
    """The command `def-<kind> <name> in <field> = <text>`: parse the text
    in the field and store the value in the session's `<kind>s`."""
    def define(sess: Session, scan: _Scan) -> dict:
        name = scan.word()
        scan.expect("in")
        F = sess.field(scan.word())
        scan.expect("=")
        sess.fresh(name)
        value = parse(sess, F, scan.rest())
        getattr(sess, kind + "s")[name] = value
        out = info(value)
        out[kind] = name
        return out
    return define


_cmd_def_elem = _definer("elem", _parse_element, _elem_info)
_cmd_def_ball = _definer("ball", _parse_ball_literal, _ball_info)
_cmd_def_cut = _definer("cut", _parse_cut, _cut_info)


def _cmd_def_place(sess: Session, scan: _Scan) -> dict:
    name = scan.word()
    scan.expect("=")
    form = scan.word()
    sess.fresh(name)
    if form == "from-cut":
        C = sess.cut(scan.word())
        scan.expect("var")
        p = place_from_cut(C, scan.word(), name=name)
    elif form == "stacked":
        scan.expect("in")
        base = sess.field(scan.word())
        items = _parse_assignments(sess, base, scan.rest())
        p = stacked_place(base, items, name=name)
    elif form == "independent":
        scan.expect("in")
        base = sess.field(scan.word())
        items, weights = _parse_assignments(sess, base, scan.rest(),
                                            weighted=True)
        p = independent_place(base, items, weights, name=name)
    elif form == "gauss":
        F = sess.field(scan.word())
        scan.expect("var")
        var = scan.word()
        res = None
        if not scan.done():
            scan.expect("res")
            res = sess.field(scan.word())
        p = gauss_extension(F, var, res)
    elif form == "residue":
        p = ResiduePlace(sess.field(scan.word()))
    elif form == "compose":
        scan.expect("via")
        zeta = sess.place(scan.word())
        if not isinstance(zeta, ResiduePlace):
            raise CliError("type", "compose needs a residue place")
        items = _parse_assignments(sess, zeta.field, scan.rest())
        p = rational_place_compose(items, zeta, name=name)
    elif form == "constext":
        zeta = sess.rplace(scan.word())
        scan.expect("over")
        p = constant_ext_embed(zeta, sess.field(scan.word()))
    elif form == "realized":
        scan.expect("over")
        base = sess.field(scan.word())
        scan.expect("in")
        G = sess.field(scan.word())
        items = _parse_assignments(sess, G, scan.rest())
        p = realized_place(base, dict(items))
    else:
        raise CliError("syntax", f"unknown place form {form!r}")
    sess.places[name] = p
    out = p.describe()
    out["place"] = name
    return out


# -- query commands ----------------------------------------------------------------


def _cmd_cmp(sess: Session, scan: _Scan) -> dict:
    sub = scan.expect("elem", "exp", "cut", "side", "in")
    if sub == "elem":
        a, b = sess.elem(scan.word()), sess.elem(scan.word())
        return {"order": _ORDER_NAME[a.cmp(b)]}
    if sub == "exp":
        G = sess.field(scan.word()).group
        g1 = _parse_group_elem(scan, G)
        g2 = _parse_group_elem(scan, G)
        return {"order": _ORDER_NAME[g1.cmp(g2)]}
    if sub == "cut":
        C1 = sess.cut(scan.word())
        C2 = sess.cut(scan.word())
        return {"order": _ORDER_NAME[cut_cmp(C1, C2)]}
    if sub == "side":
        C = sess.cut(scan.word())
        x = _parse_element(sess, C.field, scan.rest())
        return {"side": side_of(C, x)}
    B = sess.ball(scan.word())
    x = _parse_element(sess, B.field, scan.rest())
    return {"contains": ball_contains(B, x)}


def _cmd_val(sess: Session, scan: _Scan) -> dict:
    x = sess.elem(scan.word())
    v = x.val()
    return {"valuation": "inf" if v is INF else str(v)}


def _cmd_residue(sess: Session, scan: _Scan) -> dict:
    x = sess.elem(scan.word())
    return {"residue": str(x.residue())}


def _cmd_expand(sess: Session, scan: _Scan) -> dict:
    x = sess.elem(scan.word())
    scan.expect("cutoff")
    cutoff = _parse_group_elem(scan, x.field.group)
    terms, more = x.expand(cutoff, sess.max_steps)
    partial = FieldElement(x.field, terms, HahnSum.one(x.field.group))
    return {"terms": str(partial), "truncated": more}


def _cmd_classify(sess: Session, scan: _Scan) -> dict:
    first = scan.word()
    if first == "ball":
        B = sess.ball(scan.word())
        report = is_full_ball_interval(B, _ball_samples(B))
        return {"all_consistent": report.all_consistent,
                "cases": [dict(case) for case in report.cases]}
    C = sess.cut(first)
    scan.expect("cutoff")
    precision = _parse_group_elem(scan, C.field.group)
    return _classify_info(classify(C, precision, sess.max_steps))


def _ball_samples(B: Ball) -> list:
    """Deterministic companions: equal, inner point, envelope, outsider."""
    F, G = B.field, B.field.group
    samples = [Ball(F, B.center, B.radius)]
    if not B.radius.is_empty():
        samples.append(Ball(F, B.center, G.seg_empty()))
    samples.append(Ball(F, F.zero(), G.seg_all()))
    outside = element_in_interval(G.minus_inf(), B.radius.boundary)
    if outside is not None:
        far = B.center + F.monomial(outside)
        samples.append(Ball(F, far, G.seg_empty()))
    return samples


def _cmd_equiv(sess: Session, scan: _Scan) -> dict:
    first = scan.word()
    if first == "ball":
        B1 = sess.ball(scan.word())
        B2 = sess.ball(scan.word())
        return {"equal": ball_eq(B1, B2)}
    C1 = sess.cut(first)
    C2 = sess.cut(scan.word())
    return {"equivalent": equivalent(C1, C2)}


def _maybe_bind(sess: Session, scan: _Scan, space: dict, value,
                info: dict) -> dict:
    """Store value under the name of an optional trailing `as <name>`,
    recorded as info["bound"]; returns info."""
    if not scan.done():
        scan.expect("as")
        name = sess.fresh(scan.word())
        space[name] = value
        info["bound"] = name
    return info


def _cmd_restrict(sess: Session, scan: _Scan) -> dict:
    sub = scan.expect("cut", "place")
    if sub == "cut":
        C = sess.cut(scan.word())
        scan.expect("to")
        R = sess.field(scan.word())
        out = restrict(C, R, sess.max_steps)
        return _maybe_bind(sess, scan, sess.cuts, out, _cut_info(out))
    p = sess.rplace(scan.word())
    mode = scan.expect("to", "cut")
    if mode == "to":
        variables = tuple(v.strip() for v in scan.word().split(","))
        out = place_restrict(p, variables)
        return _maybe_bind(sess, scan, sess.places, out, out.describe())
    out = induced_cut(p, scan.word(), sess.max_steps)
    return _maybe_bind(sess, scan, sess.cuts, out, _cut_info(out))


def _cmd_fiber(sess: Session, scan: _Scan) -> dict:
    C = sess.cut(scan.word())
    scan.expect("in")
    F = sess.field(scan.word())
    return fiber(C, F, sess.max_steps).describe()


def _cmd_between(sess: Session, scan: _Scan) -> dict:
    sub = scan.expect("complement", "filler", "cuts")
    if sub == "complement":
        B = sess.ball(scan.word())
        scan.expect("in")
        ambient = sess.field(scan.word())
        out = between_ball(BallComplement(B), ambient=ambient,
                           max_steps=sess.max_steps)
        return _maybe_bind(sess, scan, sess.balls, out, _ball_info(out))
    if sub == "filler":
        a = sess.elem(scan.word())
        scan.expect("over")
        R = sess.field(scan.word())
        spec = NonBallWithFiller(R, a)
        ambient = None
        if not scan.done():
            mark = scan.pos
            if scan.word() == "in":
                ambient = sess.field(scan.word())
            else:
                scan.pos = mark
        out = between_ball(spec, ambient=ambient, max_steps=sess.max_steps)
        # the radius is the largest segment above v(E-D), so it restricts
        # back to the boundary of v(E-D)
        seg = restrict_position(out.radius.boundary,
                                R.embedding_mask_into(out.field), R.group)
        info = _ball_info(out)
        info["distances_below"] = seg.describe()
        return _maybe_bind(sess, scan, sess.balls, out, info)
    C1 = sess.cut(scan.word())
    C2 = sess.cut(scan.word())
    x = find_between(C1, C2)
    return _maybe_bind(sess, scan, sess.elems, x, _elem_info(x))


def _cmd_embed(sess: Session, scan: _Scan) -> dict:
    sub = scan.expect("exists", "cut", "place", "principal")
    if sub == "exists":
        R = sess.field(scan.word())
        scan.expect("in")
        F = sess.field(scan.word())
        ctx = EmbeddingContext(R, F)
        return {"exists": ctx.convex}
    if sub == "principal":
        R = sess.field(scan.word())
        scan.expect("in")
        F = sess.field(scan.word())
        ctx = EmbeddingContext(R, F)
        return {"preserves_principal": principal_preservation(ctx)}
    if sub == "cut":
        C = sess.cut(scan.word())
        scan.expect("from")
        R = sess.field(scan.word())
        scan.expect("into")
        F = sess.field(scan.word())
        out = iota_tilde(C, EmbeddingContext(R, F), sess.max_steps)
        return _maybe_bind(sess, scan, sess.cuts, out, _cut_info(out))
    p = sess.rplace(scan.word())
    scan.expect("from")
    R = sess.field(scan.word())
    scan.expect("into")
    F = sess.field(scan.word())
    out = iota_place(p, EmbeddingContext(R, F), sess.max_steps)
    return _maybe_bind(sess, scan, sess.places, out, out.describe())


def _cmd_witness(sess: Session, scan: _Scan) -> dict:
    sub = scan.expect("nonconvex", "three-case", "separate", "distinguish")
    if sub == "nonconvex":
        R = sess.field(scan.word())
        F = sess.field(scan.word())
        return nonconvex_witness(EmbeddingContext(R, F)).describe()
    if sub == "three-case":
        case, f, val = three_case_witness(sess.rplace(scan.word()))
        return {"case": case, "function": format_ratfun(f),
                "value": str(val)}
    if sub == "separate":
        C1 = sess.cut(scan.word())
        C2 = sess.cut(scan.word())
        var = "y"
        if not scan.done():
            scan.expect("var")
            var = scan.word()
        f, v1, v2 = find_separating_function(C1, C2, var)
        return {"function": format_ratfun(f), "value1": str(v1),
                "value2": str(v2)}
    p1 = sess.rplace(scan.word())
    p2 = sess.rplace(scan.word())
    f, h1, h2 = distinguish_stacked_independent(p1, p2)
    return {"function": format_ratfun(f), "member1": h1, "member2": h2}


def _cmd_eval(sess: Session, scan: _Scan) -> dict:
    p = sess.rplace(scan.word())
    f = parse_ratfun(scan.rest(), p.base, p.variables, names=sess.elems)
    return {"value": str(eval_place(p, f))}


def _cmd_harrison(sess: Session, scan: _Scan) -> dict:
    p = sess.rplace(scan.word())
    f = parse_ratfun(scan.rest(), p.base, p.variables, names=sess.elems)
    return {"member": harrison(p, f)}


def _cmd_probe(sess: Session, scan: _Scan) -> dict:
    name = scan.word()
    fn = _PROBES.get(name)
    if fn is None:
        known = ", ".join(sorted(_PROBES))
        raise CliError("unknown-name", f"no probe {name!r}; available: {known}")
    return fn(sess)


# -- probe experiments ---------------------------------------------------------------
#
# Self-contained randomized demonstrations, each on its own seeded stream,
# reporting counts and a few exact sample values.  They double as the
# reachability story for operations that no single command exposes.


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_element(rng: random.Random, F: FieldDescriptor) -> FieldElement:
    G = F.group
    x = F.const(_rand_fraction(rng))
    for _ in range(rng.randint(0, 2)):
        g = G.elem(*[_rand_fraction(rng) for _ in range(G.rank)])
        x = x + F.monomial(g, QuadExt(_rand_fraction(rng)))
    return x


def _rand_ratfun(rng: random.Random, F: FieldDescriptor,
                 variables: tuple) -> RatFun:
    def poly() -> RatFun:
        out = RatFun.const(F, variables, _rand_element(rng, F))
        for v in variables:
            k = rng.randint(0, 2)
            if k:
                coeff = RatFun.const(F, variables, _rand_element(rng, F))
                out = out + coeff * RatFun.var(F, variables, v) ** k
        return out
    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return num / den


def _probe_ball_triple(sess: Session) -> dict:
    """Any two complement points at the same depth below the radius sit at
    exactly that distance from each other and from every ball member."""
    rng = sess.rng("ball-triple")
    F = FieldDescriptor("PT", None, ValueGroup(LEX, 2))
    G = F.group
    triples = violations = 0
    gammas = []
    for _ in range(6):
        center = F.const(_rand_fraction(rng)) \
            + F.monomial(G.elem(_rand_fraction(rng), _rand_fraction(rng)))
        q1, q2 = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
        B = Ball(F, center, G.seg_above(G.elem(q1, q2)))
        member = center + F.monomial(G.elem(q1 + 1, 0))
        for k in range(1, 6):
            gamma = G.elem(q1 - k, q2)
            d, e = complement_pair_at(B, gamma)
            vals = {str((e - d).val()), str((e - member).val()),
                    str((member - d).val())}
            triples += 1
            if len(vals) != 1 or B.radius.contains((e - d).val()):
                violations += 1
        gammas.append(str(gamma))
    return {"balls": 6, "triples": triples, "violations": violations,
            "last_gammas": gammas}


def _probe_cut_classes(sess: Session) -> dict:
    """Over cuts whose residues are pairwise separated, equivalence pairs
    exactly the two edges of one ball and the two sides of one point."""
    rng = sess.rng("cut-classes")
    F = FieldDescriptor("PC", None, ValueGroup(LEX, 1))
    G = F.group
    cuts = []
    for i in range(6):
        # distinct residues: cuts accumulating at one point share a place
        center = F.const(Fraction(i)) + F.monomial(G.elem(Fraction(1, 2)),
                                                   QuadExt(_rand_fraction(rng)))
        B = Ball(F, center, G.seg_above(G.elem(Fraction(i + 1))))
        cuts.append(cut_edge(B, LOWER))
        cuts.append(cut_edge(B, UPPER))
    for i in range(4):
        x = F.const(Fraction(10 * (i + 1)))
        cuts.append(cut_principal(x, LOWER))
        cuts.append(cut_principal(x, UPPER))
    sizes = [sum(1 for D in cuts if equivalent(C, D)) for C in cuts]
    return {"cuts": len(cuts), "max_class_size": max(sizes),
            "oversized_classes": sum(1 for s in sizes if s > 2)}


def _probe_glue(sess: Session) -> dict:
    """The two edges of one ball induce the same place: rational functions
    cannot tell them apart."""
    rng = sess.rng("glue")
    F = FieldDescriptor("PG", None, ValueGroup(LEX, 1))
    G = F.group
    agreements = disagreements = 0
    sample = []
    for i in range(4):
        B = Ball(F, F.const(Fraction(i)), G.seg_above(G.elem(Fraction(i + 1))))
        lo = place_from_cut(cut_edge(B, LOWER), "y")
        hi = place_from_cut(cut_edge(B, UPPER), "y")
        for _ in range(12):
            f = _rand_ratfun(rng, F, ("y",))
            a, b = str(eval_place(lo, f)), str(eval_place(hi, f))
            if a == b:
                agreements += 1
            else:
                disagreements += 1
        sample.append({"ball": _ball_info(B), "last_value": a})
    return {"balls": 4, "functions": 48, "agreements": agreements,
            "disagreements": disagreements, "sample": sample[:2]}


def _probe_between_towers(sess: Session) -> dict:
    """The canonical ball between a subfield copy and its complement, in
    three extension shapes: wider group, sqrt(2) coefficients, adjoined
    infinitesimal."""
    rows = []
    R = FieldDescriptor("PBr", None, ValueGroup(LEX, 1))
    F = R.extend_group("PBf", ValueGroup(LEX, 2), (1,))
    B0 = Ball(R, R.const(Fraction(2)), R.group.seg_above(R.group.elem(Fraction(3))))
    rows.append({"tower": "group-extension",
                 "ball": _ball_info(between_ball(BallComplement(B0),
                                                 ambient=F))})
    R2 = R.extend_coeff("PBw", 2)
    s2 = R2.const(QuadExt.sqrt(2))
    rows.append({"tower": "coefficient-extension",
                 "ball": _ball_info(between_ball(NonBallWithFiller(R, s2)))})
    E, eps = adjoin_infinitesimal(R, R.group.above(R.group.elem(Fraction(2))))
    filler = lift(R.const(Fraction(3)), E) + eps
    rows.append({"tower": "adjoined-infinitesimal",
                 "ball": _ball_info(between_ball(NonBallWithFiller(R, filler)))})
    return {"towers": rows}


def _probe_fiber(sess: Session) -> dict:
    """Restriction fibers: ball cuts of the small field lift to a single
    equivalence point, principal cuts to a proper interval when the small
    value group is not cofinal."""
    R = FieldDescriptor("PFr", None, ValueGroup(LEX, 1))
    F = R.extend_group("PFf", ValueGroup(LEX, 2), (1,))
    B = Ball(R, R.zero(), R.group.seg_above(R.group.elem(Fraction(2))))
    ball_cut = cut_edge(B, LOWER)
    princ = cut_principal(R.one(), UPPER)
    fb = fiber(ball_cut, F, sess.max_steps)
    fp = fiber(princ, F, sess.max_steps)
    return {"ball_cut": fb.describe(), "principal_cut": fp.describe()}


def _probe_embedding(sess: Session) -> dict:
    """Order, section and place preservation of the cut-space embedding
    for a convex subfield."""
    rng = sess.rng("embedding")
    F = FieldDescriptor("PEf", None, ValueGroup(LEX, 2))
    R = F.subfield("PEr", (1,))
    ctx = EmbeddingContext(R, F)
    G = R.group
    cuts = [cut_minus_inf(R), cut_plus_inf(R)]
    for i in range(3):
        B = Ball(R, R.const(Fraction(i)), G.seg_above(G.elem(Fraction(i))))
        cuts.append(cut_edge(B, LOWER))
        cuts.append(cut_edge(B, UPPER))
    cuts.append(cut_principal(R.const(Fraction(-5)), LOWER))
    cuts.append(cut_principal(R.zero(), UPPER))
    images = [iota_tilde(C, ctx) for C in cuts]
    order_violations = section_failures = 0
    for i, Ci in enumerate(cuts):
        for j, Cj in enumerate(cuts):
            if cut_cmp(images[i], images[j]) != cut_cmp(Ci, Cj):
                order_violations += 1
    for C, D in zip(cuts, images):
        if cut_cmp(restrict(D, R), C) != 0:
            order_violations += 1
    proper = [(C, D) for C, D in zip(cuts, images)
              if C.describe()["kind"] == "edge"]
    eval_agreements = 0
    for C, D in proper[:2]:
        p = place_from_cut(C, "y")
        q = place_from_cut(D, "y")
        for _ in range(8):
            # same rational draws over both fields: rank-1 exponent
            # literals would not reparse in the bigger group
            coeffs = [_rand_fraction(rng) for _ in range(5)]
            f = _rational_ratfun(R, coeffs)
            fF = _rational_ratfun(F, coeffs)
            if str(eval_place(p, f)) == str(eval_place(q, fF)):
                eval_agreements += 1
            else:
                section_failures += 1
    return {"cuts": len(cuts), "order_violations": order_violations,
            "section_failures": section_failures,
            "eval_agreements": eval_agreements}


def _rational_ratfun(F: FieldDescriptor, coeffs: list) -> RatFun:
    y = RatFun.var(F, ("y",), "y")
    c = [RatFun.const(F, ("y",), F.const(q)) for q in coeffs]
    num = c[0] + c[1] * y + c[2] * y ** 2
    den = c[3] + c[4] * y + y ** 3
    return num / den


def _probe_nonconvex_witness(sess: Session) -> dict:
    F = FieldDescriptor("PNf", None, ValueGroup(LEX, 2))
    R = F.subfield("PNr", (0,))
    return nonconvex_witness(EmbeddingContext(R, F)).describe()


def _probe_stacked_tower(sess: Session) -> dict:
    """With the second variable infinitely closer to its center, the
    correction (y-b)^n stays invisible: the quotient evaluates to 1, and
    moving the y-center off b sends it to infinity."""
    rows = []
    Q0 = FieldDescriptor("PSq", None, ValueGroup(LEX, 0))
    for n in (2, 3, 5):
        a, b = Q0.const(Fraction(1)), Q0.const(Fraction(2))
        p = stacked_place(Q0, [("y", b), ("x", a)])
        q = stacked_place(Q0, [("y", Q0.const(Fraction(3))), ("x", a)])
        x = RatFun.var(Q0, ("y", "x"), "x") - RatFun.const(Q0, ("y", "x"), a)
        y = RatFun.var(Q0, ("y", "x"), "y") - RatFun.const(Q0, ("y", "x"), b)
        f = (x + y ** n) / x
        rows.append({"n": n, "value": str(eval_place(p, f)),
                     "shifted_value": str(eval_place(q, f))})
    return {"cases": rows}


def _probe_place_cases(sess: Session) -> dict:
    """Positivity witnesses for the three tower shapes, the polynomial that
    separates a stacked tower from an independent one, and circle membership
    against the interior predicate."""
    rng = sess.rng("place-cases")
    Q0 = FieldDescriptor("PPq", None, ValueGroup(LEX, 0))
    zero = Q0.zero()
    stacked = stacked_place(Q0, [("x", zero), ("y", zero)])
    indep = independent_place(Q0, [("x", zero), ("y", zero)],
                              (QuadExt(1), QuadExt.sqrt(2)))
    F1 = FieldDescriptor("PPc", None, ValueGroup(LEX, 1))
    t = F1.monomial(F1.group.elem(Fraction(1)))
    curve = rational_place_compose(
        [("x", t), ("y", t * t + t * t * t)], ResiduePlace(F1))
    rows = []
    for label, p in (("stacked", stacked), ("independent", indep),
                     ("curve", curve)):
        case, f, val = three_case_witness(p)
        rows.append({"tower": label, "case": case,
                     "function": format_ratfun(f), "value": str(val)})
    g, h1, h2 = distinguish_stacked_independent(stacked, indep)
    matches = total = 0
    circle = parse_ratfun("4 - x*x - y*y", F1, ("x", "y"))
    for _ in range(25):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if a * a + b * b == 4:
            continue  # on the circle the infinitesimal approach decides
        pl = rational_place_compose(
            [("x", F1.const(a) + t), ("y", F1.const(b) + t * t)],
            ResiduePlace(F1))
        inside = a * a + b * b < 4
        total += 1
        if harrison(pl, circle) == inside:
            matches += 1
    return {"witnesses": rows,
            "distinguisher": {"function": format_ratfun(g),
                              "stacked_member": h1, "independent_member": h2},
            "circle": {"matches": matches, "total": total}}


def _probe_compose_pullback(sess: Session) -> dict:
    """Composing with the residue place commutes with substitution: the
    Harrison set of the composed place is the pullback, and distinct
    centers are separated by a linear function."""
    rng = sess.rng("compose-pullback")
    F1 = FieldDescriptor("PKc", None, ValueGroup(LEX, 1))
    t = F1.monomial(F1.group.elem(Fraction(1)))
    x1 = F1.const(Fraction(1)) + t
    y1 = F1.const(Fraction(2)) + t * t
    zeta = ResiduePlace(F1)
    P = rational_place_compose([("x", x1), ("y", y1)], zeta)
    agreements = disagreements = 0
    for _ in range(12):
        f = _rand_ratfun(rng, F1, ("x", "y"))
        image = f.eval_at({"x": x1, "y": y1})
        direct = str(eval_place(P, f))
        if isinstance(image, FieldElement):
            pulled = str(zeta.eval(image))
        else:
            pulled = "inf"  # exact pole of the substituted function
        if direct == pulled:
            agreements += 1
        else:
            disagreements += 1
    Q = rational_place_compose([("x", x1), ("y", F1.const(Fraction(3)) + t)],
                               zeta)
    linear = parse_ratfun("y - 5/2", F1, ("x", "y"))
    return {"functions": 12, "agreements": agreements,
            "disagreements": disagreements,
            "separation": {"function": "y - 5/2",
                           "first": harrison(P, linear),
                           "second": harrison(Q, linear)}}


def _probe_axioms(sess: Session) -> dict:
    """Spot checks of the exact arithmetic: field laws on random triples,
    expansion against the geometric series, print/parse round-trips."""
    rng = sess.rng("axioms")
    F = FieldDescriptor("PAf", None, ValueGroup(LEX, 1))
    G = F.group
    failures = 0
    for _ in range(40):
        a, b, c = (_rand_element(rng, F) for _ in range(3))
        if (a + b) + c != a + (b + c) or a * b != b * a:
            failures += 1
        if a * (b + c) != a * b + a * c:
            failures += 1
        if not a.is_zero() and a * (F.one() / a) != F.one():
            failures += 1
    x = F.one() / (F.one() - F.monomial(G.elem(Fraction(1))))
    terms, more = x.expand(G.elem(Fraction(5)), sess.max_steps)
    series = F.zero()
    for k in range(6):
        series = series + F.monomial(G.elem(Fraction(k)))
    expanded = F.zero()
    for coords, coeff in terms.terms.items():
        expanded = expanded + F.monomial(G.elem(*coords), coeff)
    roundtrips = 0
    for _ in range(20):
        a = _rand_element(rng, F)
        if parse_ratfun(str(a), F, ()).eval_at({}) == a:
            roundtrips += 1
    return {"triples": 40, "law_failures": failures,
            "geometric_series_matches": expanded == series and more,
            "roundtrips": roundtrips}


_PROBES = {
    "ball-triple": _probe_ball_triple,
    "cut-classes": _probe_cut_classes,
    "glue": _probe_glue,
    "between-towers": _probe_between_towers,
    "fiber": _probe_fiber,
    "embedding": _probe_embedding,
    "nonconvex-witness": _probe_nonconvex_witness,
    "stacked-tower": _probe_stacked_tower,
    "place-cases": _probe_place_cases,
    "compose-pullback": _probe_compose_pullback,
    "axioms": _probe_axioms,
}

_COMMANDS = {
    "def-field": _cmd_def_field,
    "def-elem": _cmd_def_elem,
    "def-ball": _cmd_def_ball,
    "def-cut": _cmd_def_cut,
    "def-place": _cmd_def_place,
    "cmp": _cmd_cmp,
    "val": _cmd_val,
    "residue": _cmd_residue,
    "expand": _cmd_expand,
    "classify": _cmd_classify,
    "equiv": _cmd_equiv,
    "restrict": _cmd_restrict,
    "fiber": _cmd_fiber,
    "between": _cmd_between,
    "embed": _cmd_embed,
    "witness": _cmd_witness,
    "eval": _cmd_eval,
    "harrison": _cmd_harrison,
    "probe": _cmd_probe,
}


# -- driver ---------------------------------------------------------------------


def run(sess: Session, line: str) -> Optional[dict]:
    """Execute one command line; None for blanks and comments.  Failures
    come back as records with an "error" entry, never as exceptions."""
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    scan = _Scan(body)
    try:
        cmd = scan.word()
    except CliError as exc:
        return {"command": "", "inputs": body,
                "error": {"code": exc.code, "message": str(exc)}}
    inputs = scan.rest()
    handler = _COMMANDS.get(cmd)
    if handler is None:
        return {"command": cmd, "inputs": inputs,
                "error": {"code": "unknown-command",
                          "message": f"no command named {cmd!r}"}}
    try:
        result = handler(sess, _Scan(inputs))
    except Exception as exc:
        return {"command": cmd, "inputs": inputs,
                "error": {"code": _error_code(exc), "message": str(exc)}}
    record = {"command": cmd, "inputs": inputs, "result": result}
    if isinstance(result, dict) and "__certs__" in result:
        record["certificates"] = result.pop("__certs__")
    return record


def run_script(sess: Session, text: str) -> list:
    records = []
    for line in text.splitlines():
        record = run(sess, line)
        if record is not None:
            records.append(record)
    return records


def render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(", ", ": "))


def render_human(record: dict) -> str:
    if "error" in record:
        err = record["error"]
        return f"{record['command']}: error[{err['code']}] {err['message']}"
    result = record["result"]
    if isinstance(result, dict):
        body = json.dumps(result, sort_keys=True)
    else:
        body = str(result)
    out = f"{record['command']}: {body}"
    if "certificates" in record:
        out += "\n  certificate: " + json.dumps(record["certificates"],
                                                sort_keys=True)
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rplaces",
        description="exact computations with cuts, balls and places of "
                    "ordered Hahn-type fields")
    parser.add_argument("script", nargs="?",
                        help="script file with one command per line; "
                             "'-' or absent reads stdin")
    parser.add_argument("-c", "--command", action="append", default=None,
                        metavar="CMD", help="run one command (repeatable), "
                                            "instead of a script")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON record per command")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the probe experiments (default 0)")
    parser.add_argument("--max-steps", type=_positive_int,
                        default=DEFAULT_MAX_STEPS,
                        help="expansion budget for approximation searches "
                             "(at least 1)")
    args = parser.parse_args(argv)

    if args.command is not None:
        lines = args.command
    elif args.script in (None, "-"):
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            print(f"rplaces: cannot read {args.script}: {exc}",
                  file=sys.stderr)
            return 2

    sess = Session(seed=args.seed, max_steps=args.max_steps)
    status = 0
    for line in lines:
        record = run(sess, line)
        if record is None:
            continue
        print(render_json(record) if args.json else render_human(record))
        if "error" in record:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
