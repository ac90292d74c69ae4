"""End-to-end tests of the command language: grammar, every command,
error codes, golden probe output, determinism, and a reachability table
pinning one command per library operation."""
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import rplaces.ratfun
from rplaces.cli import (
    _COMMANDS, _PROBES, Session, main, render_human, render_json, run,
    run_script,
)
from rplaces.ordfield import FieldDescriptor, FieldElement, HahnSum
from rplaces.ratfun import RatFun
from rplaces.valgroup import LEX, GroupElem, ValueGroup

GOLDEN = Path(__file__).parent / "golden"

PROBE_SCRIPT = "\n".join(f"probe {name}" for name in (
    "ball-triple", "cut-classes", "glue", "between-towers", "fiber",
    "embedding", "nonconvex-witness", "stacked-tower", "place-cases",
    "compose-pullback", "axioms"))

SETUP = """
def-field F = hahn rational lex 2
def-field R = subfield F mask (1)
def-field E eps = adjoin R above (2) +
def-field Q0 = hahn rational lex 0
def-field R2 = extend-coeff R sqrt 2
def-elem a in R = 1 + t^(1/2)
def-elem b in R = 2
def-elem c in E = b + eps
def-elem s in R2 = sqrt(2)
def-ball B in R = ball(a; above (3))
def-cut C1 in R = edge(B, lower)
def-cut C2 in R = edge(B, upper)
def-cut C3 in R = b+
def-cut C4 in R = +inf
def-cut C5 in R = filler(c, lower, over R)
def-place P1 = from-cut C1 var y
def-place P2 = stacked in Q0 x = 0; y = 0
def-place P3 = independent in Q0 x = 0 : 1; y = 0 : sqrt(2)
"""


def session() -> Session:
    sess = Session()
    for record in run_script(sess, SETUP):
        assert "error" not in record, record
    return sess


def ok(sess: Session, line: str) -> dict:
    record = run(sess, line)
    assert record is not None and "error" not in record, record
    return record["result"]


def code(sess: Session, line: str) -> str:
    record = run(sess, line)
    assert record is not None and "error" in record, record
    return record["error"]["code"]


class TestScanning:
    def test_blank_and_comment_lines_yield_nothing(self):
        sess = Session()
        assert run(sess, "") is None
        assert run(sess, "   ") is None
        assert run(sess, "# a comment") is None
        assert run(sess, "  # indented comment") is None

    def test_trailing_comment_is_stripped(self):
        sess = Session()
        record = run(sess, "def-field F = hahn rational lex 1  # base")
        assert record["result"]["field"] == "F"

    def test_unknown_command(self):
        assert code(Session(), "frobnicate x") == "unknown-command"

    def test_unbalanced_parens(self):
        sess = Session()
        run(sess, "def-field F = hahn rational lex 1")
        assert code(sess, "def-elem a in F = t^((1)") == "syntax"

    def test_inputs_field_carries_argument_text(self):
        record = run(Session(), "def-field F = hahn rational lex 1")
        assert record["command"] == "def-field"
        assert record["inputs"] == "F = hahn rational lex 1"


class TestDefField:
    def test_hahn_lex(self):
        out = ok(Session(), "def-field F = hahn rational lex 2")
        assert out == {"field": "F", "coeff": "rational",
                       "group": {"kind": "lex", "rank": 2}}

    def test_hahn_sqrt_weighted(self):
        out = ok(Session(), "def-field V = hahn sqrt 2 weighted (1, sqrt(2))")
        assert out["coeff"] == "sqrt(2)"
        assert out["group"] == {"kind": "weighted", "rank": 2,
                                "weights": ["1", "sqrt(2)"]}

    def test_subfield_and_extends(self):
        sess = Session()
        ok(sess, "def-field F = hahn rational lex 2")
        assert ok(sess, "def-field R = subfield F mask (1)")["group"]["rank"] == 1
        assert ok(sess, "def-field W = extend-coeff R sqrt 2")["coeff"] == "sqrt(2)"
        out = ok(sess, "def-field G = extend-group R lex 3 mask (2)")
        assert out["group"]["rank"] == 3

    def test_subfield_rational_coefficients(self):
        sess = Session()
        ok(sess, "def-field W = hahn sqrt 3 lex 1")
        out = ok(sess, "def-field S = subfield W mask (0) rational")
        assert out["coeff"] == "rational"

    def test_adjoin_registers_the_infinitesimal(self):
        sess = Session()
        ok(sess, "def-field R = hahn rational lex 1")
        out = ok(sess, "def-field E eps = adjoin R above (2) +")
        assert out["adjoined"] == {"name": "eps", "value": "t^((2,1))"}
        assert ok(sess, "val eps") == {"valuation": "(2,1)"}

    def test_adjoin_negative_sign(self):
        sess = Session()
        ok(sess, "def-field R = hahn rational lex 1")
        ok(sess, "def-field E eps = adjoin R above (0) -")
        assert ok(sess, "residue eps") == {"residue": "0"}
        out = ok(sess, "def-elem d in E = eps")
        assert out["value"].startswith("-")

    def test_declare_completes_a_diamond(self):
        sess = Session()
        ok(sess, "def-field R = hahn rational lex 1")
        ok(sess, "def-field F = extend-group R lex 2 mask (1)")
        ok(sess, "def-field R2 = extend-coeff R sqrt 2")
        ok(sess, "def-field W = extend-coeff F sqrt 2")
        out = ok(sess, "def-field declare R2 in W mask (1)")
        assert out == {"declared": "R2 in W", "mask": [1]}
        assert code(sess, "def-field declare R2 in W mask (1)") == "domain"

    def test_duplicate_and_reserved_names(self):
        sess = Session()
        ok(sess, "def-field F = hahn rational lex 1")
        assert code(sess, "def-field F = hahn rational lex 1") \
            == "duplicate-name"
        assert code(sess, "def-elem F in F = 1") == "duplicate-name"
        assert code(sess, "def-field t = hahn rational lex 1") == "syntax"

    def test_unknown_parent(self):
        assert code(Session(), "def-field R = subfield NOPE mask (0)") \
            == "unknown-name"


class TestDefObjects:
    def test_elem_cross_field_reference_lifts(self):
        sess = session()
        out = ok(sess, "def-elem af in F = a + t^((1,0))")
        assert out["field"] == "F"
        assert out["value"] == "1+t^((0,1/2))+t^((1,0))"

    def test_elem_fraction_is_one_fraction(self):
        # a quotient prints as direct field arithmetic gives it, with no
        # multi-term unit multiplied into its numerator and denominator
        F = FieldDescriptor("F", None, ValueGroup(LEX, 1))
        t = F.monomial(F.group.elem(1))
        sess = Session()
        ok(sess, "def-field F = hahn rational lex 1")
        for name, text, direct, want in (
                ("a", "(1+t)/(1+t^(2))", (1 + t) / (1 + t * t),
                 "(1+t^(1))/(1+t^(2))"),
                ("b", "1/(1-t) + t", 1 / (1 - t) + t,
                 "(1+t^(1)-t^(2))/(1-t^(1))")):
            out = ok(sess, f"def-elem {name} in F = {text}")
            assert out["value"] == want == str(direct)

    def test_elem_unrelated_field_is_a_mismatch(self):
        sess = session()
        ok(sess, "def-field Z = hahn rational lex 1")
        assert code(sess, "def-elem za in Z = a") == "field-mismatch"

    def test_ball_segment_forms(self):
        sess = session()
        assert ok(sess, "def-ball B2 in R = ball(0; at-least (1))")["radius"] \
            == {"above": {"kind": "below", "coords": ["1"]}}
        assert ok(sess, "def-ball B3 in R = ball(0; empty)")["radius"] \
            == {"above": {"kind": "plus_inf"}}
        assert ok(sess, "def-ball B4 in R = ball(0; all)")["radius"] \
            == {"above": {"kind": "minus_inf"}}
        out = ok(sess, "def-ball B5 in F = ball(1; above coset (0,0) +H_1)")
        assert out["radius"]["above"]["kind"] == "coset_edge"

    def test_cut_forms(self):
        sess = session()
        assert ok(sess, "def-cut D1 in R = -inf")["kind"] == "minus_inf"
        assert ok(sess, "def-cut D2 in R = a-")["side"] == "lower"
        out = ok(sess, "def-cut D3 in R = edge(ball(7; above (1)), upper)")
        assert out["kind"] == "edge" and out["side"] == "upper"
        out = ok(sess, "def-cut D4 in R = filler(s, upper, over R)")
        assert out["kind"] == "filler" and out["extension"] == "R2"

    def test_filler_needs_a_named_element(self):
        sess = session()
        assert code(sess, "def-cut D in R = filler(sqrt(2), upper, over R)") \
            == "unknown-name"

    def test_edge_ball_field_must_match(self):
        sess = session()
        assert code(sess, "def-cut D in F = edge(B, lower)") \
            == "field-mismatch"

    def test_place_forms(self):
        sess = session()
        assert ok(sess, "def-place G1 = gauss R var y")["kind"] == "gauss"
        assert ok(sess, "def-place Z1 = residue R")["kind"] == "residue"
        out = ok(sess, "def-place K1 = compose via Z1 x = 1 + t^(1); y = 2")
        assert out["provenance"] == "composed"
        ok(sess, "def-elem two in Q0 = 2")
        ok(sess, "def-cut CP in Q0 = two+")
        ok(sess, "def-place ZP = from-cut CP var y")
        assert ok(sess, "def-place X1 = constext ZP over R")["kind"] \
            == "composed"
        ok(sess, "def-field Q1 = extend-group Q0 lex 1 mask ()")
        ok(sess, "def-elem tau in Q1 = t^(1)")
        out = ok(sess, "def-place RL = realized over Q0 in Q1 x = tau")
        assert out["realization"] == {"x": "t^(1)"}

    def test_gauss_residue_field_must_hold_the_coefficients(self):
        # refused at definition: with the place, every eval of a sqrt(2)
        # coefficient would fail
        sess = Session()
        for line in ("def-field F = hahn sqrt 2 lex 1",
                     "def-field K = hahn rational lex 0",
                     "def-field K2 = hahn sqrt 2 lex 0",
                     "def-elem two in K = 2", "def-cut CP in K = two+",
                     "def-place ZP = from-cut CP var y"):
            ok(sess, line)
        assert code(sess, "def-place G = gauss F var y res K") == "domain"
        assert code(sess, "def-place X = constext ZP over F") == "domain"
        assert "G" not in sess.places and "X" not in sess.places
        ok(sess, "def-place G2 = gauss F var y res K2")
        assert ok(sess, "eval G2 sqrt(2)*y + t^(1)")["value"] == "(sqrt(2))*y"

    def test_stacked_order_clause(self):
        sess = session()
        out = ok(sess, "def-place S1 = stacked in Q0 x = 0; y = 0; order y,x")
        assert out["variables"] == ["y", "x"]
        assert code(sess, "def-place S2 = stacked in Q0 x = 0; order y,x") \
            == "domain"

    def test_compose_requires_residue_place(self):
        sess = session()
        assert code(sess, "def-place K = compose via P1 x = 1") == "type"


class TestQueries:
    def test_cmp_forms(self):
        sess = session()
        assert ok(sess, "cmp elem a b") == {"order": "LT"}
        assert ok(sess, "cmp elem b b") == {"order": "EQ"}
        assert ok(sess, "cmp exp F (1,0) (0,1)") == {"order": "GT"}
        assert ok(sess, "cmp cut C1 C2") == {"order": "LT"}
        assert ok(sess, "cmp side C3 5/2") == {"side": "above"}
        assert ok(sess, "cmp side C3 3/2") == {"side": "below"}
        assert ok(sess, "cmp in B 1 + t^(1/2) + t^(4)") == {"contains": True}
        assert ok(sess, "cmp in B 5") == {"contains": False}

    def test_cmp_elem_lifts_across_fields(self):
        sess = session()
        assert ok(sess, "cmp elem b c") == {"order": "LT"}

    def test_val_residue_expand(self):
        sess = session()
        assert ok(sess, "val a") == {"valuation": "(0)"}
        assert ok(sess, "residue a") == {"residue": "1"}
        ok(sess, "def-elem g in R = 1/(1 - t^(1))")
        out = ok(sess, "expand g cutoff (3)")
        assert out == {"terms": "1+t^(1)+t^(2)+t^(3)", "truncated": True}

    def test_classify_cut(self):
        sess = session()
        out = ok(sess, "classify C1 cutoff (5)")
        assert out["kind"] == "ball" and out["side"] == "lower"
        out = ok(sess, "classify C3 cutoff (5)")
        assert out["kind"] == "principal" and out["element"] == "2"

    def test_classify_non_ball_hoists_certificates(self):
        sess = session()
        ok(sess, "def-cut D in R = filler(s, upper, over R)")
        record = run(sess, "classify D cutoff (4)")
        assert record["result"] == {"kind": "non_ball"}
        certs = record["certificates"]
        assert certs["obstruction_coeff"] == "sqrt(2)"
        assert certs["obstruction_exponent"] == "(0)"
        assert len(certs["refutations"]) >= 4

    def test_classify_ball(self):
        sess = session()
        out = ok(sess, "classify ball B")
        assert out["all_consistent"] is True
        relations = [case["relation"] for case in out["cases"]]
        assert "equal" in relations and "disjoint" in relations

    def test_equiv(self):
        sess = session()
        assert ok(sess, "equiv C1 C2") == {"equivalent": True}
        assert ok(sess, "equiv C1 C3") == {"equivalent": False}
        assert ok(sess, "equiv ball B B") == {"equal": True}

    def test_restrict_cut_binds(self):
        sess = session()
        ok(sess, "embed cut C1 from R into F as D1")
        out = ok(sess, "restrict cut D1 to R as C1r")
        assert out["bound"] == "C1r"
        assert ok(sess, "cmp cut C1 C1r") == {"order": "EQ"}

    def test_restrict_place(self):
        sess = session()
        out = ok(sess, "restrict place P2 to x as P2x")
        assert out["variables"] == ["x"]
        out = ok(sess, "restrict place P2 cut x as CX")
        assert out["kind"] == "filler"
        assert "CX" in sess.cuts

    def test_fiber(self):
        sess = session()
        out = ok(sess, "fiber C3 in F")
        assert out["singleton"] is False
        ok(sess, "def-cut DB in R = edge(ball(0; above (2)), lower)")
        assert ok(sess, "fiber DB in F")["singleton"] is True

    def test_between_forms(self):
        sess = session()
        out = ok(sess, "between cuts C3 C4 as mid")
        assert out["value"] == "3" and sess.elems["mid"].field.name == "R"
        out = ok(sess, "between complement B in F as BC")
        assert out["field"] == "F"
        assert out["radius"] == {"above": {"kind": "above",
                                           "coords": ["0", "3"]}}
        out = ok(sess, "between filler c over R")
        assert out["field"] == "E"
        assert out["distances_below"] == {"kind": "above", "coords": ["2"]}

    def test_embed_forms(self):
        sess = session()
        assert ok(sess, "embed exists R in F") == {"exists": True}
        assert ok(sess, "embed principal R in F") \
            == {"preserves_principal": False}
        out = ok(sess, "embed cut C1 from R into F as D1")
        assert out["field"] == "F" and out["side"] == "lower"
        out = ok(sess, "embed place P1 from R into F as P1F")
        assert out["base"] == "F"
        assert ok(sess, "eval P1F (y - 1)/(y + 1)") == {"value": "0"}

    def test_embed_nonconvex_reports_domain_error(self):
        sess = session()
        ok(sess, "def-field Rn = subfield F mask (0)")
        ok(sess, "def-cut CN in Rn = 0+")
        assert code(sess, "embed cut CN from Rn into F") == "domain"

    def test_witness_forms(self):
        sess = session()
        ok(sess, "def-field Fn = hahn rational lex 2")
        ok(sess, "def-field Rn = subfield Fn mask (0)")
        out = ok(sess, "witness nonconvex Rn Fn")
        assert out["gamma"] == "(0,1)" and out["separator"] == "t^((0,1))"
        out = ok(sess, "witness three-case P2")
        assert out["value"] == "1"
        out = ok(sess, "witness distinguish P2 P3")
        assert out["member1"] != out["member2"]
        out = ok(sess, "witness separate C3 C4 var y")
        assert out["value1"] != out["value2"]

    def test_eval_and_harrison(self):
        sess = session()
        assert ok(sess, "eval P1 (y - 1)/(y + 1)") == {"value": "0"}
        assert ok(sess, "eval P1 1/(y - 1)") == {"value": "inf"}
        assert ok(sess, "harrison P1 y + 1") == {"member": True}
        assert ok(sess, "harrison P1 y - 1") == {"member": False}

    def test_eval_uses_session_names(self):
        sess = session()
        assert ok(sess, "eval P1 y - b") == {"value": "-1"}


class TestRoundTrip:
    SAMPLES = [
        ("R", "0"), ("R", "2"), ("R", "-7/3"), ("R", "1+t^(1/2)"),
        ("R", "t^(-2)"), ("R", "(1+t^(1))/(1-t^(2))"),
        ("R2", "sqrt(2)"), ("R2", "2+3*sqrt(2)"), ("R2", "1/2-sqrt(2)"),
        ("F", "t^((0,1/2))"), ("F", "1+t^((1,0))+t^((1,2))"),
        ("E", "2+t^((2,1))"),
    ]

    def test_printed_elements_reparse_equal(self):
        # num/den are not reduced to lowest terms, so the printed string
        # is canonical per representation, not per value: the law is
        # parse(print(x)) == x, and stability for fraction-free prints
        sess = session()
        for i, (field, text) in enumerate(self.SAMPLES):
            first = ok(sess, f"def-elem rt{i} in {field} = {text}")
            second = ok(sess,
                        f"def-elem rt{i}b in {field} = {first['value']}")
            assert ok(sess, f"cmp elem rt{i} rt{i}b") == {"order": "EQ"}
            if "/" not in first["value"]:
                assert first["value"] == second["value"]


class TestErrorCodes:
    def test_unknown_name(self):
        assert code(session(), "val nothing") == "unknown-name"

    def test_syntax(self):
        assert code(session(), "cmp elem") == "syntax"
        assert code(session(), "def-cut D in R = wedge(B, lower)") == "syntax"

    def test_incomparable_across_fields(self):
        sess = session()
        ok(sess, "def-cut DF in F = 0+")
        assert code(sess, "cmp cut C3 DF") == "incomparable"

    def test_budget(self):
        sess = Session(max_steps=3)
        for record in run_script(sess, SETUP):
            assert "error" not in record
        ok(sess, "def-elem g in R = 1/(1 - t^(1))")
        assert code(sess, "expand g cutoff (50)") == "budget"

    def test_domain(self):
        sess = session()
        assert code(sess, "def-field X = subfield F mask (5)") == "domain"

    def test_rationally_dependent_weights_refused(self):
        sess = Session()
        for ws in ("(1, sqrt(2), 1+sqrt(2))", "(1, 2)"):
            line = f"def-field W = hahn sqrt 2 weighted {ws}"
            assert run(sess, line)["error"] == {
                "code": "domain", "message": "weights are rationally dependent"}
            assert run(sess, line) == run(Session(), line)
        assert "W" not in sess.fields

    @pytest.mark.parametrize("d", ["4", "1", "0", "-3", "1000000000039"])
    def test_radicand_refused_when_the_field_is_declared(self, d):
        sess = session()
        assert code(sess, f"def-field X = hahn sqrt {d} lex 1") == "domain"
        assert code(sess, f"def-field X = extend-coeff R sqrt {d}") == "domain"
        assert "X" not in sess.fields
        ok(sess, "def-field X = hahn sqrt 1000003 lex 1")

    def test_zero_denominator_in_an_exponent_is_a_syntax_error(self):
        sess = Session()
        for line in ("def-field F = hahn rational lex 1",
                     "def-cut C in F = 0+",
                     "def-place G = from-cut C var y"):
            ok(sess, line)
        assert code(sess, "def-elem a in F = t^(1/0)") == "syntax"
        assert code(sess, "eval G t^(1/0)") == "syntax"
        assert "a" not in sess.elems

    def test_non_decimal_digits_are_syntax_errors(self):
        sess = session()
        for text, at in (("²", 0), ("2²", 1), ("t^(²)", 3), ("sqrt(²)", 5)):
            assert run(sess, f"def-elem z in R2 = {text}")["error"] == {
                "code": "syntax",
                "message": f"unexpected character '²' at position {at}"}
        assert "z" not in sess.elems
        ok(sess, "def-elem z in R2 = \u0663 + 1")
        assert str(sess.elems["z"]) == "4"

    def test_bare_t_in_a_rank_zero_field_is_a_syntax_error(self):
        sess = session()
        for text, at in (("t", 0), ("2*t + 1", 2), ("t^(1)", 5)):
            assert run(sess, f"def-elem a0 in Q0 = {text}")["error"] == {
                "code": "syntax", "message": "exponent rank 1 does not "
                f"match the field at position {at}"}
        assert "a0" not in sess.elems

    def test_negative_power_of_zero_is_division_by_zero(self):
        sess = session()
        for text, at in (("0^-1", 1), ("(1-1)^-2", 5), ("1/0", 3)):
            assert run(sess, f"def-elem z0 in Q0 = {text}")["error"] == {
                "code": "syntax",
                "message": f"division by zero at position {at}"}
        assert code(sess, "eval P1 (y - y)^-1") == "syntax"
        assert "z0" not in sess.elems
        assert ok(sess, "def-elem z0 in Q0 = 0^0")["value"] == "1"

    def test_type(self):
        sess = session()
        ok(sess, "def-place Z1 = residue R")
        assert code(sess, "eval Z1 y + 1") == "type"

    def test_search_failed(self):
        sess = session()
        ok(sess, "def-place P2b = stacked in Q0 x = 0; y = 0")
        assert code(sess, "witness distinguish P2 P2b") == "search-failed"

    def test_equivalent_cuts_refuse_separation(self):
        # a precondition failure, not an exhausted search
        assert code(session(), "witness separate C1 C2") == "domain"

    def test_induced_cut_budget(self):
        sess = Session(max_steps=2)
        for line in ("def-field R = hahn rational lex 1",
                     "def-field E eps = adjoin R above (5) +",
                     "def-place P = realized over R in E "
                     "y = 1 + t^((1,0)) + t^((2,0)) + t^((3,0)) + eps"):
            ok(sess, line)
        assert code(sess, "restrict place P cut y") == "budget"

    def test_order_queries_reuse_the_definition_budget(self):
        # each filler analysis needs more than the default 64 steps; the
        # cuts keep the analyses def-cut made under --max-steps 200
        sess = Session(max_steps=200)
        g = " + ".join(f"t^({k})" for k in range(1, 80)) + \
            " + sqrt(2)*t^(100)"
        for line in ("def-field R = hahn rational lex 1",
                     "def-field R2 = extend-coeff R sqrt 2",
                     f"def-elem g1 in R2 = {g}",
                     f"def-elem g2 in R2 = {g} + t^(50)",
                     "def-cut C1 in R = filler(g1, upper, over R)",
                     "def-cut C2 in R = filler(g2, upper, over R)"):
            ok(sess, line)
        assert ok(sess, "cmp cut C1 C2") == {"order": "LT"}
        assert ok(sess, "equiv C1 C2") == {"equivalent": False}
        assert ok(sess, "between cuts C1 C2")["field"] == "R"
        # the cuts are not equivalent, yet no y - c or 1/(y - c) over the
        # searched anchors c separates them: the search family is too narrow
        assert code(sess, "witness separate C1 C2") == "search-failed"


class TestGolden:
    def test_probe_output_matches_golden_file(self):
        sess = Session(seed=0)
        lines = [render_json(r) for r in run_script(sess, PROBE_SCRIPT)]
        produced = "\n".join(lines) + "\n"
        expected = (GOLDEN / "probes.json").read_text(encoding="utf-8")
        assert produced == expected, (
            "probe output drifted; inspect the diff and regenerate "
            "tests/golden/probes.json only for an intended change")

    def test_probe_invariants(self):
        sess = Session(seed=0)
        by_name = {}
        for record in run_script(sess, PROBE_SCRIPT):
            assert "error" not in record, record
            by_name[record["inputs"]] = record["result"]
        assert by_name["ball-triple"]["violations"] == 0
        assert by_name["cut-classes"]["max_class_size"] == 2
        assert by_name["cut-classes"]["oversized_classes"] == 0
        assert by_name["glue"]["disagreements"] == 0
        assert by_name["fiber"]["ball_cut"]["singleton"] is True
        assert by_name["fiber"]["principal_cut"]["singleton"] is False
        assert by_name["embedding"]["order_violations"] == 0
        assert by_name["embedding"]["section_failures"] == 0
        assert by_name["nonconvex-witness"]["separator"] == "t^((0,1))"
        for case in by_name["stacked-tower"]["cases"]:
            assert case["value"] == "1"
            assert case["shifted_value"] == "inf"
        circle = by_name["place-cases"]["circle"]
        assert circle["matches"] == circle["total"]
        assert by_name["compose-pullback"]["disagreements"] == 0
        assert by_name["axioms"]["law_failures"] == 0
        assert by_name["axioms"]["geometric_series_matches"] is True

    def test_seed_changes_randomized_probes(self):
        base = [render_json(r) for r in run_script(Session(seed=0),
                                                   "probe ball-triple")]
        other = [render_json(r) for r in run_script(Session(seed=9),
                                                    "probe ball-triple")]
        assert base != other


class TestDeterminism:
    def test_identical_scripts_render_identical_bytes(self):
        script = SETUP + "\n" + PROBE_SCRIPT + "\nclassify C1 cutoff (5)\n"
        first = "\n".join(render_json(r)
                          for r in run_script(Session(seed=3), script))
        second = "\n".join(render_json(r)
                           for r in run_script(Session(seed=3), script))
        assert first == second


class TestCoverage:
    """Reachability: every library operation has at least one command."""

    OPERATIONS = {
        "valgroup.cmp": "cmp exp F (1,0) (0,1)",
        "valgroup.is_convex": "embed exists R in F",
        "valgroup.is_cofinal": "embed principal R in F",
        "valgroup.segment_above": "between complement B in F",
        "ordfield.arithmetic": "probe axioms",
        "ordfield.hahn_arithmetic": "def-elem cov1 in R = (1 + t^(1))*a/b - a",
        "ordfield.cmp": "cmp elem a b",
        "ordfield.valuation": "val a",
        "ordfield.residue": "residue a",
        "ordfield.expand": "expand a cutoff (3)",
        "ordfield.adjoin_infinitesimal":
            "def-field E2 eps2 = adjoin R above (1) +",
        "ordfield.declare_embedding": None,  # covered in TestDefField
        "balls.ball_contains": "cmp in B 1",
        "balls.ball_eq": "equiv ball B B",
        "balls.between_ball": "between filler c over R",
        "balls.distance_sets": "between complement B in F as covB",
        "balls.complement_pair_at": "probe ball-triple",
        "cuts.cut_cmp": "cmp cut C1 C2",
        "cuts.side_of": "cmp side C3 1",
        "cuts.equivalent": "equiv C1 C2",
        "cuts.classify": "classify C1 cutoff (5)",
        "cuts.restrict": "restrict cut C1 to R",
        "cuts.fiber": "fiber C3 in F",
        "cuts.find_between": "between cuts C3 C4",
        "cuts.is_full_ball_interval": "classify ball B",
        "ratfun.parse_and_arithmetic": "eval P1 (y*y - 1)/(y + 2)",
        "ratfun.eval_at": "probe compose-pullback",
        "places.place_from_cut": "def-place covP = from-cut C1 var y",
        "places.eval_place": "eval P1 y + 1",
        "places.harrison": "harrison P1 y + 1",
        "places.place_restrict": "restrict place P2 to x",
        "places.induced_cut": "restrict place P2 cut x",
        "places.stacked_place": "def-place covS = stacked in Q0 u = 0",
        "places.independent_place":
            "def-place covI = independent in Q0 u = 0 : 1",
        "places.gauss_extension": "def-place covG = gauss R var y",
        "places.constant_ext_embed": None,  # covered in TestDefObjects
        "places.rational_place_compose": None,  # covered in TestDefObjects
        "places.realized_place": None,  # covered in TestDefObjects
        "places.three_case_witness": "witness three-case P2",
        "places.find_separating_function": "witness separate C3 C4",
        "places.distinguish_stacked_independent": "witness distinguish P2 P3",
        "embed.EmbeddingContext": "embed exists R in F",
        "embed.iota_tilde": "embed cut C1 from R into F",
        "embed.iota_place": "embed place P1 from R into F",
        "embed.principal_preservation": "embed principal R in F",
        "embed.nonconvex_witness": None,  # covered in TestQueries
    }

    # keys that are labels rather than module attributes, and the function
    # each label stands for
    LABELS = {
        "valgroup.cmp": (GroupElem, "cmp"),
        "ordfield.arithmetic": (FieldElement, "__mul__"),
        # a parse multiplies the Hahn sums of one pair (num, den)
        "ordfield.hahn_arithmetic": (HahnSum, "__mul__"),
        "ordfield.cmp": (FieldElement, "cmp"),
        "ordfield.valuation": (FieldElement, "val"),
        "ordfield.residue": (FieldElement, "residue"),
        "ordfield.expand": (FieldElement, "expand"),
        "ratfun.parse_and_arithmetic": (rplaces.ratfun, "parse_ratfun"),
        "ratfun.eval_at": (RatFun, "eval_at"),
    }

    @classmethod
    def target(cls, op: str) -> tuple:
        """(owner, name) of the function an entry names; a class entry
        stands for its constructor."""
        if op in cls.LABELS:
            return cls.LABELS[op]
        module, name = op.split(".")
        owner = importlib.import_module(f"rplaces.{module}")
        obj = getattr(owner, name)
        return (obj, "__init__") if isinstance(obj, type) else (owner, name)

    def test_every_operation_reachable(self, monkeypatch):
        """Each command succeeds and runs the function its entry names.
        A module function is wrapped in every rplaces namespace that holds
        it, cli's own included, so indirect calls count too."""
        calls = dict.fromkeys(self.OPERATIONS, 0)
        for op, line in self.OPERATIONS.items():
            if line is None:
                continue
            owner, name = self.target(op)
            fn = vars(owner)[name]

            def counted(*args, _op=op, _fn=fn, **kwargs):
                calls[_op] += 1
                return _fn(*args, **kwargs)
            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, counted)
                continue
            for mod in list(sys.modules.values()):
                if mod.__name__.startswith("rplaces") and \
                        vars(mod).get(name) is fn:
                    monkeypatch.setattr(mod, name, counted)
        sess = session()
        for op, line in sorted(self.OPERATIONS.items()):
            if line is None:
                continue
            calls[op] = 0
            record = run(sess, line)
            assert record is not None and "error" not in record, (op, record)
            assert calls[op], f"{line!r} does not run {op}"

    def test_the_evaluation_entries_are_checked(self):
        for op in ("places.eval_place", "places.harrison", "ratfun.eval_at"):
            assert self.OPERATIONS[op] is not None
            assert callable(getattr(*self.target(op)))

    def test_command_table_is_the_documented_set(self):
        assert sorted(_COMMANDS) == sorted([
            "def-field", "def-elem", "def-ball", "def-cut", "def-place",
            "cmp", "val", "residue", "expand", "classify", "equiv",
            "restrict", "fiber", "between", "embed", "witness", "eval",
            "harrison", "probe"])

    def test_every_probe_runs_clean(self):
        sess = Session(seed=1)
        for name in _PROBES:
            record = run(sess, f"probe {name}")
            assert "error" not in record, record


class TestRendering:
    def test_render_json_is_sorted_and_exact(self):
        record = run(session(), "val a")
        text = render_json(record)
        assert json.loads(text) == record
        assert text.index('"command"') < text.index('"inputs"') \
            < text.index('"result"')

    def test_render_human_success_and_error(self):
        sess = session()
        assert render_human(run(sess, "val a")).startswith("val: ")
        text = render_human(run(sess, "val nope"))
        assert "error[unknown-name]" in text

    def test_no_floats_anywhere(self):
        sess = Session(seed=0)
        script = SETUP + "\n" + PROBE_SCRIPT
        for record in run_script(sess, script):
            def walk(node):
                assert not isinstance(node, float), record
                if isinstance(node, dict):
                    for v in node.values():
                        walk(v)
                elif isinstance(node, (list, tuple)):
                    for v in node:
                        walk(v)
            walk(record)


class TestMain:
    def test_command_flags(self, capsys):
        status = main(["--json",
                       "-c", "def-field F = hahn rational lex 1",
                       "-c", "def-elem a in F = 2",
                       "-c", "val a"])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["result"] == {"valuation": "(0)"}

    def test_readme_example(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        commands = re.findall(r"-c '([^']*)'", readme)
        assert len(commands) == 3
        argv = ["--json"]
        for command in commands:
            argv += ["-c", command]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["result"] == {"valuation": "(0)"}

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "demo.rpl"
        script.write_text("def-field F = hahn rational lex 1\n"
                          "# comment\n"
                          "def-elem a in F = t^(2)\n"
                          "val a\n", encoding="utf-8")
        status = main(["--json", str(script)])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["result"] == {"valuation": "(2)"}

    def test_error_sets_exit_status(self, capsys):
        status = main(["-c", "val nothing"])
        assert status == 1
        assert "error[unknown-name]" in capsys.readouterr().out

    def test_missing_script_file(self, tmp_path, capsys):
        status = main([str(tmp_path / "absent.rpl")])
        assert status == 2
        assert "cannot read" in capsys.readouterr().err

    def test_max_steps_flag(self, capsys):
        status = main(["--max-steps", "3", "--json",
                       "-c", "def-field F = hahn rational lex 1",
                       "-c", "def-elem g in F = 1/(1 - t^(1))",
                       "-c", "expand g cutoff (40)"])
        assert status == 1
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["error"]["code"] == "budget"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_steps_below_one_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--max-steps", value,
                  "-c", "def-field F = hahn rational lex 1",
                  "-c", "def-elem g in F = 1",
                  "-c", "expand g cutoff (5)"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--max-steps" in out.err
