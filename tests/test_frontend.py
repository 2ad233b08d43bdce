import dataclasses
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nomhol import frontend as F, pnl as P, sexpr
from nomhol.atoms import Atom
from nomhol.cli import run_cli
from nomhol.corpus import SIG
from nomhol.hol import alphabeta_eq
from nomhol.kernel import Node, Sequent
from nomhol.pnl import alpha_eq
from nomhol.semantics import Valuation, mk_ren, ren_eq
from nomhol.sexpr import SexprError, Row, Sym, parse_all, parse_one
from nomhol.translate import translate, translate_derivation, translate_signature

import oracles
from gen import rand_perm, rand_prop, rand_term
from oracles import flat, hol_alpha_eq

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nomhol" / "corpus_files"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TOOLS = Path(__file__).resolve().parents[1] / "tools"
README = Path(__file__).resolve().parents[1] / "README.md"
ENV = translate_signature(SIG)

SPECIAL_KINDS = {"signature.sexp": "sig", "model_basic.sexp": "model",
                 "valuation_basic.sexp": "valuation", "term_basic.sexp": "term"}


def kind_of(name: str) -> str:
    if name.startswith("deriv_"):
        return "deriv-pnl"
    if name.startswith("derivhol_"):
        return "deriv-hol"
    if name.startswith("hol_"):
        return "hol"
    if name.startswith("reneq_"):
        return "renelem"
    return SPECIAL_KINDS.get(name, "pnl")


def corpus_files():
    files = sorted(CORPUS.glob("*.sexp"))
    assert len(files) >= 30
    return files


def cli(*argv):
    return run_cli(list(argv))


# --- reader ------------------------------------------------------------------

def test_reader_reports_locations():
    with pytest.raises(SexprError) as e:
        parse_one("(tup nu@0\n  (var nu@1)")
    assert e.value.line == 1 and e.value.col == 1

    with pytest.raises(SexprError) as e:
        parse_one("(tup))")
    assert e.value.line == 1 and e.value.col == 6


def test_reader_brace_tokens():
    rows, node = parse_one("(all X{iota;perm(+{nu@0}-{});3} bot)")
    assert rows[node][1] == "X{iota;perm(+{nu@0}-{});3}" and type(rows[node][1]) is str


def test_reader_comments_and_multiple_forms():
    _, forms = parse_all("; a comment\nnu@0 nu@1 ; trailing\n")
    assert forms == ["nu@0", "nu@1"] and all(type(f) is Sym for f in forms)
    assert [(f.line, f.col) for f in forms] == [(2, 1), (2, 6)]


READER_ERRORS = [
    # (text, message, line, col); a brace group may span lines
    ("(tup nu@0\n  (var nu@1)", "unclosed '('", 1, 1),
    ("(tup))", "unmatched ')'", 1, 6),
    ("X{iota", "unterminated '{' in symbol", 1, 1),
    ("nu@0}", "unbalanced '}' in symbol", 1, 5),
    ("; nothing but a comment\n", "empty input", 1, 1),
    ("nu@0\n nu@1", "expected exactly one form", 2, 2),
    ("(a X{iota;\nperm(+{}-{});0}\n  ))", "unmatched ')'", 3, 4),
    ("(a\n (b", "unclosed '('", 2, 2),                  # the innermost open list
    ("(a X{iota;0}{nu", "unterminated '{' in symbol", 1, 4),  # at the symbol's start
    ("(a X{iota;0}} b)", "unbalanced '}' in symbol", 1, 13),
    ("(all X{iota;perm(+{}-{});0\n}\n  (pred Q bot))",
     "undeclared proposition-former Q", 3, 3),
]


@pytest.mark.parametrize("text,message,line,col", READER_ERRORS)
def test_reader_error_locations(text, message, line, col):
    with pytest.raises(SexprError) as e:
        F.parse_document(text, "prop", SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


# Non-ASCII digits, '_' and blanks are not indices (str.isdigit and int()
# take them); each is an error at the form that holds it.
DIGIT_ERRORS = [
    # (kind, text, message, line, col)
    ("prop", "(pred P (var nu@\u0663))", "unrecognized term 'nu@\u0663'", 1, 14),
    ("prop", "(all X{nu;perm(+{nu@\u0663}-{});0} bot)",
     "bad atom 'nu@\u0663' in permission set", 1, 6),
    ("prop", "(all X{nu;perm(+{nu@0}-{});1_0} bot)", "bad unknown index '1_0'", 1, 6),
    ("prop", "(all X{nu;perm(+{nu@0}-{}); 7 } bot)", "bad unknown index ' 7 '", 1, 6),
    ("prop", "(all X{nu;perm(+{nu@0}-{});\u0667} bot)", "bad unknown index '\u0667'", 1, 6),
    ("hol", "(lam (plain o \u0663) bot)", "a plain variable carries an integer index", 1, 6),
    ("hol", "(lam (plain o 1_0) bot)", "a plain variable carries an integer index", 1, 6),
    ("deriv-pnl", "(rule botl (concl (seq (left bot) (right)))\n  (li \u0660))",
     "li takes a non-negative index", 2, 3),
    ("deriv-pnl", "(rule botl (concl (seq (left bot) (right)))\n  (li \u00b2))",
     "li takes a non-negative index", 2, 3),
    ("deriv-hol", "(rule ax (concl (seq (left bot) (right bot))) (li 0) (ri \u0663))",
     "ri takes a non-negative index", 1, 54),
]


@pytest.mark.parametrize("kind,text,message,line,col", DIGIT_ERRORS)
def test_index_digit_errors(kind, text, message, line, col):
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


# A section or declaration given twice, and a sort that is not a name, is an
# error at the second copy or the bad sort; none of them replaces the first.
_AX = "(rule ax (concl (seq (left bot) (right bot))) (li 0) (ri 0)"
_SIG = "(sig (name-sorts nu) (base-sorts iota)"
SECTION_ERRORS = [
    # (kind, text, message, line, col)
    ("sig", "(sig (name-sorts nu\n  (bogus stuff) 7) (base-sorts iota))",
     "bad sort name (bogus stuff)", 2, 3),
    ("sig", "(sig (name-sorts nu\n  7) (base-sorts iota))", "bad sort name 7", 2, 3),
    ("sig", "(sig (name-sorts nu) (base-sorts\n  iota<>))", "bad sort name iota<>", 2, 3),
    ("sig", f"{_SIG}\n  (term var nu iota)\n  (term var nu iota))",
     "repeated (term var ...)", 3, 3),
    ("sig", f"{_SIG}\n  (pred P iota)\n  (pred P nu))", "repeated (pred P ...)", 3, 3),
    ("deriv-pnl", "(rule ax (concl (seq (left bot) (right bot)))\n"
     "  (concl (seq (left bot) (right bot))) (li 0) (ri 0))", "repeated (concl ...)", 2, 3),
    ("deriv-pnl", "(rule botl (concl (seq (left bot) (right)))\n  (li 0)\n  (li 0))",
     "repeated (li ...)", 3, 3),
    ("deriv-pnl", f"{_AX}\n  (ri 0))", "repeated (ri ...)", 2, 3),
    ("deriv-pnl", f"{_AX}\n  (perm ((nu@0 nu@1))) (perm ()))", "repeated (perm ...)", 2, 24),
    ("deriv-pnl", f"{_AX}\n  (witness nu@0)\n  (witness nu@1))", "repeated (witness ...)", 3, 3),
    ("deriv-hol", f"{_AX}\n  (witness nu@0)\n  (witness nu@1))", "repeated (witness ...)", 3, 3),
    ("deriv-pnl", "(rule ax (concl (seq (left bot)\n  (left bot) (right bot))) (li 0) (ri 0))",
     "repeated (left ...)", 2, 3),
    ("deriv-hol", "(rule ax (concl (seq (left bot) (right bot)\n  (right))) (li 0) (ri 0))",
     "repeated (right ...)", 2, 3),
    ("model", "(model\n  (pred P (default 0)\n    (default 1)))", "repeated (default ...)", 3, 5),
    ("model", "(model\n  (pred P (support nu@0)\n    (support nu@1)))",
     "repeated (support ...)", 3, 5),
    ("model", "(model\n  (pred P (default 0))\n  (pred P (default 1)))",
     "repeated (pred P ...)", 3, 3),
    ("model", f"(model {_SIG})\n  {_SIG}))", "repeated (sig ...)", 2, 3),
]


@pytest.mark.parametrize("kind,text,message,line,col", SECTION_ERRORS)
def test_section_errors(kind, text, message, line, col):
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def test_a_model_signature_reads_later_clauses_anew():
    """A pattern read under the ambient signature and again after the
    model's own (sig ...) is parsed anew: a former that signature lacks is
    an error at the second copy."""
    pat = "(app (tup (var nu@0) (var nu@0)))"
    text = (f"(model (pred P (clause {pat} 1))\n"
            "  (sig (name-sorts nu) (base-sorts iota) (term var nu iota) (pred Q iota))\n"
            f"  (pred Q (clause {pat} 1)))")
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, "model", SIG)
    assert (e.value.message, e.value.line, e.value.col) == \
        ("unrecognized term form 'app'", 3, 19)


def test_section_errors_exit_2(tmp_path, capsys):
    f = tmp_path / "d.sexp"
    f.write_text(f"{_AX}\n  (li 0))")
    assert cli("check", "--logic", "pnl-full", str(f)) == 2
    assert capsys.readouterr().err == "error: 2:3: repeated (li ...)\n"
    f.write_text("(sig (name-sorts nu\n  7) (base-sorts iota))")
    assert cli("infer-d", "--sig", str(f), p("term_basic.sexp")) == 2
    assert capsys.readouterr().err == "error: 2:3: bad sort name 7\n"


# A message that quotes a list prints its text as written, single-spaced:
# never the row that stands for the list in the reader's table.
QUOTE_ERRORS = [
    # (argv before the file, text, stderr)
    (["translate"], "(imp bot (foo (bar  baz) qux))",
     "error: 1:10: unrecognized proposition (foo (bar baz) qux)\n"),
    (["normalize"], "(app (lam ((x y)) bot) bot)",
     "error: 1:11: expected a variable, got ((x y))\n"),
    (["infer-d", "--sig"], f"{_SIG}\n  (term var (foo  (nu)) iota))",
     "error: 2:13: expected a sort, got (foo (nu))\n"),
    (["normalize"], "(const g_P (-> (foo  bar) o))",
     "error: 1:16: expected a type, got (foo bar)\n"),
]


@pytest.mark.parametrize("argv,text,err", QUOTE_ERRORS)
def test_messages_quote_a_list_as_written(tmp_path, capsys, argv, text, err):
    f = tmp_path / "x.sexp"
    f.write_text(text)
    files = [str(f), p("term_basic.sexp")] if argv[-1] == "--sig" else [str(f)]
    assert cli(*argv, *files) == 2
    assert capsys.readouterr() == ("", err)


# A valuation entry or a renaming move given twice is an error at the second
# entry, or at the renaming's token; neither replaces the first.  The term of
# a valuation entry or a suspension element must be ground: one with an
# unknown is an error at the term.
_U = "X{iota;perm(+{}-{});0}"
ENTRY_ERRORS = [
    # (kind, text, message, line, col)
    ("valuation", f"(valuation (assign {_U} nu@0)\n  (assign {_U} nu@1))",
     f"repeated (assign {_U} ...)", 2, 3),
    ("valuation", "(valuation (assign X{iota;perm(+{nu@1,nu@0}-{});0} nu@0)\n"
     "  (assign X{iota;perm(+{nu@0,nu@1}-{});0} nu@0))",
     "repeated (assign X{iota;perm(+{nu@0,nu@1}-{});0} ...)", 2, 3),
    ("renelem", "(ren\n  [nu@0:=nu@1,nu@0:=nu@2] (tup nu@0))", "repeated nu@0:=...", 2, 3),
    ("renelem", "(ren [nu@1:=nu@0,nu@1:=nu@0] (tup nu@1))", "repeated nu@1:=...", 1, 6),
    ("renelem", f"(ren [nu@0:=nu@1] (tup nu@0 {_U}))",
     "the term of (ren ...) must be ground", 1, 19),
    ("valuation", f"(valuation (assign X{{iota;perm(+{{nu@0}}-{{}});0}}\n  (tup nu@0 {_U})))",
     "the term of (assign ...) must be ground", 2, 3),
]


@pytest.mark.parametrize("kind,text,message,line,col", ENTRY_ERRORS)
def test_repeated_entry_errors(kind, text, message, line, col):
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def test_entry_and_context_errors_exit_2(tmp_path, capsys):
    """A repeated valuation entry is a located error; a bad --context is an
    error that names the option, since its text has no place in a file."""
    f = tmp_path / "v.sexp"
    f.write_text(ENTRY_ERRORS[0][1])
    assert cli("eval", "--model", p("model_basic.sexp"), "--valuation", str(f),
               p("eta.sexp")) == 2
    assert capsys.readouterr().err == f"error: 2:3: repeated (assign {_U} ...)\n"
    f.write_text(ENTRY_ERRORS[-1][1])
    assert cli("eval", "--model", p("model_basic.sexp"), "--valuation", str(f),
               p("eta.sexp")) == 2
    assert capsys.readouterr().err == \
        "error: 2:3: the term of (assign ...) must be ground\n"
    assert cli("translate", "--context", "nu@0", p("term_basic.sexp")) == 2
    assert capsys.readouterr().err == \
        "error: --context: expected a bracketed atom list, got 'nu@0'\n"
    assert cli("translate", "--context", "[nu@0,x]", p("term_basic.sexp")) == 2
    assert capsys.readouterr().err == "error: --context: bad atom 'x'\n"


def test_repeated_context_atom_exits_2(tmp_path, capsys):
    """A capture context lists distinct atoms: every command that takes
    --context rejects a repeated one, naming the option."""
    f = tmp_path / "p.sexp"
    f.write_text("(pred P (var nu@0))")
    for argv in (["translate", str(f)], ["translate", "--derivation", p("deriv_modus-ponens.sexp")],
                 ["square", "--model", p("model_basic.sexp"), str(f)]):
        assert cli(argv[0], "--context", "[nu@0,nu@0]", *argv[1:]) == 2, argv
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: --context: repeated atom nu@0\n"), argv


# An atom whose sort is not a declared name sort (an unknown sort, or a base
# sort) is an error at the node or token that holds it, wherever it occurs.
SORT_ERRORS = [
    # (kind, text, message, line, col)
    ("pnl", "(tup zz@0 X{iota;perm(+{zz@1}-{});0})",
     "atom zz@0 has undeclared name sort 'zz'", 1, 6),
    ("pnl", "(tup iota@0)", "atom iota@0 has undeclared name sort 'iota'", 1, 6),
    ("pnl", "(tup nu@0\n  X{iota;perm(+{zz@1}-{});0})",
     "atom zz@1 has undeclared name sort 'zz'", 2, 3),
    ("pnl", "(lam (abs zz@0 (var nu@0)))", "atom zz@0 has undeclared name sort 'zz'", 1, 11),
    ("pnl", "(sus ((nu@0 zz@1)) X{iota;perm(+{}-{});0})",
     "atom zz@1 has undeclared name sort 'zz'", 1, 13),
    ("pnl", "(all X{iota;perm(+{}-{zz@-1});0} bot)",
     "atom zz@-1 has undeclared name sort 'zz'", 1, 6),
    ("renelem", "(ren [nu@0:=zz@1] (var nu@0))",
     "atom zz@1 has undeclared name sort 'zz'", 1, 6),
    ("hol", "(app g_var zz@0)", "atom zz@0 has undeclared name sort 'zz'", 1, 12),
]


@pytest.mark.parametrize("kind,text,message,line,col", SORT_ERRORS)
def test_atoms_of_undeclared_sorts_are_located_errors(kind, text, message, line, col):
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def _located_reads(monkeypatch) -> list:
    """The texts that `sexpr.parse_all` reads from now on, in order."""
    reads, read = [], sexpr.parse_all
    monkeypatch.setattr(sexpr, "parse_all", lambda text: reads.append(text) or read(text))
    return reads


@pytest.mark.parametrize("kind,text,message,line,col", ENTRY_ERRORS + SORT_ERRORS)
def test_a_frontend_error_reads_the_text_again_once(monkeypatch, kind, text, message,
                                                    line, col):
    """The text is read without locations, the frontend finds the error, and
    one reading with locations places it."""
    reads = _located_reads(monkeypatch)
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
    assert reads == [text]


def test_atoms_of_undeclared_sorts_exit_2(tmp_path, capsys):
    f = tmp_path / "t.sexp"
    for text in ("(tup zz@0 X{iota;perm(+{zz@1}-{});0})", "(tup iota@0)"):
        f.write_text(text)
        for cmd in (["infer-d"], ["translate"], ["translate", "--context", "[zz@0]"]):
            assert cli(*cmd, str(f)) == 2
            assert capsys.readouterr().err.startswith("error: 1:6: atom ")
    for bad in ("zz@0", "iota@0"):
        assert cli("translate", "--context", f"[nu@0,{bad}]", p("term_basic.sexp")) == 2
        assert capsys.readouterr().err == \
            f"error: --context: atom {bad} has undeclared name sort '{bad[:-2]}'\n"
        assert cli("square", "--model", p("model_basic.sexp"), "--context", f"[{bad}]",
                   p("term_basic.sexp")) == 2
        assert capsys.readouterr().err.startswith("error: --context: atom ")


# --- the pattern reader and the character loop -------------------------------

# Blanks are space, tab, CR and LF only: form feed, vertical tab and NBSP are
# symbol characters.  Brace groups nest one to four deep; the pattern covers
# two, and the per-symbol scan reads the rest.
_ODD_SYMS = ["a", "nu@0", "nu@0\fnu@1", "a\vb", "a\xa0b", "X{a}", "X{a{b}}",
             "X{a{b{c}}}", "X{a{b{c{d}}}}", "{p\nq}", "X{(x);\r\ny}", "{}"]
_ODD_GAPS = st.sampled_from([" ", "\n", "\r\n", "\t", " ; c (\n", "\n;)\n "])
_EOF = st.sampled_from(["", "\n", "; end", " ; (open"])


def _odd_form(children):
    return st.builds(lambda parts, end: "(" + "".join(g + x for x, g in parts) + end + ")",
                     st.lists(st.tuples(children, _ODD_GAPS), max_size=4), _ODD_GAPS)


_WELL_FORMED = st.builds(
    lambda forms, gap, eof: gap.join(forms) + eof,
    st.lists(st.recursive(st.sampled_from(_ODD_SYMS), _odd_form, max_leaves=16),
             min_size=1, max_size=3), _ODD_GAPS, _EOF)
_MALFORMED = st.builds(
    lambda parts, eof: "".join(parts) + eof,
    st.lists(st.sampled_from(["(", ")", "{", "}", " ", "\n", "\r\n", "\f", "\xa0",
                              "; c (\n", *_ODD_SYMS]), max_size=24), _EOF)


def _reading(parse, text):
    """(kind, text or row, line, col) of every node in preorder, and the
    size of the table, or the error's (message, line, col)."""
    try:
        rows, forms = parse(text)
    except SexprError as e:
        return e.message, e.line, e.col
    stack, out = list(reversed(forms)), []
    while stack:
        n = stack.pop()
        if type(n) is Row:
            out.append(("list", int(n), n.line, n.col))
            stack.extend(reversed(rows[n]))
        else:
            out.append(("sym", str(n), n.line, n.col))
    return out, len(rows)


@settings(max_examples=400, deadline=None)
@given(_WELL_FORMED | _MALFORMED)
@example("(a X{b{c{d}}})")
@example("nu@0\x0cnu@1 ; end")
@example("a{b}c{d{e}}f")                # runs of symbol characters and groups,
@example("({x}y z{}{}w)")                # either first
def test_pattern_reader_agrees_with_character_loop(text):
    assert _reading(parse_all, text) == _reading(oracles._parse_chars, text)


def test_documents_take_the_pattern_path(monkeypatch):
    """Every corpus file, and every document that one pass of each benchmark
    workload reads, is read by the pattern without the per-symbol scan."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    texts = [f.read_text() for f in corpus_files()]
    for name in ("proof", "square", "syntax"):
        w = workloads.build(name, 5)
        texts += [w.files[a] for a in {a for c in w.passes[0] for a in c.argv}
                  if a in w.files]
    slow = []
    scan = sexpr._symbol_end
    monkeypatch.setattr(sexpr, "_symbol_end",
                        lambda text, i: slow.append(text[i:]) or scan(text, i))
    for text in texts:
        parse_all(text)
    assert slow == [] and len(texts) > 100
    parse_all("(a X{b{c{d}}})")   # three deep: the scan reads the symbol
    assert slow == ["X{b{c{d}}})"]


# --- unknown tokens: str.split and the character walk ------------------------

# Unknown tokens, mostly well-formed, and some with one fault: unbalanced
# or undeclared sorts, a bad atom or one on the wrong side of a permission
# set, a missing or a fourth field, a stray character.  Among the
# well-formed: nested sorts, empty comma parts, fields that end in a newline
# (which '$' accepts).
_SORTS = st.sampled_from(["iota", "nu", "[nu]iota", "[nu]<iota,nu>", "<>",
                          "<iota,<nu,[nu]iota>>", " iota ", "iota\n"])
_BAD_SORTS = st.sampled_from(["mu", "[mu]iota", "<iota", "[nu", "[nu]", "iota>",
                              ">a_b<", "a_b", "(iota)", "(iota", "iota)", "<iota;nu>",
                              "<iota,,nu>", "", "[nu]<iota_nu>"])
_BAD_ATOMS = st.sampled_from(["nu@", "@1", "nu@\u0663", "nu@-", "nu@+1", "nu@1 ",
                              "nu@0<", "nu@0>", "nu@0[", "nu@0;nu@1", "nu@0\n\n",
                              "nu@0_", "{}", "mu@0", "_x@1", "nu@-1", "nu@1"])
_BAD_PMSS = st.sampled_from(["perm(+{})", "perm(-{}+{})", "perm(+{}-{}", "perm+{}-{}",
                             "perm(+{nu@0}-{nu@-1}) "])
_BAD_INDICES = st.sampled_from(["\u0663", "", "a", "1\n\n", "<", "1_0", "+1"])


def _atoms(indices):
    return st.lists(st.one_of(st.just(""), st.builds(
        "nu@{}{}".format, indices, st.sampled_from(["", "", "", "\n"]))), max_size=6)


@st.composite
def _unknown_tokens(draw):
    plus, minus = draw(_atoms(st.integers(0, 12))), draw(_atoms(st.integers(-5, -1)))
    fields = [draw(_SORTS), None, draw(st.sampled_from(["0", "7", "-3", "12", "1\n"]))]
    fault = draw(st.integers(0, 15))
    if fault == 0:
        fields[0] = draw(_BAD_SORTS)
    elif fault == 1:
        side = draw(st.sampled_from([plus, minus]))
        side.insert(draw(st.integers(0, len(side))), draw(_BAD_ATOMS))
    fields[1] = "perm(+{%s}-{%s})" % (",".join(plus), ",".join(minus)) + \
        draw(st.sampled_from(["", "", "", "\n"]))
    if fault == 2:
        fields[1] = draw(_BAD_PMSS)
    elif fault == 3:
        fields[2] = draw(_BAD_INDICES)
    elif fault == 4:
        del fields[draw(st.integers(0, 2))]
    elif fault == 5:
        fields.append(draw(st.sampled_from(["", "0", "iota"])))   # a fourth field
    text = "X{" + ";".join(fields) + "}"
    if fault == 6:
        text = draw(st.sampled_from(["Y", "", "X{"])) + text[2:]
    elif fault == 7:
        text = text[:-1]
    elif fault == 8:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("{}()<>[];,_\n@-")) + text[at:]
    return text


_CONTEXTS = st.one_of(
    st.just(""), st.lists(st.integers(-5, 2), unique=True, max_size=3).map(
        lambda ix: "_[" + ",".join(f"nu@{i}" for i in ix) + "]"),
    st.sampled_from(["_", "_[nu@0,nu@0]", "_[nu@9]", "_[nu@0]_[nu@1]", "_nu@0",
                     "_[<]", "_[nu@0", "[nu@0]", "_[nu@0]x", "_[{}]", "_[nu@0,,]"]))


def _outcome(read, text):
    """The value read, or the message of the error raised, at a located symbol."""
    try:
        return read(SIG, text, Sym(text, 0, text))
    except F.ParseError as e:
        return "error", e.message


def _read_hol_var(sig, text, where):
    return F.parse_hol_var(F.Reading([], sig), where)


_WELL = "X{[nu]<iota,nu>;perm(+{nu@0,,nu@1}-{nu@-2\n});-3\n}"


@settings(max_examples=600, deadline=None)
@given(_unknown_tokens())
@example(_WELL)
@example("X{iota;perm(+{nu@0}-{nu@1});0}")      # an upward atom in the minus part
@example("X{iota;perm(+{nu@-1}-{});0}")         # a negative atom in the plus part
@example("X{iota;perm(+{}-{});0;0}")            # a fourth field
@example("X{<iota;perm(+{}-{});0}")             # an unbalanced '<'
@example("X{[nu;perm(+{}-{});0}")               # an unbalanced '['
@example("X{iota;perm(+{nu@0<}-{});0}")         # a bracket inside the set
@example("X{iota;perm(+{}-{});\u0663}")         # a non-ASCII digit
@example("X{iota;perm(+{mu@0}-{});0}")          # an undeclared name sort
def test_unknown_tokens_read_as_the_character_walk_reads_them(text):
    assert _outcome(F.parse_unknown_text, text) == \
        _outcome(oracles.parse_unknown_text, text)


@settings(max_examples=600, deadline=None)
@given(_unknown_tokens(), _CONTEXTS)
@example(_WELL, "_[nu@0,nu@1]")
@example("X{iota;perm(+{nu@0,nu@1}-{});0}", "_[nu@1,nu@0]")
@example("X{iota;perm(+{nu@0}-{});0}", "_[nu@1]")     # outside the set
@example("X{>a_b<;perm(+{}-{});0}", "_[nu@0]")       # a '_' at depth 0 in the sort
@example("X{a_b;perm(+{}-{});0}", "")
def test_hol_unknown_variables_read_as_the_character_walk_reads_them(token, ctx):
    text = token + ctx
    assume(text.startswith("X{"))   # parse_hol_var reads other symbols otherwise
    assert _outcome(_read_hol_var, text) == \
        _outcome(oracles.parse_hol_unknown_var, text)


@settings(max_examples=400, deadline=None)
@given(st.text("ab;_,{}()<>[]", max_size=14), st.sampled_from(";_,"))
def test_top_level_split_agrees_with_the_character_walk(text, sep):
    assert _outcome(lambda sig, t, where: F._split_top(t, sep, where), text) == \
        _outcome(lambda sig, t, where: oracles._split_top(t, sep, where), text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["nu@0", "nu@-2", "nu@12", "nu@3\n", "", "mu@1"]),
                          st.text("nu@-01;<_\n\u0663 ", max_size=6)), max_size=5).map(",".join))
@example("nu@0;nu@1")
@example("nu@0<nu@1")
def test_atom_lists_read_as_the_part_loop_reads_them(text):
    assert _outcome(lambda sig, t, where: F._atom_list_text(sig, t, where), text) == \
        _outcome(lambda sig, t, where: oracles._atom_list_text(sig, t, where), text)


def test_well_formed_unknowns_split_without_the_character_walk(monkeypatch):
    """A well-formed unknown token, or HOL variable, is split by str.split:
    no field holds its separator inside brackets."""
    walked = []
    walk = F._walk_top
    monkeypatch.setattr(F, "_walk_top",
                        lambda text, sep, where: walked.append(text) or walk(text, sep, where))
    unk = F.parse_unknown_text(SIG, _WELL, _WELL)
    var = _read_hol_var(SIG, None, _WELL + "_[nu@1,nu@0]")
    assert (repr(unk), repr(var)) == (
        "X{[nu]<iota,nu>;perm(+{nu@0,nu@1}-{nu@-2});-3}",
        "X{[nu]<iota,nu>;perm(+{nu@0,nu@1}-{nu@-2});-3}_[nu@1,nu@0]")
    assert walked == []


def test_an_unknown_written_twice_is_read_once(monkeypatch):
    """An unknown that a document writes under `all` and again in a `sus`
    is read once, through the reading's term memo."""
    x = "X{iota;perm(+{nu@0,nu@1}-{});4}"
    read = Counter()
    real = F.parse_unknown_text
    monkeypatch.setattr(F, "parse_unknown_text",
                        lambda sig, text, where: read.update([text]) or real(sig, text, where))
    phi = F.parse_document(f"(all {x} (pred P (sus ((nu@0 nu@1)) {x})))", "prop", SIG)
    assert read == {x: 1}
    assert phi.unknown is phi.body.arg.unknown


# --- structural ids ----------------------------------------------------------

# The characters that `str.split` cuts at and the reader does not: every
# Unicode space but the four blanks.
_SPACES = ("\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200b)))
           + "\u2028\u2029\u202f\u205f\u3000")
# Gaps with CRLF line ends and comments glued to the symbol before them.
_GAPS = st.sampled_from([" ", "\n", "\t ", " ; note (x\n", "\n;;)\n  ", "\r\n", ";c\r\n",
                         ";{x}\n"])
# Symbols with one of those characters inside, inside a brace group and
# next to one, and symbols that begin with a group or hold two adjacent
# ones.  A group three deep, which parse_one leaves to parse_all, is in
# _ODD_SYMS: `test_sid_is_the_printed_form` needs parse_one's own table.
_SYMS = st.sampled_from(["a", "b", "nu@0", "nu@1", "bot", "imp", "{x}a", "X{a}{b}", "{}{y}"]) \
    | st.builds("X{{{}}}".format, st.sampled_from(["iota;0", "a b", "(x)", "{y}", "p\nq", "a;b"])) \
    | st.builds(str.format, st.sampled_from(["a{}b", "X{{a{}b}}", "{}X{{a}}", "X{{a}}{}", "{}",
                                             "X{{{{{}}}}}"]), st.sampled_from(_SPACES))


def _form(children):
    return st.builds(lambda parts, end: "(" + "".join(g + x for x, g in parts) + end + ")",
                     st.lists(st.tuples(children, _GAPS), max_size=4), _GAPS)


_TEXTS = st.builds(lambda forms, gap: gap.join(forms),
                   st.lists(st.recursive(_SYMS, _form, max_leaves=24), min_size=1,
                            max_size=3), _GAPS)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_sid_is_the_printed_form(text):
    """parse_one's table holds each list that the text writes, and no two of
    its rows print the same; a row's lists are rows that close before it."""
    text = f"(top {text}\n)"
    rows, _ = parse_one(text)
    prints = [flat(rows, i) for i in range(len(rows))]
    assert len(set(prints)) == len(prints)
    written, _ = parse_all(text)
    assert set(prints) == {flat(written, i) for i in range(len(written))}
    assert all(type(x) is str or x < i for i, row in enumerate(rows) for x in row)


# --- the reader without locations -------------------------------------------

def _tree(rows, node):
    """A node expanded through its table: a symbol as its text, a list as
    the tuple of its children."""
    if isinstance(node, str):
        return str(node)
    return tuple(_tree(rows, x) for x in rows[node])


def _unlocated(rows, node) -> bool:
    return all(type(x) in (str, int) for row in [(node,), *rows] for x in row)


def _read_or_error(parse, text):
    try:
        return parse(text)
    except SexprError as e:
        return e


# Texts that str.split alone would cut into other tokens than the reader
# reads, one for each kind of piece that _CUT_OUT cuts out.
_CUT_EXAMPLES = (
    "(a\xa0b X{a\u3000b} \x0cX{a} X{a}\x85 \u2028)",   # spaces in and next to symbols and groups
    "(a\x1cb)\r\n; end\r\n",                          # CRLF, a separator character
    "(a;c\nb;c (d);c\n)",                             # comments glued to symbols
    "({x}a {x}{y} {}\x0b{})",                          # symbols that begin with a group
    "(X{a}{b} X{a}b{c})",                             # adjacent groups
    "(a X{b{c{d}}}\xa0e)",                            # a group three deep
)


def _cut_examples(test):
    for text in reversed(_CUT_EXAMPLES):
        test = example(text)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_WELL_FORMED | _MALFORMED | _TEXTS)
@example("(a X{b{c{d}}})")
@example("; nu@0")
@example("(a) ; b")
@example("(a) ;)\n")
@_cut_examples
def test_parse_one_agrees_with_parse_all(text):
    """parse_one reads one form as parse_all does: the same tree, expanded
    through each table, with no locations.  It reads the text again with
    parse_all exactly where parse_all raises, reads a deep-brace symbol or
    finds other than one form, and then gives parse_all's form or error."""
    scans, reads = [], []
    with pytest.MonkeyPatch.context() as m:
        scan, read = sexpr._symbol_end, sexpr.parse_all
        m.setattr(sexpr, "_symbol_end", lambda t, i: scans.append(i) or scan(t, i))
        forms = _read_or_error(parse_all, text)
        again = isinstance(forms, SexprError) or bool(scans) or len(forms[1]) != 1
        m.setattr(sexpr, "parse_all", lambda t: reads.append(t) or read(t))
        fast = _read_or_error(parse_one, text)
    assert reads == ([text] if again else [])
    if not again:
        (rows, root), (written, (form,)) = fast, forms
        assert _tree(rows, root) == _tree(written, form) and _unlocated(rows, root)
    elif isinstance(forms, SexprError):
        assert (fast.message, fast.line, fast.col) == (forms.message, forms.line, forms.col)
    elif len(forms[1]) > 1:
        assert (fast.message, fast.line, fast.col) == \
            ("expected exactly one form", forms[1][1].line, forms[1][1].col)
    else:
        assert _reading(lambda t: (fast[0], [fast[1]]), text) == _reading(lambda t: forms, text)


def _reading_or_error(parse, text):
    try:
        return parse(text)
    except SexprError as e:
        return e.message, e.line, e.col


@settings(max_examples=400, deadline=None)
@given(_WELL_FORMED | _MALFORMED | _TEXTS)
@_cut_examples
def test_parse_one_reads_as_the_token_pattern_reads(text):
    """parse_one, which cuts the text with str.split between brace groups
    and comments, gives the oracle's table and root, one _FAST match per
    token, or the same located error."""
    assert _reading_or_error(parse_one, text) == _reading_or_error(oracles.parse_one, text)


def test_documents_are_cut_without_the_token_pattern(monkeypatch):
    """parse_one reads every document of the three benchmark workloads at
    seed 7, and every corpus file, without a match of _FAST: neither its
    token-at-a-time `findall` nor `parse_all`."""
    class Unmatched:
        def findall(self, *args):
            raise AssertionError("_FAST.findall")

        finditer = findall

    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    texts = [f.read_text() for f in corpus_files()]
    for name in ("proof", "square", "syntax"):
        texts += workloads.build(name, 7).files.values()
    monkeypatch.setattr(sexpr, "_FAST", Unmatched())
    for text in texts:
        parse_one(text)
    assert len(texts) > 900


def test_the_cut_out_class_is_the_spaces_that_are_not_blanks():
    """The characters that _CUT_OUT cuts out alone, but for the braces and
    ';', are those str.split cuts at and the reader keeps in symbols."""
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()} - set(" \t\r\n")
    cut = {c for c in map(chr, range(0x110000)) if sexpr._CUT_OUT.fullmatch(c)}
    assert cut - set("{};") == spaces == set(_SPACES)
    assert len(spaces) == 25


def test_benchmark_sized_documents_round_trip(monkeypatch):
    """The largest rungs of the benchmark workloads, the top binder tower,
    the top redex tower and a 24-hypothesis derivation, read, print and
    read back equal."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    rng = random.Random(7)
    binders = max(workloads.BINDER_RUNGS)
    redexes = max(workloads.REDEX_RUNGS) + 4 * max(workloads.SHIFTS)
    docs = [("term", workloads.binder_tower(rng, binders)[0]),
            ("hol", workloads.redex_tower(rng, redexes)[0]),
            ("deriv-pnl", workloads.proof_doc(rng, 24, "intact")[0])]
    assert (binders, redexes) == (130, 218)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)   # == on the tower terms takes frames per level
    try:
        for kind, text in docs:
            value = F.parse_document(text, kind, SIG)
            back = F.KINDS[kind][1](value)
            assert F.parse_document(back, kind, SIG) == value, kind
    finally:
        sys.setrecursionlimit(old)


def _pass_documents(monkeypatch, tmp_path) -> tuple:
    """Runs one pass of each benchmark workload: the (text, kind, signature)
    of every document it parses, and the calls' exit statuses."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.syspath_prepend(str(TOOLS))
    import cli_parity
    import workloads
    docs, codes, parse = [], [], F.parse_document

    def recorded(text, kind, sig=None):
        docs.append((text, kind, sig))
        return parse(text, kind, sig)

    with monkeypatch.context() as m:
        m.setattr(F, "parse_document", recorded)
        for name in ("proof", "square", "syntax"):
            w = workloads.build(name, 5)
            (tmp_path / name).mkdir()
            m.chdir(tmp_path / name)
            for f, text in w.files.items():
                Path(f).write_text(text, encoding="utf-8")
            codes += [cli_parity.run(c)[1] for c in w.passes[0]]
    return docs, codes


def test_documents_are_read_without_locations(monkeypatch, tmp_path):
    """No corpus file, parsed as its kind, and no call of one pass of each
    benchmark workload reads its text with locations."""
    reads = _located_reads(monkeypatch)
    for f in corpus_files():
        F.parse_document(f.read_text(), kind_of(f.name), SIG)
    _, codes = _pass_documents(monkeypatch, tmp_path)
    assert reads == [] and len(codes) > 100 and 0 in codes


def _parsed(kind, sig, rows, node):
    """The value of the given kind parsed from a reading, or "error"."""
    hsig = translate_signature(sig).target if kind in ("hol", "deriv-hol") else None
    try:
        value = F.KINDS[kind][0](F.Reading(rows, sig, hsig), node)
    except (F._Unlocated, F.ParseError):
        return "error"
    return value.assignments if isinstance(value, Valuation) else value


def test_the_located_reading_is_the_fast_readings_oracle(monkeypatch, tmp_path):
    """Every corpus file, read as its kind, a proposition, and every document
    that one pass of each benchmark workload parses, every kind among them:
    the value parsed from parse_all's reading, one row per list written,
    equals the value parsed from parse_one's, one row per distinct list."""
    docs = [(f.read_text(), kind_of(f.name), SIG) for f in corpus_files()]
    docs += [((CORPUS / "prop_basic.sexp").read_text(), "prop", SIG)]
    docs += _pass_documents(monkeypatch, tmp_path)[0]
    values, old = 0, sys.getrecursionlimit()
    sys.setrecursionlimit(5000)   # == on the deepest syntax terms takes frames per level
    try:
        for text, kind, sig in docs:
            rows, root = parse_one(text)
            written, forms = parse_all(text)
            assert len(forms) == 1 and len(written) >= len(rows), text
            value = _parsed(kind, sig, rows, root)
            assert _parsed(kind, sig, written, forms[0]) == value, text
            values += value != "error"
    finally:
        sys.setrecursionlimit(old)
    assert values > 200 and {k for _, k, _ in docs} == F.KINDS.keys()


# --- one object per distinct formula ----------------------------------------

def _sequent_formulas(tree):
    stack = [tree]
    while stack:
        n = stack.pop()
        yield from n.concl.left + n.concl.right
        stack.extend(n.children)


def _read_sharing(monkeypatch, text, kind):
    """Parse a derivation, recording every call of parse_term, parse_prop
    and parse_hol by (category, node), the node a row or a symbol's text:
    the ids of the objects returned, one per call, and how often the form
    was parsed rather than found in the category's memo."""
    returned, parsed, held = defaultdict(list), Counter(), []

    def spy(real, category):
        def counted(*args):
            r, node = args
            key = (category, node)
            if node not in getattr(r, category):
                parsed[key] += 1
            x = real(*args)
            returned[key].append(id(x))
            held.append(x)  # so no later object takes its id
            return x
        return counted

    with monkeypatch.context() as m:
        for category in ("term", "prop", "hol"):
            name = f"parse_{category}"
            m.setattr(F, name, spy(getattr(F, name), category))
        tree = F.parse_document(text, kind, SIG)
    return tree, returned, parsed


def _proof_document(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    files = workloads.build("proof", 5).files
    return max((t for n, t in files.items() if n.endswith(".sexp")), key=len)


def test_repeated_formulas_are_one_object(monkeypatch, tmp_path, capsys):
    """On every corpus derivation and one benchmark proof document, read as
    deriv-pnl and, through translate --derivation, as deriv-hol: formulas
    that render equal are one object, and each form is parsed once."""
    texts = [f.read_text() for f in sorted(CORPUS.glob("deriv_*.sexp"))]
    texts.append(_proof_document(monkeypatch))
    copies = 0
    for i, text in enumerate(texts):
        f = tmp_path / f"d{i}.sexp"
        f.write_text(text)
        docs = [(text, "deriv-pnl", F.render)]
        code = cli("translate", "--derivation", "--json", str(f))
        out = json.loads(capsys.readouterr().out)
        if code == 0:
            docs.append((out["derivation"], "deriv-hol", F.render))
        for doc, kind, render_formula in docs:
            tree, returned, parsed = _read_sharing(monkeypatch, doc, kind)
            objects = defaultdict(set)
            for phi in _sequent_formulas(tree):
                objects[render_formula(phi)].add(id(phi))
                copies += 1
            assert all(len(ids) == 1 for ids in objects.values()), (i, kind)
            assert parsed and set(parsed.values()) == {1}, (i, kind)
            assert parsed.keys() == returned.keys(), (i, kind)
            copies -= len(objects)
    assert copies > 100  # the documents do repeat their formulas


def test_each_distinct_form_is_one_object(monkeypatch):
    """A benchmark proof document, as deriv-pnl and translated as deriv-hol:
    every call of the term, proposition and formula parsers returns one
    object per (category, node), each parsed once; the document writes
    more than three lists, rows of parse_all's table, per list parsed."""
    text = _proof_document(monkeypatch)
    translated = translate_derivation(ENV, F.parse_document(text, "deriv-pnl", SIG))
    docs = [(text, "deriv-pnl"), (F.render_derivation(translated.tree), "deriv-hol")]
    for doc, kind in docs:
        tree, returned, parsed = _read_sharing(monkeypatch, doc, kind)
        assert all(len(set(ids)) == 1 for ids in returned.values()), kind
        assert set(parsed.values()) == {1} and parsed.keys() == returned.keys(), kind
        lists = [key for key in parsed if isinstance(key[1], int)]
        assert len(parse_all(doc)[0]) > 3 * len(lists), kind
        formulas = {id(phi) for phi in _sequent_formulas(tree)}
        assert len(lists) > 2 * len(formulas), kind  # subterms are shared too


def _at(text, needle, nth=0):
    """(line, col) of the nth occurrence of needle in text."""
    i = -1
    for _ in range(nth + 1):
        i = text.index(needle, i + 1)
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


@pytest.mark.parametrize("kind,good,bad,message", [
    ("deriv-pnl", "(pred P (var nu@0))", "(pred Q (var nu@0))",
     "undeclared proposition-former Q"),
    ("deriv-hol", "(app g_P (app g_var nu@0))", "(app g_P)",
     "app takes at least two arguments"),
])
def test_shared_formula_errors_keep_their_positions(kind, good, bad, message):
    """An ill-formed formula written twice fails at its first copy; one
    written after a shared well-formed formula fails at its own place."""
    twice = (f"(rule impr (concl (seq (left {good}) (right (imp {good} {good}))))\n"
             f"  (ri 0)\n  (rule ax (concl (seq (left {good} {bad})\n"
             f"    (right {bad} {good}))) (li 0) (ri 1)))")
    after = (f"(rule ax (concl (seq (left {good} {good})\n"
             f"  (right {good} {bad}))) (li 0) (ri 0))")
    for text, where in [(twice, _at(twice, bad)), (after, _at(after, bad))]:
        with pytest.raises(F.ParseError) as e:
            F.parse_document(text, kind, SIG)
        assert (e.value.message, (e.value.line, e.value.col)) == (message, where)
    assert _at(twice, bad) != _at(twice, bad, 1)


def _towers(n):
    """A PNL and a HOL formula with n nested lam/abs binders."""
    t, h = "(var nu@0)", "(app g_var nu@0)"
    for i in range(n, 0, -1):
        t = f"(lam (abs nu@{i} (app (tup (var nu@{i // 2}) {t}))))"
        h = f"(app g_lam (lam nu@{i} {h}))"
    return f"(pred P {t})", h


@pytest.mark.parametrize("copies", [1, 3])
def test_shared_formulas_add_no_stack_per_level(copies):
    """Deep formulas, alone or repeated, parse in a derivation at the default
    recursion limit: sharing adds no frame per nesting level."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for kind, phi in zip(("deriv-pnl", "deriv-hol"), _towers(130)):
            text = (f"(rule ax (concl (seq (left{f' {phi}' * copies})"
                    f" (right{f' {phi}' * copies}))) (li 0) (ri 0))")
            tree = F.parse_document(text, kind, SIG)
            assert len({id(p) for p in tree.concl.left + tree.concl.right}) == 1
    finally:
        sys.setrecursionlimit(old)


# --- round-trips -------------------------------------------------------------

def test_corpus_round_trip():
    for f in corpus_files():
        kind = kind_of(f.name)
        text = f.read_text()
        doc = F.parse_document(text, kind, SIG)
        back = F.KINDS[kind][1](doc)
        doc2 = F.parse_document(back, kind, SIG)
        if kind in ("pnl", "term", "prop"):
            assert alpha_eq(doc, doc2), f.name
        assert F.KINDS[kind][1](doc2) == back, f.name


def test_document_kind_errors():
    with pytest.raises(ValueError, match="unknown document kind") as e:
        F.parse_document("(", "nope", SIG)
    assert not isinstance(e.value, SexprError)
    text = (CORPUS / "term_basic.sexp").read_text()
    for kind in F.KINDS:
        if kind != "sig":
            with pytest.raises(ValueError, match="needs a signature"):
                F.parse_document(text, kind)


def _random_derivation(rng, pool, witness, depth):
    """A derivation-shaped tree, not a proof, whose sides draw their formulas
    from pool, so that formula objects recur; witness(rng) gives a witness."""
    def side():
        return tuple(rng.choice(pool) for _ in range(rng.randrange(4)))
    children = tuple(_random_derivation(rng, pool, witness, depth - 1)
                     for _ in range(rng.randrange(3) if depth else 0))
    return Node(rng.choice(("ax", "impl", "alll")), Sequent(side(), side()), children,
                rand_perm(rng), rng.choice((None, 0, 2)), rng.choice((None, 1)),
                rng.choice((None, witness(rng))))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_derivations_print_as_every_occurrence_printed(seed, hol):
    """render_derivation, which prints each formula object once, prints what
    printing every occurrence prints, on nominal and higher-order trees
    whose formulas recur as one object and as equal copies."""
    rng = random.Random(seed)
    conv = (lambda x: translate(ENV, (), x)) if hol else (lambda x: x)
    pool = [conv(rand_prop(rng)) for _ in range(4)]
    pool += [dataclasses.replace(phi) for phi in pool]
    d = _random_derivation(rng, pool, lambda rng: conv(rand_term(rng, 2)), 3)
    assert F.render_derivation(d) == oracles.render_derivation(d)


def test_every_document_kind_round_trips():
    from nomhol.capture import canonical_context, capture_infer
    from nomhol.corpus import restricted_derivations
    from nomhol.translate import translate_derivation
    term = F.parse_document((CORPUS / "term_basic.sexp").read_text(), "term", SIG)
    deriv = dict(restricted_derivations())["modus-ponens"]
    files = {"sig": "signature.sexp", "term": "term_basic.sexp",
             "prop": "prop_basic.sexp", "pnl": "eta.sexp",
             "deriv-pnl": "deriv_modus-ponens.sexp", "model": "model_basic.sexp",
             "valuation": "valuation_basic.sexp", "renelem": "reneq_collapse.sexp"}
    texts = {kind: (CORPUS / name).read_text() for kind, name in files.items()}
    texts["hol"] = F.render(translate(ENV, canonical_context(capture_infer(term)), term))
    texts["deriv-hol"] = F.render_derivation(translate_derivation(ENV, deriv).tree)
    assert texts.keys() == F.KINDS.keys()
    for kind, text in texts.items():
        back = F.KINDS[kind][1](F.parse_document(text, kind, SIG))
        assert F.KINDS[kind][1](F.parse_document(back, kind, SIG)) == back, kind


def _printable_rows():
    """(kind, value, text): one hand-built value for each class `render`
    prints, inside a document of the given kind, and the document's text."""
    from nomhol import hol as H, kernel as K, pnl as P
    from nomhol.atoms import Atom, Perm, Renaming, permission_set
    from nomhol.semantics import RenElem
    a0, a1, a2 = (Atom("nu", i) for i in range(3))
    iota, nu = P.BaseSort("iota"), P.NameSort("nu")
    unk = P.Unknown(iota, permission_set(plus=(a0, a1), minus=(Atom("nu", -2),)), 4)
    u = "X{iota;perm(+{nu@0,nu@1}-{nu@-2});4}"
    compound = P.Unknown(P.AbsSort("nu", P.TupleSort((iota, nu))), permission_set(plus=(a0,)), 0)
    x0, p0 = H.Var(H.AtomVar(a0)), H.Var(H.PlainVar(H.O, 0))
    g_var = H.Const("g_var", ENV.target.constants["g_var"])
    sig = P.PnlSignature(frozenset({"nu"}), frozenset({"iota"}),
                         {"lam": (P.AbsSort("nu", iota), "iota"), "unit": (P.TupleSort(()), "iota"),
                          "pair": (P.TupleSort((iota, nu)), "iota")}, {"P": iota})
    return [
        ("term", P.AtomT(a0), "nu@0"),
        ("term", P.Former("lam", P.AbsT(a1, P.Former("app", P.Tup((
            P.Former("var", P.AtomT(a1)), P.Sus.of(unk)))))),
         f"(lam (abs nu@1 (app (tup (var nu@1) {u}))))"),
        ("term", P.Sus(Perm.from_cycles([(a0, a2, a1)]), unk), f"(sus ((nu@0 nu@2 nu@1)) {u})"),
        ("term", P.Tup(()), "(tup)"),
        ("term", P.Tup((P.Sus.of(compound),)), "(tup X{[nu]<iota,nu>;perm(+{nu@0}-{});0})"),
        ("prop", P.Bot(), "bot"),
        ("prop", P.All(unk, P.Imp(P.Pred("P", P.Sus.of(unk)), P.Bot())),
         f"(all {u} (imp (pred P {u}) bot))"),
        ("renelem", RenElem(Renaming({a0: a1, a2: a1}), P.Tup((P.AtomT(a0), P.AtomT(a2)))),
         "(ren [nu@0:=nu@1,nu@2:=nu@1] (tup nu@0 nu@2))"),
        ("sig", sig, "(sig\n  (name-sorts nu)\n  (base-sorts iota)\n  (term lam (abs nu iota) iota)"
         "\n  (term pair (tup iota nu) iota)\n  (term unit (tup ) iota)\n  (pred P iota))"),
        ("hol", H.Lam(H.AtomVar(a0), H.App(g_var, x0)), "(lam nu@0 (app g_var nu@0))"),
        ("hol", g_var, "g_var"),
        ("hol", H.Var(H.UnkVar(unk, (a1, a0))), f"{u}_[nu@1,nu@0]"),
        ("hol", H.Var(H.UnkVar(unk, ())), f"{u}_[]"),
        ("hol", H.forall(H.PlainVar(H.O, 0), p0), "(all (plain o 0) (plain o 0))"),
        ("hol", H.Var(H.PlainVar(H.TupleT((H.O, H.BaseT("mu_nu"))), 1)),
         "(plain (tupt o mu_nu) 1)"),
        ("hol", H.Const("k", H.ArrowT(H.TupleT((H.O, H.BaseT("mu_nu"), H.TupleT(()))), H.O)),
         "(const k (-> (tupt o mu_nu (tupt)) o))"),
        ("hol", H.IMP, "(const imp (-> o (-> o o)))"),
        ("hol", H.BOT, "bot"),
        ("hol", H.imp(H.BOT, p0), "(imp bot (plain o 0))"),
        ("hol", H.App(H.IMP, H.BOT), "(app (const imp (-> o (-> o o))) bot)"),
        ("hol", H.HTup((x0, H.HTup(()))), "(tup nu@0 (tup))"),
        ("deriv-pnl", K.Node("ax", K.Sequent((P.Bot(),), (P.Bot(),)), (), Perm.swap(a0, a1),
                             0, 0, P.AtomT(a2)),
         "(rule ax\n  (concl (seq (left bot) (right bot)))\n  (li 0)\n  (ri 0)\n"
         "  (perm ((nu@0 nu@1)))\n  (witness nu@2))"),
        ("deriv-hol", K.Node("impr", K.Sequent((), (H.imp(H.BOT, H.BOT),)), (
            K.Node("ax", K.Sequent((H.BOT,), (H.BOT,)), li=0, ri=0),), ri=0, witness=p0),
         "(rule impr\n  (concl (seq (left) (right (imp bot bot))))\n  (ri 0)\n"
         "  (witness (plain o 0))\n  (rule ax\n    (concl (seq (left bot) (right bot)))\n"
         "    (li 0)\n    (ri 0)))"),
    ]


def test_every_printable_class_round_trips():
    """Each class prints as written and reads back equal; a mis-ordered
    case in `render` (a general application before imp or all, say)
    changes the text."""
    from nomhol import hol as H
    for kind, value, text in _printable_rows():
        assert F.KINDS[kind][1](value) == text, text
        if isinstance(value, H.Const) and value.name == "k":
            # k is no constant of the signature's translation: read it
            # under a signature that declares it as well
            hsig = H.HolSignature({**ENV.target.constants, "k": value.type})
            rows, node = parse_one(text)
            assert F.KINDS[kind][0](F.Reading(rows, SIG, hsig), node) == value, text
        else:
            assert F.parse_document(text, kind, SIG) == value, text


def test_loaded_fixtures_render_as_their_files():
    """nomhol.corpus reads these files and nothing else builds the fixtures,
    so each loaded object must render back to its file's text exactly."""
    from nomhol import corpus
    loaded = [("signature.sexp", "sig", corpus.SIG),
              ("eta.sexp", "prop", corpus.eta_axiom()),
              ("deriv_full-only.sexp", "deriv-pnl", corpus.full_only_derivation())]
    loaded += [(f"beta{i + 1}.sexp", "prop", b)
               for i, b in enumerate(corpus.beta_axioms())]
    loaded += [(f"alpha{i + 1}.sexp", "prop", a)
               for i, a in enumerate(corpus.alpha_pair())]
    loaded += [(f"deriv_{name}.sexp", "deriv-pnl", d)
               for name, d in corpus.restricted_derivations()]
    assert len(loaded) == 22
    for name, kind, value in loaded:
        text = (CORPUS / name).read_text()
        assert F.KINDS[kind][1](value) + "\n" == text, name


@pytest.mark.parametrize("name,argv", [
    ("hol_term-basic.sexp", ["translate", "term_basic.sexp"]),
    ("derivhol_modus-ponens.sexp", ["translate", "--derivation", "deriv_modus-ponens.sexp"]),
])
def test_hol_fixtures_are_the_clis_output(name, argv, capsys):
    assert cli(*argv[:-1], p(argv[-1])) == 0
    assert capsys.readouterr().out == (CORPUS / name).read_text()


def test_random_pnl_round_trip():
    rng = random.Random(601)
    for _ in range(300):
        x = rand_prop(rng) if rng.random() < 0.5 else rand_term(rng)
        text = F.render(x)
        assert F.parse_document(text, "pnl", SIG) == x


def test_hol_round_trip_on_translations():
    rng = random.Random(603)
    from nomhol.capture import canonical_context, capture_infer
    for _ in range(200):
        x = rand_prop(rng) if rng.random() < 0.5 else rand_term(rng)
        t = translate(ENV, canonical_context(capture_infer(x)), x)
        text = F.render(t)
        back = F.parse_document(text, "hol", SIG)
        assert hol_alpha_eq(back, t), text


def test_rendering_deterministic():
    for f in corpus_files():
        kind = kind_of(f.name)
        doc = F.parse_document(f.read_text(), kind, SIG)
        assert F.KINDS[kind][1](doc) == F.KINDS[kind][1](doc)


def test_translated_derivations_round_trip_and_recheck():
    from nomhol.corpus import restricted_derivations
    from nomhol.kernel import check_hol
    from nomhol.translate import translate_derivation
    for name, d in restricted_derivations()[:4]:
        out = translate_derivation(ENV, d)
        text = F.render_derivation(out.tree)
        back = F.parse_document(text, "deriv-hol", SIG)
        assert check_hol(back), name


# --- suspension-element fixtures --------------------------------------------

def _renelem(name):
    return F.parse_document((CORPUS / name).read_text(), "renelem", SIG)


def test_collapse_fixture_distinguished_from_diagonal():
    collapse = _renelem("reneq_collapse.sexp")
    diagonal = _renelem("reneq_diagonal.sexp")
    assert not ren_eq(mk_ren(collapse.rho, collapse.val),
                      mk_ren(diagonal.rho, diagonal.val))


def test_moved_atom_fixture_absorbed():
    moved = _renelem("reneq_atom_moved.sexp")
    plain = _renelem("reneq_atom_plain.sexp")
    assert ren_eq(mk_ren(moved.rho, moved.val),
                  mk_ren(plain.rho, plain.val))


# --- CLI ---------------------------------------------------------------------

def p(name):
    return str(CORPUS / name)


def test_cli_check_exit_codes():
    assert cli("check", "--logic", "pnl-full", p("deriv_full-only.sexp")) == 0
    assert cli("check", "--logic", "pnl-restricted", p("deriv_full-only.sexp")) == 1
    assert cli("check", "--logic", "pnl-restricted", p("deriv_modus-ponens.sexp")) == 0
    assert cli("check", "--logic", "pnl-full", p("deriv_modus-ponens.sexp")) == 0


def test_cli_check_hol_translated(tmp_path):
    from nomhol.corpus import restricted_derivations
    from nomhol.translate import translate_derivation
    out = translate_derivation(ENV, dict(restricted_derivations())["modus-ponens"])
    f = tmp_path / "d.sexp"
    f.write_text(F.render_derivation(out.tree))
    assert cli("check", "--logic", "hol", str(f)) == 0


def test_cli_sides_as_written(capsys, tmp_path):
    """li indexes a side as written, a repeated formula included; the
    translation keeps both copies, and the higher-order check accepts it."""
    p0, p1 = "(pred P (var nu@0))", "(pred P (var nu@1))"
    f = tmp_path / "d.sexp"
    f.write_text(f"(rule ax (concl (seq (left {p0} {p0} {p1}) (right {p1}))) (li 2) (ri 0))")
    assert cli("check", "--logic", "pnl-restricted", str(f)) == 0
    capsys.readouterr()
    assert cli("translate", "--derivation", "--json", str(f)) == 0
    text = json.loads(capsys.readouterr().out)["derivation"]
    left = F.parse_document(text, "deriv-hol", SIG).concl.left
    assert len(left) == 3 and left[0] == left[1]
    h = tmp_path / "d.hol.sexp"
    h.write_text(text)
    assert cli("check", "--logic", "hol", str(h)) == 0
    capsys.readouterr()


def test_cli_parse_error_is_exit_2(capsys):
    assert cli("check", "--logic", "hol", p("eta.sexp")) == 2
    assert cli("check", "--logic", "pnl-full", "/no/such/file") == 2
    assert cli("eval", p("prop_basic.sexp")) == 2  # missing --model
    assert cli("nonsense") == 2
    capsys.readouterr()


def test_cli_alpha():
    assert cli("alpha", p("alpha1.sexp"), p("alpha2.sexp")) == 0
    assert cli("alpha", p("alpha1.sexp"), p("eta.sexp")) == 1


def test_cli_infer_d(capsys):
    assert cli("infer-d", p("term_basic.sexp")) == 0
    assert capsys.readouterr().out.strip() == "[nu@0]"


def test_cli_translate_displayed(capsys):
    for name in ("displayed_narrow.sexp", "displayed_wide.sexp"):
        assert cli("translate", "--context", "[nu@0,nu@1]", "--json", p(name)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["captured"]
        got = F.parse_document(payload["term"], "hol", SIG)
        src = F.parse_document((CORPUS / name).read_text(), "prop", SIG)
        from nomhol.atoms import Atom
        want = translate(ENV, (Atom("nu", 0), Atom("nu", 1)), src)
        assert hol_alpha_eq(got, want)


def test_cli_translate_derivation_rejects_full(capsys):
    assert cli("translate", "--derivation", p("deriv_full-only.sexp")) == 1
    capsys.readouterr()


def test_cli_normalize(capsys, tmp_path):
    f = tmp_path / "t.sexp"
    f.write_text("(app (lam (plain o 0) (plain o 0)) bot)")
    assert cli("normalize", str(f)) == 0
    assert capsys.readouterr().out.strip() == "bot"


def test_cli_alpha_hol_types_against_the_signature(capsys, tmp_path):
    """`alpha --hol` rejects, with exit 2, a constant that `normalize`
    rejects: one the signature does not declare, or one used at another
    type than declared.  The reader finds it, at the constant."""
    for text, message in (("(const foo o)", "unknown constant foo"),
                          ("(const imp o)", "constant imp declared")):
        f = tmp_path / "t.sexp"
        f.write_text(text)
        for argv in (["alpha", "--hol", str(f), str(f)], ["normalize", str(f)]):
            assert cli(*argv) == 2, argv
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith(f"error: 1:1: {message}"), argv


def test_cli_check_hol_reads_constants_against_the_signature(capsys, tmp_path):
    """A written constant that the signature does not declare, declares at
    another type, or a quantifier constant at a type that is no quantifier's,
    is an error at the constant, exit 2, not a rejected derivation."""
    text = (CORPUS / "derivhol_modus-ponens.sexp").read_text()
    assert text.splitlines()[2].find("g_P") == 30   # line 3, column 31
    for const, message in (
            ("(const foo (-> mu_iota o))", "unknown constant foo"),
            ("(const g_P (-> mu_nu o))",
             "constant g_P declared (-> mu_iota o), used at (-> mu_nu o)"),
            ("(const forall o)", "malformed quantifier constant at type o")):
        f = tmp_path / "d.sexp"
        f.write_text(text.replace("g_P", const, 1))
        assert cli("check", "--logic", "hol", str(f)) == 2, const
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: 3:31: {message}\n"), const


def test_cli_check_hol_locates_ill_typed_formulas_and_witnesses(capsys, tmp_path):
    """An ill-typed formula or witness is an error at the list that builds
    it, exit 2, not a rejected derivation."""
    f = tmp_path / "d.sexp"
    f.write_text("(rule ax (concl (seq (left (app g_P bot)) (right (app g_P bot))))"
                 " (li 0) (ri 0))")
    assert cli("check", "--logic", "hol", str(f)) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "error: 1:28: application expects mu_iota, got o in (app g_P bot)\n")
    text = ("(rule alll (concl (seq (left (all (plain mu_iota 0) (app g_P (plain mu_iota 0))))"
            "\n  (right bot))) (li 0) (witness (app g_var bot)))")
    f.write_text(text)
    assert cli("check", "--logic", "hol", str(f)) == 2
    out = capsys.readouterr()
    line, col = _at(text, "(app g_var bot)")
    assert (out.out, out.err) == (
        "", f"error: {line}:{col}: application expects mu_nu, got o in (app g_var bot)\n")


def test_cli_nominal_commands_reject_ill_sorted_input(capsys, tmp_path):
    """Every command that reads a nominal document sorts each list as it
    reads it: a list that builds an ill-sorted term or proposition is an
    error there, exit 2, wherever the document is read (`var` takes a name,
    not a pair of names; `P` a term, not a name).  A well-sorted witness of
    the wrong sort is the kernel's to reject."""
    model, val = p("model_basic.sexp"), p("valuation_basic.sexp")
    f, g = tmp_path / "x.sexp", tmp_path / "y.sexp"
    var = "var expects nu, got <nu,nu> in (var (tup nu@0 nu@1))"
    for text, where in (("(var (tup nu@0 nu@1))", "1:1"),
                        ("(pred P (var (tup nu@0 nu@1)))", "1:9")):
        f.write_text(text)
        for argv in (["translate", str(f)], ["square", "--model", model, str(f)],
                     ["eval", "--model", model, str(f)],
                     ["infer-d", str(f)], ["alpha", str(f), str(f)]):
            assert cli(*argv) == 2, (argv, text)
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: {where}: {var}\n"), argv
    all_p = "(all X{iota;perm(+{}-{});0} (pred P X{iota;perm(+{}-{});0}))"
    botl = "(rule botl (concl (seq (left bot) (right))) (li 0))"
    for text, message in (
            ("(rule ax (concl (seq (left (pred P nu@0)) (right (pred P nu@0)))) (li 0) (ri 0))",
             "1:28: P expects iota, got nu in (pred P nu@0)"),
            (f"(rule alll (concl (seq (left {all_p})\n  (right bot))) (li 0)"
             f" (witness (var (tup nu@0 nu@0))) {botl})",
             "2:33: var expects nu, got <nu,nu> in (var (tup nu@0 nu@0))")):
        f.write_text(text)
        for argv in (["check", "--logic", "pnl-full"], ["check", "--logic", "pnl-restricted"],
                     ["translate", "--derivation"]):
            assert cli(*argv, str(f)) == 2, (argv, text)
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: {message}\n"), argv
    f.write_text(f"(rule alll (concl (seq (left {all_p}) (right bot))) (li 0)"
                 f" (witness (tup nu@0 nu@0)) {botl})")
    assert cli("check", "--logic", "pnl-full", str(f)) == 1
    assert capsys.readouterr().out == "rejected at root: witness has the wrong sort\n"
    f.write_text("(valuation\n  (assign X{iota;perm(+{}-{});0} (app (tup (var nu@0) nu@1))))")
    g.write_text("(model\n  (pred P (clause (tup (var nu@0) (var nu@1)) 1) (default 0)))")
    for argv, message in (
            (["eval", "--model", model, "--valuation", str(f)],
             "2:34: app expects <iota,iota>, got <iota,nu> in (app (tup (var nu@0) nu@1))"),
            (["square", "--model", str(g), "--valuation", val],
             "2:19: P expects iota, got <iota,iota> in (tup (var nu@0) (var nu@1))")):
        assert cli(*argv, p("prop_basic.sexp")) == 2, argv
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n"), argv


# Binder nesting that each command must answer at the default recursion
# limit, a few levels below where it gives out today (alpha and infer-d at
# 195, translate at 163 levels of the benchmark's binder_tower).
CEILINGS = {"alpha": 190, "infer-d": 190, "translate": 160}
_RUN_ALL = """import contextlib, io, json, sys
from nomhol.cli import run_cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run_cli(argv))
print(json.dumps(codes))
"""


def test_deep_binders_answer_at_the_default_recursion_limit(monkeypatch, tmp_path):
    """Each command answers on a binder tower at its ceiling, in a fresh
    interpreter calling run_cli a few frames deep, as the benchmark does (a
    test runs too deep in the stack to measure this).  A stack frame added
    per nesting level, as a memoising wrapper around a parser adds, fails."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    runs = []
    for cmd, n in CEILINGS.items():
        term, renamed, _, _ = workloads.binder_tower(random.Random(5), n)
        files = []
        for name, text in ((f"{cmd}.sexp", term), (f"{cmd}.renamed.sexp", renamed)):
            (tmp_path / name).write_text(text)
            files.append(str(tmp_path / name))
        runs.append([cmd] + (files if cmd == "alpha" else files[:1]))
    src = str(Path(F.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
                          env={**env, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout) == [0, 0, 0]


def test_cli_eval_and_depth(capsys, monkeypatch):
    assert cli("eval", "--model", p("model_basic.sexp"),
               "--valuation", p("valuation_basic.sexp"),
               p("prop_basic.sexp"), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "value": 1, "exact": True}

    # quantified input needs a depth bound: absent -> error, env var -> ok
    assert cli("eval", "--model", p("model_basic.sexp"), p("eta.sexp")) == 2
    capsys.readouterr()
    monkeypatch.setenv("NOMHOL_DEPTH", "2")
    assert cli("eval", "--model", p("model_basic.sexp"), p("eta.sexp"),
               "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["exact"] is False


def test_cli_depth_from_flag_and_environment_agree(capsys, monkeypatch):
    argv = ["eval", "--model", p("model_basic.sexp"), p("eta.sexp"), "--json"]
    assert cli(*argv, "--depth", "2") == 0
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("NOMHOL_DEPTH", "2")
    assert cli(*argv) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("raw", ["1_0", "\u0661", " 7 ", "\uff12"])
def test_cli_depth_takes_ascii_digits_only(raw, capsys, monkeypatch):
    # int() reads each of these: '_' separators, blanks, Arabic-Indic one,
    # fullwidth two
    argv = ["eval", "--model", p("model_basic.sexp"), p("eta.sexp")]
    assert cli(*argv, f"--depth={raw}") == 2
    out = capsys.readouterr()
    assert out.out == "" and f"argument --depth: invalid int value: {raw!r}" in out.err
    monkeypatch.setenv("NOMHOL_DEPTH", raw)
    assert cli(*argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", f"error: NOMHOL_DEPTH must be an integer, got {raw!r}\n")


def test_cli_type_error_prints_the_permission_set(capsys, tmp_path):
    f = tmp_path / "t.sexp"
    f.write_text("(app g_var X{iota;perm(+{nu@0}-{nu@-1});0}_[])")
    assert cli("normalize", str(f)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: 1:1: application expects mu_nu, got mu_iota in "
                       "(app g_var X{iota;perm(+{nu@0}-{nu@-1});0}_[])\n")


def test_cli_messages_quote_terms_that_read_back(capsys, tmp_path):
    """A type error is located at the list that builds the ill-typed term
    and quotes it as a document writes it, so the quoted text, read back,
    raises the same error at its start; the kernel quotes only a formula's
    type."""
    f = tmp_path / "t.sexp"
    for text, where, message in (
            ("(app g_P bot)", (1, 1), "application expects mu_iota, got o in (app g_P bot)"),
            ("(lam nu@0 (imp (app g_P nu@0) bot))", (1, 16),
             "application expects mu_iota, got mu_nu in (app g_P nu@0)")):
        f.write_text(text)
        assert cli("normalize", str(f)) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: {}:{}: {}\n".format(*where, message))
        quoted = message.split(" in ", 1)[1]
        with pytest.raises(F.ParseError) as e:
            F.parse_document(quoted, "hol", SIG)
        assert (e.value.message, e.value.line, e.value.col) == (message, 1, 1)
    f.write_text("(rule ax (concl (seq (left (app g_var nu@0)) (right (app g_var nu@0))))"
                 " (li 0) (ri 0))")
    assert cli("check", "--logic", "hol", str(f)) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "rejected at root: formula is not a proposition: it has type mu_iota\n", "")


def _children(x) -> tuple:
    """The terms and propositions that x, one of either, is built from."""
    if isinstance(x, (P.Tup, P.Imp)):
        return x.items if isinstance(x, P.Tup) else (x.left, x.right)
    if isinstance(x, (P.Former, P.Pred)):
        return (x.arg,)
    return (x.body,) if isinstance(x, (P.AbsT, P.All)) else ()


def _replaced(x, path: tuple, new):
    """x with its subterm or subproposition at the path of child indices
    replaced by new."""
    if not path:
        return new
    kids = list(_children(x))
    kids[path[0]] = _replaced(kids[path[0]], path[1:], new)
    if isinstance(x, (P.Tup, P.Imp)):
        return P.Tup(tuple(kids)) if isinstance(x, P.Tup) else P.Imp(*kids)
    field = "body" if isinstance(x, (P.AbsT, P.All)) else "arg"
    return dataclasses.replace(x, **{field: kids[0]})


def _subterms(x, path=()):
    yield path, x
    for i, kid in enumerate(_children(x)):
        yield from _subterms(kid, path + (i,))


_HERE = P.AtomT(Atom("nu", 77))   # a placeholder the generators never write


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.integers(0, 10 ** 6),
       st.booleans())
def test_reader_sorts_match_a_fresh_walk(rng, is_prop, pick, as_former):
    """A generated term or proposition, printed and read back: each row's
    memoised sort is a fresh `pnl.sort_of` walk's (True for a proposition).
    An ill-sorting mutation, a wrong-sort atom or a tuple given to a former
    or predicate, or a term where a proposition is expected, is an error at
    the mutated list, and the list quoted, read back, raises the same
    message at 1:1."""
    x = rand_prop(rng) if is_prop else rand_term(rng)
    rows, root = parse_one(F.render(x))
    r = F.Reading(rows, SIG)
    assert F.parse_pnl(r, root) == x
    for t in r.term.values():
        assert r.sort[id(t)] == (t, P.sort_of(SIG, t))
    for phi in r.prop.values():
        assert r.sort[id(phi)] == (phi, True) and P.check_prop(SIG, phi)
    formers = [(path, y) for path, y in _subterms(x) if isinstance(y, (P.Former, P.Pred))]
    props = [(path, y) for path, y in _subterms(x) if path and isinstance(y, P.PnlProp)]
    assume(formers or props)
    if formers and as_former or not props:
        path, y = formers[pick % len(formers)]
        want = (SIG.term_formers[y.name][0] if isinstance(y, P.Former)
                else SIG.prop_formers[y.name])
        wrong = P.Tup((P.AtomT(Atom("nu", 0)),) * 2) if want == P.NameSort("nu") \
            else P.AtomT(Atom("nu", 0))
        bad = dataclasses.replace(y, arg=wrong)
        with pytest.raises(P.SortError) as e:
            P.check_prop(SIG, bad) if isinstance(y, P.Pred) else P.sort_of(SIG, bad)
        message = f"{e.value} in {F.render(bad)}"
    else:
        path, y = props[pick % len(props)]
        bad = P.Former("var", P.AtomT(Atom("nu", 0)))
        message = "unrecognized proposition (var nu@0)"
    marked = F.render(_replaced(x, path, _HERE))
    at = marked.index("nu@77")
    text = marked.replace("nu@77", F.render(bad))
    with pytest.raises(F.ParseError) as e:
        F.parse_document(text, "pnl", SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, 1, at + 1), text
    kind = "prop" if isinstance(y, P.PnlProp) else "term"
    with pytest.raises(F.ParseError) as e:
        F.parse_document(F.render(bad), kind, SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, 1, 1)


# field syntax (name=...), a term's class name, or an arrow type written infix
DATACLASS_TEXT = re.compile(r"\w=|App\(|Const\(|Var\(|Former\(|AtomT\(| -> ")


def test_no_message_prints_dataclass_text(monkeypatch, tmp_path):
    """No error message of the malformed calls of tools/cli_parity.py (every
    corpus file after each corruption, under every command) quotes a value
    in a form the reader does not read."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.syspath_prepend(str(TOOLS))
    import cli_parity
    files, calls = cli_parity.rewritten_group(cli_parity.CORRUPTIONS)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    errors = [(call.argv, cli_parity.run(call)[3]) for call in calls]
    assert sum(bool(err) for _, err in errors) > len(errors) // 2
    for argv, err in errors:
        assert not DATACLASS_TEXT.search(err), (argv, err)


def readme_cli_examples():
    """(argv, exit) for each `nomhol` line of the README's usage block that
    names a bundled corpus file; the exit is its `# exit N` comment, else 0."""
    text = README.read_text(encoding="utf-8")
    usage = text.split("## Command-line usage", 1)[1]
    block = usage.split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if not (line.startswith("nomhol ") and "$CD/" in line):
            continue
        status = re.search(r"#\s*exit (\d+)\s*$", line)
        argv = shlex.split(line.replace("$CD", str(CORPUS)), comments=True)
        out.append((argv[1:], int(status.group(1)) if status else 0))
    return out


def test_readme_cli_examples_exit_as_documented(capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 9
    for argv, status in examples:
        assert cli(*argv) == status, argv
    capsys.readouterr()


def test_cli_square(capsys):
    assert cli("square", "--model", p("model_basic.sexp"),
               "--valuation", p("valuation_basic.sexp"),
               p("term_basic.sexp")) == 0
    assert cli("square", "--model", p("model_basic.sexp"),
               p("prop_basic.sexp"), "--json") == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["ok"] and payload["kind"] == "prop"


def test_cli_infers_a_missing_context_once(capsys, monkeypatch):
    from nomhol import cli as cli_module, semantics
    calls = []
    for mod in (cli_module, semantics):
        for name in ("capture_infer", "capture_check"):
            def spy(*args, real=getattr(mod, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(mod, name, spy)
    for argv in (["translate", "--json", p("term_basic.sexp")],
                 ["square", "--model", p("model_basic.sexp"), "--valuation",
                  p("valuation_basic.sexp"), p("term_basic.sexp")]):
        calls.clear()
        assert cli(*argv) == 0
        assert calls == ["capture_infer"], argv
        calls.clear()
        assert cli(*argv[:1], "--context", "[nu@0]", *argv[1:]) == 0
        assert calls == ["capture_check"], argv
    capsys.readouterr()


def test_cli_parser_is_reused_without_leaks(capsys, monkeypatch):
    """The argument parser is built once a process; no option of one call
    reaches the next."""
    import argparse
    from nomhol import cli as cli_module
    cli_module._parser()
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *a, real=argparse.ArgumentParser.__init__, **k:
                        built.append(1) or real(*a, **k))
    first = ["check", "--logic", "pnl-full", "--json", p("deriv_modus-ponens.sexp")]
    outs = []
    for argv, code in [(first, 0), (first[:3] + first[4:], 0),
                       (["check", p("deriv_modus-ponens.sexp")], 2), (first, 0)]:
        assert cli(*argv) == code, argv
        outs.append(capsys.readouterr())
    assert json.loads(outs[0].out) == {"ok": True, "path": [], "message": ""}
    assert outs[1].out == "accepted\n"
    assert outs[2].out == "" and "--logic" in outs[2].err
    assert outs[3] == outs[0]
    assert not built


def test_cli_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert cli("translate", "--json", p("eta.sexp")) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
