import json
import random
from pathlib import Path

import pytest

from nomhol import frontend as F
from nomhol.cli import run_cli
from nomhol.corpus import SIG
from nomhol.hol import alphabeta_eq
from nomhol.pnl import alpha_eq
from nomhol.semantics import mk_ren, ren_eq
from nomhol.sexpr import SexprError, parse_all, parse_one, render
from nomhol.translate import translate, translate_signature

from gen import rand_prop, rand_term
from oracles import hol_alpha_eq

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nomhol" / "corpus_files"
ENV = translate_signature(SIG)

SPECIAL_KINDS = {"signature.sexp": "sig", "model_basic.sexp": "model",
                 "valuation_basic.sexp": "valuation", "term_basic.sexp": "term"}


def kind_of(name: str) -> str:
    if name.startswith("deriv_"):
        return "deriv-pnl"
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
    node = parse_one("(all X{iota;perm(+{nu@0}-{});3} bot)")
    assert node.items[1].text == "X{iota;perm(+{nu@0}-{});3}"


def test_reader_comments_and_multiple_forms():
    forms = parse_all("; a comment\nnu@0 nu@1 ; trailing\n")
    assert [f.text for f in forms] == ["nu@0", "nu@1"]


READER_ERRORS = [
    # (text, message, line, col); a brace group may span lines
    ("(tup nu@0\n  (var nu@1)", "unclosed '('", 1, 1),
    ("(tup))", "unmatched ')'", 1, 6),
    ("X{iota", "unterminated '{' in symbol", 1, 1),
    ("nu@0}", "unbalanced '}' in symbol", 1, 5),
    ("; nothing but a comment\n", "empty input", 1, 1),
    ("nu@0\n nu@1", "expected exactly one form", 2, 2),
    ("(a X{iota;\nperm(+{}-{});0}\n  ))", "unmatched ')'", 3, 4),
    ("(all X{iota;perm(+{}-{});0\n}\n  (pred Q bot))",
     "undeclared proposition-former Q", 3, 3),
]


@pytest.mark.parametrize("text,message,line,col", READER_ERRORS)
def test_reader_error_locations(text, message, line, col):
    with pytest.raises(SexprError) as e:
        F.parse_document(text, "prop", SIG)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


# --- round-trips -------------------------------------------------------------

def test_corpus_round_trip():
    for f in corpus_files():
        kind = kind_of(f.name)
        text = f.read_text()
        doc = F.parse_document(text, kind, SIG)
        back = F.render_document(kind, doc)
        doc2 = F.parse_document(back, kind, SIG)
        if kind in ("pnl", "term", "prop"):
            assert alpha_eq(doc, doc2), f.name
        assert F.render_document(kind, doc2) == back, f.name


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
        assert F.render_document(kind, value) + "\n" == text, name


def test_random_pnl_round_trip():
    rng = random.Random(601)
    for _ in range(300):
        x = rand_prop(rng) if rng.random() < 0.5 else rand_term(rng)
        text = F.render_pnl(x)
        assert F.parse_document(text, "pnl", SIG) == x


def test_hol_round_trip_on_translations():
    rng = random.Random(603)
    from nomhol.capture import canonical_context, capture_infer
    for _ in range(200):
        x = rand_prop(rng) if rng.random() < 0.5 else rand_term(rng)
        t = translate(ENV, canonical_context(capture_infer(x)), x)
        text = F.render_hol(t)
        back = F.parse_document(text, "hol", SIG)
        assert hol_alpha_eq(back, t), text


def test_rendering_deterministic():
    for f in corpus_files():
        kind = kind_of(f.name)
        doc = F.parse_document(f.read_text(), kind, SIG)
        assert F.render_document(kind, doc) == F.render_document(kind, doc)


def test_translated_derivations_round_trip_and_recheck():
    from nomhol.corpus import restricted_derivations
    from nomhol.kernel import check_hol
    from nomhol.translate import translate_derivation
    for name, d in restricted_derivations()[:4]:
        out = translate_derivation(ENV, d)
        text = F.render_derivation(out.tree, hol=True)
        back = F.parse_document(text, "deriv-hol", SIG)
        assert check_hol(back, ENV.target), name


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
    f.write_text(F.render_derivation(out.tree, hol=True))
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
    left = F.parse_document(text, "deriv-hol", SIG, ENV.target).concl.left
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


def test_cli_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert cli("translate", "--json", p("eta.sexp")) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
