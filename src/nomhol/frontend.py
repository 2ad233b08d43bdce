"""Parsers and printers binding every module to a textual format.

Concrete syntax (all forms are s-expressions; see sexpr.py for the lexer):

  atoms            nu@0, nu@-3                (sort name, '@', signed index)
  permission sets  perm(+{nu@0,nu@1}-{nu@-2}) (upward additions, downward removals)
  unknowns         X{SORT;PERMSET;IDX}        with SORT in compact form:
                     iota | nu | [nu]SORT | <SORT,...,SORT>
  permutations     ((nu@0 nu@1)(nu@2 nu@3))   cycle lists
  renamings        [nu@0:=nu@1,nu@2:=nu@1]

  nominal terms    nu@0 | X{..} | (sus CYCLES X{..}) | (abs nu@0 T)
                   | (tup T ...) | (F T) for a declared term-former F
  propositions     bot | (imp P Q) | (pred NAME T) | (all X{..} P)

  typed-lambda terms
                   nu@0 | X{..}_[nu@0,..] | (plain TYPE IDX) | bot
                   | (lam VAR T) | (app T U ...) | (tup T ...)
                   | (imp P Q) | (all VAR P) | g_NAME | (const NAME TYPE)
  types            o | mu_nu | (-> A B) | (tupt A ...)

  signatures       (sig (name-sorts N ...) (base-sorts B ...)
                        (term F ARGSORT RESULT) ... (pred P ARGSORT) ...)
                   with ARGSORT as: SYMBOL | (abs N SORT) | (tup SORT ...)
  derivations      (rule NAME (concl (seq (left P ...) (right P ...)))
                         [(li N)] [(ri N)] [(perm CYCLES)] [(witness T)]
                         CHILD ...)
                   li and ri index a side as written, from 0; a side may
                   list a formula more than once, and means the set
  models           (model [(sig ...)]
                          (pred NAME (clause PATTERN {0|1}) ...
                                (default {0|1}) [(support ATOM ...)]) ...)
  valuations       (valuation (assign X{..} TERM) ...)
  suspension elements
                   (ren RENAMING TERM)
  indices          (atoms, unknowns, plain variables, li, ri) are the
                   digits 0-9, after a '-' where signed

A derivation restates its context at every node, so its text repeats each
formula many times.  `parse_document` reads a derivation with one memo for
the call: a sequent formula is parsed once per distinct text, keyed by the
reader's structural id (`sexpr.SList.sid`, which is per `parse_all` call)
or by a symbol's text, and every copy is the same object.
"""

from __future__ import annotations

import re
from typing import Optional

from . import hol as H
from . import kernel as K
from . import pnl as P
from .atoms import Atom, CofinAtomSet, Perm, Renaming, permission_set
from .semantics import HerbrandModel, PredSpec, RenElem, Valuation
from .sexpr import SexprError, SList, SNode, Sym, parse_one
from .translate import translate_signature


class ParseError(SexprError):
    pass


def _err(node: SNode, message: str):
    raise ParseError(message, node.line, node.col)


def _head(node: SNode) -> Optional[str]:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], Sym):
        return node.items[0].text
    return None


def _args(node: SList, n: int, what: str) -> tuple:
    if len(node.items) != n + 1:
        _err(node, f"{what} takes {n} argument(s), got {len(node.items) - 1}")
    return node.items[1:]


# ---------------------------------------------------------------------------
# atoms, permission sets, permutations, renamings

# ASCII digits only: \d, str.isdigit and int() also take other scripts'
# digits, and int() takes '_' and blanks.  '$' lets a brace group's field
# end its line, as in X{iota;perm(+{}-{});0<newline>}.
INT_RE = re.compile(r"-?[0-9]+$")
_NAT_RE = re.compile(r"[0-9]+$")
_ATOM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)@(-?[0-9]+)$")


def parse_atom_text(text: str) -> Optional[Atom]:
    m = _ATOM_RE.match(text)
    return Atom(m.group(1), int(m.group(2))) if m else None


def parse_atom(node: SNode) -> Atom:
    if isinstance(node, Sym):
        a = parse_atom_text(node.text)
        if a is not None:
            return a
    _err(node, f"expected an atom like nu@0, got {node!r}")


def render_atom(a: Atom) -> str:
    return f"{a.sort}@{a.index}"


_PMSS_RE = re.compile(r"^perm\(\+\{([^{}]*)\}-\{([^{}]*)\}\)$")


def _atom_list_text(text: str, where) -> tuple:
    out = []
    for part in filter(None, text.split(",")):
        a = parse_atom_text(part)
        if a is None:
            _err(where, f"bad atom {part!r} in permission set")
        out.append(a)
    return tuple(out)


def parse_pmss_text(text: str, where) -> CofinAtomSet:
    m = _PMSS_RE.match(text)
    if not m:
        _err(where, f"expected perm(+{{..}}-{{..}}), got {text!r}")
    try:
        return permission_set(plus=_atom_list_text(m.group(1), where),
                              minus=_atom_list_text(m.group(2), where))
    except ValueError as e:
        _err(where, str(e))


def render_pmss(p: CofinAtomSet) -> str:
    plus = ",".join(render_atom(a) for a in sorted(p.included))
    minus = ",".join(render_atom(a) for a in sorted(p.excluded))
    return f"perm(+{{{plus}}}-{{{minus}}})"


def parse_perm(node: SNode) -> Perm:
    if not isinstance(node, SList):
        _err(node, "expected a cycle list like ((nu@0 nu@1))")
    cycles = []
    for cyc in node.items:
        if not isinstance(cyc, SList) or not cyc.items:
            _err(node, "each cycle is a non-empty atom list")
        cycles.append(tuple(parse_atom(a) for a in cyc.items))
    try:
        return Perm.from_cycles(cycles)
    except ValueError as e:
        _err(node, str(e))


def render_perm(pi: Perm) -> str:
    return "(" + "".join(
        "(" + " ".join(render_atom(a) for a in c) + ")" for c in pi.cycles()) + ")"


def parse_renaming_text(text: str, where) -> Renaming:
    if not (text.startswith("[") and text.endswith("]")):
        _err(where, f"expected a renaming like [nu@0:=nu@1], got {text!r}")
    moves = {}
    body = text[1:-1]
    for part in filter(None, body.split(",")):
        if ":=" not in part:
            _err(where, f"bad renaming move {part!r}")
        s, t = part.split(":=", 1)
        sa, ta = parse_atom_text(s), parse_atom_text(t)
        if sa is None or ta is None:
            _err(where, f"bad renaming move {part!r}")
        moves[sa] = ta
    try:
        return Renaming(moves)
    except ValueError as e:
        _err(where, str(e))


def render_renaming(rho: Renaming) -> str:
    items = ",".join(f"{render_atom(a)}:={render_atom(b)}"
                     for a, b in sorted(rho.moves().items()))
    return f"[{items}]"


def parse_context_text(text: str) -> tuple:
    """A bracketed atom list like [nu@0,nu@1] (used for --context)."""
    where = Sym(text, 0, 0)
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        _err(where, f"expected a bracketed atom list, got {text!r}")
    return _atom_list_text(text[1:-1].replace(" ", ""), where)


def render_context(ctx) -> str:
    return "[" + ",".join(render_atom(a) for a in ctx) + "]"


# ---------------------------------------------------------------------------
# sorts (compact textual form, used inside unknown tokens and signatures)

def parse_sort_text(sig: P.PnlSignature, text: str, where) -> P.PnlSort:
    text = text.strip()
    if not text:
        _err(where, "empty sort")
    if text.startswith("["):
        close = text.find("]")
        if close < 0:
            _err(where, f"unterminated abstraction sort in {text!r}")
        name = text[1:close]
        if name not in sig.name_sorts:
            _err(where, f"undeclared name sort {name!r}")
        return P.AbsSort(name, parse_sort_text(sig, text[close + 1:], where))
    if text.startswith("<"):
        if not text.endswith(">"):
            _err(where, f"unterminated tuple sort in {text!r}")
        inner = text[1:-1]
        parts = _split_top(inner, ",", where) if inner else []  # <> is empty
        return P.TupleSort(tuple(parse_sort_text(sig, p, where) for p in parts))
    if text in sig.name_sorts:
        return P.NameSort(text)
    if text in sig.base_sorts:
        return P.BaseSort(text)
    _err(where, f"undeclared sort {text!r}")


def render_sort(sort: P.PnlSort) -> str:
    match sort:
        case P.NameSort(n) | P.BaseSort(n):
            return n
        case P.TupleSort(items):
            return "<" + ",".join(render_sort(s) for s in items) + ">"
        case P.AbsSort(n, body):
            return f"[{n}]{render_sort(body)}"
    raise TypeError(f"not a sort: {sort!r}")


def parse_sort_node(sig: P.PnlSignature, node: SNode) -> P.PnlSort:
    """Sorts in signature files: SYMBOL | (abs N SORT) | (tup SORT ...)."""
    if isinstance(node, Sym):
        return parse_sort_text(sig, node.text, node)
    head = _head(node)
    if head == "abs":
        name, body = _args(node, 2, "abs")
        if not isinstance(name, Sym) or name.text not in sig.name_sorts:
            _err(node, "abstraction sorts bind a declared name sort")
        return P.AbsSort(name.text, parse_sort_node(sig, body))
    if head == "tup":
        return P.TupleSort(tuple(parse_sort_node(sig, s) for s in node.items[1:]))
    _err(node, f"expected a sort, got {node!r}")


def render_sort_node(sort: P.PnlSort) -> str:
    match sort:
        case P.NameSort(n) | P.BaseSort(n):
            return n
        case P.TupleSort(items):
            return "(tup " + " ".join(render_sort_node(s) for s in items) + ")"
        case P.AbsSort(n, body):
            return f"(abs {n} {render_sort_node(body)})"
    raise TypeError(f"not a sort: {sort!r}")


# ---------------------------------------------------------------------------
# unknowns

def _split_top(text: str, sep: str, where) -> list:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "{(<[":
            depth += 1
        elif c in "})>]":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    if depth != 0:
        _err(where, f"unbalanced brackets in {text!r}")
    return parts


def parse_unknown_text(sig: P.PnlSignature, text: str, where) -> P.Unknown:
    if not (text.startswith("X{") and text.endswith("}")):
        _err(where, f"expected an unknown like X{{iota;perm(+{{}}-{{}});0}}, got {text!r}")
    parts = _split_top(text[2:-1], ";", where)
    if len(parts) != 3:
        _err(where, f"an unknown has three ';'-separated fields, got {text!r}")
    sort = parse_sort_text(sig, parts[0], where)
    pmss = parse_pmss_text(parts[1], where)
    if not INT_RE.match(parts[2]):
        _err(where, f"bad unknown index {parts[2]!r}")
    return P.Unknown(sort, pmss, int(parts[2]))


def render_unknown(u: P.Unknown) -> str:
    return f"X{{{render_sort(u.sort)};{render_pmss(u.pmss)};{u.index}}}"


def parse_unknown(sig: P.PnlSignature, node: SNode) -> P.Unknown:
    if not isinstance(node, Sym):
        _err(node, "expected an unknown")
    return parse_unknown_text(sig, node.text, node)


# ---------------------------------------------------------------------------
# nominal terms and propositions

def parse_term(sig: P.PnlSignature, node: SNode) -> P.PnlTerm:
    if isinstance(node, Sym):
        a = parse_atom_text(node.text)
        if a is not None:
            return P.AtomT(a)
        if node.text.startswith("X{"):
            return P.Sus.of(parse_unknown_text(sig, node.text, node))
        _err(node, f"unrecognized term {node.text!r}")
    head = _head(node)
    if head == "tup":
        return P.Tup(tuple(parse_term(sig, t) for t in node.items[1:]))
    if head == "abs":
        a, body = _args(node, 2, "abs")
        return P.AbsT(parse_atom(a), parse_term(sig, body))
    if head == "sus":
        cycles, unk = _args(node, 2, "sus")
        return P.Sus(parse_perm(cycles), parse_unknown(sig, unk))
    if head in sig.term_formers:
        (arg,) = _args(node, 1, head)
        return P.Former(head, parse_term(sig, arg))
    _err(node, f"unrecognized term form {head!r}")


def render_term(t: P.PnlTerm) -> str:
    match t:
        case P.AtomT(a):
            return render_atom(a)
        case P.Tup(items):
            return "(tup" + "".join(" " + render_term(r) for r in items) + ")"
        case P.Former(f, arg):
            return f"({f} {render_term(arg)})"
        case P.AbsT(a, body):
            return f"(abs {render_atom(a)} {render_term(body)})"
        case P.Sus(pi, unk):
            if pi.is_identity:
                return render_unknown(unk)
            return f"(sus {render_perm(pi)} {render_unknown(unk)})"
    raise TypeError(f"not a term: {t!r}")


def parse_prop(sig: P.PnlSignature, node: SNode) -> P.PnlProp:
    if isinstance(node, Sym) and node.text == "bot":
        return P.Bot()
    head = _head(node)
    if head == "imp":
        p, q = _args(node, 2, "imp")
        return P.Imp(parse_prop(sig, p), parse_prop(sig, q))
    if head == "pred":
        name, arg = _args(node, 2, "pred")
        if not isinstance(name, Sym) or name.text not in sig.prop_formers:
            _err(node, f"undeclared proposition-former {name!r}")
        return P.Pred(name.text, parse_term(sig, arg))
    if head == "all":
        unk, body = _args(node, 2, "all")
        return P.All(parse_unknown(sig, unk), parse_prop(sig, body))
    _err(node, f"unrecognized proposition {node!r}")


def render_prop(phi: P.PnlProp) -> str:
    match phi:
        case P.Bot():
            return "bot"
        case P.Imp(p, q):
            return f"(imp {render_prop(p)} {render_prop(q)})"
        case P.Pred(name, arg):
            return f"(pred {name} {render_term(arg)})"
        case P.All(unk, body):
            return f"(all {render_unknown(unk)} {render_prop(body)})"
    raise TypeError(f"not a proposition: {phi!r}")


def parse_pnl(sig: P.PnlSignature, node: SNode):
    """A proposition if it reads as one, otherwise a term."""
    if (isinstance(node, Sym) and node.text == "bot") or \
            _head(node) in ("imp", "pred", "all"):
        return parse_prop(sig, node)
    return parse_term(sig, node)


def render_pnl(x) -> str:
    if isinstance(x, P.PnlProp):
        return render_prop(x)
    return render_term(x)


# ---------------------------------------------------------------------------
# typed-lambda types, variables, terms

def parse_type(node: SNode) -> H.HolType:
    if isinstance(node, Sym):
        return H.BaseT(node.text)
    head = _head(node)
    if head == "->":
        a, b = _args(node, 2, "->")
        return H.ArrowT(parse_type(a), parse_type(b))
    if head == "tupt":
        return H.TupleT(tuple(parse_type(t) for t in node.items[1:]))
    _err(node, f"expected a type, got {node!r}")


def render_type(ty: H.HolType) -> str:
    match ty:
        case H.BaseT(n):
            return n
        case H.ArrowT(a, b):
            return f"(-> {render_type(a)} {render_type(b)})"
        case H.TupleT(items):
            return "(tupt" + "".join(" " + render_type(t) for t in items) + ")"
    raise TypeError(f"not a type: {ty!r}")


def parse_hol_var(sig: P.PnlSignature, node: SNode) -> H.HolVar:
    if isinstance(node, Sym):
        a = parse_atom_text(node.text)
        if a is not None:
            return H.AtomVar(a)
        if node.text.startswith("X{"):
            parts = _split_top(node.text, "_", node)
            if len(parts) == 1:
                return H.UnkVar(parse_unknown_text(sig, parts[0], node), ())
            if len(parts) == 2 and parts[1].startswith("[") and parts[1].endswith("]"):
                unk = parse_unknown_text(sig, parts[0], node)
                ctx = _atom_list_text(parts[1][1:-1], node)
                try:
                    return H.UnkVar(unk, ctx)
                except ValueError as e:
                    _err(node, str(e))
            _err(node, f"bad context suffix in {node.text!r}")
    if _head(node) == "plain":
        ty, idx = _args(node, 2, "plain")
        if not isinstance(idx, Sym) or not INT_RE.match(idx.text):
            _err(node, "a plain variable carries an integer index")
        return H.PlainVar(parse_type(ty), int(idx.text))
    _err(node, f"expected a variable, got {node!r}")


def render_hol_var(v: H.HolVar) -> str:
    match v:
        case H.AtomVar(a):
            return render_atom(a)
        case H.UnkVar(unk, ctx):
            return render_unknown(unk) + "_[" + \
                ",".join(render_atom(a) for a in ctx) + "]"
        case H.PlainVar(ty, idx):
            return f"(plain {render_type(ty)} {idx})"
    raise TypeError(f"not a variable: {v!r}")


def parse_hol(sig: P.PnlSignature, hsig: H.HolSignature, node: SNode) -> H.HolTerm:
    if isinstance(node, Sym):
        if node.text == "bot":
            return H.BOT
        if node.text == "imp":
            return H.IMP
        if node.text in hsig.constants:
            return H.Const(node.text, hsig.constants[node.text])
        a = parse_atom_text(node.text)
        if a is not None:
            return H.Var(H.AtomVar(a))
        if node.text.startswith("X{"):
            return H.Var(parse_hol_var(sig, node))
        _err(node, f"unrecognized term {node.text!r}")
    head = _head(node)
    if head == "lam":
        v, body = _args(node, 2, "lam")
        return H.Lam(parse_hol_var(sig, v), parse_hol(sig, hsig, body))
    if head == "app":
        if len(node.items) < 3:
            _err(node, "app takes at least two arguments")
        parts = [parse_hol(sig, hsig, t) for t in node.items[1:]]
        return H.apps(parts[0], *parts[1:])
    if head == "tup":
        return H.HTup(tuple(parse_hol(sig, hsig, t) for t in node.items[1:]))
    if head == "imp":
        p, q = _args(node, 2, "imp")
        return H.imp(parse_hol(sig, hsig, p), parse_hol(sig, hsig, q))
    if head in ("all", "forall"):
        v, body = _args(node, 2, head)
        return H.forall(parse_hol_var(sig, v), parse_hol(sig, hsig, body))
    if head == "plain":
        return H.Var(parse_hol_var(sig, node))
    if head == "const":
        name, ty = _args(node, 2, "const")
        if not isinstance(name, Sym):
            _err(node, "constant names are symbols")
        return H.Const(name.text, parse_type(ty))
    _err(node, f"unrecognized term form {head!r}")


def render_hol(t: H.HolTerm) -> str:
    match t:
        case H.Var(v):
            return render_hol_var(v)
        case H.Lam(v, body):
            return f"(lam {render_hol_var(v)} {render_hol(body)})"
        case H.App(H.App(H.Const("imp", _), p), q):
            return f"(imp {render_hol(p)} {render_hol(q)})"
        case H.App(_, _) if (parts := H.forall_parts(t)):
            v, body = parts
            return f"(all {render_hol_var(v)} {render_hol(body)})"
        case H.App(fn, arg):
            return f"(app {render_hol(fn)} {render_hol(arg)})"
        case H.HTup(items):
            return "(tup" + "".join(" " + render_hol(r) for r in items) + ")"
        case H.Const("bot", _):
            return "bot"
        case H.Const(name, ty):
            if name.startswith("g_"):
                return name
            return f"(const {name} {render_type(ty)})"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# signatures

def parse_signature(node: SNode) -> P.PnlSignature:
    if _head(node) != "sig":
        _err(node, "expected (sig ...)")
    name_sorts, base_sorts = set(), set()
    terms, preds = {}, {}
    sections = node.items[1:]
    # sorts first so the formers can resolve them
    for sec in sections:
        head = _head(sec)
        if head == "name-sorts":
            name_sorts |= {s.text for s in sec.items[1:] if isinstance(s, Sym)}
        elif head == "base-sorts":
            base_sorts |= {s.text for s in sec.items[1:] if isinstance(s, Sym)}
        elif head not in ("term", "pred"):
            _err(sec, f"unrecognized signature section {head!r}")
    probe = P.PnlSignature(frozenset(name_sorts), frozenset(base_sorts), {}, {})
    for sec in sections:
        head = _head(sec)
        if head == "term":
            name, arg, res = _args(sec, 3, "term")
            if not isinstance(name, Sym) or not isinstance(res, Sym):
                _err(sec, "term-former declarations are (term NAME ARGSORT RESULT)")
            terms[name.text] = (parse_sort_node(probe, arg), res.text)
        elif head == "pred":
            name, arg = _args(sec, 2, "pred")
            if not isinstance(name, Sym):
                _err(sec, "proposition-former declarations are (pred NAME ARGSORT)")
            preds[name.text] = parse_sort_node(probe, arg)
    try:
        return P.PnlSignature(frozenset(name_sorts), frozenset(base_sorts),
                              terms, preds)
    except P.SignatureError as e:
        _err(node, str(e))


def render_signature(sig: P.PnlSignature) -> str:
    parts = ["(sig"]
    parts.append("  (name-sorts " + " ".join(sorted(sig.name_sorts)) + ")")
    parts.append("  (base-sorts " + " ".join(sorted(sig.base_sorts)) + ")")
    for f in sorted(sig.term_formers):
        arg, res = sig.term_formers[f]
        parts.append(f"  (term {f} {render_sort_node(arg)} {res})")
    for p in sorted(sig.prop_formers):
        parts.append(f"  (pred {p} {render_sort_node(sig.prop_formers[p])})")
    return "\n".join(parts) + ")"


# ---------------------------------------------------------------------------
# sequents and derivations

def _parse_props(sig, hsig, nodes, hol: bool, memo: dict) -> list:
    """The formulas, each distinct text parsed once per memo: a list is
    keyed by its sid (an int), a symbol by its text (a str)."""
    out = []
    for n in nodes:
        key = n.sid if isinstance(n, SList) else n.text
        phi = memo.get(key)
        if phi is None:
            phi = memo[key] = parse_hol(sig, hsig, n) if hol else parse_prop(sig, n)
        out.append(phi)
    return out


def parse_sequent(sig, hsig, node: SNode, hol: bool, memo: dict) -> K.Sequent:
    if _head(node) != "seq":
        _err(node, "expected (seq (left ...) (right ...))")
    left, right = [], []
    for sec in node.items[1:]:
        head = _head(sec)
        if head == "left":
            left = _parse_props(sig, hsig, sec.items[1:], hol, memo)
        elif head == "right":
            right = _parse_props(sig, hsig, sec.items[1:], hol, memo)
        else:
            _err(sec, f"unrecognized sequent side {head!r}")
    return K.Sequent(tuple(left), tuple(right))


def render_sequent(seq: K.Sequent, hol: bool) -> str:
    rp = render_hol if hol else render_prop
    left = "".join(" " + rp(p) for p in seq.left)
    right = "".join(" " + rp(p) for p in seq.right)
    return f"(seq (left{left}) (right{right}))"


def parse_derivation(sig, hsig, node: SNode, hol: bool, memo: dict) -> K.Node:
    """The derivation tree; memo holds the sequent formulas parsed so far
    from the same `parse_one` call (see `_parse_props`)."""
    if _head(node) != "rule":
        _err(node, "expected (rule NAME (concl ...) ...)")
    if len(node.items) < 3 or not isinstance(node.items[1], Sym):
        _err(node, "a rule node names its rule and gives a conclusion")
    rule = node.items[1].text
    concl = None
    perm = Perm.identity()
    li = ri = None
    witness = None
    children = []
    for sec in node.items[2:]:
        head = _head(sec)
        if head == "concl":
            (s,) = _args(sec, 1, "concl")
            concl = parse_sequent(sig, hsig, s, hol, memo)
        elif head in ("li", "ri"):
            (n,) = _args(sec, 1, head)
            if not isinstance(n, Sym) or not _NAT_RE.match(n.text):
                _err(sec, f"{head} takes a non-negative index")
            if head == "li":
                li = int(n.text)
            else:
                ri = int(n.text)
        elif head == "perm":
            (cyc,) = _args(sec, 1, "perm")
            perm = parse_perm(cyc)
        elif head == "witness":
            (w,) = _args(sec, 1, "witness")
            witness = parse_hol(sig, hsig, w) if hol else parse_term(sig, w)
        elif head == "rule":
            children.append(parse_derivation(sig, hsig, sec, hol, memo))
        else:
            _err(sec, f"unrecognized rule section {head!r}")
    if concl is None:
        _err(node, "a rule node needs a (concl ...) section")
    return K.Node(rule, concl, tuple(children), perm, li, ri, witness)


def render_derivation(node: K.Node, hol: bool, indent: int = 0) -> str:
    pad = " " * indent
    parts = [f"{pad}(rule {node.rule}"]
    parts.append(f"{pad}  (concl {render_sequent(node.concl, hol)})")
    if node.li is not None:
        parts.append(f"{pad}  (li {node.li})")
    if node.ri is not None:
        parts.append(f"{pad}  (ri {node.ri})")
    if not node.perm.is_identity:
        parts.append(f"{pad}  (perm {render_perm(node.perm)})")
    if node.witness is not None:
        w = render_hol(node.witness) if hol else render_term(node.witness)
        parts.append(f"{pad}  (witness {w})")
    for c in node.children:
        parts.append(render_derivation(c, hol, indent + 2))
    return "\n".join(parts) + ")"


# ---------------------------------------------------------------------------
# models and valuations

def parse_model(node: SNode, ambient_sig: Optional[P.PnlSignature] = None) -> HerbrandModel:
    if _head(node) != "model":
        _err(node, "expected (model ...)")
    sig = ambient_sig
    preds = {}
    for sec in node.items[1:]:
        head = _head(sec)
        if head == "sig":
            sig = parse_signature(sec)
        elif head == "pred":
            if sig is None:
                _err(sec, "a model needs a signature before its predicates")
            if len(sec.items) < 2 or not isinstance(sec.items[1], Sym):
                _err(sec, "predicate interpretations name their predicate")
            name = sec.items[1].text
            clauses, default, support = [], 0, frozenset()
            for part in sec.items[2:]:
                phead = _head(part)
                if phead == "clause":
                    pat, v = _args(part, 2, "clause")
                    if not isinstance(v, Sym) or v.text not in ("0", "1"):
                        _err(part, "clause values are 0 or 1")
                    clauses.append((parse_term(sig, pat), int(v.text)))
                elif phead == "default":
                    (v,) = _args(part, 1, "default")
                    if not isinstance(v, Sym) or v.text not in ("0", "1"):
                        _err(part, "the default value is 0 or 1")
                    default = int(v.text)
                elif phead == "support":
                    support = frozenset(parse_atom(a) for a in part.items[1:])
                else:
                    _err(part, f"unrecognized predicate section {phead!r}")
            preds[name] = PredSpec(tuple(clauses), default, support)
        else:
            _err(sec, f"unrecognized model section {head!r}")
    if sig is None:
        _err(node, "a model needs a signature")
    try:
        return HerbrandModel(sig, preds)
    except Exception as e:
        _err(node, str(e))


def render_model(model: HerbrandModel) -> str:
    parts = ["(model", "  " + render_signature(model.sig).replace("\n", "\n  ")]
    for name in sorted(model.preds):
        spec = model.preds[name]
        body = [f"  (pred {name}"]
        for pat, v in spec.clauses:
            body.append(f"    (clause {render_term(pat)} {v})")
        body.append(f"    (default {spec.default})")
        if spec.extra_support:
            body.append("    (support " + " ".join(
                render_atom(a) for a in sorted(spec.extra_support)) + ")")
        parts.append("\n".join(body) + ")")
    return "\n".join(parts) + ")"


def parse_valuation(sig: P.PnlSignature, node: SNode) -> Valuation:
    if _head(node) != "valuation":
        _err(node, "expected (valuation ...)")
    assignments = {}
    for sec in node.items[1:]:
        if _head(sec) != "assign":
            _err(sec, "valuation entries are (assign X{..} TERM)")
        unk, term = _args(sec, 2, "assign")
        assignments[parse_unknown(sig, unk)] = parse_term(sig, term)
    return Valuation(assignments)


def render_valuation(val: Valuation) -> str:
    parts = ["(valuation"]
    for unk in sorted(val.assignments, key=render_unknown):
        parts.append(f"  (assign {render_unknown(unk)} "
                     f"{render_term(val.assignments[unk])})")
    return "\n".join(parts) + ")"


def parse_renelem(sig: P.PnlSignature, node: SNode) -> RenElem:
    if _head(node) != "ren":
        _err(node, "expected (ren RENAMING TERM)")
    rho, term = _args(node, 2, "ren")
    if not isinstance(rho, Sym):
        _err(node, "the renaming is a token like [nu@0:=nu@1]")
    return RenElem(parse_renaming_text(rho.text, rho), parse_term(sig, term))


def render_renelem(e: RenElem) -> str:
    return f"(ren {render_renaming(e.rho)} {render_term(e.val)})"


# ---------------------------------------------------------------------------
# documents

# kind -> (parse(sig, hsig, node), render(value))
KINDS = {
    "sig": (lambda sig, hsig, node: parse_signature(node), render_signature),
    "term": (lambda sig, hsig, node: parse_term(sig, node), render_term),
    "prop": (lambda sig, hsig, node: parse_prop(sig, node), render_prop),
    "pnl": (lambda sig, hsig, node: parse_pnl(sig, node), render_pnl),
    "hol": (parse_hol, render_hol),
    "deriv-pnl": (lambda sig, hsig, node: parse_derivation(sig, hsig, node, False, {}),
                  lambda d: render_derivation(d, False)),
    "deriv-hol": (lambda sig, hsig, node: parse_derivation(sig, hsig, node, True, {}),
                  lambda d: render_derivation(d, True)),
    "model": (lambda sig, hsig, node: parse_model(node, sig), render_model),
    "valuation": (lambda sig, hsig, node: parse_valuation(sig, node), render_valuation),
    "renelem": (lambda sig, hsig, node: parse_renelem(sig, node), render_renelem),
}


def parse_document(text: str, kind: str,
                   sig: Optional[P.PnlSignature] = None,
                   hsig: Optional[H.HolSignature] = None):
    """The object of the given kind that the text holds.  Every kind but
    ``sig`` needs the signature; ``hol`` and ``deriv-hol`` translate it when
    no higher-order signature is given.  In a derivation, sequent formulas
    that read the same are one shared object."""
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    node = parse_one(text)
    if kind != "sig" and sig is None:
        raise ValueError("this document kind needs a signature")
    if kind in ("hol", "deriv-hol") and hsig is None:
        hsig = translate_signature(sig).target
    return KINDS[kind][0](sig, hsig, node)


def render_document(kind: str, value) -> str:
    return KINDS[kind][1](value)
