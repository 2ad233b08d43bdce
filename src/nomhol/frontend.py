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

Every value prints in this syntax: a term or proposition of either calculus
through `render`, and any other value, a leaf of a term among them, through
its own `__repr__` (in `atoms`, `pnl` and `hol`).  Sorts print in the compact
form of unknown tokens, except in a signature, which writes them as lists.

A derivation restates its context at every node, so its text repeats each
formula, and each subterm, many times.  A document is read without
locations (`sexpr.parse_one`) into a table that holds each distinct list
once, as a row.  Every parser of a node takes the `Reading`: the table, the
signatures, and a memo for the call in each category, so `parse_term`,
`parse_prop` and `parse_hol` parse each node, a symbol or a row, once, and
every copy is the same object, and each unknown token is read once,
through the term memo, wherever it is written.  A model's own signature
starts a fresh reading.  `render_derivation` prints each formula object
once.

The reader checks a document against its signature once, with located
errors: atoms, sorts, formers, predicates, each `(const NAME TYPE)`, and
each valuation value's sort and permission set.  Each row is sorted or
typed as it is read: an ill-sorted or ill-typed one is an error at its row.
An error in the reading without locations raises `_Unlocated` in `_err`;
`parse_document` reads the text again with `sexpr.parse_all`, which gives
each list written its own located row, and parses it again, which raises
the same error, located.
"""

from __future__ import annotations

import re
from typing import Optional

from . import hol as H
from . import kernel as K
from . import pnl as P
from .atoms import Atom, CofinAtomSet, Perm, Renaming, permission_set, set_subset
from .semantics import HerbrandModel, PredSpec, RenElem, Valuation
from . import sexpr
from .sexpr import SexprError, parse_one
from .translate import translate_signature


class ParseError(SexprError):
    pass


class _Unlocated(Exception):
    """An error at a node read without locations."""


class Reading:
    """What every parser of a node takes: the table (see `sexpr`), the
    signatures, a memo for each category keyed by the node, and the sorts read."""
    __slots__ = ("rows", "sig", "hsig", "term", "prop", "hol", "sort")

    def __init__(self, rows: list, sig=None, hsig=None):
        self.rows, self.sig, self.hsig = rows, sig, hsig
        self.term, self.prop, self.hol, self.sort = {}, {}, {}, {}


def _err(node, message: str):
    if getattr(node, "pos", None) is None:
        raise _Unlocated
    raise ParseError(message, node.line, node.col)


def _text(r: Reading, node) -> str:
    """The node as a message quotes it: its symbols, single-spaced."""
    if isinstance(node, str):
        return str(node)
    return "(" + " ".join(_text(r, x) for x in r.rows[node]) + ")"


def _head(r: Reading, node) -> Optional[str]:
    items = r.rows[node] if isinstance(node, int) else None
    return str(items[0]) if items and isinstance(items[0], str) else None


def _once(seen: set, node, what: str):
    """Records `what`; a section or declaration given twice is an error."""
    if what in seen:
        _err(node, f"repeated {what}")
    seen.add(what)


def _args(r: Reading, node, n: int, what: str) -> tuple:
    items = r.rows[node]
    if len(items) != n + 1:
        _err(node, f"{what} takes {n} argument(s), got {len(items) - 1}")
    return items[1:]


# ---------------------------------------------------------------------------
# atoms, permission sets, permutations, renamings

# ASCII digits only: \d, str.isdigit and int() also take other scripts'
# digits, and int() takes '_' and blanks.  '$' lets a brace group's field
# end its line, as in X{iota;perm(+{}-{});0<newline>}.
INT_RE = re.compile(r"-?[0-9]+$")
_NAT_RE = re.compile(r"[0-9]+$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")   # a sort, as an atom carries it
_ATOM_IN_RE = re.compile(rf"({_NAME_RE.pattern})@(-?[0-9]+)")
_ATOM_RE = re.compile(rf"^{_ATOM_IN_RE.pattern}$")
# A comma-separated list whose parts are empty or match _ATOM_RE.
_ATOMS_RE = re.compile(r"(?:{0})?(?:,(?:{0})?)*".format(rf"{_NAME_RE.pattern}@-?[0-9]+\n?"))


def parse_atom_text(text: str) -> Optional[Atom]:
    m = _ATOM_RE.match(text)
    return Atom(m.group(1), int(m.group(2))) if m else None


def _undeclared(sig: P.PnlSignature, a: Atom) -> Optional[str]:
    """The error for an atom whose sort is not a declared name sort."""
    if a.sort in sig.name_sorts:
        return None
    return f"atom {a!r} has undeclared name sort {a.sort!r}"


def _declared(sig: P.PnlSignature, a: Atom, where) -> Atom:
    problem = _undeclared(sig, a)
    if problem:
        _err(where, problem)
    return a


def parse_atom(r: Reading, node) -> Atom:
    if isinstance(node, str):
        a = parse_atom_text(node)
        if a is not None:
            return _declared(r.sig, a, node)
    _err(node, f"expected an atom like nu@0, got {_text(r, node)}")


_PMSS_RE = re.compile(r"^perm\(\+\{([^{}]*)\}-\{([^{}]*)\}\)$")


def _atom_list_text(sig: P.PnlSignature, text: str, where) -> tuple:
    found = _ATOM_IN_RE.findall(text) if _ATOMS_RE.fullmatch(text) else None
    if found is not None and {s for s, _ in found} <= sig.name_sorts:
        return tuple(Atom(s, int(i)) for s, i in found)   # else the loop finds the error
    out = []
    for part in filter(None, text.split(",")):
        a = parse_atom_text(part)
        if a is None:
            _err(where, f"bad atom {part!r} in permission set")
        out.append(_declared(sig, a, where))
    return tuple(out)


def parse_pmss_text(sig: P.PnlSignature, text: str, where) -> CofinAtomSet:
    m = _PMSS_RE.match(text)
    if not m:
        _err(where, f"expected perm(+{{..}}-{{..}}), got {text!r}")
    try:
        return permission_set(plus=_atom_list_text(sig, m.group(1), where),
                              minus=_atom_list_text(sig, m.group(2), where))
    except ValueError as e:
        _err(where, str(e))


def parse_perm(r: Reading, node) -> Perm:
    if isinstance(node, str):
        _err(node, "expected a cycle list like ((nu@0 nu@1))")
    cycles = []
    for cyc in r.rows[node]:
        if isinstance(cyc, str) or not r.rows[cyc]:
            _err(node, "each cycle is a non-empty atom list")
        cycles.append(tuple(parse_atom(r, a) for a in r.rows[cyc]))
    try:
        return Perm.from_cycles(cycles)
    except ValueError as e:
        _err(node, str(e))


def parse_renaming_text(sig: P.PnlSignature, text: str, where) -> Renaming:
    if not (text.startswith("[") and text.endswith("]")):
        _err(where, f"expected a renaming like [nu@0:=nu@1], got {text!r}")
    moves, seen = {}, set()
    body = text[1:-1]
    for part in filter(None, body.split(",")):
        if ":=" not in part:
            _err(where, f"bad renaming move {part!r}")
        s, t = part.split(":=", 1)
        sa, ta = parse_atom_text(s), parse_atom_text(t)
        if sa is None or ta is None:
            _err(where, f"bad renaming move {part!r}")
        _declared(sig, sa, where)
        _declared(sig, ta, where)
        _once(seen, where, f"{sa!r}:=...")
        moves[sa] = ta
    try:
        return Renaming(moves)
    except ValueError as e:
        _err(where, str(e))


def parse_context_text(sig: P.PnlSignature, text: str) -> tuple:
    """A bracketed list of distinct atoms like [nu@0,nu@1] (`--context`): the
    text is no document, so an error names the option and no place in it."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"--context: expected a bracketed atom list, got {text!r}")
    out = []
    for part in filter(None, text[1:-1].replace(" ", "").split(",")):
        a = parse_atom_text(part)
        if a is None:
            raise ValueError(f"--context: bad atom {part!r}")
        problem = _undeclared(sig, a)
        if problem:
            raise ValueError(f"--context: {problem}")
        if a in out:
            raise ValueError(f"--context: repeated atom {a!r}")
        out.append(a)
    return tuple(out)


def render_context(ctx) -> str:
    return "[" + ",".join(map(repr, ctx)) + "]"


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


def parse_sort_node(r: Reading, node) -> P.PnlSort:
    """Sorts in signature files: SYMBOL | (abs N SORT) | (tup SORT ...)."""
    if isinstance(node, str):
        return parse_sort_text(r.sig, node, node)
    head = _head(r, node)
    if head == "abs":
        name, body = _args(r, node, 2, "abs")
        if not isinstance(name, str) or name not in r.sig.name_sorts:
            _err(node, "abstraction sorts bind a declared name sort")
        return P.AbsSort(str(name), parse_sort_node(r, body))
    if head == "tup":
        return P.TupleSort(tuple(parse_sort_node(r, s) for s in r.rows[node][1:]))
    _err(node, f"expected a sort, got {_text(r, node)}")


# ---------------------------------------------------------------------------
# unknowns

def _split_top(text: str, sep: str, where) -> list:
    """text cut at each `sep` outside brackets.  Where each piece of
    text.split(sep) balances its brackets, every `sep` lies outside them."""
    parts = text.split(sep)
    if all(sum(map(p.count, "{(<[")) == sum(map(p.count, "})>]")) for p in parts):
        return parts
    return _walk_top(text, sep, where)


def _walk_top(text: str, sep: str, where) -> list:
    """`_split_top` a character at a time, which also finds an unbalanced bracket."""
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
    pmss = parse_pmss_text(sig, parts[1], where)
    if not INT_RE.match(parts[2]):
        _err(where, f"bad unknown index {parts[2]!r}")
    return P.Unknown(sort, pmss, int(parts[2]))


def parse_unknown(r: Reading, node) -> P.Unknown:
    if not isinstance(node, str):
        _err(node, "expected an unknown")
    if node.startswith("X{"):   # read once, in the term memo
        return parse_term(r, node).unknown
    return parse_unknown_text(r.sig, str(node), node)


# ---------------------------------------------------------------------------
# nominal terms and propositions

# The parsers of terms, propositions and typed-lambda terms memoise in the
# reading: a node, a symbol or a row, is parsed once in each category.  Each
# looks its node up in its own body, since a wrapper would add a stack frame
# per nesting level and lower the depth of input that parses.

def parse_term(r: Reading, node) -> P.PnlTerm:
    t = r.term.get(node)
    if t is not None:
        return t
    if isinstance(node, str):
        a = parse_atom_text(node)
        if a is not None:
            t = P.AtomT(_declared(r.sig, a, node))
        elif node.startswith("X{"):
            t = P.Sus.of(parse_unknown_text(r.sig, str(node), node))
        else:
            _err(node, f"unrecognized term {str(node)!r}")
    else:
        head = _head(r, node)
        if head == "tup":
            t = P.Tup(tuple(parse_term(r, x) for x in r.rows[node][1:]))
        elif head == "abs":
            a, body = _args(r, node, 2, "abs")
            t = P.AbsT(parse_atom(r, a), parse_term(r, body))
        elif head == "sus":
            cycles, unk = _args(r, node, 2, "sus")
            t = P.Sus(parse_perm(r, cycles), parse_unknown(r, unk))
        elif head in r.sig.term_formers:
            (arg,) = _args(r, node, 1, head)
            t = P.Former(head, parse_term(r, arg))
        else:
            _err(node, f"unrecognized term form {head!r}")
    r.term[node] = _sorted(r, node, P.sort_of, t)
    return t


def parse_prop(r: Reading, node) -> P.PnlProp:
    phi = r.prop.get(node)
    if phi is not None:
        return phi
    head = _head(r, node)
    if node == "bot":
        phi = P.Bot()
    elif head == "imp":
        p, q = _args(r, node, 2, "imp")
        phi = P.Imp(parse_prop(r, p), parse_prop(r, q))
    elif head == "pred":
        name, arg = _args(r, node, 2, "pred")
        if not isinstance(name, str) or name not in r.sig.prop_formers:
            _err(node, f"undeclared proposition-former {_text(r, name)}")
        phi = P.Pred(str(name), parse_term(r, arg))
    elif head == "all":
        unk, body = _args(r, node, 2, "all")
        phi = P.All(parse_unknown(r, unk), parse_prop(r, body))
    else:
        _err(node, f"unrecognized proposition {_text(r, node)}")
    r.prop[node] = _sorted(r, node, P.check_prop, phi)
    return phi


def _sorted(r: Reading, node, check, x):
    """x, read from node, once `check` has sorted it in one step over the
    memo `r.sort` and recorded it there."""
    try:
        check(r.sig, x, r.sort)
    except P.SortError as e:
        _err(node, f"{e} in {_text(r, node)}")
    return x


def parse_pnl(r: Reading, node):
    """A proposition if it reads as one, otherwise a term."""
    if node == "bot" or _head(r, node) in ("imp", "pred", "all"):
        return parse_prop(r, node)
    return parse_term(r, node)


# ---------------------------------------------------------------------------
# typed-lambda types, variables, terms

def parse_type(r: Reading, node) -> H.HolType:
    if isinstance(node, str):
        return H.BaseT(str(node))
    head = _head(r, node)
    if head == "->":
        a, b = _args(r, node, 2, "->")
        return H.ArrowT(parse_type(r, a), parse_type(r, b))
    if head == "tupt":
        return H.TupleT(tuple(parse_type(r, t) for t in r.rows[node][1:]))
    _err(node, f"expected a type, got {_text(r, node)}")


def parse_hol_var(r: Reading, node) -> H.HolVar:
    if isinstance(node, str):
        a = parse_atom_text(node)
        if a is not None:
            return H.AtomVar(_declared(r.sig, a, node))
        if node.startswith("X{"):
            parts = _split_top(str(node), "_", node)
            ctx = parts[1] if len(parts) == 2 else "[]"
            if len(parts) > 2 or not (ctx.startswith("[") and ctx.endswith("]")):
                _err(node, f"bad context suffix in {str(node)!r}")
            unk = parse_unknown_text(r.sig, parts[0], node)
            try:
                return H.UnkVar(unk, _atom_list_text(r.sig, ctx[1:-1], node))
            except ValueError as e:
                _err(node, str(e))
    if _head(r, node) == "plain":
        ty, idx = _args(r, node, 2, "plain")
        if not isinstance(idx, str) or not INT_RE.match(idx):
            _err(node, "a plain variable carries an integer index")
        return H.PlainVar(parse_type(r, ty), int(idx))
    _err(node, f"expected a variable, got {_text(r, node)}")


def parse_hol(r: Reading, node) -> H.HolTerm:
    t = r.hol.get(node)
    if t is not None:
        return t
    # one try and no helper, so a nesting level costs one frame; a child's
    # error reaches it already turned into a ParseError
    try:
        if isinstance(node, str):
            if node == "bot":
                t = H.BOT
            elif node == "imp":
                t = H.IMP
            elif node in r.hsig.constants:
                t = H.Const(str(node), r.hsig.constants[node])
            elif (a := parse_atom_text(node)) is not None:
                t = H.Var(H.AtomVar(_declared(r.sig, a, node)))
            elif node.startswith("X{"):
                t = H.Var(parse_hol_var(r, node))
            else:
                _err(node, f"unrecognized term {str(node)!r}")
        else:
            head = _head(r, node)
            if head == "lam":
                v, body = _args(r, node, 2, "lam")
                t = H.Lam(parse_hol_var(r, v), parse_hol(r, body))
            elif head == "app":
                if len(r.rows[node]) < 3:
                    _err(node, "app takes at least two arguments")
                parts = [parse_hol(r, x) for x in r.rows[node][1:]]
                t = H.apps(parts[0], *parts[1:])
            elif head == "tup":
                t = H.HTup(tuple(parse_hol(r, x) for x in r.rows[node][1:]))
            elif head == "imp":
                p, q = _args(r, node, 2, "imp")
                t = H.imp(parse_hol(r, p), parse_hol(r, q))
            elif head in ("all", "forall"):
                v, body = _args(r, node, 2, head)
                t = H.forall(parse_hol_var(r, v), parse_hol(r, body))
            elif head == "plain":
                t = H.Var(parse_hol_var(r, node))
            elif head == "const":
                name, ty = _args(r, node, 2, "const")
                if not isinstance(name, str):
                    _err(node, "constant names are symbols")
                t = H.Const(str(name), parse_type(r, ty))
                r.hsig.check_const(t)
            else:
                _err(node, f"unrecognized term form {head!r}")
    except H.HolTypeError as e:   # this row's term, or its constant, is ill-typed
        _err(node, str(e) if e.term is None else f"{e} in {_text(r, node)}")
    r.hol[node] = t
    return t


# ---------------------------------------------------------------------------
# the printer

def render(x) -> str:
    """The text of a PNL term or proposition or a HOL term, as the reader
    reads it.  Each leaf, and each other value of the reader's syntax (an
    atom, permission set, permutation, renaming, sort, unknown, type or
    variable), prints as its repr, which writes that same syntax; anything
    else is refused.  Terms print here and not through `__repr__`, since a
    repr() call costs a recursion level besides the method's own frame and
    would lower the nesting that prints.  Cases run from the most frequent
    in a printed derivation (HOL applications and constants, then
    variables) to the rarest: a match tests them in turn."""
    match x:
        case H.App(H.App(H.Const("imp", _), p), q):
            return f"(imp {render(p)} {render(q)})"
        case H.App(H.Const("forall", _), H.Lam(v, body)):
            return f"(all {v!r} {render(body)})"
        case H.App(fn, arg):
            return f"(app {render(fn)} {render(arg)})"
        case H.Const() | P.AtomT() | P.Bot():
            return repr(x)
        case H.Var(v):
            return repr(v)
        case H.Lam(v, body):
            return f"(lam {v!r} {render(body)})"
        case H.HTup(items) | P.Tup(items):
            return "(tup" + "".join(" " + render(r) for r in items) + ")"
        case P.Former(f, arg):
            return f"({f} {render(arg)})"
        case P.AbsT(a, body):
            return f"(abs {a!r} {render(body)})"
        case P.Sus(pi, unk):
            return repr(unk) if pi.is_identity else f"(sus {pi!r} {unk!r})"
        case P.Pred(name, arg):
            return f"(pred {name} {render(arg)})"
        case P.Imp(p, q):
            return f"(imp {render(p)} {render(q)})"
        case P.All(unk, body):
            return f"(all {unk!r} {render(body)})"
        case (Atom() | CofinAtomSet() | Perm() | Renaming() | P.Unknown()
              | P.NameSort() | P.BaseSort() | P.TupleSort() | P.AbsSort()
              | H.BaseT() | H.TupleT() | H.ArrowT()
              | H.AtomVar() | H.UnkVar() | H.PlainVar()):
            return repr(x)
    raise TypeError(f"cannot render {type(x).__name__}")


# ---------------------------------------------------------------------------
# signatures

def parse_signature(r: Reading, node) -> P.PnlSignature:
    if _head(r, node) != "sig":
        _err(node, "expected (sig ...)")
    name_sorts, base_sorts = set(), set()
    terms, preds, seen = {}, {}, set()
    sections = r.rows[node][1:]
    # sorts first so the formers can resolve them
    for sec in sections:
        head = _head(r, sec)
        if head in ("name-sorts", "base-sorts"):
            for s in r.rows[sec][1:]:
                if not (isinstance(s, str) and _NAME_RE.fullmatch(s)):
                    _err(s, f"bad sort name {_text(r, s)}")
                (name_sorts if head == "name-sorts" else base_sorts).add(str(s))
        elif head not in ("term", "pred"):
            _err(sec, f"unrecognized signature section {head!r}")
    sorts = P.PnlSignature(frozenset(name_sorts), frozenset(base_sorts), {}, {})
    probe = Reading(r.rows, sorts)
    for sec in sections:
        head = _head(r, sec)
        if head == "term":
            name, arg, res = _args(r, sec, 3, "term")
            if not isinstance(name, str) or not isinstance(res, str):
                _err(sec, "term-former declarations are (term NAME ARGSORT RESULT)")
            _once(seen, sec, f"(term {name} ...)")
            terms[str(name)] = (parse_sort_node(probe, arg), str(res))
        elif head == "pred":
            name, arg = _args(r, sec, 2, "pred")
            if not isinstance(name, str):
                _err(sec, "proposition-former declarations are (pred NAME ARGSORT)")
            _once(seen, sec, f"(pred {name} ...)")
            preds[str(name)] = parse_sort_node(probe, arg)
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
        parts.append(f"  (term {f} {_sort_node(arg)} {res})")
    for p in sorted(sig.prop_formers):
        parts.append(f"  (pred {p} {_sort_node(sig.prop_formers[p])})")
    return "\n".join(parts) + ")"


def _sort_node(sort: P.PnlSort) -> str:
    """A sort as a signature writes it (`parse_sort_node`)."""
    match sort:
        case P.TupleSort(items):
            return "(tup " + " ".join(map(_sort_node, items)) + ")"
        case P.AbsSort(n, body):
            return f"(abs {n} {_sort_node(body)})"
    return repr(sort)


# ---------------------------------------------------------------------------
# sequents and derivations

def parse_sequent(r: Reading, node) -> K.Sequent:
    """The sequent, HOL exactly when the reading has a higher-order
    signature."""
    if _head(r, node) != "seq":
        _err(node, "expected (seq (left ...) (right ...))")
    parse = parse_prop if r.hsig is None else parse_hol
    sides, seen = {"left": [], "right": []}, set()
    for sec in r.rows[node][1:]:
        head = _head(r, sec)
        if head not in sides:
            _err(sec, f"unrecognized sequent side {head!r}")
        _once(seen, sec, f"({head} ...)")
        sides[head] += [parse(r, x) for x in r.rows[sec][1:]]
    return K.Sequent(tuple(sides["left"]), tuple(sides["right"]))


def render_sequent(seq: K.Sequent, show=render) -> str:
    """The sequent's text, each formula printed by `show`."""
    left = "".join(" " + show(p) for p in seq.left)
    right = "".join(" " + show(p) for p in seq.right)
    return f"(seq (left{left}) (right{right}))"


def parse_derivation(r: Reading, node) -> K.Node:
    """The derivation tree, higher-order exactly when the reading has a
    higher-order signature."""
    if _head(r, node) != "rule":
        _err(node, "expected (rule NAME (concl ...) ...)")
    items = r.rows[node]
    if len(items) < 3 or not isinstance(items[1], str):
        _err(node, "a rule node names its rule and gives a conclusion")
    rule = str(items[1])
    concl = None
    perm = Perm.identity()
    index = {"li": None, "ri": None}
    witness = None
    children, seen = [], set()
    for sec in items[2:]:
        head = _head(r, sec)
        if head != "rule":
            _once(seen, sec, f"({head} ...)")
        if head == "concl":
            (s,) = _args(r, sec, 1, "concl")
            concl = parse_sequent(r, s)
        elif head in ("li", "ri"):
            (n,) = _args(r, sec, 1, head)
            if not isinstance(n, str) or not _NAT_RE.match(n):
                _err(sec, f"{head} takes a non-negative index")
            index[head] = int(n)
        elif head == "perm":
            (cyc,) = _args(r, sec, 1, "perm")
            perm = parse_perm(r, cyc)
        elif head == "witness":
            (w,) = _args(r, sec, 1, "witness")
            witness = parse_term(r, w) if r.hsig is None else parse_hol(r, w)
        elif head == "rule":
            children.append(parse_derivation(r, sec))
        else:
            _err(sec, f"unrecognized rule section {head!r}")
    if concl is None:
        _err(node, "a rule node needs a (concl ...) section")
    return K.Node(rule, concl, tuple(children), perm, index["li"], index["ri"], witness)


def render_derivation(node: K.Node, indent: int = 0, show=None) -> str:
    """The derivation's text, each formula object printed once per call."""
    show = show or K.by_object(render)
    pad = " " * indent
    parts = [f"{pad}(rule {node.rule}"]
    parts.append(f"{pad}  (concl {render_sequent(node.concl, show)})")
    if node.li is not None:
        parts.append(f"{pad}  (li {node.li})")
    if node.ri is not None:
        parts.append(f"{pad}  (ri {node.ri})")
    if not node.perm.is_identity:
        parts.append(f"{pad}  (perm {node.perm!r})")
    if node.witness is not None:
        parts.append(f"{pad}  (witness {render(node.witness)})")
    for c in node.children:
        parts.append(render_derivation(c, indent + 2, show))
    return "\n".join(parts) + ")"


# ---------------------------------------------------------------------------
# models and valuations

def parse_model(r: Reading, node) -> HerbrandModel:
    """The model, under the reading's signature until it gives its own."""
    if _head(r, node) != "model":
        _err(node, "expected (model ...)")
    preds, seen = {}, set()
    for sec in r.rows[node][1:]:
        head = _head(r, sec)
        if head == "sig":
            _once(seen, sec, "(sig ...)")
            r = Reading(r.rows, parse_signature(r, sec))  # terms read anew under it
        elif head == "pred":
            if r.sig is None:
                _err(sec, "a model needs a signature before its predicates")
            items = r.rows[sec]
            if len(items) < 2 or not isinstance(items[1], str):
                _err(sec, "predicate interpretations name their predicate")
            name = str(items[1])
            if name not in r.sig.prop_formers:
                _err(sec, f"undeclared proposition-former {name}")
            _once(seen, sec, f"(pred {name} ...)")
            clauses, default, support, parts = [], 0, frozenset(), set()
            for part in items[2:]:
                phead = _head(r, part)
                if phead in ("default", "support"):
                    _once(parts, part, f"({phead} ...)")
                if phead == "clause":
                    pat, v = _args(r, part, 2, "clause")
                    if not isinstance(v, str) or v not in ("0", "1"):
                        _err(part, "clause values are 0 or 1")
                    phi = _sorted(r, pat, P.check_prop, P.Pred(name, parse_term(r, pat)))
                    clauses.append((phi.arg, int(v)))   # the pattern, P's argument
                elif phead == "default":
                    (v,) = _args(r, part, 1, "default")
                    if not isinstance(v, str) or v not in ("0", "1"):
                        _err(part, "the default value is 0 or 1")
                    default = int(v)
                elif phead == "support":
                    support = frozenset(parse_atom(r, a) for a in r.rows[part][1:])
                else:
                    _err(part, f"unrecognized predicate section {phead!r}")
            preds[name] = PredSpec(tuple(clauses), default, support)
        else:
            _err(sec, f"unrecognized model section {head!r}")
    if r.sig is None:
        _err(node, "a model needs a signature")
    return HerbrandModel(r.sig, preds)


def render_model(model: HerbrandModel) -> str:
    parts = ["(model", "  " + render_signature(model.sig).replace("\n", "\n  ")]
    for name in sorted(model.preds):
        spec = model.preds[name]
        body = [f"  (pred {name}"]
        for pat, v in spec.clauses:
            body.append(f"    (clause {render(pat)} {v})")
        body.append(f"    (default {spec.default})")
        if spec.extra_support:
            body.append("    (support " + " ".join(
                map(repr, sorted(spec.extra_support))) + ")")
        parts.append("\n".join(body) + ")")
    return "\n".join(parts) + ")"


def _ground(t: P.PnlTerm, node, form: str) -> P.PnlTerm:
    """t, parsed from node; a term with an unknown is an error there."""
    if P.free_unknowns(t):
        _err(node, f"the term of ({form} ...) must be ground")
    return t


def parse_valuation(r: Reading, node) -> Valuation:
    if _head(r, node) != "valuation":
        _err(node, "expected (valuation ...)")
    assignments, nodes, seen = {}, [], set()
    for sec in r.rows[node][1:]:
        if _head(r, sec) != "assign":
            _err(sec, "valuation entries are (assign X{..} TERM)")
        unk, term = _args(r, sec, 2, "assign")
        x = parse_unknown(r, unk)
        _once(seen, sec, f"(assign {x!r} ...)")
        assignments[x] = t = _ground(parse_term(r, term), term, "assign")
        nodes.append((x, t, term))
    for x, t, term in nodes:   # after every entry, so a repeat is reported first
        if P.sort_of(r.sig, t, r.sort) != x.sort:   # sorted when read
            _err(term, f"valuation value for {x!r} has the wrong sort")
        if not set_subset(P.free_atoms(t), x.pmss):
            _err(term, f"valuation value for {x!r} escapes its permission set")
    return Valuation(assignments)


def render_valuation(val: Valuation) -> str:
    parts = ["(valuation"]
    for unk in sorted(val.assignments, key=repr):
        parts.append(f"  (assign {unk!r} {render(val.assignments[unk])})")
    return "\n".join(parts) + ")"


def parse_renelem(r: Reading, node) -> RenElem:
    if _head(r, node) != "ren":
        _err(node, "expected (ren RENAMING TERM)")
    rho, term = _args(r, node, 2, "ren")
    if not isinstance(rho, str):
        _err(node, "the renaming is a token like [nu@0:=nu@1]")
    renaming = parse_renaming_text(r.sig, str(rho), rho)
    return RenElem(renaming, _ground(parse_term(r, term), term, "ren"))


def render_renelem(e: RenElem) -> str:
    return f"(ren {e.rho!r} {render(e.val)})"


# ---------------------------------------------------------------------------
# documents

# kind -> (parse(reading, node), render(value))
KINDS = {
    "sig": (parse_signature, render_signature),
    "term": (parse_term, render),
    "prop": (parse_prop, render),
    "pnl": (parse_pnl, render),
    "hol": (parse_hol, render),
    "deriv-pnl": (parse_derivation, render_derivation),
    "deriv-hol": (parse_derivation, render_derivation),
    "model": (parse_model, render_model),
    "valuation": (parse_valuation, render_valuation),
    "renelem": (parse_renelem, render_renelem),
}


def parse_document(text: str, kind: str, sig: Optional[P.PnlSignature] = None):
    """The object of the given kind that the text holds.  Every kind but
    ``sig`` needs the signature; ``hol`` and ``deriv-hol`` read constants
    under its translation.  Terms, propositions and formulas that read the
    same are one shared object (see `parse_term`)."""
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    rows, node = parse_one(text)
    if kind != "sig" and sig is None:
        raise ValueError("this document kind needs a signature")
    hsig = translate_signature(sig).target if kind in ("hol", "deriv-hol") else None
    try:
        return KINDS[kind][0](Reading(rows, sig, hsig), node)
    except _Unlocated:   # caught here, so the second parse has the whole stack
        pass
    rows, forms = sexpr.parse_all(text)
    return KINDS[kind][0](Reading(rows, sig, hsig), forms[0])   # parse_one's one form
