"""Pairwise reference implementations of the equalities and sequent
operations that nomhol decides by canonical keys.

Each compares two objects directly, without computing a key: nominal
alpha-equivalence by swapping binders (Urban, Pitts and Gabbay's suspension
clause for unknowns, and `spec.perm2_act` for a quantifier's unknown),
typed-lambda alpha-equivalence by binder levels, and alpha-beta equality
through both normal forms, and equality of suspended
renamings by searching all support bijections.  Tests hold the key-based
versions in `nomhol.pnl`, `nomhol.hol`, `nomhol.kernel` and
`nomhol.semantics` to these.  `dedup` says what a sequent side that repeats
a formula means: the side without the copies.  `var_type` builds a
variable's type from its parts, and `hol_type_of` types a term by walking
it whole: the references for the `type` each `nomhol.hol` variable and
term computes when it is built.  `nf` rebuilds every node of
a beta-normal form, the reference for `hol._nf`, which keeps each subterm
that is already normal; `hol_subst_parallel` rebuilds every node of a
substitution, the reference for `hol._subst`, which keeps each subterm it
does not change; `render_derivation` prints every formula
occurrence, the reference for `frontend.render_derivation`, which prints
each formula object once.

The eager, memoised ground-term enumerator is the reference for the lazy one
in `nomhol.semantics`: the same terms in the same order, built as lists.
The tree-walking evaluators are the references for the compiled ones:
`match_pattern` for `spec.compile_pattern` and `semantics.PredSpec.matcher`,
`eval_pnl_term`/`eval_pnl_prop` for the nominal evaluator, and
`HolEvaluator`/`eval_hol` for the higher-order one.  They walk the syntax
at every candidate, draw every quantifier's candidates from the eager
enumerator, and keep nothing between candidates.  `fn_apply` freshens an
abstraction element's binder at every application that could clash, the
reference for `semantics.fn_apply`, which freshens only a renamed binder.
`flat` prints a reader node through its table, the reference for the table
of `sexpr.parse_one`: no two of its rows print the same.  `parse_one`
reads a text one `sexpr._FAST` match at a time, one token with the blanks
and comments after it, the reference for `sexpr.parse_one`, which cuts
the text between brace groups and comments with `str.split`: the same
table and root, or the same located error.  `_parse_chars`
reads a text one character at a time, the reference for `sexpr.parse_all`:
the same table of one row per list written, the same located nodes, and
the same located errors.  `parse_unknown_text` and `parse_hol_unknown_var`
split an unknown token's fields, and a HOL variable's context suffix, by a
walk over its characters that tracks bracket depth (`_split_top`), and
read each atom of a permission set or context on its own
(`_atom_list_text`): the reference for `frontend.parse_unknown_text` and
`frontend.parse_hol_var`, which cut a well-formed token with `str.split`
and read each atom list with one `findall`, checked by one `fullmatch`.
Both give the same value, or raise the same message.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Mapping

from nomhol.atoms import (Atom, CofinAtomSet, Perm, Renaming, fresh_atoms,
                          permission_set, set_subset)
from nomhol import frontend as F
from nomhol.frontend import render
from nomhol.hol import (App, ArrowT, AtomVar, Const, HTup, HolTerm, HolType,
                        HolTypeError, HolVar, Lam, PlainVar, TupleT, UnkVar, Var,
                        name_sort_type, sort_to_type)
from nomhol.pnl import (AbsSort, AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        NameSort, PnlSignature, Pred, Sus, Tup,
                        TupleSort, Unknown, free_atoms, free_unknowns,
                        alpha_key, perm_act)
from nomhol import hol as H
from nomhol import semantics as S
from nomhol.semantics import (AtomV, BoolV, EnumerationError, FnV, RenElem,
                              RenV, SemanticsError, TupV, UnboundVariableError,
                              abstract_atoms, as_atom, as_bool, as_ren,
                              default_window, merge_ren_tuple, mk_ren,
                              pmss_window, supp, supp_sem)
from nomhol import sexpr
from nomhol.sexpr import Row, SexprError, Sym, _error

from spec import Perm2, extend, perm2_act, updated


def _perms_agree_on_pmss(p1: Perm, p2: Perm, pmss) -> bool:
    for a in p1.nontriv | p2.nontriv:
        if a in pmss and p1(a) != p2(a):
            return False
    return True


def alpha_eq(x, y) -> bool:
    """Nominal alpha-equivalence of terms and propositions."""
    if x is y:
        return True
    match (x, y):
        case (AtomT(a), AtomT(b)):
            return a == b
        case (Tup(xs), Tup(ys)):
            return len(xs) == len(ys) and all(alpha_eq(a, b) for a, b in zip(xs, ys))
        case (Former(f, a), Former(g, b)):
            return f == g and alpha_eq(a, b)
        case (AbsT(a, r), AbsT(b, s)):
            if a == b:
                return alpha_eq(r, s)
            if a.sort != b.sort or b in free_atoms(r):
                return False
            return alpha_eq(perm_act(Perm.swap(b, a), r), s)
        case (Sus(p1, u1), Sus(p2, u2)):
            return u1 == u2 and _perms_agree_on_pmss(p1, p2, u1.pmss)
        case (Bot(), Bot()):
            return True
        case (Imp(a1, b1), Imp(a2, b2)):
            return alpha_eq(a1, a2) and alpha_eq(b1, b2)
        case (Pred(p, a), Pred(q, b)):
            return p == q and alpha_eq(a, b)
        case (All(u1, b1), All(u2, b2)):
            if u1 == u2:
                return alpha_eq(b1, b2)
            if u1.sort != u2.sort or u1.pmss != u2.pmss or u2 in free_unknowns(b1):
                return False
            return alpha_eq(perm2_act(Perm2.swap(u2, u1), b1), b2)
    return False


def _alpha(t, u, env_t: dict, env_u: dict, level: int) -> bool:
    match (t, u):
        case (Var(v), Var(w)):
            lt, lu = env_t.get(v), env_u.get(w)
            if lt is None and lu is None:
                return v == w
            return lt == lu
        case (Lam(v, b1), Lam(w, b2)):
            if var_type(v) != var_type(w):
                return False
            et = dict(env_t)
            eu = dict(env_u)
            et[v] = level
            eu[w] = level
            return _alpha(b1, b2, et, eu, level + 1)
        case (App(f1, a1), App(f2, a2)):
            return _alpha(f1, f2, env_t, env_u, level) and \
                _alpha(a1, a2, env_t, env_u, level)
        case (HTup(xs), HTup(ys)):
            return len(xs) == len(ys) and all(
                _alpha(x, y, env_t, env_u, level) for x, y in zip(xs, ys))
        case (Const(n1, ty1), Const(n2, ty2)):
            return n1 == n2 and ty1 == ty2
    return False


def var_type(v: HolVar) -> HolType:
    """The type of v, built from its parts: the reference for the `type`
    each `nomhol.hol` variable computes when it is built."""
    match v:
        case AtomVar(a):
            return name_sort_type(a.sort)
        case PlainVar(ty, _):
            return ty
        case UnkVar(unk, ctx):
            ty = sort_to_type(unk.sort)
            for a in reversed(ctx):
                ty = ArrowT(name_sort_type(a.sort), ty)
            return ty
    raise TypeError(f"not a variable: {type(v).__name__}")


def hol_type_of(t: HolTerm) -> HolType:
    match t:
        case Var(v):
            return var_type(v)
        case Lam(v, body):
            return ArrowT(var_type(v), hol_type_of(body))
        case App(fn, arg):
            fty, aty = hol_type_of(fn), hol_type_of(arg)
            match fty:
                case ArrowT(want, res):
                    if want != aty:
                        raise HolTypeError(f"application expects {want!r}, got {aty!r}", t)
                    return res
            raise HolTypeError(f"applying a non-function of type {fty!r}", t)
        case HTup(items):
            return TupleT(tuple(hol_type_of(r) for r in items))
        case Const(_, ty):
            return ty
    raise HolTypeError(f"not a term: {type(t).__name__}")


def hol_alpha_eq(t, u) -> bool:
    """Alpha-equivalence of typed-lambda terms."""
    return _alpha(t, u, {}, {}, 0)


def hol_subst_parallel(t: HolTerm, mapping: Mapping) -> HolTerm:
    """t with each variable of `mapping` replaced by its image at once,
    every node on the way rebuilt; a binder that would capture a free
    variable of an image is renamed by `hol._fresh_var_like`.  The
    reference for `hol._subst`, which keeps each subterm it does not
    change."""
    mapping = {v: u for v, u in mapping.items() if u != Var(v)}
    return _subst(t, mapping) if mapping else t


def _subst(t, mapping: dict):
    match t:
        case Var(v):
            return mapping.get(v, t)
        case Const(_, _):
            return t
        case App(fn, arg):
            return App(_subst(fn, mapping), _subst(arg, mapping))
        case HTup(items):
            return HTup(tuple(_subst(r, mapping) for r in items))
        case Lam(v, body):
            inner = {w: u for w, u in mapping.items() if w != v}
            inner = {w: u for w, u in inner.items() if w in H.fv(body)}
            if not inner:
                return t
            danger = frozenset().union(*(H.fv(u) for u in inner.values()))
            if v in danger:
                avoid = danger | H.fv(body) | frozenset(inner)
                v2 = H._fresh_var_like(v, avoid)
                inner[v] = Var(v2)
                return Lam(v2, _subst(body, inner))
            return Lam(v, _subst(body, inner))
    raise TypeError(f"not a term: {type(t).__name__}")


def whnf(t):
    """The weak head normal form, leftmost-outermost."""
    while True:
        match t:
            case App(fn, arg):
                fn = whnf(fn)
                match fn:
                    case Lam(v, body):
                        t = hol_subst_parallel(body, {v: arg})
                    case _:
                        return App(fn, arg)
            case _:
                return t


def nf(t):
    """The beta-normal form of a typed term, every node built anew."""
    t = whnf(t)
    match t:
        case Var(_) | Const(_, _):
            return t
        case Lam(v, body):
            return Lam(v, nf(body))
        case App(fn, arg):
            return App(nf(fn), nf(arg))
        case HTup(items):
            return HTup(tuple(nf(r) for r in items))
    raise TypeError(f"not a term: {t!r}")


def alphabeta_eq(t, u) -> bool:
    """Alpha-beta equality of typed-lambda terms of one type."""
    if hol_type_of(t) != hol_type_of(u):
        raise HolTypeError("comparing terms of different types")
    return hol_alpha_eq(nf(t), nf(u))


def render_derivation(node, indent: int = 0) -> str:
    """A derivation's text, each formula occurrence printed by itself."""
    pad = " " * indent
    seq = node.concl
    left = "".join(" " + render(p) for p in seq.left)
    right = "".join(" " + render(p) for p in seq.right)
    parts = [f"{pad}(rule {node.rule}", f"{pad}  (concl (seq (left{left}) (right{right})))"]
    if node.li is not None:
        parts.append(f"{pad}  (li {node.li})")
    if node.ri is not None:
        parts.append(f"{pad}  (ri {node.ri})")
    if not node.perm.is_identity:
        parts.append(f"{pad}  (perm {render(node.perm)})")
    if node.witness is not None:
        parts.append(f"{pad}  (witness {render(node.witness)})")
    for c in node.children:
        parts.append(render_derivation(c, indent + 2))
    return "\n".join(parts) + ")"


def dedup(props, eq) -> tuple:
    """The first formula of each equality class, in order."""
    out: list = []
    for p in props:
        if not any(eq(p, q) for q in out):
            out.append(p)
    return tuple(out)


def aset_eq(xs, ys, eq) -> bool:
    """xs and ys are equal as sets up to eq."""
    return all(any(eq(x, y) for y in ys) for x in xs) and \
        all(any(eq(x, y) for x in xs) for y in ys)


def _complete_bijection(f: Mapping[Atom, Atom]) -> Perm:
    """Extend an injective sort-preserving finite map to a permutation."""
    dom, img = set(f), set(f.values())
    moves = dict(f)
    missing = sorted(img - dom)
    free = sorted(dom - img)
    by_sort: dict = {}
    for a in free:
        by_sort.setdefault(a.sort, []).append(a)
    for a in missing:
        moves[a] = by_sort[a.sort].pop(0)
    return Perm({a: b for a, b in moves.items() if a != b})


def ren_eq_search(e1: RenElem, e2: RenElem) -> bool:
    """Decide whether two representative pairs denote the same element of the
    free extension, by searching for a sort-respecting support bijection.
    Takes k! steps on a support of k atoms."""
    s1, s2 = sorted(supp(e1.val)), sorted(supp(e2.val))
    if len(s1) != len(s2):
        return False
    groups1: dict = {}
    groups2: dict = {}
    for a in s1:
        groups1.setdefault(a.sort, []).append(a)
    for a in s2:
        groups2.setdefault(a.sort, []).append(a)
    if set(groups1) != set(groups2) or any(
            len(groups1[k]) != len(groups2[k]) for k in groups1):
        return False
    sorts = sorted(groups1)
    pools = [itertools.permutations(groups2[k]) for k in sorts]
    want = alpha_key(e2.val)
    for combo in itertools.product(*pools):
        f = {}
        for k, perm_targets in zip(sorts, combo):
            f.update(dict(zip(groups1[k], perm_targets)))
        pi = _complete_bijection(f)
        if alpha_key(perm_act(pi, e1.val)) != want:
            continue
        if all(e1.rho(a) == e2.rho(f[a]) for a in s1):
            return True
    return False


def fn_apply(f, a):
    """Application that freshens an abstraction element's binder whenever it
    is renamed or equals the argument atom, then re-canonicalises."""
    match f:
        case RenV(RenElem(rho, AbsT(bound, body))):
            b = as_atom(a)
            if bound in rho.nontriv or bound == b:
                avoid = free_atoms(body).union(
                    CofinAtomSet.finite(rho.nontriv | {b, bound}))
                c = fresh_atoms([bound.sort], avoid)[0]
                body = perm_act(Perm.swap(c, bound), body)
                bound = c
            return RenV(mk_ren(Renaming.atomic(bound, b).compose(rho), body))
        case RenV(_):
            raise SemanticsError(f"applying a non-abstraction element: {f!r}")
        case FnV():
            return f.apply(a)
    raise SemanticsError(f"not a function value: {f!r}")


def enumerate_ground(sig: PnlSignature, sort, atoms, depth: int):
    """All ground terms of the sort over the atom window, with former nesting
    bounded by depth (abstraction binders may use one extra fresh atom)."""
    atoms = list(atoms)
    memo: dict = {}

    def go(s, d):
        key = (s, d)
        if key in memo:
            return memo[key]
        out = []
        match s:
            case NameSort(n):
                out = [AtomT(a) for a in atoms if a.sort == n]
            case BaseSort(b):
                if d > 0:
                    for f in sorted(sig.term_formers):
                        arg, res = sig.term_formers[f]
                        if res != b:
                            continue
                        out.extend(Former(f, t) for t in go(arg, d - 1))
            case TupleSort(items):
                pools = [go(r, d) for r in items]
                out = [Tup(combo) for combo in itertools.product(*pools)]
            case AbsSort(n, body):
                binders = [a for a in atoms if a.sort == n]
                binders += fresh_atoms([n], binders)
                out = [AbsT(a, t) for a in binders for t in go(body, d)]
            case _:
                raise TypeError(f"not a sort: {s!r}")
        memo[key] = out
        return out

    return go(sort, depth)


def flat(rows: list, node) -> str:
    """A reader node printed on one line through its table `rows`, single
    spaces between items."""
    if isinstance(node, str):
        return str(node)
    return "(" + " ".join(flat(rows, x) for x in rows[node]) + ")"


def parse_one(text: str) -> tuple:
    """`sexpr.parse_one`, one `sexpr._FAST` match per token: the table and
    the root of the one form in the text, one row for each distinct list.
    Text that is not one form, or holds a stray brace, is read again by
    `sexpr.parse_all`."""
    stack: List[list] = []   # the enclosing lists' children
    items: list = []         # the open list's children; the forms at top level
    sids: dict = {}          # a distinct list's children -> its row
    for tok in sexpr._FAST.findall(text, sexpr._SKIP.match(text).end()):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                break
            sid = sids.setdefault(tuple(items), len(sids))
            items = stack.pop()
            items.append(sid)
        elif tok == "{" or tok == "}":
            break
        else:
            items.append(tok)
    else:
        if not stack and len(items) == 1:
            return list(sids), items[0]
    rows, forms = sexpr.parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", forms[1].line, forms[1].col)
    return rows, forms[0]


def _tokens(text: str) -> Iterator[tuple]:
    """(kind, token, offset) of each parenthesis and symbol."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, c, i
            i += 1
        else:
            start, depth = i, 0
            while i < n:
                c = text[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    if depth == 0:
                        raise _error("unbalanced '}' in symbol", text, i)
                    depth -= 1
                elif depth == 0 and (c in "() \t\r\n;"):
                    break
                i += 1
            if depth != 0:
                raise _error("unterminated '{' in symbol", text, start)
            yield "sym", text[start:i], start


def _parse_chars(text: str) -> tuple:
    """`parse_all`, one character at a time: the same table and forms, and
    the located error for text that is not a sequence of forms."""
    stack: List[tuple] = []  # open lists: (items, offset)
    rows: list = []
    out: list = []
    for kind, tok, pos in _tokens(text):
        if kind == "(":
            stack.append(([], pos))
            continue
        if kind == ")":
            if not stack:
                raise _error("unmatched ')'", text, pos)
            items, start = stack.pop()
            rows.append(tuple(items))
            node = Row(len(rows) - 1, start, text)
        else:
            node = Sym(tok, pos, text)
        (stack[-1][0] if stack else out).append(node)
    if stack:
        raise _error("unclosed '('", text, stack[-1][1])
    if not out:
        raise _error("empty input", text, 0)
    return rows, out


# ---------------------------------------------------------------------------
# the tree-walking evaluators

def match_pattern(pattern, term, binds=None):
    """First-order matching of a pattern (with unknowns as pattern variables)
    against a ground term, up to alpha; returns the bindings or None."""
    binds = {} if binds is None else binds
    match (pattern, term):
        case (Sus(pi, u), _):
            cand = perm_act(pi.inverse(), term)
            if u in binds:
                return binds if alpha_eq(binds[u], cand) else None
            if not set_subset(free_atoms(cand), u.pmss):
                return None
            out = dict(binds)
            out[u] = cand
            return out
        case (AtomT(a), AtomT(b)):
            return binds if a == b else None
        case (Tup(ps), Tup(ts)):
            if len(ps) != len(ts):
                return None
            for p, t in zip(ps, ts):
                binds = match_pattern(p, t, binds)
                if binds is None:
                    return None
            return binds
        case (Former(f, p), Former(g, t)):
            return match_pattern(p, t, binds) if f == g else None
        case (AbsT(a, pb), AbsT(b, tb)):
            if a == b:
                return match_pattern(pb, tb, binds)
            if a.sort != b.sort or a in free_atoms(tb):
                return None
            return match_pattern(pb, perm_act(Perm.swap(a, b), tb), binds)
    return None


def spec_apply(spec, x) -> int:
    """The value of the first clause whose pattern matches x, else the
    default."""
    for p, v in spec.clauses:
        if match_pattern(p, x) is not None:
            return v
    return spec.default


def _forall_ground(sig, sort, atoms, depth: int, holds) -> int:
    if depth <= 0:
        raise EnumerationError("a quantifier requires a positive depth bound")
    return int(all(map(holds, enumerate_ground(sig, sort, atoms, depth))))


def eval_pnl_term(model, val, r):
    match r:
        case AtomT(_):
            return r
        case Tup(items):
            return Tup(tuple(eval_pnl_term(model, val, x) for x in items))
        case Former(f, arg):
            return Former(f, eval_pnl_term(model, val, arg))
        case AbsT(a, body):
            return AbsT(a, eval_pnl_term(model, val, body))
        case Sus(pi, x):
            return perm_act(pi, val.get(model.sig, x))
    raise TypeError(f"not a term: {r!r}")


def eval_pnl_prop(model, val, phi, depth: int = 0):
    """Returns (value, exact); exact is True iff phi is quantifier-free."""
    match phi:
        case Bot():
            return 0, True
        case Imp(p, q):
            vp, ep = eval_pnl_prop(model, val, p, depth)
            vq, eq_ = eval_pnl_prop(model, val, q, depth)
            return max(1 - vp, vq), ep and eq_
        case Pred(name, arg):
            spec = model.spec(name)
            return spec_apply(spec, eval_pnl_term(model, val, arg)), True
        case All(x, body):
            window = pmss_window(x.pmss, model.sig.name_sorts)
            return _forall_ground(
                model.sig, x.sort, window, depth,
                lambda t: eval_pnl_prop(model, updated(val, x, t), body, depth)[0]
            ), False
    raise TypeError(f"not a proposition: {phi!r}")


def _imp(x):
    bx = as_bool(x)
    return FnV(lambda y: BoolV(max(1 - bx, as_bool(y))))


class HolEvaluator:
    """Evaluates higher-order terms over a Herbrand model by walking them.
    The `exact` flag drops to False whenever a quantifier is evaluated by
    bounded enumeration."""

    def __init__(self, model, depth: int = 0):
        self.model = model
        self.depth = depth
        self.exact = True

    def _lookup(self, env, v):
        got = env(v)
        if got is not None:
            return got
        if isinstance(v, H.AtomVar):
            return AtomV(v.atom)
        raise UnboundVariableError(f"unbound variable {v!r}")

    def _const_value(self, c):
        if c.name == "bot":
            return BoolV(0)
        if c.name == "imp":
            return FnV(_imp)
        if c.name == "forall":
            match c.type:
                case H.ArrowT(H.ArrowT(domain, _), _):
                    return FnV(lambda g: self._forall_generic(domain, g))
            raise SemanticsError(f"malformed quantifier constant {c!r}")
        if c.name.startswith("g_"):
            base = c.name[2:]
            if base in self.model.sig.term_formers:
                def former(a):
                    e = as_ren(a)
                    return RenV(RenElem(e.rho, Former(base, e.val)))
                return FnV(former)
            if base in self.model.sig.prop_formers:
                spec = self.model.spec(base)
                support, sets = spec.tells_apart

                def pred(a):
                    return BoolV(spec_apply(spec, S._strip_for(as_ren(a), support, sets).val))
                return FnV(pred, support)
        raise SemanticsError(f"uninterpreted constant {c.name}")

    def _forall_generic(self, domain, g):
        if domain == H.O:
            return BoolV(int(all(as_bool(fn_apply(g, BoolV(b))) for b in (0, 1))))
        sort = H.type_to_sort(self.model.sig, domain)
        if sort is None:
            raise EnumerationError(
                f"quantifier domain {domain!r} is not enumerable")
        self.exact = False
        return BoolV(_forall_ground(
            self.model.sig, sort, default_window(self.model.sig), self.depth,
            lambda t: as_bool(fn_apply(g, RenV(RenElem(Renaming.identity(), t))))))

    def _forall_unknown(self, v, body, env):
        self.exact = False
        x = v.unknown
        window = pmss_window(x.pmss, self.model.sig.name_sorts)

        def holds(t):
            cand = RenV(RenElem(Renaming.identity(), abstract_atoms(v.ctx, t)))
            return as_bool(self.eval(body, extend(env, v, cand)))

        return BoolV(_forall_ground(self.model.sig, x.sort, window,
                                    self.depth, holds))

    def eval(self, t, env):
        match t:
            case H.Var(v):
                return self._lookup(env, v)
            case H.Const(_, _):
                return self._const_value(t)
            case H.App(H.Const("forall", _), H.Lam(v, body)) if isinstance(v, H.UnkVar):
                return self._forall_unknown(v, body, env)
            case H.Lam(v, body):
                return self._eval_lam(v, body, env)
            case H.App(fn, arg):
                return fn_apply(self.eval(fn, env), self.eval(arg, env))
            case H.HTup(items):
                vals = [self.eval(r, env) for r in items]
                if self._all_image(items):
                    try:
                        return RenV(merge_ren_tuple([as_ren(v) for v in vals]))
                    except SemanticsError:
                        pass
                return TupV(tuple(vals))
        raise TypeError(f"not a term: {t!r}")

    def _all_image(self, items):
        try:
            return all(
                H.type_to_sort(self.model.sig, hol_type_of(r)) is not None
                for r in items)
        except H.HolTypeError:
            return False

    def _eval_lam(self, v, body, env):
        vt = var_type(v)
        try:
            whole = H.ArrowT(vt, hol_type_of(body))
            image = isinstance(H.type_to_sort(self.model.sig, whole), AbsSort)
        except H.HolTypeError:
            image = False
        if image and isinstance(v, H.AtomVar):
            a = v.atom
            others = frozenset()
            for w in H.fv(body) - {v}:
                others |= supp_sem(self._lookup(env, w))
            if a in others:
                avoid = others | {w.atom for w in H.fv(body) if isinstance(w, H.AtomVar)}
                c = fresh_atoms([a.sort], avoid)[0]
                body = hol_subst_parallel(body, {v: H.Var(H.AtomVar(c))})
                a = c
            inner = extend(env, H.AtomVar(a), AtomV(a))
            e = as_ren(self.eval(body, inner))
            rho = e.rho.restrict(supp(e.val) - {a})
            return RenV(RenElem(rho, AbsT(a, e.val)))
        support = frozenset()
        for w in H.fv(body) - {v}:
            support |= supp_sem(self._lookup(env, w))
        return FnV(lambda a: self.eval(body, extend(env, v, a)), support)


def eval_hol(model, env, t, depth: int = 0):
    """Returns (value, exact)."""
    ev = HolEvaluator(model, depth)
    out = ev.eval(t, env)
    return out, ev.exact


# ---------------------------------------------------------------------------
# reading unknown tokens a character at a time

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
        F._err(where, f"unbalanced brackets in {text!r}")
    return parts


def _atom_list_text(sig: PnlSignature, text: str, where) -> tuple:
    out = []
    for part in filter(None, text.split(",")):
        a = F.parse_atom_text(part)
        if a is None:
            F._err(where, f"bad atom {part!r} in permission set")
        out.append(F._declared(sig, a, where))
    return tuple(out)


def _parse_pmss_text(sig: PnlSignature, text: str, where) -> CofinAtomSet:
    m = F._PMSS_RE.match(text)
    if not m:
        F._err(where, f"expected perm(+{{..}}-{{..}}), got {text!r}")
    try:
        return permission_set(plus=_atom_list_text(sig, m.group(1), where),
                              minus=_atom_list_text(sig, m.group(2), where))
    except ValueError as e:
        F._err(where, str(e))


def parse_unknown_text(sig: PnlSignature, text: str, where) -> Unknown:
    if not (text.startswith("X{") and text.endswith("}")):
        F._err(where, f"expected an unknown like X{{iota;perm(+{{}}-{{}});0}}, got {text!r}")
    parts = _split_top(text[2:-1], ";", where)
    if len(parts) != 3:
        F._err(where, f"an unknown has three ';'-separated fields, got {text!r}")
    sort = F.parse_sort_text(sig, parts[0], where)
    pmss = _parse_pmss_text(sig, parts[1], where)
    if not F.INT_RE.match(parts[2]):
        F._err(where, f"bad unknown index {parts[2]!r}")
    return Unknown(sort, pmss, int(parts[2]))


def parse_hol_unknown_var(sig: PnlSignature, text: str, where) -> H.UnkVar:
    """An X{..}_[ctx] symbol, as `frontend.parse_hol_var` reads one."""
    parts = _split_top(text, "_", where)
    ctx = parts[1] if len(parts) == 2 else "[]"
    if len(parts) > 2 or not (ctx.startswith("[") and ctx.endswith("]")):
        F._err(where, f"bad context suffix in {text!r}")
    unk = parse_unknown_text(sig, parts[0], where)
    try:
        return H.UnkVar(unk, _atom_list_text(sig, ctx[1:-1], where))
    except ValueError as e:
        F._err(where, str(e))
