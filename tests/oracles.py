"""Pairwise reference implementations of the equalities and sequent
operations that nomhol decides by canonical keys.

Each compares two objects directly, without computing a key: nominal
alpha-equivalence by swapping binders (Urban, Pitts and Gabbay's suspension
clause for unknowns), typed-lambda alpha-equivalence by binder levels, and
alpha-beta equality through both normal forms, and equality of suspended
renamings by searching all support bijections.  Tests hold the key-based
versions in `nomhol.pnl`, `nomhol.hol`, `nomhol.kernel` and
`nomhol.semantics` to these.  `dedup` says what a sequent side that repeats
a formula means: the side without the copies.

The eager, memoised ground-term enumerator is the reference for the lazy one
in `nomhol.semantics`: the same terms in the same order, built as lists.
`flat` prints a reader node, the reference for `nomhol.sexpr`'s structural
ids: two lists of one read share a sid exactly when they print the same.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from nomhol.atoms import Atom, Perm, fresh_atoms
from nomhol.hol import (App, Const, HTup, HolTypeError, Lam, Var,
                        beta_normalize, hol_type_of, var_type)
from nomhol.pnl import (AbsSort, AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        NameSort, Perm2, PnlSignature, Pred, Sus, Tup,
                        TupleSort, free_atoms, free_unknowns, alpha_key,
                        perm2_act, perm_act)
from nomhol.semantics import RenElem, supp
from nomhol.sexpr import SNode, Sym


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


def hol_alpha_eq(t, u) -> bool:
    """Alpha-equivalence of typed-lambda terms."""
    return _alpha(t, u, {}, {}, 0)


def alphabeta_eq(t, u) -> bool:
    """Alpha-beta equality of typed-lambda terms of one type."""
    if hol_type_of(t) != hol_type_of(u):
        raise HolTypeError("comparing terms of different types")
    return hol_alpha_eq(beta_normalize(t), beta_normalize(u))


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


def flat(node: SNode) -> str:
    """A reader node printed on one line, single spaces between items."""
    if isinstance(node, Sym):
        return node.text
    return "(" + " ".join(flat(x) for x in node.items) + ")"
