"""Capture typing: which atoms must a translation context pass as arguments
so no information about suspended permutations is lost.

A context is a finite list of pairwise-distinct atoms; checking a term
accumulates the atoms abstracted above the current position.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .atoms import Atom, CofinAtomSet
from . import hol as H
from .hol import AtomVar, HolTerm, HolVar, UnkVar, Var, apps, lams
from .pnl import (AbsT, All, AtomT, Bot, Former, Imp, Pred, Sus, Tup,
                  Unknown)

CaptureContext = tuple  # of distinct Atoms, order significant


def make_context(atoms: Iterable[Atom]) -> CaptureContext:
    out = tuple(atoms)
    if len(set(out)) != len(out):
        raise ValueError("context atoms must be distinct")
    return out


def restrict_context(ctx: CaptureContext, pmss: CofinAtomSet) -> CaptureContext:
    return tuple(a for a in ctx if a in pmss)


def canonical_context(atoms: Iterable[Atom]) -> CaptureContext:
    return tuple(sorted(set(atoms)))


def capture_check(ctx: CaptureContext, x) -> bool:
    """Whether ctx passes every atom a translation of x must capture."""
    return capture_infer(x) <= set(ctx)


def capture_infer(x, abstracted: frozenset = frozenset()) -> frozenset:
    """The least atom set a capture context must contain: the atoms each
    suspension's unknown permits among those its permutation moves or an
    enclosing abstraction binds."""
    match x:
        case AtomT(_) | Bot():
            return frozenset()
        case Tup(items):
            return frozenset().union(
                *(capture_infer(r, abstracted) for r in items)) if items else frozenset()
        case Former(_, arg) | Pred(_, arg):
            return capture_infer(arg, abstracted)
        case AbsT(a, body):
            return capture_infer(body, abstracted | {a})
        case Sus(pi, unk):
            return frozenset(a for a in (pi.nontriv | abstracted) if a in unk.pmss)
        case Imp(p, q):
            return capture_infer(p, abstracted) | capture_infer(q, abstracted)
        case All(_, body):
            return capture_infer(body, abstracted)
    raise TypeError(f"not PNL syntax: {x!r}")


def capture_cover(sequents) -> CaptureContext:
    """One context that capture-checks every proposition of every sequent;
    a proposition object that recurs is inferred once."""
    needed: set = set()
    seen: dict = {}  # id -> proposition; holding it keeps its id unique
    for seq in sequents:
        for phi in (*seq.left, *seq.right):
            if id(phi) not in seen:
                seen[id(phi)] = phi
                needed |= capture_infer(phi)
    return canonical_context(needed)


def reindex_subst(ctx_from: CaptureContext, ctx_to: CaptureContext,
                  unknowns: Iterable[Unknown]) -> Mapping[HolVar, HolTerm]:
    """For each unknown X, map its ctx_from-indexed variable to the
    abstraction over ctx_from's restricted atoms whose body applies the
    ctx_to-indexed variable to ctx_to's restricted atoms."""
    out = {}
    for x in set(unknowns):
        d_from = restrict_context(ctx_from, x.pmss)
        d_to = restrict_context(ctx_to, x.pmss)
        v_from = UnkVar(x, d_from)
        v_to = UnkVar(x, d_to)
        body = apps(Var(v_to), *(Var(AtomVar(a)) for a in d_to))
        out[v_from] = lams([AtomVar(a) for a in d_from], body)
    return out


def _reindexed_var(ctx_from: CaptureContext, ctx_to: CaptureContext,
                   v: HolVar) -> Optional[UnkVar]:
    if isinstance(v, UnkVar) and v.ctx == restrict_context(ctx_from, v.unknown.pmss):
        return UnkVar(v.unknown, restrict_context(ctx_to, v.unknown.pmss))
    return None


def apply_reindex(ctx_from: CaptureContext, ctx_to: CaptureContext,
                  t: HolTerm) -> HolTerm:
    """Carry a ctx_from-translation to a ctx_to-translation.

    Free occurrences of a ctx_from-indexed unknown-variable are replaced by
    the reindex_subst entry; a binder over such a variable is itself rebound
    at ctx_to.  Atom variables in the replacement are deliberately capturable:
    the atoms of a translation context refer to whatever abstraction (if any)
    encloses the occurrence, exactly as in the translation itself."""
    match t:
        case H.Var(v):
            w = _reindexed_var(ctx_from, ctx_to, v)
            if w is None:
                return t
            d_from = v.ctx
            body = apps(Var(w), *(Var(AtomVar(a)) for a in w.ctx))
            return lams([AtomVar(a) for a in d_from], body)
        case H.Lam(v, body):
            w = _reindexed_var(ctx_from, ctx_to, v)
            return H.Lam(w if w is not None else v,
                         apply_reindex(ctx_from, ctx_to, body))
        case H.App(H.Const("forall", _), H.Lam(_, _) as lam):
            new_lam = apply_reindex(ctx_from, ctx_to, lam)
            return H.App(H.forall_const(H.var_type(new_lam.var)), new_lam)
        case H.App(fn, arg):
            return H.App(apply_reindex(ctx_from, ctx_to, fn),
                         apply_reindex(ctx_from, ctx_to, arg))
        case H.HTup(items):
            return H.HTup(tuple(apply_reindex(ctx_from, ctx_to, r) for r in items))
        case H.Const(_, _):
            return t
    raise TypeError(f"not a term: {t!r}")
