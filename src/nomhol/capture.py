"""Capture typing: which atoms must a translation context pass as arguments
so no information about suspended permutations is lost.

A context is a finite list of pairwise-distinct atoms; checking a term
accumulates the atoms abstracted above the current position.
"""

from __future__ import annotations

from typing import Iterable

from .atoms import Atom, CofinAtomSet
from .pnl import AbsT, All, AtomT, Bot, Former, Imp, Pred, Sus, Tup

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
