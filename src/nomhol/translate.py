"""Translation from the nominal syntax to the higher-order syntax: sorts to
types, formers to constants, suspended unknowns to context-applied variables,
and whole derivations rule-by-rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .capture import (CaptureContext, capture_cover, capture_infer,
                      make_context, restrict_context)
from . import hol as H
from . import kernel as K
from . import pnl as P


class TranslationError(Exception):
    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = path


@dataclass(frozen=True)
class TranslationEnv:
    source: P.PnlSignature
    target: H.HolSignature
    formers: Mapping[str, H.Const]   # each term- and proposition-former's constant


def translate_signature(sig: P.PnlSignature) -> TranslationEnv:
    """The translation environment; each former's constant is built here,
    once, and shared by every occurrence."""
    formers = {f: H.Const(f"g_{f}", H.ArrowT(H.sort_to_type(arg), H.name_sort_type(res)))
               for f, (arg, res) in sig.term_formers.items()}
    formers.update((p, H.Const(f"g_{p}", H.ArrowT(H.sort_to_type(arg), H.O)))
                   for p, arg in sig.prop_formers.items())
    consts = dict(H.BASE_SIGNATURE.constants)
    consts.update((c.name, c.type) for c in formers.values())
    return TranslationEnv(sig, H.HolSignature(consts), formers)


def translate(env: TranslationEnv, ctx: CaptureContext, x) -> H.HolTerm:
    match x:
        case P.AtomT(a):
            return H.Var(H.AtomVar(a))
        case P.Tup(items):
            return H.HTup(tuple(translate(env, ctx, r) for r in items))
        case P.Former(f, arg):
            return H.App(env.formers[f], translate(env, ctx, arg))
        case P.AbsT(a, body):
            return H.Lam(H.AtomVar(a), translate(env, ctx, body))
        case P.Sus(pi, unk):
            d_x = restrict_context(ctx, unk.pmss)
            head = H.Var(H.UnkVar(unk, d_x))
            return H.apps(head, *(H.Var(H.AtomVar(pi(a))) for a in d_x))
        case P.Bot():
            return H.BOT
        case P.Imp(p, q):
            return H.imp(translate(env, ctx, p), translate(env, ctx, q))
        case P.Pred(p, arg):
            return H.App(env.formers[p], translate(env, ctx, arg))
        case P.All(unk, body):
            v = H.UnkVar(unk, restrict_context(ctx, unk.pmss))
            return H.forall(v, translate(env, ctx, body))
    raise TypeError(f"not nominal syntax: {x!r}")


# ---------------------------------------------------------------------------
# derivation translation

def _merge_context(ctx: CaptureContext, needed) -> CaptureContext:
    extra = sorted(set(needed) - set(ctx))
    return make_context(tuple(ctx) + tuple(extra))


def _nodes(node: K.Node):
    """(path, node) for every node of a derivation, in preorder; an explicit
    stack, so deep derivations need no stack frame per level."""
    stack = [((), node)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (i,), node.children[i])
                     for i in reversed(range(len(node.children))))


@dataclass(frozen=True)
class TranslatedDerivation:
    tree: K.Node
    ctx: CaptureContext        # the caller's context
    ctx_full: CaptureContext   # the possibly-larger context actually used


def translate_derivation(env: TranslationEnv, node: K.Node,
                         ctx: CaptureContext = ()) -> TranslatedDerivation:
    _reject_equivariant_axioms(node)
    verdict = K.check_pnl(env.source, node, K.RESTRICTED)
    if not verdict:
        raise TranslationError(
            f"input derivation fails the restricted check: {verdict.message}",
            verdict.path)
    nodes = [n for _, n in _nodes(node)]
    needed = set(capture_cover(n.concl for n in nodes))
    for n in nodes:
        if n.rule == "alll" and n.witness is not None:
            needed |= set(capture_infer(n.witness))
    ctx_full = _merge_context(ctx, needed)
    once = K.by_object(lambda x: translate(env, ctx_full, x))
    tree = _translate_node(once, ctx_full, node)
    return TranslatedDerivation(tree, ctx, ctx_full)


def _reject_equivariant_axioms(node: K.Node):
    for path, n in _nodes(node):
        if n.rule == "ax" and not n.perm.is_identity:
            phi = n.concl.left[n.li] if n.li is not None and \
                n.li < len(n.concl.left) else None
            if phi is None or not P.alpha_eq(P.perm_act(n.perm, phi), phi):
                raise TranslationError(
                    "equivariant axiom steps (a non-identity permutation changing "
                    "the principal formula) have no higher-order counterpart", path)


def _translate_node(once, ctx, node: K.Node) -> K.Node:
    """The node translated under ctx; `once` translates a formula or witness
    object, each object once per derivation."""
    concl = K.Sequent(tuple(map(once, node.concl.left)),
                      tuple(map(once, node.concl.right)))
    witness = None
    if node.rule == "alll":
        phi = node.concl.left[node.li]
        d_x = restrict_context(ctx, phi.unknown.pmss)
        witness = H.lams([H.AtomVar(a) for a in d_x], once(node.witness))
    children = tuple(_translate_node(once, ctx, c) for c in node.children)
    return K.Node(rule=node.rule, concl=concl, children=children,
                  li=node.li, ri=node.ri, witness=witness)
