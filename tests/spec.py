"""The paper's metatheory, as an executable specification.

The `nomhol` command checks proofs, translates and evaluates; it never runs
what is here.  These are the operations in which the paper states its
lemmas about those parts, kept beside the tests that check the lemmas and
written over the library's own syntax and values.  Each entry names the
acceptance test (`tests/test_acceptance.py`) that checks it.

- Freshening (`freshening_pair`): a renaming moved clear of a set and
  back, which renaming a function value defers through.  Checked by
  `test_atoms.py::check_pair` and in 8, `test_renaming_set_laws`.
- Re-indexing between capture contexts (`reindex_subst`, `apply_reindex`):
  a translation at a larger context carried to a smaller one.  3,
  `test_reindexing_between_contexts`; 5,
  `test_end_to_end_derivation_translation`, for the end-sequent of every
  translated corpus derivation.
- Substitution and permutation of higher-order terms (`hol_subst`,
  `hol_perm_act`): translation commutes with instantiating an unknown and
  with permuting atoms.  4, `test_substitution_commutation`; 9,
  `test_equivariance_and_support_invariants`.
- The atomic probe (`hol_atomic_derivable`): exact derivability of a
  sequent of atomic formulas, by which the translated end-sequent of the
  equivariance-using derivation is underivable.  5.
- Renaming actions (`ground_renaming_action` on ground terms,
  `ren_act_sem` and `sem_eq` on semantic values, `rename_valuation` on
  valuations): the renaming-set laws and the counterexamples to their naive
  forms, 8; equivariance and support invariants of both evaluators, 9.
- The guard route for full PNL's equivariant axioms: signature saturation
  (`saturate_signature`, `pi_translate`), erasure of the guard from a
  derivation (`erase_pi`) and partial application of a model at the guard
  (`convert_model`, by `compile_pattern`).  10,
  `test_guard_pipeline_and_model_conversion`.  `compile_pattern` runs the
  library's own matcher, `semantics._pattern_test`, so
  `test_semantics.py::test_compiled_matcher_agrees_with_the_oracle` tests
  what `eval` and `square` run.
- Valuations and substitutions as maps (`updated`, `extend`, `subst_map`,
  `subst_validate`), in which the substitution lemma and the relevance
  lemmas of 9 are stated, and the value of a higher-order term under one
  (`eval_hol`), which `square_check` computes beside the direct value over
  the same candidate pools.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from nomhol import hol as H
from nomhol import kernel as K
from nomhol import pnl as P
from nomhol.atoms import (Atom, CofinAtomSet, Perm, Renaming, fresh_atoms,
                          set_subset)
from nomhol.capture import CaptureContext, restrict_context
from nomhol.hol import (App, AtomVar, Const, HTup, HolTerm, HolTypeError,
                        HolVar, Lam, UnkVar, Var, apps, lams, var_type)
from nomhol.kernel import Sequent
from nomhol.pnl import (AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        PnlSignature, PnlSubst, PnlProp, Pred, SignatureError,
                        SortError, Sus, Tup, TupleSort, Unknown, free_atoms,
                        free_unknowns, perm_act, sort_of, subst_apply)
from nomhol.semantics import (AtomV, BoolV, FnV, HerbrandModel, HolEvaluator,
                              PredSpec, RenV, SemanticsError, SemVal, TupV,
                              Valuation, _pattern_test, as_ren, mk_ren, ren_eq,
                              supp, supp_sem)
from nomhol.translate import TranslationError, _nodes


# ---------------------------------------------------------------------------
# freshening

def freshening_pair(atoms: Iterable[Atom], permitted: CofinAtomSet,
                    avoid: Iterable[Atom] = ()):
    """A pair (r1, r2) moving `atoms` clear of `permitted` ∪ `atoms` ∪ `avoid`
    and back: dom(r1) = atoms, dom(r2) = img(r1), r2∘r1 fixes every input atom.
    """
    atoms = sorted(set(atoms))
    blocked = permitted.union(CofinAtomSet.finite(set(atoms) | set(avoid)))
    targets = fresh_atoms([a.sort for a in atoms], blocked)
    r1 = Renaming(dict(zip(atoms, targets)))
    r2 = Renaming(dict(zip(targets, atoms)))
    return r1, r2


# ---------------------------------------------------------------------------
# re-indexing between capture contexts

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


# ---------------------------------------------------------------------------
# substitution and permutation of higher-order terms

def hol_subst(t: HolTerm, v: HolVar, u: HolTerm) -> HolTerm:
    if u.type != var_type(v):
        raise HolTypeError(f"substituting {u!r} of wrong type for {v!r}")
    return H._subst(t, {v: u}, [None])


def hol_perm_act(pi: Perm, t: HolTerm) -> HolTerm:
    """Permutation of atom-variables, bound and free alike."""
    match t:
        case Var(AtomVar(a)):
            return Var(AtomVar(pi(a)))
        case Var(_) | Const(_, _):
            return t
        case Lam(AtomVar(a), body):
            return Lam(AtomVar(pi(a)), hol_perm_act(pi, body))
        case Lam(v, body):
            return Lam(v, hol_perm_act(pi, body))
        case App(fn, arg):
            return App(hol_perm_act(pi, fn), hol_perm_act(pi, arg))
        case HTup(items):
            return HTup(tuple(hol_perm_act(pi, r) for r in items))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# the atomic probe

def _hol_atomic(phi) -> bool:
    """No logical constants anywhere: only axiom steps could apply."""
    match phi:
        case H.Const(name, _):
            return name not in ("bot", "imp", "forall")
        case H.Var(_):
            return True
        case H.App(f, a):
            return _hol_atomic(f) and _hol_atomic(a)
        case H.Lam(_, b):
            return _hol_atomic(b)
        case H.HTup(items):
            return all(_hol_atomic(r) for r in items)
    return False


def hol_atomic_derivable(seq: Sequent) -> Optional[bool]:
    """Exact derivability for sequents of purely atomic formulas; None when
    a logical constant makes the question proof-search-shaped."""
    left, right = ([H.normal_key(p) for p in side] for side in (seq.left, seq.right))
    if not all(_hol_atomic(nf) for _, nf in left + right):
        return None
    return not {k for k, _ in left}.isdisjoint(k for k, _ in right)


# ---------------------------------------------------------------------------
# renaming actions

def ground_renaming_action(rho: Renaming, x):
    """Apply a renaming to a ground term, freshening binders that clash."""
    if rho.is_identity:
        return x
    match x:
        case AtomT(a):
            return AtomT(rho(a))
        case Tup(items):
            return Tup(tuple(ground_renaming_action(rho, r) for r in items))
        case Former(f, arg):
            return Former(f, ground_renaming_action(rho, arg))
        case AbsT(a, body):
            if a in rho.nontriv:
                avoid = free_atoms(body).union(CofinAtomSet.finite(rho.nontriv))
                c = fresh_atoms([a.sort], avoid)[0]
                body = perm_act(Perm.swap(c, a), body)
                a = c
            return AbsT(a, ground_renaming_action(rho, body))
    raise TypeError(f"not a ground term: {x!r}")


def sem_eq(v1: SemVal, v2: SemVal) -> bool:
    """Equality of semantic values.  Tuple values (the componentwise product)
    are compared componentwise; a tuple value is compared against a merged
    suspension only by coercion through the natural map."""
    match (v1, v2):
        case (BoolV(a), BoolV(b)):
            return a == b
        case (TupV(xs), TupV(ys)):
            return len(xs) == len(ys) and all(
                sem_eq(a, b) for a, b in zip(xs, ys))
        case (FnV(), _) | (_, FnV()):
            raise SemanticsError("function values are not comparable")
    return ren_eq(as_ren(v1), as_ren(v2))


def ren_act_sem(rho: Renaming, v: SemVal) -> SemVal:
    if rho.is_identity:
        return v
    match v:
        case BoolV(_):
            return v
        case AtomV(a):
            return AtomV(rho(a))
        case RenV(e):
            return RenV(mk_ren(rho.compose(e.rho), e.val))
        case TupV(items):
            return TupV(tuple(ren_act_sem(rho, r) for r in items))
        case FnV(f, support):
            def renamed(a: SemVal) -> SemVal:
                blocked = CofinAtomSet.finite(supp_sem(a) | support)
                r1, r2 = freshening_pair(rho.nontriv, blocked)
                return ren_act_sem(r2.compose(rho), f(ren_act_sem(r1, a)))
            return FnV(renamed, rho.nontriv | support)
    raise TypeError(f"not a semantic value: {v!r}")


def rename_valuation(rho: Renaming, parent: Callable) -> HolValuation:
    """Pointwise renaming of the unknown-variable entries of a valuation."""

    def base(v):
        got = parent(v)
        if got is not None and isinstance(v, H.UnkVar):
            return ren_act_sem(rho, got)
        return got

    return HolValuation({}, base)


# ---------------------------------------------------------------------------
# valuations and substitutions as maps

class HolValuation:
    """Finite map from higher-order variables to semantic values over a
    fallback, `base(v)`, for the variables outside the map (None: unbound).
    Called with a variable, it is a valuation as the evaluator reads one."""

    def __init__(self, mapping: Optional[Mapping] = None,
                 base: Callable = lambda v: None):
        self.mapping = dict(mapping or {})
        self.base = base

    def __call__(self, v) -> Optional[SemVal]:
        if v in self.mapping:
            return self.mapping[v]
        return self.base(v)


def eval_hol(model: HerbrandModel, env: Callable, t, depth: int = 0):
    """(value, exact) of t under env, by a `HolEvaluator` of its own."""
    ev = HolEvaluator(model, depth)
    return ev.eval(t, env), ev.exact


def updated(val: Valuation, x: Unknown, t) -> Valuation:
    """val with x assigned t."""
    out = dict(val.assignments)
    out[x] = t
    return Valuation(out)


def extend(env: Callable, v, value: SemVal) -> HolValuation:
    """env with v bound to value."""
    return HolValuation({v: value}, env)


def subst_map(theta: PnlSubst) -> dict:
    """The unknowns theta moves, each with its term."""
    return dict(theta._map)


def subst_validate(theta: PnlSubst, sig: PnlSignature):
    """Each term theta substitutes has its unknown's sort, and its free
    atoms lie in the unknown's permission set."""
    for x, t in theta._map.items():
        if sort_of(sig, t) != x.sort:
            raise SortError(f"substituting {t!r} of wrong sort for {x!r}", t)
        if not set_subset(free_atoms(t), x.pmss):
            raise ValueError(f"free atoms of {t!r} escape the permission set of {x!r}")


# ---------------------------------------------------------------------------
# signature saturation: tag every predicate with a guard argument

def saturate_signature(sig: PnlSignature, guard_sort: str) -> PnlSignature:
    if guard_sort in sig.base_sorts or guard_sort in sig.name_sorts:
        raise SignatureError(f"guard sort {guard_sort} already declared")
    props = {p: TupleSort((BaseSort(guard_sort), arg))
             for p, arg in sig.prop_formers.items()}
    return PnlSignature(sig.name_sorts, sig.base_sorts | {guard_sort},
                        dict(sig.term_formers), props)


def pi_translate(sig: PnlSignature, phi: PnlProp, guard: Unknown):
    """Saturated signature plus the proposition with every predicate guarded
    by the distinguished unknown."""
    match guard.sort:
        case BaseSort(name) if name not in sig.base_sorts:
            guard_sort = name
        case _:
            raise SortError("guard unknown must have a fresh base sort", guard)
    if not set_subset(free_atoms(phi), guard.pmss):
        raise ValueError("free atoms of the proposition escape the guard's permission set")
    new_sig = saturate_signature(sig, guard_sort)

    def go(p):
        match p:
            case Bot():
                return p
            case Imp(a, b):
                return Imp(go(a), go(b))
            case Pred(name, arg):
                return Pred(name, Tup((Sus.of(guard), arg)))
            case All(unk, body):
                return All(unk, go(body))
        raise TypeError(f"not a proposition: {p!r}")

    return new_sig, go(phi)


# ---------------------------------------------------------------------------
# erasing the guard argument added by signature saturation

def erase_pi(sig_pi: P.PnlSignature, node: K.Node, guard: P.Unknown) -> K.Node:
    """Strip the guard slot from every predicate and demote every axiom to the
    permutation-free rule, checking the permutation is invisible on the
    guard's permission set."""
    for _, n in _nodes(node):
        for phi in n.concl.left + n.concl.right:
            if not set_subset(P.free_atoms(phi), guard.pmss):
                raise TranslationError(
                    "sequent formula mentions atoms outside the guard's "
                    "permission set")
    return _erase_node(node, guard, ())


def _strip_guard(phi):
    match phi:
        case P.Bot():
            return phi
        case P.Imp(p, q):
            return P.Imp(_strip_guard(p), _strip_guard(q))
        case P.Pred(name, P.Tup(items)) if len(items) == 2:
            return P.Pred(name, items[1])
        case P.All(unk, body):
            return P.All(unk, _strip_guard(body))
    raise TranslationError(f"formula lacks the guard slot: {phi!r}")


def _erase_node(node: K.Node, guard, path) -> K.Node:
    perm = node.perm
    if node.rule == "ax" and not perm.is_identity:
        moved = [a for a in perm.nontriv if a in guard.pmss and perm(a) != a]
        if moved:
            raise TranslationError(
                f"axiom permutation moves permitted atoms {sorted(moved)}; "
                "erasure would change the sequent", path)
        perm = Perm.identity()
    concl = K.Sequent(tuple(_strip_guard(p) for p in node.concl.left),
                      tuple(_strip_guard(p) for p in node.concl.right))
    children = tuple(_erase_node(c, guard, path + (i,))
                     for i, c in enumerate(node.children))
    return K.Node(rule=node.rule, concl=concl, children=children, perm=perm,
                  li=node.li, ri=node.ri, witness=node.witness)


# ---------------------------------------------------------------------------
# partial application of a model at a distinguished first slot

def compile_pattern(pattern) -> Callable:
    """The pattern (with unknowns as pattern variables) compiled once into a
    matcher for ground terms: match(term) returns the bindings, or None when
    the term does not match up to alpha."""
    slots: list = []
    index: dict = {}
    test = _pattern_test(pattern, slots, index)
    unknowns = tuple(index)

    def match(term) -> Optional[dict]:
        return dict(zip(unknowns, slots)) if test(term) else None
    return match


def convert_model(model_pi: HerbrandModel, z) -> HerbrandModel:
    """Fix the first tuple slot of every predicate to the ground term z:
    clauses whose first slot cannot match z are pruned, the rest are
    instantiated, and the declared support grows by the free atoms of z."""
    sig = model_pi.sig
    if free_unknowns(z):
        raise SemanticsError("the distinguished argument must be ground")
    z_sort = sort_of(sig, z)
    new_props = {}
    for p, arg in sig.prop_formers.items():
        match arg:
            case TupleSort((first, rest)):
                if first != z_sort:
                    raise SemanticsError(
                        f"{p}: first slot has sort {first!r}, expected {z_sort!r}")
                new_props[p] = rest
            case _:
                raise SemanticsError(f"{p}: argument sort is not a pair")
    new_sig = PnlSignature(sig.name_sorts, sig.base_sorts,
                           dict(sig.term_formers), new_props)
    new_preds = {}
    for p, spec in model_pi.preds.items():
        clauses = []
        for pattern, v in spec.clauses:
            match pattern:
                case Tup((pz, pr)):
                    binds = compile_pattern(pz)(z)
                    if binds is None:
                        continue
                    clauses.append((subst_apply(P.PnlSubst(binds), pr), v))
                case _:
                    raise SemanticsError(f"{p}: clause pattern is not a pair")
        extra = spec.extra_support | supp(z)
        new_preds[p] = PredSpec(tuple(clauses), spec.default, extra)
    return HerbrandModel(new_sig, new_preds)
