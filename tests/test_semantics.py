import gc
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nomhol.atoms import (Atom, CofinAtomSet, Perm, Renaming, permission_set,
                          set_subset)
from nomhol.capture import canonical_context, capture_check, capture_infer
from nomhol import frontend as F, hol as H, semantics
from nomhol.corpus import beta_axioms, eta_axiom, restricted_derivations
from nomhol.pnl import (AbsSort, AbsT, All, AtomT, Bot, Former, Imp, Pred,
                        PnlSignature, Sus, Tup, TupleSort, Unknown, alpha_eq,
                        alpha_key, free_atoms, free_unknowns, perm_act,
                        subst_one)
from nomhol.semantics import (AtomV, BoolV, EnumerationError, FnV,
                              HerbrandModel, PredSpec, RenElem,
                              RenV, SemanticsError,
                              TupV, UnboundVariableError,
                              Valuation, abstract_atoms, as_atom, as_bool,
                              as_ren, canonical_ground, canonicalize,
                              default_window, enumerate_ground,
                              eval_pnl_prop, eval_pnl_term, fn_apply,
                              lift_valuation, merge_ren_tuple, mk_ren,
                              pmss_window, ren_eq, square_check, supp, supp_sem)
from nomhol.translate import translate, translate_derivation, translate_signature

import oracles
from gen import (IOTA, NSORT, NU, PMSS_ALL, PMSS_DOWN, PMSS_HALF, SIG, WINDOW,
                 X0, X1, X2, away, models, rand_ground_term, rand_perm,
                 rand_prop, rand_term, renamed, with_unknowns)
from spec import (HolValuation, compile_pattern, convert_model, eval_hol,
                  extend, freshening_pair, ground_renaming_action, ren_act_sem,
                  rename_valuation, sem_eq, updated)

ENV = translate_signature(SIG)
ID = Renaming.identity()


def a(i):
    return Atom(NU, i)


def var(i):
    return Former("var", AtomT(a(i)))


def app(s, t):
    return Former("app", Tup((s, t)))


# Pattern variables with a wide permission set so that matching never fails
# for permission reasons on desk-scale ground terms.
WIDE = permission_set(plus=frozenset(Atom(NU, i) for i in range(0, 40)))
W1 = Unknown(IOTA, WIDE, 90)
WN = Unknown(NSORT, WIDE, 92)

EQ_SPEC = PredSpec(((Tup((Sus.of(W1), Sus.of(W1))), 1),), 0)
ISVAR_SPEC = PredSpec(((Former("var", Sus.of(WN)), 1),), 0)
NONEQ_SPEC = PredSpec(((var(0), 1),), 0)          # support {nu@0}
NEG_EQ_SPEC = PredSpec(((Tup((Sus.of(W1), Sus.of(W1))), 0),), 1)

M_ISVAR = HerbrandModel(SIG, {"P": ISVAR_SPEC, "equal": EQ_SPEC})
M_NONEQ = HerbrandModel(SIG, {"P": NONEQ_SPEC, "equal": EQ_SPEC})
M_NEG = HerbrandModel(SIG, {"P": PredSpec((), 1), "equal": NEG_EQ_SPEC})
MODELS = [M_ISVAR, M_NONEQ, M_NEG]

# every term of the windows, alpha-variants included (enumerate_ground
# yields one per alpha-class)
GROUND_ALL = oracles.enumerate_ground(SIG, IOTA, [a(0), a(1), a(2)], 2)
GROUND_HALF = oracles.enumerate_ground(SIG, IOTA, [a(0), a(-1), a(-2)], 2)


def rand_val(rng):
    return Valuation({X0: rng.choice(GROUND_ALL), X1: rng.choice(GROUND_HALF)})


def rand_renaming(rng, atoms=tuple(WINDOW)):
    moves = {}
    for b in rng.sample(list(atoms), rng.randrange(0, len(atoms) + 1)):
        t = rng.choice(list(atoms))
        if t != b:
            moves[b] = t
    return Renaming(moves)


def d_for(*xs):
    need = frozenset()
    for x in xs:
        need |= capture_infer(x)
    return canonical_context(need)


# ---------------------------------------------------------------------------
# the renaming action on ground terms


def test_renaming_action_pointwise_may_identify():
    got = ground_renaming_action(Renaming.atomic(a(0), a(1)),
                                 Tup((AtomT(a(0)), AtomT(a(1)))))
    assert got == Tup((AtomT(a(1)), AtomT(a(1))))


def test_renaming_action_freshens_clashing_binders():
    x = AbsT(a(0), var(0))
    got = ground_renaming_action(Renaming.atomic(a(0), a(1)), x)
    assert alpha_eq(got, x)
    y = AbsT(a(0), app(var(0), var(1)))
    got = ground_renaming_action(Renaming.atomic(a(1), a(2)), y)
    assert alpha_eq(got, AbsT(a(0), app(var(0), var(2))))


def test_renaming_action_identity_and_monoid():
    rng = random.Random(501)
    for _ in range(200):
        x = rand_ground_term(rng)
        assert ground_renaming_action(ID, x) == x
        r1, r2 = rand_renaming(rng), rand_renaming(rng)
        lhs = ground_renaming_action(r1, ground_renaming_action(r2, x))
        rhs = ground_renaming_action(r1.compose(r2), x)
        assert alpha_eq(lhs, rhs), (x, r1, r2)


def test_renamed_support_is_pointwise_image():
    rng = random.Random(503)
    for _ in range(200):
        x = rand_ground_term(rng)
        rho = rand_renaming(rng)
        s = supp(x)
        image = {rho(q) for q in s}
        got = supp(ground_renaming_action(rho, x))
        assert got <= image
        if len({rho(q) for q in s}) == len(s):  # injective on the support
            assert got == image


def test_support_structural_laws():
    rng = random.Random(505)
    for _ in range(200):
        x = rand_ground_term(rng, 2)
        y = rand_ground_term(rng, 2)
        b = rng.choice(WINDOW)
        assert supp(AbsT(b, x)) == supp(x) - {b}
        assert supp(Tup((x, y))) == supp(x) | supp(y)
        assert supp(AtomT(b)) == {b}


# ---------------------------------------------------------------------------
# suspension pairs and their equality


def test_suspended_atoms_collapse_to_plain_atoms():
    assert ren_eq(RenElem(Renaming.atomic(a(0), a(1)), AtomT(a(0))),
                  RenElem(ID, AtomT(a(1))))
    rng = random.Random(507)
    for _ in range(200):
        rho = rand_renaming(rng)
        b = rng.choice(WINDOW)
        assert ren_eq(RenElem(rho, AtomT(b)), RenElem(ID, AtomT(rho(b))))
    # ...and distinct atoms stay distinct
    assert not ren_eq(RenElem(ID, AtomT(a(0))), RenElem(ID, AtomT(a(1))))


def test_collapsing_pair_differs_from_diagonal():
    collapsed = RenElem(Renaming.atomic(a(0), a(1)), Tup((AtomT(a(0)), AtomT(a(1)))))
    diagonal = RenElem(ID, Tup((AtomT(a(1)), AtomT(a(1)))))
    assert not ren_eq(collapsed, diagonal)


def test_ren_eq_reflexive_and_alpha_aware():
    rng = random.Random(509)
    for _ in range(200):
        x = rand_ground_term(rng)
        assert ren_eq(RenElem(ID, x), RenElem(ID, x))
    assert ren_eq(RenElem(ID, AbsT(a(0), var(0))), RenElem(ID, AbsT(a(1), var(1))))


def test_ren_eq_absorbs_permutations_into_the_term():
    rng = random.Random(511)
    for _ in range(200):
        x = rand_ground_term(rng)
        rho = rand_renaming(rng)
        pi = rand_perm(rng)
        pi_ren = Renaming({q: pi(q) for q in pi.nontriv})
        assert ren_eq(RenElem(rho.compose(pi_ren), x),
                      RenElem(rho, perm_act(pi, x))), (x, rho, pi)


def test_canonicalize_preserves_the_equivalence_class():
    rng = random.Random(513)
    for _ in range(200):
        x = rand_ground_term(rng)
        rho = rand_renaming(rng)
        e = mk_ren(rho, x)
        assert ren_eq(e, RenElem(rho, x))


def test_canonicalize_absorbs_injective_moves():
    e = canonicalize(RenElem(Renaming.atomic(a(0), a(3)), var(0)))
    assert e.rho.is_identity and alpha_eq(e.val, var(3))


def test_canonicalize_keeps_genuine_collapses():
    e = canonicalize(RenElem(Renaming.atomic(a(0), a(1)),
                             Tup((AtomT(a(0)), AtomT(a(1))))))
    assert not e.rho.is_identity


def test_canonicalize_returns_an_identity_suspension_itself():
    e = RenElem(ID, app(var(0), Former("lam", AbsT(a(1), var(1)))))
    assert canonicalize(e) is e


def test_ren_eq_beyond_eight_atoms():
    # twelve support atoms, each under a binder that shadows nothing; the
    # permuted copy carries the renaming transported along the permutation
    x = Tup(tuple(app(var(i), Former("lam", AbsT(a(20), app(var(20), var(i)))))
                  for i in range(12)))
    pi = Perm({a(i): a((5 * i + 3) % 12) for i in range(12)}) \
        .compose(Perm.swap(a(4), a(30)))
    rho = Renaming({a(i): a(40 + i // 3) for i in range(12)})
    moved = {pi(q): rho(q) for q in supp(x)}
    assert len(supp(x)) == 12
    assert ren_eq(RenElem(rho, x), RenElem(Renaming(moved), perm_act(pi, x)))
    moved[pi(a(7))] = a(50)
    assert not ren_eq(RenElem(rho, x), RenElem(Renaming(moved), perm_act(pi, x)))
    # collapse against diagonal, with ten atoms
    rest = tuple(AtomT(a(i)) for i in range(2, 10))
    collapsed = RenElem(Renaming.atomic(a(0), a(1)),
                        Tup((AtomT(a(0)), AtomT(a(1))) + rest))
    diagonal = RenElem(ID, Tup((AtomT(a(1)), AtomT(a(1))) + rest))
    assert not ren_eq(collapsed, diagonal)
    assert ren_eq(collapsed, RenElem(Renaming.atomic(a(10), a(1)),
                                     Tup((AtomT(a(10)), AtomT(a(1))) + rest)))


# Suspension pairs over two name sorts.  ren_eq needs no signature, so the
# values are raw ground syntax: atoms, pairs, one former, abstractions.
MU = "mu"
REN_ATOMS = [Atom(srt, i) for srt in (NU, MU) for i in range(-1, 3)]


def same_sort(b):
    return [q for q in REN_ATOMS if q.sort == b.sort]


@st.composite
def ren_values_st(draw, pool, depth=4):
    kind = draw(st.sampled_from(("atom", "pair", "former", "abs") if depth else ("atom",)))
    match kind:
        case "atom":
            return AtomT(draw(st.sampled_from(pool)))
        case "pair":
            return Tup((draw(ren_values_st(pool, depth - 1)),
                        draw(ren_values_st(pool, depth - 1))))
        case "former":
            return Former("f", draw(ren_values_st(pool, depth - 1)))
    return AbsT(draw(st.sampled_from(REN_ATOMS)), draw(ren_values_st(pool, depth - 1)))


@st.composite
def ren_elems_st(draw):
    """A pair whose free atoms lie in at most six atoms, under a renaming
    that may collapse them."""
    pool = draw(st.lists(st.sampled_from(REN_ATOMS), min_size=1, max_size=6,
                         unique=True))
    rho = Renaming({q: draw(st.sampled_from(same_sort(q))) for q in pool})
    return RenElem(rho, draw(ren_values_st(pool))), pool


@st.composite
def ren_pairs_st(draw):
    e1, pool = draw(ren_elems_st())
    kind = draw(st.sampled_from(("permuted", "changed", "other")))
    if kind == "other":
        return kind, e1, draw(ren_elems_st())[0]
    moves = {}
    for srt in (NU, MU):
        atoms = [q for q in REN_ATOMS if q.sort == srt]
        moves.update(zip(atoms, draw(st.permutations(atoms))))
    pi = Perm(moves)
    images = {pi(q): e1.rho(q) for q in pool}
    if kind == "changed":
        q = draw(st.sampled_from(pool))
        images[pi(q)] = draw(st.sampled_from(
            [b for b in same_sort(q) if b != e1.rho(q)]))
    return kind, e1, RenElem(Renaming(images), perm_act(pi, e1.val))


@settings(max_examples=400, deadline=None)
@given(ren_pairs_st())
def test_ren_eq_matches_bijection_search(pair):
    kind, e1, e2 = pair
    same = oracles.ren_eq_search(e1, e2)
    assert ren_eq(e1, e2) == same == ren_eq(e2, e1)
    if kind == "permuted":
        assert same


def test_componentwise_image_conflates_what_suspensions_distinguish():
    # The tuple-of-suspensions value of the collapsed pair coincides with the
    # diagonal componentwise, even though the merged suspensions differ.
    rho = Renaming.atomic(a(0), a(1))
    pair = TupV((RenV(RenElem(ID, AtomT(a(0)))), RenV(RenElem(ID, AtomT(a(1))))))
    diag = TupV((RenV(RenElem(ID, AtomT(a(1)))), RenV(RenElem(ID, AtomT(a(1))))))
    assert sem_eq(ren_act_sem(rho, pair), diag)
    assert not ren_eq(RenElem(rho, Tup((AtomT(a(0)), AtomT(a(1))))),
                      as_ren(diag))


# ---------------------------------------------------------------------------
# function values


def dup_fn():
    """Equivariant: wraps its argument twice under the pair former."""

    def f(v):
        e = as_ren(v)
        return RenV(RenElem(e.rho, app(e.val, e.val)))

    return FnV(f, frozenset())


def pair_fn():
    """Pairs its argument with a fixed element; supported by that element's
    free atoms."""

    def f(v):
        return TupV((v, RenV(RenElem(ID, var(0)))))

    return FnV(f, frozenset([a(0)]))


def dup_clos():
    """Duplication via the tuple-merging clause, as a closure.  NOT a
    supported function: merging splits entangled collapses apart."""
    pv = H.PlainVar(H.sort_to_type(IOTA), 5)
    t = H.Lam(pv, H.App(ENV.formers["app"], H.HTup((H.Var(pv), H.Var(pv)))))
    v, _ = eval_hol(M_ISVAR, HolValuation(), t)
    assert isinstance(v, FnV)
    return v


def abs_clos():
    """Wraps its argument under a fresh binder; a supported closure."""
    pv = H.PlainVar(H.sort_to_type(IOTA), 5)
    t = H.Lam(pv, H.App(ENV.formers["lam"],
                        H.Lam(H.AtomVar(a(6)), H.Var(pv))))
    v, _ = eval_hol(M_ISVAR, HolValuation(), t)
    assert isinstance(v, FnV)
    return v


def _rand_arg(rng):
    return RenV(mk_ren(rand_renaming(rng), rand_ground_term(rng, 2)))


def apply_with_pair(rho, g, arg, extra_avoid=()):
    blocked = CofinAtomSet.finite(supp_sem(arg) | g.support)
    r1, r2 = freshening_pair(rho.nontriv, blocked, avoid=extra_avoid)
    return ren_act_sem(r2.compose(rho), fn_apply(g, ren_act_sem(r1, arg)))


def test_deferred_renaming_independent_of_freshening_choice():
    rng = random.Random(515)
    fns = [dup_fn(), pair_fn(), abs_clos()]
    for i in range(210):
        g = fns[i % len(fns)]
        rho = rand_renaming(rng)
        arg = _rand_arg(rng)
        first = apply_with_pair(rho, g, arg)
        blocked = CofinAtomSet.finite(supp_sem(arg) | g.support)
        r1, _ = freshening_pair(rho.nontriv, blocked)
        second = apply_with_pair(rho, g, arg, extra_avoid=r1.img)
        assert sem_eq(first, second), (rho, arg)


def test_renaming_distributes_over_supported_application():
    rng = random.Random(517)
    fns = [dup_fn(), pair_fn(), abs_clos()]
    for i in range(300):
        g = fns[i % len(fns)]
        rho = rand_renaming(rng)
        arg = _rand_arg(rng)
        lhs = ren_act_sem(rho, fn_apply(g, arg))
        rhs = fn_apply(ren_act_sem(rho, g), ren_act_sem(rho, arg))
        assert sem_eq(lhs, rhs), (rho, arg)


def test_merged_duplication_closure_is_not_a_supported_function():
    # Duplication routed through the tuple-merging clause fails the
    # distribution law under a collapsing renaming: acting first entangles
    # the two copies through a shared collapse, while applying the renamed
    # closure re-merges two independently relabeled copies.
    g = dup_clos()
    rho = Renaming({a(0): a(1), a(2): a(1)})
    arg = RenV(RenElem(ID, app(var(0), var(2))))
    lhs = ren_act_sem(rho, fn_apply(g, arg))
    rhs = fn_apply(ren_act_sem(rho, g), ren_act_sem(rho, arg))
    assert not sem_eq(lhs, rhs)


def test_deferred_renaming_with_disjoint_domain_is_plain_application():
    rng = random.Random(519)
    g = pair_fn()
    checked = 0
    while checked < 200:
        rho = rand_renaming(rng)
        if rho.dom & g.support:
            continue
        arg = _rand_arg(rng)
        checked += 1
        assert sem_eq(fn_apply(ren_act_sem(rho, g), arg),
                      fn_apply(g, arg)), (rho, arg)


def test_renamed_function_is_supported_by_the_renaming_and_the_function():
    rng = random.Random(523)
    for g in (dup_fn(), pair_fn(), abs_clos()):
        for _ in range(20):
            rho = rand_renaming(rng)
            assert ren_act_sem(rho, g).support == rho.nontriv | g.support, rho


def test_abstraction_elements_act_like_renaming_functions():
    rng = random.Random(521)
    for _ in range(220):
        x = rand_ground_term(rng, 3)
        b = rng.choice(WINDOW)
        f = RenV(RenElem(ID, AbsT(b, x)))
        assert ren_eq(as_ren(fn_apply(f, AtomV(b))), RenElem(ID, x))
        c = rng.choice(WINDOW + [a(7)])
        if c != b:
            got = as_ren(fn_apply(f, AtomV(c)))
            assert ren_eq(got, RenElem(Renaming.atomic(b, c), x)), (x, b, c)
        # the element is supported away from its bound atom
        assert ren_eq(as_ren(ren_act_sem(Renaming.atomic(b, a(9)), f)),
                      RenElem(ID, AbsT(b, x)))


def test_suspended_abstraction_application():
    # a suspended abstraction applied to an atom composes the atomic move
    rho = Renaming.atomic(a(1), a(2))
    f = RenV(RenElem(rho, AbsT(a(0), app(var(0), var(1)))))
    got = as_ren(fn_apply(f, AtomV(a(3))))
    assert ren_eq(got, RenElem(ID, app(var(3), var(2))))


ABSTRACTIONS = oracles.enumerate_ground(SIG, AbsSort(NU, IOTA), WINDOW, 2)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(ABSTRACTIONS) - 1), st.integers(0, 2**32 - 1),
       st.booleans())
def test_application_freshens_only_a_renamed_binder(i, seed, own_atom):
    # fn_apply keeps the binder unless the renaming touches it; the oracle
    # freshens it also when the argument is the bound atom itself
    rng = random.Random(seed)
    x = ABSTRACTIONS[i]
    atoms = WINDOW + [x.atom] if x.atom not in WINDOW else WINDOW
    f = RenV(RenElem(rand_renaming(rng, atoms), x))
    b = AtomV(x.atom if own_atom else rng.choice(atoms))
    got, want = as_ren(fn_apply(f, b)), as_ren(oracles.fn_apply(f, b))
    assert oracles.ren_eq_search(got, want), (f, b)


def test_renaming_function_is_not_an_abstraction_element():
    # the function realizing [nu@0:=nu@1] on atoms differs from every
    # abstraction-of-an-atom element on at least one input
    raw = FnV(lambda v: AtomV(Renaming.atomic(a(0), a(1))(as_atom(v))),
              frozenset([a(0), a(1)]))

    def table(g):
        return tuple(as_atom(fn_apply(g, AtomV(q))) for q in WINDOW)

    want = table(raw)
    candidates = [RenV(RenElem(ID, AbsT(c, AtomT(d))))
                  for c in WINDOW + [a(5)] for d in WINDOW + [a(5)]]
    assert all(table(g) != want for g in candidates)


def test_boolean_and_tuple_values_have_trivial_or_pointwise_action():
    rho = Renaming.atomic(a(0), a(1))
    assert ren_act_sem(rho, BoolV(1)) == BoolV(1)
    assert ren_act_sem(rho, AtomV(a(0))) == AtomV(a(1))
    v = RenV(RenElem(ID, Tup((AtomT(a(0)), AtomT(a(0))))))
    assert ren_eq(as_ren(ren_act_sem(rho, v)),
                  RenElem(ID, Tup((AtomT(a(1)), AtomT(a(1))))))


def test_function_values_are_not_comparable():
    with pytest.raises(SemanticsError):
        sem_eq(dup_fn(), dup_fn())


# ---------------------------------------------------------------------------
# a carrier whose renaming action strictly shrinks supports


STAR = "star"


def exploding_act(rho, el):
    if el == STAR:
        return el
    x, y = el
    if rho(x) == rho(y):
        return STAR
    return (rho(x), rho(y))


def exploding_supp(el):
    return frozenset() if el == STAR else frozenset(el)


def test_collapsing_action_can_erase_the_support():
    el = (a(0), a(1))
    rho = Renaming.atomic(a(0), a(1))
    got = exploding_act(rho, el)
    assert got == STAR
    image = {rho(q) for q in exploding_supp(el)}
    assert exploding_supp(got) == frozenset()
    assert frozenset() < image  # strictly smaller than the pointwise image


# ---------------------------------------------------------------------------
# models, valuations, and the nominal evaluator


def test_model_rejects_undeclared_proposition_former():
    with pytest.raises(SemanticsError):
        HerbrandModel(SIG, {"missing": EQ_SPEC})


def test_model_rejects_ill_sorted_clause_pattern():
    with pytest.raises(SemanticsError):
        HerbrandModel(SIG, {"P": EQ_SPEC})  # pair pattern for a unary former


def test_pred_spec_validation():
    with pytest.raises(ValueError):
        PredSpec((), 2)
    with pytest.raises(ValueError):
        PredSpec(((var(0), 7),), 0)


def test_pred_spec_first_match_and_support():
    spec = PredSpec(((var(0), 1), (Sus.of(W1), 0)), 1)
    assert spec.matcher(var(0)) == 1
    assert spec.matcher(var(1)) == 0
    assert spec.declared_support() == frozenset([a(0)])
    assert ISVAR_SPEC.declared_support() == frozenset()
    # a binder and a suspension's permutation tell their atoms apart too
    lam = lambda b, x: Former("lam", AbsT(a(b), x))
    spec = PredSpec(((lam(1, Sus.of(X0)), 1), (Sus(Perm.swap(a(2), a(5)), X0), 0)), 1)
    assert spec.declared_support() == frozenset([a(1), a(2), a(5)])
    assert (spec.matcher(lam(1, var(0))), spec.matcher(lam(0, var(1)))) == (1, 0)
    assert (spec.matcher(var(2)), spec.matcher(var(0))) == (1, 0)


SWAP_ATOMS = [a(i) for i in range(-3, 8)]


@settings(max_examples=200, deadline=None)
@given(models, st.integers(0, 2**32 - 1))
def test_tables_keep_their_values_outside_their_declared_support(model, seed):
    # swapping two atoms outside declared_support() that each pattern
    # unknown's permission set holds both or neither of keeps a table's
    # value: the HOL pred constant's support is a support
    rng = random.Random(seed)
    for name, spec in sorted(model.preds.items()):
        support = spec.declared_support()
        sets = {u.pmss for p, _ in spec.clauses for u in free_unknowns(p)}
        pairs = [(b, c) for i, b in enumerate(SWAP_ATOMS) for c in SWAP_ATOMS[i + 1:]
                 if b not in support and c not in support
                 and all((b in s) == (c in s) for s in sets)]
        for _ in range(5 if pairs else 0):
            b, c = rng.choice(pairs)
            x = rand_ground_term(rng, rng.randrange(1, 4), SIG.prop_formers[name])
            assert oracles.spec_apply(spec, x) == \
                oracles.spec_apply(spec, perm_act(Perm.swap(b, c), x)), (name, b, c, x)


@pytest.mark.parametrize("declared", [frozenset(), frozenset([a(-1)])])
def test_pred_value_keeps_when_the_table_declares_more_support(declared):
    # [nu@-1:=nu@0]·P(app(var nu@-1, var nu@0)): the table reads 1 on the
    # term as written, both atoms in X2's set.  Declaring nu@-1 as support
    # moves it out of the renaming's domain, to a fresh atom that must lie
    # in X2's set as nu@-1 does (not nu@1, nor nu@-2, which X2 excludes).
    spec = PredSpec(((Sus.of(X2), 1),), 0, declared)
    pred = semantics.HolEvaluator(HerbrandModel(SIG, {"P": spec}))._const_value(
        ENV.formers["P"])
    elem = RenElem(Renaming.atomic(a(-1), a(0)), app(var(-1), var(0)))
    assert as_bool(fn_apply(pred, RenV(elem))) == 1


def test_pred_spec_matching_is_alpha_aware():
    islam = PredSpec(((Former("lam", AbsT(a(0), Sus.of(W1))), 1),), 0)
    assert islam.matcher(Former("lam", AbsT(a(3), var(3)))) == 1
    assert islam.matcher(var(0)) == 0


def test_valuation_defaults_are_canonical_and_permitted():
    v = Valuation()
    got = v.get(SIG, X0)
    assert alpha_eq(got, var(-1))
    assert set_subset(free_atoms(got), X0.pmss)
    assert alpha_eq(canonical_ground(SIG, TupleSort((IOTA, IOTA)), X0.pmss),
                    Tup((var(-1), var(-1))))


def test_valuation_validation():
    """The reader rejects a value with an unknown, of the wrong sort, or
    outside its unknown's permission set, at the value."""
    def read(x, value):
        text = f"(valuation\n  (assign {F.render(x)} {value}))"
        return F.parse_document(text, "valuation", SIG)
    assert read(X0, "(var nu@0)").assignments == {X0: var(0)}
    for x, value, message in (
            (X0, F.render(X1), "the term of (assign ...) must be ground"),
            (X0, "nu@0", f"valuation value for {F.render(X0)} has the wrong sort"),
            # nu@3 is not permitted for X1
            (X1, "(var nu@3)", f"valuation value for {F.render(X1)} escapes its permission set")):
        with pytest.raises(F.ParseError) as e:
            read(x, value)
        at = len("  (assign ") + len(F.render(x)) + 2
        assert (e.value.message, e.value.line, e.value.col) == (message, 2, at)


def test_eval_term_examples():
    val = Valuation({X0: var(0)})
    assert eval_pnl_term(M_ISVAR, val, var(0)) == var(0)
    assert eval_pnl_term(M_ISVAR, val,
                         Sus(Perm.swap(a(1), a(0)), X0)) == var(1)
    got = eval_pnl_term(M_ISVAR, val, AbsT(a(0), Sus.of(X0)))
    assert alpha_eq(got, AbsT(a(0), var(0)))


def test_eval_prop_examples():
    val = Valuation()
    eq = lambda s, t: Pred("equal", Tup((s, t)))
    assert eval_pnl_prop(M_ISVAR, val, eq(var(0), var(0))) == (1, True)
    assert eval_pnl_prop(M_ISVAR, val, eq(var(0), var(1))) == (0, True)
    assert eval_pnl_prop(M_NONEQ, val, Pred("P", var(0))) == (1, True)
    assert eval_pnl_prop(M_NONEQ, val, Pred("P", var(1))) == (0, True)
    assert eval_pnl_prop(M_ISVAR, val, Bot()) == (0, True)
    assert eval_pnl_prop(M_ISVAR, val, Imp(Bot(), Bot())) == (1, True)
    refl = All(X0, eq(Sus.of(X0), Sus.of(X0)))
    assert eval_pnl_prop(M_ISVAR, val, refl, depth=2) == (1, False)
    allvar = All(X0, Pred("P", Sus.of(X0)))
    assert eval_pnl_prop(M_ISVAR, val, allvar, depth=2) == (0, False)


def test_eval_prop_requires_depth_for_quantifiers():
    with pytest.raises(EnumerationError):
        eval_pnl_prop(M_ISVAR, Valuation(), All(X0, Bot()))


def test_term_evaluation_equivariant():
    rng = random.Random(523)
    for _ in range(250):
        r = rand_term(rng)
        pi = rand_perm(rng)
        val = rand_val(rng)
        assert alpha_eq(perm_act(pi, eval_pnl_term(M_ISVAR, val, r)),
                        eval_pnl_term(M_ISVAR, val, perm_act(pi, r))), (r, pi)


def test_term_evaluation_support_bound():
    rng = random.Random(525)
    for _ in range(250):
        r = rand_term(rng)
        val = rand_val(rng)
        got = eval_pnl_term(M_ISVAR, val, r)
        assert set_subset(CofinAtomSet.finite(supp(got)), free_atoms(r)), r


def test_substitution_lemma():
    rng = random.Random(527)
    checked = 0
    while checked < 250:
        val = rand_val(rng)
        rp = rand_term(rng, 2)
        vrp = eval_pnl_term(M_ISVAR, val, rp)
        if not set_subset(free_atoms(vrp), X0.pmss):
            continue
        checked += 1
        val2 = updated(val, X0, vrp)
        r = rand_term(rng)
        assert alpha_eq(eval_pnl_term(M_ISVAR, val2, r),
                        eval_pnl_term(M_ISVAR, val, subst_one(r, X0, rp)))
        phi = rand_prop(rng, quantifiers=False)
        assert eval_pnl_prop(M_ISVAR, val2, phi) == \
            eval_pnl_prop(M_ISVAR, val, subst_one(phi, X0, rp))


def test_valuation_relevance():
    rng = random.Random(529)
    junk = Unknown(IOTA, PMSS_ALL, 47)
    for _ in range(250):
        val = rand_val(rng)
        x = rand_term(rng)
        trimmed = Valuation({u: val.get(SIG, u) for u in free_unknowns(x)})
        noisy = updated(trimmed, junk, var(2))
        assert alpha_eq(eval_pnl_term(M_ISVAR, val, x),
                        eval_pnl_term(M_ISVAR, noisy, x))
        phi = rand_prop(rng, quantifiers=False)
        trimmed = Valuation({u: val.get(SIG, u) for u in free_unknowns(phi)})
        assert eval_pnl_prop(M_ISVAR, val, phi) == \
            eval_pnl_prop(M_ISVAR, updated(trimmed, junk, var(2)), phi)


# ---------------------------------------------------------------------------
# the higher-order evaluator


def test_eval_hol_constants():
    env = HolValuation()
    assert eval_hol(M_ISVAR, env, H.BOT)[0] == BoolV(0)
    assert eval_hol(M_ISVAR, env, H.imp(H.BOT, H.BOT))[0] == BoolV(1)


def test_eval_hol_boolean_quantifier_is_exact():
    v = H.PlainVar(H.O, 0)
    env = HolValuation()
    assert eval_hol(M_ISVAR, env, H.forall(v, H.Var(v)))[0] == BoolV(0)
    got, exact = eval_hol(M_ISVAR, env,
                          H.forall(v, H.imp(H.Var(v), H.Var(v))))
    assert got == BoolV(1) and exact


def test_eval_hol_non_enumerable_quantifier():
    v = H.PlainVar(H.ArrowT(H.O, H.O), 0)
    with pytest.raises(EnumerationError):
        eval_hol(M_ISVAR, HolValuation(), H.forall(v, H.BOT))


def test_eval_hol_unbound_variable():
    v = H.PlainVar(H.O, 3)
    with pytest.raises(UnboundVariableError):
        eval_hol(M_ISVAR, HolValuation(), H.Var(v))


def test_eval_hol_lambda_at_image_type_builds_an_abstraction():
    t = translate(ENV, (), AbsT(a(0), var(0)))
    got, exact = eval_hol(M_ISVAR, HolValuation(), t)
    assert exact
    assert ren_eq(as_ren(got), RenElem(ID, AbsT(a(0), var(0))))


def test_lambda_over_an_atom_in_another_value_binds_a_fresh_atom():
    # λnu@0 at image type, where the value of y has nu@0 in its support: the
    # abstraction must bind a fresh atom, also in a nested λ that binds nu@0
    # again, and in one whose body also reads the outer bound atom; the
    # fresh atoms avoid the atoms the body names, as substituting would
    n0, n1 = H.AtomVar(a(0)), H.AtomVar(a(1))
    y = H.PlainVar(H.sort_to_type(IOTA), 0)
    g_var, g_app, g_lam = (ENV.formers[f] for f in ("var", "app", "lam"))

    def gapp(s, t):
        return H.App(g_app, H.HTup((s, t)))

    def gvar(w):
        return H.App(g_var, H.Var(w))

    terms = [
        H.Lam(n0, gapp(gvar(n0), H.Var(y))),
        H.Lam(n0, gapp(gvar(n0), H.App(g_lam, H.Lam(n0, gapp(gvar(n0), H.Var(y)))))),
        H.Lam(n0, H.App(g_lam, H.Lam(n1, gapp(gvar(n0), gapp(gvar(n1), H.Var(y)))))),
        H.App(g_lam, H.Lam(n0, gapp(H.Var(y), H.App(g_lam, H.Lam(n0, gvar(n0)))))),
        H.Lam(n1, gapp(H.Var(y), H.App(g_lam, H.Lam(n0, gvar(n1))))),
    ]
    values = [RenElem(ID, var(0)), RenElem(ID, app(var(0), var(1))),
              RenElem(Renaming.atomic(a(2), a(0)), app(var(2), var(1))),
              RenElem(Renaming.atomic(a(0), a(1)), app(var(0), var(2)))]
    for t in terms:
        for e in values:
            env = HolValuation({y: RenV(e)})
            got = eval_hol(M_ISVAR, env, t)
            assert got == oracles.eval_hol(M_ISVAR, env, t), (t, e)
            if type(t) is H.Lam and t.var.atom in supp_sem(RenV(e)):
                assert got[0].elem.val.atom != t.var.atom, (t, e)


def test_eval_hol_beta_agreement():
    rng = random.Random(531)
    checked = 0
    while checked < 100:
        x, rp = rand_term(rng), rand_term(rng, 2)
        ctx = d_for(x, rp)
        if not (capture_check(ctx, x) and capture_check(ctx, rp)):
            continue
        checked += 1
        t = translate(ENV, ctx, x)
        d_x = tuple(q for q in ctx if q in X0.pmss)
        u = H.lams([H.AtomVar(q) for q in d_x], translate(ENV, ctx, rp))
        v = H.UnkVar(X0, d_x)
        env = lift_valuation(rand_val(rng), SIG)
        lhs, _ = eval_hol(M_ISVAR, env, H.App(H.Lam(v, t), u))
        uval, _ = eval_hol(M_ISVAR, env, u)
        rhs, _ = eval_hol(M_ISVAR, extend(env, v, uval), t)
        assert sem_eq(lhs, rhs), (x, rp, ctx)


def test_hol_valuation_relevance():
    rng = random.Random(533)
    checked = 0
    junk = H.UnkVar(Unknown(IOTA, PMSS_ALL, 48), ())
    while checked < 220:
        x = rand_term(rng) if rng.random() < 0.6 \
            else rand_prop(rng, quantifiers=False)
        ctx = d_for(x)
        if not capture_check(ctx, x):
            continue
        checked += 1
        t = translate(ENV, ctx, x)
        env1 = lift_valuation(rand_val(rng), SIG)
        env2 = HolValuation({v: env1(v) for v in H.fv(t)})
        env2 = extend(env2, junk, RenV(RenElem(ID, var(2))))
        v1, _ = eval_hol(M_ISVAR, env1, t)
        v2, _ = eval_hol(M_ISVAR, env2, t)
        assert sem_eq(v1, v2), x


def test_lifted_valuation_examples():
    val = Valuation({X0: var(0)})
    env = lift_valuation(val, SIG)
    got = env(H.UnkVar(X0, (a(0),)))
    assert got == RenV(RenElem(ID, AbsT(a(0), var(0))))
    assert env(H.UnkVar(X0, ())) == RenV(RenElem(ID, var(0)))
    assert env(H.AtomVar(a(1))) == AtomV(a(1))


def test_renamed_lifted_valuation_layers():
    rho = Renaming.atomic(a(0), a(1))
    lifted = lift_valuation(Valuation({X0: app(var(0), var(2))}), SIG)
    r = rename_valuation(rho, lifted)
    u = H.UnkVar(X0, (a(2),))
    assert r(u) == ren_act_sem(rho, lifted(u))
    assert not sem_eq(r(u), lifted(u))
    assert r(H.AtomVar(a(0))) == AtomV(a(0))
    x = RenV(RenElem(ID, var(3)))
    assert extend(r, u, x)(u) == x
    assert extend(r, u, x)(H.AtomVar(a(0))) == AtomV(a(0))
    y = RenV(RenElem(ID, var(0)))
    assert rename_valuation(rho, HolValuation({u: y}))(u) == ren_act_sem(rho, y)
    assert HolValuation()(u) is None


def test_lifted_predicates_constant_across_representatives():
    rng = random.Random(535)
    for _ in range(220):
        rho = rand_renaming(rng)
        if rng.random() < 0.5:
            spec, x = ISVAR_SPEC, rand_ground_term(rng, 2)
            g, _ = eval_hol(M_ISVAR, HolValuation(), ENV.formers["P"])
        else:
            spec = EQ_SPEC
            x = Tup((rand_ground_term(rng, 2), rand_ground_term(rng, 2)))
            g, _ = eval_hol(M_ISVAR, HolValuation(), ENV.formers["equal"])
        got = as_bool(fn_apply(g, ren_act_sem(rho, RenV(RenElem(ID, x)))))
        assert got == spec.matcher(x), (rho, x)
        # in particular a true instance stays true under every renaming
        if spec.matcher(x) == 1:
            assert got == 1


def test_term_former_constants_push_suspensions_through():
    rng = random.Random(537)
    g, _ = eval_hol(M_ISVAR, HolValuation(), ENV.formers["var"])
    for _ in range(100):
        rho = rand_renaming(rng)
        b = rng.choice(WINDOW)
        got = as_ren(fn_apply(g, ren_act_sem(rho, AtomV(b))))
        assert ren_eq(got, RenElem(ID, var(rho(b).index)))


# Valuation entries built from atoms the generated propositions never
# mention, so that renaming the entries is observable only through the
# values themselves.  The canonical-representative evaluation identifies a
# suspended value with its renamed term, so insensitivity is asserted for
# renamings that keep distinct entry atoms distinct and land them clear of
# the proposition's own atoms; an irrelevant collapse is thrown in to
# exercise the non-injective part of the renaming harmlessly.
DEEP = [a(-5), a(-6), a(-7), a(-8)]
GROUND_DEEP = oracles.enumerate_ground(SIG, IOTA, DEEP, 2)


def deep_val(rng):
    return Valuation({X0: rng.choice(GROUND_DEEP), X1: rng.choice(GROUND_DEEP)})


def deep_renaming(rng):
    dom = rng.sample(DEEP, rng.randrange(1, len(DEEP) + 1))
    targets = rng.sample([a(-20), a(-21), a(-22), a(-23)], len(dom))
    moves = dict(zip(dom, targets))
    moves[a(-40)] = a(-42)
    moves[a(-41)] = a(-42)
    return Renaming(moves)


def test_translated_propositions_insensitive_to_valuation_renaming():
    rng = random.Random(539)
    for model in (M_ISVAR, M_NEG):
        checked = 0
        while checked < 110:
            phi = rand_prop(rng, quantifiers=False)
            ctx = d_for(phi)
            if not capture_check(ctx, phi):
                continue
            checked += 1
            t = translate(ENV, ctx, phi)
            env = lift_valuation(deep_val(rng), SIG)
            env2 = rename_valuation(deep_renaming(rng), env)
            assert as_bool(eval_hol(model, env, t)[0]) == \
                as_bool(eval_hol(model, env2, t)[0]), phi


def test_quantified_translations_insensitive_to_valuation_renaming():
    rng = random.Random(541)
    for _ in range(8):
        body = rand_prop(rng, 2, quantifiers=False)
        phi = All(X0, body)
        ctx = d_for(phi)
        if not capture_check(ctx, phi):
            continue
        t = translate(ENV, ctx, phi)
        env = lift_valuation(deep_val(rng), SIG)
        env2 = rename_valuation(deep_renaming(rng), env)
        assert as_bool(eval_hol(M_ISVAR, env, t, depth=2)[0]) == \
            as_bool(eval_hol(M_ISVAR, env2, t, depth=2)[0]), phi


def test_translated_terms_evaluate_to_identity_suspensions():
    rng = random.Random(543)
    checked = 0
    while checked < 220:
        x = rand_term(rng)
        ctx = d_for(x)
        if not capture_check(ctx, x):
            continue
        checked += 1
        t = translate(ENV, ctx, x)
        env = lift_valuation(rand_val(rng), SIG)
        got, _ = eval_hol(M_ISVAR, env, t)
        e = as_ren(got)
        assert ren_eq(e, RenElem(ID, ground_renaming_action(e.rho, e.val))), x


def test_fresh_atom_reassignment_commutes_with_renaming():
    rng = random.Random(545)
    fresh_a, fresh_b = a(40), a(41)
    for _ in range(220):
        x = rand_ground_term(rng)
        if rng.random() < 0.8:
            x = perm_act(Perm.swap(fresh_a, rng.choice(WINDOW)), x)
        t = translate(ENV, (), x)
        base = HolValuation()
        v1, _ = eval_hol(M_ISVAR, extend(base, H.AtomVar(fresh_a),
                                         AtomV(fresh_b)), t)
        v0, _ = eval_hol(M_ISVAR, base, t)
        assert sem_eq(v1, ren_act_sem(Renaming.atomic(fresh_a, fresh_b), v0)), x


def test_reassignment_fails_when_the_atom_supports_another_value():
    # moving nu@0 while another variable's value still contains nu@0 must not
    # commute: one side keeps the atoms apart, the other collapses them
    u = H.UnkVar(X0, ())
    t = H.HTup((H.App(ENV.formers["var"], H.Var(H.AtomVar(a(0)))), H.Var(u)))
    env = HolValuation({u: RenV(RenElem(ID, var(0)))})
    lhs, _ = eval_hol(M_ISVAR, extend(env, H.AtomVar(a(0)), AtomV(a(1))), t)
    rhs0, _ = eval_hol(M_ISVAR, env, t)
    rhs = ren_act_sem(Renaming.atomic(a(0), a(1)), rhs0)
    assert not sem_eq(lhs, rhs)


def test_abstracted_value_applied_to_permuted_context_atoms():
    rng = random.Random(547)
    checked = 0
    while checked < 300:
        x = rand_ground_term(rng)
        pi = rand_perm(rng)
        k = rng.randrange(0, 4)
        dp = tuple(rng.sample(WINDOW, k))
        if not (pi.nontriv & supp(x) <= set(dp)):
            continue
        checked += 1
        v = RenV(RenElem(ID, abstract_atoms(dp, x)))
        for q in dp:
            v = fn_apply(v, AtomV(pi(q)))
        assert ren_eq(as_ren(v), RenElem(ID, perm_act(pi, x))), (x, pi, dp)


# ---------------------------------------------------------------------------
# the commuting square


def test_square_on_ground_terms():
    verdict = square_check(ENV, M_ISVAR, (), Valuation(), var(0))
    assert verdict and verdict.exact and verdict.kind == "term"


def test_square_on_suspensions():
    ctx = (a(0), a(1), a(2))
    val = Valuation({X0: app(var(0), var(1))})
    v = square_check(ENV, M_ISVAR, ctx, val, Sus(Perm.swap(a(1), a(0)), X0))
    assert v.ok


def test_square_requires_a_capturing_context():
    with pytest.raises(SemanticsError):
        square_check(ENV, M_ISVAR, (), Valuation(), AbsT(a(0), Sus.of(X0)))


def test_square_infers_the_least_context():
    x = AbsT(a(0), Sus.of(X0))
    val = Valuation({X0: app(var(0), var(1))})
    got = square_check(ENV, M_ISVAR, None, val, x)
    want = square_check(ENV, M_ISVAR, canonical_context(capture_infer(x)), val, x)
    assert got.ok and got == want


def test_square_random_terms():
    rng = random.Random(549)
    for model in MODELS:
        checked = 0
        while checked < 200:
            x = rand_term(rng)
            ctx = d_for(x)
            if not capture_check(ctx, x):
                continue
            checked += 1
            v = square_check(ENV, model, ctx, rand_val(rng), x)
            assert v.ok and v.exact, (x, ctx)


def test_square_random_quantifier_free_propositions():
    rng = random.Random(551)
    for model in MODELS:
        checked = 0
        while checked < 80:
            phi = rand_prop(rng, quantifiers=False)
            ctx = d_for(phi)
            if not capture_check(ctx, phi):
                continue
            checked += 1
            v = square_check(ENV, model, ctx, rand_val(rng), phi)
            assert v.ok and v.exact, (phi, ctx)


def _rand_quantified(rng, nested: bool):
    u = rng.choice([X0, X1])
    body = rand_prop(rng, 2, quantifiers=False)
    if nested:
        body = All(rng.choice([X0, X1]), body)
    return All(u, body)


def test_square_bounded_quantified_propositions():
    rng = random.Random(553)
    for model in MODELS:
        checked = 0
        while checked < 5:
            phi = _rand_quantified(rng, nested=False)
            ctx = d_for(phi)
            if not capture_check(ctx, phi):
                continue
            checked += 1
            depth = rng.choice([2, 3])
            v = square_check(ENV, model, ctx, rand_val(rng), phi, depth=depth)
            assert v.ok and not v.exact, (phi, depth)
    checked = 0
    while checked < 3:
        phi = _rand_quantified(rng, nested=True)
        ctx = d_for(phi)
        if not capture_check(ctx, phi):
            continue
        checked += 1
        v = square_check(ENV, M_ISVAR, ctx, rand_val(rng), phi, depth=2)
        assert v.ok and not v.exact, phi


@settings(max_examples=150, deadline=None)
@given(models, st.integers(0, 2**32 - 1))
def test_square_commutes_on_random_models(model, seed):
    # a quantifier-free proposition, a one-∀ proposition at depth 1 and a
    # term, half of them `renamed` away from the windows; a term's
    # translation under a capturing context leaves no suspended renaming
    # once canonical
    rng = random.Random(seed)
    val = rand_val(rng)
    for x, depth in ((rand_prop(rng, quantifiers=False), 0),
                     (_rand_quantified(rng, nested=False), 1), (rand_term(rng), 0)):
        x = renamed(away(rng), x) if rng.random() < 0.5 else x
        ctx = d_for(x)
        if capture_check(ctx, x):
            v = square_check(ENV, model, ctx, val, x, depth)
            assert v.ok, (x, ctx)
            assert v.kind == "prop" or as_ren(v.lhs).rho.is_identity, (x, v.lhs)


def test_translated_derivations_evaluate_valid():
    rng = random.Random(555)
    for name, d in restricted_derivations():
        out = translate_derivation(ENV, d)
        seq = out.tree.concl
        for model in MODELS:
            for _ in range(3):
                env = lift_valuation(rand_val(rng), SIG)
                left = [as_bool(eval_hol(model, env, f, depth=2)[0])
                        for f in seq.left]
                right = [as_bool(eval_hol(model, env, f, depth=2)[0])
                         for f in seq.right]
                assert any(v == 0 for v in left) or any(v == 1 for v in right), \
                    (name, left, right)


# ---------------------------------------------------------------------------
# lazy enumeration of quantifier candidates

CORPUS = Path(__file__).resolve().parents[1] / "src" / "nomhol" / "corpus_files"
SIG_SORTS = [NSORT, IOTA, TupleSort((IOTA, IOTA)), AbsSort(NU, IOTA)]
WINDOWS = [pmss_window(p, SIG.name_sorts) for p in (PMSS_ALL, PMSS_HALF, PMSS_DOWN)]
WINDOWS.append(default_window(SIG))


def _enumeration_cases(windows):
    """(sort, window, depth) at depth <= 3.  The eager pool of pairs at
    depth 3 holds 0.46M-15.7M terms on windows of three or more atoms; it
    is compared on the two-atom window only."""
    for sort in SIG_SORTS:
        for window in windows:
            for depth in range(4):
                if sort != TupleSort((IOTA, IOTA)) or depth < 3 or len(window) <= 2:
                    yield sort, window, depth


def assert_one_per_class(got, sort, window, depth):
    """The terms got hold one term of each alpha-class of the eager
    oracle's terms, and no other."""
    keys = [alpha_key(t) for t in got]
    assert len(set(keys)) == len(keys), ("a class repeats", sort, window, depth)
    want = {alpha_key(t) for t in oracles.enumerate_ground(SIG, sort, window, depth)}
    assert set(keys) == want, (sort, window, depth)


def test_lazy_enumeration_matches_the_eager_oracle():
    for sort, window, depth in _enumeration_cases(WINDOWS):
        got = enumerate_ground(SIG, sort, window, depth)
        assert iter(got) is got, "not lazy"
        assert_one_per_class(list(got), sort, window, depth)


def test_enumeration_counts_the_alpha_classes():
    window = default_window(SIG)
    assert [sum(1 for _ in enumerate_ground(SIG, IOTA, window, depth))
            for depth in (1, 2, 3)] == [5, 36, 1350]
    # the terms they stand for
    assert [len(oracles.enumerate_ground(SIG, IOTA, window, depth))
            for depth in (1, 2, 3)] == [5, 60, 3965]


def test_enumeration_leaves_no_cycle_to_collect():
    sort = TupleSort((IOTA, AbsSort(NU, IOTA)))
    gc.collect()
    gc.disable()
    try:
        drawn = sum(1 for _ in enumerate_ground(SIG, sort, WINDOW, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert drawn == 36 * 49


def rename_binders(rng, x, atoms=(*WINDOW, a(3), a(7))):
    """An alpha-variant of the ground term x: each binder, innermost first,
    moved to a random atom of `atoms` that is not free in its abstraction."""
    t = type(x)
    if t is Former:
        return Former(x.name, rename_binders(rng, x.arg, atoms))
    if t is Tup:
        return Tup(tuple(rename_binders(rng, r, atoms) for r in x.items))
    if t is AbsT:
        body = rename_binders(rng, x.body, atoms)
        free = supp(AbsT(x.atom, body))
        b = rng.choice([c for c in atoms if c not in free])
        return AbsT(b, body if b == x.atom else perm_act(Perm.swap(x.atom, b), body))
    return x


# every term of depth 3 inside X0's permission set (GROUND_HALF: of depth
# 2 inside X1's)
VARIANTS_ALL = oracles.enumerate_ground(SIG, IOTA, WINDOW, 3)
Y0 = Unknown(IOTA, PMSS_ALL, 5)
# an index of VARIANTS_ALL, of a lam term half the time: its 360 lam terms
# come last, where st.integers over its indices seldom draws
LAMS = [i for i, x in enumerate(VARIANTS_ALL) if isinstance(x, Former) and x.name == "lam"]
CANDIDATES = st.sampled_from(LAMS) | st.sampled_from(
    sorted(set(range(len(VARIANTS_ALL))) - set(LAMS)))


@settings(max_examples=200, deadline=None)
@given(CANDIDATES, CANDIDATES,
       st.booleans(), st.integers(0, len(GROUND_HALF) - 1),
       st.integers(0, 2**32 - 1))
def test_alpha_equal_candidates_get_one_value(i, j, same, k, seed):
    # enumerate_ground drops every alpha-variant of the candidates it
    # yields: sound only if no model tells alpha-variants apart.  A term is
    # often paired with itself, so that the two sides of a pair are
    # renamed apart.
    rng = random.Random(seed)
    x, y, z = VARIANTS_ALL[i], VARIANTS_ALL[i if same else j], GROUND_HALF[k]
    x2, y2, z2 = (rename_binders(rng, r) for r in (x, y, z))
    assert alpha_eq(x, x2) and alpha_eq(y, y2) and alpha_eq(z, z2)
    # no model of MODELS has a pattern that binds an atom, which the
    # matcher compares up to alpha in a branch of its own: x under the
    # pattern's binder reaches it, and its variant under another binder
    islam = PredSpec(((Former("lam", AbsT(a(0), Sus.of(W1))), 1),), 0)
    lam = Former("lam", AbsT(a(0), x))
    cases = [(spec, (x, x2) if name == "P" else (Tup((x, y)), Tup((x2, y2))))
             for model in MODELS for name, spec in model.preds.items()]
    for spec, (arg, arg2) in cases + [(islam, (lam, rename_binders(rng, lam)))]:
        apply = spec.matcher
        assert apply(arg) == apply(arg2), (spec, arg, arg2)
    val = Valuation({X0: x, Y0: y, X1: z})
    val2 = Valuation({X0: x2, Y0: y2, X1: z2})
    eq = lambda s, t: Pred("equal", Tup((s, t)))
    phis = [Pred("P", Sus(rand_perm(rng), X0)), eq(Sus.of(X0), Sus.of(Y0)),
            eq(Sus(rand_perm(rng), X0), Sus.of(X1)),
            *(rand_prop(rng, 3) for _ in range(2))]
    for model in MODELS:
        for phi in phis:
            assert eval_pnl_prop(model, val, phi, 1) == \
                eval_pnl_prop(model, val2, phi, 1), (phi, x2, y2, z2)
            ctx = d_for(phi)
            if capture_check(ctx, phi):
                t = translate(ENV, ctx, phi)
                assert eval_hol(model, lift_valuation(val, SIG), t, 1) == \
                    eval_hol(model, lift_valuation(val2, SIG), t, 1), (phi, x2, y2, z2)


def _quantified_cases(rng):
    """(model, proposition, valuation, depth) quadruples, one and two
    quantifiers deep, for comparing evaluation against the eager pools."""
    out = []
    for model in MODELS:
        while sum(case[0] is model for case in out) < 8:
            nested = len(out) % 4 == 3
            phi = _rand_quantified(rng, nested)
            if capture_check(d_for(phi), phi):
                depth = rng.choice([1, 2] if nested else [1, 2, 3])
                out.append((model, phi, rand_val(rng), depth))
    return out


def test_evaluation_agrees_with_the_eager_oracle(monkeypatch):
    cases = _quantified_cases(random.Random(557))
    # a higher-order quantifier over a plain variable of an image type
    w = H.PlainVar(H.sort_to_type(IOTA), 0)
    g_p = translate(ENV, (), Pred("P", var(0))).fn
    over_iota = H.forall(w, H.App(g_p, H.Var(w)))

    def run():
        return ([(eval_pnl_prop(model, val, phi, depth),
                  square_check(ENV, model, d_for(phi), val, phi, depth))
                 for model, phi, val, depth in cases],
                [eval_hol(model, HolValuation(), over_iota, depth)
                 for model in MODELS for depth in (1, 2, 3)])

    lazy = run()
    monkeypatch.setattr(semantics, "enumerate_ground", oracles.enumerate_ground)
    eager = run()
    assert lazy == eager
    props, generic = lazy
    assert {v for (v, _), _ in props} == {0, 1}
    assert {got.value for got, _ in generic} == {0, 1}


def test_depth_four_refutation_draws_few_candidates(monkeypatch):
    # checked first: an eager pool of iota at depth 4 holds 15.7M terms
    pool = enumerate_ground(SIG, IOTA, default_window(SIG), 1)
    assert iter(pool) is pool, "enumerate_ground builds its pool eagerly"
    model = F.parse_document((CORPUS / "model_basic.sexp").read_text(),
                             "model", SIG)
    phi = F.parse_document((CORPUS / "beta1.sexp").read_text(), "pnl", SIG)
    drawn = []

    def counted(*args):
        for t in enumerate_ground(*args):
            drawn.append(t)
            yield t

    monkeypatch.setattr(semantics, "enumerate_ground", counted)
    assert eval_pnl_prop(model, Valuation(), phi, 4) == (0, False)
    assert len(drawn) == 1
    drawn.clear()
    # both sides of the square draw from one pool, the direct value
    # replaying the candidate its translation drew
    v = square_check(ENV, model, None, Valuation(), phi, 4)
    assert v.ok and not v.exact and v.lhs == 0
    assert len(drawn) == 1


# ---------------------------------------------------------------------------
# compiled evaluation against the tree-walking oracles


@st.composite
def pattern_and_term_st(draw):
    """A pattern from `gen.rand_term` (repeated pattern variables, suspensions
    under non-identity permutations, binders) and a ground term: usually an
    instance of the pattern, so that both verdicts occur, else a random
    ground term of the same sort."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sort = rng.choice([IOTA, IOTA, TupleSort((IOTA, IOTA)), AbsSort(NU, IOTA)])
    pattern = rand_term(rng, rng.randrange(1, 5), sort)
    if rng.random() < 0.7:
        term = oracles.eval_pnl_term(M_ISVAR, rand_val(rng), pattern)
        if rng.random() < 0.3:
            term = perm_act(rand_perm(rng), term)
    else:
        term = rand_ground_term(rng, rng.randrange(1, 4), sort)
    return pattern, term


@settings(max_examples=300, deadline=None)
@given(pattern_and_term_st())
def test_compiled_matcher_agrees_with_the_oracle(case):
    pattern, term = case
    want = oracles.match_pattern(pattern, term)
    assert compile_pattern(pattern)(term) == want
    # the same verdict from the compiled one-clause table
    spec = PredSpec(((pattern, 1),), 0)
    assert spec.matcher(term) == oracles.spec_apply(spec, term) == \
        int(want is not None)


def test_predicate_values_outlive_their_evaluation():
    # The g_equal value escapes the evaluation whose iota pool it was applied
    # to until exhausted.  Once that evaluation is freed, fresh terms take the
    # pool terms' ids; nothing the value kept may answer for them.
    w = H.PlainVar(H.sort_to_type(IOTA), 0)
    gp = H.App(translate(ENV, (), Pred("P", var(0))).fn, H.Var(w))
    pair, _ = eval_hol(M_ISVAR, HolValuation(),
                       H.HTup((H.forall(w, H.imp(gp, gp)),
                               ENV.formers["equal"])), 2)
    g = pair.items[1]
    gc.collect()
    # atoms outside WIDE: a pair of fresh terms is an instance of EQ_SPEC
    # only when the term is closed
    fresh = oracles.enumerate_ground(SIG, IOTA, [Atom(NU, i) for i in range(50, 53)], 3)
    verdicts = []
    for x in fresh:
        y = Tup((x, x))
        got = as_bool(fn_apply(g, RenV(RenElem(ID, y))))
        assert got == oracles.spec_apply(EQ_SPEC, y), x
        verdicts.append(got)
    assert verdicts.count(0) > 500 and 1 in verdicts


def test_compiled_clause_tables_agree_with_the_oracle():
    rng = random.Random(561)
    matched = 0
    for _ in range(300):
        clauses = tuple((rand_term(rng, rng.randrange(1, 4)), rng.randrange(2))
                        for _ in range(rng.randrange(0, 5)))
        spec = PredSpec(clauses, rng.randrange(2))
        for _ in range(4):
            x = rand_ground_term(rng, rng.randrange(1, 4))
            if clauses and rng.random() < 0.5:
                x = oracles.eval_pnl_term(M_ISVAR, rand_val(rng), rng.choice(clauses)[0])
            got = spec.matcher(x)
            assert got == oracles.spec_apply(spec, x), (clauses, x)
            matched += any(oracles.match_pattern(p, x) is not None for p, _ in clauses)
    assert matched > 100


def _nesting(phi) -> int:
    match phi:
        case All(_, body):
            return 1 + _nesting(body)
        case Imp(p, q):
            return max(_nesting(p), _nesting(q))
    return 0


def _oracle_cases():
    """(proposition, valuation, depth) triples at depth <= 3: random
    propositions and the corpus eta and beta axioms, none deeper than the
    tree-walking oracles evaluate in about a second on all three models."""
    rng = random.Random(563)
    cases = []
    while len(cases) < 20:
        phi = rand_prop(rng, rng.randrange(2, 5))
        n = _nesting(phi)
        if n and capture_check(d_for(phi), phi):
            cases.append((phi, rand_val(rng), rng.randrange(1, 5 - n)))
    eta = eta_axiom()
    for phi in [eta, *beta_axioms()]:
        deepest = 3 if phi is eta else min(2, 4 - _nesting(phi))
        cases += [(phi, Valuation(), depth) for depth in range(1, deepest + 1)]
    return cases


def test_evaluation_agrees_with_the_tree_walking_oracles():
    values = set()
    for model in MODELS:
        for phi, val, depth in _oracle_cases():
            got = eval_pnl_prop(model, val, phi, depth)
            assert got == oracles.eval_pnl_prop(model, val, phi, depth), (phi, depth)
            values.add(got[0])
            ctx = d_for(phi)
            t = translate(ENV, ctx, phi)
            env = lift_valuation(val, SIG)
            assert eval_hol(model, env, t, depth) == \
                oracles.eval_hol(model, env, t, depth), (phi, depth)
    assert values == {0, 1}
    rng = random.Random(565)
    for _ in range(200):
        x, val = rand_term(rng), rand_val(rng)
        assert eval_pnl_term(M_ISVAR, val, x) == oracles.eval_pnl_term(M_ISVAR, val, x)


def test_pools_and_supports_are_built_once_per_evaluation(monkeypatch):
    y = Unknown(IOTA, PMSS_ALL, 5)
    eq = lambda s, t: Pred("equal", Tup((s, t)))
    both = eq(Sus.of(X0), Sus.of(y))
    phi = All(X0, All(y, Imp(both, Imp(eq(Sus.of(y), Sus.of(X0)), both))))
    pools, supports = [], []
    counted_pools = lambda sig, sort, window, depth: (
        pools.append((sort, tuple(window), depth)) or enumerate_ground(sig, sort, window, depth))
    declared = PredSpec.declared_support

    def counted_support(spec):
        supports.append(spec)
        return declared(spec)

    monkeypatch.setattr(semantics, "enumerate_ground", counted_pools)
    monkeypatch.setattr(semantics.PredSpec, "declared_support", counted_support)
    for model in MODELS:
        pools.clear()
        assert eval_pnl_prop(model, Valuation(), phi, 2) == (1, False)
        assert len(pools) == len(set(pools)) == 1
        pools.clear()
        t = translate(ENV, d_for(phi), phi)
        got, exact = eval_hol(model, HolValuation(), t, 2)
        assert got == BoolV(1) and not exact
        assert len(pools) == len(set(pools)) == 1
        assert len(supports) == len(set(map(id, supports))) == 1
        supports.clear()


def test_square_compiles_and_walks_each_clause_pattern_once(monkeypatch):
    # fresh tables, since a table keeps what it has worked out; each side's
    # ∀ asks for its view, and the HOL side applies the pred constants
    model = HerbrandModel(SIG, {name: PredSpec(spec.clauses, spec.default)
                                for name, spec in M_ISVAR.preds.items()})
    patterns = [p for spec in model.preds.values() for p, _ in spec.clauses]
    compiled, walked = [], []
    test, written = semantics._pattern_test, semantics._written

    def counted_written(xs):
        xs = list(xs)
        walked.extend(x for x in xs if any(x is p for p in patterns))
        return written(xs)

    monkeypatch.setattr(semantics, "_pattern_test",
                        lambda p, *rest: compiled.append(p) or test(p, *rest))
    monkeypatch.setattr(semantics, "_written", counted_written)
    phi = All(X0, Imp(Pred("P", Sus.of(X0)), Pred("equal", Tup((Sus.of(X0), Sus.of(X0))))))
    verdict = square_check(ENV, model, None, Valuation(), phi, 2)
    assert verdict.ok and verdict.lhs == verdict.rhs == 1
    # one call per pattern node: var(X) and (X, X)
    assert len(compiled) == 5 and all(any(p is q for q in compiled) for p in patterns)
    assert len(walked) == len(patterns) == len(set(map(id, walked)))


def test_pools_past_the_limit_are_drawn_anew(monkeypatch):
    # past depth 1 the pools of the oracle cases, and the later slots of
    # pairs that enumerate_ground replays from depth 2, outgrow a limit of
    # 7 terms
    monkeypatch.setattr(semantics, "POOL_LIMIT", 7)
    for sort, window, depth in _enumeration_cases(WINDOWS[:1]):
        assert_one_per_class(list(enumerate_ground(SIG, sort, window, depth)),
                             sort, window, depth)
    for model in MODELS:
        for phi, val, depth in _oracle_cases()[::3]:
            assert eval_pnl_prop(model, val, phi, depth) == \
                oracles.eval_pnl_prop(model, val, phi, depth), (phi, depth)
            t = translate(ENV, d_for(phi), phi)
            env = lift_valuation(val, SIG)
            assert eval_hol(model, env, t, depth) == \
                oracles.eval_hol(model, env, t, depth), (phi, depth)


# ---------------------------------------------------------------------------
# one candidate per orbit


def _rand_orbit_prop(rng, quantifiers: int):
    """A proposition with one to `quantifiers` nested ∀ over X0, X1 and X2,
    some under an implication, most over an unknown their body mentions,
    so that the others are free in it."""
    if not quantifiers:
        if rng.random() < 0.5:
            return with_unknowns(rng, rand_prop(rng, 2, quantifiers=False))
        # a predicate of suspensions, which relates the unknowns
        sus = lambda: Sus(rand_perm(rng), rng.choice([X0, X1, X2]))
        phi = Pred("equal", Tup((sus(), sus()))) if rng.random() < 0.7 else Pred("P", sus())
        return Imp(phi, Bot()) if rng.random() < 0.3 else phi
    body = _rand_orbit_prop(rng, quantifiers - 1 if rng.random() < 0.6 else 0)
    free = sorted(free_unknowns(body), key=repr)
    phi = All(rng.choice(free if free and rng.random() < 0.8 else [X0, X1, X2]), body)
    kind = rng.random()
    if kind < 0.3:
        return Imp(phi, Bot())
    if kind < 0.5:
        return Imp(with_unknowns(rng, rand_prop(rng, 2, quantifiers=False)), phi)
    return phi


def _neg(phi):
    return Imp(phi, Bot())


def _p(x):
    return Pred("P", Sus.of(x))


# Propositions that name no atom, each at its depth.  On the tables that
# `gen.rand_model` plants, each turns on two window atoms that only one of
# these tells apart: the model's clauses (∀ and ∃ of P), an enclosing
# candidate (∃X2 such that P, or not P, holds of every other X1), or X1's
# window (every X2 has an equal X1: not nu@-3).
PLANTED_PROPS = [(All(X2, _neg(All(X1, _neg(Pred("equal", Tup((Sus.of(X2), Sus.of(X1)))))))), 1)]
for _q in (_p, lambda x: _neg(_p(x))):
    PLANTED_PROPS += [
        (All(X0, _q(X0)), 2), (All(X1, _q(X1)), 1),
        (_neg(All(X2, _neg(All(X1, Imp(_neg(Pred("equal", Tup((Sus.of(X2), Sus.of(X1))))),
                                       _q(X1)))))), 1)]


@settings(max_examples=200, deadline=None)
@given(models, st.integers(0, 2**32 - 1))
def test_orbit_reduction_agrees_with_full_enumeration_on_random_models(model, seed):
    # one or two nested ∀ over X0, X1 and X2, whose windows and permission
    # sets differ, at depth 1, or one at depth 2; X2 is unassigned; then
    # the planted propositions
    rng = random.Random(seed)
    phi = renamed(away(rng), _rand_orbit_prop(rng, 2))
    depth = 1 if _nesting(phi) > 1 else rng.choice([1, 2])
    val = rand_val(rng)
    for phi, depth in [(phi, depth), *PLANTED_PROPS]:
        assert eval_pnl_prop(model, val, phi, depth) == \
            oracles.eval_pnl_prop(model, val, phi, depth), (phi, depth)
        ctx = d_for(phi)
        if capture_check(ctx, phi):
            t, env = translate(ENV, ctx, phi), lift_valuation(val, SIG)
            assert eval_hol(model, env, t, depth) == \
                oracles.eval_hol(model, env, t, depth), (phi, depth)


def count_candidates(monkeypatch, full: bool = False) -> Counter:
    """Counts the candidates each quantifier tries, by nesting level: at
    level 1, the pairs under one enclosing candidate.  With `full`, every
    quantifier tries every alpha-class."""
    tried, level = Counter(), [0]
    forall = semantics._Pools.forall

    def counted(self, sort, window, holds, classes=None):
        def inner(t):
            tried[level[0]] += 1
            level[0] += 1
            try:
                return holds(t)
            finally:
                level[0] -= 1
        return forall(self, sort, window, inner, None if full else classes)
    monkeypatch.setattr(semantics._Pools, "forall", counted)
    return tried


def orbits_of(terms, classes) -> list:
    """Each term's orbit under the permutations that move atoms only within
    one of the classes, as the set of its images' alpha_keys, found by
    applying every such permutation."""
    perms = [Perm.identity()]
    for cls in classes:
        perms = [p.compose(Perm(dict(zip(cls, image))))
                 for p in perms for image in itertools.permutations(cls)]
    return [frozenset(alpha_key(perm_act(p, t)) for p in perms) for t in terms]


def orbit_count(terms, classes) -> int:
    return len(set(orbits_of(terms, classes)))


@pytest.mark.parametrize("classes", [(0, 0, 0, 0, 0), (0, None, 0, 1, 1),
                                     (None, 0, 1, 0, None), (0, 1, 0, 1, 0)])
def test_canonical_terms_are_one_per_orbit(classes):
    window = tuple(default_window(SIG))
    groups = [[a for a, c in zip(window, classes) if c == k]
              for k in set(classes) - {None}]
    pairs = TupleSort((IOTA, IOTA))
    for sort, depth in [(s, d) for s in SIG_SORTS for d in (1, 2) if (s, d) != (pairs, 2)]:
        pool = list(enumerate_ground(SIG, sort, window, depth))
        kept = list(semantics._canonical(pool, window, classes))
        # the pool's first term among them, in pool order, one per orbit
        rest = iter(pool)
        assert kept[0] is pool[0] and all(any(t is u for u in rest) for t in kept)
        assert len(set(orbits_of(kept, groups))) == len(kept) == \
            orbit_count(pool, groups), (sort, depth)
    # a pool with every alpha-variant keeps every variant of each term kept
    eager = oracles.enumerate_ground(SIG, IOTA, window, 2)
    kept = list(semantics._canonical(eager, window, classes))
    assert {alpha_key(t) for t in kept} == \
        {alpha_key(t) for t in semantics._canonical(enumerate_ground(SIG, IOTA, window, 2),
                                                    window, classes)}


Y1 = Unknown(IOTA, PMSS_HALF, 11)   # X1's window: nu@0, nu@-1, nu@-2
HALF = [a(0), a(-1), a(-2)]


def _valid_props(model):
    """The square workload's valid propositions: one and two ∀ over X1's
    permission set."""
    x, y = Sus.of(X1), Sus.of(Y1)
    eq = lambda s, t: Pred("equal", Tup((s, t)))
    one = Imp(Pred("P", x), Pred("P", x))
    return All(X1, one), All(X1, All(Y1, Imp(eq(x, y), eq(y, x) if model is M_NONEQ
                                              else eq(x, y))))


def test_valid_quantifiers_try_one_candidate_per_orbit(monkeypatch):
    # the interchangeable atoms: all three on isvar and neg; on noneq, whose
    # clause names nu@0, the other two
    counts = [(5, 62, 51), (10, 155, 136), (5, 62, 51)]
    for model, (n1, n2, pairs), free in zip(MODELS, counts, [[HALF], [HALF[1:]], [HALF]]):
        one, two = _valid_props(model)
        for depth, want in [(2, n1), (3, n2)]:
            assert want == orbit_count(enumerate_ground(SIG, IOTA, HALF, depth), free)
        t1, t2 = (translate(ENV, d_for(phi), phi) for phi in (one, two))
        for full in (False, True):
            tried = count_candidates(monkeypatch, full)
            for phi, t, depth, level, want in [(one, t1, 2, 0, (n1, 16)),
                                               (one, t1, 3, 0, (n2, 284)),
                                               (two, t2, 2, 1, (pairs, 256))]:
                assert eval_pnl_prop(model, Valuation(), phi, depth) == (1, False)
                assert tried[level] == want[full], (model, phi, depth, full)
                tried.clear()
                assert eval_hol(model, HolValuation(), t, depth) == (BoolV(1), False)
                assert tried[level] == want[full], (model, t, depth, full)
                tried.clear()
            monkeypatch.undo()


SPLIT_N = Unknown(NSORT, WIDE.minus_finite([a(-2)]), 93)
LAMS_APART = Tup((Former("lam", AbsT(a(-1), Sus.of(X1))), Former("lam", AbsT(a(-2), Sus.of(X1)))))
EQ_X0 = Pred("equal", Tup((Sus.of(X1), Sus.of(X0))))
P_X1 = Pred("P", Sus.of(X1))


@pytest.mark.parametrize("model, val, refuted, valid, free", [
    # a pattern unknown's permission set separates nu@-1 from nu@-2
    (HerbrandModel(SIG, {"P": PredSpec(((Former("var", Sus.of(SPLIT_N)), 1),), 0),
                         "equal": EQ_SPEC}),
     Valuation(), P_X1, Imp(P_X1, P_X1), [[a(0), a(-1)]]),
    # nu@-1 is written only in a pattern's suspension: P holds where it is
    # not free
    (HerbrandModel(SIG, {"P": PredSpec(((Sus(Perm.swap(a(-1), a(3)), X1), 1),), 0),
                         "equal": EQ_SPEC}),
     Valuation(), P_X1, Imp(P_X1, P_X1), [[a(0), a(-2)]]),
    # binders of the proposition lie in the quantified unknown's set
    (M_ISVAR, Valuation(), Pred("equal", LAMS_APART),
     Imp(Bot(), Pred("equal", LAMS_APART)), []),
    # the value of a free unknown: X1 is never it
    (M_ISVAR, Valuation({X0: var(-1)}), Imp(EQ_X0, Bot()), Imp(EQ_X0, EQ_X0),
     [[a(0), a(-2)]]),
    # a declared extra support
    (HerbrandModel(SIG, {"P": PredSpec(ISVAR_SPEC.clauses, 0, frozenset({a(-1)})),
                         "equal": EQ_SPEC}),
     Valuation(), None, Imp(P_X1, P_X1), [[a(0), a(-2)]]),
])
def test_atoms_the_evaluation_sees_split_the_orbits(monkeypatch, model, val, refuted, valid, free):
    # each refuted proposition holds of the first candidate of every orbit
    # that merges the atoms split apart, so a merge would read 1
    for body, depth, value in [(refuted, 1, 0), (valid, 2, 1)]:
        if body is None:
            continue
        phi = All(X1, body)
        ctx = d_for(phi)
        t, env = translate(ENV, ctx, phi), lift_valuation(val, SIG)
        tried = count_candidates(monkeypatch)
        got = eval_pnl_prop(model, val, phi, depth)
        assert got == oracles.eval_pnl_prop(model, val, phi, depth) == (value, False)
        pnl_tried = tried[0]
        tried.clear()
        got = eval_hol(model, env, t, depth)
        assert got == oracles.eval_hol(model, env, t, depth) == (_BOOL[value], False)
        assert tried[0] == pnl_tried
        if value:   # exhausted: one candidate per orbit of what is not split
            assert pnl_tried == orbit_count(enumerate_ground(SIG, IOTA, HALF, depth), free)
        monkeypatch.undo()


def test_the_windows_in_play_split_the_orbits():
    # X2 ranges over nu@0, nu@-1, nu@-3 and X1 over nu@0, nu@-1, nu@-2, so
    # var(nu@-3) has no equal among X1's candidates: merged with var(nu@-1),
    # whose equal is one, it would leave the proposition true
    some_equal = Imp(All(X1, Imp(Pred("equal", Tup((Sus.of(X2), Sus.of(X1)))), Bot())), Bot())
    phi = All(X2, some_equal)
    t = translate(ENV, d_for(phi), phi)
    assert eval_pnl_prop(M_ISVAR, Valuation(), phi, 1) == \
        oracles.eval_pnl_prop(M_ISVAR, Valuation(), phi, 1) == (0, False)
    assert eval_hol(M_ISVAR, HolValuation(), t, 1) == \
        oracles.eval_hol(M_ISVAR, HolValuation(), t, 1) == (BoolV(0), False)
    # the quantifier constant ranges over default_window, nu@-2..nu@2: no
    # term of it equals var(nu@7)
    z = H.UnkVar(Unknown(IOTA, permission_set(plus=frozenset({a(0), a(7)})), 7), ())
    w = H.PlainVar(H.sort_to_type(IOTA), 0)
    g_eq = ENV.formers["equal"]
    unequal = H.imp(H.App(g_eq, H.HTup((H.Var(w), H.Var(z)))), H.BOT)
    t = H.forall(z, H.imp(H.forall(w, unequal), H.BOT))
    assert eval_hol(M_ISVAR, HolValuation(), t, 1) == \
        oracles.eval_hol(M_ISVAR, HolValuation(), t, 1) == (BoolV(0), False)


_BOOL = (BoolV(0), BoolV(1))


# ---------------------------------------------------------------------------
# partial application of a model at a distinguished first slot


SIG2 = PnlSignature(
    name_sorts=frozenset({NU}),
    base_sorts=frozenset({"iota"}),
    term_formers=dict(SIG.term_formers),
    prop_formers={"Q": TupleSort((IOTA, IOTA))},
)

PAIR_SPEC = PredSpec((
    (Tup((var(0), Sus.of(W1))), 1),
    (Tup((Sus.of(W1), Sus.of(W1))), 1),
    (Tup((var(1), var(2))), 0),
), 0)

M_PAIR = HerbrandModel(SIG2, {"Q": PAIR_SPEC})


def test_convert_model_agrees_with_direct_evaluation():
    rng = random.Random(557)
    for z in [var(0), var(1), app(var(0), var(0)),
              Former("lam", AbsT(a(0), var(0)))]:
        m = convert_model(M_PAIR, z)
        assert m.preds["Q"].extra_support >= supp(z)
        for _ in range(60):
            r = rand_ground_term(rng)
            assert m.spec("Q").matcher(r) == PAIR_SPEC.matcher(Tup((z, r))), (z, r)


def test_convert_model_default_only_and_pruning():
    m = convert_model(HerbrandModel(SIG2, {"Q": PredSpec((), 1)}), var(0))
    assert m.spec("Q").clauses == () and m.spec("Q").default == 1
    only = PredSpec(((Tup((var(5), Sus.of(W1))), 1),), 0)
    m = convert_model(HerbrandModel(SIG2, {"Q": only}), var(0))
    assert m.spec("Q").clauses == () and m.spec("Q").matcher(var(5)) == 0


def test_convert_model_sort_mismatch():
    with pytest.raises(SemanticsError):
        convert_model(M_PAIR, AtomT(a(0)))
