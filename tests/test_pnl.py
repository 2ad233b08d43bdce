import random

import pytest
from hypothesis import given, settings, strategies as st

from nomhol.atoms import Atom, CofinAtomSet, Perm, perm_image_set, permission_set, set_subset
from nomhol.pnl import (AbsSort, AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        NameSort, Perm2, PnlSubst, Pred, SortError, Sus, Tup,
                        TupleSort, Unknown, alpha_eq, alpha_key, check_prop,
                        free_atoms, free_unknowns, perm2_act, perm_act,
                        sort_of, subst_apply, subst_one)

import oracles
from gen import (IOTA, NSORT, NU, PMSS_ALL, PMSS_HALF, SIG, WINDOW, X0, X1,
                 rand_perm, rand_prop, rand_term)
from spec import pi_translate, subst_map, subst_validate


def a(i):
    return Atom(NU, i)


def var(i):
    return Former("var", AtomT(a(i)))


# --- sorting ---------------------------------------------------------------

def test_sort_var():
    assert sort_of(SIG, var(0)) == IOTA


def test_sort_abstraction_of_unknown():
    t = AbsT(a(0), Sus.of(X0))
    assert sort_of(SIG, t) == AbsSort(NU, IOTA)


def test_sort_arity_violation():
    with pytest.raises(SortError):
        sort_of(SIG, Former("app", var(0)))


def test_check_prop():
    assert check_prop(SIG, Pred("equal", Tup((var(0), var(1)))))
    with pytest.raises(SortError):
        check_prop(SIG, Pred("P", AtomT(a(0))))


# --- permutation actions ---------------------------------------------------

def test_perm_act_atom():
    assert perm_act(Perm.swap(a(0), a(1)), var(0)) == var(1)


def test_perm_act_abstraction_suspends():
    pi = Perm.swap(a(0), a(1))
    got = perm_act(pi, AbsT(a(0), Sus.of(X0)))
    assert got == AbsT(a(1), Sus(pi, X0))


def test_perm_act_identity():
    t = AbsT(a(0), Sus.of(X0))
    assert perm_act(Perm.identity(), t) == t


def test_perm2_act_on_suspension_and_binder():
    Y = Unknown(IOTA, PMSS_ALL, 7)
    big = Perm2.swap(X0, Y)
    pi = Perm.swap(a(0), a(1))
    assert perm2_act(big, Sus(pi, X0)) == Sus(pi, Y)
    body = Pred("P", Sus.of(X0))
    assert perm2_act(big, All(X0, body)) == All(Y, Pred("P", Sus.of(Y)))


# --- free atoms / unknowns ---------------------------------------------------

def test_fa_atom():
    assert free_atoms(var(0)) == CofinAtomSet.finite([a(0)])


def test_fa_suspension_is_perm_image_of_pmss():
    got = free_atoms(Sus(Perm.swap(a(0), a(1)), X1))
    assert got == CofinAtomSet.cofin([], [a(1)])


def test_fa_abstraction_removes_atom():
    got = free_atoms(AbsT(a(0), Sus.of(X1)))
    assert got == CofinAtomSet.cofin([], [])


def test_free_unknowns_forall_binds():
    phi = All(X0, Imp(Pred("P", Sus.of(X0)), Pred("P", Sus.of(X1))))
    assert free_unknowns(phi) == frozenset({X1})


def rand_syntax(rng):
    return rand_prop(rng) if rng.random() < 0.4 else rand_term(rng)


def test_fa_equivariance_randomized():
    rng = random.Random(7)
    for _ in range(300):
        x = rand_syntax(rng)
        pi = rand_perm(rng)
        assert free_atoms(perm_act(pi, x)) == perm_image_set(pi, free_atoms(x))


# --- alpha equivalence -------------------------------------------------------

def test_alpha_forall_example():
    X = Unknown(IOTA, PMSS_HALF, 0)
    Y = Unknown(IOTA, PMSS_HALF, 1)
    lhs = All(X, Pred("P", Former("lam", AbsT(a(0), Sus.of(X)))))
    rhs = All(Y, Pred("P", Former("lam", AbsT(a(1), Sus(Perm.swap(a(1), a(0)), Y)))))
    assert alpha_eq(lhs, rhs)


def test_alpha_closed_abstraction():
    assert alpha_eq(AbsT(a(0), var(0)), AbsT(a(1), var(1)))


def test_alpha_suspension_disagrees_inside_pmss():
    assert not alpha_eq(Sus.of(X0), Sus(Perm.swap(a(1), a(0)), X0))


def test_alpha_suspension_agrees_outside_pmss():
    # X1 only permits nu@0 upward; a swap of nu@1,nu@2 is invisible
    assert alpha_eq(Sus.of(X1), Sus(Perm.swap(a(1), a(2)), X1))


# Brute-force oracle: canonicalize binders to reserved names (index >= 1000,
# outside every generated term and permission-set plus part) and suspensions
# to their pmss-restricted move maps, then compare structurally.

def canon(x, depth=0):
    match x:
        case AtomT(_) | Bot():
            return x
        case Tup(items):
            return ("tup", tuple(canon(r, depth) for r in items))
        case Former(f, arg):
            return ("f", f, canon(arg, depth))
        case AbsT(b, body):
            c = Atom(b.sort, 1000 + depth)
            return ("abs", c, canon(perm_act(Perm.swap(c, b), body), depth + 1))
        case Sus(pi, unk):
            moves = frozenset((q, pi(q)) for q in pi.nontriv if q in unk.pmss)
            return ("sus", moves, unk)
        case Imp(p, q):
            return ("imp", canon(p, depth), canon(q, depth))
        case Pred(p, arg):
            return ("pred", p, canon(arg, depth))
        case All(unk, body):
            c = Unknown(unk.sort, unk.pmss, 1000 + depth)
            return ("all", c.sort, c.pmss,
                    canon(perm2_act(Perm2.swap(c, unk), body), depth + 1))


def test_alpha_matches_canonicalizing_oracle():
    rng = random.Random(11)
    for _ in range(1500):
        x = rand_syntax(rng)
        y = rand_syntax(rng) if rng.random() < 0.5 else perm_act(rand_perm(rng), x)
        assert alpha_eq(x, y) == (canon(x) == canon(y)), (x, y)
        assert alpha_eq(x, y) == oracles.alpha_eq(x, y), (x, y)


# Beyond the windows of gen.py: atoms nu@-6..nu@6, four unknowns (one whose
# permission set leaves out a downward atom), up to eight levels of nesting,
# binders over suspensions and quantifiers over both.

ATOMS = [a(i) for i in range(-6, 7)]
UNKNOWNS = [X0, X1, Unknown(IOTA, PMSS_ALL, 2),
            Unknown(IOTA, permission_set(frozenset({a(3), a(5)}), frozenset({a(-1)})), 3)]

perms_st = st.lists(st.sampled_from(ATOMS), unique=True, max_size=5).map(
    lambda cycle: Perm.from_cycles([cycle]) if len(cycle) > 1 else Perm.identity())


@st.composite
def terms_st(draw, depth=8):
    kind = draw(st.sampled_from(("var", "sus", "app", "lam", "lam") if depth else ("var", "sus")))
    match kind:
        case "var":
            return Former("var", AtomT(draw(st.sampled_from(ATOMS))))
        case "sus":
            return Sus(draw(perms_st), draw(st.sampled_from(UNKNOWNS)))
        case "app":
            return Former("app", Tup((draw(terms_st(depth - 1)), draw(terms_st(depth - 1)))))
    return Former("lam", AbsT(draw(st.sampled_from(ATOMS)), draw(terms_st(depth - 1))))


@st.composite
def props_st(draw, depth=5):
    kind = draw(st.sampled_from(("P", "equal", "bot", "imp", "all", "all") if depth
                                else ("P", "equal", "bot")))
    match kind:
        case "P":
            return Pred("P", draw(terms_st(depth + 2)))
        case "equal":
            return Pred("equal", Tup((draw(terms_st(depth + 1)), draw(terms_st(depth + 1)))))
        case "bot":
            return Bot()
        case "imp":
            return Imp(draw(props_st(depth - 1)), draw(props_st(depth - 1)))
    return All(draw(st.sampled_from(UNKNOWNS)), draw(props_st(depth - 1)))


def renamed(x, fresh):
    """x with every binder renamed to a fresh atom or unknown: alpha-equal."""
    match x:
        case AtomT(_) | Sus(_, _) | Bot():
            return x
        case Tup(items):
            return Tup(tuple(renamed(r, fresh) for r in items))
        case Former(f, arg):
            return Former(f, renamed(arg, fresh))
        case Pred(p, arg):
            return Pred(p, renamed(arg, fresh))
        case Imp(p, q):
            return Imp(renamed(p, fresh), renamed(q, fresh))
        case AbsT(b, body):
            c = Atom(b.sort, next(fresh))
            return AbsT(c, perm_act(Perm.swap(c, b), renamed(body, fresh)))
        case All(u, body):
            v = Unknown(u.sort, u.pmss, next(fresh))
            return All(v, perm2_act(Perm2.swap(v, u), renamed(body, fresh)))


def nudged(x, pi):
    """x with pi applied to its first suspension: often no longer alpha-equal."""
    match x:
        case Sus(p, u):
            return Sus(pi.compose(p), u), True
        case Tup(items):
            out, done = [], False
            for r in items:
                if not done:
                    r, done = nudged(r, pi)
                out.append(r)
            return Tup(tuple(out)), done
        case Former(_, r) | Pred(_, r) | AbsT(_, r) | All(_, r):
            r, done = nudged(r, pi)
            first = x.name if isinstance(x, (Former, Pred)) else \
                x.atom if isinstance(x, AbsT) else x.unknown
            return type(x)(first, r), done
        case Imp(p, q):
            p, done = nudged(p, pi)
            if done:
                return Imp(p, q), True
            q, done = nudged(q, pi)
            return Imp(p, q), done
    return x, False


@st.composite
def pairs_st(draw):
    x = draw(st.one_of(terms_st(), props_st()))
    y = renamed(x, iter(range(100, 10_000)))
    match draw(st.sampled_from(("renamed", "nudged", "permuted", "other"))):
        case "renamed":
            return x, y
        case "nudged":
            return x, nudged(y, draw(perms_st))[0]
        case "permuted":
            return x, perm_act(draw(perms_st), y)
    return x, draw(st.one_of(terms_st(), props_st()))


@settings(max_examples=400, deadline=None)
@given(pairs_st())
def test_alpha_key_matches_pairwise_oracle(pair):
    x, y = pair
    same = oracles.alpha_eq(x, y)
    assert (alpha_key(x) == alpha_key(y)) == same
    assert alpha_eq(x, y) == same == (canon(x) == canon(y))


def test_alpha_is_congruent_equivalence():
    rng = random.Random(13)
    for _ in range(200):
        x, y, z = (rand_term(rng) for _ in range(3))
        assert alpha_eq(x, x)
        assert alpha_eq(x, y) == alpha_eq(y, x)
        if alpha_eq(x, y) and alpha_eq(y, z):
            assert alpha_eq(x, z)
        if alpha_eq(x, y):
            b = rng.choice(WINDOW)
            assert alpha_eq(AbsT(b, x), AbsT(b, y))
            assert alpha_eq(Former("app", Tup((x, z))), Former("app", Tup((y, z))))


def test_perm_act_respects_alpha():
    rng = random.Random(17)
    for _ in range(200):
        x = rand_term(rng)
        pi0 = rand_perm(rng)
        y = perm_act(pi0, perm_act(pi0.inverse(), x))
        assert alpha_eq(x, y)
        pi = rand_perm(rng)
        assert alpha_eq(perm_act(pi, x), perm_act(pi, y))


def test_perm_agreement_on_free_atoms():
    rng = random.Random(19)
    for _ in range(300):
        x = rand_term(rng)
        p1, p2 = rand_perm(rng), rand_perm(rng)
        fa = free_atoms(x)
        window = [Atom(NU, i) for i in range(-4, 5)]
        agree = all(p1(q) == p2(q) for q in window if q in fa)
        assert alpha_eq(perm_act(p1, x), perm_act(p2, x)) == agree


# --- substitution -------------------------------------------------------------

def test_subst_captures_under_abstraction():
    t = AbsT(a(0), Sus.of(X0))
    assert subst_one(t, X0, var(0)) == AbsT(a(0), var(0))


def test_subst_applies_suspension():
    t = Sus(Perm.swap(a(1), a(0)), X0)
    assert subst_one(t, X0, var(0)) == var(1)


def test_subst_empty_identity():
    t = rand_term(random.Random(0))
    assert subst_apply(PnlSubst({}), t) == t


def test_subst_freshens_forall_binder():
    # X0 is in nontriv(theta) so the binder must move out of the way
    phi = All(X0, Pred("equal", Tup((Sus.of(X0), Sus.of(X1)))))
    got = subst_apply(PnlSubst({X1: Sus.of(X0)}), phi)
    assert isinstance(got, All)
    assert got.unknown != X0
    assert alpha_eq(got.body, Pred("equal", Tup((Sus.of(got.unknown), Sus.of(X0)))))
    # and the bound unknown still binds correctly
    assert X1 not in free_unknowns(got)


def test_bare_suspension_bindings_are_dropped():
    rng = random.Random(29)
    for _ in range(300):
        t = Sus(rand_perm(rng), rng.choice([X0, X1])) if rng.random() < 0.7 \
            else rand_term(rng, 2)
        x = rng.choice([X0, X1])
        kept = subst_map(PnlSubst({x: t}))
        assert (x not in kept) == oracles.alpha_eq(t, Sus.of(x)), (x, t)


def test_subst_validation():
    theta = PnlSubst({X1: var(1)})  # nu@1 not permitted for X1
    with pytest.raises(ValueError):
        subst_validate(theta, SIG)


def test_subst_respects_alpha():
    rng = random.Random(23)
    for _ in range(200):
        x = rand_syntax(rng)
        y = perm2_act(Perm2({}), x)
        theta = PnlSubst({X0: rand_term(rng, 2), X1: rand_term(rng, 2)})
        assert alpha_eq(subst_apply(theta, x), subst_apply(theta, y))
        # pointwise alpha-equal substitutions agree
        theta2 = PnlSubst({u: perm_act(Perm.identity(), t)
                           for u, t in subst_map(theta).items()})
        assert alpha_eq(subst_apply(theta, x), subst_apply(theta2, x))


# --- predicate guarding (saturation) ------------------------------------------

GUARD = Unknown(BaseSort("tau_g"), PMSS_ALL, 0)


def test_pi_translate_pred():
    sig2, phi2 = pi_translate(SIG, Pred("P", var(0)), GUARD)
    assert phi2 == Pred("P", Tup((Sus.of(GUARD), var(0))))
    assert "tau_g" in sig2.base_sorts
    assert sig2.prop_formers["P"] == TupleSort((BaseSort("tau_g"), IOTA))
    assert check_prop(sig2, phi2)


def test_pi_translate_bot():
    _, phi2 = pi_translate(SIG, Bot(), GUARD)
    assert phi2 == Bot()


def test_pi_translate_forall_homomorphic():
    phi = All(X0, Pred("P", Sus.of(X0)))
    _, phi2 = pi_translate(SIG, phi, GUARD)
    assert phi2 == All(X0, Pred("P", Tup((Sus.of(GUARD), Sus.of(X0)))))


def test_pi_translate_permission_precondition():
    guard = Unknown(BaseSort("tau_g"), PMSS_HALF, 0)
    with pytest.raises(ValueError):
        pi_translate(SIG, Pred("P", var(1)), guard)
