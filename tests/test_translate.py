import random

import pytest

from nomhol.atoms import Atom, Perm
from nomhol.capture import canonical_context, capture_check, capture_infer
from nomhol.hol import (App, ArrowT, AtomVar, Const, HTup, Lam, O, UnkVar,
                        Var, alphabeta_eq, apps, beta_normalize, forall, fv,
                        lams, name_sort_type, sort_to_type)
from nomhol.pnl import (AbsT, All, AtomT, Bot, Former, Imp,
                        Pred, Sus, Tup, Unknown, alpha_eq, free_atoms,
                        perm_act, sort_of, subst_one)
from nomhol.translate import translate, translate_signature

from gen import (IOTA, NU, PMSS_ALL, PMSS_HALF, SIG, WINDOW, X0, X1,
                 rand_perm, rand_prop, rand_term)
from oracles import hol_alpha_eq
from spec import Perm2, hol_perm_act, hol_subst, perm2_act


def a(i):
    return Atom(NU, i)


ENV = translate_signature(SIG)
MU_NU = name_sort_type(NU)
MU_IOTA = name_sort_type("iota")


def test_signature_constants():
    assert ENV.formers["var"].type == ArrowT(MU_NU, MU_IOTA)
    assert ENV.formers["app"].type.arg.items == (MU_IOTA, MU_IOTA)
    assert ENV.formers["lam"].type == ArrowT(ArrowT(MU_NU, MU_IOTA), MU_IOTA)
    assert ENV.formers["P"].type == ArrowT(MU_IOTA, O)
    assert "bot" in ENV.target.constants and "imp" in ENV.target.constants


def test_empty_signature():
    from nomhol.pnl import PnlSignature
    env = translate_signature(PnlSignature(frozenset(), frozenset(), {}, {}))
    assert set(env.target.constants) == {"bot", "imp"}


# --- the six displayed translations at two contexts -------------------------

XH = Unknown(IOTA, PMSS_HALF, 0)        # permits nu@0 but not nu@1
Y = Unknown(IOTA, PMSS_ALL, 0)          # permits both
D = (a(0), a(1))
XV = Var(UnkVar(XH, (a(0),)))
YV = Var(UnkVar(Y, (a(0), a(1))))
SWAP = Perm.swap(a(1), a(0))


def av(i):
    return Var(AtomVar(a(i)))


def test_displayed_translations_narrow_unknown():
    assert translate(ENV, D, Sus.of(XH)) == App(XV, av(0))
    assert translate(ENV, D, Sus(SWAP, XH)) == App(XV, av(1))
    assert translate(ENV, D, AbsT(a(0), Sus.of(XH))) == \
        Lam(AtomVar(a(0)), App(XV, av(0)))
    assert translate(ENV, D, AbsT(a(1), Sus(SWAP, XH))) == \
        Lam(AtomVar(a(1)), App(XV, av(1)))


def test_displayed_translations_wide_unknown():
    assert translate(ENV, D, Sus.of(Y)) == apps(YV, av(0), av(1))
    assert translate(ENV, D, Sus(SWAP, Y)) == apps(YV, av(1), av(0))
    assert translate(ENV, D, AbsT(a(0), Sus.of(Y))) == \
        Lam(AtomVar(a(0)), apps(YV, av(0), av(1)))
    assert translate(ENV, D, AbsT(a(1), Sus(SWAP, Y))) == \
        Lam(AtomVar(a(1)), apps(YV, av(1), av(0)))


def _equal_prop(unk):
    """As in displayed_narrow.sexp and displayed_wide.sexp."""
    return All(unk, Pred("equal", Tup((Former("lam", AbsT(a(0), Sus.of(unk))),
                                       Former("lam", AbsT(a(1), Sus(SWAP, unk)))))))


def test_displayed_quantified_translations():
    g_lam = ENV.formers["lam"]
    got = translate(ENV, D, _equal_prop(XH))
    want = forall(UnkVar(XH, (a(0),)),
                  App(ENV.formers["equal"],
                      HTup((App(g_lam, Lam(AtomVar(a(0)), App(XV, av(0)))),
                            App(g_lam, Lam(AtomVar(a(1)), App(XV, av(1))))))))
    assert hol_alpha_eq(got, want)

    got = translate(ENV, D, _equal_prop(Y))
    want = forall(UnkVar(Y, (a(0), a(1))),
                  App(ENV.formers["equal"],
                      HTup((App(g_lam, Lam(AtomVar(a(0)), apps(YV, av(0), av(1)))),
                            App(g_lam, Lam(AtomVar(a(1)), apps(YV, av(1), av(0))))))))
    assert hol_alpha_eq(got, want)


def test_translate_bot():
    assert translate(ENV, (), Bot()) == Const("bot", O)


# --- structural invariants -----------------------------------------------------

def rand_syntax(rng):
    return rand_prop(rng) if rng.random() < 0.4 else rand_term(rng)


def d_for(*xs):
    need = frozenset()
    for x in xs:
        need |= capture_infer(x)
    return canonical_context(need)


def free_atom_vars(t):
    return {v.atom for v in fv(t) if isinstance(v, AtomVar)}


def test_free_atoms_containment():
    rng = random.Random(61)
    for _ in range(300):
        x = rand_syntax(rng)
        d = d_for(x)
        for q in free_atom_vars(translate(ENV, d, x)):
            assert q in free_atoms(x)


def test_translation_equivariance():
    rng = random.Random(67)
    for _ in range(300):
        x = rand_syntax(rng)
        pi = rand_perm(rng)
        d = d_for(x, perm_act(pi, x))
        lhs = translate(ENV, d, perm_act(pi, x))
        rhs = hol_perm_act(pi, translate(ENV, d, x))
        assert hol_alpha_eq(lhs, rhs), (x, pi)


def alpha_variant(rng, x):
    """Rename some binders; result is alpha-equal to x by construction."""
    match x:
        case AtomT(_) | Bot() | Sus(_, _):
            return x
        case Tup(items):
            return Tup(tuple(alpha_variant(rng, r) for r in items))
        case Former(f, arg):
            return Former(f, alpha_variant(rng, arg))
        case AbsT(b, body):
            body = alpha_variant(rng, body)
            if rng.random() < 0.5:
                for c in [a(3), a(4), a(-3)]:
                    if c != b and c not in free_atoms(body):
                        return AbsT(c, perm_act(Perm.swap(c, b), body))
            return AbsT(b, body)
        case Imp(p, q):
            return Imp(alpha_variant(rng, p), alpha_variant(rng, q))
        case Pred(p, arg):
            return Pred(p, alpha_variant(rng, arg))
        case All(unk, body):
            body = alpha_variant(rng, body)
            if rng.random() < 0.5:
                from nomhol.pnl import free_unknowns
                c = Unknown(unk.sort, unk.pmss, 9 + rng.randrange(3))
                if c != unk and c not in free_unknowns(body):
                    return All(c, perm2_act(Perm2.swap(c, unk), body))
            return All(unk, body)


def test_translation_well_defined_on_alpha_classes():
    rng = random.Random(71)
    for _ in range(300):
        x = rand_syntax(rng)
        y = alpha_variant(rng, x)
        assert alpha_eq(x, y)
        d = d_for(x, y)
        assert hol_alpha_eq(translate(ENV, d, x), translate(ENV, d, y))


def check_constants(t):
    """Each constant of t is declared in the target signature, at its type."""
    stack = [t]
    while stack:
        match stack.pop():
            case Const() as c:
                ENV.target.check_const(c)
            case App(fn, arg):
                stack += [fn, arg]
            case Lam(_, body):
                stack.append(body)
            case HTup(items):
                stack.extend(items)


def test_typability():
    rng = random.Random(73)
    for _ in range(300):
        x = rand_syntax(rng)
        d = d_for(x)
        t = translate(ENV, d, x)
        check_constants(t)
        if isinstance(x, (Bot, Imp, Pred, All)):
            assert t.type == O
        else:
            assert t.type == sort_to_type(sort_of(SIG, x))


def test_injectivity_on_captured_pairs():
    rng = random.Random(79)
    checked = 0
    while checked < 2000:
        x = rand_term(rng)
        y = rand_term(rng) if rng.random() < 0.4 else alpha_variant(rng, x)
        d = d_for(x, y)
        if not (capture_check(d, x) and capture_check(d, y)):
            continue
        checked += 1
        assert hol_alpha_eq(translate(ENV, d, x), translate(ENV, d, y)) \
            == alpha_eq(x, y), (x, y, d)


def test_injectivity_failure_witness_without_capture():
    r = Sus.of(X0)
    s = Sus(Perm.swap(a(1), a(0)), X0)
    assert not alpha_eq(r, s)
    assert not capture_check((), s)
    assert hol_alpha_eq(translate(ENV, (), r), translate(ENV, (), s))


def test_substitution_commutation():
    rng = random.Random(83)
    checked = 0
    while checked < 1000:
        x = rand_syntax(rng)
        rp = rand_term(rng, 2)
        inst = subst_one(x, X0, rp)
        d = d_for(x, rp, inst)
        if not (capture_check(d, x) and capture_check(d, rp)):
            continue
        checked += 1
        d_x = tuple(q for q in d if q in X0.pmss)
        lhs = translate(ENV, d, inst)
        rhs = hol_subst(translate(ENV, d, x), UnkVar(X0, d_x),
                        lams([AtomVar(q) for q in d_x], translate(ENV, d, rp)))
        assert alphabeta_eq(lhs, rhs), (x, rp, d)
