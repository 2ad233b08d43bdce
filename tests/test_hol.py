import gc
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nomhol import hol as H
from nomhol.atoms import Atom, Perm
from nomhol.cli import run_cli
from nomhol.hol import (App, ArrowT, AtomVar, BASE_SIGNATURE, BOT, BaseT,
                        Const, HTup, HolTypeError, IMP, Lam, O, PlainVar,
                        TupleT, UnkVar, Var, alphabeta_eq, alphabeta_key, apps,
                        beta_normalize, forall, forall_const, fv, imp,
                        lams, name_sort_type,
                        sort_to_type, type_to_sort)
from nomhol.pnl import AbsSort, BaseSort, NameSort, TupleSort, Unknown

from gen import IOTA, NSORT, NU, PMSS_ALL, SIG, X0, X1
from spec import hol_perm_act, hol_subst
import oracles
from oracles import hol_alpha_eq, hol_subst_parallel, var_type


def a(i):
    return AtomVar(Atom(NU, i))


MU_NU = name_sort_type(NU)
MU_IOTA = name_sort_type("iota")
F = PlainVar(ArrowT(MU_NU, MU_IOTA), 0)


# --- types -------------------------------------------------------------------

def test_sort_to_type_abs():
    assert sort_to_type(AbsSort(NU, IOTA)) == ArrowT(MU_NU, MU_IOTA)


def test_sort_type_roundtrip():
    for s in [NSORT, IOTA, TupleSort((IOTA, NSORT)), AbsSort(NU, AbsSort(NU, IOTA))]:
        assert type_to_sort(SIG, sort_to_type(s)) == s


def test_non_image_types():
    assert type_to_sort(SIG, O) is None
    assert type_to_sort(SIG, ArrowT(MU_IOTA, MU_IOTA)) is None


def test_unkvar_type_is_curried():
    v = UnkVar(X0, (Atom(NU, 0), Atom(NU, 1)))
    assert v.type == var_type(v) == ArrowT(MU_NU, ArrowT(MU_NU, MU_IOTA))


def test_variables_carry_the_references_type():
    """Each variable computes its type when it is built, and an unknown
    variable refuses a bad context as before, a repeated atom first."""
    for v in (AtomVar(Atom(NU, 3)), PlainVar(ArrowT(O, O), 2), UnkVar(X0, ()),
              UnkVar(X1, (Atom(NU, 0), Atom(NU, -1)))):
        assert v.type == var_type(v)
    with pytest.raises(ValueError, match="^context atoms must be distinct$"):
        UnkVar(X1, (Atom(NU, 1), Atom(NU, 1)))
    with pytest.raises(ValueError, match="^context atom nu@1 outside the permission set$"):
        UnkVar(X1, (Atom(NU, 0), Atom(NU, 1)))


# --- typing --------------------------------------------------------------------

def test_type_of_bot():
    assert BOT.type == O


def test_type_of_lambda_application():
    t = Lam(a(0), App(Var(F), Var(a(0))))
    assert t.type == ArrowT(MU_NU, MU_IOTA)


def test_type_of_tuple():
    assert HTup((BOT, BOT)).type == TupleT((O, O))


def test_ill_typed_application():
    with pytest.raises(HolTypeError, match="^applying a non-function of type o$"):
        App(BOT, BOT)


def test_unknown_constant_rejected():
    with pytest.raises(HolTypeError, match="^unknown constant mystery$"):
        BASE_SIGNATURE.check_const(Const("mystery", O))
    with pytest.raises(HolTypeError, match="^malformed quantifier constant at type o$"):
        BASE_SIGNATURE.check_const(Const("forall", O))


# --- substitution ---------------------------------------------------------------

def test_subst_no_capture_needed():
    X = PlainVar(ArrowT(MU_NU, MU_NU), 3)
    t = App(Var(X), Var(a(0)))
    u = Lam(a(1), Var(a(1)))
    assert hol_subst(t, X, u) == App(u, Var(a(0)))


def test_subst_renames_on_capture():
    X = PlainVar(MU_NU, 3)
    t = Lam(a(0), Var(X))
    got = hol_subst(t, X, Var(a(0)))
    assert isinstance(got, Lam)
    assert got.var != a(0)
    assert got.body == Var(a(0))
    assert hol_alpha_eq(got, Lam(a(1), Var(a(0))))


def test_subst_identity():
    rng = random.Random(3)
    t = Lam(a(0), App(Var(F), Var(a(0))))
    X = PlainVar(MU_NU, 0)
    assert hol_alpha_eq(hol_subst(t, X, Var(X)), t)


def test_substitution_leaves_no_cycle_to_collect():
    # a beta step that renames a binder and walks a tuple must leave
    # nothing for the cycle collector
    X = PlainVar(MU_NU, 3)
    t = Lam(a(0), HTup((App(Var(F), Var(X)), Var(a(0)))))
    gc.collect()
    gc.disable()
    try:
        got = H._subst(t, {X: Var(a(0))}, [None])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert got.var != a(0) and hol_alpha_eq(got, Lam(a(1), HTup((
        App(Var(F), Var(a(0))), Var(a(1))))))


def test_subst_type_mismatch():
    with pytest.raises(HolTypeError):
        hol_subst(Var(a(0)), a(0), BOT)


def test_a_beta_step_builds_only_the_path_to_its_variable(monkeypatch):
    """Contracting a redex keeps each subterm of its body that does not
    mention the variable, and builds a new node only on the way to each
    occurrence: here the tuple and the two applications above X."""
    X = PlainVar(O, 0)
    kept = HTup((Lam(a(0), imp(BOT, BOT)), App(Var(F), Var(a(1)))))
    redex = App(Lam(X, HTup((kept, imp(Var(X), BOT)))), imp(BOT, BOT))
    built = []
    for cls in (App, Lam, HTup):
        def spy(self, real=cls.__post_init__):
            built.append(type(self).__name__)
            real(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    got = H._whnf(redex)
    assert sorted(built) == ["App", "App", "HTup"]
    assert got.items[0] is kept
    assert got == HTup((kept, imp(imp(BOT, BOT), BOT)))


def capture_chains(n):
    """Two redexes whose every one of n nested binders captures: binders
    that shadow one name, and distinct binders all free in the argument."""
    x, y = PlainVar(O, 0), PlainVar(O, 1)
    shadowing = Var(x)
    for _ in range(n):
        shadowing = Lam(y, shadowing)
    ys = [PlainVar(O, i) for i in range(1, n + 1)]
    distinct, arg = Var(x), BOT
    for v in reversed(ys):
        distinct, arg = Lam(v, distinct), imp(Var(v), arg)
    return [(Lam(x, shadowing), Var(y)), (Lam(x, distinct), arg)]


@pytest.mark.parametrize("which", [0, 1], ids=["shadowing", "distinct"])
def test_renaming_binders_walks_each_body_once(which, monkeypatch):
    """A chain of n binders that each capture costs a number of
    substitution calls linear in n: each binder's body is walked once."""
    n, calls = 30, [0]

    def counting(*args, real=H._subst):
        calls[0] += 1
        if calls[0] > 4 * n:
            raise AssertionError(f"more than {4 * n} substitution calls")
        return real(*args)
    fn, arg = capture_chains(n)[which]
    want = hol_subst_parallel(fn.body, {fn.var: arg})
    monkeypatch.setattr(H, "_subst", counting)
    got = H._whnf(App(fn, arg))
    assert calls[0] == n + 1
    assert got == want


@pytest.mark.parametrize("text, normal", [
    ("(app (lam (plain o 0) (lam (plain o 1) (plain o 0))) (plain o 1))",
     "(lam (plain o 2) (plain o 1))"),
    ("(app (lam nu@0 (lam nu@1 nu@0)) nu@1)", "(lam nu@2 nu@1)"),
    ("(app (lam (plain mu_iota 0) (lam X{iota;perm(+{}-{});1} (plain mu_iota 0)))"
     " X{iota;perm(+{}-{});1})",
     "(lam X{iota;perm(+{}-{});0}_[] X{iota;perm(+{}-{});1}_[])"),
])
def test_normalize_prints_the_binder_a_capture_renames(text, normal, tmp_path, capsys):
    """The name a beta step gives a binder that would capture, one redex
    per variable kind, as `nomhol normalize` prints it."""
    f = tmp_path / "redex.sexp"
    f.write_text(text)
    assert run_cli(["normalize", str(f)]) == 0
    assert capsys.readouterr().out == normal + "\n"


# --- normalization ---------------------------------------------------------------

def test_single_beta_step():
    t = App(Lam(a(0), App(Var(F), Var(a(0)))), Var(a(1)))
    assert beta_normalize(t) == App(Var(F), Var(a(1)))


def test_swap_via_double_beta():
    Y = PlainVar(ArrowT(MU_NU, ArrowT(MU_NU, MU_IOTA)), 0)
    t = apps(lams([a(0), a(1)], apps(Var(Y), Var(a(0)), Var(a(1)))),
             Var(a(1)), Var(a(0)))
    assert beta_normalize(t) == apps(Var(Y), Var(a(1)), Var(a(0)))


def test_normal_form_fixpoint():
    t = Lam(a(0), App(Var(F), Var(a(0))))
    assert beta_normalize(t) == t


def test_no_eta():
    t = Lam(a(0), App(Var(F), Var(a(0))))
    assert not alphabeta_eq(t, Var(F))


def test_beta_under_quantifier():
    v = PlainVar(O, 0)
    t = forall(v, App(Lam(v, Var(v)), Var(v)))
    assert alphabeta_eq(t, forall(v, Var(v)))


# --- randomized properties --------------------------------------------------------

def rand_hol(rng, depth=4, ty=MU_IOTA):
    """Random typable term of the requested type over a tiny variable pool."""
    if depth <= 0 or rng.random() < 0.25:
        match ty:
            case TupleT(items):
                return HTup(tuple(rand_hol(rng, depth - 1, s) for s in items))
            case ArrowT(arg, res):
                v = PlainVar(arg, rng.randrange(2))
                return Lam(v, rand_hol(rng, depth - 1, res))
            case _:
                if ty == O:
                    return BOT
                return Var(PlainVar(ty, rng.randrange(2)))
    if rng.random() < 0.5:
        # build a redex of the requested type
        arg_ty = rng.choice([MU_NU, O, ty])
        v = PlainVar(arg_ty, rng.randrange(2))
        return App(Lam(v, rand_hol(rng, depth - 1, ty)),
                   rand_hol(rng, depth - 1, arg_ty))
    match ty:
        case ArrowT(arg, res):
            v = PlainVar(arg, rng.randrange(2))
            return Lam(v, rand_hol(rng, depth - 1, res))
        case TupleT(items):
            return HTup(tuple(rand_hol(rng, depth - 1, s) for s in items))
        case _:
            return Var(PlainVar(ty, rng.randrange(2)))


def redexes(t):
    match t:
        case App(Lam(_, _) as f, u):
            yield t
            yield from redexes(f)
            yield from redexes(u)
        case App(f, u):
            yield from redexes(f)
            yield from redexes(u)
        case Lam(_, b):
            yield from redexes(b)
        case HTup(items):
            for r in items:
                yield from redexes(r)


def reduce_once_at(t, target):
    """Contract one specific redex occurrence (first structural match)."""
    if t is target:
        match t:
            case App(Lam(v, b), u):
                return hol_subst_parallel(b, {v: u}), True
    match t:
        case App(f, u):
            f2, done = reduce_once_at(f, target)
            if done:
                return App(f2, u), True
            u2, done = reduce_once_at(u, target)
            return App(f, u2), done
        case Lam(v, b):
            b2, done = reduce_once_at(b, target)
            return Lam(v, b2), done
        case HTup(items):
            out = []
            done = False
            for r in items:
                if not done:
                    r, done = reduce_once_at(r, target)
                out.append(r)
            return HTup(tuple(out)), done
    return t, False


def random_order_normalize(t, rng):
    while True:
        reds = list(redexes(t))
        if not reds:
            return t
        t, done = reduce_once_at(t, rng.choice(reds))
        assert done


def test_subject_reduction_randomized():
    rng = random.Random(31)
    for _ in range(300):
        ty = rng.choice([MU_IOTA, O, ArrowT(MU_NU, MU_IOTA), TupleT((O, MU_NU))])
        t = rand_hol(rng, 4, ty)
        assert t.type == ty
        assert beta_normalize(t).type == ty


def test_confluence_at_desk_scale():
    rng = random.Random(37)
    for _ in range(150):
        t = rand_hol(rng, 4, rng.choice([MU_IOTA, O]))
        if len(list(redexes(t))) > 6:
            continue
        assert hol_alpha_eq(beta_normalize(t), random_order_normalize(t, rng))


def test_substitution_normalization_commutes():
    rng = random.Random(41)
    X = PlainVar(MU_NU, 0)
    for _ in range(200):
        t = rand_hol(rng, 3, MU_IOTA)
        u = Var(PlainVar(MU_NU, 1))
        lhs = beta_normalize(hol_subst(t, X, u))
        rhs = beta_normalize(hol_subst(beta_normalize(t), X, u))
        assert hol_alpha_eq(lhs, rhs)


def test_perm_commutes_with_substitution():
    rng = random.Random(43)
    from gen import rand_perm
    for _ in range(200):
        t = rand_hol(rng, 3, MU_IOTA)
        pi = rand_perm(rng)
        X = PlainVar(MU_NU, 0)
        u = Var(a(rng.randrange(-2, 3)))
        lhs = hol_perm_act(pi, hol_subst(t, X, u))
        rhs = hol_subst(hol_perm_act(pi, t), X, hol_perm_act(pi, u))
        assert hol_alpha_eq(lhs, rhs)


# --- alpha-beta keys against the pairwise oracle ------------------------------
#
# Deeper than rand_hol: up to seven levels, redexes at every type, binders
# over every variable kind, pairs that are a beta step, a renaming of the
# bound variables, or an unrelated term apart.

TYPES = [MU_NU, MU_IOTA, O, ArrowT(MU_NU, MU_IOTA), TupleT((O, MU_NU))]
small = st.integers(0, 2)


@st.composite
def hol_st(draw, ty, depth=7):
    kind = draw(st.sampled_from(("leaf", "redex", "redex", "intro") if depth else ("leaf",)))
    if kind == "redex":
        arg_ty = draw(st.sampled_from([MU_NU, O, ty]))
        v = PlainVar(arg_ty, draw(small))
        return App(Lam(v, draw(hol_st(ty, depth - 1))), draw(hol_st(arg_ty, depth - 1)))
    sub = depth - 1 if kind == "intro" else 0
    match ty:
        case ArrowT(arg, res):
            v = a(draw(small)) if arg == MU_NU and draw(st.booleans()) else PlainVar(arg, draw(small))
            return Lam(v, draw(hol_st(res, max(sub, 0))))
        case TupleT(items):
            return HTup(tuple(draw(hol_st(r, max(sub, 0))) for r in items))
    if kind == "intro" and ty == MU_IOTA:
        return App(Var(F), draw(hol_st(MU_NU, sub)))
    if kind == "intro" and ty == O:
        return imp(draw(hol_st(O, sub)), draw(hol_st(O, sub)))
    if ty == MU_NU and draw(st.booleans()):
        return Var(a(draw(small)))
    if ty == O and draw(st.booleans()):
        return BOT
    return Var(PlainVar(ty, draw(small)))


def rebound(t, fresh):
    """t with every bound variable renamed to a fresh one: alpha-equal."""
    match t:
        case Lam(v, body):
            w = PlainVar(var_type(v), next(fresh))
            return Lam(w, rebound(hol_subst_parallel(body, {v: Var(w)}), fresh))
        case App(f, u):
            return App(rebound(f, fresh), rebound(u, fresh))
        case HTup(items):
            return HTup(tuple(rebound(r, fresh) for r in items))
    return t


@st.composite
def hol_pairs_st(draw):
    ty = draw(st.sampled_from(TYPES))
    t = draw(hol_st(ty))
    match draw(st.sampled_from(("beta-step", "rebound", "other", "other-type"))):
        case "beta-step":
            reds = list(redexes(t))
            return t, reduce_once_at(t, draw(st.sampled_from(reds)))[0] if reds else t
        case "rebound":
            return t, rebound(t, iter(range(10, 10_000)))
        case "other":
            return t, draw(hol_st(ty))
    return t, draw(hol_st(draw(st.sampled_from(TYPES))))


@settings(max_examples=200, deadline=None)
@given(hol_pairs_st())
def test_alphabeta_key_matches_pairwise_oracle(pair):
    t, u = pair
    if t.type != u.type:
        assert alphabeta_key(t) != alphabeta_key(u)
        for eq in (alphabeta_eq, oracles.alphabeta_eq):
            with pytest.raises(HolTypeError):
                eq(t, u)
        return
    same = hol_alpha_eq(beta_normalize(t), beta_normalize(u))
    assert (alphabeta_key(t) == alphabeta_key(u)) == same
    assert alphabeta_eq(t, u) == same == oracles.alphabeta_eq(t, u)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TYPES).flatmap(hol_st))
def test_normal_form_keeps_what_is_already_normal(t):
    """_nf gives the normal form the rebuilding oracle gives; on a normal
    term it gives the term itself, so no subterm was rebuilt."""
    n = H._nf(t)
    assert n == oracles.nf(t)
    assert H._nf(n) is n
    if n == t:
        assert n is t


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_beta_step_is_the_parallel_substitution(data):
    """The library's beta step gives what the rebuilding parallel
    substitution gives, binder names included, and gives t itself where
    the variable is not free in t."""
    t = data.draw(st.sampled_from(TYPES).flatmap(hol_st))
    ty = data.draw(st.sampled_from([MU_NU, O, ArrowT(MU_NU, MU_IOTA)]))
    v = a(data.draw(small)) if ty == MU_NU and data.draw(st.booleans()) else \
        PlainVar(ty, data.draw(small))
    u = data.draw(hol_st(ty, 3))
    got = H._subst(t, {v: u}, [None])
    assert got == hol_subst_parallel(t, {v: u})
    if v not in fv(t):
        assert got is t


def unchecked_app(fn, arg):
    """An application built without typing it, for the oracle to type."""
    t = object.__new__(App)
    object.__setattr__(t, "fn", fn)
    object.__setattr__(t, "arg", arg)
    return t


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TYPES).flatmap(hol_st),
       st.sampled_from([MU_NU, *TYPES]).flatmap(hol_st))
def test_built_terms_carry_the_oracles_type(f, u):
    """A built term's type, and its normal form's, are the ones the
    whole-term walk gives; App(f, u) builds exactly when the walk types f
    as an arrow from u's type, and otherwise raises the walk's message."""
    for t in (f, u):
        n = beta_normalize(t)
        assert t.type == oracles.hol_type_of(t) == n.type == oracles.hol_type_of(n)
    try:
        want = oracles.hol_type_of(unchecked_app(f, u))
    except HolTypeError as e:
        with pytest.raises(HolTypeError, match=f"^{re.escape(str(e))}$") as got:
            App(f, u)
        assert got.value.term == unchecked_app(f, u)
    else:
        assert App(f, u).type == want
