import itertools
import random

from nomhol.atoms import Atom, Perm
from nomhol.capture import (canonical_context, capture_check, capture_cover,
                            capture_infer, make_context, restrict_context)
from nomhol.hol import AtomVar, Lam, UnkVar, Var, alphabeta_eq, apps
from nomhol.pnl import AbsT, All, AtomT, Bot, Former, Imp, Pred, Sus, Tup
from nomhol.translate import translate, translate_signature

from gen import (IOTA, NU, PMSS_ALL, PMSS_HALF, SIG, WINDOW, X0, X1,
                 rand_perm, rand_prop, rand_term)
from oracles import hol_subst_parallel
from spec import apply_reindex, reindex_subst


def a(i):
    return Atom(NU, i)


ENV = translate_signature(SIG)


def test_check_abstraction_over_suspension():
    x = AbsT(a(0), Sus.of(X0))
    assert capture_check((a(0),), x)
    assert not capture_check((), x)


def test_check_bare_swap_needs_both():
    x = Sus(Perm.swap(a(1), a(0)), X0)
    assert not capture_check((), x)
    assert not capture_check((a(0),), x)
    assert capture_check((a(0), a(1)), x)


def test_check_ground_term_any_context():
    assert capture_check((), Former("var", AtomT(a(0))))


def test_check_ignores_atoms_outside_pmss():
    # X1 permits only nu@0 among the window's upward atoms
    x = AbsT(a(1), Sus.of(X1))
    assert capture_check((), x)


def reference_check(ctx, x, abstracted=frozenset()):
    """Capture checking by direct recursion, independent of capture_infer."""
    have = set(ctx)
    match x:
        case AtomT(_) | Bot():
            return True
        case Tup(items):
            return all(reference_check(ctx, r, abstracted) for r in items)
        case Former(_, arg) | Pred(_, arg):
            return reference_check(ctx, arg, abstracted)
        case AbsT(b, body):
            return reference_check(ctx, body, abstracted | {b})
        case Sus(pi, unk):
            needed = {b for b in (pi.nontriv | abstracted) if b in unk.pmss}
            return needed <= have
        case Imp(p, q):
            return reference_check(ctx, p, abstracted) and \
                reference_check(ctx, q, abstracted)
        case All(_, body):
            return reference_check(ctx, body, abstracted)
    raise TypeError(f"not PNL syntax: {x!r}")


def sublists(atoms):
    for k in range(len(atoms) + 1):
        yield from itertools.combinations(atoms, k)


def brute_minimal(x):
    window = [a(-2), a(-1), a(0), a(1), a(2)]
    accepted = [set(c) for c in sublists(window) if reference_check(c, x)]
    return min(accepted, key=len) if accepted else None


def test_check_matches_reference():
    rng = random.Random(47)
    for _ in range(300):
        x = rand_term(rng, 3) if rng.random() < 0.6 else rand_prop(rng, 3)
        for ctx in sublists(WINDOW):
            assert capture_check(ctx, x) == reference_check(ctx, x), (ctx, x)


def test_infer_examples():
    x = AbsT(a(0), Sus.of(X0))
    assert capture_infer(x) == frozenset({a(0)})
    assert capture_infer(Former("var", AtomT(a(0)))) == frozenset()
    y = All(X0, Pred("equal", Tup((
        Former("lam", AbsT(a(0), Sus.of(X0))),
        Former("lam", AbsT(a(1), Sus(Perm.swap(a(1), a(0)), X0)))))))
    assert capture_infer(y) == frozenset({a(0), a(1)})


def test_infer_minimal_against_brute_force():
    rng = random.Random(51)
    for _ in range(150):
        x = rand_term(rng, 3)
        inferred = capture_infer(x)
        assert capture_check(canonical_context(inferred), x)
        assert brute_minimal(x) == set(inferred)
        for dropped in inferred:
            assert not capture_check(canonical_context(inferred - {dropped}), x)


def test_monotonicity():
    rng = random.Random(53)
    for _ in range(150):
        x = rand_term(rng, 3)
        d = canonical_context(capture_infer(x))
        bigger = make_context(tuple(d) + tuple(q for q in WINDOW if q not in d))
        assert capture_check(d, x) and capture_check(bigger, x)


def test_cover_union():
    from nomhol.kernel import Sequent
    s1 = Sequent((AbsT(a(0), Sus.of(X0)),), ())
    s2 = Sequent((), (Sus(Perm.swap(a(1), a(0)), X0),))
    assert capture_cover([s1, s2]) == (a(0), a(1))
    assert capture_cover([]) == ()


def test_reindex_same_context_roundtrip():
    d = (a(0),)
    sub = reindex_subst(d, d, [X0])
    v = UnkVar(X0, d)
    t = apps(Var(v), Var(AtomVar(a(0))))
    assert alphabeta_eq(hol_subst_parallel(t, sub), t)


def test_reindex_empty():
    assert reindex_subst((), (), []) == {}


def rand_capture_instance(rng):
    x = rand_term(rng, 3) if rng.random() < 0.6 else rand_prop(rng, 3)
    d_small = canonical_context(capture_infer(x))
    extra = [q for q in WINDOW if q not in d_small and rng.random() < 0.5]
    d_big = make_context(tuple(d_small) + tuple(extra))
    return x, d_small, d_big


def test_reindexing_collapses_contexts():
    rng = random.Random(59)
    checked = 0
    while checked < 1000:
        x, d, d_big = rand_capture_instance(rng)
        if not capture_check(d_big, x):
            continue
        checked += 1
        lhs = apply_reindex(d_big, d, translate(ENV, d_big, x))
        rhs = translate(ENV, d, x)
        assert alphabeta_eq(lhs, rhs), (x, d, d_big)
        # on quantifier-free input the traversal and the plain substitution
        # computed by reindex_subst agree
        from nomhol.pnl import All, free_unknowns
        if not _has_all(x):
            sub = reindex_subst(d_big, d, free_unknowns(x))
            lhs2 = hol_subst_parallel(translate(ENV, d_big, x), sub)
            assert alphabeta_eq(lhs2, rhs), (x, d, d_big)


def _has_all(x):
    from nomhol.pnl import (AbsT, All, AtomT, Bot, Former, Imp, Pred, Sus,
                            Tup)
    match x:
        case All(_, _):
            return True
        case Imp(p, q):
            return _has_all(p) or _has_all(q)
        case Pred(_, arg) | Former(_, arg) | AbsT(_, arg):
            return _has_all(arg)
        case Tup(items):
            return any(_has_all(r) for r in items)
    return False
