import random
import sys
from collections import Counter

import pytest

from nomhol import hol as H
from nomhol.atoms import Atom, Perm
from nomhol.corpus import (SIG, alpha_pair, atom, eta_axiom,
                           full_only_derivation, restricted_derivations, var)
from nomhol.hol import (App, AtomVar, BOT, Const, Lam, O, PlainVar, UnkVar,
                        Var, apps, forall, imp)
from nomhol.kernel import (FULL, Node, RESTRICTED, Sequent, _Logic, check_hol,
                           check_pnl, dedup, hol_atomic_derivable, hol_sequent,
                           pnl_sequent)
from nomhol.pnl import (AbsT, All, AtomT, Bot, Former, Imp, Perm2, Pred, Sus,
                        Tup, Unknown, alpha_key, perm2_act, perm_act)
from nomhol.translate import translate, translate_derivation, translate_signature

import oracles
from gen import PMSS_ALL, X0, rand_perm, rand_prop

ENV = translate_signature(SIG)


def P(t):
    return Pred("P", t)


def test_full_axiom_accepts_permutation():
    d = full_only_derivation()
    assert check_pnl(SIG, d, FULL)


def test_restricted_rejects_permuted_axiom():
    d = full_only_derivation()
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v
    assert v.path == ()


def test_botl_leaf_empty_right():
    d = Node("botl", pnl_sequent([Bot()], []), li=0)
    assert check_pnl(SIG, d, RESTRICTED)


def test_corpus_accepted_in_both_modes():
    for name, d in restricted_derivations():
        assert check_pnl(SIG, d, RESTRICTED), name
        assert check_pnl(SIG, d, FULL), name


def test_corpus_covers_all_rules():
    rules = set()

    def walk(n):
        rules.add(n.rule)
        for c in n.children:
            walk(c)

    for _, d in restricted_derivations():
        walk(d)
    assert rules == {"ax", "botl", "impl", "impr", "alll", "allr"}


def test_allr_eigenvariable_violation():
    phi = P(Sus.of(X0))
    d = Node("allr", pnl_sequent([phi], [All(X0, phi)]), ri=0,
             children=(Node("ax", pnl_sequent([phi], [phi]), li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and "eigenvariable" in v.message


def test_alll_permission_violation():
    # X0 permits upward atoms 0..2 only; witness with nu@3 escapes
    univ = All(X0, P(Sus.of(X0)))
    d = Node("alll", pnl_sequent([univ], [P(var(3))]), li=0, witness=var(3),
             children=(Node("ax", pnl_sequent([P(var(3))], [P(var(3))]),
                            li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and "permission" in v.message


def test_mismatched_premise_reports_path():
    p0, p1 = P(var(0)), P(var(1))
    d = Node("impr", pnl_sequent([], [Imp(p0, p0)]), ri=0,
             children=(Node("ax", pnl_sequent([p1], [p1]), li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and v.path == (0,)


def _add_everywhere(node, phi):
    return Node(node.rule,
                pnl_sequent((phi,) + node.concl.left, node.concl.right),
                children=tuple(_add_everywhere(c, phi) for c in node.children),
                perm=node.perm,
                li=None if node.li is None else node.li + 1,
                ri=node.ri, witness=node.witness)


def test_weakening_stability():
    extra = P(var(2))
    for name, d in restricted_derivations():
        assert check_pnl(SIG, _add_everywhere(d, extra), RESTRICTED), name


# --- higher-order kernel -----------------------------------------------------

GP = ENV.pred_const("P")


GVAR = ENV.term_const("var")


def hP(t):
    return App(GP, t)


def ha(i):
    return App(GVAR, Var(AtomVar(atom(i))))


def test_hax():
    d = Node("ax", hol_sequent([hP(ha(0))], [hP(ha(0))]), li=0, ri=0)
    assert check_hol(d, ENV.target)


def test_hax_rejects_distinct_atoms():
    d = Node("ax", hol_sequent([hP(ha(0))], [hP(ha(1))]), li=0, ri=0)
    assert not check_hol(d, ENV.target)


def test_h_forall_left():
    v = PlainVar(O, 0)
    univ = forall(v, Var(v))
    inst = BOT
    d = Node("alll", hol_sequent([univ], [inst]), li=0, witness=BOT,
             children=(Node("ax", hol_sequent([inst], [inst]), li=0, ri=0),))
    assert check_hol(d)


def test_h_forall_right_eigenvariable():
    v = PlainVar(O, 0)
    d = Node("allr", hol_sequent([Var(v)], [forall(v, Var(v))]), ri=0,
             children=(Node("ax", hol_sequent([Var(v)], [Var(v)]), li=0, ri=0),))
    assert not check_hol(d)


def test_h_imp_rules():
    p, q = hP(ha(0)), hP(ha(1))
    d = Node("impr", hol_sequent([q], [imp(p, p)]), ri=0,
             children=(Node("ax", hol_sequent([p, q], [p]), li=0, ri=0),))
    assert check_hol(d, ENV.target)
    d2 = Node("impl", hol_sequent([imp(p, q), p], [q]), li=0,
              children=(Node("ax", hol_sequent([p], [p, q]), li=0, ri=0),
                        Node("ax", hol_sequent([q, p], [q]), li=0, ri=0)))
    assert check_hol(d2, ENV.target)


def test_h_membership_up_to_beta():
    # the axiom matches a formula only beta-equal to its counterpart
    p = hP(ha(0))
    redex = App(Lam(PlainVar(O, 0), Var(PlainVar(O, 0))), p)
    d = Node("ax", hol_sequent([redex], [p]), li=0, ri=0)
    assert check_hol(d, ENV.target)


def test_untypable_formula_rejected():
    d = Node("ax", Sequent((App(BOT, BOT),), (App(BOT, BOT),)), li=0, ri=0)
    v = check_hol(d)
    assert not v and "untypable" in v.message


def test_atomic_probe():
    yes = hol_sequent([hP(ha(0))], [hP(ha(0))])
    no = hol_sequent([hP(ha(0))], [hP(ha(1))])
    assert hol_atomic_derivable(yes) is True
    assert hol_atomic_derivable(no) is False
    assert hol_atomic_derivable(hol_sequent([BOT], [])) is None


# --- one rejection table for both kernels ------------------------------------
#
# Every row is written once in nominal syntax; the higher-order kernel sees
# its translation at the empty context.  A message given as a dict differs by
# logic; None means that logic accepts the derivation.

LOGICS = {
    "pnl-restricted": (lambda d: check_pnl(SIG, d, RESTRICTED), pnl_sequent,
                       lambda x: x),
    "pnl-full": (lambda d: check_pnl(SIG, d, FULL), pnl_sequent, lambda x: x),
    "hol": (lambda d: check_hol(d, ENV.target), hol_sequent,
            lambda x: translate(ENV, (), x)),
}

p, q, r = P(var(0)), P(var(1)), P(var(2))
PX = P(Sus.of(X0))
UNIV = All(X0, PX)


def _ax(n, left, right):
    return n("ax", left, right, li=0, ri=0)


REJECTIONS = [
    ("ax-formulas", lambda n: _ax(n, [p], [q]), (),
     {"pnl-restricted": "axiom formulas not alpha-equal",
      "pnl-full": "permuted axiom formula does not match",
      "hol": "axiom formulas not alpha-beta-equal"}),
    ("ax-permutation",
     lambda n: n("ax", [p], [q], li=0, ri=0, perm=Perm.swap(atom(0), atom(1))), (),
     {"pnl-restricted": "axiom permutation must be identity in restricted mode",
      "pnl-full": None,
      "hol": "axiom formulas not alpha-beta-equal"}),
    ("botl-principal", lambda n: n("botl", [p], [], li=0), (),
     "botl principal formula is not the false constant"),
    ("impl-principal",
     lambda n: n("impl", [p], [q], _ax(n, [p], [p]), _ax(n, [q], [q]), li=0), (),
     "impl principal formula is not an implication"),
    ("impl-first-premise",
     lambda n: n("impl", [Imp(p, q), p], [q], _ax(n, [p], [r]),
                 _ax(n, [q, p], [q]), li=0), (0,),
     "first premise does not match impl"),
    ("impl-second-premise",
     lambda n: n("impl", [Imp(p, q), p], [q], _ax(n, [p], [p, q]),
                 _ax(n, [r, p], [q]), li=0), (1,),
     "second premise does not match impl"),
    ("impr-principal", lambda n: n("impr", [], [p], _ax(n, [p], [p]), ri=0), (),
     "impr principal formula is not an implication"),
    ("impr-premise",
     lambda n: n("impr", [], [Imp(p, q)], _ax(n, [p], [r]), ri=0), (0,),
     "premise does not match impr"),
    ("alll-principal",
     lambda n: n("alll", [p], [q], _ax(n, [p], [p]), li=0, witness=var(0)), (),
     "alll principal formula is not a quantifier"),
    ("alll-no-witness",
     lambda n: n("alll", [UNIV], [p], _ax(n, [p], [p]), li=0), (),
     "alll needs a witness term"),
    ("alll-witness-sort",
     lambda n: n("alll", [UNIV], [p], _ax(n, [p], [p]), li=0,
                 witness=AtomT(atom(0))), (),
     {"pnl-restricted": "witness has the wrong sort",
      "pnl-full": "witness has the wrong sort",
      "hol": "witness has the wrong type"}),
    ("alll-witness-ill-sorted",
     lambda n: n("alll", [UNIV], [p], _ax(n, [p], [p]), li=0,
                 witness=Former("var", var(0))), (),
     {"pnl-restricted": "ill-sorted witness: var expects nu, got iota",
      "pnl-full": "ill-sorted witness: var expects nu, got iota",
      "hol": "untypable witness: application expects mu_nu, got mu_iota in "
             "App(fn=Const(name='g_var', type=(mu_nu -> mu_iota)), "
             "arg=App(fn=Const(name='g_var', type=(mu_nu -> mu_iota)), "
             "arg=Var(var=nu@0)))"}),
    # X0 permits nu@0..nu@2; the translation carries no permission sets
    ("alll-witness-permission",
     lambda n: n("alll", [UNIV], [P(var(3))], _ax(n, [P(var(3))], [P(var(3))]),
                 li=0, witness=var(3)), (),
     {"pnl-restricted": "witness free atoms escape the permission set",
      "pnl-full": "witness free atoms escape the permission set",
      "hol": None}),
    ("alll-premise",
     lambda n: n("alll", [UNIV], [p], _ax(n, [q], [p]), li=0, witness=var(0)),
     (0,), "premise does not match alll instance"),
    ("allr-principal", lambda n: n("allr", [], [p], _ax(n, [p], [p]), ri=0), (),
     "allr principal formula is not a quantifier"),
    ("allr-eigenvariable",
     lambda n: n("allr", [PX], [UNIV], _ax(n, [PX], [PX]), ri=0), (),
     "allr eigenvariable occurs free in the sequent"),
    ("allr-premise", lambda n: n("allr", [], [UNIV], _ax(n, [p], [p]), ri=0),
     (0,), "premise does not match allr"),
    ("ill-sorted-formula", lambda n: _ax(n, [P(AtomT(atom(0)))], [p]), (),
     {"pnl-restricted": "ill-sorted formula: P expects iota, got nu",
      "pnl-full": "ill-sorted formula: P expects iota, got nu",
      "hol": "untypable formula: application expects mu_iota, got mu_nu in "
             "App(fn=Const(name='g_P', type=(mu_iota -> o)), arg=Var(var=nu@0))"}),
    ("term-as-formula", lambda n: _ax(n, [var(0)], [p]), (),
     {"pnl-restricted": "ill-sorted formula: not a proposition: "
                        "Former(name='var', arg=AtomT(atom=nu@0))",
      "pnl-full": "ill-sorted formula: not a proposition: "
                  "Former(name='var', arg=AtomT(atom=nu@0))",
      "hol": "formula is not a proposition: App(fn=Const(name='g_var', "
             "type=(mu_nu -> mu_iota)), arg=Var(var=nu@0))"}),
    ("unknown-rule", lambda n: n("cut", [p], [p]), (), "unknown rule cut"),
    ("premise-count", lambda n: n("impr", [], [Imp(p, p)], ri=0), (),
     "impr expects 1 premises, got 0"),
    ("left-index", lambda n: n("ax", [p], [p], li=3, ri=0), (),
     "bad left index 3"),
    ("right-index", lambda n: n("ax", [p], [p], li=0), (), "bad right index None"),
    ("rejected-child",
     lambda n: n("impl", [Imp(p, q), p], [q], _ax(n, [p], [p, q]),
                 n("botl", [q, p], [q], li=0), li=0), (1,),
     "botl principal formula is not the false constant"),
]


@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("build, path, message",
                         [row[1:] for row in REJECTIONS],
                         ids=[row[0] for row in REJECTIONS])
def test_rejection_table(logic, build, path, message):
    check, seq, lift = LOGICS[logic]

    def n(rule, left, right, *children, witness=None, **kw):
        return Node(rule, seq([lift(f) for f in left], [lift(f) for f in right]),
                    children=children,
                    witness=None if witness is None else lift(witness), **kw)

    if isinstance(message, dict):
        message = message[logic]
    v = check(build(n))
    if message is None:
        assert v.ok, v
    else:
        assert (v.ok, v.path, v.message) == (False, path, message)


# --- sides as key sets, against the pairwise definitions -----------------------

def rand_side(rng, n):
    """n formulas with many alpha-variants and repeats among them."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.5:
            phi = rng.choice(out)
            phi = perm_act(rand_perm(rng), phi) if rng.random() < 0.5 else \
                perm2_act(Perm2.swap(X0, Unknown(X0.sort, X0.pmss, 5)), phi)
        else:
            phi = rand_prop(rng, 4)
        out.append(phi)
    return out


def keys_of(key):
    return _Logic(key, *[None] * 7).keys


def test_keyed_sides_match_pairwise():
    rng = random.Random(53)
    pnl, hol = keys_of(alpha_key), keys_of(H.alphabeta_key)
    for _ in range(300):
        xs, ys = rand_side(rng, rng.randrange(7)), rand_side(rng, rng.randrange(7))
        if rng.random() < 0.5:
            ys = [perm2_act(Perm2({}), phi) for phi in reversed(xs)]
        got = dedup(xs, alpha_key)
        assert [id(p) for p in got] == [id(p) for p in oracles.dedup(xs, oracles.alpha_eq)]
        same = oracles.aset_eq(xs, ys, oracles.alpha_eq)
        assert (pnl(tuple(xs)) == pnl(tuple(ys))) == same
        # translated, with a beta-redex around some formulas
        hx, hy = ([translate(ENV, (), phi) for phi in side] for side in (xs, ys))
        v = PlainVar(O, 0)
        hy = [App(Lam(v, phi), BOT) if rng.random() < 0.3 else phi for phi in hy]
        got = hol_sequent(hx, hy)
        want = (oracles.dedup(hx, oracles.alphabeta_eq), oracles.dedup(hy, oracles.alphabeta_eq))
        assert [[id(p) for p in side] for side in (got.left, got.right)] == \
            [[id(p) for p in side] for side in want]
        assert (hol(tuple(hx)) == hol(tuple(hy))) == oracles.aset_eq(hx, hy, oracles.alphabeta_eq)


def impr_chain(n):
    """|- P(var 1) -> ... -> P(var n) -> P(var 1), by n impr steps and ax."""
    hyps = [P(var(i)) for i in range(1, n + 1)]
    goal = hyps[0]
    for h in reversed(hyps):
        goal = Imp(h, goal)
    node = Node("ax", pnl_sequent(list(reversed(hyps)), [hyps[0]]), li=n - 1, ri=0)
    for k in range(n, 0, -1):
        rest = hyps[k - 1:]
        right = hyps[0]
        for h in reversed(rest[1:]):
            right = Imp(h, right)
        right = Imp(rest[0], right)
        node = Node("impr", pnl_sequent(list(reversed(hyps[:k - 1])), [right]), ri=0,
                    children=(node,))
    return node


def test_check_hol_types_and_normalizes_each_formula_once(monkeypatch):
    tree = translate_derivation(ENV, impr_chain(40)).tree
    formulas, stack = {}, [tree]
    while stack:
        n = stack.pop()
        formulas.update((id(p), p) for p in n.concl.left + n.concl.right)
        stack.extend(n.children)
    calls = Counter()
    for name in ("hol_type_of", "_nf"):
        def spy(t, *args, real=getattr(H, name), name=name):
            if id(t) in formulas:
                calls[name, id(t)] += 1
            return real(t, *args)
        monkeypatch.setattr(H, name, spy)
    assert check_hol(tree, ENV.target)
    assert len(formulas) == 41 * 42 // 2  # sequent k holds k formulas
    assert Counter(name for name, _ in calls) == {"hol_type_of": len(formulas),
                                                  "_nf": len(formulas)}
    assert set(calls.values()) == {1}


def binder_tower(n, names, swap):
    """n nested lam binders over names, each level applying a variable bound
    at or above it, around a suspension whose unknown permits no binder."""
    x = Unknown(X0.sort, PMSS_ALL, 3)
    t = Former("app", Tup((Sus(Perm.swap(*map(atom, swap)), x), var(names[-1]))))
    for i in range(n - 1, -1, -1):
        t = Former("lam", AbsT(atom(names[i]), Former("app", Tup((var(names[i // 2]), t)))))
    return t


def redex_tower(m):
    """m nested beta-redexes: (lam v_i. g_app (v_i, g_var a_i)) R_(i-1)."""
    gapp, iota = ENV.term_const("app"), H.name_sort_type("iota")
    t = nf = ha(0)
    for i in range(1, m + 1):
        v = Var(PlainVar(iota, i))
        t = App(Lam(v.var, App(gapp, H.HTup((v, ha(i % 3))))), t)
        nf = App(gapp, H.HTup((nf, ha(i % 3))))
    return t, nf


def returns_at(limit, fn) -> bool:
    """Whether fn() returns with the recursion limit set to limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        fn()
        return True
    except RecursionError:
        return False
    finally:
        sys.setrecursionlimit(old)


def test_keys_need_no_more_stack_than_pairwise_equality():
    """Each key returns at the default recursion limit; and at the highest
    limit, to 10 frames, where it fails, the pairwise oracle fails too."""
    t = binder_tower(130, list(range(3, 133)), (0, 1))
    u = binder_tower(130, list(range(200, 330)), (0, 1))
    tower, nf = redex_tower(210)
    assert alpha_key(t) == alpha_key(u)
    assert H.alphabeta_key(tower) == H.alphabeta_key(nf)
    for key, pairwise in [(lambda: alpha_key(t), lambda: oracles.alpha_eq(t, u)),
                          (lambda: H.alphabeta_key(tower),
                           lambda: oracles.alphabeta_eq(tower, nf))]:
        least = next(n for n in range(100, sys.getrecursionlimit() + 1, 10)
                     if returns_at(n, key))
        assert not returns_at(least - 10, pairwise)
