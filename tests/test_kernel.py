import random
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from nomhol import hol as H
from nomhol import pnl as PNL
from nomhol.atoms import Atom, Perm
from nomhol.corpus import (SIG, alpha_pair, eta_axiom, full_only_derivation,
                           restricted_derivations)
from nomhol.hol import (App, AtomVar, BOT, Const, Lam, O, PlainVar, UnkVar,
                        Var, apps, forall, imp)
from nomhol.kernel import (FULL, Node, RESTRICTED, Sequent, _interned, check_hol,
                           check_pnl)
from nomhol.pnl import (AbsT, All, AtomT, Bot, Former, Imp, Pred, Sus,
                        Tup, Unknown, alpha_key, perm_act)
from nomhol.translate import translate, translate_derivation, translate_signature

import oracles
from gen import PMSS_ALL, X0, atom, rand_perm, rand_prop, var
from spec import Perm2, hol_atomic_derivable, perm2_act

ENV = translate_signature(SIG)


def P(t):
    return Pred("P", t)


def sequent(left, right):
    return Sequent(tuple(left), tuple(right))


def test_full_axiom_accepts_permutation():
    d = full_only_derivation()
    assert check_pnl(SIG, d, FULL)


def test_restricted_rejects_permuted_axiom():
    d = full_only_derivation()
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v
    assert v.path == ()


def test_botl_leaf_empty_right():
    d = Node("botl", sequent([Bot()], []), li=0)
    assert check_pnl(SIG, d, RESTRICTED)


def test_corpus_accepted_in_both_modes():
    for name, d in restricted_derivations():
        assert check_pnl(SIG, d, RESTRICTED), name
        assert check_pnl(SIG, d, FULL), name


def test_check_pnl_sorts_each_object_once(monkeypatch):
    # A read derivation shares each distinct formula and term among its
    # sequents and witnesses.  The check sorts each object once, over a memo
    # of its own: every object is sorted anew, whatever the reader recorded.
    derivations = restricted_derivations()
    sorted_ = Counter()   # id -> times sorted, not looked up
    calls, total = [0], 0
    for name in ("sort_of", "check_prop"):
        fn = getattr(PNL, name)

        def counted(sig, x, known=None, fn=fn):
            calls[0] += 1
            if known is None or id(x) not in known:
                sorted_[id(x)] += 1
            return fn(sig, x, known)
        monkeypatch.setattr(PNL, name, counted)
    for name, d in derivations:
        for mode in (RESTRICTED, FULL):
            sorted_.clear()
            assert check_pnl(SIG, d, mode), name
            assert sorted_ and max(sorted_.values()) == 1, name
            total += sum(sorted_.values())
    assert calls[0] > total   # the shared objects are looked up


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
    d = Node("allr", sequent([phi], [All(X0, phi)]), ri=0,
             children=(Node("ax", sequent([phi], [phi]), li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and "eigenvariable" in v.message


def test_alll_permission_violation():
    # X0 permits upward atoms 0..2 only; witness with nu@3 escapes
    univ = All(X0, P(Sus.of(X0)))
    d = Node("alll", sequent([univ], [P(var(3))]), li=0, witness=var(3),
             children=(Node("ax", sequent([P(var(3))], [P(var(3))]),
                            li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and "permission" in v.message


def test_mismatched_premise_reports_path():
    p0, p1 = P(var(0)), P(var(1))
    d = Node("impr", sequent([], [Imp(p0, p0)]), ri=0,
             children=(Node("ax", sequent([p1], [p1]), li=0, ri=0),))
    v = check_pnl(SIG, d, RESTRICTED)
    assert not v and v.path == (0,)


def _add_everywhere(node, phi):
    return Node(node.rule,
                sequent((phi,) + node.concl.left, node.concl.right),
                children=tuple(_add_everywhere(c, phi) for c in node.children),
                perm=node.perm,
                li=None if node.li is None else node.li + 1,
                ri=node.ri, witness=node.witness)


def test_weakening_stability():
    extra = P(var(2))
    for name, d in restricted_derivations():
        assert check_pnl(SIG, _add_everywhere(d, extra), RESTRICTED), name


# --- higher-order kernel -----------------------------------------------------

GP = ENV.formers["P"]


GVAR = ENV.formers["var"]


def hP(t):
    return App(GP, t)


def ha(i):
    return App(GVAR, Var(AtomVar(atom(i))))


def test_hax():
    d = Node("ax", sequent([hP(ha(0))], [hP(ha(0))]), li=0, ri=0)
    assert check_hol(d)


def test_hax_rejects_distinct_atoms():
    d = Node("ax", sequent([hP(ha(0))], [hP(ha(1))]), li=0, ri=0)
    assert not check_hol(d)


def test_h_forall_left():
    v = PlainVar(O, 0)
    univ = forall(v, Var(v))
    inst = BOT
    d = Node("alll", sequent([univ], [inst]), li=0, witness=BOT,
             children=(Node("ax", sequent([inst], [inst]), li=0, ri=0),))
    assert check_hol(d)


def test_h_forall_right_eigenvariable():
    v = PlainVar(O, 0)
    d = Node("allr", sequent([Var(v)], [forall(v, Var(v))]), ri=0,
             children=(Node("ax", sequent([Var(v)], [Var(v)]), li=0, ri=0),))
    assert not check_hol(d)


def test_h_imp_rules():
    p, q = hP(ha(0)), hP(ha(1))
    d = Node("impr", sequent([q], [imp(p, p)]), ri=0,
             children=(Node("ax", sequent([p, q], [p]), li=0, ri=0),))
    assert check_hol(d)
    d2 = Node("impl", sequent([imp(p, q), p], [q]), li=0,
              children=(Node("ax", sequent([p], [p, q]), li=0, ri=0),
                        Node("ax", sequent([q, p], [q]), li=0, ri=0)))
    assert check_hol(d2)


def test_h_membership_up_to_beta():
    # the axiom matches a formula only beta-equal to its counterpart
    p = hP(ha(0))
    redex = App(Lam(PlainVar(O, 0), Var(PlainVar(O, 0))), p)
    d = Node("ax", sequent([redex], [p]), li=0, ri=0)
    assert check_hol(d)


def test_atomic_probe():
    yes = sequent([hP(ha(0))], [hP(ha(0))])
    no = sequent([hP(ha(0))], [hP(ha(1))])
    assert hol_atomic_derivable(yes) is True
    assert hol_atomic_derivable(no) is False
    assert hol_atomic_derivable(sequent([BOT], [])) is None


# --- one rejection table for both kernels ------------------------------------
#
# Every row is written once in nominal syntax; the higher-order kernel sees
# its translation at the empty context.  A message given as a dict differs by
# logic; None means that logic accepts the derivation, and a HolTypeError
# that the row's translation is ill-typed, so it cannot be built.

LOGICS = {
    "pnl-restricted": (lambda d: check_pnl(SIG, d, RESTRICTED), lambda x: x),
    "pnl-full": (lambda d: check_pnl(SIG, d, FULL), lambda x: x),
    "hol": (lambda d: check_hol(d), lambda x: translate(ENV, (), x)),
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
      "hol": H.HolTypeError("application expects mu_nu, got mu_iota")}),
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
      "hol": H.HolTypeError("application expects mu_iota, got mu_nu")}),
    ("term-as-formula", lambda n: _ax(n, [var(0)], [p]), (),
     {"pnl-restricted": "ill-sorted formula: not a proposition",
      "pnl-full": "ill-sorted formula: not a proposition",
      "hol": "formula is not a proposition: it has type mu_iota"}),
    # P(nu@0) is ill-sorted, and its translation ill-typed, alone on a side
    # of the premise: a formula that fails matches no formula of its parent
    ("ill-sorted-premise-formula",
     lambda n: n("impr", [], [Imp(p, q)], _ax(n, [p], [P(AtomT(atom(0)))]), ri=0),
     (0,), {"pnl-restricted": "premise does not match impr",
            "pnl-full": "premise does not match impr",
            "hol": H.HolTypeError("application expects mu_iota, got mu_nu")}),
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


def row_derivation(logic, build):
    """A row's derivation, with its formulas and witnesses lifted to logic."""
    lift = LOGICS[logic][1]

    def n(rule, left, right, *children, witness=None, **kw):
        return Node(rule, sequent(map(lift, left), map(lift, right)),
                    children=children,
                    witness=None if witness is None else lift(witness), **kw)

    return build(n)


@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("build, path, message",
                         [row[1:] for row in REJECTIONS],
                         ids=[row[0] for row in REJECTIONS])
def test_rejection_table(logic, build, path, message):
    if isinstance(message, dict):
        message = message[logic]
    if isinstance(message, H.HolTypeError):
        with pytest.raises(H.HolTypeError, match=f"^{re.escape(str(message))}$"):
            row_derivation(logic, build)
        return
    v = LOGICS[logic][0](row_derivation(logic, build))
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
    return _interned(key)[1]


def test_keyed_sides_match_pairwise():
    rng = random.Random(53)
    pnl, hol = keys_of(alpha_key), keys_of(H.alphabeta_key)
    for _ in range(300):
        xs, ys = rand_side(rng, rng.randrange(7)), rand_side(rng, rng.randrange(7))
        if rng.random() < 0.5:
            ys = [perm2_act(Perm2({}), phi) for phi in reversed(xs)]
        same = oracles.aset_eq(xs, ys, oracles.alpha_eq)
        assert (pnl(tuple(xs)) == pnl(tuple(ys))) == same
        # translated, with a beta-redex around some formulas
        hx, hy = ([translate(ENV, (), phi) for phi in side] for side in (xs, ys))
        v = PlainVar(O, 0)
        hy = [App(Lam(v, phi), BOT) if rng.random() < 0.3 else phi for phi in hy]
        assert (hol(tuple(hx)) == hol(tuple(hy))) == oracles.aset_eq(hx, hy, oracles.alphabeta_eq)


def impr_chain(n):
    """|- P(var 1) -> ... -> P(var n) -> P(var 1), by n impr steps and ax."""
    hyps = [P(var(i)) for i in range(1, n + 1)]
    goal = hyps[0]
    for h in reversed(hyps):
        goal = Imp(h, goal)
    node = Node("ax", sequent(list(reversed(hyps)), [hyps[0]]), li=n - 1, ri=0)
    for k in range(n, 0, -1):
        rest = hyps[k - 1:]
        right = hyps[0]
        for h in reversed(rest[1:]):
            right = Imp(h, right)
        right = Imp(rest[0], right)
        node = Node("impr", sequent(list(reversed(hyps[:k - 1])), [right]), ri=0,
                    children=(node,))
    return node


# --- copies of a formula on a side never change a verdict ----------------------

def pnl_copy(phi):
    """A new formula alpha-equal to phi, a quantifier's unknown renamed."""
    if isinstance(phi, All):
        u = Unknown(phi.unknown.sort, phi.unknown.pmss, 99)
        return All(u, perm2_act(Perm2.swap(phi.unknown, u), phi.body))
    return perm2_act(Perm2({}), phi)


def hol_copy(phi):
    """A new formula alpha-beta-equal to phi: a beta-redex around it."""
    return App(Lam(PlainVar(O, 0), phi), BOT)


def with_copies(rng, node, copy):
    """node with copies of random formulas inserted at random places on every
    side, and li and ri moved to follow the formulas they index."""
    def side(props, i):
        out = list(props)
        for _ in range(rng.randrange(3) if props else 0):
            out.insert(rng.randrange(len(out) + 1), copy(rng.choice(props)))
        if i is not None:
            i = next(k for k, phi in enumerate(out) if phi is props[i])
        return tuple(out), i

    (left, li), (right, ri) = side(node.concl.left, node.li), side(node.concl.right, node.ri)
    return replace(node, concl=Sequent(left, right), li=li, ri=ri,
                   children=tuple(with_copies(rng, c, copy) for c in node.children))


def sequents(node):
    yield node.concl
    for c in node.children:
        yield from sequents(c)


@pytest.mark.parametrize("logic", LOGICS)
def test_copies_never_change_a_verdict(logic):
    """The corpus, impr chains and the rejection rows whose indices are in
    range, each with copies added: same acceptance, same rejected path."""
    rng = random.Random(61)
    check = LOGICS[logic][0]
    ds = [d for _, d in restricted_derivations()] + [impr_chain(n) for n in range(1, 7)]
    if logic == "hol":
        ds = [translate_derivation(ENV, d).tree for d in ds]
    else:
        ds.append(full_only_derivation())
    ds += [row_derivation(logic, row[1]) for row in REJECTIONS
           if row[0] not in ("left-index", "right-index")
           and not (isinstance(row[3], dict)
                    and isinstance(row[3][logic], H.HolTypeError))]
    for d in ds:
        want = check(d)
        for _ in range(4):
            dup = with_copies(rng, d, hol_copy if logic == "hol" else pnl_copy)
            v = check(dup)
            assert (v.ok, v.path) == (want.ok, want.path), (d, dup)
            if logic == "hol":
                continue
            # as sets up to alpha, the sides are the ones written in d
            for s, t in zip(sequents(d), sequents(dup)):
                for orig, side in ((s.left, t.left), (s.right, t.right)):
                    assert len(oracles.dedup(side, oracles.alpha_eq)) == len(orig)
                    assert oracles.aset_eq(side, orig, oracles.alpha_eq)


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_cli_keys_each_formula_object_at_most_once(monkeypatch, tmp_path):
    """On one pass of the benchmark's proof derivations: check --logic hol
    calls hol.normal_key at most once per formula object, translate
    --derivation never, and check --logic pnl-* calls pnl.alpha_key at most
    once per formula object."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.syspath_prepend(str(BENCHMARKS.parent / "tools"))
    import cli_parity
    import workloads
    w = workloads.build("proof", 71)
    monkeypatch.chdir(tmp_path)
    for name, text in w.files.items():
        Path(name).write_text(text, encoding="utf-8")
    calls, held = Counter(), []

    def spy(real):
        def counted(x, *args):
            calls[real.__name__, id(x)] += 1
            held.append(x)  # so no later object takes its id
            return real(x, *args)
        return counted

    monkeypatch.setattr(H, "normal_key", spy(H.normal_key))
    monkeypatch.setattr(PNL, "alpha_key", spy(PNL.alpha_key))
    for call in w.passes[0]:
        calls.clear()
        held.clear()
        assert cli_parity.run(call)[1] == call.exit, call.argv
        most = Counter()
        for (name, _), k in calls.items():
            most[name] = max(most[name], k)
        if call.cmd == "check-hol":
            assert most["normal_key"] == 1, call.argv
        elif call.cmd == "translate":
            assert most["normal_key"] == 0, call.argv
        else:
            assert most["alpha_key"] == 1, call.argv


def test_check_hol_types_and_normalizes_each_formula_once(monkeypatch):
    """The translated impr chain holds one object per distinct formula (40
    hypotheses and 40 right-hand sides in 861 occurrences); check_hol
    normalises each object once, and types none: each carries its type."""
    tree = translate_derivation(ENV, impr_chain(40)).tree
    formulas, stack = {}, [tree]
    while stack:
        n = stack.pop()
        formulas.update((id(p), p) for p in n.concl.left + n.concl.right)
        stack.extend(n.children)
    calls = Counter()
    def spy(t, real=H._nf):
        if id(t) in formulas:
            calls[id(t)] += 1
        return real(t)
    monkeypatch.setattr(H, "_nf", spy)
    assert check_hol(tree)
    assert len(formulas) == 80
    assert len(calls) == len(formulas)
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
    gapp, iota = ENV.formers["app"], H.name_sort_type("iota")
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
