from collections import Counter
from pathlib import Path

import pytest

from nomhol import frontend as F, translate as T
from nomhol.atoms import Perm, permission_set
from nomhol.capture import capture_cover
from nomhol.corpus import SIG, full_only_derivation, restricted_derivations
from nomhol.hol import alphabeta_eq
from nomhol.kernel import (FULL, Node, RESTRICTED, Sequent, check_hol,
                           check_pnl)
from nomhol.pnl import All, BaseSort, Imp, Pred, Sus, Tup, Unknown
from nomhol.translate import (TranslationError, translate,
                              translate_derivation, translate_signature)

from gen import atom, var
from spec import apply_reindex, erase_pi, hol_atomic_derivable, pi_translate

ENV = translate_signature(SIG)
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_corpus_translates_end_to_end():
    for name, d in restricted_derivations():
        out = translate_derivation(ENV, d)
        assert check_hol(out.tree), name


def test_translated_endsequent_reindexes_to_caller_context():
    for name, d in restricted_derivations():
        out = translate_derivation(ENV, d)
        want = Sequent(tuple(translate(ENV, out.ctx, p) for p in d.concl.left),
                       tuple(translate(ENV, out.ctx, p) for p in d.concl.right))
        got = out.tree.concl
        assert len(got.left) == len(want.left) and len(got.right) == len(want.right)
        for g, w in zip(got.left + got.right, want.left + want.right):
            assert alphabeta_eq(apply_reindex(out.ctx_full, out.ctx, g), w), name


def test_each_formula_object_is_translated_once(monkeypatch):
    """On the corpus and the intact benchmark proof documents of one pass:
    translate_derivation calls translate once per distinct formula or
    witness object, and gives each occurrence what translating it alone
    gives."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    files = workloads.build("proof", 5).files
    ds = [d for _, d in restricted_derivations()]
    ds += [F.parse_document(files[f"p0-d{i}.sexp"], "deriv-pnl", SIG) for i in (0, 2, 4, 6)]
    real, depth, calls = T.translate, [0], Counter()

    def spy(env, ctx, x):
        if not depth[0]:
            calls[id(x)] += 1
        depth[0] += 1
        try:
            return real(env, ctx, x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(T, "translate", spy)
    for d in ds:
        calls.clear()
        out = translate_derivation(ENV, d)
        counted = dict(calls)
        objects, pairs = set(), [(d, out.tree)]
        while pairs:
            n, h = pairs.pop()
            objects.update(map(id, n.concl.left + n.concl.right))
            if n.witness is not None:
                objects.add(id(n.witness))
            assert h.concl == Sequent(
                tuple(translate(ENV, out.ctx_full, p) for p in n.concl.left),
                tuple(translate(ENV, out.ctx_full, p) for p in n.concl.right))
            pairs.extend(zip(n.children, h.children))
        assert counted.keys() == objects and set(counted.values()) == {1}


def test_full_axiom_rejected_with_location():
    with pytest.raises(TranslationError) as e:
        translate_derivation(ENV, full_only_derivation())
    assert "equivariant" in str(e.value)


def test_rejected_target_fails_atomic_probe():
    d = full_only_derivation()
    assert check_pnl(SIG, d, FULL)
    seq = Sequent(tuple(translate(ENV, (), p) for p in d.concl.left),
                  tuple(translate(ENV, (), p) for p in d.concl.right))
    assert hol_atomic_derivable(seq) is False


def test_single_axiom_translates_to_single_axiom():
    name, d = restricted_derivations()[0]
    out = translate_derivation(ENV, d)
    assert out.tree.rule == "ax" and out.tree.children == ()


# --- guard saturation and erasure ---------------------------------------------

GUARD_SORT = BaseSort("tau_g")
GUARD = Unknown(GUARD_SORT, permission_set(plus=frozenset({atom(0), atom(1), atom(2)})), 0)


def saturated(phi):
    return pi_translate(SIG, phi, GUARD)


def _ax(left, right, perm=None):
    return Node("ax", Sequent(tuple(left), tuple(right)), li=0, ri=0,
                perm=perm if perm is not None else Perm.identity())


def _erasure_fixtures():
    """Full-mode derivations over the guarded signature plus their expected
    restricted image."""
    out = []
    for phi in [Pred("P", var(0)),
                Imp(Pred("P", var(0)), Pred("P", var(0))),
                Pred("equal", Tup((var(0), var(1)))),
                Pred("P", var(-1)),
                Pred("P", var(2))]:
        sig2, phi2 = saturated(phi)
        out.append((sig2, _ax([phi2], [phi2]), _ax([phi], [phi])))
    return out


def test_erasure_roundtrip():
    for sig2, guarded, plain in _erasure_fixtures():
        assert check_pnl(sig2, guarded, FULL)
        got = erase_pi(sig2, guarded, GUARD)
        assert check_pnl(SIG, got, RESTRICTED)
        assert got.concl == plain.concl


def test_erasure_accepts_invisible_permutation():
    # a permutation moving only atoms outside the guard's permission set
    phi = Pred("P", var(0))
    sig2, phi2 = saturated(phi)
    pi = Perm.swap(atom(3), atom(4))
    d = _ax([phi2], [phi2], perm=pi)
    assert check_pnl(sig2, d, FULL)
    got = erase_pi(sig2, d, GUARD)
    assert got.perm.is_identity
    assert check_pnl(SIG, got, RESTRICTED)


def test_erasure_rejects_moving_permitted_atom():
    from nomhol.pnl import perm_act
    sig2, left = saturated(Pred("P", var(0)))
    pi = Perm.swap(atom(0), atom(1))
    right = perm_act(pi, left)  # the permuted guard suspension comes along
    d = _ax([left], [right], perm=pi)
    assert check_pnl(sig2, d, FULL)
    with pytest.raises(TranslationError):
        erase_pi(sig2, d, GUARD)


def test_erasure_checks_permission_precondition():
    sig2, phi2 = saturated(Pred("P", var(0)))
    bad = Unknown(GUARD_SORT, permission_set(), 0)  # permits no upward atoms
    d = _ax([phi2], [phi2])
    with pytest.raises(TranslationError):
        erase_pi(sig2, d, bad)
