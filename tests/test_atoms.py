import random

import pytest
from hypothesis import given, strategies as st

from nomhol.atoms import (Atom, CofinAtomSet, Perm, Renaming, permission_set,
                          fresh_atoms, perm_image_set, set_subset)
from nomhol.frontend import parse_atom_text

from spec import freshening_pair

NU = "nu"


def a(i: int) -> Atom:
    return Atom(NU, i)


atoms_st = st.builds(a, st.integers(-4, 4))
atom_sets_st = st.frozensets(atoms_st, max_size=5)


def cofin_st():
    finite = st.builds(CofinAtomSet.finite, atom_sets_st)
    cofin = st.builds(
        lambda exc, inc: CofinAtomSet.cofin(exc, inc),
        st.frozensets(st.builds(a, st.integers(-4, -1)), max_size=4),
        atom_sets_st)
    return st.one_of(finite, cofin)


perm_st = st.permutations(list(range(-3, 4))).map(
    lambda xs: Perm({a(i): a(j) for i, j in zip(range(-3, 4), xs)}))


# --- atoms are pairs ------------------------------------------------------

def test_atoms_are_sort_index_pairs():
    atoms = [Atom("nu", 2), Atom("mu", 5), a(-1), a(0), Atom("mu", -3)]
    assert sorted(atoms) == [Atom("mu", -3), Atom("mu", 5), a(-1), a(0), a(2)]
    for x in atoms:
        assert parse_atom_text(repr(x)) == x
        assert hash(x) == hash((x.sort, x.index))
        match x:
            case Atom(s, i):
                assert (s, i) == (x.sort, x.index)
    # iteration order of an atom set is the pair set's, as it was
    assert list({*atoms}) == [Atom(*p) for p in {(x.sort, x.index) for x in atoms}]


# --- fresh allocation ----------------------------------------------------

def test_fresh_skips_avoided():
    assert fresh_atoms([NU], [a(0)]) == [a(1)]


def test_fresh_sequential():
    assert fresh_atoms([NU, NU], []) == [a(0), a(1)]


def test_fresh_scans_past_cofin_included():
    assert fresh_atoms([NU], CofinAtomSet.cofin([], [a(0), a(1)])) == [a(2)]


# --- permission sets ----------------------------------------------------

upward_st = st.frozensets(st.builds(a, st.integers(0, 4)), max_size=4)
downward_st = st.frozensets(st.builds(a, st.integers(-4, -1)), max_size=4)


@given(upward_st, downward_st)
def test_permission_set_is_the_cofin_set(plus, minus):
    s = permission_set(plus, minus)
    assert s == CofinAtomSet.cofin(minus, plus)
    for x in map(a, range(-6, 7)):
        assert (x in s) == (x in plus or (x.index < 0 and x not in minus)), x


@given(atom_sets_st, atom_sets_st)
def test_permission_set_rejects_atoms_in_the_wrong_half(plus, minus):
    if any(x.index < 0 for x in plus):
        want = "plus part must hold non-negative indices"
    elif any(x.index >= 0 for x in minus):
        want = "minus part must hold negative indices"
    else:
        permission_set(plus, minus)
        return
    with pytest.raises(ValueError) as e:
        permission_set(plus, minus)
    assert str(e.value) == want


# --- subset decision ------------------------------------------------------

def test_subset_finite_in_cofin():
    assert set_subset(CofinAtomSet.finite([a(0)]), CofinAtomSet.cofin([], [a(0)]))


def test_subset_cofin_excluded_witness():
    assert not set_subset(CofinAtomSet.cofin([], []), CofinAtomSet.cofin([a(-1)], []))


def test_subset_cofin_boundary():
    s = CofinAtomSet.cofin([a(-1)], [a(0)])
    t = CofinAtomSet.cofin([], [a(0), a(1)])
    assert set_subset(s, t)


def test_cofin_never_inside_finite():
    assert not set_subset(CofinAtomSet.cofin([], []), CofinAtomSet.finite([a(0)]))


@given(cofin_st(), cofin_st())
def test_subset_matches_membership_oracle(s, t):
    k = 1 + max((abs(x.index) for x in s.boundary | t.boundary), default=0)
    window = [a(i) for i in range(-k, k + 1)]
    oracle = all(x in t for x in window if x in s)
    if not s.cofinite:
        oracle = all(x in t for x in s.included)
    elif not t.cofinite:
        oracle = False
    assert set_subset(s, t) == oracle


# --- permutation image ----------------------------------------------------

def test_image_finite_pointwise():
    pi = Perm.swap(a(0), a(1))
    assert perm_image_set(pi, CofinAtomSet.finite([a(0)])) == CofinAtomSet.finite([a(1)])


def test_image_identity():
    s = CofinAtomSet.cofin([a(-2)], [a(3)])
    assert perm_image_set(Perm.identity(), s) == s


def test_image_cofin_cross_half():
    pi = Perm.swap(a(0), a(-1))
    got = perm_image_set(pi, CofinAtomSet.cofin([], []))
    assert got == CofinAtomSet.cofin([a(-1)], [a(0)])
    assert a(-1) not in got and a(0) in got and a(-2) in got


@given(perm_st, cofin_st())
def test_image_roundtrip(pi, s):
    assert perm_image_set(pi, perm_image_set(pi.inverse(), s)) == s


@given(perm_st, cofin_st())
def test_image_membership(pi, s):
    for i in range(-5, 6):
        assert (pi(a(i)) in perm_image_set(pi, s)) == (a(i) in s)


# --- permutation algebra ---------------------------------------------------

@given(perm_st, perm_st)
def test_compose_then_invert(p1, p2):
    comp = p1.compose(p2)
    for x in comp.nontriv | p1.nontriv | p2.nontriv:
        assert comp(x) == p1(p2(x))
        assert comp.inverse()(comp(x)) == x


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm({a(0): a(1)})


def test_renaming_allows_merging():
    r = Renaming({a(0): a(2), a(1): a(2)})
    assert r(a(0)) == r(a(1)) == a(2)
    assert r.dom == frozenset({a(0), a(1)}) and r.img == frozenset({a(2)})


# --- freshening pairs -----------------------------------------------------

def check_pair(atoms, permitted, avoid=()):
    r1, r2 = freshening_pair(atoms, permitted, avoid)
    assert r1.dom == frozenset(atoms)
    assert r2.dom == r1.img
    for x in atoms:
        assert r2(r1(x)) == x
    for t in r2.dom:
        assert t not in permitted and t not in set(atoms) and t not in set(avoid)
    return r1, r2


def test_pair_single():
    r1, r2 = check_pair([a(0)], CofinAtomSet.cofin([], []))
    assert r1.moves() == {a(0): a(1)} and r2.moves() == {a(1): a(0)}


def test_pair_empty():
    r1, r2 = freshening_pair([], permission_set())
    assert r1.is_identity and r2.is_identity


def test_pair_two_atoms():
    r1, r2 = check_pair([a(0), a(1)],
                        permission_set(plus=frozenset({a(0), a(1)})))
    assert r1.moves() == {a(0): a(2), a(1): a(3)}
    assert r2.moves() == {a(2): a(0), a(3): a(1)}


@given(atom_sets_st, st.frozensets(st.builds(a, st.integers(0, 4)), max_size=3))
def test_pair_clauses_random(atoms, plus):
    check_pair(sorted(atoms), permission_set(plus=plus))
