"""Shared randomized generators for terms, propositions, models, and helpers.

The generation window is deliberately small (atoms nu@-2..nu@2, two
unknowns, and a third whose permission set splits the window, depth <= 4)
so brute-force oracles stay fast and exact.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from nomhol.atoms import Atom, CofinAtomSet, Perm, permission_set
from nomhol.pnl import (AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        NameSort, Pred, PnlSignature, Sus, Tup,
                        TupleSort, AbsSort, Unknown, perm_act)
from nomhol.semantics import HerbrandModel, PredSpec
from spec import PnlSubst, subst_apply

NU = "nu"
IOTA = BaseSort("iota")
NSORT = NameSort(NU)

WINDOW = [Atom(NU, i) for i in range(-2, 3)]

SIG = PnlSignature(
    name_sorts=frozenset({NU}),
    base_sorts=frozenset({"iota"}),
    term_formers={
        "var": (NSORT, "iota"),
        "app": (TupleSort((IOTA, IOTA)), "iota"),
        "lam": (AbsSort(NU, IOTA), "iota"),
    },
    prop_formers={
        "P": IOTA,
        "equal": TupleSort((IOTA, IOTA)),
    },
)

PMSS_ALL = permission_set(plus=frozenset({Atom(NU, 0), Atom(NU, 1), Atom(NU, 2)}))
PMSS_HALF = permission_set(plus=frozenset({Atom(NU, 0)}))

PMSS_DOWN = permission_set()  # the downward half only

X0 = Unknown(IOTA, PMSS_ALL, 0)
X1 = Unknown(IOTA, PMSS_HALF, 1)
UNKNOWNS = [X0, X1]

# separates nu@-1 from nu@-2; its window is nu@0, nu@-1, nu@-3
PMSS_SPLIT = permission_set(plus=frozenset({Atom(NU, 0)}), minus=frozenset({Atom(NU, -2)}))
X2 = Unknown(IOTA, PMSS_SPLIT, 2)


def atom(i: int) -> Atom:
    return Atom(NU, i)


def var(i: int):
    return Former("var", AtomT(atom(i)))


def rand_perm(rng: random.Random) -> Perm:
    atoms = list(WINDOW)
    rng.shuffle(atoms)
    k = rng.randrange(0, 4)
    cycle = atoms[:k] if k != 1 else []
    return Perm.from_cycles([cycle]) if cycle else Perm.identity()


def rand_term(rng: random.Random, depth: int = 4, sort=IOTA):
    """A random well-sorted term of the requested sort."""
    if sort == NSORT:
        return AtomT(rng.choice(WINDOW))
    if isinstance(sort, TupleSort):
        return Tup(tuple(rand_term(rng, depth - 1, s) for s in sort.items))
    if isinstance(sort, AbsSort):
        return AbsT(rng.choice(WINDOW), rand_term(rng, depth - 1, sort.body))
    # base sort iota
    choices = ["var"]
    if depth > 1:
        choices += ["app", "lam", "sus", "sus"]
    match rng.choice(choices):
        case "var":
            return Former("var", AtomT(rng.choice(WINDOW)))
        case "app":
            return Former("app", Tup((rand_term(rng, depth - 1),
                                      rand_term(rng, depth - 1))))
        case "lam":
            return Former("lam", AbsT(rng.choice(WINDOW),
                                      rand_term(rng, depth - 1)))
        case _:
            return Sus(rand_perm(rng), rng.choice(UNKNOWNS))


def rand_ground_term(rng: random.Random, depth: int = 3, sort=IOTA):
    if sort == NSORT:
        return AtomT(rng.choice(WINDOW))
    if isinstance(sort, TupleSort):
        return Tup(tuple(rand_ground_term(rng, depth - 1, s) for s in sort.items))
    if isinstance(sort, AbsSort):
        return AbsT(rng.choice(WINDOW), rand_ground_term(rng, depth - 1, sort.body))
    choices = ["var"] if depth <= 1 else ["var", "app", "lam"]
    match rng.choice(choices):
        case "var":
            return Former("var", AtomT(rng.choice(WINDOW)))
        case "app":
            return Former("app", Tup((rand_ground_term(rng, depth - 1),
                                      rand_ground_term(rng, depth - 1))))
        case _:
            return Former("lam", AbsT(rng.choice(WINDOW),
                                      rand_ground_term(rng, depth - 1)))


def rand_prop(rng: random.Random, depth: int = 3, quantifiers: bool = True):
    choices = ["pred", "pred"]
    if depth > 1:
        choices += ["imp", "bot"]
        if quantifiers:
            choices.append("all")
    match rng.choice(choices):
        case "pred":
            name = rng.choice(["P", "equal"])
            return Pred(name, rand_term(rng, depth, SIG.prop_formers[name]))
        case "imp":
            return Imp(rand_prop(rng, depth - 1, quantifiers),
                       rand_prop(rng, depth - 1, quantifiers))
        case "bot":
            return Bot()
        case _:
            return All(rng.choice(UNKNOWNS), rand_prop(rng, depth - 1, quantifiers))


def with_unknowns(rng: random.Random, x, unknowns=(X0, X1, X2)):
    """x with each of X0 and X1 replaced by a random one of `unknowns`, so
    that two may become one."""
    return subst_apply(PnlSubst({u: Sus.of(rng.choice(unknowns)) for u in UNKNOWNS}), x)


def away(rng: random.Random) -> Perm:
    """A permutation that swaps all but at most two atoms of the unknowns'
    windows with atoms that no window or permission set here holds: what
    it renames mentions few of the atoms its quantifiers range over."""
    near = rng.sample([*WINDOW, atom(-3)], rng.randrange(4, 7))
    far = [atom(5 + i) for i in range(len(near))]
    return Perm({**dict(zip(near, far)), **dict(zip(far, near))})


def renamed(pi: Perm, x):
    """x with each atom written in it, in a suspension's permutation too,
    replaced by its image under pi; unlike `perm_act`, which composes pi
    with each suspension's permutation."""
    match x:
        case AtomT(a):
            return AtomT(pi(a))
        case Tup(items):
            return Tup(tuple(renamed(pi, r) for r in items))
        case Former(f, arg) | Pred(f, arg):
            return type(x)(f, renamed(pi, arg))
        case AbsT(a, body):
            return AbsT(pi(a), renamed(pi, body))
        case Sus(rho, u):
            return Sus(Perm({pi(a): pi(b) for a, b in rho.moves().items()}), u)
        case Imp(p, q):
            return Imp(renamed(pi, p), renamed(pi, q))
        case All(u, body):
            return All(u, renamed(pi, body))
    return x


def rand_pattern(rng: random.Random, sort, unknowns=(X0, X1, X2)):
    """A clause pattern from `rand_term` over `unknowns`.  A pair is a
    third of the time a term next to a permuted copy of itself, and a third
    of the time two suspensions of one unknown, so that pattern variables
    repeat."""
    k = rng.random() if isinstance(sort, TupleSort) else 1
    if k < 1 / 3:
        u = rng.choice(unknowns)
        return Tup((Sus(rand_perm(rng), u), Sus(rand_perm(rng), u)))
    if k < 2 / 3:
        q = with_unknowns(rng, rand_term(rng, rng.randrange(1, 4)), unknowns)
        return Tup((q, perm_act(rand_perm(rng), q)))
    return with_unknowns(rng, rand_term(rng, rng.randrange(1, 4), sort), unknowns)


def planted_P(rng: random.Random) -> tuple:
    """(clauses, default) for P that tell one window atom a from the window
    atoms it would otherwise be interchangeable with, which a proposition
    that names no atom leaves free: a pattern that names a free, as a
    binder or in a suspension's permutation, or one whose unknown's
    permission set (X2's) splits the window.  The value v is random, and
    the terms the clauses tell apart get v and 1 - v."""
    a, v = rng.choice(WINDOW), rng.randrange(2)
    kind = rng.randrange(4)
    if kind == 0:
        return ((Former("var", AtomT(a)), v),), 1 - v
    if kind == 1:   # lam([c] var(a)), c not a, meets the second clause
        return ((Former("lam", AbsT(a, Sus.of(X0))), v),
                (Former("lam", AbsT(atom(5), Sus.of(X0))), 1 - v)), v
    if kind == 2:
        return ((Sus(Perm.swap(a, atom(5)), X0), v),), 1 - v
    return ((Sus.of(X2), v),), 1 - v


EQUALITY = ((Tup((Sus.of(X0), Sus.of(X0))), 1),)


def rand_model(rng: random.Random) -> HerbrandModel:
    """A model of SIG: each proposition-former gets 0-4 clauses
    (`rand_pattern`, over one to three of X0, X1 and X2), a random value
    each, and a random default, all `renamed` by one `away` permutation;
    about a third of them declare an extra support.  Most P tables are
    `planted_P` instead, and half the equal tables are equality on the
    window, so that which of two window atoms a candidate holds decides a
    quantifier's value."""
    preds, pi = {}, away(rng)
    unknowns = rng.sample([X0, X1, X2], rng.randrange(1, 4))
    for name, sort in sorted(SIG.prop_formers.items()):
        clauses = tuple((renamed(pi, rand_pattern(rng, sort, unknowns)), rng.randrange(2))
                        for _ in range(rng.randrange(5)))
        default = rng.randrange(2)
        if name == "P" and rng.random() < 0.7:
            clauses, default = planted_P(rng)
        if name == "equal" and rng.random() < 0.5:
            clauses, default = EQUALITY, 0
        extra = frozenset(rng.sample([*WINDOW, atom(-3)], rng.randrange(1, 3))) \
            if rng.random() < 0.35 else frozenset()
        preds[name] = PredSpec(clauses, default, extra)
    return HerbrandModel(SIG, preds)


models = st.integers(0, 2**32 - 1).map(lambda seed: rand_model(random.Random(seed)))
