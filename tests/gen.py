"""Shared randomized generators for terms, propositions, and helpers.

The generation window is deliberately small (atoms nu@-2..nu@2, two
unknowns, depth <= 4) so brute-force oracles stay fast and exact.
"""

from __future__ import annotations

import random

from nomhol.atoms import Atom, CofinAtomSet, Perm, permission_set
from nomhol.pnl import (AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                        NameSort, Pred, PnlSignature, Sus, Tup, TupleSort,
                        AbsSort, Unknown)

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
