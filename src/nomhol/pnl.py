"""Permissive-nominal terms and propositions.

Terms carry permutation-suspended unknowns; equality used everywhere
downstream is the decidable alpha-equivalence implemented here.  Sorts (in
the compact form of unknown tokens), unknowns, atom terms and `Bot` print as
the reader writes them; other terms and propositions print through
`frontend.render`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Mapping, Optional, Union

from .atoms import Atom, CofinAtomSet, Perm, perm_image_set


# ---------------------------------------------------------------------------
# sorts and signatures

@dataclass(frozen=True, slots=True)
class NameSort:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class BaseSort:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class TupleSort:
    items: tuple

    def __repr__(self):
        return "<" + ",".join(map(repr, self.items)) + ">"


@dataclass(frozen=True, slots=True)
class AbsSort:
    name: str  # the bound name-sort
    body: "PnlSort"

    def __repr__(self):
        return f"[{self.name}]{self.body!r}"


PnlSort = Union[NameSort, BaseSort, TupleSort, AbsSort]


class SignatureError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class PnlSignature:
    name_sorts: frozenset
    base_sorts: frozenset
    term_formers: Mapping[str, tuple]  # f -> (arg sort, result base-sort name)
    prop_formers: Mapping[str, PnlSort]  # P -> arg sort

    def __post_init__(self):
        if self.name_sorts & self.base_sorts:
            raise SignatureError("name sorts and base sorts must be disjoint")
        overlap = set(self.term_formers) & set(self.prop_formers)
        if overlap:
            raise SignatureError(f"former names used on both levels: {overlap}")
        for f, (arg, res) in self.term_formers.items():
            self._check_sort(arg, f)
            if res not in self.base_sorts:
                raise SignatureError(f"{f}: result sort {res} is not a declared base sort")
        for p, arg in self.prop_formers.items():
            self._check_sort(arg, p)

    def _check_sort(self, sort: PnlSort, owner: str):
        match sort:
            case NameSort(n):
                if n not in self.name_sorts:
                    raise SignatureError(f"{owner}: undeclared name sort {n}")
            case BaseSort(n):
                if n not in self.base_sorts:
                    raise SignatureError(f"{owner}: undeclared base sort {n}")
            case TupleSort(items):
                for s in items:
                    self._check_sort(s, owner)
            case AbsSort(n, body):
                if n not in self.name_sorts:
                    raise SignatureError(f"{owner}: undeclared name sort {n}")
                self._check_sort(body, owner)
            case _:
                raise SignatureError(f"{owner}: not a sort: {type(sort).__name__}")


@dataclass(frozen=True, slots=True)
class Unknown:
    sort: PnlSort
    pmss: CofinAtomSet  # co-infinite: a permission set
    index: int

    def __repr__(self):
        return f"X{{{self.sort!r};{self.pmss!r};{self.index}}}"


# ---------------------------------------------------------------------------
# terms and propositions

@dataclass(frozen=True, slots=True)
class AtomT:
    atom: Atom

    def __repr__(self):
        return repr(self.atom)


@dataclass(frozen=True, slots=True)
class Tup:
    items: tuple


@dataclass(frozen=True, slots=True)
class Former:
    name: str
    arg: "PnlTerm"


@dataclass(frozen=True, slots=True)
class AbsT:
    atom: Atom
    body: "PnlTerm"


@dataclass(frozen=True, slots=True)
class Sus:
    perm: Perm
    unknown: Unknown

    @staticmethod
    def of(unknown: Unknown) -> "Sus":
        return Sus(Perm.identity(), unknown)


PnlTerm = Union[AtomT, Tup, Former, AbsT, Sus]


@dataclass(frozen=True, slots=True)
class Bot:
    def __repr__(self):
        return "bot"


@dataclass(frozen=True, slots=True)
class Imp:
    left: "PnlProp"
    right: "PnlProp"


@dataclass(frozen=True, slots=True)
class Pred:
    name: str
    arg: PnlTerm


@dataclass(frozen=True, slots=True)
class All:
    unknown: Unknown
    body: "PnlProp"


PnlProp = Union[Bot, Imp, Pred, All]


class SortError(Exception):
    def __init__(self, message: str, subterm=None):
        super().__init__(message)
        self.subterm = subterm


def sort_of(sig: PnlSignature, t: PnlTerm, known: Optional[dict] = None) -> PnlSort:
    """The sort of t, or SortError.  `known` is a memo that maps id(u) to
    (u, u's sort), or (u, True) for a proposition u: a term in it costs one
    step, and every term sorted here is recorded in it."""
    if known is not None and (hit := known.get(id(t))):
        return hit[1]
    match t:
        case AtomT(a) | AbsT(a, _) if a.sort not in sig.name_sorts:
            raise SortError(f"undeclared name sort {a.sort}", t)
        case AtomT(a):
            s = NameSort(a.sort)
        case Tup(items):
            s = TupleSort(tuple(sort_of(sig, r, known) for r in items))
        case Former(f, arg):
            if f not in sig.term_formers:
                raise SortError(f"unknown term-former {f}", t)
            want, res = sig.term_formers[f]
            got = sort_of(sig, arg, known)
            if got != want:
                raise SortError(f"{f} expects {want!r}, got {got!r}", t)
            s = BaseSort(res)
        case AbsT(a, body):
            s = AbsSort(a.sort, sort_of(sig, body, known))
        case Sus(_, x):
            sig._check_sort(x.sort, "unknown")
            s = x.sort
        case _:
            raise SortError(f"not a term: {type(t).__name__}", t)
    if known is not None:
        known[id(t)] = t, s
    return s


def check_prop(sig: PnlSignature, phi: PnlProp, known: Optional[dict] = None) -> bool:
    """True, or SortError if phi is ill-sorted; `known` is as for `sort_of`."""
    if known is not None and id(phi) in known:
        return True
    match phi:
        case Bot():
            pass
        case Imp(a, b):
            check_prop(sig, a, known)
            check_prop(sig, b, known)
        case Pred(p, arg):
            if p not in sig.prop_formers:
                raise SortError(f"unknown proposition-former {p}", phi)
            got = sort_of(sig, arg, known)
            if got != sig.prop_formers[p]:
                raise SortError(f"{p} expects {sig.prop_formers[p]!r}, got {got!r}", phi)
        case All(_, body):
            check_prop(sig, body, known)
        case _:
            raise SortError("not a proposition", phi)
    if known is not None:
        known[id(phi)] = phi, True
    return True


# ---------------------------------------------------------------------------
# permutation actions

def perm_act(pi: Perm, x):
    if pi.is_identity:
        return x
    match x:
        case AtomT(a):
            return AtomT(pi(a))
        case Tup(items):
            return Tup(tuple(perm_act(pi, r) for r in items))
        case Former(f, arg):
            return Former(f, perm_act(pi, arg))
        case AbsT(a, body):
            return AbsT(pi(a), perm_act(pi, body))
        case Sus(pi2, unk):
            return Sus(pi.compose(pi2), unk)
        case Bot():
            return x
        case Imp(a, b):
            return Imp(perm_act(pi, a), perm_act(pi, b))
        case Pred(p, arg):
            return Pred(p, perm_act(pi, arg))
        case All(unk, body):
            return All(unk, perm_act(pi, body))
    raise TypeError(f"not PNL syntax: {type(x).__name__}")


class Perm2:
    """Sort- and permission-set-preserving bijection on unknowns."""

    __slots__ = ("_map",)

    def __init__(self, moves: Mapping[Unknown, Unknown]):
        cleaned = {x: y for x, y in moves.items() if x != y}
        for x, y in cleaned.items():
            if x.sort != y.sort or x.pmss != y.pmss:
                raise ValueError(f"level-2 move of {x!r} to {y!r} changes sort or permission set")
        if set(cleaned.values()) != set(cleaned):
            raise ValueError("level-2 permutation must be a bijection")
        self._map = cleaned

    @staticmethod
    def swap(x: Unknown, y: Unknown) -> "Perm2":
        return Perm2({x: y, y: x}) if x != y else Perm2({})

    def __call__(self, x: Unknown) -> Unknown:
        return self._map.get(x, x)


def perm2_act(big_pi: Perm2, x):
    match x:
        case AtomT(_):
            return x
        case Tup(items):
            return Tup(tuple(perm2_act(big_pi, r) for r in items))
        case Former(f, arg):
            return Former(f, perm2_act(big_pi, arg))
        case AbsT(a, body):
            return AbsT(a, perm2_act(big_pi, body))
        case Sus(pi, unk):
            return Sus(pi, big_pi(unk))
        case Bot():
            return x
        case Imp(a, b):
            return Imp(perm2_act(big_pi, a), perm2_act(big_pi, b))
        case Pred(p, arg):
            return Pred(p, perm2_act(big_pi, arg))
        case All(unk, body):
            return All(big_pi(unk), perm2_act(big_pi, body))
    raise TypeError(f"not PNL syntax: {type(x).__name__}")


# ---------------------------------------------------------------------------
# free atoms / free unknowns

def free_atoms(x) -> CofinAtomSet:
    match x:
        case AtomT(a):
            return CofinAtomSet.finite([a])
        case Tup(items):
            out = CofinAtomSet.finite()
            for r in items:
                out = out.union(free_atoms(r))
            return out
        case Former(_, arg) | Pred(_, arg):
            return free_atoms(arg)
        case AbsT(a, body):
            return free_atoms(body).minus_finite([a])
        case Sus(pi, unk):
            return perm_image_set(pi, unk.pmss)
        case Bot():
            return CofinAtomSet.finite()
        case Imp(a, b):
            return free_atoms(a).union(free_atoms(b))
        case All(_, body):
            return free_atoms(body)
    raise TypeError(f"not PNL syntax: {type(x).__name__}")


def free_unknowns(x) -> frozenset:
    match x:
        case AtomT(_) | Bot():
            return frozenset()
        case Tup(items):
            return frozenset().union(*(free_unknowns(r) for r in items)) if items else frozenset()
        case Former(_, arg) | Pred(_, arg):
            return free_unknowns(arg)
        case AbsT(_, body):
            return free_unknowns(body)
        case Sus(_, unk):
            return frozenset([unk])
        case Imp(a, b):
            return free_unknowns(a) | free_unknowns(b)
        case All(unk, body):
            return free_unknowns(body) - {unk}
    raise TypeError(f"not PNL syntax: {type(x).__name__}")


# ---------------------------------------------------------------------------
# alpha-equivalence

def alpha_key(x) -> tuple:
    """Canonical form of x up to alpha-equivalence: x and y are alpha-equal
    exactly when their keys are equal.

    Atoms bound by an abstraction and unknowns bound by a quantifier become
    binder levels (de Bruijn).  A suspension pi.X keeps X (or its level) and
    the images under pi of the atoms of pmss(X) that pi moves or that it
    maps to a bound atom, with bound images given as levels; outside those
    atoms pi.X acts as the identity, so two suspensions of X with the same
    key agree on all of pmss(X).  The key lists the nodes of x in preorder,
    each as its class followed by what alpha-equivalence keeps of it; an
    atom, bound or free, is just its level or itself."""
    return tuple(_key_tokens(x))


@dataclass
class _Unbind:
    """Leaving the scope of a binder: what its name was bound to outside."""
    env: dict
    name: object
    outer: Optional[int]


def _key_tokens(x):
    """alpha_key(x), token by token.  An explicit stack instead of
    recursion, so nesting costs no stack frames; dispatch on the exact
    class, which on this hot path is about twice as fast as a match."""
    atoms: dict = {}     # bound atom -> level of its binder
    unknowns: dict = {}  # bound unknown -> level of its binder
    level, stack = 0, [x]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Former or t is Pred:
            yield t
            yield x.name
            stack.append(x.arg)
        elif t is Tup:
            yield t
            yield len(x.items)
            stack.extend(reversed(x.items))
        elif t is AtomT:
            yield atoms.get(x.atom, x.atom)
        elif t is AbsT or t is All:
            name, env = (x.atom, atoms) if t is AbsT else (x.unknown, unknowns)
            yield t
            yield name.sort
            if t is All:
                yield name.pmss
            stack += _Unbind(env, name, env.get(name)), x.body
            env[name] = level
            level += 1
        elif t is _Unbind:
            if x.outer is None:
                del x.env[x.name]
            else:
                x.env[x.name] = x.outer
            level -= 1
        elif t is Sus:
            pi, pmss = x.perm, x.unknown.pmss
            moved = pi.nontriv
            images = {(q, atoms.get(pi(q), pi(q))) for q in moved if q in pmss}
            images.update((b, lv) for b, lv in atoms.items() if b not in moved and b in pmss)
            yield t
            yield unknowns.get(x.unknown, x.unknown)
            yield frozenset(images)
        elif t is Imp:
            yield t
            stack += x.right, x.left
        elif t is Bot:
            yield t
        else:
            raise TypeError(f"not PNL syntax: {type(x).__name__}")


_END = object()  # pads the shorter key when alpha_eq compares two


def alpha_eq(x, y) -> bool:
    """Whether alpha_key(x) == alpha_key(y), stopping at the first token
    that differs."""
    if x is y:
        return True
    for a, b in zip_longest(_key_tokens(x), _key_tokens(y), fillvalue=_END):
        if a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# level-2 substitution

class PnlSubst:
    """Finite map from unknowns to terms (identity elsewhere)."""

    __slots__ = ("_map",)

    def __init__(self, moves: Mapping[Unknown, PnlTerm]):
        self._map = {x: t for x, t in moves.items() if not alpha_eq(t, Sus.of(x))}

    def __call__(self, x: Unknown) -> PnlTerm:
        return self._map.get(x, Sus.of(x))

    @property
    def nontriv(self) -> frozenset:
        produced = frozenset().union(
            *(free_unknowns(t) for t in self._map.values())) if self._map else frozenset()
        return frozenset(self._map) | produced


def fresh_unknown_like(x: Unknown, avoid: Iterable[Unknown]) -> Unknown:
    taken = {u.index for u in avoid if u.sort == x.sort and u.pmss == x.pmss}
    i = 0
    while i in taken:
        i += 1
    return Unknown(x.sort, x.pmss, i)


def subst_apply(theta: PnlSubst, x):
    match x:
        case AtomT(_) | Bot():
            return x
        case Tup(items):
            return Tup(tuple(subst_apply(theta, r) for r in items))
        case Former(f, arg):
            return Former(f, subst_apply(theta, arg))
        case AbsT(a, body):
            return AbsT(a, subst_apply(theta, body))  # capturing, by design
        case Sus(pi, unk):
            return perm_act(pi, theta(unk))
        case Imp(a, b):
            return Imp(subst_apply(theta, a), subst_apply(theta, b))
        case Pred(p, arg):
            return Pred(p, subst_apply(theta, arg))
        case All(unk, body):
            if unk in theta.nontriv:
                fresh = fresh_unknown_like(unk, theta.nontriv | free_unknowns(body))
                body = perm2_act(Perm2.swap(fresh, unk), body)
                unk = fresh
            return All(unk, subst_apply(theta, body))
    raise TypeError(f"not PNL syntax: {type(x).__name__}")


def subst_one(x, unk: Unknown, t: PnlTerm):
    """x[unk := t]."""
    return subst_apply(PnlSubst({unk: t}), x)
