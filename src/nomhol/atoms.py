"""Atoms, finite and co-infinite atom sets, permutations and renamings.

An atom is the pair (name-sort, integer index), a tuple that compares,
hashes and orders as that pair; negative indices form the downward half of
the atom universe, non-negative indices the upward half.
A permission set (downward half ∪ plus) \\ minus is the co-infinite atom set
with excluded = minus and included = plus; `permission_set` builds one.
Each value prints as the reader writes it (see `frontend`); a finite atom
set, which no document writes, prints as {nu@0,nu@1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence


class Atom(NamedTuple):
    sort: str
    index: int

    def __repr__(self) -> str:
        return f"{self.sort}@{self.index}"


def _split_signs(atoms: Iterable[Atom]):
    neg, pos = set(), set()
    for a in atoms:
        (neg if a.index < 0 else pos).add(a)
    return frozenset(neg), frozenset(pos)


@dataclass(frozen=True, slots=True)
class CofinAtomSet:
    """A finite set of atoms, or a co-infinite one: (downward half \\ excluded) ∪ included.

    In the co-infinite form `excluded` holds only negative indices and
    `included` only non-negative ones, which makes the representation unique.
    The co-infinite sets are exactly the permission sets.
    """

    cofinite: bool
    excluded: frozenset
    included: frozenset

    @staticmethod
    def finite(atoms: Iterable[Atom] = ()) -> "CofinAtomSet":
        return CofinAtomSet(False, frozenset(), frozenset(atoms))

    @staticmethod
    def cofin(excluded: Iterable[Atom], included: Iterable[Atom]) -> "CofinAtomSet":
        exc = frozenset(excluded)
        neg_inc, pos_inc = _split_signs(included)
        # a negative atom both excluded and re-included is just a member
        exc = frozenset(a for a in exc if a not in neg_inc)
        if any(a.index >= 0 for a in exc):
            raise ValueError("excluded part must hold negative indices")
        return CofinAtomSet(True, exc, pos_inc)

    def __contains__(self, a: Atom) -> bool:
        if not self.cofinite:
            return a in self.included
        return a in self.included or (a.index < 0 and a not in self.excluded)

    @property
    def boundary(self) -> frozenset:
        return self.excluded | self.included

    def union(self, other: "CofinAtomSet") -> "CofinAtomSet":
        if not self.cofinite and not other.cofinite:
            return CofinAtomSet.finite(self.included | other.included)
        boundary = self.boundary | other.boundary
        exc = {a for a in boundary
               if a.index < 0 and a not in self and a not in other}
        inc = {a for a in boundary
               if a.index >= 0 and (a in self or a in other)}
        return CofinAtomSet.cofin(exc, inc)

    def minus_finite(self, atoms: Iterable[Atom]) -> "CofinAtomSet":
        removed = frozenset(atoms)
        if not self.cofinite:
            return CofinAtomSet.finite(self.included - removed)
        exc = self.excluded | {a for a in removed if a.index < 0}
        return CofinAtomSet.cofin(exc, self.included - removed)

    def __repr__(self) -> str:
        if not self.cofinite:
            return "{" + ",".join(map(repr, sorted(self.included))) + "}"
        e = ",".join(map(repr, sorted(self.excluded)))
        i = ",".join(map(repr, sorted(self.included)))
        return f"perm(+{{{i}}}-{{{e}}})"


def permission_set(plus: Iterable[Atom] = (), minus: Iterable[Atom] = ()) -> CofinAtomSet:
    """The permission set (downward half ∪ plus) \\ minus, with plus upward
    and minus downward."""
    plus, minus = frozenset(plus), frozenset(minus)
    if any(a.index < 0 for a in plus):
        raise ValueError("plus part must hold non-negative indices")
    if any(a.index >= 0 for a in minus):
        raise ValueError("minus part must hold negative indices")
    return CofinAtomSet(True, minus, plus)


def set_subset(s: CofinAtomSet, t: CofinAtomSet) -> bool:
    """Decide s ⊆ t on the denoted (possibly infinite) sets.

    Outside the finite boundary of the two representations, membership is
    determined by the co-finite tails alone, so checking every boundary atom
    is exact.
    """
    if not s.cofinite:
        return all(a in t for a in s.included)
    if not t.cofinite:
        return False
    boundary = s.boundary | t.boundary
    return all(a in t for a in boundary if a in s)


class _AtomMap:
    """Shared machinery for finitely-nontrivial atom maps."""

    __slots__ = ("_map",)

    def __init__(self, moves: Mapping[Atom, Atom]):
        cleaned = {a: b for a, b in moves.items() if a != b}
        for a, b in cleaned.items():
            if a.sort != b.sort:
                raise ValueError(f"sort-violating move of {a} to {b}")
        self._map = cleaned

    def __call__(self, a: Atom) -> Atom:
        return self._map.get(a, a)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._map == other._map

    def __hash__(self) -> int:
        return hash((type(self).__name__, frozenset(self._map.items())))

    @classmethod
    def identity(cls):
        return cls({})

    @property
    def is_identity(self) -> bool:
        return not self._map

    def compose(self, other):
        """self ∘ other: apply `other` first."""
        keys = frozenset(self._map) | frozenset(other._map)
        return type(self)({a: self(other(a)) for a in keys})

    def moves(self) -> dict:
        return dict(self._map)


class Perm(_AtomMap):
    """Finitely-nontrivial sort-preserving bijection on atoms."""

    def __init__(self, moves: Mapping[Atom, Atom]):
        super().__init__(moves)
        if len(set(self._map.values())) != len(self._map) or \
                set(self._map.values()) != set(self._map):
            raise ValueError("permutation must be a bijection on its nontrivial atoms")

    @staticmethod
    def swap(a: Atom, b: Atom) -> "Perm":
        return Perm({a: b, b: a})

    @staticmethod
    def from_cycles(cycles: Sequence[Sequence[Atom]]) -> "Perm":
        moves = {}
        for cyc in cycles:
            for i, a in enumerate(cyc):
                moves[a] = cyc[(i + 1) % len(cyc)]
        return Perm(moves)

    @property
    def nontriv(self) -> frozenset:
        return frozenset(self._map)

    def inverse(self) -> "Perm":
        return Perm({b: a for a, b in self._map.items()})

    def cycles(self) -> list:
        """Canonical cycle decomposition (each cycle led by its least atom)."""
        seen, out = set(), []
        for a in sorted(self._map):
            if a in seen:
                continue
            cyc, b = [], a
            while b not in seen:
                seen.add(b)
                cyc.append(b)
                b = self(b)
            out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        return "(" + "".join("(" + " ".join(map(repr, c)) + ")" for c in self.cycles()) + ")"


class Renaming(_AtomMap):
    """Finitely-nontrivial, possibly non-injective sort-preserving atom map."""

    @staticmethod
    def atomic(a: Atom, b: Atom) -> "Renaming":
        return Renaming({a: b})

    @property
    def dom(self) -> frozenset:
        return frozenset(self._map)

    @property
    def img(self) -> frozenset:
        return frozenset(self._map.values())

    @property
    def nontriv(self) -> frozenset:
        return self.dom | self.img

    def restrict(self, atoms: Iterable[Atom]) -> "Renaming":
        keep = set(atoms)
        return Renaming({a: b for a, b in self._map.items() if a in keep})

    def __repr__(self) -> str:
        items = ",".join(f"{a}:={b}" for a, b in sorted(self._map.items()))
        return f"[{items}]"


def perm_image_set(pi: Perm, s: CofinAtomSet) -> CofinAtomSet:
    """Pointwise image {π(a) | a ∈ s}."""
    if not s.cofinite:
        return CofinAtomSet.finite(pi(a) for a in s.included)
    inv = pi.inverse()
    boundary = s.boundary | pi.nontriv | frozenset(pi(a) for a in pi.nontriv)
    exc = {b for b in boundary if b.index < 0 and inv(b) not in s}
    inc = {b for b in boundary if b.index >= 0 and inv(b) in s}
    return CofinAtomSet.cofin(exc, inc)


def fresh_atoms(sorts: Sequence[str], avoid) -> list:
    """Deterministically allocate distinct atoms, one per requested sort.

    Each atom gets the least non-negative index of its sort not in `avoid`
    and not already handed out within the call.  `avoid` may be a
    CofinAtomSet or any iterable of atoms.
    """
    if not isinstance(avoid, CofinAtomSet):
        avoid = CofinAtomSet.finite(avoid)
    taken: set = set()
    out = []
    for sort in sorts:
        i = 0
        while Atom(sort, i) in avoid or Atom(sort, i) in taken:
            i += 1
        a = Atom(sort, i)
        taken.add(a)
        out.append(a)
    return out
