"""Executable desk-scale models.

Ground nominal terms serve as carriers (term-formers act syntactically, so
support and the permutation action are computable).  The free extension to
renaming sets is represented by suspended pairs (renaming, ground term), with
equivalence by canonical key (`ren_key`), and higher-order values are a small
tagged union in which every function value is one closure type, `FnV`: a host
callable with the finite support the function is equivariant outside of.

The module provides evaluators for both syntaxes and a checker for the
commuting square relating a nominal term/proposition's direct value to the
value of its translation under the lifted valuation.  Each evaluation call
compiles its input once into closures and then runs them for every
quantifier candidate: quantified unknowns become slots, lambda bodies read
their bound variables by position, and each (sort, window, depth) pool of
candidates, one term per alpha-class, is drawn once per call and replayed.
A bounded quantifier over an unknown tries one candidate of each orbit of
the permutations its body cannot see (`_View`).  Each clause table
(`PredSpec`) owns its matcher and its support, each worked out once, when
first asked.  A matcher tries the clauses in order and keeps nothing about
a candidate: it walks the candidate's free atoms whenever it tests a
permission set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Mapping, Optional, Union

from .atoms import Atom, CofinAtomSet, Perm, Renaming, fresh_atoms
from .capture import (CaptureContext, canonical_context, capture_check,
                      capture_infer)
from . import hol as H
from . import pnl as P
from .pnl import (AbsSort, AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                  NameSort, PnlSignature, Pred, Sus, TupleSort, Tup, Unknown,
                  alpha_eq, alpha_key, free_unknowns, perm_act, sort_of)
from .translate import TranslationEnv, translate


class SemanticsError(Exception):
    pass


class EnumerationError(SemanticsError):
    pass


class UnboundVariableError(SemanticsError):
    pass


# ---------------------------------------------------------------------------
# ground elements

def supp(x) -> frozenset:
    """Support of a ground element: its free atoms, a finite set.  Every
    term this module meets is ground; a suspension raises TypeError."""
    t = type(x)
    if t is AtomT:
        return frozenset((x.atom,))
    if t is Former:
        return supp(x.arg)
    if t is AbsT:
        got = supp(x.body)
        return got - {x.atom} if x.atom in got else got
    if t is Tup:
        out = frozenset()
        for r in x.items:
            out |= supp(r)
        return out
    raise TypeError(f"not a ground term: {type(x).__name__}")


def abstract_atoms(atoms, x):
    """[a1]...[ak]x."""
    for a in reversed(tuple(atoms)):
        x = AbsT(a, x)
    return x


# ---------------------------------------------------------------------------
# the free extension: suspended renamings over ground elements

@dataclass(frozen=True)
class RenElem:
    """A representative pair denoting the suspension rho applied to val."""

    rho: Renaming
    val: object  # ground PnlTerm


def canonicalize(e: RenElem) -> RenElem:
    """Shrink the suspended renaming by pushing injective parts into the
    term: a move a -> t with t fresh for the term and no competing source is
    realized by renaming a to t directly."""
    if e.rho.is_identity:
        return e
    val = e.val
    rho = e.rho.restrict(supp(val))
    changed = True
    while changed:
        changed = False
        moves = rho.moves()
        s = supp(val)
        sources: dict = {}
        for a, t in moves.items():
            sources.setdefault(t, []).append(a)
        for a in sorted(moves):
            t = moves[a]
            if t not in s and len(sources[t]) == 1:
                val = perm_act(Perm.swap(a, t), val)
                del moves[a]
                rho = Renaming(moves).restrict(supp(val))
                changed = True
                break
    return RenElem(rho, val)


def mk_ren(rho: Renaming, val) -> RenElem:
    return canonicalize(RenElem(rho, val))


def ren_key(e: RenElem) -> tuple:
    """Canonical form of the element that e denotes: two representative
    pairs denote the same element exactly when their keys are equal.

    Two pairs are equal when a sort-respecting bijection between the
    supports of their values carries one value to the other up to alpha and
    agrees with the renamings.  Every support atom occurs in the ground
    value, so such a bijection must match the free atoms in the order of
    their first occurrence.  The key is alpha_key(e.val) with each free atom
    written as (its sort, the index of its first occurrence), followed by
    its image under e.rho, in the same order."""
    first: dict = {}  # free atom -> (sort, index); no other shape token is a tuple
    shape = []
    for tok in alpha_key(e.val):
        if type(tok) is Atom:
            tok = first.setdefault(tok, (tok.sort, len(first)))
        shape.append(tok)
    return (*shape, *map(e.rho, first))


def ren_eq(e1: RenElem, e2: RenElem) -> bool:
    """Decide whether two representative pairs denote the same element of the
    free extension."""
    return ren_key(e1) == ren_key(e2)


# ---------------------------------------------------------------------------
# semantic values

@dataclass(frozen=True)
class BoolV:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("boolean value must be 0 or 1")


@dataclass(frozen=True)
class AtomV:
    atom: Atom


@dataclass(frozen=True)
class RenV:
    elem: RenElem


@dataclass(frozen=True)
class TupV:
    items: tuple


@dataclass(frozen=True, eq=False)
class FnV:
    """A function value: `apply` maps a value to a value, and the function
    commutes with every renaming that fixes `support`."""

    apply: Callable
    support: frozenset = frozenset()


SemVal = Union[BoolV, AtomV, RenV, TupV, FnV]


def supp_sem(v: SemVal) -> frozenset:
    match v:
        case BoolV(_):
            return frozenset()
        case AtomV(a):
            return frozenset([a])
        case RenV(e):
            return frozenset(e.rho(a) for a in supp(e.val))
        case TupV(items):
            return frozenset().union(*map(supp_sem, items)) if items else frozenset()
        case FnV():
            return v.support
    raise TypeError(f"not a semantic value: {v!r}")


def as_bool(v: SemVal) -> int:
    if isinstance(v, BoolV):
        return v.value
    raise SemanticsError(f"expected a boolean value, got {v!r}")


def as_atom(v: SemVal) -> Atom:
    match v:
        case AtomV(a):
            return a
        case RenV(RenElem(rho, AtomT(a))):
            return rho(a)
    raise SemanticsError(f"expected an atom value, got {v!r}")


def merge_ren_tuple(elems) -> RenElem:
    """Combine componentwise suspensions into one suspension over a tuple,
    choosing representatives whose renaming domains are pairwise disjoint and
    disjoint from the other components' supports."""
    elems = [canonicalize(e) for e in elems]
    if all(e.rho.is_identity for e in elems):  # no supports need walking
        return RenElem(Renaming({}), Tup(tuple(e.val for e in elems)))
    supports = [supp(e.val) for e in elems]
    avoid = set().union(*(s | e.rho.nontriv for s, e in zip(supports, elems))) \
        if elems else set()
    used: set = set()
    out_moves: dict = {}
    vals = []
    for i, e in enumerate(elems):
        others = set().union(*(s for j, s in enumerate(supports) if j != i)) \
            if len(elems) > 1 else set()
        conflicts = sorted(e.rho.dom & (used | others))
        if conflicts:  # the fresh atoms join e.rho.dom, hence `used`
            e = _relabel(e, conflicts, avoid | used)
        used |= e.rho.dom
        out_moves.update(e.rho.moves())
        vals.append(e.val)
    return RenElem(Renaming(out_moves), Tup(tuple(vals)))


def as_ren(v: SemVal) -> RenElem:
    match v:
        case RenV(e):
            return canonicalize(e)
        case AtomV(a):
            return RenElem(Renaming.identity(), AtomT(a))
        case TupV(items):
            return merge_ren_tuple([as_ren(r) for r in items])
    raise SemanticsError(f"value has no suspension form: {v!r}")


def _relabel(e: RenElem, moved, avoid, sets=()) -> RenElem:
    """An equivalent representative in which the renaming-domain atoms
    `moved` are swapped with distinct fresh atoms outside `avoid`, which
    must contain the support of e.val and e.rho.nontriv.  Each is the first,
    in the order 0, 1, ..., -1, -2, ..., that lies in exactly the same
    permission sets of `sets` as the atom it replaces, or the least
    non-negative one where no fresh atom does."""
    taken = set(avoid)
    far = len(moved) + 1 + max(
        (abs(b.index) for b in taken.union(*(s.boundary for s in sets))), default=0)
    fresh = []
    for a in moved:   # past index far - 1, every fresh atom is in all sets or none
        free = [c for i in (*range(far), *range(-1, -far, -1))
                if (c := Atom(a.sort, i)) not in taken]
        c = next((c for c in free if all((c in s) == (a in s) for s in sets)), free[0])
        taken.add(c)
        fresh.append(c)
    pi = Perm({**dict(zip(moved, fresh)), **dict(zip(fresh, moved))})
    rho = Renaming({pi(a): t for a, t in e.rho.moves().items()})
    return RenElem(rho, perm_act(pi, e.val))


def _strip_for(e: RenElem, away: frozenset, sets=()) -> RenElem:
    """An equivalent representative whose renaming domain avoids `away`: each
    domain atom in `away` gives way to one in the same permission sets of
    `sets`, so a table that tells atoms apart by `away` and `sets` reads the
    same value whatever else `away` holds."""
    e = canonicalize(e)
    bad = sorted(e.rho.dom & away)
    if not bad:
        return e
    return _relabel(e, bad, supp(e.val) | e.rho.nontriv | away, sets)


def fn_apply(f: SemVal, a: SemVal) -> SemVal:
    match f:
        case RenV(RenElem(rho, AbsT(bound, body))):
            b = as_atom(a)
            if bound in rho.nontriv:
                avoid = supp(body) | rho.nontriv | {b, bound}
                c = fresh_atoms([bound.sort], avoid)[0]
                body = perm_act(Perm.swap(c, bound), body)
                bound = c
            return RenV(mk_ren(Renaming.atomic(bound, b).compose(rho), body))
        case RenV(_):
            raise SemanticsError(f"applying a non-abstraction element: {f!r}")
        case FnV():
            return f.apply(a)
    raise SemanticsError(f"not a function value: {f!r}")


# ---------------------------------------------------------------------------
# predicate specifications and models

def _pattern_test(p, slots: list, index: dict) -> Callable:
    """The pattern p compiled into a test term -> bool, for first-order
    matching up to alpha.  The first occurrence of a pattern variable in
    preorder stores its binding in `slots` at the position `index` gives it;
    a later occurrence compares with that binding."""
    t = type(p)
    if t is Sus:
        u, inv = p.unknown, p.perm.inverse()
        moved = not inv.is_identity
        if u in index:
            k = index[u]
            if moved:
                return lambda x: alpha_eq(slots[k], perm_act(inv, x))
            return lambda x: alpha_eq(slots[k], x)
        k = index[u] = len(slots)
        slots.append(None)
        pmss = u.pmss

        def bind(x) -> bool:
            if moved:
                x = perm_act(inv, x)
            if not all(a in pmss for a in supp(x)):
                return False
            slots[k] = x
            return True
        return bind
    if t is AtomT:
        a = p.atom
        return lambda x: type(x) is AtomT and x.atom == a
    if t is Former:
        f, arg = p.name, _pattern_test(p.arg, slots, index)
        return lambda x: type(x) is Former and x.name == f and arg(x.arg)
    if t is Tup:
        items = tuple(_pattern_test(q, slots, index) for q in p.items)
        n = len(items)

        def tup(x) -> bool:
            if type(x) is not Tup or len(x.items) != n:
                return False
            for test, y in zip(items, x.items):
                if not test(y):
                    return False
            return True
        return tup
    if t is AbsT:
        a, body = p.atom, _pattern_test(p.body, slots, index)

        def abst(x) -> bool:
            if type(x) is not AbsT:
                return False
            b = x.atom
            if a == b:
                return body(x.body)
            if a.sort != b.sort or a in supp(x.body):
                return False
            return body(perm_act(Perm.swap(a, b), x.body))
        return abst
    return lambda x: False


@dataclass(frozen=True)
class PredSpec:
    """An ordered pattern table for one proposition-former; it owns its
    matcher and what it can tell atoms apart by."""

    clauses: tuple  # of (pattern, 0|1)
    default: int
    extra_support: frozenset = frozenset()

    def __post_init__(self):
        if self.default not in (0, 1):
            raise ValueError("default must be 0 or 1")
        for _, v in self.clauses:
            if v not in (0, 1):
                raise ValueError("clause value must be 0 or 1")

    @cached_property
    def matcher(self) -> Callable:
        """The table compiled, when first asked: matcher(term) is the value
        of the first clause whose pattern matches, else the default.  Its
        pattern variables bind slots every call shares: one thread at once."""
        clauses = [(_pattern_test(p, [], {}), v) for p, v in self.clauses]
        default = self.default

        def apply(x) -> int:
            for test, v in clauses:
                if test(x):
                    return v
            return default
        return apply

    @cached_property
    def tells_apart(self) -> tuple:
        """(atoms, sets), worked out when first asked: every atom the
        patterns write, binders and suspension permutations included, with
        `extra_support`, and the pattern unknowns' permission sets."""
        atoms, _, suspended = _written(p for p, _ in self.clauses)
        return (frozenset(atoms).union(self.extra_support),
                frozenset(x.pmss for x in suspended))

    def declared_support(self) -> frozenset:
        """A support: a permutation that fixes these atoms and maps each
        pattern unknown's permission set onto itself keeps every value."""
        return self.tells_apart[0]


@dataclass(frozen=True)
class HerbrandModel:
    sig: PnlSignature
    preds: Mapping[str, PredSpec]

    def __post_init__(self):
        for name, spec in self.preds.items():
            if name not in self.sig.prop_formers:
                raise SemanticsError(f"undeclared proposition-former {name}")
            want = self.sig.prop_formers[name]
            for pattern, _ in spec.clauses:
                got = sort_of(self.sig, pattern)
                if got != want:
                    raise SemanticsError(
                        f"{name}: clause pattern has sort {got!r}, expected {want!r}")

    def spec(self, name: str) -> PredSpec:
        if name not in self.preds:
            raise SemanticsError(f"no interpretation for proposition-former {name}")
        return self.preds[name]


# ---------------------------------------------------------------------------
# canonical ground elements and valuations

def _base_ranks(sig: PnlSignature) -> dict:
    """Least former-nesting depth of a ground term for each base sort."""
    rank: dict = {}
    changed = True
    while changed:
        changed = False
        for f, (arg, res) in sig.term_formers.items():
            r = 1 + _sort_rank(rank, arg)
            if r < rank.get(res, float("inf")):
                rank[res] = r
                changed = True
    return rank


def canonical_ground(sig: PnlSignature, sort, pmss: CofinAtomSet):
    """A deterministic ground term of the sort whose free atoms lie in the
    permission set."""
    ranks = _base_ranks(sig)

    def go(s):
        match s:
            case NameSort(n):
                i = -1
                while Atom(n, i) not in pmss:
                    i -= 1
                return AtomT(Atom(n, i))
            case BaseSort(b):
                if b not in ranks:
                    raise SemanticsError(f"base sort {b} has no ground terms")
                best = min((f for f, (_, res) in sig.term_formers.items() if res == b),
                           key=lambda f: (_sort_rank(ranks, sig.term_formers[f][0]), f))
                return Former(best, go(sig.term_formers[best][0]))
            case TupleSort(items):
                return Tup(tuple(go(r) for r in items))
            case AbsSort(n, body):
                return AbsT(Atom(n, -1), go(body))
        raise TypeError(f"not a sort: {s!r}")

    return go(sort)


def _sort_rank(ranks, s):
    match s:
        case NameSort(_):
            return 0
        case BaseSort(b):
            return ranks.get(b, float("inf"))
        case TupleSort(items):
            return max((_sort_rank(ranks, r) for r in items), default=0)
        case AbsSort(_, body):
            return _sort_rank(ranks, body)
    raise TypeError(f"not a sort: {s!r}")


class Valuation:
    """Finite assignment of ground terms to unknowns; unknowns outside the
    map receive a canonical ground element built inside their permission set."""

    def __init__(self, assignments: Optional[Mapping[Unknown, object]] = None):
        self.assignments = dict(assignments or {})

    def get(self, sig: PnlSignature, x: Unknown):
        if x in self.assignments:
            return self.assignments[x]
        return canonical_ground(sig, x.sort, x.pmss)


# ---------------------------------------------------------------------------
# quantifier candidates

WINDOW_DOWN = 2  # downward atoms of each name sort in a pmss_window


def pmss_window(pmss: CofinAtomSet, name_sorts):
    """A finite, deterministic atom window inside a permission set: its
    upward atoms and its WINDOW_DOWN greatest downward ones, per name sort."""
    out = []
    for ns in sorted(name_sorts):
        out.extend(sorted(a for a in pmss.included if a.sort == ns))
        i, got = -1, 0
        while got < WINDOW_DOWN:
            a = Atom(ns, i)
            if a in pmss:
                out.append(a)
                got += 1
            i -= 1
    return out


def default_window(sig: PnlSignature):
    return [Atom(n, i) for n in sorted(sig.name_sorts) for i in range(-2, 3)]


POOL_LIMIT = 4096  # terms a _Pool records; past them each walk generates anew


def _tuples(pools):
    """The tuples over the pools, first slot outermost."""
    if len(pools) > 1:
        for t in pools[0]:
            for rest in _tuples(pools[1:]):
                yield (t, *rest)
    elif pools:
        for t in pools[0]:
            yield (t,)
    else:
        yield ()


def enumerate_ground(sig: PnlSignature, sort, atoms, depth: int):
    """One ground term per alpha-class of the sort over the atom window, with
    former nesting bounded by depth (abstraction binders may use one extra
    fresh atom), generated one at a time in a fixed order.  A tuple's later
    slots, walked once per term of the slots before them, are recorded as
    `_Pool`s.

    Formers and tuples of representatives are representatives.  For a
    window atom a, the window terms alpha-equal to [a]t are the [b](a b).t
    with b = a or b a window atom not free in t, and which of them to keep
    depends only on the free atoms of t, so no term is keyed.  Each body t
    yields [f]t for the fresh atom f, which stands for every binder not
    free in t, and [a]t for each window atom a free in t that no window
    atom before it is missing from.  Dropping the other members is sound
    in any model, equivariant or not: the matchers compare up to alpha
    (`_pattern_test`), so alpha-equal candidates get one value.  `_Pools`
    draws every quantifier's pool from here, and may keep one term of each
    orbit of it (`_canonical`)."""
    return _ground(sig, list(atoms), sort, depth)


def _ground(sig: PnlSignature, atoms: list, s, d: int):
    """`enumerate_ground`'s generator, at module level: a recursive closure
    would leave a function-cell cycle for the collector on every call."""
    match s:
        case NameSort(n):
            yield from (AtomT(a) for a in atoms if a.sort == n)
        case BaseSort(b):
            if d > 0:
                for f in sorted(sig.term_formers):
                    arg, res = sig.term_formers[f]
                    if res == b:
                        for t in _ground(sig, atoms, arg, d - 1):
                            yield Former(f, t)
        case TupleSort(items):
            pools = [_ground(sig, atoms, r, d) for r in items[:1]]
            pools += [_Pool(lambda r=r: _ground(sig, atoms, r, d)) for r in items[1:]]
            yield from map(Tup, _tuples(pools))
        case AbsSort(n, body):
            binders = [a for a in atoms if a.sort == n]
            fresh, = fresh_atoms([n], binders)
            for t in _ground(sig, atoms, body, d):
                yield AbsT(fresh, t)
                free = supp(t)
                for a in binders:
                    if a not in free:
                        break
                    yield AbsT(a, t)
        case _:
            raise TypeError(f"not a sort: {s!r}")


_DONE = object()  # the end of a generator, for next()


class _Pool:
    """The terms that make() generates, drawn when a walk first needs them
    and recorded for the walks after it.  When make() is `enumerate_ground`,
    they are one term per alpha-class.  Walks may be nested; each reads the
    recorded prefix and draws past it.  Past POOL_LIMIT terms nothing more
    is recorded: the first walk to get there goes on drawing, any other
    generates the rest anew."""

    __slots__ = ("make", "items", "source", "done")

    def __init__(self, make: Callable):
        self.make = make
        self.items: list = []
        self.source = iter(make())
        self.done = False  # the recorded items are the whole pool

    def __iter__(self):
        return iter(self.items) if self.done else self._walk()

    def _walk(self):
        items, i = self.items, 0
        while True:
            if i < len(items):
                yield items[i]
            elif self.done:
                return
            elif i < POOL_LIMIT:
                t = next(self.source, _DONE)
                if t is _DONE:
                    self.done = True
                    return
                items.append(t)
                yield t
            else:
                rest, self.source = self.source, None
                yield from islice(self.make(), POOL_LIMIT, None) if rest is None else rest
                return
            i += 1


class _Pools:
    """The candidate pools of one evaluation, one per (sort, window, depth),
    each holding one term per alpha-class (`enumerate_ground`).  A
    quantifier that tries one member of a class has tried them all, in any
    model: the matchers compare candidates up to alpha, so alpha-equal
    candidates get one value, and no equivariance is assumed.  A quantifier
    that passes the classes of the window atoms its body cannot tell apart
    (`_View`) tries one candidate of each orbit, from a list recorded per
    pool and per classes.  `exact` drops to False once a quantifier is
    evaluated by bounded enumeration.  Nothing here refers back to the
    evaluation's closures, so the pools are freed as soon as the evaluation
    is."""

    def __init__(self, sig: PnlSignature, depth: int):
        self.sig, self.depth = sig, depth
        self.table: dict = {}
        self.exact = True

    def forall(self, sort, window: tuple, holds: Callable,
               classes: Optional[Callable] = None) -> int:
        """1 if holds(t) is 1 for every candidate t of the sort over the
        window, else 0; stops at the first counterexample.  With `classes`,
        which gives the classes of the window's atoms (`_classes`), the
        candidates are one term of each orbit (`_canonical`), the pool's
        first term among them, so classes() is called only once it holds."""
        self.exact = False
        if self.depth <= 0:
            raise EnumerationError("a quantifier requires a positive depth bound")
        key = (sort, window, self.depth)
        pool = self.table.get(key)
        if pool is None:
            sig = self.sig
            pool = self.table[key] = _Pool(lambda: enumerate_ground(sig, *key))
        if classes is None:
            return int(all(map(holds, pool)))
        walk = iter(pool)
        t = next(walk, _DONE)
        if t is _DONE or not holds(t):
            return int(t is _DONE)
        got = classes()
        if got is not None:
            orbits = self.table.get((key, got))
            if orbits is None:
                orbits = self.table[key, got] = _Pool(
                    lambda: _canonical(pool, window, got))
            walk = iter(orbits)
            if next(walk, None) is not t:   # the pool's first term is kept, first
                walk = iter(orbits)
        return int(all(map(holds, walk)))


def _canonical(pool, window: tuple, classes: tuple):
    """One term of each orbit of the pool under the permutations that move
    window atoms only within their classes: the terms in which each class's
    atoms first occur free in the class's window order.  A permutation that
    relabels a term's class atoms so, in the order they first occur, carries
    it into its orbit's one such term, since the order in which a term's
    free atoms first occur is the same for every term alpha-equal to it; and
    one that carries such a term to another fixes their free atoms.  So each
    orbit keeps exactly its terms alpha-equal to that one, which is one term
    of a pool with one term per alpha-class.  Nothing is keyed or kept: a
    term is tested by one walk, which stops at the first atom out of order."""
    rank: dict = {}   # class atom -> (its class, its place among the class's atoms)
    size = [0] * (1 + max(c for c in classes if c is not None))
    for a, c in zip(window, classes):
        if c is not None:
            rank[a] = c, size[c]
            size[c] += 1
    for t in pool:
        if _in_class_order(t, rank, len(size)):
            yield t


def _in_class_order(t, rank: dict, n: int) -> bool:
    """Whether the atoms of `rank` first occur free in t in their places'
    order within each of the n classes.  An explicit stack, so nesting costs
    no stack frames."""
    nxt = [0] * n      # class -> the place of the next of its atoms to occur
    state = dict(rank)   # class atom -> its rank until it occurs free, 0 after or while bound
    stack = [t]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is AtomT:
            st = state.get(x.atom)
            if st:
                c, place = st
                if place != nxt[c]:
                    return False
                nxt[c] = place + 1
                state[x.atom] = 0
        elif tx is Former:
            stack.append(x.arg)
        elif tx is Tup:
            stack.extend(reversed(x.items))
        elif tx is AbsT:
            a = x.atom
            st = state.get(a)
            if st is not None:
                stack.append((a, st))   # at the end of a's scope: its state outside
                state[a] = 0
            stack.append(x.body)
        else:
            state[x[0]] = x[1]
    return True


# ---------------------------------------------------------------------------
# what an evaluation can tell apart

def _written(xs) -> tuple:
    """(atoms, quantified, suspended) of the nominal syntax in xs: every
    atom written, free, bound or in a suspension's permutation; the unknowns
    its ∀s bind; the unknowns it suspends."""
    atoms: set = set()
    quantified: set = set()
    suspended: set = set()
    stack = list(xs)
    while stack:
        x = stack.pop()
        t = type(x)
        if t is AtomT:
            atoms.add(x.atom)
        elif t is Former or t is Pred:
            stack.append(x.arg)
        elif t is Tup:
            stack.extend(x.items)
        elif t is AbsT:
            atoms.add(x.atom)
            stack.append(x.body)
        elif t is Sus:
            atoms.update(x.perm.nontriv)
            suspended.add(x.unknown)
        elif t is Imp:
            stack += x.left, x.right
        elif t is All:
            quantified.add(x.unknown)
            stack.append(x.body)
    return atoms, quantified, suspended


class _View:
    """What the quantifier candidates of one evaluation can be told apart
    by.  Evaluation is equivariant: its value does not change under a
    permutation that fixes every atom it can see and maps every window and
    permission set in play onto itself, so candidates in one orbit of such
    permutations agree.  The atoms it can see are `fixed`: those written in
    the input and in the valuation's values, and each clause table's
    support; at run time, also the supports of the values already placed
    around a quantifier.  In play are the quantified unknowns' windows and
    permission sets, the pattern unknowns' permission sets, and the extra
    windows the input names.  A table's part is its `PredSpec.tells_apart`,
    worked out once per table.  `see()` gives (atoms, quantified unknowns,
    extra windows) of the input and valuation; it is called when a
    quantifier first needs its labels."""

    def __init__(self, model: HerbrandModel, see: Callable):
        self.model, self.see = model, see
        self.known: dict = {}   # window -> its labels

    def labels(self, window: tuple) -> tuple:
        """Each window atom's class label, None for a fixed atom: two atoms
        that are not fixed are interchangeable when their labels are equal,
        that is, they have one sort and lie in the same windows and
        permission sets in play."""
        got = self.known.get(window)
        if got is None:
            if not self.known:
                self._look()
            got = self.known[window] = tuple(
                None if a in self.fixed else
                (a.sort, *(a in w for w in self.windows), *(a in p for p in self.sets))
                for a in window)
        return got

    def _look(self):
        atoms, quantified, windows = self.see()
        tables = [spec.tells_apart for spec in self.model.preds.values()]
        names = self.model.sig.name_sorts
        self.fixed = frozenset(atoms).union(*(seen for seen, _ in tables))
        self.windows = tuple({frozenset(w) for w in windows} | {
            frozenset(pmss_window(x.pmss, names)) for x in quantified})
        self.sets = tuple({x.pmss for x in quantified}.union(*(s for _, s in tables)))


def _classes(window: tuple, labels: tuple, seen) -> Optional[tuple]:
    """The classes of interchangeable window atoms once the atoms `seen` are
    fixed too: each atom's class, numbered by first occurrence, or None
    where it is fixed; None when no class has two atoms, so that no
    permutation merges two candidates."""
    ids: dict = {}
    out = tuple(None if label is None or a in seen else ids.setdefault(label, len(ids))
                for a, label in zip(window, labels))
    return out if len(ids) < len(out) - out.count(None) else None


# ---------------------------------------------------------------------------
# the nominal evaluator

def _raiser(e: Exception) -> Callable:
    """A compiled piece that fails as evaluating the source piece would, so
    that errors surface when and in the order the evaluation reaches them."""
    def fail(*_):
        raise e
    return fail


class _PnlCompiler:
    """Compiles a nominal term or proposition once for one evaluation.  Each
    ∀ owns a slot that it fills with one candidate after another; a
    suspension of a quantified unknown reads its slot; every subterm without
    one is built once, at compile time; a proposition-former runs the
    matcher its `PredSpec` owns."""

    def __init__(self, model: HerbrandModel, val: Valuation,
                 pools: Optional[_Pools]):
        self.model, self.val, self.pools = model, val, pools
        self.slots: list = []
        self.values: dict = {}  # unknown -> its value under val
        self.view: Optional[_View] = None

    def value(self, phi) -> int:
        """phi's value, 0 or 1: phi compiled once, under the view of its
        quantifiers, then run."""
        self.view = _View(self.model, lambda: self._see(phi))
        return self.prop(phi, {})()

    def _see(self, phi) -> tuple:
        """What `_View` fixes and puts in play for phi: the atoms of phi and
        of its free unknowns' values, and its quantified unknowns."""
        atoms, quantified, _ = _written((phi,))
        for x in free_unknowns(phi):
            try:
                value = self.values[x] = self.val.get(self.model.sig, x)
            except SemanticsError:
                continue  # raised where the evaluation reaches it
            atoms |= _written((value,))[0]
        return atoms, quantified, ()

    def term(self, r, env: dict) -> tuple:
        """(t, None) when r's value t is the same for every candidate, else
        (None, build) where build() makes the value from the slots."""
        t = type(r)
        if t is AtomT:
            return r, None
        if t is Sus:
            pi, x = r.perm, r.unknown
            k = env.get(x)
            if k is None:
                try:
                    value = self.values.get(x)
                    if value is None:
                        value = self.values[x] = self.val.get(self.model.sig, x)
                except SemanticsError as e:
                    return None, _raiser(e)
                return perm_act(pi, value), None
            slots = self.slots
            if pi.is_identity:
                return None, lambda: slots[k]
            return None, lambda: perm_act(pi, slots[k])
        if t is Former or t is AbsT:
            head = r.name if t is Former else r.atom
            arg, build = self.term(r.arg if t is Former else r.body, env)
            if build is None:
                return t(head, arg), None
            return None, lambda: t(head, build())
        if t is Tup:
            parts = [self.term(q, env) for q in r.items]
            if all(build is None for _, build in parts):
                return Tup(tuple(c for c, _ in parts)), None
            builds = [(lambda c=c: c) if build is None else build
                      for c, build in parts]
            return None, lambda: Tup(tuple([build() for build in builds]))
        return None, _raiser(TypeError(f"not a term: {r!r}"))

    def prop(self, phi, env: dict) -> Callable:
        """phi compiled into a closure that returns its value, 0 or 1."""
        t = type(phi)
        if t is Bot:
            return lambda: 0
        if t is Imp:
            left, right = self.prop(phi.left, env), self.prop(phi.right, env)

            def imp() -> int:
                vp = left()
                return max(1 - vp, right())
            return imp
        if t is Pred:
            try:
                apply = self.model.spec(phi.name).matcher
            except SemanticsError as e:
                return _raiser(e)
            arg, build = self.term(phi.arg, env)
            if build is None:
                value = apply(arg)
                return lambda: value
            return lambda: apply(build())
        if t is All:
            x, slots = phi.unknown, self.slots
            k = len(slots)
            slots.append(None)
            outer = tuple(env.values())  # the slots of the enclosing ∀s
            body = self.prop(phi.body, {**env, x: k})
            sort = x.sort
            window = tuple(pmss_window(x.pmss, self.model.sig.name_sorts))
            view, forall = self.view, self.pools.forall

            def holds(cand) -> int:
                slots[k] = cand
                return body()

            def classes() -> Optional[tuple]:
                seen = frozenset().union(*(supp(slots[j]) for j in outer))
                return _classes(window, view.labels(window), seen)
            return lambda: forall(sort, window, holds, classes)
        return _raiser(TypeError(f"not a proposition: {phi!r}"))


def eval_pnl_term(model: HerbrandModel, val: Valuation, r):
    value, build = _PnlCompiler(model, val, None).term(r, {})
    return value if build is None else build()


def eval_pnl_prop(model: HerbrandModel, val: Valuation, phi, depth: int = 0):
    """Returns (value, exact); exact is True iff phi is quantifier-free.
    phi is compiled once, then run; its quantifiers draw their candidates
    from pools that belong to this call."""
    pools = _Pools(model.sig, depth)
    return _PnlCompiler(model, val, pools).value(phi), pools.exact


# ---------------------------------------------------------------------------
# higher-order valuations

def lift_valuation(val: Valuation, sig: PnlSignature) -> Callable:
    """The valuation induced by a nominal valuation at a translation context:
    each context-indexed unknown-variable receives the identity suspension of
    its value abstracted over its own context, and each atom-variable
    receives that atom.  A higher-order valuation is a function from a
    variable to its value, or None where the variable is unbound."""

    def base(v):
        match v:
            case H.AtomVar(a):
                return AtomV(a)
            case H.UnkVar(x, d):
                body = abstract_atoms(d, val.get(sig, x))
                return RenV(RenElem(Renaming.identity(), body))
        return None

    return base


# ---------------------------------------------------------------------------
# the higher-order evaluator

class HolEvaluator:
    """Evaluates higher-order terms over a Herbrand model.  A term is
    compiled once into a closure over valuations: each constant's value is
    built once per evaluator, the type tests of tuples and lambdas are made
    once per node, and quantifiers draw their candidates from pools that
    belong to this evaluator.  The `exact` flag drops to False whenever a
    quantifier is evaluated by bounded enumeration."""

    def __init__(self, model: HerbrandModel, depth: int = 0):
        self.model = model
        self._pools = _Pools(model.sig, depth)
        self._consts: dict = {}  # Const -> its value
        self._view: Optional[_View] = None   # the view of the term being compiled

    @property
    def exact(self) -> bool:
        return self._pools.exact

    # -- helpers ------------------------------------------------------------

    def _lookup(self, env: Callable, v) -> SemVal:
        got = env(v)
        if got is not None:
            return got
        if isinstance(v, H.AtomVar):
            return AtomV(v.atom)
        raise UnboundVariableError(f"unbound variable {v!r}")

    def _const_value(self, c: H.Const) -> SemVal:
        got = self._consts.get(c)
        if got is None:
            got = self._consts[c] = self._make_const(c)
        return got

    def _make_const(self, c: H.Const) -> SemVal:
        if c.name == "bot":
            return _BOOLS[0]
        if c.name == "imp":
            return FnV(_imp)
        if c.name == "forall":
            match c.type:
                case H.ArrowT(H.ArrowT(domain, _), _):
                    return _forall_generic(self.model.sig, self._pools, domain)
            raise SemanticsError(f"malformed quantifier constant {c!r}")
        if c.name.startswith("g_"):
            base = c.name[2:]
            if base in self.model.sig.term_formers:
                def former(a: SemVal) -> SemVal:
                    e = as_ren(a)
                    return RenV(RenElem(e.rho, Former(base, e.val)))
                return FnV(former)
            if base in self.model.sig.prop_formers:
                spec = self.model.spec(base)
                support, sets = spec.declared_support(), spec.tells_apart[1]
                apply = spec.matcher

                def pred(a: SemVal) -> SemVal:
                    return _BOOLS[apply(_strip_for(as_ren(a), support, sets).val)]
                return FnV(pred, support)
        raise SemanticsError(f"uninterpreted constant {c.name}")

    def _all_image(self, items) -> bool:
        return all(H.type_to_sort(self.model.sig, r.type) is not None for r in items)

    # -- the compiler ---------------------------------------------------------
    #
    # A compiled term is a closure run(env, locs): env is the valuation of the
    # variables free in the compiled term, and locs holds the values of the
    # variables bound around the node, outermost first, so that a bound
    # variable is read by its position, found once at compile time.

    def eval(self, t, env: Callable) -> SemVal:
        self._view = _View(self.model, lambda: self._see(t, env))
        return self._compile(t, ())(env, ())

    def _see(self, t, env: Callable) -> tuple:
        """What `_View` fixes and puts in play for t under env: the atoms
        written in t and in the values env gives t's free variables, t's
        quantified unknowns, and the window of the quantifier constant."""
        atoms, quantified, stack = set(), set(), [t]
        while stack:
            u = stack.pop()
            tu = type(u)
            if tu is H.Var or tu is H.Lam:
                v = u.var
                tv = type(v)
                if tv is H.AtomVar:
                    atoms.add(v.atom)
                elif tv is H.UnkVar:
                    atoms.update(v.ctx)
                    if tu is H.Lam:
                        quantified.add(v.unknown)
                if tu is H.Lam:
                    stack.append(u.body)
            elif tu is H.App:
                stack += u.fn, u.arg
            elif tu is H.HTup:
                stack.extend(u.items)
        for v in H.fv(t):
            try:
                value = env(v)
            except SemanticsError:
                continue  # raised where the evaluation reaches it
            atoms |= _value_atoms(value)
        return atoms, quantified, [default_window(self.model.sig)]

    def _reader(self, v, scope: tuple) -> Callable:
        """Reads variable v at a node inside the binders `scope`."""
        for i in range(len(scope) - 1, -1, -1):
            if scope[i] == v:
                return lambda env, locs: locs[i]
        lookup = self._lookup
        return lambda env, locs: lookup(env, v)

    def _compile(self, t, scope: tuple) -> Callable:
        """t compiled into a closure run(env, locs) that returns t's value."""
        tt = type(t)
        if tt is H.Var:
            return self._reader(t.var, scope)
        if tt is H.Const:
            try:
                value = self._const_value(t)
            except SemanticsError as e:
                return _raiser(e)
            return lambda env, locs: value
        if tt is H.App:
            fn, arg = t.fn, t.arg
            if type(fn) is H.Const and fn.name == "forall" and \
                    type(arg) is H.Lam and isinstance(arg.var, H.UnkVar):
                return self._forall_unknown(arg.var, arg.body, scope)
            f, a = self._compile(fn, scope), self._compile(arg, scope)
            return lambda env, locs: fn_apply(f(env, locs), a(env, locs))
        if tt is H.Lam:
            return self._lam(t, scope)
        if tt is H.HTup:
            items = [self._compile(r, scope) for r in t.items]
            image = self._all_image(t.items)

            def tup(env, locs) -> SemVal:
                vals = [item(env, locs) for item in items]
                if image:
                    try:
                        return RenV(merge_ren_tuple([as_ren(v) for v in vals]))
                    except SemanticsError:
                        pass
                return TupV(tuple(vals))
            return tup
        return _raiser(TypeError(f"not a term: {t!r}"))

    def _forall_unknown(self, v, body, scope: tuple) -> Callable:
        """Quantification over a context-indexed unknown-variable ranges over
        identity suspensions of context-abstracted ground terms whose free
        atoms are permitted for the unknown."""
        x, ctx = v.unknown, v.ctx
        window = tuple(pmss_window(x.pmss, self.model.sig.name_sorts))
        view, forall = self._view, self._pools.forall
        run = self._compile(body, scope + (v,))

        def quantified(env, locs) -> SemVal:
            def holds(t) -> int:
                cand = RenV(RenElem(_ID, abstract_atoms(ctx, t)))
                return as_bool(run(env, (*locs, cand)))

            def classes() -> Optional[tuple]:
                seen = frozenset().union(*map(supp_sem, locs))
                return _classes(window, view.labels(window), seen)
            return _BOOLS[forall(x.sort, window, holds, classes)]
        return quantified

    def _lam(self, t, scope: tuple) -> Callable:
        v, body = t.var, t.body
        image = isinstance(H.type_to_sort(self.model.sig, t.type), AbsSort)
        free = H.fv(body)
        others = [self._reader(w, scope) for w in free - {v}]
        run = self._compile(body, scope + (v,))

        def support_of(env, locs) -> frozenset:
            out = frozenset()
            for read in others:
                out |= supp_sem(read(env, locs))
            return out

        if image and isinstance(v, H.AtomVar):
            a = v.atom
            named = {w.atom for w in free if isinstance(w, H.AtomVar)}

            def abstraction(env, locs) -> SemVal:
                # the body reads v by position, so a fresh atom may stand in
                # for a when a is in the support of another variable's value;
                # it avoids the atoms the body names, as substituting it would
                taken = support_of(env, locs)
                b = fresh_atoms([a.sort], taken | named)[0] if a in taken else a
                e = as_ren(run(env, (*locs, AtomV(b))))
                rho = e.rho.restrict(supp(e.val) - {b})
                return RenV(RenElem(rho, AbsT(b, e.val)))
            return abstraction

        def closure(env, locs) -> SemVal:
            return FnV(lambda x: run(env, (*locs, x)), support_of(env, locs))
        return closure


_ID = Renaming.identity()
_BOOLS = (BoolV(0), BoolV(1))


def _value_atoms(v) -> set:
    """Every atom a value's representative is written with."""
    t = type(v)
    if t is AtomV:
        return {v.atom}
    if t is RenV:
        return _written((v.elem.val,))[0] | v.elem.rho.nontriv
    if t is TupV:
        return set().union(*map(_value_atoms, v.items))
    if t is FnV:
        return set(v.support)
    return set()


def _forall_generic(sig: PnlSignature, pools: _Pools, domain) -> FnV:
    """The quantifier constant over a domain type: over o it tries both
    truth values, over an image type it draws candidates from the pools."""
    if domain == H.O:
        return FnV(lambda g: _BOOLS[int(all(as_bool(fn_apply(g, b)) for b in _BOOLS))])
    sort = H.type_to_sort(sig, domain)
    window = tuple(default_window(sig))

    def forall(g: SemVal) -> SemVal:
        if sort is None:
            raise EnumerationError(
                f"quantifier domain {domain!r} is not enumerable")
        return _BOOLS[pools.forall(
            sort, window, lambda t: as_bool(fn_apply(g, RenV(RenElem(_ID, t)))))]
    return FnV(forall)


def _imp(x: SemVal) -> SemVal:
    """The curried implication constant."""
    bx = as_bool(x)
    return FnV(lambda y: _BOOLS[max(1 - bx, as_bool(y))])


# ---------------------------------------------------------------------------
# the commuting square

@dataclass(frozen=True)
class SquareVerdict:
    ok: bool
    exact: bool
    kind: str
    lhs: object
    rhs: object
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def square_check(tenv: TranslationEnv, model: HerbrandModel,
                 ctx: Optional[CaptureContext], val: Valuation, x,
                 depth: int = 0) -> SquareVerdict:
    """Compare the direct value of a nominal term or proposition with the
    value of its translation under the lifted valuation.  A ctx of None
    means the least context that capture-checks x."""
    if ctx is None:
        ctx = canonical_context(capture_infer(x))
    else:
        ctx = tuple(ctx)
        if not capture_check(ctx, x):
            raise SemanticsError("the context does not capture-check the input")
    t = translate(tenv, ctx, x)
    ev = HolEvaluator(model, depth)
    hv = ev.eval(t, lift_valuation(val, model.sig))
    if isinstance(x, P.PnlProp):
        # as eval_pnl_prop, over the pools the translation's quantifiers drew
        rv = _PnlCompiler(model, val, ev._pools).value(x)
        lv = as_bool(hv)
        ok = lv == rv
        return SquareVerdict(ok, ev.exact, "prop", lv, rv,
                             "" if ok else "boolean values differ")
    rhs = RenElem(Renaming.identity(), eval_pnl_term(model, val, x))
    ok = ren_eq(as_ren(hv), rhs)
    return SquareVerdict(ok, True, "term", hv, rhs,
                         "" if ok else "suspension elements differ")
