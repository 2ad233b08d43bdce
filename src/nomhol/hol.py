"""Simply-typed higher-order logic: types, terms, capture-avoiding
substitution, beta-normalization, and alpha-beta equality.  A beta step
builds only the path to each occurrence of its variable (`_subst`), and the
term walks dispatch on the node's exact class, which costs less than `match`.

A variable carries its type, and so does a term, computed when it is built
from its parts' types, so an ill-typed term cannot be built: `App` raises
`HolTypeError`.
Constants carry their own types, so typing needs no signature; the reader
checks each written constant against one (`HolSignature.check_const`).  The
quantifier constant is generated on demand per domain type.  Equality
everywhere downstream is alpha-beta (no eta), decided by comparing
canonical keys (`alphabeta_key`).  Types, variables and constants print as
the reader writes them; terms print through `frontend.render`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Union

from .atoms import Atom, fresh_atoms
from .pnl import (AbsSort, BaseSort, NameSort, PnlSignature, PnlSort,
                  TupleSort, Unknown, fresh_unknown_like)


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True, slots=True)
class BaseT:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class TupleT:
    items: tuple

    def __repr__(self):
        return "(tupt" + "".join(" " + repr(t) for t in self.items) + ")"


@dataclass(frozen=True, slots=True)
class ArrowT:
    arg: "HolType"
    res: "HolType"

    def __repr__(self):
        return f"(-> {self.arg!r} {self.res!r})"


HolType = Union[BaseT, TupleT, ArrowT]

O = BaseT("o")


def name_sort_type(name: str) -> BaseT:
    return BaseT(f"mu_{name}")


def sort_to_type(sort: PnlSort) -> HolType:
    match sort:
        case NameSort(n) | BaseSort(n):
            return name_sort_type(n)
        case TupleSort(items):
            return TupleT(tuple(sort_to_type(s) for s in items))
        case AbsSort(n, body):
            return ArrowT(name_sort_type(n), sort_to_type(body))
    raise TypeError(f"not a sort: {type(sort).__name__}")


def type_to_sort(sig: PnlSignature, ty: HolType) -> Optional[PnlSort]:
    """Invert sort_to_type where possible; None for non-image types."""
    match ty:
        case BaseT(n) if n.startswith("mu_"):
            base = n[3:]
            if base in sig.name_sorts:
                return NameSort(base)
            if base in sig.base_sorts:
                return BaseSort(base)
            return None
        case TupleT(items):
            sorts = tuple(type_to_sort(sig, t) for t in items)
            return TupleSort(sorts) if all(s is not None for s in sorts) else None
        case ArrowT(BaseT(n), res) if n.startswith("mu_") and n[3:] in sig.name_sorts:
            body = type_to_sort(sig, res)
            return AbsSort(n[3:], body) if body is not None else None
    return None


# ---------------------------------------------------------------------------
# variables
#
# An atom or unknown variable, and every term but a constant, computes its
# `type` slot in `__post_init__`; the slot takes no part in equality,
# hashing, matching or printing.  A plain variable is written with its type.

_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class AtomVar:
    atom: Atom
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "type", name_sort_type(self.atom.sort))

    def __repr__(self):
        return repr(self.atom)


@dataclass(frozen=True, slots=True)
class UnkVar:
    unknown: Unknown
    ctx: tuple  # the context already restricted to pmss(unknown), in order
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.ctx)) != len(self.ctx):
            raise ValueError("context atoms must be distinct")
        for a in self.ctx:
            if a not in self.unknown.pmss:
                raise ValueError(f"context atom {a} outside the permission set")
        ty = sort_to_type(self.unknown.sort)
        for a in reversed(self.ctx):
            ty = ArrowT(name_sort_type(a.sort), ty)
        _set(self, "type", ty)

    def __repr__(self):
        return f"{self.unknown!r}_[{','.join(map(repr, self.ctx))}]"


@dataclass(frozen=True, slots=True)
class PlainVar:
    type: HolType
    index: int

    def __repr__(self):
        return f"(plain {self.type!r} {self.index})"


HolVar = Union[AtomVar, UnkVar, PlainVar]


# ---------------------------------------------------------------------------
# terms

class HolTypeError(Exception):
    """A term that does not typecheck; `term` is the offending subterm, or
    None where the error concerns no one term (a constant's declaration)."""

    def __init__(self, message: str, term: Optional[HolTerm] = None):
        super().__init__(message)
        self.term = term


@dataclass(frozen=True, slots=True)
class Var:
    var: HolVar
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "type", self.var.type)


@dataclass(frozen=True, slots=True)
class Lam:
    var: HolVar
    body: "HolTerm"
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "type", ArrowT(self.var.type, self.body.type))


@dataclass(frozen=True, slots=True)
class App:
    fn: "HolTerm"
    arg: "HolTerm"
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fty, aty = self.fn.type, self.arg.type
        if type(fty) is not ArrowT:
            raise HolTypeError(f"applying a non-function of type {fty!r}", self)
        if fty.arg is not aty and fty.arg != aty:
            raise HolTypeError(f"application expects {fty.arg!r}, got {aty!r}", self)
        _set(self, "type", fty.res)


@dataclass(frozen=True, slots=True)
class HTup:
    items: tuple
    type: HolType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "type", TupleT(tuple(r.type for r in self.items)))


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    type: HolType

    def __repr__(self):
        if self.name == "bot" or self.name.startswith("g_"):
            return self.name
        return f"(const {self.name} {self.type!r})"


HolTerm = Union[Var, Lam, App, HTup, Const]

BOT = Const("bot", O)
IMP = Const("imp", ArrowT(O, ArrowT(O, O)))


def forall_const(domain: HolType) -> Const:
    return Const("forall", ArrowT(ArrowT(domain, O), O))


def forall(v: HolVar, body: HolTerm) -> HolTerm:
    return App(forall_const(v.type), Lam(v, body))


def forall_parts(t: HolTerm) -> Optional[tuple]:
    """(v, body) when t is the quantifier applied to a lambda over v."""
    match t:
        case App(Const("forall", _), Lam(v, body)):
            return v, body
    return None


def imp(p: HolTerm, q: HolTerm) -> HolTerm:
    return App(App(IMP, p), q)


def apps(fn: HolTerm, *args: HolTerm) -> HolTerm:
    for u in args:
        fn = App(fn, u)
    return fn


def lams(vs: Iterable[HolVar], body: HolTerm) -> HolTerm:
    for v in reversed(list(vs)):
        body = Lam(v, body)
    return body


@dataclass(frozen=True, slots=True)
class HolSignature:
    """Registry of the constants a document may mention."""

    constants: Mapping[str, HolType]

    def check_const(self, c: Const):
        if c.name == "forall":
            match c.type:
                case ArrowT(ArrowT(_, res_o), out_o) if res_o == O and out_o == O:
                    return
            raise HolTypeError(f"malformed quantifier constant at type {c.type!r}")
        want = self.constants.get(c.name)
        if want is None:
            raise HolTypeError(f"unknown constant {c.name}")
        if want != c.type:
            raise HolTypeError(f"constant {c.name} declared {want!r}, used at {c.type!r}")


BASE_SIGNATURE = HolSignature({"bot": O, "imp": IMP.type})


# ---------------------------------------------------------------------------
# free variables

def fv(t: HolTerm) -> frozenset:
    c = type(t)
    if c is App:
        return fv(t.fn) | fv(t.arg)
    if c is Var:
        return frozenset((t.var,))
    if c is Lam:
        return fv(t.body) - {t.var}
    if c is HTup:
        return frozenset().union(*map(fv, t.items))
    if c is Const:
        return frozenset()
    raise TypeError(f"not a term: {c.__name__}")


# ---------------------------------------------------------------------------
# substitution

def _fresh_var_like(v: HolVar, avoid: frozenset) -> HolVar:
    match v:
        case AtomVar(a):
            taken = {w.atom for w in avoid if isinstance(w, AtomVar)}
            return AtomVar(fresh_atoms([a.sort], taken)[0])
        case UnkVar(unk, ctx):
            return UnkVar(fresh_unknown_like(
                unk, [w.unknown for w in avoid if isinstance(w, UnkVar) and w.ctx == ctx]), ctx)
        case PlainVar(ty, _):
            taken = {w.index for w in avoid
                     if isinstance(w, PlainVar) and w.type == ty}
            i = 0
            while i in taken:
                i += 1
            return PlainVar(ty, i)
    raise TypeError(f"not a variable: {type(v).__name__}")


def _subst(t: HolTerm, m: dict, near: list) -> HolTerm:
    """t with each variable of `m` replaced by its image at once; a subterm
    where none is free comes back itself.  A binder that would capture is
    renamed, decided before the one walk of its body from `near`: one slot,
    shared under one map, for (a superset of) the images' free variables."""
    c = type(t)
    if c is App:
        fn, arg = _subst(t.fn, m, near), _subst(t.arg, m, near)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if c is Var:
        return m.get(t.var, t)
    if c is Lam:
        w, body = t.var, t.body
        if near[0] is None:  # filled on the first binder, for the whole map
            near[0] = frozenset().union(*map(fv, m.values()))
        m = {x: y for x, y in m.items() if x != w} if w in m else m
        if m and w in near[0]:
            free = fv(body)  # only images of variables free here can capture
            m = {x: y for x, y in m.items() if x in free}
            near = [frozenset().union(*map(fv, m.values()))]
            if w in near[0]:
                w2 = _fresh_var_like(w, near[0] | free | frozenset(m))
                return Lam(w2, _subst(body, {**m, w: Var(w2)}, [near[0] | {w2}]))
        new = _subst(body, m, near) if m else body
        return t if new is body else Lam(w, new)
    if c is HTup:
        new = tuple([_subst(r, m, near) for r in t.items])
        return t if all(map(operator.is_, new, t.items)) else HTup(new)
    if c is Const:
        return t
    raise TypeError(f"not a term: {c.__name__}")


# ---------------------------------------------------------------------------
# beta-normalization (leftmost-outermost)
#
# Both return their argument itself, and each subterm itself, where nothing
# reduces, so a term that is already normal keeps its identity and its
# subterms stay shared with the terms they were shared with.

def _whnf(t: HolTerm) -> HolTerm:
    while type(t) is App:
        head = _whnf(t.fn)
        if type(head) is not Lam:
            return t if head is t.fn else App(head, t.arg)
        t = _subst(head.body, {head.var: t.arg}, [None])
    return t


def beta_normalize(t: HolTerm) -> HolTerm:
    return _nf(t)  # typed when built, hence strongly normalizing


def _nf(t: HolTerm) -> HolTerm:
    t = _whnf(t)
    c = type(t)
    if c is App:
        fn, arg = _nf(t.fn), _nf(t.arg)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if c is Lam:
        body = _nf(t.body)
        return t if body is t.body else Lam(t.var, body)
    if c is HTup:
        new = tuple(map(_nf, t.items))
        return t if all(map(operator.is_, new, t.items)) else HTup(new)
    if c is Var or c is Const:
        return t
    raise TypeError(f"not a term: {c.__name__}")


# ---------------------------------------------------------------------------
# alpha-beta keys

def _debruijn(t: HolTerm, env: dict, level: int):
    """t with every bound variable replaced by the level of its binder."""
    c = type(t)
    if c is App:
        return ("app", _debruijn(t.fn, env, level), _debruijn(t.arg, env, level))
    if c is Var:
        bound = env.get(t.var)   # None where no binder is in scope
        return t.var if bound is None else bound
    if c is Lam:
        v = t.var
        outer, env[v] = env.get(v), level
        k = ("lam", v.type, _debruijn(t.body, env, level + 1))
        env[v] = outer
        return k
    if c is HTup:
        out = ["tup"]
        for r in t.items:
            out.append(_debruijn(r, env, level))
        return tuple(out)
    if c is Const:
        return t
    raise TypeError(f"not a term: {c.__name__}")


def normal_key(t: HolTerm) -> tuple:
    """(alphabeta_key(t), beta-normal form of t), normalising t once."""
    nf = _nf(t)
    return (t.type, _debruijn(nf, {}, 0)), nf


def alphabeta_key(t: HolTerm) -> tuple:
    """Canonical form of t up to alpha-beta equality: its type and the
    de Bruijn form of its beta-normal form."""
    return normal_key(t)[0]


def alphabeta_eq(t: HolTerm, u: HolTerm, key: Callable = alphabeta_key) -> bool:
    """Whether t and u are alpha-beta equal; `key` may give alphabeta_key
    from a caller's memo."""
    kt = key(t)
    ku = kt if u is t else key(u)
    if kt[0] != ku[0]:
        raise HolTypeError("comparing terms of different types")
    return kt == ku
