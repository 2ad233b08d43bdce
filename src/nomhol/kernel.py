"""Trusted derivation checkers for a nominal sequent calculus, in two modes
differing only in their axiom rule, and a higher-order sequent calculus.

Both calculi run one rule table (`_rule`) for the six rules ax, botl, impl,
impr, alll and allr.  `check_pnl` and `check_hol` each build a small record
(`_Logic`) of what differs: the canonical formula key (`pnl.alpha_key`,
`hol.alphabeta_key`), well-formedness, the axiom test, viewing a formula as
false, an implication or a quantifier, checking and instantiating a
witness, and eigenvariable occurrence.  A higher-order term carries its
type from when it was built, so the higher-order calculus reads each
formula's and witness's type and typechecks nothing.

Proof objects carry every rule parameter (principal indices, permutations,
quantifier witnesses), so checking is search-free.  A sequent keeps its
formulas as written: `li` and `ri` index a side in that order, and a side
may list a formula, or an alpha-equal copy of it, more than once.  The rules
compare sides as sets of keys, so the copies count as one formula; a check
keys and checks each formula object once, and builds each side's key set
once, though a premise's sides are compared both by its own rule and by
the rule below it.  The parser shares one object among the copies of a
formula, and of each subformula (`frontend.parse_document`), so the
subformulas a rule takes apart are keyed once too.  `hol._nf` keeps a
normal formula's own subterms, so this holds for the higher-order calculus
as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .atoms import Perm, set_subset
from . import hol as H
from . import pnl as P

FULL = "full"
RESTRICTED = "restricted"


@dataclass(frozen=True)
class Sequent:
    left: tuple
    right: tuple


def _without(props, i) -> tuple:
    return props[:i] + props[i + 1:]


@dataclass(frozen=True)
class Node:
    rule: str  # ax | botl | impl | impr | alll | allr
    concl: Sequent
    children: tuple = ()
    perm: Perm = field(default_factory=Perm.identity)
    li: Optional[int] = None
    ri: Optional[int] = None
    witness: object = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    path: tuple = ()
    message: str = ""

    def __bool__(self):
        return self.ok


OK = Verdict(True)

_ARITY = {"ax": 0, "botl": 0, "impl": 2, "impr": 1, "alll": 1, "allr": 1}


class _Reject(Exception):
    """The rule at the node being checked is misapplied: args are the
    message, then the index of the premise at fault, if any."""


@dataclass(frozen=True)
class _Logic:
    """What one calculus supplies to the shared rule table."""
    key: Callable            # formula -> small int; equal ints are equal formulas
    side: Callable           # sequent side (a tuple) -> its formulas' key set
    check_formula: Callable  # formula -> None; raises _Reject if ill-formed
    axiom: Callable          # (perm, left, right) -> None; raises _Reject
    is_bot: Callable         # formula -> bool
    as_imp: Callable         # formula -> (antecedent, consequent) or None
    as_all: Callable         # formula -> (bound variable, body) or None
    instance: Callable       # (variable, body, witness) -> formula; raises _Reject
    occurs: Callable         # (variable, formula) -> bool

    def keys(self, props, *new) -> frozenset:
        """The key set of the formulas props and new: a sequent side as a set."""
        got = self.side(props)
        return got.union(map(self.key, new)) if new else got


def _pick(seq: Sequent, side: str, i):
    props = getattr(seq, side)
    if i is None or not (0 <= i < len(props)):
        raise _Reject(f"bad {side} index {i}")
    return props[i]


def _fits(L: _Logic, premise: Node, lefts, rights) -> bool:
    """Each side of the premise has one of its candidate key sets."""
    return L.side(premise.concl.left) in lefts and L.side(premise.concl.right) in rights


def _principal(L: _Logic, props, i, *new) -> list:
    """Key sets of props without or keeping principal formula props[i], plus
    new.  Without it means without every copy of it: the side is a set."""
    return [(L.side(props) - {L.key(props[i])}).union(map(L.key, new)),
            L.keys(props, *new)]


def _check(L: _Logic, node: Node, path) -> Verdict:
    try:
        _rule(L, node)
    except _Reject as e:
        message, *below = e.args
        return Verdict(False, path + tuple(below), message)
    for i, child in enumerate(node.children):
        v = _check(L, child, path + (i,))
        if not v:
            return v
    return OK


def _parts(parts, rule, what):
    if parts is None:
        raise _Reject(f"{rule} principal formula is not {what}")
    return parts


def _rule(L: _Logic, node: Node) -> None:
    """Shape, well-formedness of the conclusion, principal formula, rule."""
    want = _ARITY.get(node.rule)
    if want is None:
        raise _Reject(f"unknown rule {node.rule}")
    if len(node.children) != want:
        raise _Reject(f"{node.rule} expects {want} premises, got {len(node.children)}")
    C, kids, ks = node.concl, node.children, L.keys
    for phi in C.left + C.right:
        L.check_formula(phi)
    side, i = ("right", node.ri) if node.rule in ("impr", "allr") else ("left", node.li)
    phi = _pick(C, side, i)
    match node.rule:
        case "ax":
            L.axiom(node.perm, phi, _pick(C, "right", node.ri))
        case "botl":
            if not L.is_bot(phi):
                raise _Reject("botl principal formula is not the false constant")
        case "impl":
            p, q = _parts(L.as_imp(phi), "impl", "an implication")
            if not _fits(L, kids[0], _principal(L, C.left, i), [ks(C.right, p)]):
                raise _Reject("first premise does not match impl", 0)
            if not _fits(L, kids[1], _principal(L, C.left, i, q), [ks(C.right)]):
                raise _Reject("second premise does not match impl", 1)
        case "impr":
            p, q = _parts(L.as_imp(phi), "impr", "an implication")
            if not _fits(L, kids[0], [ks(C.left, p)], _principal(L, C.right, i, q)):
                raise _Reject("premise does not match impr", 0)
        case "alll":
            x, body = _parts(L.as_all(phi), "alll", "a quantifier")
            if node.witness is None:
                raise _Reject("alll needs a witness term")
            inst = L.instance(x, body, node.witness)
            if not _fits(L, kids[0], _principal(L, C.left, i, inst), [ks(C.right)]):
                raise _Reject("premise does not match alll instance", 0)
        case "allr":
            x, body = _parts(L.as_all(phi), "allr", "a quantifier")
            if any(L.occurs(x, p) for p in C.left + _without(C.right, i)):
                raise _Reject("allr eigenvariable occurs free in the sequent")
            if not _fits(L, kids[0], [ks(C.left)], _principal(L, C.right, i, body)):
                raise _Reject("premise does not match allr", 0)


# ---------------------------------------------------------------------------
# the two calculi

def by_object(fn) -> Callable:
    """fn, computed once per argument object for the life of the returned
    function: one check, translation or printing of a derivation."""
    seen: dict = {}  # id -> (object, value); holding the object keeps its id unique
    return lambda x: (seen.get(id(x)) or seen.setdefault(id(x), (x, fn(x))))[1]


def _interned(canonical: Callable) -> tuple:
    """(key, side) for one check: key gives a formula a small int, the same
    for formulas with equal canonical keys, and side gives a sequent side
    its formulas' key set; each is computed once per object."""
    ids: dict = {}  # canonical key -> small int
    key = by_object(lambda phi: ids.setdefault(canonical(phi), len(ids)))
    return key, by_object(lambda props: frozenset(map(key, props)))


def check_pnl(sig: P.PnlSignature, node: Node, mode: str) -> Verdict:
    key, side = _interned(P.alpha_key)
    sorts: dict = {}  # this check's sort memo: one step per distinct object

    def check_formula(phi):
        try:
            P.check_prop(sig, phi, sorts)
        except P.SortError as e:
            raise _Reject(f"ill-sorted formula: {e}")

    def axiom(perm, phi, psi):
        if mode == RESTRICTED:
            if not perm.is_identity:
                raise _Reject("axiom permutation must be identity in restricted mode")
            if key(phi) != key(psi):
                raise _Reject("axiom formulas not alpha-equal")
        elif not P.alpha_eq(P.perm_act(perm, phi), psi):
            raise _Reject("permuted axiom formula does not match")

    def instance(x, body, r):
        try:
            if P.sort_of(sig, r, sorts) != x.sort:
                raise _Reject("witness has the wrong sort")
        except P.SortError as e:
            raise _Reject(f"ill-sorted witness: {e}")
        if not set_subset(P.free_atoms(r), x.pmss):
            raise _Reject("witness free atoms escape the permission set")
        return P.subst_one(body, x, r)

    return _check(_Logic(
        key, side, check_formula, axiom,
        is_bot=lambda phi: isinstance(phi, P.Bot),
        as_imp=lambda phi: (phi.left, phi.right) if isinstance(phi, P.Imp) else None,
        as_all=lambda phi: (phi.unknown, phi.body) if isinstance(phi, P.All) else None,
        instance=instance,
        occurs=lambda x, phi: x in P.free_unknowns(phi)), node, ())


def check_hol(node: Node) -> Verdict:
    norm = by_object(H.normal_key)  # formula -> (key, normal form)
    key, side = _interned(lambda p: norm(p)[0])

    def check_formula(phi):
        if phi.type != H.O:
            raise _Reject(f"formula is not a proposition: it has type {phi.type!r}")

    def axiom(perm, phi, psi):
        # on the keys already at hand: both formulas are propositions
        if not H.alphabeta_eq(phi, psi, key=lambda p: norm(p)[0]):
            raise _Reject("axiom formulas not alpha-beta-equal")

    def as_imp(phi):
        match norm(phi)[1]:
            case H.App(H.App(H.Const("imp", _), p), q):
                return p, q
        return None

    def instance(v, body, t):
        if t.type != H.var_type(v):
            raise _Reject("witness has the wrong type")
        return H.App(H.Lam(v, body), t)

    return _check(_Logic(
        key, side, check_formula, axiom,
        is_bot=lambda phi: key(phi) == key(H.BOT),
        as_imp=as_imp,
        as_all=lambda phi: H.forall_parts(norm(phi)[1]),
        instance=instance,
        occurs=lambda v, phi: v in H.fv(phi)), node, ())
