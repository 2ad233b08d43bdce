"""Bundled fixtures: the lambda-calculus signature, the eta and beta
substitution axioms, the classic alpha-conversion pair, and a set of checked
derivations exercising every sequent rule of both nominal calculi.
"""

from __future__ import annotations

from .atoms import Atom, Perm, PermissionSet
from .kernel import Node, Sequent
from .pnl import (AbsSort, AbsT, All, AtomT, BaseSort, Bot, Former, Imp,
                  NameSort, PnlSignature, Pred, Sus, Tup, TupleSort, Unknown)

NU = "nu"
NSORT = NameSort(NU)
IOTA = BaseSort("iota")

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


def atom(i: int) -> Atom:
    return Atom(NU, i)


def var(i: int):
    return Former("var", AtomT(atom(i)))


def app(s, t):
    return Former("app", Tup((s, t)))


def lam(a: Atom, body):
    return Former("lam", AbsT(a, body))


def equal(s, t):
    return Pred("equal", Tup((s, t)))


PMSS_DOWN = PermissionSet()  # the downward half only
PMSS_UP2 = PermissionSet(plus=frozenset({atom(0), atom(1), atom(2)}))

A, B = atom(0), atom(1)

# unknowns used by the axioms; the eta/beta side conditions "a not permitted
# for Z" are realized by giving Z the downward-only permission set
Z = Unknown(IOTA, PMSS_DOWN, 0)
X = Unknown(IOTA, PMSS_UP2, 0)
X2 = Unknown(IOTA, PMSS_UP2, 1)
Y = Unknown(IOTA, PMSS_UP2, 2)


def sus(u: Unknown):
    return Sus.of(u)


def eta_axiom():
    """Extensionality: binding a non-permitted name and re-applying is a no-op."""
    return All(Z, equal(lam(A, app(sus(Z), var(0))), sus(Z)))


def subst_sugar(a: Atom, body, arg):
    """The display form r[a -> arg] as the redex app(lam(a, body), arg)."""
    return app(lam(a, body), arg)


def beta_axioms():
    return [
        All(Y, equal(subst_sugar(A, var(0), sus(Y)), sus(Y))),
        All(Z, All(X, equal(subst_sugar(A, sus(Z), sus(X)), sus(Z)))),
        All(X2, All(X, All(Y, equal(
            subst_sugar(A, app(sus(X2), sus(X)), sus(Y)),
            app(subst_sugar(A, sus(X2), sus(Y)),
                subst_sugar(A, sus(X), sus(Y))))))),
        All(X, All(Z, equal(
            subst_sugar(B, lam(A, sus(X)), sus(Z)),
            lam(A, subst_sugar(B, sus(X), sus(Z)))))),
        All(X, equal(subst_sugar(A, sus(X), var(0)), sus(X))),
    ]


def alpha_pair():
    """A quantified proposition and its fully alpha-converted form."""
    XH = Unknown(IOTA, PermissionSet(plus=frozenset({atom(0)})), 0)
    YH = Unknown(IOTA, PermissionSet(plus=frozenset({atom(0)})), 1)
    lhs = All(XH, Pred("P", lam(A, sus(XH))))
    rhs = All(YH, Pred("P", lam(B, Sus(Perm.swap(B, A), YH))))
    return lhs, rhs


# ---------------------------------------------------------------------------
# derivations


def _ax(left, right, li=0, ri=0, perm=None):
    return Node("ax", Sequent(tuple(left), tuple(right)), li=li, ri=ri,
                perm=perm if perm is not None else Perm.identity())


def restricted_derivations():
    """(name, derivation) pairs accepted in restricted mode; together they
    exercise all six rules."""
    out = []
    p0 = Pred("P", var(0))
    p1 = Pred("P", var(1))

    out.append(("ax-identity", _ax([p0], [p0])))

    out.append(("imp-reflexive", Node(
        "impr", Sequent((), (Imp(p0, p0),)), ri=0,
        children=(_ax([p0], [p0]),))))

    out.append(("modus-ponens", Node(
        "impl", Sequent((Imp(p0, p1), p0), (p1,)), li=0,
        children=(_ax([p0], [p0, p1], ri=0),
                  _ax([p1, p0], [p1], li=0)))))

    out.append(("false-left", Node(
        "botl", Sequent((Bot(),), (p0,)), li=0)))

    out.append(("false-implies-anything", Node(
        "impr", Sequent((), (Imp(Bot(), p0),)), ri=0,
        children=(Node("botl", Sequent((Bot(),), (p0,)), li=0),))))

    univ = All(X, Pred("P", sus(X)))
    out.append(("forall-instantiate", Node(
        "alll", Sequent((univ,), (p0,)), li=0, witness=var(0),
        children=(_ax([p0], [p0]),))))

    out.append(("forall-vacuous", Node(
        "allr", Sequent((p0,), (All(X, p0),)), ri=0,
        children=(_ax([p0], [p0]),))))

    refl = All(X, Imp(Pred("P", sus(X)), Pred("P", sus(X))))
    inner = Imp(Pred("P", sus(X)), Pred("P", sus(X)))
    out.append(("forall-imp-reflexive", Node(
        "allr", Sequent((), (refl,)), ri=0,
        children=(Node("impr", Sequent((), (inner,)), ri=0,
                       children=(_ax([Pred("P", sus(X))], [Pred("P", sus(X))]),)),))))

    eta = eta_axiom()
    eta_inst = equal(lam(A, app(var(-1), var(0))), var(-1))
    out.append(("eta-instantiate", Node(
        "alll", Sequent((eta,), (eta_inst,)), li=0, witness=var(-1),
        children=(_ax([eta_inst], [eta_inst]),))))

    b1 = beta_axioms()[0]
    b1_inst = equal(subst_sugar(A, var(0), var(1)), var(1))
    out.append(("beta-identity-instantiate", Node(
        "alll", Sequent((b1,), (b1_inst,)), li=0, witness=var(1),
        children=(_ax([b1_inst], [b1_inst]),))))

    b5 = beta_axioms()[4]
    b5_inst = equal(subst_sugar(A, var(2), var(0)), var(2))
    out.append(("beta-noop-instantiate", Node(
        "alll", Sequent((b5,), (b5_inst,)), li=0, witness=var(2),
        children=(_ax([b5_inst], [b5_inst]),))))

    lhs, rhs = alpha_pair()
    out.append(("alpha-converted-axiom", _ax([lhs], [rhs])))

    return out


def full_only_derivation():
    """The equivariance step the translation cannot follow: an axiom whose
    permutation genuinely moves the formula."""
    p0 = Pred("P", var(0))
    p1 = Pred("P", var(1))
    return _ax([p0], [p1], perm=Perm.swap(A, B))
