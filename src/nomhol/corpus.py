"""Bundled fixtures, read from ``corpus_files/``: the lambda-calculus
signature, the eta and beta substitution axioms, the classic
alpha-conversion pair, and a set of checked derivations exercising every
sequent rule of both nominal calculi.

The files are the only copy.  ``SIG`` is parsed once at import; every other
fixture is parsed from its file, through ``frontend.parse_document``, on
each call.
"""

from __future__ import annotations

import os

from . import frontend as F

_DIR = os.path.join(os.path.dirname(__file__), "corpus_files")


def _read(name: str) -> str:
    with open(os.path.join(_DIR, name), encoding="utf-8") as fh:
        return fh.read()


SIG = F.parse_document(_read("signature.sexp"), "sig")


def _load(name: str, kind: str = "prop"):
    return F.parse_document(_read(name), kind, SIG)


def eta_axiom():
    """Extensionality: binding a non-permitted name and re-applying is a no-op."""
    return _load("eta.sexp")


def beta_axioms():
    """The five substitution axioms; ``beta_axioms()[i]`` is ``beta{i+1}.sexp``."""
    return [_load(f"beta{i}.sexp") for i in range(1, 6)]


def alpha_pair():
    """A quantified proposition and its fully alpha-converted form."""
    return _load("alpha1.sexp"), _load("alpha2.sexp")


# accepted in restricted mode; together they exercise all six rules
_RESTRICTED = ("ax-identity", "imp-reflexive", "modus-ponens", "false-left",
               "false-implies-anything", "forall-instantiate", "forall-vacuous",
               "forall-imp-reflexive", "eta-instantiate",
               "beta-identity-instantiate", "beta-noop-instantiate",
               "alpha-converted-axiom")


def restricted_derivations():
    """(name, derivation) pairs, each read from ``deriv_{name}.sexp``."""
    return [(name, _load(f"deriv_{name}.sexp", "deriv-pnl"))
            for name in _RESTRICTED]


def full_only_derivation():
    """The equivariance step the translation cannot follow: an axiom whose
    permutation genuinely moves the formula."""
    return _load("deriv_full-only.sexp", "deriv-pnl")
