"""Seeded inputs for the benchmark workloads, each with its expected verdict.

Every input is written as s-expression text by the functions below; nothing
here imports nomhol.  The expected exit code and JSON fields of each call come
from how the input was built (an intact or mutated derivation, a tautology or
a refuting template, a renamed or perturbed copy, a known capture context),
never from running nomhol.

A workload is a list of *passes*.  One pass walks the workload's size ladder
once in a fixed order, so every pass has the same mix of input classes and
sizes; the seed only changes the formulas and terms inside them.  The run loop
in ``run.py`` always finishes the pass it started, so every run measures whole
passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# How each known defect shows: the exit status, or the name of the exception
# that left run_cli, and a piece of what it wrote to stderr.
DEFECT_SIGNS = {
    "ren_eq-cap": (2, "exceeds the configured cap"),
    "recursion": ("RecursionError", ""),
}


@dataclass
class Call:
    """One nomhol CLI call and the verdict it must give."""

    cmd: str                 # label used for per-command latency
    argv: list               # nomhol arguments; file names are relative
    exit: int                # expected exit code: 0 or 1
    expect: dict             # JSON fields that must match exactly
    defect: Optional[str] = None   # known defect that makes this call fail today
    feeds: Optional[str] = None    # translate: write the printed derivation here
    needs: Optional[str] = None    # skip unless this file was fed by an earlier call


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)   # relative name -> text
    passes: list = field(default_factory=list)  # list of lists of Call


# ---------------------------------------------------------------------------
# concrete syntax (see the docstring of nomhol/frontend.py)

def atom(i: int) -> str:
    return f"nu@{i}"


def pmss(plus) -> str:
    return "perm(+{" + ",".join(atom(i) for i in sorted(plus)) + "}-{})"


def unknown(plus, idx: int) -> str:
    return f"X{{iota;{pmss(plus)};{idx}}}"


def sus(cycles, u: str) -> str:
    if not cycles:
        return u
    cyc = "".join("(" + " ".join(atom(a) for a in c) + ")" for c in cycles)
    return f"(sus ({cyc}) {u})"


def var(i: int) -> str:
    return f"(var {atom(i)})"


def app(s: str, t: str) -> str:
    return f"(app (tup {s} {t}))"


def lam(a: int, body: str) -> str:
    return f"(lam (abs {atom(a)} {body}))"


def pred_p(t: str) -> str:
    return f"(pred P {t})"


def pred_eq(s: str, t: str) -> str:
    return f"(pred equal (tup {s} {t}))"


def imp(p: str, q: str) -> str:
    return f"(imp {p} {q})"


def forall(u: str, body: str) -> str:
    return f"(all {u} {body})"


WINDOW = (0, 1, 2, 3)          # free atoms of random terms
UPPER = frozenset({0, 1, 2})   # permission set of the unknowns below
U1 = unknown(UPPER, 1)
U2 = unknown({0}, 2)


def rand_perm(rng: random.Random):
    if rng.random() < 0.5:
        return []
    a, b = rng.sample(WINDOW, 2)
    return [(a, b)]


def rand_term(rng: random.Random, depth: int, scope=()) -> str:
    """A random term of sort iota with lam/app structure and suspensions."""
    if depth <= 1:
        if rng.random() < 0.3:
            return sus(rand_perm(rng), rng.choice((U1, U2)))
        return var(rng.choice(tuple(scope) + WINDOW))
    k = rng.random()
    if k < 0.45:
        return app(rand_term(rng, depth - 1, scope), rand_term(rng, depth - 1, scope))
    if k < 0.8:
        a = rng.choice(WINDOW)
        return lam(a, rand_term(rng, depth - 1, scope + (a,)))
    return sus(rand_perm(rng), rng.choice((U1, U2)))


# ---------------------------------------------------------------------------
# derivations

def seq(left, right) -> str:
    return ("(seq (left" + "".join(" " + p for p in left) + ") (right"
            + "".join(" " + p for p in right) + "))")


def rule(name: str, left, right, *children, li=None, ri=None, perm=None,
         witness=None) -> str:
    parts = [f"(rule {name}", f"(concl {seq(left, right)})"]
    if li is not None:
        parts.append(f"(li {li})")
    if ri is not None:
        parts.append(f"(ri {ri})")
    if perm:
        parts.append("(perm (" + "".join(
            "(" + " ".join(atom(a) for a in c) + ")" for c in perm) + "))")
    if witness is not None:
        parts.append(f"(witness {witness})")
    parts.extend(children)
    return "\n".join(parts) + ")"


def _filler(rng: random.Random, marker: int, kind: str) -> str:
    """A hypothesis made unique (not alpha-equal to any other formula of the
    document) by a free marker atom used nowhere else."""
    m = var(marker)
    if kind == "atom":
        return pred_p(m)
    if kind == "eq":
        return pred_eq(m, var(rng.choice(WINDOW)))
    if kind == "imp":
        return imp(pred_p(m), pred_p(var(rng.choice(WINDOW))))
    if kind == "lam":
        a = rng.choice(WINDOW)
        return pred_eq(m, lam(a, rand_term(rng, 1, (a,))))
    return forall(U2, pred_p(app(m, U2)))


FILLER_KINDS = ("atom", "eq", "imp", "lam", "all")

# Unknowns reserved for the closing gadget: X is the allr eigenvariable and Y
# the alll-bound unknown.  Fillers never mention them.
EIGEN_X = unknown({0, 1}, 7)
BOUND_Y = unknown({0, 1}, 8)


def _spine(base, hyps, goal, top: str, cut: Optional[int] = None) -> str:
    """impr steps introducing `hyps` one by one above `top`, whose conclusion
    is base, hyps ⊢ goal.  Node j (path (0,)*j) has base and hyps[:j] on the
    left.  With `cut`, node `cut` drops its newest hypothesis, so its parent
    rejects it."""
    formulas = [goal]
    for h in reversed(hyps):
        formulas.append(imp(h, formulas[-1]))
    formulas.reverse()  # formulas[j] = hyps[j] -> ... -> goal
    node = top
    for j in range(len(hyps) - 1, -1, -1):
        left = list(reversed(hyps[:j])) + base
        if cut is not None and j == cut:
            left = left[1:]
        node = rule("impr", left, [formulas[j]], node, ri=0)
    return node


def proof_doc(rng: random.Random, n: int, kind: str, mutation: str = ""):
    """A derivation of Γ ⊢ G with n hypotheses, using all six rules.

    The first n - n//4 hypotheses sit in the root sequent; the last n//4 are
    introduced by a spine of impr steps.  Above the spine, with Γ the whole
    hypothesis list:

        impl on Himp = (∀X.((∀Y.C(Y)) -> C(X))) -> ⊥
          Γ ⊢ ∀X.(...), G          allr, eigenvariable X
            Γ ⊢ (∀Y.C(Y)) -> C(X), G          impr
              ∀Y.C(Y), Γ ⊢ C(X), G             alll with witness X
                C(X), ∀Y.C(Y), Γ ⊢ C(X), G     ax
          ⊥, Γ ⊢ G                 botl

    kind "intact" is accepted everywhere; "mutated" breaks one node (see
    `mutation`) and is rejected at that node's path by both nominal modes
    and by translate; "full-only" closes with an axiom whose permutation
    moves the formula, which only the full nominal mode accepts and which
    translate refuses.

    Returns (text, expected): expected maps "restricted", "full" and
    "translate" to (ok, path of the rejected node).
    """
    markers = iter(range(10, 10 + n + 8))
    kinds = [FILLER_KINDS[i % len(FILLER_KINDS)] for i in range(n)]
    rng.shuffle(kinds)
    hyps = [_filler(rng, next(markers), k) for k in kinds]
    goal = pred_p(app(var(next(markers)), rand_term(rng, 2)))
    s = n // 4
    top_path = (0,) * s

    if kind == "full-only":
        a, b = next(markers), next(markers)
        k = rng.randrange(n)
        hyps[k] = pred_p(app(var(a), var(b)))
        goal = pred_p(app(var(b), var(a)))
        gamma = list(reversed(hyps))
        top = rule("ax", gamma, [goal], li=gamma.index(hyps[k]), ri=0,
                   perm=[(a, b)])
        text = _spine(hyps[:n - s], hyps[n - s:], goal, top)
        return text, {"restricted": (False, top_path), "full": (True, ()),
                      "translate": (False, top_path)}

    def c_of(u):
        return pred_p(lam(1, sus([(0, 1)], u)))

    b_all = forall(BOUND_Y, c_of(BOUND_Y))
    c_x = c_of(EIGEN_X)
    body = imp(b_all, c_x)
    a_all = forall(EIGEN_X, body)
    h_imp = imp(a_all, "bot")
    slot = rng.randrange(n)
    atomic = [i for i, k in enumerate(kinds) if k in ("atom", "eq") and i != slot]
    hyps[slot] = h_imp
    gamma = list(reversed(hyps))

    witness = EIGEN_X
    ax_ri = 0
    impl_li = gamma.index(h_imp)
    cut = None
    ax_path = top_path + (0, 0, 0, 0)
    if mutation == "ax-index":
        ax_ri, bad = 1, ax_path
    elif mutation == "witness":
        witness, bad = var(rng.choice((0, 1))), ax_path
    elif mutation == "impl-principal":
        impl_li, bad = gamma.index(hyps[rng.choice(atomic)]), top_path
    elif mutation == "cut":
        cut = rng.randrange(1, s)
        bad = (0,) * cut
    elif mutation:
        raise ValueError(f"unknown mutation {mutation}")

    ax = rule("ax", [c_x, b_all] + gamma, [c_x, goal], li=0, ri=ax_ri)
    alll = rule("alll", [b_all] + gamma, [c_x, goal], ax, li=0, witness=witness)
    impr = rule("impr", gamma, [body, goal], alll, ri=0)
    allr = rule("allr", gamma, [a_all, goal], impr, ri=0)
    botl = rule("botl", ["bot"] + gamma, [goal], li=0)
    impl = rule("impl", gamma, [goal], allr, botl, li=impl_li)
    text = _spine(hyps[:n - s], hyps[n - s:], goal, impl, cut)
    if mutation:
        return text, {"restricted": (False, bad), "full": (False, bad),
                      "translate": (False, bad)}
    return text, {"restricted": (True, ()), "full": (True, ()),
                  "translate": (True, None)}


# ---------------------------------------------------------------------------
# ground-term models

WIDE = frozenset(range(40))
W_NAME = f"X{{nu;{pmss(WIDE)};92}}"
W_TERM = unknown(WIDE, 90)
EQ_CLAUSE = f"(clause (tup {W_TERM} {W_TERM})"

# The three models of the semantics tests: P is "is a variable" / "is the
# variable nu@0" / always true; equal is syntactic equality up to alpha in the
# first two and its negation in the third.
MODELS = {
    "isvar": "(model\n  (pred P (clause (var " + W_NAME + ") 1) (default 0))\n"
             "  (pred equal " + EQ_CLAUSE + " 1) (default 0)))\n",
    "noneq": "(model\n  (pred P (clause (var nu@0) 1) (default 0))\n"
             "  (pred equal " + EQ_CLAUSE + " 1) (default 0)))\n",
    "neg": "(model\n  (pred P (default 1))\n"
           "  (pred equal " + EQ_CLAUSE + " 0) (default 1)))\n",
}


def _quantify(rng: random.Random, plus, n: int, base: int):
    """n unknowns over the permission set `plus`; the seed picks indices."""
    first = base + rng.randrange(10)
    return [unknown(plus, first + 10 * i) for i in range(n)]


def refutable_prop(rng: random.Random, model: str, quantifiers: int,
                   template: int) -> str:
    """A proposition with nested ∀ that is false in `model`.

    Template 0 is refuted by the first candidate of every pool; template 1
    only by a later one (for isvar, a variable, which the pool lists after
    every app and lam term), so evaluation walks part of the pool first.
    Every counterexample has nesting depth at most 2, so every pool of depth
    2 or more contains it."""
    us = _quantify(rng, {0, 1}, quantifiers, 100)
    x, y = us[0], us[-1]
    if model == "isvar":      # app(...) is not a variable
        body = (pred_p(x), imp(pred_p(y), pred_p(app(x, y))))[template]
    elif model == "noneq":    # only var(nu@0) satisfies P
        body = (pred_p(x), pred_eq(x, var(0)))[template]
    else:                     # equal is never true of equal arguments
        body = (pred_eq(x, x), pred_eq(app(x, y), app(x, y)))[template]
    for u in reversed(us):
        body = forall(u, body)
    return body


def valid_prop(rng: random.Random, model: str, quantifiers: int,
               template: int) -> str:
    """A proposition with one or two nested ∀ over the permission set {nu@0}
    that is true in `model` for every candidate, so bounded evaluation must
    exhaust the pools.  The template, not the seed, sets its cost."""
    us = _quantify(rng, {0}, quantifiers, 200)
    x, y = us[0], us[-1]
    if quantifiers == 1:
        choices = [imp(pred_p(x), pred_p(x))]
        choices.append(pred_eq(app(x, x), x) if model == "neg" else pred_eq(x, x))
    else:
        choices = [imp(pred_eq(x, y), pred_eq(x, y))]
        if model != "neg":
            choices.append(imp(pred_eq(x, y), pred_eq(y, x)))
    body = choices[template % len(choices)]
    for u in reversed(us):
        body = forall(u, body)
    return body


def ground_with_support(rng: random.Random, k: int) -> str:
    """A ground term whose free atoms are exactly nu@0..nu@(k-1)."""
    atoms = list(range(k))
    rng.shuffle(atoms)
    t = var(atoms[0])
    for a in atoms[1:]:
        t = app(var(a), t) if rng.random() < 0.5 else app(t, var(a))
    return t


TERM_UNKNOWN = unknown(frozenset(range(12)), 40)


def term_square_input(rng: random.Random, k: int):
    """(term, valuation): the term suspends a swap over an unknown whose
    value has k free atoms."""
    term = app(sus([(0, 1)], TERM_UNKNOWN), var(rng.choice((0, 1, 2))))
    val = f"(valuation\n  (assign {TERM_UNKNOWN} {ground_with_support(rng, k)}))\n"
    return term, val


# ---------------------------------------------------------------------------
# deep syntax

SYNTAX_UNKNOWN = unknown({0, 1, 2}, 3)


def binder_tower(rng: random.Random, n: int):
    """A term with n nested lam binders, a renamed copy, a perturbed copy and
    the least capture context of the term.

    Level i is lam(b_i, app(var b_r, level i+1)) with b_r bound at or above
    level i; the innermost body holds a suspension over an unknown whose
    permission set contains none of the binders.  The renamed copy renames
    every binder to a fresh atom, so it is alpha-equal; the perturbed copy
    is the renamed copy with one variable near the bottom pointed at a
    different binder, so it is not.  The capture context is the suspended
    swap's atoms, since no binder is permitted for the unknown."""
    binders = [3 + i for i in range(n)]
    fresh = [3 + n + i for i in range(n)]
    rng.shuffle(fresh)
    refs = [rng.randrange(i + 1) for i in range(n)]
    k = n - 1 - rng.randrange(max(1, n // 10))   # near the bottom: walks most of it
    bad = (refs[k] + 1 + rng.randrange(k)) % (k + 1)   # any binder but refs[k]
    perturbed = list(refs)
    perturbed[k] = bad
    swap = rng.choice(((0, 1), (0, 2), (1, 2)))

    def build(names, refs):
        t = app(sus([swap], SYNTAX_UNKNOWN), var(names[-1]))
        for i in range(n - 1, -1, -1):
            t = lam(names[i], app(var(names[refs[i]]), t))
        return t

    context = "[" + ",".join(atom(a) for a in sorted(swap)) + "]"
    return (build(binders, refs), build(fresh, refs),
            build(fresh, perturbed), context)


def _plain(i: int) -> str:
    return f"(plain mu_iota {i})"


def redex_tower(rng: random.Random, m: int):
    """A typed-lambda term with m nested beta-redexes, its beta-normal form
    written out, and a perturbed normal form.

    R_0 = g_var a_0 and R_i = (λv_i. g_app (v_i, g_var a_i)) R_(i-1), so the
    normal form is g_app(...g_app(g_var a_0, g_var a_1)..., g_var a_m)."""
    atoms = [rng.randrange(3) for _ in range(m + 1)]

    def gvar(a):
        return f"(app g_var {atom(a)})"

    def gapp(s, t):
        return f"(app g_app (tup {s} {t}))"

    t = nf = gvar(atoms[0])
    for i in range(1, m + 1):
        v = _plain(i)
        t = f"(app (lam {v} {gapp(v, gvar(atoms[i]))}) {t})"
        nf = gapp(nf, gvar(atoms[i]))
    j = rng.randrange(m + 1)
    bent = list(atoms)
    bent[j] = (atoms[j] + 1) % 3
    bad = gvar(bent[0])
    for i in range(1, m + 1):
        bad = gapp(bad, gvar(bent[i]))
    return t, nf, bad


# ---------------------------------------------------------------------------
# the workloads: one pass = one walk over the ladder below
#
# Known defects that show at the seed commit (calls tagged with `defect`):
#   * "ren_eq-cap": square on a term whose value has 9 or more support atoms
#     exits 2 with SupportCapError (the brute-force ren_eq stops at 8).
#   * "recursion": nominal terms nested past about 160 binders raise
#     RecursionError in parse, alpha and translate.
# They are kept under 10% of the calls and counted as failures, not hidden.
# A tagged call may fail only the way its defect shows (DEFECT_SIGNS); any
# other failure, and any failure of an untagged call, is a wrong verdict.
#
# Rungs left out on purpose, each to be added by its own benchmark change once
# the matching fix lands (ROADMAP items 3 and 4):
#   * valid propositions with three nested ∀, and any depth-4 quantifier:
#     one such call takes 101 s to over 10 minutes today;
#   * nesting far beyond 300 levels, which only makes sense once deep input
#     ends in a verdict instead of a crash.

MUTATIONS = ("cut", "ax-index", "witness", "impl-principal")

# Every size below moves by SHIFTS[(pass + slot) % 4] from pass to pass, so
# the calls of a run spread over a continuum of sizes instead of a few
# points, and the percentiles do not sit in the gap between two rungs.
SHIFTS = (-2, 1, -1, 2)

# proof: (hypotheses, kind).  Six intact documents span the ladder 4..24;
# three of ten are mutated (the mutation rotates with the pass) and one
# closes with an equivariant axiom that only the full mode accepts.
PROOF_PASS = ((4, "intact"), (12, "mutated"), (8, "intact"), (16, "full-only"),
              (12, "intact"), (20, "mutated"), (24, "intact"), (10, "mutated"),
              (16, "intact"), (20, "intact"))
MIN_HYPOTHESES = 4

# square, per model: refutable (quantifiers, depth, template) and valid
# (quantifiers, depth); then term squares with support 1..12, of which 9..12
# hit the ren_eq cap.  Template 1 stays at depth 2: on isvar at depth 3 it
# walks most of a 4,000-term pool (2 s a call).  The cheap refutable inputs
# outnumber the costly ones so that p90, counted after the four failures
# that rank above every success, lands among the valid-proposition evals, a
# tight cluster, and not in the gaps between the costly squares.
REFUTABLE = ((1, 2, 0), (1, 3, 0), (2, 2, 1), (2, 3, 0), (3, 2, 1), (3, 3, 0),
             (1, 2, 1), (2, 2, 0), (3, 2, 0), (1, 3, 0), (2, 3, 0), (3, 3, 0))
VALID = ((1, 2), (1, 3), (2, 1), (2, 2))
SUPPORTS = tuple(range(1, 13))
REN_EQ_CAP = 8

# syntax: binder nesting of the nominal terms and redex depth of the
# typed-lambda towers, each moved by 4 * SHIFTS.  They stay at least 20
# levels below where Python's default recursion limit gives out today
# (about 160 binders, 245 redexes); the deep rung is far past it.  The top
# binder rung does not move: its two alpha calls are where p90 lands, after
# the two failures, and a moving size would move p90 with the pass count.
BINDER_RUNGS = (20, 50, 90, 130)
DEEP_RUNG = 300
REDEX_RUNGS = (20, 60, 100, 140, 180, 210)

DISTINCT_PASSES = 8   # passes are generated up front and reused in a cycle


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_no}")


def _check(logic: str, path: str, ok: bool, where=()) -> Call:
    cmd = "check-hol" if logic == "hol" else "check-pnl"
    return Call(cmd, ["check", "--json", "--logic", logic, path], 0 if ok else 1,
                {"ok": ok, "path": list(where)})


def _proof_pass(w: Workload, rng: random.Random, p: int):
    calls = []
    mutated = 0
    for d, (n, kind) in enumerate(PROOF_PASS):
        n = max(MIN_HYPOTHESES, n + SHIFTS[(p + d) % 4])
        mutation = ""
        if kind == "mutated":
            mutation = MUTATIONS[(p + mutated) % len(MUTATIONS)]
            mutated += 1
        text, exp = proof_doc(rng, n, kind, mutation)
        f = f"p{p}-d{d}.sexp"
        w.files[f] = text
        ok, where = exp["restricted"]
        calls.append(_check("pnl-restricted", f, ok, where))
        ok, where = exp["full"]
        calls.append(_check("pnl-full", f, ok, where))
        ok, where = exp["translate"]
        argv = ["translate", "--derivation", "--json", f]
        if ok:
            hol = f"p{p}-d{d}.hol.sexp"
            calls.append(Call("translate", argv, 0, {"ok": True}, feeds=hol))
            check = _check("hol", hol, True)
            check.needs = hol
            calls.append(check)
        else:
            calls.append(Call("translate", argv, 1, {"ok": False, "path": list(where)}))
    return calls


def _square_pass(w: Workload, rng: random.Random, p: int):
    inputs = []   # (file, model, depth, valuation, expected value or None)
    for m, model in enumerate(MODELS):
        for q, depth, template in REFUTABLE:
            inputs.append((refutable_prop(rng, model, q, template), model, depth, None, 0))
        for q, depth in VALID:
            inputs.append((valid_prop(rng, model, q, m), model, depth, None, 1))
    models = tuple(MODELS)
    for k in SUPPORTS:
        term, val = term_square_input(rng, k)
        inputs.append((term, models[k % 3], 0, (val, k), None))
    rng.shuffle(inputs)
    calls = []
    for i, (text, model, depth, val, value) in enumerate(inputs):
        f = f"p{p}-s{i}.sexp"
        w.files[f] = text
        common = ["--json", "--model", f"model-{model}.sexp"]
        if val is None:
            common += ["--depth", str(depth)]
            calls.append(Call("eval", ["eval"] + common + [f], 0,
                              {"ok": True, "value": value, "exact": False}))
            calls.append(Call("square", ["square"] + common + [f], 0,
                              {"ok": True, "exact": False, "kind": "prop"}))
        else:
            vf = f"p{p}-s{i}.val.sexp"
            w.files[vf] = val[0]
            common += ["--valuation", vf]
            calls.append(Call("eval", ["eval"] + common + [f], 0, {"ok": True}))
            calls.append(Call("square", ["square"] + common + [f], 0,
                              {"ok": True, "exact": True, "kind": "term"},
                              defect="ren_eq-cap" if val[1] > REN_EQ_CAP else None))
    return calls


def _syntax_pass(w: Workload, rng: random.Random, p: int):
    calls = []
    for i, n in enumerate(BINDER_RUNGS + (DEEP_RUNG,)):
        if n < BINDER_RUNGS[-1]:
            n += 4 * SHIFTS[(p + i) % 4]
        term, renamed, perturbed, context = binder_tower(rng, n)
        t, r, b = (f"p{p}-b{n}.sexp", f"p{p}-b{n}.renamed.sexp",
                   f"p{p}-b{n}.perturbed.sexp")
        w.files.update({t: term, r: renamed, b: perturbed})
        defect = "recursion" if n == DEEP_RUNG else None
        calls.append(Call("alpha", ["alpha", "--json", t, r], 0, {"ok": True}, defect))
        calls.append(Call("translate", ["translate", "--json", t], 0,
                          {"ok": True, "captured": True, "context": context}, defect))
        if n == DEEP_RUNG:
            continue
        calls.append(Call("alpha", ["alpha", "--json", t, b], 1, {"ok": False}))
        calls.append(Call("infer-d", ["infer-d", "--json", t], 0,
                          {"ok": True, "context": context}))
    for i, m in enumerate(REDEX_RUNGS):
        m += 4 * SHIFTS[(p + i) % 4]
        tower, normal, bent = redex_tower(rng, m)
        t, nf, b = f"p{p}-r{m}.sexp", f"p{p}-r{m}.nf.sexp", f"p{p}-r{m}.bent.sexp"
        w.files.update({t: tower, nf: normal, b: bent})
        calls.append(Call("alpha", ["alpha", "--hol", "--json", t, nf], 0, {"ok": True}))
        calls.append(Call("normalize", ["normalize", "--json", t], 0, {"ok": True}))
        calls.append(Call("alpha", ["alpha", "--hol", "--json", t, b], 1, {"ok": False}))
    return calls


BUILDERS = {"proof": _proof_pass, "square": _square_pass, "syntax": _syntax_pass}


def build(name: str, seed: int) -> Workload:
    w = Workload(name)
    if name == "square":
        for model, text in MODELS.items():
            w.files[f"model-{model}.sexp"] = text
    for p in range(DISTINCT_PASSES):
        w.passes.append(BUILDERS[name](w, _rng(name, seed, p), p))
    return w
