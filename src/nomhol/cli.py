"""Command-line interface.

Exit codes: 0 = success/accepted/equal, 1 = rejected/unequal, 2 = usage,
parse, sort or type error.  ``--json`` switches every subcommand to a single
machine-readable verdict object on stdout.  The environment variable
``NOMHOL_DEPTH`` supplies the default quantifier bound.  Messages quote
syntax as a document writes it: a sort or type error is located at the list
that builds the ill-sorted or ill-typed term, and ends with that list.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import corpus
from . import frontend as F
from . import hol as H
from . import kernel as K
from . import pnl as P
from .capture import canonical_context, capture_check, capture_infer
from .semantics import (SemanticsError, Valuation, eval_pnl_prop, eval_pnl_term,
                        square_check)
from .sexpr import SexprError
from .translate import TranslationError, translate, translate_derivation, \
    translate_signature

EXIT_OK, EXIT_REJECTED, EXIT_ERROR = 0, 1, 2


class _Usage(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror}")


def _emit(args, payload: dict, human: str) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human:
        print(human)
    return EXIT_OK if payload.get("ok", True) else EXIT_REJECTED


def _load_sig(args) -> P.PnlSignature:
    if args.sig is None:
        return corpus.SIG
    return F.parse_document(_read(args.sig), "sig")


def _depth_value(raw: str) -> int:
    """A depth bound, for both `--depth` and NOMHOL_DEPTH: ASCII digits with
    an optional leading '-', as the frontend reads integers (int() alone
    would also take '_', blanks and other scripts' digits)."""
    if not F.INT_RE.fullmatch(raw):
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    return int(raw)


def _default_depth() -> int:
    raw = os.environ.get("NOMHOL_DEPTH", "0")
    try:
        return _depth_value(raw)
    except argparse.ArgumentTypeError:
        raise _Usage(f"NOMHOL_DEPTH must be an integer, got {raw!r}")


def _depth(args) -> int:
    return _default_depth() if args.depth is None else args.depth


def _load_model(args, sig):
    if args.model is None:
        raise _Usage("this command needs --model")
    return F.parse_document(_read(args.model), "model", sig)


def _load_valuation(args, sig) -> Valuation:
    if args.valuation is None:
        return Valuation()
    return F.parse_document(_read(args.valuation), "valuation", sig)


def _given_context(args, sig) -> Optional[tuple]:
    return None if args.context is None else F.parse_context_text(sig, args.context)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> int:
    sig = _load_sig(args)
    if args.logic == "hol":
        v = K.check_hol(F.parse_document(_read(args.file), "deriv-hol", sig))
    else:
        d = F.parse_document(_read(args.file), "deriv-pnl", sig)
        mode = K.FULL if args.logic == "pnl-full" else K.RESTRICTED
        v = K.check_pnl(sig, d, mode)
    payload = {"ok": bool(v), "path": list(v.path), "message": v.message}
    if v:
        return _emit(args, payload, "accepted")
    where = "/".join(map(str, v.path)) or "root"
    return _emit(args, payload, f"rejected at {where}: {v.message}")


def _cmd_translate(args) -> int:
    sig = _load_sig(args)
    env = translate_signature(sig)
    if args.derivation:
        d = F.parse_document(_read(args.file), "deriv-pnl", sig)
        try:
            out = translate_derivation(env, d, _given_context(args, sig) or ())
        except TranslationError as e:
            payload = {"ok": False, "path": list(e.path), "message": str(e)}
            return _emit(args, payload, f"rejected: {e}")
        text = F.render_derivation(out.tree)
        payload = {"ok": True, "context": F.render_context(out.ctx_full),
                   "derivation": text}
        return _emit(args, payload,
                     f"; context {F.render_context(out.ctx_full)}\n{text}")
    x = F.parse_document(_read(args.file), "pnl", sig)
    ctx = _given_context(args, sig)
    if ctx is None:  # the least context, which capture-checks by construction
        ctx, captured = canonical_context(capture_infer(x)), True
    else:
        captured = capture_check(ctx, x)
    t = translate(env, ctx, x)
    text = F.render(t)
    payload = {"ok": True, "context": F.render_context(ctx),
               "captured": captured, "term": text}
    note = "" if captured else "  ; warning: context does not capture-check"
    return _emit(args, payload,
                 f"; context {F.render_context(ctx)}{note}\n{text}")


def _cmd_infer_d(args) -> int:
    sig = _load_sig(args)
    x = F.parse_document(_read(args.file), "pnl", sig)
    ctx = canonical_context(capture_infer(x))
    return _emit(args, {"ok": True, "context": F.render_context(ctx)},
                 F.render_context(ctx))


def _cmd_alpha(args) -> int:
    sig = _load_sig(args)
    if args.hol:
        t = F.parse_document(_read(args.file), "hol", sig)
        u = F.parse_document(_read(args.file2), "hol", sig)
        same = H.alphabeta_eq(t, u)
    else:
        t = F.parse_document(_read(args.file), "pnl", sig)
        u = F.parse_document(_read(args.file2), "pnl", sig)
        same = P.alpha_eq(t, u)
    return _emit(args, {"ok": same},
                 "alpha-equal" if same else "not alpha-equal")


def _cmd_normalize(args) -> int:
    sig = _load_sig(args)
    t = F.parse_document(_read(args.file), "hol", sig)
    out = F.render(H.beta_normalize(t))
    return _emit(args, {"ok": True, "term": out}, out)


def _cmd_eval(args) -> int:
    sig = _load_sig(args)
    model = _load_model(args, sig)
    val = _load_valuation(args, sig)
    x = F.parse_document(_read(args.file), "pnl", sig)
    depth = _depth(args)
    if isinstance(x, P.PnlProp):
        v, exact = eval_pnl_prop(model, val, x, depth)
        return _emit(args, {"ok": True, "value": v, "exact": exact},
                     f"{v}{'' if exact else '  ; bounded, not exact'}")
    out = F.render(eval_pnl_term(model, val, x))
    return _emit(args, {"ok": True, "term": out}, out)


def _cmd_square(args) -> int:
    sig = _load_sig(args)
    env = translate_signature(sig)
    model = _load_model(args, sig)
    val = _load_valuation(args, sig)
    x = F.parse_document(_read(args.file), "pnl", sig)
    v = square_check(env, model, _given_context(args, sig), val, x, _depth(args))
    payload = {"ok": v.ok, "exact": v.exact, "kind": v.kind,
               "message": v.message}
    if v.ok:
        note = "" if v.exact else "  ; bounded, not exact"
        return _emit(args, payload, f"square commutes ({v.kind}){note}")
    return _emit(args, payload, f"square fails ({v.kind}): {v.message}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first call and reused: parse_args keeps nothing between
    calls, since each returns a fresh namespace."""
    top = argparse.ArgumentParser(prog="nomhol", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sig", help="signature file (default: the bundled "
                                     "lambda-calculus signature)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable verdicts")

    p = sub.add_parser("check", help="check a derivation file")
    common(p)
    p.add_argument("--logic", required=True,
                   choices=["pnl-full", "pnl-restricted", "hol"])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("translate", help="translate a term, proposition, or "
                                         "derivation")
    common(p)
    p.add_argument("--context", help='capture context, e.g. "[nu@0,nu@1]"')
    p.add_argument("--derivation", action="store_true",
                   help="treat the file as a derivation")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("infer-d", help="print the least capture context")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_infer_d)

    p = sub.add_parser("alpha", help="compare two files up to alpha")
    common(p)
    p.add_argument("--hol", action="store_true",
                   help="compare typed-lambda terms up to alpha-beta")
    p.add_argument("file")
    p.add_argument("file2")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("normalize", help="beta-normalize a typed-lambda term")
    common(p)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("eval", help="evaluate a term or proposition in a model")
    common(p)
    p.add_argument("--model")
    p.add_argument("--valuation")
    p.add_argument("--depth", type=_depth_value)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("square", help="compare direct evaluation with the "
                                      "evaluation of the translation")
    common(p)
    p.add_argument("--model")
    p.add_argument("--valuation")
    p.add_argument("--context")
    p.add_argument("--depth", type=_depth_value)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_square)

    return top


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (_Usage, SexprError, P.SortError, P.SignatureError,
            H.HolTypeError, SemanticsError, TranslationError, ValueError,
            TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
