"""Fingerprint of everything the nomhol CLI prints, for byte-identity checks.

    python tools/cli_parity.py WORKLOAD:SEED [WORKLOAD:SEED ...]

Runs, in-process through `nomhol.cli.run_cli`, every call of every pass of
each named benchmark workload (`benchmarks/workloads.py`, honouring each
call's `feeds` and `needs`), then every bundled corpus file under each CLI
command, with and without `--json`; `eval` and `square` run at depth 1 and
again at depth 2 (`DEPTH_TWO`), where the quantifiers of valid inputs
exhaust their candidate pools.  Prints the number of calls and one
SHA-256 over (argv, exit status or escaped exception, stdout, stderr) of
each call in order, with the temporary directory and the checkout path
written as placeholders.  A second line does the same for the malformed
half: every corpus file under the same commands after each of a fixed set
of corruptions (`CORRUPTIONS`), so it covers the located reader errors,
the reader's per-symbol scan of deeply nested brace groups, and frontend
errors, which are located by reading the text a second time, a constant
written at a type the signature does not give it and a former given a term
of the wrong sort among them, and errors inside an unknown token: a bad
atom, or a plus atom with a negative index, in its permission set, a
fourth ';' field, and an unbalanced '<' in its sort.  A third line does
the same for a fixed set of typed-lambda redexes whose step must rename a
binder (`CAPTURE_REDEXES`), under `normalize` and `alpha --hol`; no
workload or corpus file renames one.
A fourth line does the same for `eval` and `square`, at depths 0, 1 and 2,
of a few propositions (`PATTERN_PROPS`) over a model whose clause patterns
bind atoms and suspend unknowns under permutations and which declares a
`(support ...)` (`PATTERN_MODEL`); no workload or corpus model has one.
A fifth line does the same for every corpus file written four other ways
(`REWRITES`), under the same commands: with CRLF line ends, with tabs for
blanks, with a `;` comment glued after each symbol, and with a no-break
space inside its last symbol, which the reader keeps in the symbol and
the frontend refuses with a located error.
Run it in two checkouts: the same lines mean the CLI printed the same
bytes.  It uses the `nomhol` beside it, not an installed one, and writes
only to temporary directories.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from nomhol.cli import run_cli  # noqa: E402
from workloads import Call  # noqa: E402

CORPUS = ROOT / "src" / "nomhol" / "corpus_files"
MODEL = ["--model", str(CORPUS / "model_basic.sexp"), "--depth", "1"]
VALUATION = ["--valuation", str(CORPUS / "valuation_basic.sexp")]
# argv before the file argument(s); `alpha` also gets a second file
COMMANDS = (["check", "--logic", "pnl-full"], ["check", "--logic", "pnl-restricted"],
            ["check", "--logic", "hol"], ["translate"],
            ["translate", "--context", "[nu@0,nu@1]"], ["translate", "--derivation"],
            ["infer-d"], ["normalize"], ["alpha"], ["alpha", "--hol"],
            ["eval"] + MODEL, ["eval"] + MODEL + VALUATION,
            ["square"] + MODEL, ["square"] + MODEL + VALUATION)
MODEL_DEPTH_TWO = MODEL[:-1] + ["2"]
DEPTH_TWO = (["eval"] + MODEL_DEPTH_TWO, ["eval"] + MODEL_DEPTH_TWO + VALUATION,
             ["square"] + MODEL_DEPTH_TWO, ["square"] + MODEL_DEPTH_TWO + VALUATION)


def corpus_calls(files: list, commands=COMMANDS) -> list:
    """Every command, with and without --json, on each file; `alpha` pairs a
    file with the next one."""
    calls = []
    for i, f in enumerate(files):
        for cmd in commands:
            args = [f, files[(i + 1) % len(files)]] if cmd[0] == "alpha" else [f]
            for json_flag in ([], ["--json"]):
                calls.append(Call(cmd[0], cmd + json_flag + args, 0, {}))
            if cmd[-1] == "--derivation":
                fed = f"corpus-{i}.hol.sexp"
                calls[-1].feeds = fed
                calls.append(Call("check", ["check", "--logic", "hol", fed], 0, {},
                                  needs=fed))
    return calls


# comments, blanks and parentheses, then the text's first symbol
_FIRST_SYMBOL = re.compile(r"(?:;[^\n]*|[\s()])*[^\s();{}]+")


def _stray_brace(text: str) -> str:
    at = _FIRST_SYMBOL.match(text).end()
    return text[:at] + "}" + text[at:]


# a brace group with no group inside it
_INNER_GROUP = re.compile(r"\{([^{}]*)\}")


def _deep_braces(text: str):
    """The first innermost brace group's contents wrapped in two more brace
    levels, deeper than the reader's pattern covers."""
    deep, n = _INNER_GROUP.subn(r"{{{\1}}}", text, count=1)
    return deep if n else None


def _bad_last_index(text: str):
    """The text's last ``@0`` as ``@x``: a frontend error late in the text,
    often inside a subterm the text repeats."""
    at = text.rfind("@0")
    return text[:at] + "@x" + text[at + 2:] if at >= 0 else None


# a constant symbol g_NAME, as the printer writes a translated former
_CONST_SYMBOL = re.compile(r"(?<![^\s()])g_[A-Za-z0-9_]+(?![^\s()])")


def _const_type(text: str):
    """The text's first g_NAME symbol as (const g_NAME o): a constant the
    reader checks against the signature and finds at another type."""
    m = _CONST_SYMBOL.search(text)
    return text[:m.start()] + f"(const {m.group()} o)" + text[m.end():] if m else None


# a variable term (var ATOM), its atom as group 1
_VAR_ATOM = re.compile(r"\(var ([^\s(){}]+)\)")


def _wrong_sort(text: str):
    """The text's first (var ATOM) as (var (tup ATOM ATOM)): a former given
    a term of the wrong sort, which the reader finds as it sorts the list."""
    bad, n = _VAR_ATOM.subn(r"(var (tup \1 \1))", text, count=1)
    return bad if n else None


# an unknown token X{SORT;PERMSET;INDEX}, its text before the closing brace as group 1
_UNKNOWN = re.compile(r"(X\{[^{}]*(?:\{[^{}]*\}[^{}]*)*)\}")


def _in_first(pattern: str, repl: str):
    """The corruption that writes `repl` for the text's first `pattern`."""
    def corrupt(text: str):
        bad, n = re.subn(pattern, repl, text, count=1)
        return bad if n else None
    return corrupt


# name -> the corrupted text, or None where the corruption does not apply
CORRUPTIONS = {
    "drop-last-close": lambda t: t[:t.rindex(")")] + t[t.rindex(")") + 1:],
    "stray-close": lambda t: t + ")",
    "stray-brace": _stray_brace,
    "cut-in-braces": lambda t: t[:t.index("{") + 1] if "{" in t else None,
    "second-form": lambda t: t + "\nnu@0\n",
    "deep-braces": _deep_braces,
    "bad-last-index": _bad_last_index,
    "const-type": _const_type,
    "wrong-sort": _wrong_sort,
    "set-bad-atom": _in_first(re.escape("perm(+{"), "perm(+{nu@x,"),
    "set-negative-plus": _in_first(re.escape("perm(+{"), "perm(+{nu@-4,"),
    "unknown-fourth-field": _in_first(_UNKNOWN.pattern, r"\1;0}"),
    "sort-open-angle": _in_first(re.escape("X{"), "X{<"),
}


# a comment, or a symbol: runs of symbol characters and brace groups two deep
_COMMENT_OR_SYMBOL = re.compile(r";[^\n]*|(?:[^ \t\r\n();{}]|\{[^{}]*(?:\{[^{}]*\}[^{}]*)*\})+")


def _glued_comments(text: str) -> str:
    """The text with a comment glued after each symbol."""
    return _COMMENT_OR_SYMBOL.sub(lambda m: m[0] if m[0][0] == ";" else m[0] + ";c\n", text)


def _nbsp_in_last_symbol(text: str) -> str:
    """The text with a no-break space after the first character of its last
    symbol."""
    at = [m for m in _COMMENT_OR_SYMBOL.finditer(text) if m[0][0] != ";"][-1].start() + 1
    return text[:at] + "\xa0" + text[at:]


# name -> the text written another way: the corpus holds no blank inside a
# brace group, so every rewrite but the last reads as the text does
REWRITES = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "glued-comments": _glued_comments,
    "nbsp-in-symbol": _nbsp_in_last_symbol,
}


def rewritten_group(rewrites: dict) -> tuple:
    """(files, calls): each corpus file after each of the rewrites (name ->
    the new text, or None where it does not apply), under every command."""
    files = {}
    for f in sorted(CORPUS.glob("*.sexp")):
        text = f.read_text(encoding="utf-8")
        for name, rewrite in rewrites.items():
            new = rewrite(text)
            if new is not None:
                files[f"{f.stem}.{name}.sexp"] = new
    return files, corpus_calls(list(files))


# typed-lambda redexes whose beta step renames a binder: over a plain, an
# atom and an unknown variable, through nested binders, and past a binder
# that shadows the substituted variable
CAPTURE_REDEXES = (
    "(app (lam (plain o 0) (lam (plain o 1) (plain o 0))) (plain o 1))",
    "(app (lam nu@0 (lam nu@1 nu@0)) nu@1)",
    "(app (lam (plain mu_iota 0) (lam X{iota;perm(+{}-{});1} (plain mu_iota 0)))"
    " X{iota;perm(+{}-{});1})",
    "(app (lam (plain o 0) (lam (plain o 1) (lam (plain o 2) (imp (plain o 0)"
    " (imp (plain o 1) (plain o 2)))))) (imp (plain o 1) (plain o 2)))",
    "(app (lam nu@0 (lam nu@1 (lam nu@2 (tup nu@0 nu@1 nu@2)))) nu@1)",
    "(app (lam X{iota;perm(+{}-{});0} (lam X{iota;perm(+{}-{});1} (lam X{iota;perm(+{}-{});2}"
    " (tup X{iota;perm(+{}-{});0} X{iota;perm(+{}-{});1})))) X{iota;perm(+{}-{});1})",
    "(lam (plain o 1) (app (lam (plain o 0) (lam (plain o 1) (plain o 0))) (plain o 1)))",
    "(app (lam (plain (-> o o) 0) (lam (plain o 0) (app (plain (-> o o) 0) (plain o 0))))"
    " (lam (plain o 1) (plain o 0)))",
    "(app (lam (plain o 0) (tup (plain o 0) (lam (plain o 0) (plain o 0)))) bot)",
    "(app (lam nu@0 (lam nu@1 (tup nu@0 (lam nu@0 nu@1)))) nu@1)",
    # 40 nested binders that each capture: shadowing ones, and distinct ones
    # all free in the argument
    "(app (lam (plain o 0) " + "(lam (plain o 1) " * 40 + "(plain o 0)" + ")" * 40
    + ") (plain o 1))",
    "(app (lam (plain o 0) " + "".join(f"(lam (plain o {i}) " for i in range(1, 41))
    + "(plain o 0)" + ")" * 40 + ") " + "".join(f"(imp (plain o {i}) " for i in range(1, 41))
    + "bot" + ")" * 41,
)


def capture_group() -> tuple:
    """(files, calls): each capture redex under `normalize`, and under
    `alpha --hol` against itself read a second time, with and without
    `--json`."""
    files = {f"capture-{i}.sexp": text for i, text in enumerate(CAPTURE_REDEXES)}
    calls = []
    for f in files:
        for cmd, args in ((["normalize"], [f]), (["alpha", "--hol"], [f, f])):
            for json_flag in ([], ["--json"]):
                calls.append(Call(cmd[0], cmd + json_flag + args, 0, {}))
    return files, calls


X0 = "X{iota;perm(+{nu@0,nu@1,nu@2}-{});0}"
X1 = "X{iota;perm(+{nu@0}-{});1}"
# a binder clause with a bound atom, one with a vacuous binder, a
# suspension-permutation clause, an extra support, and a binder in `equal`
PATTERN_MODEL = f"""(model
  (pred P
    (clause (lam (abs nu@0 (var nu@0))) 1)
    (clause (lam (abs nu@1 {X0})) 0)
    (clause (sus ((nu@2 nu@5)) {X0}) 1)
    (default 0)
    (support nu@3))
  (pred equal
    (clause (tup {X1} (lam (abs nu@2 {X1}))) 1)
    (default 0)))
"""
# binders matched up to alpha, a free unknown, and refutable and valid ∀s
PATTERN_PROPS = (
    "(pred P (lam (abs nu@3 (var nu@3))))",
    "(pred P (lam (abs nu@0 (var nu@1))))",
    f"(imp (pred P (var nu@5)) (pred P (sus ((nu@0 nu@1)) {X0})))",
    f"(all {X0} (pred P {X0}))",
    f"(all {X0} (imp (pred P (lam (abs nu@2 {X0}))) (pred equal (tup {X0} {X0}))))",
    f"(all {X1} (imp (pred equal (tup {X1} (lam (abs nu@4 {X1}))))"
    f" (pred equal (tup {X1} (lam (abs nu@3 {X1}))))))",
)


def pattern_group() -> tuple:
    """(files, calls): each pattern proposition under `eval` and `square`
    over the pattern model at depths 0, 1 and 2, with and without
    `--json`."""
    props = {f"pattern-{i}.sexp": text for i, text in enumerate(PATTERN_PROPS)}
    calls = [Call(cmd, [cmd, "--model", "pattern-model.sexp", "--depth", depth,
                        *json_flag, f], 0, {})
             for f in props for cmd in ("eval", "square") for depth in "012"
             for json_flag in ([], ["--json"])]
    return {**props, "pattern-model.sexp": PATTERN_MODEL}, calls


def run(call: Call) -> tuple:
    """(argv, status, stdout, stderr) of one call in the current directory."""
    if call.needs and not Path(call.needs).exists():
        return call.argv, "skipped", "", ""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run_cli(list(call.argv))
    except Exception as e:   # run_cli lets some errors escape, RecursionError among them
        status = type(e).__name__
    stdout = out.getvalue()
    if call.feeds and status == 0:
        Path(call.feeds).write_text(json.loads(stdout)["derivation"], encoding="utf-8")
    return call.argv, status, stdout, err.getvalue()


def fingerprint(groups) -> tuple:
    """(calls, hex digest) over groups of (files to write, calls to run)."""
    h, count, home = hashlib.sha256(), 0, os.getcwd()
    for files, calls in groups:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for name, text in files.items():
                    Path(name).write_text(text, encoding="utf-8")
                for call in calls:
                    rec = repr(run(call))
                    for path, mark in ((work, "<work>"), (str(ROOT), "<root>")):
                        rec = rec.replace(path, mark)
                    h.update(rec.encode() + b"\0")
                    count += 1
            finally:
                os.chdir(home)
    return count, h.hexdigest()


def main(argv) -> int:
    if not argv or any(a.count(":") != 1 for a in argv):
        print("usage: python tools/cli_parity.py WORKLOAD:SEED ...", file=sys.stderr)
        return 2
    groups = []
    for spec in argv:
        name, seed = spec.split(":")
        w = workloads.build(name, int(seed))
        groups.append((w.files, [c for calls in w.passes for c in calls]))
    files = sorted(str(f) for f in CORPUS.glob("*.sexp"))
    groups.append(({}, corpus_calls(files, COMMANDS + DEPTH_TWO)))
    count, digest = fingerprint(groups)
    print(f"{count} calls sha256 {digest}")
    count, digest = fingerprint([rewritten_group(CORRUPTIONS)])
    print(f"{count} malformed calls sha256 {digest}")
    count, digest = fingerprint([capture_group()])
    print(f"{count} capture calls sha256 {digest}")
    count, digest = fingerprint([pattern_group()])
    print(f"{count} pattern calls sha256 {digest}")
    count, digest = fingerprint([rewritten_group(REWRITES)])
    print(f"{count} rewritten calls sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
