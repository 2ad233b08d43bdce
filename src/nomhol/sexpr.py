"""A small s-expression reader: fast without source locations, or with them.

Tokens are parentheses and symbols.  A symbol may carry balanced ``{}``
groups (used for the compact unknown-variable syntax) whose contents —
including parentheses — are consumed as part of the token, so forms like
``X{iota;perm(+{nu@0}-{});0}`` lex as one symbol.  Blanks are space, tab,
CR and LF only; any other character (form feed, NBSP, ...) is a symbol
character.

Both readers, `parse_one` and `parse_all`, give a table and its forms.
Row ``i`` of the table is the tuple of one list's children, each a symbol
or the row of a list that closes before it: the table is the tree, and no
list is an object of its own.

`parse_one` reads a document without locations: a symbol is its `str` and a
list its row, an `int`.  Its table is a hash-consing table (Filliâtre and
Conchon, "Type-safe modular hash-consing", 2006): the keys, in order, of the
dict that interns each list's children, so two lists share a row exactly
when they print the same.  It cuts the text into tokens with `str`
methods, which run in C: `_CUT_OUT` finds the brace groups (two deep at
most), the comments, the stray braces and the characters that `str.split`
cuts at and the reader does not (form feed, NBSP, ...), and `str.split`
cuts the text between them, with a blank put on each side of every
parenthesis.  A group or such a character joins the symbols on either side
of it.  Text that is not one form, or holds a stray brace, it reads again
with `parse_all`.

`parse_all` reads with locations and raises every located error itself.  It
gives each list written its own row.  Each match of `_FAST` is one token (a
parenthesis, a symbol whose brace groups nest at most two deep, or a stray
brace) with the blanks and comments after it.  A symbol is a `Sym`, a `str`
with its offset ``pos`` in the text ``src``, and a list a `Row`, an `int`
with both; ``line`` and ``col`` are computed from them when asked, in
practice only when an error is raised.  A stray brace sends the one symbol
holding it to `_symbol_end`, which reads it a character at a time, with
groups nested to any depth, or raises the brace's error.
"""

from __future__ import annotations

import re
from typing import List


class SexprError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Located:
    """A node read with its location: its value, at offset ``pos`` in the
    text ``src``; ``line`` and ``col`` are computed from them when asked."""
    __slots__ = ()

    def __new__(cls, value, pos: int, src: str):
        self = super().__new__(cls, value)
        self.pos, self.src = pos, src
        return self

    @property
    def line(self) -> int:
        return self.src.count("\n", 0, self.pos) + 1

    @property
    def col(self) -> int:
        return self.pos - self.src.rfind("\n", 0, self.pos)


class Sym(_Located, str):
    """A symbol read with its location: its text."""
    __repr__ = str.__str__


class Row(_Located, int):
    """A list read with its location, at its '(': its row in the table."""


# Blanks and comments.  Nothing follows it in a pattern, so its greedy match
# is the longest and never ends inside a comment.
_SKIP = re.compile(r"[ \t\r\n]* (?:;[^\n]* [ \t\r\n]*)*", re.VERBOSE)
# A token, a parenthesis, a symbol or a stray brace, and the blanks and
# comments after it up to the next token.  A symbol is read a run at a
# time: runs of symbol characters N, and brace groups G two deep at most.
_N, _G = r"[^ \t\r\n();{}]", r"\{(?:[^{}] | \{[^{}]*\})*\}"
_FAST = re.compile(rf"""
    ( [()]
    | {_N}+ (?:{_G} {_N}*)* | (?:{_G} {_N}*)+   # a symbol
    | [{{}}] )                                   # a stray brace
""" + _SKIP.pattern, re.VERBOSE)
# What `parse_one` cuts out before `str.split` cuts the rest: a brace group
# two deep at most, a comment, a stray brace, or one of the characters that
# `str.split` cuts at and the reader does not.  It starts with one class, so
# that the search skips the text between matches in C.
_CUT_OUT = re.compile(r"""
    [;{}\x0b\x0c\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]
    (?: (?<=;) [^\n]*                                # a comment
      | (?<=\{) (?:[^{}] | \{[^{}]*\})* \} )?        # the rest of a group
""", re.VERBOSE)


def _error(message: str, text: str, pos: int) -> SexprError:
    """The error at offset `pos`, located as a node read there would be."""
    where = Sym("", pos, text)
    return SexprError(message, where.line, where.col)


def _symbol_end(text: str, start: int) -> int:
    """The end of the symbol at offset `start`, read a character at a time:
    its brace groups may nest to any depth and hold any character."""
    i, depth = start, 0
    while i < len(text):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                raise _error("unbalanced '}' in symbol", text, i)
            depth -= 1
        elif depth == 0 and c in "() \t\r\n;":
            break
        i += 1
    if depth:
        raise _error("unterminated '{' in symbol", text, start)
    return i


def parse_all(text: str) -> tuple:
    """The table and the top-level forms of the text: one row for each list
    written, and every node located."""
    stack: List[tuple] = []  # enclosing lists: (children, offset of '(')
    items: list = []         # the open list's children; the forms at top level
    rows: list = []
    start, at = 0, _SKIP.match(text).end()
    while True:
        for m in _FAST.finditer(text, at):
            tok, pos = m[1], m.start()
            c = tok[0]
            if c == "(":
                stack.append((items, start))
                items, start = [], pos
            elif c == ")":
                if not stack:
                    raise _error("unmatched ')'", text, pos)
                row = Row(len(rows), start, text)
                rows.append(tuple(items))
                items, start = stack.pop()
                items.append(row)
            elif c in "{}" and len(tok) == 1:
                break
            else:
                items.append(Sym(tok, pos, text))
        else:
            break
        # A stray brace: the symbol that holds it, from the prefix the
        # pattern read up to the brace, is read a character at a time.
        if items and type(items[-1]) is Sym and items[-1].pos + len(items[-1]) == pos:
            pos = items.pop().pos
        at = _symbol_end(text, pos)
        items.append(Sym(text[pos:at], pos, text))
        at = _SKIP.match(text, at).end()
    if stack:
        raise _error("unclosed '('", text, start)
    if not items:
        raise _error("empty input", text, 0)
    return rows, items


def parse_one(text: str) -> tuple:
    """The table and the root of the one form in the text, read without
    locations: one row for each distinct list.  Text that is not one form,
    or holds a stray brace, is read again by `parse_all`."""
    tokens: list = []
    glued = False   # the last token is a symbol that the text at `at` continues
    at, src = 0, text + ";"   # a comment at the end: the last match ends the text
    for m in _CUT_OUT.finditer(src):
        cut, piece = m.start(), m[0]
        if at < cut:
            run = src[at:cut].replace("(", " ( ").replace(")", " ) ").split()
            if glued and src[at] not in " \t\r\n()":
                run[0] = tokens.pop() + run[0]
            tokens += run
            glued = src[cut - 1] not in " \t\r\n()"
        if piece == "{" or piece == "}":
            break
        if piece[0] != ";":   # a comment runs to a newline, which ends a symbol
            if glued:
                tokens[-1] += piece
            else:
                tokens.append(piece)
                glued = True
        at = m.end()
    else:
        stack: List[list] = []   # the enclosing lists' children
        items: list = []         # the open list's children; the forms at top level
        sids: dict = {}          # a distinct list's children -> its row
        for tok in tokens:
            if tok == "(":
                stack.append(items)
                items = []
            elif tok == ")":
                if not stack:
                    break
                sid = sids.setdefault(tuple(items), len(sids))
                items = stack.pop()
                items.append(sid)
            else:
                items.append(tok)
        else:
            if not stack and len(items) == 1:
                return list(sids), items[0]
    rows, forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", forms[1].line, forms[1].col)
    return rows, forms[0]
