"""A small s-expression reader with source locations.

Tokens are parentheses and symbols.  A symbol may carry balanced ``{}``
groups (used for the compact unknown-variable syntax) whose contents —
including parentheses — are consumed as part of the token, so forms like
``X{iota;perm(+{nu@0}-{});0}`` lex as one symbol.

`parse_all` gives every list a structural id, ``sid``: a small int, interned
per call from the tuple of its children's keys (a symbol's text, a list's
``sid``).  Two lists read by one call share a ``sid`` exactly when they print
the same, so a consumer can parse each distinct form once.  Ids from
different calls are unrelated, and ``sid`` takes no part in ``==`` or
``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Union


class SexprError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Sym:
    text: str
    line: int = 0
    col: int = 0

    def __repr__(self):
        return self.text


@dataclass(frozen=True, slots=True)
class SList:
    items: tuple
    line: int = 0
    col: int = 0
    sid: int = field(default=0, compare=False, repr=False)

    def __repr__(self):
        return "(" + " ".join(map(repr, self.items)) + ")"


SNode = Union[Sym, SList]


def _tokens(text: str) -> Iterator[tuple]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, c, line, col
            col += 1
            i += 1
        else:
            start, sline, scol = i, line, col
            depth = 0
            while i < n:
                c = text[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    if depth == 0:
                        raise SexprError("unbalanced '}' in symbol", line, col)
                    depth -= 1
                elif depth == 0 and (c in "() \t\r\n;"):
                    break
                if c == "\n":  # inside a brace group
                    line, col = line + 1, 1
                else:
                    col += 1
                i += 1
            if depth != 0:
                raise SexprError("unterminated '{' in symbol", sline, scol)
            yield "sym", text[start:i], sline, scol


def parse_all(text: str) -> List[SNode]:
    """All top-level forms in the text, each list with its ``sid``."""
    stack: List[tuple] = []  # open lists: (items, keys of items, line, col)
    sids: dict = {}          # tuple of children's keys -> sid
    out: List[SNode] = []
    last = (1, 1)
    for kind, tok, line, col in _tokens(text):
        last = (line, col)
        if kind == "(":
            stack.append(([], [], line, col))
            continue
        if kind == ")":
            if not stack:
                raise SexprError("unmatched ')'", line, col)
            items, keys, l, c = stack.pop()
            key = sids.setdefault(tuple(keys), len(sids))
            node = SList(tuple(items), l, c, key)
        else:
            key = tok
            node = Sym(tok, line, col)
        if stack:
            stack[-1][0].append(node)
            stack[-1][1].append(key)
        else:
            out.append(node)
    if stack:
        raise SexprError("unclosed '('", *stack[-1][2:])
    if not out:
        raise SexprError("empty input", *last)
    return out


def parse_one(text: str) -> SNode:
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", forms[1].line, forms[1].col)
    return forms[0]
