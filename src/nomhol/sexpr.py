"""A small s-expression reader with source locations.

Tokens are parentheses and symbols.  A symbol may carry balanced ``{}``
groups (used for the compact unknown-variable syntax) whose contents —
including parentheses — are consumed as part of the token, so forms like
``X{iota;perm(+{nu@0}-{});0}`` lex as one symbol.  Blanks are space, tab,
CR and LF only; any other character (form feed, NBSP, ...) is a symbol
character.

`parse_all` reads with one compiled pattern (`_TOKEN`) that splits the text
into blanks, comments, parentheses, symbols whose brace groups nest at most
two deep, and stray braces, and it raises every located error itself.  A
stray brace, which no grammar form makes, sends the one symbol holding it
to `_symbol_end`, which reads it a character at a time, with groups nested
to any depth, or raises the brace's error.

A node stores its character offset and the text it was read from; ``line``
and ``col`` are computed from them when asked, in practice only when an
error is raised.

`parse_all` gives every list a structural id, ``sid``: a small int, interned
per call from the tuple of its children's keys (a symbol's text, a list's
``sid``).  Two lists read by one call share a ``sid`` exactly when they print
the same, so a consumer can parse each distinct form once.  Ids from
different calls are unrelated, and ``sid`` takes no part in ``==`` or
``hash``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Union


class SexprError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Located:
    """``line`` and ``col`` of a node, from its offset ``pos`` in ``src``."""
    __slots__ = ()

    @property
    def line(self) -> int:
        return self.src.count("\n", 0, self.pos) + 1

    @property
    def col(self) -> int:
        return self.pos - self.src.rfind("\n", 0, self.pos)


@dataclass(slots=True, unsafe_hash=True)
class Sym(_Located):
    text: str
    pos: int = 0
    src: str = field(default="", compare=False, repr=False)

    def __repr__(self):
        return self.text


@dataclass(slots=True, unsafe_hash=True)
class SList(_Located):
    items: tuple
    pos: int = 0                                       # the offset of its '('
    src: str = field(default="", compare=False, repr=False)
    sid: int = field(default=0, compare=False, repr=False)

    def __repr__(self):
        return "(" + " ".join(map(repr, self.items)) + ")"


SNode = Union[Sym, SList]

# One alternative per token kind; together they match every character once.
_TOKEN = re.compile(r"""
    [ \t\r\n]+                                          # blanks
  | ;[^\n]*                                             # a comment
  | [()]
  | (?:[^ \t\r\n();{}] | \{(?:[^{}] | \{[^{}]*\})*\})+  # a symbol
  | [{}]                                                # a stray brace
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


def parse_all(text: str) -> List[SNode]:
    """All top-level forms in the text, each list with its ``sid``."""
    stack: List[tuple] = []  # enclosing lists: (items, keys, offset of '(')
    items: list = []         # the open list's nodes; the forms at top level
    keys: list = []          # their keys: a symbol's text, a list's sid
    sids: dict = {}          # tuple of children's keys -> sid
    pos = start = 0
    tokens = _TOKEN.findall(text)
    while tokens:
        for tok in tokens:
            c = tok[0]
            if c == "(":
                stack.append((items, keys, start))
                items, keys, start = [], [], pos
            elif c == ")":
                if not stack:
                    raise _error("unmatched ')'", text, pos)
                sid = sids.setdefault(tuple(keys), len(sids))
                node = SList(tuple(items), start, text, sid)
                items, keys, start = stack.pop()
                items.append(node)
                keys.append(sid)
            elif c in " \t\r\n;":
                pass
            elif c in "{}" and len(tok) == 1:
                break
            else:
                items.append(Sym(tok, pos, text))
                keys.append(tok)
            pos += len(tok)
        else:
            break
        # A stray brace: the symbol that holds it, from the prefix the
        # pattern read up to the brace, is read a character at a time.
        if items and type(items[-1]) is Sym and items[-1].pos + len(keys[-1]) == pos:
            pos = items.pop().pos
            keys.pop()
        tok = text[pos:_symbol_end(text, pos)]
        items.append(Sym(tok, pos, text))
        keys.append(tok)
        pos += len(tok)
        tokens = _TOKEN.findall(text, pos)
    if stack:
        raise _error("unclosed '('", text, start)
    if not items:
        raise _error("empty input", text, 0)
    return items


def parse_one(text: str) -> SNode:
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", forms[1].line, forms[1].col)
    return forms[0]
