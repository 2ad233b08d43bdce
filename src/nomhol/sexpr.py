"""A small s-expression reader: fast without source locations, or with them.

Tokens are parentheses and symbols.  A symbol may carry balanced ``{}``
groups (used for the compact unknown-variable syntax) whose contents —
including parentheses — are consumed as part of the token, so forms like
``X{iota;perm(+{nu@0}-{});0}`` lex as one symbol.  Blanks are space, tab,
CR and LF only; any other character (form feed, NBSP, ...) is a symbol
character.

`parse_one` reads a document without locations: a symbol is its `str`, a
list an `SList` with no ``pos``.  Each match of `_FAST` is one token (a
parenthesis, a symbol whose brace groups nest at most two deep, or a stray
brace) with the blanks and comments after it.  Text that is not one form,
or holds a stray brace, it reads again with `parse_all`.

`parse_all` reads with locations and raises every located error itself.  A
symbol is a `Sym`, a `str` with its offset ``pos`` in the text ``src``, and
a list has both set; ``line`` and ``col`` are computed from them when asked,
in practice only when an error is raised.  A stray brace sends the one
symbol holding it to `_symbol_end`, which reads it a character at a time,
with groups nested to any depth, or raises the brace's error.

Both give every list a structural id, ``sid``: a small int, interned per
reading from the tuple of its children's keys (a symbol's text, a list's
``sid``), the same for one text in both.  Two lists of one reading share a
``sid`` exactly when they print the same, so a consumer can parse each
distinct form once.  ``sid`` takes no part in ``==`` or ``hash``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Union


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


class Sym(_Located, str):
    """A symbol read with its location: its text, at offset `pos` in `src`."""
    def __new__(cls, text: str, pos: int, src: str):
        self = str.__new__(cls, text)
        self.pos, self.src = pos, src
        return self

    __repr__ = str.__str__


@dataclass(slots=True, unsafe_hash=True)
class SList(_Located):
    items: tuple
    sid: int = field(compare=False)
    pos: Optional[int] = None             # the offset of its '(', if located
    src: Optional[str] = field(default=None, compare=False)

    def __repr__(self):
        return "(" + " ".join(map(str, self.items)) + ")"


SNode = Union[str, SList]

# Blanks and comments.  Nothing follows it in a pattern, so its greedy match
# is the longest and never ends inside a comment.
_SKIP = re.compile(r"[ \t\r\n]* (?:;[^\n]* [ \t\r\n]*)*", re.VERBOSE)
# A token, a parenthesis, a symbol or a stray brace, and the blanks and
# comments after it up to the next token.
_FAST = re.compile(r"""
    ( [()]
    | (?:[^ \t\r\n();{}] | \{(?:[^{}] | \{[^{}]*\})*\})+  # a symbol
    | [{}] )                                            # a stray brace
""" + _SKIP.pattern, re.VERBOSE)


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
    start, at = 0, _SKIP.match(text).end()
    while True:
        for m in _FAST.finditer(text, at):
            tok, pos = m[1], m.start()
            c = tok[0]
            if c == "(":
                stack.append((items, keys, start))
                items, keys, start = [], [], pos
            elif c == ")":
                if not stack:
                    raise _error("unmatched ')'", text, pos)
                sid = sids.setdefault(tuple(keys), len(sids))
                node = SList(tuple(items), sid, start, text)
                items, keys, start = stack.pop()
                items.append(node)
                keys.append(sid)
            elif c in "{}" and len(tok) == 1:
                break
            else:
                items.append(Sym(tok, pos, text))
                keys.append(tok)
        else:
            break
        # A stray brace: the symbol that holds it, from the prefix the
        # pattern read up to the brace, is read a character at a time.
        if items and type(items[-1]) is Sym and items[-1].pos + len(keys[-1]) == pos:
            pos = items.pop().pos
            keys.pop()
        at = _symbol_end(text, pos)
        items.append(Sym(text[pos:at], pos, text))
        keys.append(text[pos:at])
        at = _SKIP.match(text, at).end()
    if stack:
        raise _error("unclosed '('", text, start)
    if not items:
        raise _error("empty input", text, 0)
    return items


def parse_one(text: str) -> SNode:
    """The one form in the text, read without locations; text that is not
    one form, or holds a stray brace, is read again by `parse_all`."""
    stack: List[tuple] = []  # enclosing lists: (items, keys)
    items, keys, sids = [], [], {}
    for tok in _FAST.findall(text, _SKIP.match(text).end()):
        c = tok[0]
        if c == "(":
            stack.append((items, keys))
            items, keys = [], []
        elif c == ")":
            if not stack:
                break
            sid = sids.setdefault(tuple(keys), len(sids))
            node = SList(tuple(items), sid)
            items, keys = stack.pop()
            items.append(node)
            keys.append(sid)
        elif c in "{}" and len(tok) == 1:
            break
        else:
            items.append(tok)
            keys.append(tok)
    else:
        if not stack and len(items) == 1:
            return items[0]
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError("expected exactly one form", forms[1].line, forms[1].col)
    return forms[0]
