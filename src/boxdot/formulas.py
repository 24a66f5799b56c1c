"""Formula language of the bi-modal evidence logic.

The core AST has exactly five constructors: atoms, negation, implication,
and the two knowledge modalities ``[.]`` (attainable knowledge, from finitely
many pieces of evidence) and ``[]`` (knowledge from the whole evidence set).
``&``, ``|`` and ``<->`` exist only in the concrete syntax and are desugared
at parse time:

    a & b    ==  !(a -> !b)
    a | b    ==  !a -> b
    a <-> b  ==  (a -> b) & (b -> a)

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    formula := iff
    iff     := impl ( "<->" impl )?
    impl    := disj ( "->" impl )?
    disj    := conj ( "|" conj )*
    conj    := unary ( "&" unary )*
    unary   := ( "!" | "[]" | "[.]" ) unary | atom
    atom    := IDENT | "(" formula ")"

Formulas may nest at most MAX_NESTING levels, and the desugared tree of a
formula may have at most MAX_TREE_SIZE nodes (see there); other input is a
ParseError.

``parse`` cuts the text into plain string tokens in one regex pass, reports
an invalid character anywhere before any syntax error, and descends over the
tokens; a ParseError's line and column are worked out only when it is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "Implies",
    "AttainKnow",
    "Know",
    "ParseError",
    "CapacityError",
    "MAX_NESTING",
    "MAX_TREE_SIZE",
    "parse",
    "modal_depth",
    "atom_names",
    "subformulas",
    "substitute",
]

# Deepest nesting ``parse`` accepts: of unary operators, parentheses and
# ``->`` in the text, and of connectives in the desugared tree.  The parser,
# the printer, the kernel and the evaluators all recurse over formulas, so
# this keeps them well inside Python's default recursion limit.
MAX_NESTING = 100

# Most nodes the desugared tree of a formula may have.  ``parse`` shares the
# two operands of ``<->``, so each nested ``<->`` doubles the tree that the
# printer, ``subformulas`` and the evaluators walk; 16 levels of 129
# characters would make about half a million nodes.  Text without ``&``,
# ``|`` and ``<->`` makes one node per atom, operator and ``->``, so it is
# not measured: its tree is no larger than the text.
MAX_TREE_SIZE = 10_000


@dataclass(frozen=True)
class Formula:
    """Base class; concrete nodes are the five dataclasses below."""

    # Formulas are hashed constantly by the evaluators' memo tables; caching
    # the structural hash keeps deep trees cheap to look up.
    def _cached_hash(self, parts):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(parts)
            object.__setattr__(self, "_hash", h)
        return h

    # A string's hash depends on the process's hash seed, so a cached hash
    # must not travel in a pickle.
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self):
        return self.name

    def __hash__(self):
        return self._cached_hash(("atom", self.name))


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __str__(self):
        return f"(!{self.child})"

    def __hash__(self):
        return self._cached_hash(("not", self.child))


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} -> {self.right})"

    def __hash__(self):
        return self._cached_hash(("implies", self.left, self.right))


@dataclass(frozen=True)
class AttainKnow(Formula):
    """Attainable knowledge, written ``[.]``."""

    child: Formula

    def __str__(self):
        return f"([.]{self.child})"

    def __hash__(self):
        return self._cached_hash(("attain", self.child))


@dataclass(frozen=True)
class Know(Formula):
    """Full knowledge, written ``[]``."""

    child: Formula

    def __str__(self):
        return f"([]{self.child})"

    def __hash__(self):
        return self._cached_hash(("know", self.child))


class ParseError(ValueError):
    """Raised on malformed formula text; carries the message, line and
    column (1-based)."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CapacityError(RuntimeError):
    """A desk-scale capacity bound was exceeded."""


# ---------- tokenizer ----------

# One findall cuts the text into tokens whose concatenation is the text:
# identifiers, the nine operators, whitespace runs, comments and any other
# single character (an invalid one).  Tokens are plain strings with no
# position; a ParseError's is found by summing token lengths (_position).
_TOKEN_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*|<->|->|\[\]|\[\.\]|[!&|()]|[ \t\r\n]+|#[^\n]*|.")
_SKIP = " \t\r\n#"  # first characters of the tokens the parser never sees
_IDENT_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_OPERATORS = frozenset(("<->", "->", "[]", "[.]", "!", "&", "|", "(", ")"))


class _Fail(Exception):
    """A syntax error at significant token k (args: message, k)."""


def _position(text, raw, k):
    """Line and column of significant token k; past the last one, of the
    end of input, which sits at the '#' of a trailing comment."""
    offset = 0
    for t in raw:
        if t[0] not in _SKIP:
            if not k:
                break
            k -= 1
        offset += len(t)
    else:
        if raw and raw[-1][0] == "#":
            offset -= len(raw[-1])
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ---------- recursive-descent parser ----------

# Each function takes the significant tokens (ending in "" for the end of
# input), the index to read at and the nesting now open (unary operators,
# parentheses and '->'), and returns the formula read and the next index.

_UNARY = {"!": Not, "[]": Know, "[.]": AttainKnow}


def _found(t):
    return repr(t) if t else "end of input"


def _too_deep(i):
    return _Fail(f"formula nests deeper than {MAX_NESTING} levels", i)


def _formula(toks, i, depth):
    left, i = _impl(toks, i, depth)
    if toks[i] != "<->":
        return left, i
    right, i = _impl(toks, i + 1, depth)
    # a <-> b  ==  (a -> b) & (b -> a)
    return _conj(Implies(left, right), Implies(right, left)), i


def _impl(toks, i, depth):
    left, i = _operand(toks, i, depth)
    if toks[i] == "&" or toks[i] == "|":
        left, i = _chain(toks, i, depth, left)
    if toks[i] != "->":
        return left, i
    if depth >= MAX_NESTING:
        raise _too_deep(i)
    right, i = _impl(toks, i + 1, depth + 1)  # right-associative
    return Implies(left, right), i


def _chain(toks, i, depth, f):
    """The '&' and '|' chain after the operand f, '&' binding tighter."""
    while toks[i] == "&":
        g, i = _operand(toks, i + 1, depth)
        f = _conj(f, g)
    while toks[i] == "|":
        g, i = _operand(toks, i + 1, depth)
        while toks[i] == "&":
            h, i = _operand(toks, i + 1, depth)
            g = _conj(g, h)
        f = Implies(Not(f), g)  # a | b  ==  !a -> b
    return f, i


def _operand(toks, i, depth):
    """An atom, a unary operator and its operand, or a formula in parentheses."""
    t = toks[i]
    op = _UNARY.get(t)
    if op is None and t != "(":
        if not t or t in _OPERATORS:
            raise _Fail(f"expected an atom, '(', '!', '[]' or '[.]', found {_found(t)}", i)
        return Atom(t), i + 1
    if depth >= MAX_NESTING:
        raise _too_deep(i)
    if op is not None:
        f, i = _operand(toks, i + 1, depth + 1)
        return op(f), i
    f, i = _formula(toks, i + 1, depth + 1)
    if toks[i] != ")":
        raise _Fail(f"expected ')', found {_found(toks[i])}", i)
    return f, i + 1


def _conj(a, b):
    return Not(Implies(a, Not(b)))


def parse(text):
    """Parse formula text into the desugared core AST."""
    raw = _TOKEN_RE.findall(text)
    toks = [t for t in raw if t[0] not in _SKIP]
    kinds = set(toks)
    try:
        # the whole text is checked for invalid characters before any syntax
        bad = {t for t in kinds - _OPERATORS if t[0] not in _IDENT_START}
        if bad:
            k = next(k for k, t in enumerate(toks) if t in bad)
            if toks[k] == "[":
                raise _Fail("unbalanced '[': expected '[]' or '[.]'", k)
            raise _Fail(f"unexpected character {toks[k]!r}", k)
        toks.append("")
        if not toks[0]:
            raise _Fail("empty input", 0)
        f, i = _formula(toks, 0, 0)
        if toks[i]:
            raise _Fail(f"unexpected trailing input {toks[i]!r}", i)
    except _Fail as exc:
        raise ParseError(exc.args[0], *_position(text, raw, exc.args[1])) from None
    # Without &, | and <-> the tree is at most one level deeper than the
    # nesting the parser counted, and no larger than the text; their chains
    # and desugaring can stack and copy far more, so measure it.
    if not kinds.isdisjoint(("&", "|", "<->")):
        if _height(f) > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels once "
                             "&, | and <-> are desugared", 1, 1)
        size = _size(f, {})
        if size > MAX_TREE_SIZE:
            raise ParseError(f"formula has {size} nodes once &, | and <-> are desugared, "
                             f"more than {MAX_TREE_SIZE}", 1, 1)
    return f


def _height(f):
    """Height of f's tree, level by level so that deep trees need no
    recursion; subtrees that <-> shares are visited once per level."""
    level, height = [f], 0
    while True:
        level = list({id(c): c for g in level for c in _children(g)}.values())
        if not level:
            return height
        height += 1


def _size(f, sizes):
    """Node count of f's tree, computed on the DAG: a subtree that <-> shares
    is counted at each of its occurrences but visited once.  The tree's
    height is already checked, so the recursion stays shallow."""
    n = sizes.get(id(f))
    if n is None:
        n = sizes[id(f)] = 1 + sum(_size(c, sizes) for c in _children(f))
    return n


def _children(f):
    if isinstance(f, Implies):
        return (f.left, f.right)
    return () if isinstance(f, Atom) else (f.child,)


# ---------- structural queries ----------

# modal_depth and atom_names keep their answer on the node, as _cached_hash
# does the hash, so it lives as long as the formula.  A module-wide table
# would outlive the formulas it was filled with, and every later lookup of an
# equal but distinct tree would compare the two trees node by node.

def modal_depth(f):
    """Maximum nesting of [.] / [] along any root-to-leaf path."""
    depth = getattr(f, "_depth", None)
    if depth is None:
        if isinstance(f, Atom):
            depth = 0
        elif isinstance(f, Not):
            depth = modal_depth(f.child)
        elif isinstance(f, Implies):
            depth = max(modal_depth(f.left), modal_depth(f.right))
        elif isinstance(f, (AttainKnow, Know)):
            depth = 1 + modal_depth(f.child)
        else:
            raise TypeError(f"not a formula: {f!r}")
        object.__setattr__(f, "_depth", depth)
    return depth


def atom_names(f):
    """Set of atom names occurring in f (as a frozenset)."""
    names = getattr(f, "_atom_names", None)
    if names is None:
        if isinstance(f, Atom):
            names = frozenset((f.name,))
        elif isinstance(f, (Not, AttainKnow, Know)):
            names = atom_names(f.child)
        elif isinstance(f, Implies):
            names = atom_names(f.left) | atom_names(f.right)
        else:
            raise TypeError(f"not a formula: {f!r}")
        object.__setattr__(f, "_atom_names", names)
    return names


def subformulas(f):
    """All subformulas of f, root first (preorder, with repeats)."""
    out = [f]
    if isinstance(f, (Not, AttainKnow, Know)):
        out.extend(subformulas(f.child))
    elif isinstance(f, Implies):
        out.extend(subformulas(f.left))
        out.extend(subformulas(f.right))
    return out


def substitute(f, mapping):
    """Replace atoms by formulas; atoms missing from the mapping stay put."""
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, Not):
        return Not(substitute(f.child, mapping))
    if isinstance(f, AttainKnow):
        return AttainKnow(substitute(f.child, mapping))
    if isinstance(f, Know):
        return Know(substitute(f.child, mapping))
    if isinstance(f, Implies):
        return Implies(substitute(f.left, mapping), substitute(f.right, mapping))
    raise TypeError(f"not a formula: {f!r}")
