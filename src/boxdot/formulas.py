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
"""

from __future__ import annotations

import re
from collections import namedtuple
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
    """Raised on malformed formula text; carries line and column (1-based)."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class CapacityError(RuntimeError):
    """A desk-scale capacity bound was exceeded."""


# ---------- tokenizer ----------

_Token = namedtuple("_Token", "kind text line column")

_TOKEN_RE = re.compile(r"""
    (?P<IDENT>[a-zA-Z_][a-zA-Z0-9_]*) | (?P<IFF><->) | (?P<ARROW>->)
  | (?P<BOX>\[\]) | (?P<BOXDOT>\[\.\]) | (?P<NOT>!) | (?P<AND>&) | (?P<OR>\|)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<NEWLINE>\n) | (?P<SKIP>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*) | (?P<ERROR>.)""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    line, line_start, end_col = 1, 0, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span()
        col = start - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind == "COMMENT":
            end_col = col  # end of input after a comment sits at the '#'
            continue
        elif kind == "ERROR":
            if m.group() == "[":
                raise ParseError("unbalanced '[': expected '[]' or '[.]'", line, col)
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "SKIP":
            tokens.append(_Token(kind, m.group(), line, col))
        end_col = end - line_start + 1
    tokens.append(_Token("EOF", "", line, end_col))
    return tokens


# ---------- recursive-descent parser ----------

_UNARY = {"NOT": Not, "BOX": Know, "BOXDOT": AttainKnow}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # unary operators, parentheses and '->' now open

    def enter(self):
        """Consume the token that opens one more level of nesting."""
        tok = self.advance()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels",
                             tok.line, tok.column)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.line, tok.column)
        return self.advance()

    def parse_formula(self):
        left = self.parse_impl()
        if self.peek().kind == "IFF":
            self.advance()
            right = self.parse_impl()
            # a <-> b  ==  (a -> b) & (b -> a)
            return _conj(Implies(left, right), Implies(right, left))
        return left

    def parse_impl(self):
        left = self.parse_disj()
        if self.peek().kind == "ARROW":
            self.enter()
            right = self.parse_impl()  # right-associative
            self.nesting -= 1
            return Implies(left, right)
        return left

    def parse_disj(self):
        parts = [self.parse_conj()]
        while self.peek().kind == "OR":
            self.advance()
            parts.append(self.parse_conj())
        f = parts[0]
        for p in parts[1:]:
            f = Implies(Not(f), p)  # a | b  ==  !a -> b
        return f

    def parse_conj(self):
        parts = [self.parse_unary()]
        while self.peek().kind == "AND":
            self.advance()
            parts.append(self.parse_unary())
        f = parts[0]
        for p in parts[1:]:
            f = _conj(f, p)
        return f

    def parse_unary(self):
        op = _UNARY.get(self.peek().kind)
        if op is None:
            return self.parse_atom()
        self.enter()
        f = op(self.parse_unary())
        self.nesting -= 1
        return f

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "LPAREN":
            self.enter()
            f = self.parse_formula()
            self.expect("RPAREN", "')'")
            self.nesting -= 1
            return f
        found = repr(tok.text) if tok.kind != "EOF" else "end of input"
        raise ParseError(f"expected an atom, '(', '!', '[]' or '[.]', found {found}",
                         tok.line, tok.column)


def _conj(a, b):
    return Not(Implies(a, Not(b)))


def parse(text):
    """Parse formula text into the desugared core AST."""
    tokens = _tokenize(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty input", tokens[0].line, tokens[0].column)
    p = _Parser(tokens)
    f = p.parse_formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    # Without &, | and <-> the tree is at most one level deeper than the
    # nesting the parser counted, and no larger than the text; their chains
    # and desugaring can stack and copy far more, so measure it.
    if any(t.kind in ("AND", "OR", "IFF") for t in tokens):
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
