"""Reference formula parser: the token-object parser.

This is the front end ``boxdot.formulas`` used before it moved to the
one-pass string tokenizer, kept unchanged as a slow oracle.  ``_tokenize``
turns the whole text into ``_Token`` tuples that carry their own line and
column, raising at the first invalid character; ``_Parser`` is one method
per grammar level over those tokens.  ``parse`` answers as
``boxdot.formulas.parse`` does: the same tree, or a ``ParseError`` with the
same message, line and column.  The tree measures ``_height`` and ``_size``
are imported from ``boxdot.formulas``, which still uses them.
"""

import re
from collections import namedtuple

from boxdot.formulas import (
    MAX_NESTING,
    MAX_TREE_SIZE,
    Atom,
    AttainKnow,
    Implies,
    Know,
    Not,
    ParseError,
    _height,
    _size,
)

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
