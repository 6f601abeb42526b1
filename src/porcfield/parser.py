"""Parser for the monomial-system input language.

The concrete syntax, whitespace-insensitive with '#' comments:

    system     := field_decl var_decl relation* ;
    field_decl := "field" "GF" "(" "q" "^" INT ")" ";"
    var_decl   := "vars" IDENT ("," IDENT)* ";"
    relation   := ("eq" | "neq") monomial "=" "1" ";"
    monomial   := factor ("*" factor)*
    factor     := IDENT "^" exponent
    exponent   := "(" intpoly ")" | INT | "-" INT
    intpoly    := term (("+"|"-") term)*
    term       := [INT "*"] "q" ["^" INT] | INT

A leading sign on the first term of a parenthesized exponent polynomial is
accepted as a convenience.  The same intpoly rules, with any one identifier
in place of "q", parse standalone polynomials (``parse_intpoly``).
"""

from collections import namedtuple

from .polynomial import IntPoly
from .system import MonomialRelation, MonomialSystem


class DslSyntaxError(ValueError):
    """Input text violates the grammar; carries the 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# kind is "ident", "int", a punctuation character, or "eof"
_Token = namedtuple("_Token", "kind text line col")


_PUNCT = set(";,^*+-=()")


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdecimal():  # not isdigit(): int() rejects superscript digits
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                raise DslSyntaxError("non-integer coefficient", line, start_col)
            out.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, start_col)
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], what: str = "exponent polynomial"):
        self.tokens = tokens
        self.pos = 0
        self.what = what  # names an intpoly in error messages

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> DslSyntaxError:
        tok = self.peek()
        return DslSyntaxError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"expected {what}")
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(f"expected '{word}'")
        return self.advance()

    def expect_semi(self) -> None:
        # a terminating ';' may be omitted at end of input
        if self.peek().kind == ";":
            self.advance()
        elif self.peek().kind != "eof":
            raise self.fail("expected ';'")


def parse_system(text: str) -> MonomialSystem:
    """Parse DSL text into a monomial system.

    Raises DslSyntaxError with line/column on any grammar violation,
    undeclared variable, or extension degree below 1.
    """
    parser = _Parser(_tokenize(text))
    n = _parse_field_decl(parser)
    names = _parse_var_decl(parser)
    index = {name: i for i, name in enumerate(names)}
    relations = {"eq": [], "neq": []}
    while parser.peek().kind == "ident" and parser.peek().text in relations:
        relations[parser.advance().text].append(_parse_relation(parser, index))
    if parser.peek().kind != "eof":
        raise parser.fail("expected 'eq', 'neq' or end of input")
    return MonomialSystem(
        len(names), n, tuple(relations["eq"]), tuple(relations["neq"]), tuple(names)
    )


def _parse_field_decl(p: _Parser) -> int:
    p.expect_word("field")
    p.expect_word("GF")
    p.expect("(", "'('")
    p.expect_word("q")
    p.expect("^", "'^'")
    tok = p.expect("int", "extension degree")
    p.expect(")", "')'")
    p.expect_semi()
    n = int(tok.text)
    if n < 1:
        raise DslSyntaxError("extension degree must be at least 1", tok.line, tok.col)
    return n


def _parse_var_decl(p: _Parser) -> list[str]:
    p.expect_word("vars")
    names = []

    def take_name():
        tok = p.expect("ident", "variable name")
        if tok.text == "q":
            raise DslSyntaxError("variable name 'q' is reserved", tok.line, tok.col)
        if tok.text in names:
            raise DslSyntaxError(f"duplicate variable {tok.text!r}", tok.line, tok.col)
        names.append(tok.text)

    take_name()
    while p.peek().kind == ",":
        p.advance()
        take_name()
    p.expect_semi()
    return names


def _parse_relation(p: _Parser, index: dict[str, int]) -> MonomialRelation:
    """The monomial after an 'eq' or 'neq' keyword, through its '= 1'."""
    exponents = [IntPoly() for _ in index]
    while True:
        tok = p.expect("ident", "variable name")
        if tok.text not in index:
            raise DslSyntaxError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        p.expect("^", "'^'")
        exp = _parse_exponent(p)
        slot = index[tok.text]
        exponents[slot] = exponents[slot] + exp
        if p.peek().kind == "*":
            p.advance()
            continue
        break
    p.expect("=", "'='")
    tok = p.expect("int", "'1'")
    if tok.text != "1":
        raise DslSyntaxError("right-hand side must be 1", tok.line, tok.col)
    p.expect_semi()
    return MonomialRelation(tuple(exponents))


def _parse_exponent(p: _Parser) -> IntPoly:
    tok = p.peek()
    if tok.kind == "(":
        p.advance()
        poly = _parse_intpoly(p, "q")
        p.expect(")", "')'")
        return poly
    if tok.kind == "-":
        p.advance()
        tok = p.expect("int", "integer exponent")
        return IntPoly.constant(-int(tok.text))
    if tok.kind == "int":
        p.advance()
        return IntPoly.constant(int(tok.text))
    raise p.fail("expected an exponent")


def parse_intpoly(text: str, var: str | None = None) -> IntPoly:
    """Parse text that is one intpoly in the indeterminate ``var``.

    With ``var`` None the first identifier is the indeterminate.  Raises
    DslSyntaxError on a grammar violation or a second identifier.
    """
    tokens = _tokenize(text)
    for tok in tokens:
        if tok.kind != "ident":
            continue
        if var is None:
            var = tok.text
        elif tok.text != var:
            raise DslSyntaxError(
                f"conflicting variable names {var!r} and {tok.text!r}", tok.line, tok.col
            )
    p = _Parser(tokens, "polynomial")
    # with no identifier in the text, "x" only names the indeterminate in messages
    poly = _parse_intpoly(p, var or "x")
    p.expect("eof", "end of polynomial")
    return poly


def first_identifier(text: str) -> str | None:
    """The first identifier token in text, or None when it has none."""
    return next((tok.text for tok in _tokenize(text) if tok.kind == "ident"), None)


def _parse_intpoly(p: _Parser, var: str) -> IntPoly:
    sign = 1
    if p.peek().kind in ("+", "-"):
        sign = -1 if p.advance().kind == "-" else 1
    acc = _parse_term(p, sign, var)
    while p.peek().kind in ("+", "-"):
        sign = -1 if p.advance().kind == "-" else 1
        acc = acc + _parse_term(p, sign, var)
    return acc


def _parse_term(p: _Parser, sign: int, var: str) -> IntPoly:
    tok = p.peek()
    if tok.kind == "int":
        p.advance()
        coeff = int(tok.text)
        if p.peek().kind == "*":
            p.advance()
            p.expect_word(var)
            return IntPoly.monomial(sign * coeff, _parse_power(p))
        return IntPoly.constant(sign * coeff)
    if tok.kind == "ident" and tok.text == var:
        p.advance()
        return IntPoly.monomial(sign, _parse_power(p))
    raise p.fail(f"malformed {p.what}")


def _parse_power(p: _Parser) -> int:
    if p.peek().kind == "^":
        p.advance()
        tok = p.expect("int", "integer power")
        return int(tok.text)
    return 1
