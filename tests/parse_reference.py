"""``parse_poly`` and ``_tokenize`` as they were before the one-loop parser.

Kept verbatim, apart from imports, as the reference that
``tests/test_poly.py`` compares ``symdeg.poly.parse_poly`` against: on
ASCII text the two must return the same terms or raise the same
exception with the same message.  Non-ASCII digits are where they part
on purpose: this tokenizer reads ``str.isdigit`` runs, so ``x0^²``
fails inside ``int``, and symdeg's reads ``str.isdecimal`` runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from symdeg.errors import MAX_DIGITS, PolyParseError
from symdeg.poly import Exponents, MultiPoly

_TOKEN_CHARS = set("+-*/^")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, value, position) tokens; kinds: num, name, op."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                raise PolyParseError(
                    f"number {text[i:i + 8]}... at position {i} has {j - i} digits"
                    f" (limit {MAX_DIGITS})"
                )
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_poly(text: str, var_names: Sequence[str]) -> MultiPoly:
    """Parse a sum of rational-coefficient monomials.

    Grammar: terms joined by ``+`` and ``-``; each term is a ``*``-joined
    product of factors; a factor is an integer, a fraction ``a/b``, or a
    variable with an optional ``^power``.  Implicit coefficient 1 and a
    leading sign are accepted; whitespace is ignored.
    """
    var_index = {name: i for i, name in enumerate(var_names)}
    if len(var_index) != len(var_names):
        raise ValueError("duplicate variable names")
    num_vars = len(var_names)
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")

    terms: dict[Exponents, Fraction] = {}
    pos = 0

    def peek() -> Optional[tuple[str, str, int]]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise PolyParseError(f"unexpected end of input at position {len(text)}")
        pos += 1
        return tok

    def parse_factor() -> tuple[Fraction, Exponents]:
        kind, value, at = take()
        if kind == "num":
            numerator = int(value)
            nxt = peek()
            if nxt is not None and nxt[:2] == ("op", "/"):
                take()
                dkind, dvalue, dat = take()
                if dkind != "num":
                    raise PolyParseError(f"expected denominator at position {dat}")
                if int(dvalue) == 0:
                    raise PolyParseError(f"zero denominator at position {dat}")
                return Fraction(numerator, int(dvalue)), (0,) * num_vars
            return Fraction(numerator), (0,) * num_vars
        if kind == "name":
            if value not in var_index:
                raise PolyParseError(f"unknown variable {value!r} at position {at}")
            power = 1
            nxt = peek()
            if nxt is not None and nxt[:2] == ("op", "^"):
                take()
                pkind, pvalue, pat = take()
                if pkind != "num":
                    raise PolyParseError(f"expected exponent at position {pat}")
                power = int(pvalue)
            exps = [0] * num_vars
            exps[var_index[value]] = power
            return Fraction(1), tuple(exps)
        raise PolyParseError(f"expected number or variable at position {at}, got {value!r}")

    def add_term(sign: str) -> None:
        coeff, exps = parse_factor()
        while True:
            nxt = peek()
            if nxt is None or nxt[:2] != ("op", "*"):
                break
            take()
            c2, e2 = parse_factor()
            coeff *= c2
            exps = tuple(a + b for a, b in zip(exps, e2))
        terms[exps] = terms.get(exps, 0) + (-coeff if sign == "-" else coeff)

    # optional leading sign, then terms joined by + and -
    sign = "+"
    if tokens[0][:2] in (("op", "+"), ("op", "-")):
        sign = take()[1]
    while True:
        add_term(sign)
        nxt = peek()
        if nxt is None:
            return MultiPoly(num_vars, terms)
        kind, sign, at = nxt
        if kind != "op" or sign not in "+-":
            raise PolyParseError(f"expected '+' or '-' at position {at}, got {sign!r}")
        take()
