"""Sparse multivariate polynomials over the rationals.

A polynomial in ``n`` variables is stored as a map from exponent vectors
(length-``n`` tuples of non-negative ints) to nonzero ``Fraction``
coefficients.  The zero polynomial is the empty map.  All arithmetic is
exact; nothing in this module ever touches floating point.

The canonical text form lists terms in graded lexicographic order (total
degree first, then the exponent vectors lexicographically, earlier
variables dominating).  Division uses the packed order of ``_packing``:
lexicographic with x0 first, and so graded lex on homogeneous input.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm, prod
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import _EVALUATE_BITS, MAX_DIGITS, MAX_LENGTH, PolyParseError

Exponents = tuple[int, ...]

_COMPOSE_TERMS = 1 << 20


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponents, Fraction | int]):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coeff)
            if c != 0:
                clean[exps] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> MultiPoly:
        return MultiPoly(num_vars, {})

    @staticmethod
    def constant(value: Fraction | int, num_vars: int) -> MultiPoly:
        return MultiPoly(num_vars, {(0,) * num_vars: Fraction(value)})

    @staticmethod
    def variable(index: int, num_vars: int) -> MultiPoly:
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return MultiPoly(num_vars, {exps: Fraction(1)})

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree of a term.  Undefined (error) for zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no total degree")
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- ring operations ------------------------------------------------

    def _check_same_ring(self, other: MultiPoly) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"mixed variable counts: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.num_vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return MultiPoly(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        return self + (-other if isinstance(other, MultiPoly) else -Fraction(other))

    def __rsub__(self, other: Fraction | int) -> MultiPoly:
        return (-self) + Fraction(other)

    def __mul__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.num_vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        degree = max(map(sum, self.terms), default=0) + max(map(sum, other.terms), default=0)
        pack, unpack, _ = _packing(self.num_vars, degree)
        scale, (a, b) = _packed_terms((self, other), pack)
        product: _Terms = {}
        _mul_add(product, a, b, 1)
        return _unpacked(self.num_vars, product, unpack, 1 / scale**2)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        # Left-to-right binary powering: square, then multiply by self (small)
        # on a one bit; no square is taken past the exponent.
        result = MultiPoly.constant(1, self.num_vars)
        for bit in bin(exponent)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- text form -------------------------------------------------------

    def format(self, var_names: Optional[Sequence[str]] = None) -> str:
        """Canonical text form: terms in descending graded-lex order.

        Coefficients print as ``num/den`` with the denominator omitted
        when it is 1.  Unit coefficients are suppressed in front of a
        nonempty monomial.
        """
        if var_names is None:
            var_names = [f"x{i}" for i in range(self.num_vars)]
        if len(var_names) != self.num_vars:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(var_names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mon = "*".join(factors)
            mag = abs(coeff)
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {self.format()!r})"


# -- parsing ---------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, value, position) tokens; kinds: num, name, op.

    A number is a run of decimal digits (``str.isdecimal``, what ``int``
    reads), a name a letter or ``_`` followed by letters, digits and ``_``.
    """
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch in "+-*/^":
            tokens.append(("op", ch, i))
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise PolyParseError(
                    f"number {text[i:i + 8]}... at position {i} has {j - i} digits"
                    f" (limit {MAX_DIGITS})"
                )
            tokens.append(("num", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        elif not ch.isspace():
            raise PolyParseError(f"unexpected character {ch!r} at position {i}")
        i = j
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
    tokens.append(("end", "", len(text)))  # so that the lookahead never runs past the list
    pos = 0

    def take(kind: Optional[str] = None, what: str = "") -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        if tok[0] == "end":
            raise PolyParseError(f"unexpected end of input at position {len(text)}")
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {what} at position {tok[2]}")
        pos += 1
        return tok

    def next_is(op: str) -> bool:
        """Whether the next token is ``op``; it is taken when it is."""
        nonlocal pos
        found = tokens[pos][:2] == ("op", op)
        pos += found
        return found

    terms: dict[Exponents, Fraction] = {}
    sign = -1 if not next_is("+") and next_is("-") else 1  # an optional leading sign
    while True:
        coeff, exps = Fraction(sign), [0] * num_vars
        while True:  # one factor per pass
            kind, value, at = take()
            if kind == "num":
                coeff *= int(value)
                if next_is("/"):
                    _, den, at = take("num", "denominator")
                    if int(den) == 0:
                        raise PolyParseError(f"zero denominator at position {at}")
                    coeff /= int(den)
            elif kind == "name":
                if value not in var_index:
                    raise PolyParseError(f"unknown variable {value!r} at position {at}")
                exps[var_index[value]] += int(take("num", "exponent")[1]) if next_is("^") else 1
            else:
                raise PolyParseError(f"expected number or variable at position {at}, got {value!r}")
            if not next_is("*"):
                break
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        kind, value, at = tokens[pos]
        if kind == "end":
            return MultiPoly(num_vars, terms)
        if not (next_is("+") or next_is("-")):
            raise PolyParseError(f"expected '+' or '-' at position {at}, got {value!r}")
        sign = 1 if value == "+" else -1


# -- calculus and structure --------------------------------------------------


def differentiate(p: MultiPoly, var_index: int) -> MultiPoly:
    """Formal partial derivative along one variable."""
    if not 0 <= var_index < p.num_vars:
        raise ValueError(f"variable index {var_index} out of range for {p.num_vars} variables")
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms.items():
        e = exps[var_index]
        if e == 0:
            continue
        new = list(exps)
        new[var_index] = e - 1
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + coeff * e
    return MultiPoly(p.num_vars, out)


def evaluate(p: MultiPoly, point: Sequence[Fraction | int]) -> Fraction:
    """Exact value of p at a rational point.

    A term takes at least sum_i e_i * (b_i - 1) bits, b_i the larger bit
    length of coordinate i's numerator and denominator, so 0 and +-1 cost
    nothing.  Past ``_EVALUATE_BITS`` (half a megabyte) ValueError is
    raised before the power is taken: 2^(10^12) alone would need 125 GB.
    """
    if len(point) != p.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.num_vars}")
    coords = [c if isinstance(c, Fraction) else Fraction(c) for c in point]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value, bits = coeff, 0
        for c, e in zip(coords, exps):
            if e:
                bits += e * _extra_bits(c)
                if bits > _EVALUATE_BITS:
                    raise ValueError(f"value needs at least {bits} bits (budget {_EVALUATE_BITS})")
                value *= c**e
        total += value
    return total


def _extra_bits(c: Fraction) -> int:
    """Bits per unit of e that c^e takes at least: see ``evaluate``."""
    return max(c.numerator.bit_length(), c.denominator.bit_length(), 1) - 1


def homogeneous_degree(p: MultiPoly) -> Optional[int]:
    """Common total degree of all terms, or None for 0 / inhomogeneous p.

    The zero polynomial reports None here; callers that need to tell the
    two None cases apart check ``p.is_zero()``.
    """
    if not p.terms:
        return None
    degrees = {sum(e) for e in p.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def divides(f: MultiPoly, m: MultiPoly) -> Optional[MultiPoly]:
    """Quotient q with m = q*f, or None when f does not divide m.

    Long division by f (``_divide_terms``) on the primitive integer
    multiples of f and m, packed for the larger of their total degrees,
    its quotient scaled back: membership in a principal ideal is decided
    by remainder zero.  Past ``MAX_LENGTH`` quotient terms (one per
    step) ValueError is raised.
    """
    if f.num_vars != m.num_vars:
        raise ValueError("mixed variable counts")
    if f.is_zero():
        raise ValueError("division by the zero polynomial")
    if m.is_zero():
        return m
    packing = pack, unpack, _ = _packing(f.num_vars, max(map(sum, (*f.terms, *m.terms))))
    f_scale, (f_ints,) = _packed_terms((f,), pack)
    m_scale, (m_ints,) = _packed_terms((m,), pack)
    quotient = _divide_terms(f_ints, m_ints, packing)
    if quotient is None:
        return None
    return _unpacked(f.num_vars, quotient, unpack, f_scale / m_scale)


# -- term-dict kernel ----------------------------------------------------------
#
# Bare ``dict[int, int]`` maps with int coefficients only, for inner
# loops that would otherwise build and re-validate a ``MultiPoly`` per
# operation.  Each monomial is packed into one int by ``_packing``
# (Monagan and Pearce, CASC 2007), so a product of monomials is an int
# sum and the lex order, x0 first, is the int order.  The one way in is
# ``_packed_terms``; the one way out is ``_unpacked``.

_Terms = dict[int, int]
_Packing = tuple[Callable[[Exponents], int], Callable[[int], Exponents], int]


def _primitive(values: Iterable[Fraction | int]) -> tuple[Fraction, list[int]]:
    """(c, ints): c a positive rational, and ints = c*values integers with gcd 1.

    The one step from Q to Z: an empty or all-zero input gives c = 1, and
    entries other than int and ``Fraction`` (floats, say) go through
    ``Fraction``.  A nonzero constant factor changes no rank, no greedy
    pivot column and no divisibility, and an n x n determinant scales by
    c^n, so every exact kernel runs on these ints and scales back.
    """
    exact = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in exact))
    ints = [x.numerator * (scale // x.denominator) for x in exact]
    content = gcd(*ints) or 1
    return Fraction(scale, content), [x // content for x in ints]


def _packing(num_vars: int, degree: int) -> _Packing:
    """(pack, unpack, guard) for monomials with every exponent at most ``degree``.

    A packed monomial is one int of num_vars fields, each
    w = degree.bit_length() + 1 bits wide: the exponents of x0, ..., x_{n-1},
    x0 on top.  ``guard`` has the top bit of each field set; that bit of a
    packed monomial stays 0.

    Soundness.  Every exponent of a monomial is at most D < 2^(w-1), so
    the sum of two packed monomials whose product has every exponent at
    most D is the packed product: no field carries into the next.  For
    such r and f, each field of r + guard - f is r_i - f_i + 2^(w-1),
    which lies in [1, 2^w), so no field borrows either, and its top bit
    is set exactly when r_i >= f_i: f divides r exactly when
    (r + guard - f) & guard == guard, and then the quotient is
    r + guard - f - guard.  Fields compare from the top, so ints compare
    as their exponent tuples do: the lex order with x0 first, a monomial
    order, and the graded-lex order on monomials of one total degree.
    The bound D is the caller's to prove for every term that can appear.
    """
    width = degree.bit_length() + 1
    mask = (1 << width) - 1
    shifts = [width * i for i in range(num_vars - 1, -1, -1)]
    guard = sum(1 << (width * i + width - 1) for i in range(num_vars))

    def pack(exps: Exponents) -> int:
        key = 0
        for e in exps:
            key = key << width | e
        return key

    def unpack(key: int) -> Exponents:
        return tuple([key >> s & mask for s in shifts])

    return pack, unpack, guard


def _packed_terms(polys: Sequence[MultiPoly], pack: Callable) -> tuple[Fraction, list[_Terms]]:
    """(c, dicts): c*p packed for each p of ``polys``, one c of ``_primitive`` for all."""
    scale, ints = _primitive(k for p in polys for k in p.terms.values())
    coeffs = iter(ints)
    return scale, [{pack(e): next(coeffs) for e in p.terms} for p in polys]


def _unpacked(num_vars: int, terms: _Terms, unpack: Callable, factor: Fraction) -> MultiPoly:
    """factor*p, p the packed ``terms`` and ``factor`` a Fraction: the mirror of ``_packed_terms``."""
    return MultiPoly(num_vars, {unpack(e): k * factor for e, k in terms.items()})


def _mul_add(out: _Terms, a: _Terms, b: _Terms, sign: int) -> None:
    """out += sign*a*b in place; cancelled terms stay in ``out`` as zeros."""
    get = out.get
    for e1, k1 in a.items():
        k1 *= sign
        for e2, k2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + k1 * k2


def _divide_terms(f: _Terms, m: _Terms, packing: _Packing) -> Optional[_Terms]:
    """Quotient q with m = q*f, or None when f does not divide m over Q.

    ``f`` is nonzero and primitive and ``m`` nonzero in Z[x], keys packed
    by ``packing`` for a bound D that holds for f and m.

    Long division under the packed order (lex with x0 first, graded lex
    on homogeneous input), in place on one remainder dict: each step
    subtracts t*f, t = LT(r)/LT(f), touching only the |f| terms it hits.
    A heap of pending monomials gives LT(r) (Monagan and Pearce, J. Symb.
    Comput. 2011), so a step costs O(|f| log |r|), not a scan of the
    remainder.  Packed addition preserves the order, so every term a step
    makes lies below the one just popped, and no popped monomial comes
    back: each is pushed once, when it first enters the remainder, and one
    that cancels keeps its 0 there until it is popped and skipped.  The
    t's are exactly q's terms, and with one divisor the first leading term
    that LT(f) fails to divide already lands in the remainder (every later
    t*f lies below it, in any monomial order), so that failure ends the
    division.  By Gauss's lemma, as f is primitive and m in Z[x], q lies
    in Z[x] when f divides m; so a t with a nonzero ``divmod`` remainder
    ends it too, and until then r stays in Z[x].  Past ``MAX_LENGTH``
    quotient terms ValueError is raised.

    Degrees in each variable add in a product, and so do the lowest
    powers, so q lies in the box floor_i = low_i(m) - low_i(f) <= e_i <=
    high_i(m) - high_i(f) = ceiling_i, read from the unpacked keys; an
    empty box, or a quotient term t outside it, gives None.  Soundness.
    Each bound is at most high_i(m) <= D, and every quotient term t
    passes the box test before it is used, so each field of a new
    remainder term t*e, e a term of f, is at most ceiling_i + high_i(f) =
    high_i(m) <= D: every field of every key stays within the packing,
    and no field of t + guard - low or high + guard - t borrows.
    """
    pack, unpack, guard = packing
    f_exps, m_exps = [*map(unpack, f)], [*map(unpack, m)]
    floor = [max(a - b, 0) for a, b in zip(map(min, zip(*m_exps)), map(min, zip(*f_exps)))]
    ceiling = [a - b for a, b in zip(map(max, zip(*m_exps)), map(max, zip(*f_exps)))]
    if any(c < lo for c, lo in zip(ceiling, floor)):
        return None
    low, high = pack(tuple(floor)), pack(tuple(ceiling))
    f_key = max(f)
    f_coeff = f[f_key]
    rest = [(e, k) for e, k in f.items() if e != f_key]
    offset = guard - f_key
    remainder = dict(m)
    heap = [-e for e in remainder]
    heapify(heap)
    quotient: _Terms = {}
    while heap:
        r_key = -heappop(heap)
        coeff = remainder.pop(r_key)
        if not coeff:  # cancelled after it entered the remainder
            continue
        diff = r_key + offset
        if diff & guard != guard:
            return None
        t, rem = divmod(coeff, f_coeff)
        if rem:
            return None
        diff -= guard
        if (diff + guard - low) & (high + guard - diff) & guard != guard:
            return None
        quotient[diff] = t
        if len(quotient) > MAX_LENGTH:
            raise ValueError(f"polynomial division passed its budget of {MAX_LENGTH} quotient terms")
        for e, k in rest:
            key = diff + e
            old = remainder.get(key)
            if old is None:
                heappush(heap, -key)
            remainder[key] = (old or 0) - t * k
    return quotient


def compose_linear(p: MultiPoly, matrix: Sequence[Sequence[Fraction | int]]) -> MultiPoly:
    """Substitute x_i = sum_j matrix[i][j] * y_j into p.

    ``matrix`` is square of size num_vars; the result lives in the same
    number of variables.  This is polynomial pullback along the linear
    map y -> matrix @ y.

    Each term of p is expanded on its own, after a size check.  The
    power of an m-term linear form to the e has C(e+m-1, m-1) terms, and
    a product of degree d in n variables at most C(d+n-1, n-1), so the
    smaller of the two (one factor per power) bounds every intermediate.
    The power also holds c^e, c the image's longest coefficient (the
    coefficient of that variable to the e).  Past ``_COMPOSE_TERMS``
    terms, or when one such factor c^e needs more than ``_EVALUATE_BITS``
    bits (estimated as in ``evaluate``), ValueError is raised before the
    term is expanded.  The term budget bounds memory, not time: a term
    of 2^20 Fraction coefficients takes hundreds of megabytes, while
    a dense form of degree 10 in 6 variables or a quartic in 30 (the
    powers of one dense row in ``adapt_coordinates``) stays far below.
    """
    n = p.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("substitution matrix must be square of size num_vars")
    images = [
        MultiPoly(n, {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row)})
        for row in matrix
    ]
    widths = [max(map(_extra_bits, image.terms.values()), default=0) for image in images]
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms.items():
        size = min(
            comb(sum(exps) + n - 1, n - 1),
            prod(comb(e + max(len(image.terms), 1) - 1, e) for image, e in zip(images, exps)),
        )
        if size > _COMPOSE_TERMS:
            raise ValueError(f"substitution needs up to {size} terms (budget {_COMPOSE_TERMS})")
        bits = max((e * w for e, w in zip(exps, widths)), default=0)
        if bits > _EVALUATE_BITS:
            raise ValueError(f"substitution needs at least {bits} bits (budget {_EVALUATE_BITS})")
        term = MultiPoly.constant(coeff, n)
        for image, e in zip(images, exps):
            if e:
                term = term * image**e
        for mono, c in term.terms.items():
            out[mono] = out.get(mono, 0) + c
    return MultiPoly(n, out)
