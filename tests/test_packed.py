"""The packed-monomial kernel against a tuple-key reference.

Inside ``symdeg.poly``'s term-dict kernel every exponent vector is one
int (``_packing``).  The reference below keeps exponent tuples and does
everything the schoolbook way: products by nested loops, division by
repeated leading-term reduction, determinants by fraction-free
elimination built from those two.  The edge cases put the largest value
a field may hold into every variable's field.
Symbolic determinants by expansion by minors are checked on their
packing bound and against Bareiss elimination at a seeded point in Z/P
(``minors.bareiss_mod_p``).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import MultiPoly, divides
from symdeg import linalg, poly
from symdeg.linalg import _pivot_columns_poly
from symdeg.errors import MAX_LENGTH
from symdeg.poly import _packing

from minors import POINT, bareiss_mod_p, det_poly, expanded_pivot_columns, value_mod_p

HUGE = 999999999999

# -- tuple-key reference -------------------------------------------------------


def grlex(exps):
    return (sum(exps), exps)


def ref_mul(a, b):
    out = {}
    for e1, k1 in a.items():
        for e2, k2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + k1 * k2
    return {e: k for e, k in out.items() if k}


def ref_sub(a, b):
    out = dict(a)
    for e, k in b.items():
        out[e] = out.get(e, 0) - k
    return {e: k for e, k in out.items() if k}


def ref_divide(f, m):
    """Quotient of m by f over Q, or None: reduce the leading term until none is left."""
    lead = max(f, key=grlex)
    remainder, quotient = dict(m), {}
    while remainder:
        top = max(remainder, key=grlex)
        t = tuple(x - y for x, y in zip(top, lead))
        if min(t, default=0) < 0:
            return None
        c = Fraction(remainder[top]) / f[lead]
        quotient[t] = c
        for e, k in f.items():
            key = tuple(x + y for x, y in zip(t, e))
            value = remainder.get(key, 0) - c * k
            if value:
                remainder[key] = value
            else:
                remainder.pop(key, None)
    return quotient


def ref_pivots_and_det(m, num_vars):
    """Pivot columns of a square matrix of term dicts, and its determinant at full rank."""
    work = [list(row) for row in m]
    n = len(work)
    prev = {(0,) * num_vars: 1}
    pivots, sign = [], 1
    for c in range(n):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if work[i][c]), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        top = work[r]
        for row in work[r + 1 :]:
            for j in range(c + 1, n):
                num = ref_sub(ref_mul(top[c], row[j]), ref_mul(row[c], top[j]))
                row[j] = ref_divide(prev, num)
        prev = top[c]
        pivots.append(c)
    if len(pivots) < n:
        return tuple(pivots), None
    return tuple(pivots), {e: sign * k for e, k in work[-1][-1].items()}


# -- strategies -----------------------------------------------------------------

# Degree bounds at and next to powers of two: a field then holds exactly
# 2^k - 1, the most its width allows, or 2^k, the first value of a wider one.
DEGREES = [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 1023, 1024, HUGE]
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)


@st.composite
def exponents(draw, num_vars, degree):
    """An exponent vector of total degree at most ``degree``, often exactly it."""
    if num_vars == 0:
        return ()
    total = draw(st.one_of(st.just(degree), st.integers(0, degree)))
    size = num_vars - 1
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size, max_size=size)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def term_dicts(num_vars, degree, max_terms=4, min_terms=0):
    return st.dictionaries(
        exponents(num_vars, degree), coeffs, min_size=min_terms, max_size=max_terms
    )


def rings():
    return st.tuples(st.integers(0, 4), st.sampled_from(DEGREES))


# -- the packing itself ------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(rings(), st.data())
def test_packing_orders_multiplies_and_divides_like_tuples(ring, data):
    num_vars, degree = ring
    pack, unpack, guard = _packing(num_vars, degree)
    a = data.draw(exponents(num_vars, degree))
    b = data.draw(exponents(num_vars, degree))
    assert unpack(pack(a)) == a
    assert (pack(a) < pack(b)) == (a < b)
    divisible = all(x >= y for x, y in zip(a, b))
    assert ((pack(a) + guard - pack(b)) & guard == guard) == divisible
    if divisible:
        assert unpack(pack(a) + guard - pack(b) - guard) == tuple(x - y for x, y in zip(a, b))
    c = data.draw(exponents(num_vars, degree - sum(a)))
    assert unpack(pack(a) + pack(c)) == tuple(x + y for x, y in zip(a, c))


# -- MultiPoly products and divides ------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(rings(), st.data())
def test_product_matches_tuple_reference(ring, data):
    num_vars, degree = ring
    a = data.draw(term_dicts(num_vars, degree))
    b = data.draw(term_dicts(num_vars, degree))
    assert (MultiPoly(num_vars, a) * MultiPoly(num_vars, b)).terms == ref_mul(a, b)


@settings(deadline=None, max_examples=150)
@given(rings(), st.data())
def test_divides_finds_every_exact_quotient(ring, data):
    num_vars, degree = ring
    f = data.draw(term_dicts(num_vars, degree, min_terms=1))
    q = data.draw(term_dicts(num_vars, degree))
    m = ref_mul(q, f)
    assert divides(MultiPoly(num_vars, f), MultiPoly(num_vars, m)).terms == q


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 3), st.sampled_from([0, 1, 2, 3, 4, 7, 8]), st.data())
def test_divides_matches_tuple_reference_on_any_dividend(num_vars, degree, data):
    # Low degrees only: a dividend that is not a multiple can take about
    # as many division steps as there are monomials below its leading one.
    f = data.draw(term_dicts(num_vars, degree, min_terms=1))
    q = data.draw(term_dicts(num_vars, degree))
    m = ref_sub(ref_mul(q, f), data.draw(term_dicts(num_vars, degree, max_terms=2)))
    got = divides(MultiPoly(num_vars, f), MultiPoly(num_vars, m))
    expected = ref_divide(f, m)
    assert (None if got is None else got.terms) == expected


def test_divides_over_z_matches_fraction_division_on_seeded_rational_forms():
    # divides runs on the primitive integer multiples of f and m (Gauss's
    # lemma); ref_divide is plain Fraction long division, with no heap, no
    # packing and no degree box.  f has denominators up to 12; m = q*f is a
    # multiple, and m - r, r one nonzero term of degree below deg f, is not.
    rng = random.Random(25)

    def form(num_vars, degree, size):
        """Up to ``size`` terms of total degree ``degree``, coefficients with denominators."""
        box = itertools.product(range(degree + 1), repeat=num_vars)
        monomials = [e for e in box if sum(e) == degree]
        return {
            e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
            for e in rng.sample(monomials, min(size, len(monomials)))
        }

    for _ in range(200):
        num_vars, degree = rng.randint(1, 4), rng.randint(1, 3)
        f = form(num_vars, rng.randint(0, degree), rng.randint(0, 3))
        f.update(form(num_vars, degree, 1))
        q = form(num_vars, rng.randint(0, 2), rng.randint(1, 3))
        q.update(form(num_vars, 2, 2))
        r = form(num_vars, rng.randint(0, degree - 1), 1)
        m = ref_mul(q, f)
        for dividend, expected in [(m, q), (ref_sub(m, r), None)]:
            got = divides(MultiPoly(num_vars, f), MultiPoly(num_vars, dividend))
            assert (None if got is None else got.terms) == ref_divide(f, dividend) == expected


def test_divides_stops_past_its_quotient_budget():
    # (x0^n - x1^n) / (x0 - x1) has n quotient terms, and dividing
    # x0^n + x1^n takes n steps before the remainder 2*x1^n shows that it is
    # no multiple.  Every division stops past n = MAX_LENGTH quotient terms.
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    n = MAX_LENGTH
    assert len(divides(x0 - x1, x0**n - x1**n).terms) == n
    assert divides(x0 - x1, x0**n + x1**n) is None
    for f, m in [
        (x0 - x1, x0 ** (n + 1) + x1 ** (n + 1)),
        (x0 - x1, x0 ** (n + 1) - x1 ** (n + 1)),
        (x0 + x1, x0**HUGE - x1**HUGE),
    ]:
        with pytest.raises(ValueError, match=f"budget of {n} quotient terms"):
            divides(f, m)


def test_divides_stops_outside_the_degree_box(monkeypatch):
    # Each quotient term has degree in x_i between low_i(m) - low_i(f) and
    # high_i(m) - high_i(f).  Dividing x0^n by x0 - x1 would take n steps
    # before the remainder x1^n showed up, but x1 cannot appear in q at
    # all, so no step is taken; into x0^n + x1^2, q could go with x1 at
    # most once, so the third step, x0^(n-3)*x1^2, stops inside a budget
    # of two quotient terms.
    x0, x1, x2 = (MultiPoly.variable(i, 3) for i in range(3))
    monkeypatch.setattr(poly, "MAX_LENGTH", 1)
    assert divides(x0 - x1, x0**HUGE) is None
    monkeypatch.setattr(poly, "MAX_LENGTH", 2)
    assert divides(x0 - x1, x0**HUGE + x1**2) is None
    monkeypatch.undo()
    f, q = x0 * x2 + x1**2, x0 * x2**3 - x1**2 * x2**2
    assert divides(f, f * q) == q
    assert divides(f, f * q + x1**2 * x2**4) is None


def test_divides_by_a_lex_leading_term():
    # The packed order is lex, so LT(f) of f = x0 + x1^5 is x0, where graded
    # lex took x1^5.  Into x0*x1^5 the box is empty: x0 has degree 1 in m
    # and in f, so floor_0 = 1 > 0 = ceiling_0.  Into x0*x1^5 + x1^10 the
    # one quotient term is x1^5.  Into x0^2 + x0*x1^3 + x1^5 the first
    # step, t = x0, leaves -x0*x1^5 on top, and t = x1^5 falls outside the
    # box (ceiling_1 = 0) before it touches the remainder.
    f = {(1, 0): 1, (0, 5): 1}
    for m, expected in [
        ({(1, 5): 1}, None),
        ({(1, 5): 1, (0, 10): 1}, {(0, 5): 1}),
        ({(2, 0): 1, (1, 3): 1, (0, 5): 1}, None),
    ]:
        got = divides(MultiPoly(2, f), MultiPoly(2, m))
        assert (None if got is None else got.terms) == ref_divide(f, m) == expected


def _x(i, power, num_vars=3):
    return tuple(power if k == i else 0 for k in range(num_vars))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 1023, 1024])
def test_fields_at_their_largest_value(degree):
    # deg f + deg q = degree, and each of x0, x1, x2 reaches it alone, so
    # every variable's field holds the bound itself.
    hi, lo = (degree + 1) // 2, degree // 2
    f = {_x(0, hi): 1, _x(1, hi): 2, _x(2, hi): -1, _x(0, 0): 3}
    q = {_x(0, lo): 1, _x(1, lo): -1, _x(2, lo): Fraction(1, 2), _x(0, 0): -1}
    f_poly, q_poly = MultiPoly(3, f), MultiPoly(3, q)
    m = f_poly * q_poly
    assert m.terms == ref_mul(f, q)
    assert max(map(max, m.terms)) == degree
    assert divides(f_poly, m) == q_poly
    assert divides(q_poly, m) == f_poly
    near = {**ref_mul(f, q), (1, 0, degree - 1): 5}
    assert divides(f_poly, MultiPoly(3, near)) is None is ref_divide(f, near)


def test_kernel_without_variables():
    three, half = MultiPoly(0, {(): 3}), MultiPoly(0, {(): Fraction(1, 2)})
    assert (three * half).terms == {(): Fraction(3, 2)}
    assert divides(half, three).terms == {(): 6}
    assert divides(three, MultiPoly.zero(0)).is_zero()
    assert det_poly([[three, half], [half, three]]) == MultiPoly(0, {(): Fraction(35, 4)})
    # one pivot column, 1, and the minor on rows and columns {1}
    zero = MultiPoly.zero(0)
    assert _pivot_columns_poly([[zero, three], [zero, half]]) == ((1,), half)


def test_kernel_on_constants():
    two, x0 = MultiPoly.constant(2, 3), MultiPoly.variable(0, 3)
    assert divides(two, x0 * 3 + 1).terms == {(1, 0, 0): Fraction(3, 2), (0, 0, 0): Fraction(1, 2)}
    assert divides(x0, two) is None
    constants = [[MultiPoly.constant(c, 3) for c in row] for row in [[1, 2], [3, 4]]]
    assert det_poly(constants) == MultiPoly.constant(-2, 3)


def test_kernel_on_huge_exponents():
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    big = x0**HUGE
    assert (big * big).terms == {(2 * HUGE, 0): 1}
    assert divides(big + x1, (big + x1) * (big - x1)) == big - x1
    assert divides(big * x1, big * x0) is None
    assert det_poly([[big, x1], [x1, big]]) == x0 ** (2 * HUGE) - x1 * x1


# -- determinants ---------------------------------------------------------------------


@st.composite
def term_matrices(draw):
    num_vars = draw(st.integers(0, 3))
    degree = draw(st.sampled_from([0, 1, 2, 3, 4, 7, 8, 1024]))
    size = draw(st.integers(1, 4))
    entries = term_dicts(num_vars, degree, max_terms=2 if size == 4 else 3)
    rows = [[draw(entries) for _ in range(size)] for _ in range(size)]
    return num_vars, rows


@settings(deadline=None, max_examples=60)
@given(term_matrices())
def test_pivots_and_determinant_match_tuple_reference(case):
    num_vars, rows = case
    expected_pivots, expected_det = ref_pivots_and_det(rows, num_vars)
    pivots, det = _pivot_columns_poly([[MultiPoly(num_vars, e) for e in row] for row in rows])
    assert pivots == expected_pivots
    if expected_det is None:  # below full rank det is the minor on S x S, S the pivots
        sub = [[rows[i][j] for j in pivots] for i in pivots]
        expected_det = ref_pivots_and_det(sub, num_vars)[1] if pivots else {(0,) * num_vars: 1}
    assert det.terms == (expected_det or {})


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("delta", [1, 2, 3, 4, 7, 8])
def test_expansion_minors_reach_size_times_delta(size, delta, monkeypatch):
    # The same matrix by expansion by minors: its determinant has the term
    # prod x_i^delta, of degree size*delta, the expansion's packing bound.
    # That bound must leave every guard bit of the entries and of the
    # determinant clear; with (size-1)*delta, several of these sizes and
    # degrees would set one (3*3 = 9 in a 4-bit field, say).
    packings = []

    def recorded(num_vars, degree):
        packings.append(_packing(num_vars, degree))
        return packings[-1]

    def checked(work):
        found = expand(work)
        guard = packings[-1][2]
        assert not any(e & guard for row in work for x in row for e in x)
        assert not any(e & guard for e in found[1])
        return found

    expand = linalg._expand_by_minors
    monkeypatch.setattr(poly, "_packing", recorded)
    monkeypatch.setattr(linalg, "_expand_by_minors", checked)
    rows = [
        [{_x(i, delta, size): 1} if i == j else {_x(0, 0, size): 1} for j in range(size)]
        for i in range(size)
    ]
    pivots, det = _pivot_columns_poly([[MultiPoly(size, e) for e in row] for row in rows])
    assert len(packings) == 1
    assert (pivots, det.terms) == ref_pivots_and_det(rows, size)
    assert det.terms[(delta,) * size] == 1


@st.composite
def square_matrices(draw):
    """Square matrices of size 1-6 in 0-3 variables, entries of degree up to 10^12.

    Symmetric or not, and full, with a zero column, or of rank below the
    size: -B*C, or -B*B^T when symmetric, through fewer columns than rows.
    """
    num_vars = draw(st.integers(0, 3))
    degree = draw(st.sampled_from([1, 2, 3, 8, HUGE]))
    size = draw(st.integers(1, 6))
    symmetric = draw(st.booleans())
    shape = draw(st.sampled_from(["full", "zero column", "low rank"]))
    small = size < 4 and shape != "low rank"
    entries = term_dicts(num_vars, degree, max_terms=3 if small else 2)

    def block(rows, cols):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    if shape == "low rank":
        inner = draw(st.integers(0, size - 1))
        b = block(size, inner)
        c = [list(col) for col in zip(*b)] if symmetric else block(inner, size)
        rows = [[{} for _ in range(size)] for _ in range(size)]
        for i, j, k in itertools.product(range(size), range(size), range(inner)):
            rows[i][j] = ref_sub(rows[i][j], ref_mul(b[i][k], c[k][j]))
    else:
        rows = block(size, size)
        if symmetric:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
        if shape == "zero column":
            c = draw(st.integers(0, size - 1))
            for i in range(size):
                rows[i][c] = {}
                if symmetric:
                    rows[c][i] = {}
    return [[MultiPoly(num_vars, e) for e in row] for row in rows]


@settings(deadline=None, max_examples=100)
@given(square_matrices())
def test_expansion_matches_bareiss(m):
    # Read mod P at a point: exact Bareiss over Q[x] (``expansion_and_bareiss``)
    # took over a minute on a 6 x 6 draw of rank below its size, with entries
    # of up to 12 terms of degree up to 2 * 10^12, whose terms rarely collide.
    pivots, minor = expanded_pivot_columns(m)
    point = POINT[: minor.num_vars]
    assert (pivots, value_mod_p(minor, point)) == bareiss_mod_p(m, point)
