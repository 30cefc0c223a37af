"""Polynomial core: parsing, calculus, divisibility, canonical text."""

import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symdeg import (
    MultiPoly,
    PolyParseError,
    compose_linear,
    differentiate,
    divides,
    evaluate,
    homogeneous_degree,
    parse_poly,
)
from symdeg import poly
from symdeg.poly import _primitive

from parse_reference import parse_poly as reference_parse_poly

QUARTIC = "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2"
W = ["w0", "w1", "w2", "w3"]


def oracle_eval(terms, point):
    """Independent evaluation: walk the term map with bare pow/mul."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = Fraction(coeff)
        for c, e in zip(point, exps):
            value *= Fraction(c) ** e
        total += value
    return total


# -- strategies -------------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)


@st.composite
def polys(draw, num_vars=None, max_degree=3, max_terms=5):
    n = num_vars if num_vars is not None else draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(n)])
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return MultiPoly(n, terms)


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(polys(num_vars=n)), draw(polys(num_vars=n))


@st.composite
def homogeneous_polys(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, d) for _ in range(n)]).filter(
        lambda e: sum(e) == d
    )
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    return MultiPoly(n, terms)


def points(n):
    return st.tuples(*[coeffs for _ in range(n)])


# -- construction -------------------------------------------------------------


X2 = MultiPoly.variable(0, 2)
X3 = MultiPoly.variable(0, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MultiPoly(2, {(1,): 1}), "exponent vector (1,) has length 1, expected 2"),
        (lambda: MultiPoly(2, {(1, -1): 1}), "negative exponent in (1, -1)"),
        (lambda: MultiPoly(-1, {}), "num_vars must be non-negative"),
        (lambda: MultiPoly.variable(2, 2), "variable index 2 out of range for 2 variables"),
        (lambda: MultiPoly.zero(2).total_degree(), "zero polynomial has no total degree"),
        (lambda: X2**-1, "negative powers are not polynomials"),
        (lambda: X2.format(["a"]), "wrong number of variable names"),
        (lambda: X2 + X3, "mixed variable counts: 2 vs 3"),
        (lambda: divides(X2, X3), "mixed variable counts"),
        (
            lambda: compose_linear(X2, [[1, 0]]),
            "substitution matrix must be square of size num_vars",
        ),
    ],
    ids=[
        "wrong-length", "negative-exponent", "negative-num-vars", "variable-out-of-range",
        "zero-total-degree", "negative-power", "name-count", "mixed-rings-sum",
        "mixed-rings-divides", "non-square-substitution",
    ],
)
def test_multipoly_rejects_invalid_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_multipoly_operators_and_identity():
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    p = x0 + 2 * x1
    assert str(1 - p) == "-x0 - 2*x1 + 1"
    for op in (lambda: p + "a", lambda: p * "a"):
        with pytest.raises(TypeError):
            op()
    assert (p == "a") is False
    assert hash(p) == hash(x1 * 2 + x0)
    assert repr(p) == "MultiPoly(2, 'x0 + 2*x1')"
    with pytest.raises(AttributeError, match="^MultiPoly is immutable$"):
        p.num_vars = 3


def test_multipoly_drops_zero_coefficients():
    p = MultiPoly(2, {(1, 0): 0, (0, 1): Fraction(3, 2), (0, 0): Fraction(0)})
    assert p.terms == {(0, 1): Fraction(3, 2)}
    assert MultiPoly(1, {(2,): 0}).is_zero()


# -- parsing ----------------------------------------------------------------


def test_parse_single_monomial():
    p = parse_poly("x0^2", ["x0"])
    assert p.terms == {(2,): Fraction(1)}


def test_parse_worked_quartic_terms():
    f = parse_poly(QUARTIC, W)
    assert len(f.terms) == 5
    assert f.coefficient((2, 0, 0, 2)) == 1
    assert f.coefficient((1, 1, 1, 1)) == -6
    assert f.coefficient((1, 0, 3, 0)) == 4
    assert f.coefficient((0, 3, 0, 1)) == 4
    assert f.coefficient((0, 2, 2, 0)) == -3
    assert homogeneous_degree(f) == 4


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("x0 + y", ["x0", "x1"])


def test_parse_reports_position():
    with pytest.raises(PolyParseError, match="position"):
        parse_poly("x0 + ?", ["x0"])


def test_parse_rational_coefficient_and_signs():
    p = parse_poly("-1/2*x0 + 3*x0", ["x0"])
    assert p.terms == {(1,): Fraction(5, 2)}


@pytest.mark.parametrize(
    "text, terms",
    [
        ("x0 + x0", {(1, 0): Fraction(2)}),
        ("x0 - x0 + x1", {(0, 1): Fraction(1)}),
        ("x0*x0^2", {(3, 0): Fraction(1)}),
        ("-x0 + x0", {}),
    ],
)
def test_parse_collects_repeated_and_cancelling_terms(text, terms):
    assert parse_poly(text, ["x0", "x1"]).terms == terms


def test_parse_whitespace_insensitive():
    assert parse_poly(" x0 ^ 2 * x1 ", ["x0", "x1"]) == parse_poly("x0^2*x1", ["x0", "x1"])


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolyParseError):
        parse_poly("x0 x1", ["x0", "x1"])


def test_parse_empty():
    with pytest.raises(PolyParseError):
        parse_poly("   ", ["x0"])


def test_parse_reads_decimal_digit_runs_only():
    # "²" is a digit to str.isdigit but not to int; "١" (Arabic-Indic one)
    # is decimal, and int reads it as 1.
    with pytest.raises(PolyParseError, match=r"^unexpected character '²' at position 3$"):
        parse_poly("x0^²", ["x0"])
    assert parse_poly("x0^١", ["x0"]) == parse_poly("x0", ["x0"])
    assert parse_poly("١٢*x0", ["x0"]) == parse_poly("12*x0", ["x0"])


# -- parsing against the two-level reference parser ------------------------------

PARSE_VARS = ["x0", "x1", "x2"]
PARSE_PIECES = ["x0", "x1", "x2", "y", "0", "1", "13", "+", "-", "*", "/", "^", " ", "?"]


def parse_outcome(parse, text):
    """The terms ``parse`` reads, or the type and message of what it raises."""
    try:
        return parse(text, PARSE_VARS).terms
    except Exception as exc:  # any exception is an outcome to compare
        return type(exc), str(exc)


def seeded_text(rng):
    """A polynomial in PARSE_VARS, up to two pieces inserted, replaced or
    deleted, joined with or without spaces, and cut short three times in ten."""
    pieces = [rng.choice(["", "+", "-"])]
    for k in range(rng.randint(1, 3)):
        if k:
            pieces.append(rng.choice("+-"))
        for j in range(rng.randint(1, 3)):
            if j:
                pieces.append("*")
            pieces += rng.choice([["x0"], ["x2", "^", "2"], ["3"], ["1", "/", rng.choice("0223")]])
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(pieces) + 1)
        pieces[i : i + rng.randint(0, 1)] = [rng.choice(PARSE_PIECES)] * rng.randint(0, 1)
    text = rng.choice([" ", ""]).join(pieces)
    return text[: rng.randint(0, len(text))] if rng.random() < 0.3 else text


@pytest.mark.parametrize("text", ["+", " +13*", "0+ ", "x0^", "2/", "-", ""])
def test_parse_matches_reference_at_the_end_of_input(text):
    assert parse_outcome(parse_poly, text) == parse_outcome(reference_parse_poly, text)


def test_parse_matches_reference_on_seeded_strings():
    # Every outcome comes up hundreds of times: whole polynomials, and each
    # error (end of input after a sign, "*", "/" or "^"; a missing or zero
    # denominator; a missing exponent; an unknown name or character;
    # trailing tokens).
    rng = random.Random(18)
    seen = set()
    for _ in range(20_000):
        text = seeded_text(rng)
        expected = parse_outcome(reference_parse_poly, text)
        assert parse_outcome(parse_poly, text) == expected, text
        seen.add("terms" if isinstance(expected, dict) else expected[1].split(" at ")[0][:12])
    assert len(seen) == 10, seen


@settings(deadline=None, max_examples=500)
@given(st.lists(st.sampled_from(PARSE_PIECES) | st.characters(), max_size=12).map("".join))
def test_parse_matches_reference_on_any_text(text):
    # The two tokenizers differ only on digits that are not decimal.
    assume(not any(c.isdigit() and not c.isdecimal() for c in text))
    assert parse_outcome(parse_poly, text) == parse_outcome(reference_parse_poly, text)


# -- evaluation --------------------------------------------------------------


def test_evaluate_quartic_at_unit_points():
    f = parse_poly(QUARTIC, W)
    assert evaluate(f, [1, 0, 0, 0]) == 0
    # 1 - 6 + 4 + 4 - 3 = 0
    assert evaluate(f, [1, 1, 1, 1]) == 0


def test_evaluate_pythagorean():
    p = parse_poly("x0^2 + x1^2", ["x0", "x1"])
    assert evaluate(p, [3, 4]) == 25


def test_evaluate_int_and_float_points_are_exact():
    p = parse_poly("x0^2*x1 - 3*x1^3 + 1/3", ["x0", "x1"])
    for point, exact in (([3, -2], [Fraction(3), Fraction(-2)]),
                         ([0.5, -0.25], [Fraction(1, 2), Fraction(-1, 4)])):
        value = evaluate(p, point)
        assert type(value) is Fraction
        assert value == evaluate(p, exact)


def test_evaluate_budget_bounds_each_term():
    from symdeg.poly import _EVALUATE_BITS

    p = parse_poly(f"x0^{_EVALUATE_BITS} + x1^{10**12}", ["x0", "x1"])
    # 2^e costs e bits, 1/2 the same; 0 and +-1 cost nothing
    assert evaluate(p, [2, 0]) == 2**_EVALUATE_BITS
    assert evaluate(p, [Fraction(-1, 2), 1]) == Fraction(1, 2**_EVALUATE_BITS) + 1
    for point in ([4, 1], [Fraction(1, 4), 1], [1, 2]):
        with pytest.raises(ValueError, match="budget"):
            evaluate(p, point)


def test_evaluate_dimension_mismatch():
    p = parse_poly("x0", ["x0"])
    with pytest.raises(ValueError):
        evaluate(p, [1, 2])


@settings(deadline=None)
@given(poly_pairs(), st.data())
def test_evaluate_is_ring_homomorphism(pair, data):
    p, q = pair
    x = data.draw(points(p.num_vars))
    assert evaluate(p + q, x) == evaluate(p, x) + evaluate(q, x)
    assert evaluate(p * q, x) == evaluate(p, x) * evaluate(q, x)


@settings(deadline=None)
@given(polys(), st.data())
def test_evaluate_matches_direct_substitution_oracle(p, data):
    x = data.draw(points(p.num_vars))
    assert evaluate(p, x) == oracle_eval(p.terms, x)


# -- differentiation -----------------------------------------------------------


def test_differentiate_power_rule():
    p = parse_poly("x0^2*x3^2", ["x0", "x1", "x2", "x3"])
    assert differentiate(p, 0) == parse_poly("2*x0*x3^2", ["x0", "x1", "x2", "x3"])


def test_differentiate_constant():
    p = MultiPoly.constant(7, 2)
    assert differentiate(p, 0).is_zero()


def test_differentiate_quartic_w0():
    f = parse_poly(QUARTIC, W)
    expected = parse_poly("2*w0*w3^2 - 6*w1*w2*w3 + 4*w2^3", W)
    assert differentiate(f, 0) == expected


def test_differentiate_index_out_of_range():
    with pytest.raises(ValueError):
        differentiate(MultiPoly.constant(1, 2), 2)


@settings(deadline=None)
@given(poly_pairs())
def test_product_rule(pair):
    p, q = pair
    for i in range(p.num_vars):
        lhs = differentiate(p * q, i)
        rhs = differentiate(p, i) * q + p * differentiate(q, i)
        assert lhs == rhs


@settings(deadline=None)
@given(polys(num_vars=3))
def test_mixed_partials_commute(p):
    for i in range(3):
        for j in range(i):
            assert differentiate(differentiate(p, i), j) == differentiate(
                differentiate(p, j), i
            )


@settings(deadline=None)
@given(homogeneous_polys())
def test_euler_identity(p):
    if p.is_zero():
        return
    d = homogeneous_degree(p)
    total = MultiPoly.zero(p.num_vars)
    for i in range(p.num_vars):
        total = total + MultiPoly.variable(i, p.num_vars) * differentiate(p, i)
    assert total == d * p


# -- homogeneity ----------------------------------------------------------------


def test_homogeneous_degree_cases():
    assert homogeneous_degree(parse_poly(QUARTIC, W)) == 4
    assert homogeneous_degree(parse_poly("x0 + x1^2", ["x0", "x1"])) is None
    zero = MultiPoly.zero(2)
    assert homogeneous_degree(zero) is None
    assert zero.is_zero()


# -- divisibility -----------------------------------------------------------------


def test_divides_simple():
    x0 = parse_poly("x0", ["x0", "x1"])
    x0sq = parse_poly("x0^2", ["x0", "x1"])
    x1 = parse_poly("x1", ["x0", "x1"])
    assert divides(x0, x0sq) == x0
    assert divides(x0, x1) is None


def test_divides_by_zero():
    with pytest.raises(ValueError):
        divides(MultiPoly.zero(1), MultiPoly.constant(1, 1))


def test_divides_verifies_by_multiplication():
    f = parse_poly("x0^2 + x1", ["x0", "x1"])
    m = parse_poly("x0^4 + 2*x0^2*x1 + x1^2", ["x0", "x1"])
    q = divides(f, m)
    assert q is not None
    assert q * f == m


@settings(deadline=None)
@given(poly_pairs())
def test_divides_recovers_quotient(pair):
    f, q = pair
    if f.is_zero():
        return
    result = divides(f, q * f)
    assert result == q


@settings(deadline=None)
@given(poly_pairs())
def test_divides_matches_sympy_division(pair):
    """None exactly when sympy's grlex division over QQ leaves a remainder."""
    sympy = pytest.importorskip("sympy")
    f, m = pair
    if f.is_zero():
        return
    gens = sympy.symbols(f"x0:{f.num_vars}")

    def to_sympy(p):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *gens, domain="QQ")

    for dividend in (m, m * f):
        quotients, remainder = sympy.reduced(
            to_sympy(dividend), [to_sympy(f)], *gens, order="grlex", polys=True
        )
        result = divides(f, dividend)
        if not remainder.is_zero:
            assert result is None
        else:
            expected = quotients[0].as_dict() if quotients else {}
            assert result is not None
            assert result.terms == {
                e: Fraction(int(c.p), int(c.q)) for e, c in expected.items() if c != 0
            }


# The support of the benchmark's dense quartic (bench/workloads.py): 17
# monomials of degree 4 in 5 variables, drawn once from a fixed seed.
DENSE_QUARTIC_SUPPORT = sorted(
    random.Random("dense-quartic-support").sample(
        sorted(e for e in itertools.product(range(5), repeat=5) if sum(e) == 4), 17
    ),
    reverse=True,
)


def dense_quartic_and_quotient():
    rng = random.Random(7)
    f = MultiPoly(5, {e: rng.choice([-1, 1]) * rng.randint(1, 9) for e in DENSE_QUARTIC_SUPPORT})
    small = [e for e in itertools.product(range(3), repeat=5) if sum(e) <= 3]
    q = MultiPoly(
        5, {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for e in rng.sample(small, 40)}
    )
    return f, q


def test_divides_recovers_large_quotient_of_dense_quartic():
    f, q = dense_quartic_and_quotient()
    assert len(q.terms) >= 30
    assert divides(f, q * f) == q


def test_divides_rejects_monomial_below_the_leading_term():
    f, q = dense_quartic_and_quotient()
    m = q * f
    t = MultiPoly.variable(4, 5)
    assert t.terms.keys().isdisjoint(m.terms)
    assert divides(f, m + t) is None


def test_divides_stops_at_a_quotient_coefficient_that_is_not_an_integer():
    # The first step of 3*x0^2 + x0*x1 by the primitive 2*x0 + x1 needs
    # t = 3/2, which no quotient in Z[x] has.  Truncated to 1, t*f would
    # cancel the dividend and return x0, which the degree box admits.
    v = ["x0", "x1"]
    assert divides(parse_poly("2*x0 + x1", v), parse_poly("3*x0^2 + x0*x1", v)) is None


def test_divides_when_the_box_ceiling_sums_past_the_packing_bound():
    # m has total degree 4, so fields are 4 bits wide, while the ceilings
    # 3, 3, 3, 3, 3, 3 sum to 18: each ceiling must fit its own field, and
    # their sum needs no field.
    names = [f"x{i}" for i in range(6)]
    f = parse_poly("x0 + x1", names)
    q = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3", names)
    assert divides(f, f * q) == q


@pytest.mark.parametrize(
    "values, scale, ints",
    [
        ([], 1, []),
        ([0, Fraction(0), 0.0], 1, [0, 0, 0]),
        ([Fraction(-4, 3), 2, Fraction(0), Fraction(-2, 9)], Fraction(9, 2), [-6, 9, 0, -1]),
        ([0.5, Fraction(-3, 4)], 4, [2, -3]),
        ([-6, 9], Fraction(1, 3), [-2, 3]),
    ],
)
def test_primitive_scales_into_coprime_integers(values, scale, ints):
    c, got = _primitive(values)
    assert (c, got) == (scale, ints)
    assert c > 0 and all(type(x) is int for x in got)
    assert [c * Fraction(x) for x in values] == got


def test_divides_skips_cancelled_then_recreated_terms():
    # Dividing by x0^2 + x0*x1 + x1^2: the first step cancels x0^2*x1^2,
    # the second creates it again, the third cancels it for good.
    v = ["x0", "x1"]
    f = parse_poly("x0^2 + x0*x1 + x1^2", v)
    assert divides(f, parse_poly("x0^4 + x0^2*x1^2 + x1^4", v)) == parse_poly(
        "x0^2 - x0*x1 + x1^2", v
    )
    assert divides(f, parse_poly("x0^4 + x0^2*x1^2 + x1^4 + x1", v)) is None


def test_divides_pushes_each_monomial_once(monkeypatch):
    # The same first division: x0^2*x1^2 keeps its 0 in the remainder after
    # the first step cancels it, so the second step finds it there and does
    # not push it again.  The three terms of m go in by heapify, and the
    # steps push x0^3*x1 and x0*x1^3, each once.
    entered = []

    def recorded_heapify(heap):
        entered.extend(heap)
        heapq.heapify(heap)

    def recorded_heappush(heap, key):
        entered.append(key)
        heapq.heappush(heap, key)

    monkeypatch.setattr(poly, "heapify", recorded_heapify)
    monkeypatch.setattr(poly, "heappush", recorded_heappush)
    v = ["x0", "x1"]
    f = parse_poly("x0^2 + x0*x1 + x1^2", v)
    m = parse_poly("x0^4 + x0^2*x1^2 + x1^4", v)
    assert divides(f, m) == parse_poly("x0^2 - x0*x1 + x1^2", v)
    assert len(entered) == 3 + 2 == len(set(entered))


# -- canonical text form ------------------------------------------------------------


def test_format_orders_by_graded_lex():
    p = parse_poly("x1 + x0^2 - 1/2", ["x0", "x1"])
    assert p.format(["x0", "x1"]) == "x0^2 + x1 - 1/2"


def test_format_fraction_coefficients():
    p = parse_poly("3/4*x0^2 - x1", ["x0", "x1"])
    assert p.format(["x0", "x1"]) == "3/4*x0^2 - x1"


def test_format_zero():
    assert MultiPoly.zero(3).format() == "0"


@settings(deadline=None)
@given(polys())
def test_format_parse_round_trip(p):
    names = [f"x{i}" for i in range(p.num_vars)]
    assert parse_poly(p.format(names), names) == p


# -- linear substitution ---------------------------------------------------------------


def test_compose_linear_identity():
    f = parse_poly(QUARTIC, W)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert compose_linear(f, eye) == f


def test_compose_linear_swaps_variables():
    p = parse_poly("x0^2*x1", ["x0", "x1"])
    swap = [[0, 1], [1, 0]]
    assert compose_linear(p, swap) == parse_poly("x1^2*x0", ["x0", "x1"])


def test_compose_linear_budget_bounds_each_term(monkeypatch):
    import symdeg.poly
    from symdeg.poly import _EVALUATE_BITS

    names = ["x0", "x1", "x2"]
    mix = [[1, 1, 0], [0, 1, -1], [0, 0, 1]]
    # (y0 + y1)^1023 * (y1 - y2)^1024 would have up to 1024 * 1025 > 2^20 terms
    with pytest.raises(ValueError, match="budget 1048576"):
        compose_linear(parse_poly("x0^1023*x1^1024", names), mix)
    # the dense row of adapted coordinates raises x0^4 in 14 variables to 2,380 terms
    wide = [f"x{i}" for i in range(14)]
    dense = [[int(i == j) for j in range(14)] for i in range(14)]
    dense[0] = [Fraction(j + 1, 3) for j in range(14)]
    row = parse_poly(" + ".join(f"{j + 1}/3*x{j}" for j in range(14)), wide)
    assert compose_linear(parse_poly("x0^4", wide), dense) == row**4
    # the same bounds, inclusive, under a budget small enough to build
    monkeypatch.setattr(symdeg.poly, "_COMPOSE_TERMS", 45 * 45)
    composed = compose_linear(parse_poly("x0^44*x1^44", names), mix)
    assert len(composed.terms) <= 45 * 45
    with pytest.raises(ValueError, match="terms"):
        compose_linear(parse_poly("x0^44*x1^45", names), mix)
    # in two variables a degree-100 product has at most 101 terms, whatever the powers
    p = parse_poly("x0^50*x1^50", names[:2])
    assert compose_linear(p, [[1, 1], [1, -1]]) == parse_poly("x0^2 - x1^2", names[:2]) ** 50
    monkeypatch.undo()
    # a monomial image costs no terms; c^e costs e * (bits of c - 1)
    p = parse_poly(f"x0^{_EVALUATE_BITS}", ["x0"])
    assert compose_linear(p, [[2]]).terms == {(_EVALUATE_BITS,): 2**_EVALUATE_BITS}
    assert compose_linear(p * p, [[-1]]) == p * p
    for c in (4, Fraction(1, 4), Fraction(-3, 4)):
        with pytest.raises(ValueError, match="bits"):
            compose_linear(p, [[c]])


@settings(deadline=None, max_examples=50)
@given(polys(num_vars=2, max_degree=2), st.data())
def test_compose_linear_matches_pointwise(p, data):
    entries = st.integers(-3, 3)
    matrix = [[data.draw(entries) for _ in range(2)] for _ in range(2)]
    y = data.draw(points(2))
    substituted = compose_linear(p, matrix)
    image = [sum(Fraction(matrix[i][j]) * y[j] for j in range(2)) for i in range(2)]
    assert evaluate(substituted, y) == evaluate(p, image)
