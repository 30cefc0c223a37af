"""Adapted coordinates, block decomposition, implicit expansion, rank relation."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import (
    MultiPoly,
    adapt_coordinates,
    block_decompose,
    build_hessian,
    compose_linear,
    differentiate,
    dual_dimension,
    evaluate,
    parse_poly,
    rank_at,
    rank_relation_check,
    second_order_implicit,
)
from symdeg.linalg import rank_rational

W = ["w0", "w1", "w2", "w3"]
X = ["x0", "x1", "x2", "x3"]
QUARTIC = "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2"
FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"
PRESHAPED = "x0^2*x3 + x0*x1^2 + x0*x2^2"


def oracle_vanishes_to_second_order(af, q):
    """Substitute the claimed implicit quadric back into f_adapted.

    Independent of the solver: plugs x_N = sum q[i][j] z_i z_j into
    f_adapted(1, z, x_N) with exact polynomial arithmetic and checks no
    monomial of total degree <= 2 survives.
    """
    n_mid = af.num_vars - 2
    q_poly = MultiPoly.zero(n_mid)
    for i in range(n_mid):
        for j in range(n_mid):
            mono = MultiPoly.variable(i, n_mid) * MultiPoly.variable(j, n_mid)
            q_poly = q_poly + q[i][j] * mono
    total = MultiPoly.zero(n_mid)
    for exps, coeff in af.f_adapted.terms.items():
        factor = MultiPoly.constant(coeff, n_mid)
        for mid in range(n_mid):
            factor = factor * MultiPoly.variable(mid, n_mid) ** exps[1 + mid]
        factor = factor * q_poly ** exps[-1]
        total = total + factor
    return all(sum(exps) > 2 for exps in total.terms)


# -- dual dimension ------------------------------------------------------------


def test_dual_dimension_quartic():
    assert dual_dimension(parse_poly(QUARTIC, W)) == 1


def test_dual_dimension_fermat_cubic():
    assert dual_dimension(parse_poly(FERMAT, X)) == 2


def test_dual_dimension_rejects_quadrics():
    with pytest.raises(ValueError, match="degree"):
        dual_dimension(parse_poly("x0*x3 + x1*x2", X))


def test_dual_dimension_rejects_rank_below_two():
    with pytest.raises(ValueError, match="generic rank below 2"):
        dual_dimension(parse_poly("x0^3", X))


def test_dual_dimension_bounded_by_ambient():
    for text, names in ((QUARTIC, W), (FERMAT, X)):
        f = parse_poly(text, names)
        assert dual_dimension(f) + 2 <= f.num_vars


# -- adapted coordinates ---------------------------------------------------------


def assert_adapted_invariants(af):
    n = af.num_vars
    e0 = [Fraction(0)] * n
    e0[0] = Fraction(1)
    assert evaluate(af.f_adapted, e0) == 0
    for i in range(n - 1):
        assert evaluate(differentiate(af.f_adapted, i), e0) == 0
    assert evaluate(differentiate(af.f_adapted, n - 1), e0) != 0

    # reconstruction: X0^(d-1)*XN + X0^(d-2)*(g + XN*L) + higher
    d = af.degree
    x0 = MultiPoly.variable(0, n)
    xn = MultiPoly.variable(n - 1, n)
    rebuilt = x0 ** (d - 1) * xn + x0 ** (d - 2) * (af.g + xn * af.ell) + af.higher
    assert rebuilt == af.f_adapted


def test_adapt_preshaped_is_identity():
    f = parse_poly(PRESHAPED, X)
    af = adapt_coordinates(f, (1, 0, 0, 0))
    eye = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(4))
        for i in range(4)
    )
    assert af.transform == eye
    assert af.scale == 1
    assert af.g == parse_poly("x1^2 + x2^2", X)
    assert af.ell.is_zero()
    assert af.higher.is_zero()
    assert_adapted_invariants(af)


def test_adapt_fermat_point():
    f = parse_poly(FERMAT, X)
    af = adapt_coordinates(f, (1, -1, 0, 0))
    assert_adapted_invariants(af)
    # transform column 0 is the point lift
    assert [row[0] for row in af.transform] == [1, -1, 0, 0]
    t = [list(row) for row in af.transform]
    assert rank_rational(t) == 4
    # f_adapted really is f composed with the transform, up to the scale
    assert compose_linear(f, t) == af.scale * af.f_adapted


def test_adapt_rejects_point_off_hypersurface():
    f = parse_poly(FERMAT, X)
    with pytest.raises(ValueError, match="lie on"):
        adapt_coordinates(f, (1, 1, 1, 1))


def test_adapt_rejects_singular_point():
    f = parse_poly(QUARTIC, W)
    with pytest.raises(ValueError, match="singular"):
        adapt_coordinates(f, (1, 0, 0, 0))


def test_adapt_rejects_zero_point():
    with pytest.raises(ValueError, match="zero point"):
        adapt_coordinates(parse_poly(FERMAT, X), (0, 0, 0, 0))


def test_adapt_rejects_linear_forms():
    with pytest.raises(ValueError):
        adapt_coordinates(parse_poly("x0 + x1", ["x0", "x1"]), (1, -1))


def test_adapt_rejects_inhomogeneous_forms():
    with pytest.raises(ValueError, match="^not homogeneous$"):
        adapt_coordinates(parse_poly("x0^2 + x1", ["x0", "x1"]), (1, -1))


def test_adapt_quartic_smooth_point():
    f = parse_poly(QUARTIC, W)
    af = adapt_coordinates(f, (0, 1, 0, 0))
    assert_adapted_invariants(af)


# -- block decomposition ----------------------------------------------------------


def test_block_preshaped():
    af = adapt_coordinates(parse_poly(PRESHAPED, X), (1, 0, 0, 0))
    block = block_decompose(af)
    assert block.a == ((2, 0), (0, 2))
    assert block.b == (0, 0)
    assert block.l_n == 0
    assembled = [list(row) for row in block.assembled]
    assert rank_rational(assembled) == 4
    # corners carry d-1 = 2
    assert assembled[0][3] == 2 and assembled[3][0] == 2
    assert assembled[0][0] == 0


def test_block_no_quadratic_part():
    # g = 0, L = 0: only the two corner entries remain, rank 2
    f = parse_poly("x0^2*x3 + x3^3", X)
    af = adapt_coordinates(f, (1, 0, 0, 0))
    block = block_decompose(af)
    assert all(x == 0 for row in block.a for x in row)
    assert rank_rational([list(row) for row in block.assembled]) == 2


def test_block_fermat_point_middle_rank_zero():
    af = adapt_coordinates(parse_poly(FERMAT, X), (1, -1, 0, 0))
    block = block_decompose(af)
    assert rank_rational([list(row) for row in block.a]) == 0
    assert rank_rational([list(row) for row in block.assembled]) == 2


def test_block_assembled_matches_hessian_at_point():
    af = adapt_coordinates(parse_poly(QUARTIC, W), (0, 1, 0, 0))
    block = block_decompose(af)
    h = build_hessian(af.f_adapted)
    e0 = [1, 0, 0, 0]
    from symdeg import evaluate_hessian

    assert [list(row) for row in block.assembled] == evaluate_hessian(h, e0)


def test_block_rank_is_middle_rank_plus_two():
    for text, names, p in (
        (PRESHAPED, X, (1, 0, 0, 0)),
        (FERMAT, X, (1, -1, 0, 0)),
        (QUARTIC, W, (0, 1, 0, 0)),
    ):
        af = adapt_coordinates(parse_poly(text, names), p)
        block = block_decompose(af)
        rank_mid = rank_rational([list(row) for row in block.a])
        rank_full = rank_rational([list(row) for row in block.assembled])
        assert rank_full == rank_mid + 2


# -- the block by the chain rule -------------------------------------------------------


def hessian_at(f, p):
    """H_f(p), differentiating each term c*x^e of f by hand."""
    n = f.num_vars
    h = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in f.terms.items():
        for i in range(n):
            for j in range(n):
                e = list(exps)
                k = coeff * e[i]
                e[i] -= 1
                k *= e[j]
                e[j] -= 1
                if k:
                    for c, x in zip(p, e):
                        k *= Fraction(c) ** x
                    h[i][j] += k
    return h


def assert_block_by_the_chain_rule(f, p):
    # f_adapted(y) = f(T y)/scale and T e0 = p, so its Hessian at e0 is
    # T^t H_f(p) T / scale.
    af = adapt_coordinates(f, p)
    t, n = af.transform, f.num_vars
    h = hessian_at(f, p)
    expected = [
        [sum(t[k][i] * h[k][m] * t[m][j] for k in range(n) for m in range(n)) / af.scale for j in range(n)]
        for i in range(n)
    ]
    assert [list(row) for row in block_decompose(af).assembled] == expected
    middle = [row[1:-1] for row in expected[1:-1]]
    assert second_order_implicit(af) == [[-x / 2 for x in row] for row in middle]


def random_smooth_points(seed, count):
    """(f, p): a sparse cubic or quartic in 3-6 variables, made to vanish at p
    by subtracting a pure power, with p a smooth point of f = 0."""
    rng = random.Random(seed)
    while count:
        n, d = rng.randint(3, 6), rng.choice((3, 4))
        monomials = list(combinations_with_replacement(range(n), d))
        terms = {
            tuple(map(mono.count, range(n))): Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
            for mono in rng.sample(monomials, min(len(monomials), rng.randint(3, 10)))
        }
        p = [rng.randint(-3, 3) for _ in range(n)]
        if not any(p):
            continue
        i = next(k for k in range(n) if p[k])
        f = MultiPoly(n, terms)
        f = f - MultiPoly(n, {tuple(d * (k == i) for k in range(n)): evaluate(f, p) / p[i] ** d})
        if any(evaluate(differentiate(f, k), p) for k in range(n)):
            count -= 1
            yield f, p


@pytest.mark.parametrize(
    "text, names, p",
    [(PRESHAPED, X, (1, 0, 0, 0)), (FERMAT, X, (1, -1, 0, 0)), (QUARTIC, W, (0, 1, 0, 0))],
    ids=["preshaped", "fermat", "quartic"],
)
def test_block_is_the_transformed_hessian(text, names, p):
    assert_block_by_the_chain_rule(parse_poly(text, names), p)


def test_block_is_the_transformed_hessian_at_random_smooth_points():
    for f, p in random_smooth_points(3, 60):
        assert_block_by_the_chain_rule(f, p)


# -- second-order implicit expansion ------------------------------------------------


def test_implicit_preshaped():
    af = adapt_coordinates(parse_poly(PRESHAPED, X), (1, 0, 0, 0))
    q = second_order_implicit(af)
    assert q == [[-1, 0], [0, -1]]
    assert oracle_vanishes_to_second_order(af, q)


def test_implicit_no_quadratic_part():
    af = adapt_coordinates(parse_poly("x0^2*x3 + x3^3", X), (1, 0, 0, 0))
    q = second_order_implicit(af)
    assert q == [[0, 0], [0, 0]]
    assert oracle_vanishes_to_second_order(af, q)


def test_implicit_off_diagonal():
    f = parse_poly("x0^2*x3 + x0*x1*x2", X)
    af = adapt_coordinates(f, (1, 0, 0, 0))
    q = second_order_implicit(af)
    assert q == [[0, Fraction(-1, 2)], [Fraction(-1, 2), 0]]
    assert oracle_vanishes_to_second_order(af, q)


def test_implicit_equals_minus_half_middle_block():
    for text, names, p in (
        (FERMAT, X, (1, -1, 0, 0)),
        (QUARTIC, W, (0, 1, 0, 0)),
    ):
        af = adapt_coordinates(parse_poly(text, names), p)
        block = block_decompose(af)
        q = second_order_implicit(af)
        n_mid = af.num_vars - 2
        for i in range(n_mid):
            for j in range(n_mid):
                assert q[i][j] == -block.a[i][j] / 2
        assert oracle_vanishes_to_second_order(af, q)


# -- rank relation -------------------------------------------------------------------


def test_rank_relation_fermat():
    report = rank_relation_check(parse_poly(FERMAT, X), (1, -1, 0, 0))
    assert (report.rank_q, report.rank_a, report.holds) == (2, 0, True)


def test_rank_relation_preshaped():
    report = rank_relation_check(parse_poly(PRESHAPED, X), (1, 0, 0, 0))
    assert (report.rank_q, report.rank_a, report.holds) == (4, 2, True)


def test_rank_relation_quartic_smooth_point():
    f = parse_poly(QUARTIC, W)
    gradient = [evaluate(differentiate(f, i), [0, 1, 0, 0]) for i in range(4)]
    assert any(x != 0 for x in gradient)
    report = rank_relation_check(f, (0, 1, 0, 0))
    assert (report.rank_q, report.rank_a, report.holds) == (3, 1, True)


def test_rank_relation_requires_cubic_or_higher():
    with pytest.raises(ValueError):
        rank_relation_check(parse_poly("x0*x3 + x1*x2", X), (1, 0, 0, 0))


# -- coordinate invariance ------------------------------------------------------------


def unimodular_4x4():
    shears = []
    for i in range(4):
        for j in range(4):
            if i != j:
                m = [[Fraction(1 if a == b else 0) for b in range(4)] for a in range(4)]
                m[i][j] = Fraction(1)
                shears.append(tuple(tuple(row) for row in m))
    return shears


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(unimodular_4x4()),
    st.sampled_from(unimodular_4x4()),
    st.tuples(*[st.integers(-4, 4) for _ in range(4)]).filter(lambda p: any(p)),
)
def test_rank_is_coordinate_invariant(t1, t2, p):
    from symdeg.linalg import mat_mul

    t = mat_mul([list(r) for r in t1], [list(r) for r in t2])
    f = parse_poly(QUARTIC, W)
    h = build_hessian(f)
    g = build_hessian(compose_linear(f, t))
    # g = f(t y), so H_g(y) = t^T H_f(t y) t, and t is unimodular.
    pushed = [sum(t[i][j] * p[j] for j in range(4)) for i in range(4)]
    assert rank_at(g, p) == rank_at(h, pushed)
