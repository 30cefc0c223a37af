"""Exact linear algebra: rank, minors, Smith form, cokernels."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import (
    FGAbelianGroup,
    InternalCheckError,
    MultiPoly,
    cokernel,
    det_rational,
    evaluate,
    parse_poly,
    rank_rational,
    smith_normal_form,
)
from symdeg.cli import to_json
from symdeg.linalg import _bareiss, _colex_subsets, _pivot_columns_poly, mat_mul

from minors import det_poly, minor_dets

# -- oracles (written before the tests that consume them) --------------------


def oracle_rank_gauss(m):
    """Rank via naive Gaussian elimination with rational pivoting."""
    work = [[Fraction(x) for x in row] for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(rows):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def oracle_det_permanent_style(m):
    """Determinant by signed permutation expansion; works for any ring."""
    n = len(m)
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        product = m[0][perm[0]]
        for i in range(1, n):
            product = product * m[i][perm[i]]
        signed = product if inversions % 2 == 0 else -product
        total = signed if total is None else total + signed
    return total


def ints():
    return st.integers(-9, 9)


def int_matrices(max_size=8):
    return st.integers(1, max_size).flatmap(
        lambda r: st.integers(1, max_size).flatmap(
            lambda c: st.lists(
                st.lists(ints(), min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


# -- rank ---------------------------------------------------------------------


def test_rank_fermat_hessian_point_values():
    m = [[6, 0, 0, 0], [0, -6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert rank_rational(m) == 2


def test_rank_identity_and_zero():
    eye5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert rank_rational(eye5) == 5
    assert rank_rational([[0] * 4 for _ in range(3)]) == 0


def test_rank_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1)]]
    assert rank_rational(m) == 2
    dependent = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank_rational(dependent) == 1
    # int and Fraction mixed, each row with its own denominators
    mixed = [
        [1, Fraction(1, 4), 2],
        [Fraction(2, 3), Fraction(1, 6), Fraction(4, 3)],
        [0, 5, Fraction(7, 5)],
    ]
    assert rank_rational(mixed) == 2
    # a float entry keeps its exact binary value
    assert rank_rational([[0.5, 1], [1, 2]]) == 1


@settings(deadline=None)
@given(int_matrices())
def test_rank_matches_gaussian_oracle(m):
    assert rank_rational(m) == oracle_rank_gauss(m)


@settings(deadline=None)
@given(int_matrices(max_size=5))
def test_rank_matches_snf_nonzero_count(m):
    _, d, _ = smith_normal_form(m)
    snf_rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    assert rank_rational(m) == snf_rank


# -- determinants and inverses --------------------------------------------------


def test_det_rational_golden():
    assert det_rational([[1, 2], [3, 4]]) == -2
    assert det_rational([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert det_rational([[1, Fraction(1, 4)], [Fraction(2, 3), 5]]) == Fraction(29, 6)
    assert det_rational([[0.5]]) == Fraction(1, 2)


def rationals():
    return st.one_of(ints(), st.fractions(-9, 9, max_denominator=6))


def square_matrices(entries, min_size, max_size):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(deadline=None)
@given(square_matrices(rationals(), 0, 5))
def test_det_matches_permutation_oracle(m):
    # rational entries exercise the row scaling; the empty matrix has det 1
    expected = oracle_det_permanent_style([[Fraction(x) for x in row] for row in m]) if m else 1
    assert det_rational(m) == expected


# -- polynomial minors -----------------------------------------------------------


def sym2():
    x0 = MultiPoly.variable(0, 2)
    x1 = MultiPoly.variable(1, 2)
    return [[x0, x1], [x1, x0]]


def test_minor_full_determinant_of_symbol_matrix():
    minors = list(minor_dets(sym2(), 2))
    assert len(minors) == 1
    rows, cols, det = minors[0]
    assert rows == (0, 1) and cols == (0, 1)
    assert det == parse_poly("x0^2 - x1^2", ["x0", "x1"])


def test_minor_k0_convention():
    minors = list(minor_dets(sym2(), 0))
    assert len(minors) == 1
    assert minors[0][2] == MultiPoly.constant(1, 2)


def test_det_poly_of_the_empty_matrix_is_one():
    pivots, minor = _pivot_columns_poly([])
    assert pivots == () and repr(minor) == "MultiPoly(0, '1')"


X2 = MultiPoly.variable(0, 2)
X3 = MultiPoly.variable(0, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_rational([[1, 2], [3]]), "ragged matrix"),
        (lambda: mat_mul([[1, 2]], [[1, 2]]), "cannot multiply 1x2 by 1x2"),
        (lambda: det_rational([[1, 2]]), "determinant needs a square matrix"),
        (
            lambda: _pivot_columns_poly([[X2, X3], [X2, X2]]),
            "matrix entries live in different polynomial rings",
        ),
    ],
    ids=["ragged", "mat-mul-shapes", "det-not-square", "mixed-rings"],
)
def test_malformed_matrices_are_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_minor_k_out_of_range():
    with pytest.raises(ValueError):
        list(minor_dets(sym2(), 3))


def test_minor_enumeration_is_colexicographic():
    x0 = MultiPoly.variable(0, 1)
    m = [[x0] * 4 for _ in range(4)]
    first_block = [cols for rows, cols, _ in minor_dets(m, 2) if rows == (0, 1)]
    assert first_block == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    row_sets = []
    for rows, _, _ in minor_dets(m, 2):
        if rows not in row_sets:
            row_sets.append(rows)
    assert row_sets == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize(
    "pool", [range(6), [2, 3, 7, 9], [], [5], range(9), [1, 4, 5, 8, 13, 21]], ids=repr
)
def test_colex_subsets_match_sorted_combinations(pool):
    for k in range(len(pool) + 2):
        expected = sorted(itertools.combinations(pool, k), key=lambda s: s[::-1])
        assert list(_colex_subsets(pool, k)) == expected


def test_colex_subsets_walk_a_pool_deeper_than_the_recursion_limit():
    sets = list(_colex_subsets(range(1100), 1099))
    assert len(sets) == 1100
    assert sets[0] == tuple(range(1099))
    assert sets[-1] == tuple(range(1, 1100))


def test_quartic_hessian_full_minor_degree_eight():
    from symdeg import build_hessian

    f = parse_poly(
        "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2",
        ["w0", "w1", "w2", "w3"],
    )
    h = build_hessian(f)
    minors = list(minor_dets([list(row) for row in h.hessian], 4))
    assert len(minors) == 1
    det = minors[0][2]
    assert det.total_degree() == 8
    assert det == oracle_det_permanent_style([list(row) for row in h.hessian])


# Entries in 3 variables of degree <= 2 with denominators 1..6, so that the
# scaling into Z[x] and multi-term divisions both run.
POLY_ENTRIES = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2),
    st.fractions(-3, 3, max_denominator=6),
    max_size=3,
).map(lambda terms: MultiPoly(3, terms))


@settings(deadline=None, max_examples=60)
@given(square_matrices(POLY_ENTRIES, 1, 4))
def test_det_poly_matches_permutation_oracle(m):
    assert det_poly(m) == oracle_det_permanent_style(m)


def random_quartic(num_vars, num_terms, seed):
    rng = random.Random(seed)
    monomials = [e for e in itertools.product(range(5), repeat=num_vars) if sum(e) == 4]
    return MultiPoly(
        num_vars,
        {
            e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            for e in rng.sample(monomials, num_terms)
        },
    )


@pytest.mark.parametrize("num_vars, num_terms, seed", [(4, 35, 0), (5, 17, 1), (5, 25, 2)])
def test_det_poly_of_hessian_matches_sympy_berkowitz(num_vars, num_terms, seed):
    """Full Hessian determinants of rational quartics (4 variables: all 35 terms)."""
    sympy = pytest.importorskip("sympy")
    from symdeg import build_hessian

    h = build_hessian(random_quartic(num_vars, num_terms, seed))
    ring, *_ = sympy.ring([f"x{i}" for i in range(num_vars)], sympy.QQ)
    xs = sympy.symbols(f"x0:{num_vars}")

    def to_expr(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**k for x, k in zip(xs, e))
                for e, c in p.terms.items()
            )
        )

    matrix = sympy.Matrix([[to_expr(entry) for entry in row] for row in h.hessian])
    expected = ring.from_expr(matrix.det(method="berkowitz"))
    det = det_poly([list(row) for row in h.hessian])
    assert not det.is_zero()
    assert det.terms == {
        e: Fraction(int(c.numerator), int(c.denominator)) for e, c in expected.items()
    }


def test_exact_division_refuses_quotients_outside_the_ring():
    """Every Bareiss step divides exactly by the previous pivot, or _bareiss raises."""
    work = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert _bareiss(work) == ([0, 1, 2], 1)
    assert work[2][2] == 4  # (3*3 - 1*1) / 2, the determinant
    # a non-integer entry makes the first division, by 1, inexact: -1/2 / 1
    with pytest.raises(InternalCheckError, match="not exact"):
        _bareiss([[Fraction(1, 2), 1], [1, 1]])


@pytest.mark.parametrize(
    "rows",
    [
        # column 1 has no pivot once column 0 is eliminated: det 0
        [["x0", "x1", "1"], ["2*x0", "2*x1", "x1"], ["3*x0", "3*x1", "x0"]],
        # column 1 needs a row swap once column 0 is eliminated
        [["x0", "x1", "1"], ["2*x0", "2*x1", "x1"], ["x1", "x0", "x0"]],
    ],
    ids=["singular", "swap"],
)
def test_det_poly_column_vanishes_midway(rows):
    m = [[parse_poly(t, ["x0", "x1"]) for t in row] for row in rows]
    assert det_poly(m) == oracle_det_permanent_style(m)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_minors_above_pointwise_rank_vanish(data):
    degree_one = st.builds(
        lambda a, b, c: MultiPoly(
            2, {(1, 0): Fraction(a), (0, 1): Fraction(b), (0, 0): Fraction(c)}
        ),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    m = [[data.draw(degree_one) for _ in range(3)] for _ in range(3)]
    point = [data.draw(st.integers(-3, 3)) for _ in range(2)]
    evaluated = [[evaluate(entry, point) for entry in row] for row in m]
    r = rank_rational(evaluated)
    if r + 1 > 3:
        return
    for _, _, det in minor_dets(m, r + 1):
        assert evaluate(det, point) == 0


# -- Smith normal form -------------------------------------------------------------


def snf_is_valid(m, u, d, v):
    rows = len(m)
    cols = len(m[0])
    assert abs(det_rational(u)) == 1
    assert abs(det_rational(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@pytest.mark.parametrize(
    "m, diagonal",
    [
        pytest.param([[2, 0], [0, 3]], [1, 6], id="diag-2-3"),
        pytest.param([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12], id="3x3"),
        pytest.param([[4, 0], [0, -6]], [2, 12], id="negative-entry"),
        pytest.param([[0, 3], [0, 5]], [1, 0], id="zero-column"),
        pytest.param([[6, 10, 15]], [1], id="one-row"),
        pytest.param([[-3]], [3], id="negative-1x1"),
        pytest.param([[0, 0], [0, 0], [3, 5]], [1, 0], id="zero-rows-first"),
    ],
)
def test_snf_known_diagonals(m, diagonal):
    u, d, v = smith_normal_form(m)
    snf_is_valid(m, u, d, v)
    assert [d[i][i] for i in range(len(diagonal))] == diagonal


def test_snf_single_entry():
    u, d, v = smith_normal_form([[2]])
    snf_is_valid([[2]], u, d, v)
    assert d == [[2]]


def test_snf_zero_matrix():
    m = [[0, 0, 0], [0, 0, 0]]
    u, d, v = smith_normal_form(m)
    snf_is_valid(m, u, d, v)
    assert d == [[0, 0, 0], [0, 0, 0]]


@settings(deadline=None)
@given(int_matrices())
def test_snf_properties_randomized(m):
    u, d, v = smith_normal_form(m)
    snf_is_valid(m, u, d, v)


# -- finitely generated abelian groups ------------------------------------------------


def test_group_validation():
    # Keyword, positional, _make and _replace all go through the check.
    good = FGAbelianGroup(1, (2,))
    bad = [(-1, (), "free rank"), (0, (1,), ">= 2"), (0, (4, 2), "divisibility chain")]
    for free_rank, torsion, message in bad:
        for make in (
            lambda: FGAbelianGroup(free_rank=free_rank, torsion=torsion),
            lambda: FGAbelianGroup(free_rank, torsion),
            lambda: FGAbelianGroup._make((free_rank, torsion)),
            lambda: good._replace(free_rank=free_rank, torsion=torsion),
        ):
            with pytest.raises(ValueError, match=message):
                make()
    with pytest.raises(ValueError, match="free rank"):
        FGAbelianGroup(-1)


def test_group_str_and_json():
    g = FGAbelianGroup(free_rank=2, torsion=(2, 6))
    assert str(g) == "Z^2 + Z/2 + Z/6"
    assert to_json(g) == {"free_rank": 2, "torsion": [2, 6]}
    assert str(FGAbelianGroup(0, ())) == "0"
    assert str(FGAbelianGroup(1)) == "Z" and str(FGAbelianGroup(1, (2,))) == "Z + Z/2"
    assert str(FGAbelianGroup(0, (3,))) == "Z/3"
    assert FGAbelianGroup(0, ()).is_trivial()


def test_cokernel_examples():
    assert cokernel([[2]]) == FGAbelianGroup(0, (2,))
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert cokernel(eye3).is_trivial()
    assert cokernel([[2, 0], [0, 3]]) == FGAbelianGroup(0, (6,))


def test_cokernel_free_part():
    # Z^2 <- Z by n -> (2n, 0): cokernel Z + Z/2
    assert cokernel([[2], [0]]) == FGAbelianGroup(1, (2,))

