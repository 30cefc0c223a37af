"""Hessian forms: construction, pointwise rank, certified generic rank, strata."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symdeg import (
    HessianForm,
    InternalCheckError,
    MultiPoly,
    ambient_rank_certificate,
    build_hessian,
    differentiate,
    divides,
    evaluate,
    evaluate_hessian,
    generic_rank_ambient,
    generic_rank_on_hypersurface,
    hypersurface_rank_certificate,
    parse_poly,
    rank_at,
    stratify,
)
from symdeg.cli import infer_variables

from minors import (
    P, bareiss_mod_p, det_poly, expansion_and_bareiss, minor_dets, set_by_set_search,
    value_mod_p,
)
from test_cli import DENSE_QUADRIC

W = ["w0", "w1", "w2", "w3"]
X = ["x0", "x1", "x2", "x3"]
QUARTIC = "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2"
FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"


# -- oracles ------------------------------------------------------------------


def oracle_second_partial(terms, n, i, j):
    """Second partial by raw exponent bookkeeping, no library calls."""
    out = {}
    for exps, coeff in terms.items():
        e = list(exps)
        if e[i] == 0:
            continue
        c = coeff * e[i]
        e[i] -= 1
        if e[j] == 0:
            continue
        c = c * e[j]
        e[j] -= 1
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + c
    return MultiPoly(n, out)


def oracle_rank(m):
    work = [[Fraction(x) for x in row] for row in m]
    rank = 0
    rows = len(work)
    for col in range(len(work[0]) if rows else 0):
        pivot = next((i for i in range(rank, rows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, rows):
            factor = work[i][col] / work[rank][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def quartic():
    return build_hessian(parse_poly(QUARTIC, W))


def fermat():
    return build_hessian(parse_poly(FERMAT, X))


# -- construction -------------------------------------------------------------


def test_build_fermat_is_diagonal():
    h = fermat()
    for i in range(4):
        for j in range(4):
            if i == j:
                assert h.hessian[i][j] == parse_poly(f"6*x{i}", X)
            else:
                assert h.hessian[i][j].is_zero()


def test_build_quartic_pinned_entries():
    h = quartic()
    assert h.hessian[3][3] == parse_poly("2*w0^2", W)
    assert h.hessian[0][3] == parse_poly("4*w0*w3 - 6*w1*w2", W)
    assert h.degree == 4 and h.ambient_dim == 3


def test_build_quartic_matches_differentiation_oracle():
    f = parse_poly(QUARTIC, W)
    h = build_hessian(f)
    for i in range(4):
        for j in range(4):
            assert h.hessian[i][j] == oracle_second_partial(f.terms, 4, i, j)


def test_build_degree_two_product():
    h = build_hessian(parse_poly("x0*x1", ["x0", "x1"]))
    one = MultiPoly.constant(1, 2)
    assert h.hessian[0][1] == one and h.hessian[1][0] == one
    assert h.hessian[0][0].is_zero() and h.hessian[1][1].is_zero()


def test_build_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        build_hessian(parse_poly("x0 + x1^2", ["x0", "x1"]))


def test_build_rejects_linear():
    with pytest.raises(ValueError):
        build_hessian(parse_poly("x0 + x1", ["x0", "x1"]))


def test_hessian_is_symmetric_symbolically():
    h = quartic()
    for i in range(4):
        for j in range(4):
            assert h.hessian[i][j] == h.hessian[j][i]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_euler_consistency(data):
    # Hessian(f) * x = (d-1) * gradient(f), entrywise as polynomials
    n = data.draw(st.integers(2, 3))
    d = data.draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, d) for _ in range(n)]).filter(
        lambda e: sum(e) == d
    )
    coeffs = st.integers(-4, 4).filter(lambda c: c != 0)
    terms = data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    f = MultiPoly(n, {e: Fraction(c) for e, c in terms.items()})
    if f.is_zero():
        return
    h = build_hessian(f)
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    for i in range(n):
        row_dot = MultiPoly.zero(n)
        for j in range(n):
            row_dot = row_dot + h.hessian[i][j] * xs[j]
        assert row_dot == (d - 1) * differentiate(f, i)


# -- pointwise rank ------------------------------------------------------------


def test_rank_at_quartic_unit_points():
    h = quartic()
    assert rank_at(h, [1, 0, 0, 0]) == 1
    assert rank_at(h, [0, 1, 0, 0]) == 3


def test_rank_at_unit_point_matrix_contents():
    m = evaluate_hessian(quartic(), [0, 1, 0, 0])
    assert m[1][3] == 12 and m[3][1] == 12 and m[2][2] == -6
    assert oracle_rank(m) == 3


def test_rank_at_fermat_pinned():
    assert rank_at(fermat(), [1, -1, 0, 0]) == 2


def test_rank_at_rejects_zero_point():
    with pytest.raises(ValueError):
        rank_at(quartic(), [0, 0, 0, 0])


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from(["quartic", "fermat"]),
    st.tuples(*[st.integers(-5, 5) for _ in range(4)]).filter(lambda p: any(p)),
    st.sampled_from([2, -1, Fraction(1, 3), 7]),
)
def test_rank_is_lift_invariant(which, p, lam):
    h = quartic() if which == "quartic" else fermat()
    scaled = [lam * c for c in p]
    assert rank_at(h, p) == rank_at(h, scaled)


@settings(deadline=None, max_examples=25)
@given(st.tuples(*[st.integers(-5, 5) for _ in range(4)]).filter(lambda p: any(p)))
def test_rank_at_matches_oracle(p):
    h = quartic()
    assert rank_at(h, p) == oracle_rank(evaluate_hessian(h, p))


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in _monomials(n - 1, d - e)]


@st.composite
def rational_forms_and_points(draw):
    """A homogeneous form of degree 2-5 with fractional coefficients, and a point.

    The first coefficient has denominator 7, 11 or 13 and a numerator of
    at most 6, and no second derivative of a degree <= 5 monomial clears
    that denominator, so the plan is scaled by D > 1.  Coordinates have
    denominators and are often 0 or negative.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 5))
    support = draw(st.lists(st.sampled_from(_monomials(n, d)), min_size=1, max_size=6, unique=True))
    dens = [draw(st.sampled_from([7, 11, 13]))]
    dens += [draw(st.sampled_from([1, 2, 3, 4, 7])) for _ in support[1:]]
    nums = [draw(st.integers(-6, 6).filter(bool)) for _ in support]
    f = MultiPoly(n, {e: Fraction(a, b) for e, a, b in zip(support, nums, dens)})
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5]))
    p = draw(st.lists(coord, min_size=n, max_size=n).filter(any))
    return f, p


@st.composite
def power_sums_and_points(draw):
    """f = sum_k c_k (l_k . x)^d, fewer summands than variables, and a point.

    The Hessian rank is at most the number of summands and drops where
    some l_k . x vanishes, so most ranks are below full and hinge on
    exact values; half the points are put on l_1 . x = 0.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(3, 5))
    frac = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5]))
    vector = st.lists(frac, min_size=n, max_size=n).filter(any)
    forms = draw(st.lists(vector, min_size=1, max_size=n - 1))
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    f = MultiPoly.zero(n)
    for l in forms:
        linear = MultiPoly.zero(n)
        for a, x in zip(l, xs):
            linear = linear + x * a
        f = f + linear**d * draw(frac.filter(bool))
    assume(not f.is_zero())
    p = draw(vector)
    first = forms[0]
    i = next(i for i, a in enumerate(first) if a)
    if draw(st.booleans()):
        p[i] = -sum(a * c for j, (a, c) in enumerate(zip(first, p)) if j != i) / first[i]
    assume(any(p))
    return f, p


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(rational_forms_and_points(), power_sums_and_points()),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
)
def test_integer_rank_matches_rational_rank(form_and_point, lam):
    from symdeg.linalg import rank_rational

    f, p = form_and_point
    h = build_hessian(f)
    rank = rank_rational(evaluate_hessian(h, p))
    assert rank_at(h, p) == rank
    assert rank_at(h, [lam * c for c in p]) == rank
    assert stratify(h, [p]).buckets == {rank: [tuple(p)]}


def test_primitive_lift():
    from symdeg.poly import _primitive

    # The pointwise rank lifts a point to _primitive(coords)[1].
    assert _primitive([Fraction(1, 2), Fraction(-1, 2)])[1] == [1, -1]
    assert _primitive([Fraction(0), Fraction(4, 6), Fraction(2)])[1] == [0, 1, 3]
    assert _primitive([Fraction(-6), Fraction(0), Fraction(9)])[1] == [-2, 0, 3]


def test_integer_plan_clears_denominators(monkeypatch):
    # stratify's plan is the upper triangle of c*H, c*H the primitive multiple of H.
    from symdeg import hessian

    plans, packed_terms_of = [], hessian._packed_terms

    def packed_terms(polys, pack):
        scale, plan = packed_terms_of(polys, pack)
        plans.append(plan)
        return scale, plan

    monkeypatch.setattr(hessian, "_packed_terms", packed_terms)
    # Hessian of x0^3/7 + x0*x1^2/2 is [[6/7 x0, x1], [x1, x0]]: D = 7.
    h = build_hessian(parse_poly("1/7*x0^3 + 1/2*x0*x1^2", ["x0", "x1"]))
    stratify(h, [(1, 1)])
    assert plans.pop() == [{((0, 1),): 6}, {((1, 1),): 7}, {((0, 1),): 7}]
    # Hessian of 2/3*x0^3 + 2*x0*x1^2 is [[4 x0, 4 x1], [4 x1, 4 x0]]: the gcd 4 goes too.
    h = build_hessian(parse_poly("2/3*x0^3 + 2*x0*x1^2", ["x0", "x1"]))
    stratify(h, [(1, 1)])
    assert plans.pop() == [{((0, 1),): 1}, {((1, 1),): 1}, {((0, 1),): 1}]
    assert plans == []


def test_pointwise_rank_keeps_the_evaluation_budget():
    from symdeg.poly import _EVALUATE_BITS as budget

    # Every Hessian term has degree d-2 = budget: 2^budget is just within it.
    h = build_hessian(parse_poly(f"x0^{budget + 2} + x1^{budget + 2}", ["x0", "x1"]))
    assert rank_at(h, [2, 1]) == 2
    assert rank_at(h, [Fraction(1, 3), Fraction(1, 6)]) == 2  # lift (2, 1)
    over = build_hessian(parse_poly(f"x0^{budget + 3} + x1^{budget + 3}", ["x0", "x1"]))
    message = rf"value needs at least {budget + 1} bits \(budget {budget}\)"
    with pytest.raises(ValueError, match=message):
        rank_at(over, [2, 1])
    with pytest.raises(ValueError, match="budget"):
        stratify(over, [(1, 1), (2, 1)])
    # The primitive lift of (1/2, -1/2) is (1, -1): no bits at all.
    assert rank_at(over, [Fraction(1, 2), Fraction(-1, 2)]) == 2
    # At (1, 4), (d-2)*(3-1) = 2*budget sends every Hessian term to the
    # per-term check; the largest, from d^2/dx0^2, is x1^(budget/2), and
    # 4^(budget/2) needs exactly budget bits.  At (1, 8) it needs 3/2 of them.
    mixed = build_hessian(parse_poly(f"x0^{budget // 2 + 2}*x1^{budget // 2}", ["x0", "x1"]))
    assert rank_at(mixed, [1, 4]) == 2
    with pytest.raises(ValueError, match=rf"at least {3 * budget // 2} bits \(budget {budget}\)"):
        rank_at(mixed, [1, 8])


def test_pointwise_rank_never_takes_the_rational_path(monkeypatch):
    import sys

    import symdeg.linalg
    import symdeg.poly

    f = parse_poly("1/3*x0^3 - 5/2*x0*x1*x2 + 1/7*x2^3 + x1^2*x2", ["x0", "x1", "x2"])
    h = build_hessian(f)
    points = [
        [Fraction(1, 2), Fraction(-3, 4), Fraction(0)],
        [Fraction(0), Fraction(5, 3), Fraction(0)],
        [Fraction(2), Fraction(1, 5), Fraction(-1)],
    ]
    expected = [symdeg.linalg.rank_rational(evaluate_hessian(h, p)) for p in points]
    assert len(set(expected)) > 1

    def refuse(*args, **kwargs):
        raise AssertionError("pointwise rank fell back to the rational path")

    slow = (symdeg.poly.evaluate, symdeg.linalg.rank_rational)
    for name, module in list(sys.modules.items()):
        if name == "symdeg" or name.startswith("symdeg."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in slow):
                    monkeypatch.setattr(module, attr, refuse)
    assert [rank_at(h, p) for p in points] == expected
    buckets = stratify(h, points).buckets
    assert {r: len(pts) for r, pts in buckets.items()} == {
        r: expected.count(r) for r in set(expected)
    }


# -- certified generic rank -------------------------------------------------------


def test_ambient_rank_fermat():
    cert = ambient_rank_certificate(fermat())
    assert cert.rank == 4
    assert cert.witness_minor == parse_poly("1296*x0*x1*x2*x3", X)
    assert not cert.on_hypersurface


def test_ambient_rank_pure_cube():
    h = build_hessian(parse_poly("x0^3", ["x0", "x1"]))
    assert generic_rank_ambient(h) == 1


def test_ambient_rank_quartic():
    cert = ambient_rank_certificate(quartic())
    assert cert.rank == 4
    assert cert.witness_minor.total_degree() == 8
    assert not cert.witness_minor.is_zero()


def test_hypersurface_rank_quartic_is_three():
    h = quartic()
    cert = hypersurface_rank_certificate(h)
    assert cert.rank == 3
    assert cert.on_hypersurface
    assert cert.caveat is None
    # certificate witness: a 3x3 minor not divisible by f
    assert divides(h.f, cert.witness_minor) is None
    # while the full determinant is divisible by f
    full = ambient_rank_certificate(h).witness_minor
    assert divides(h.f, full) is not None


def test_hypersurface_rank_fermat_is_four():
    h = fermat()
    cert = hypersurface_rank_certificate(h)
    assert cert.rank == 4
    assert divides(h.f, cert.witness_minor) is None


def test_hypersurface_rank_pure_cube_flags_caveat():
    h = build_hessian(parse_poly("x0^3", ["x0", "x1"]))
    cert = hypersurface_rank_certificate(h)
    assert cert.rank == 1
    assert cert.caveat is not None and "not reduced" in cert.caveat


def test_rank_chain_inequalities():
    for h in (quartic(), fermat()):
        on_x = generic_rank_on_hypersurface(h)
        ambient = generic_rank_ambient(h)
        assert on_x <= ambient <= h.size


def test_certified_minors_vanish_on_hypersurface():
    # With on-X rank 3, every 4x4 minor (the determinant) vanishes at
    # points of the hypersurface; the four unit points all lie on it.
    h = quartic()
    det = ambient_rank_certificate(h).witness_minor
    for i in range(4):
        p = [Fraction(0)] * 4
        p[i] = Fraction(1)
        assert evaluate(h.f, p) == 0
        assert evaluate(det, p) == 0


def test_generic_ranks_of_quartic_are_four_and_three():
    h = quartic()
    assert generic_rank_ambient(h) == 4
    assert generic_rank_on_hypersurface(h) == 3


# -- principal minors against the all-minors search ------------------------------

SYM_DET = "x0*x3*x5 + 2*x1*x2*x4 - x0*x4^2 - x3*x2^2 - x5*x1^2"


def reference_ranks(h):
    """(ambient, hypersurface) ranks from every minor, principal or not."""
    ambient = next(
        k
        for k in range(h.size, -1, -1)
        if any(not det.is_zero() for _, _, det in minor_dets(h.hessian, k))
    )
    on_x = next(
        k
        for k in range(ambient, -1, -1)
        if any(
            not det.is_zero() and divides(h.f, det) is None
            for _, _, det in minor_dets(h.hessian, k)
        )
    )
    return ambient, on_x


def random_form(rng, n, degree):
    xs = [MultiPoly.variable(i, n) for i in range(n)]
    out = MultiPoly.zero(n)
    while out.is_zero():
        for _ in range(3):
            term = MultiPoly.constant(rng.choice([-3, -2, -1, 1, 2, 3]), n)
            for _ in range(degree):
                term = term * rng.choice(xs)
            out = out + term
    return out


def differential_inputs():
    named = [
        (QUARTIC, W),
        (FERMAT, X),
        (SYM_DET, [f"x{i}" for i in range(6)]),
        ("x0*x1*x2", X[:3]),
        ("x0^4 - x1^4", X[:2]),
        ("x0^3", X[:2]),
        ("x0^2*x1", X[:3]),
        ("x0^2*x2^2 + 2*x0*x1^2*x2 + x1^4", X[:3]),
        ("1/2*x0^3 + 1/3*x1^2*x2 + x2^3", X[:3]),
    ]
    polys = [parse_poly(text, names) for text, names in named]
    rng = random.Random(20)
    for n in (3, 4):
        for _ in range(3):
            a1, a2 = random_form(rng, n, 1), random_form(rng, n, 2)
            polys += [a2 * a2, a1 * a1 * a1, a1 * a1 * a2, a2 * a2 * a1]
    return polys


@pytest.mark.parametrize("f", differential_inputs(), ids=lambda f: f.format())
def test_principal_certificates_match_all_minors(f):
    h = build_hessian(f)
    ambient, on_x = reference_ranks(h)
    certs = (ambient_rank_certificate(h), hypersurface_rank_certificate(h))
    assert [c.rank for c in certs] == [ambient, on_x]
    for cert in certs:
        s = cert.witness_rows
        assert cert.witness_cols == s and len(s) == cert.rank
        if s:
            assert cert.witness_minor == det_poly([[h.hessian[i][j] for j in s] for i in s])
        assert not cert.witness_minor.is_zero()
    assert divides(h.f, certs[1].witness_minor) is None


def unscreened_witness(h):
    """First colex principal set over all indices, sizes descending, whose
    minor is nonzero and not divisible by f, with that minor."""
    for k in range(h.size, -1, -1):
        for s in sorted(itertools.combinations(range(h.size), k), key=lambda s: s[::-1]):
            minor = [[h.hessian[i][j] for j in s] for i in s]
            det = det_poly(minor) if s else MultiPoly.constant(1, h.size)
            if not det.is_zero() and divides(h.f, det) is None:
                return s, det


ZERO_ROW_INPUTS = [
    parse_poly("x1^2*x3 + x3^3", X),
    parse_poly("0*x0 + x4^3 + x5^3 + x6^3 + x7^3", [f"x{i}" for i in range(8)]),
]


@pytest.mark.parametrize(
    "f", differential_inputs() + ZERO_ROW_INPUTS, ids=lambda f: f.format()
)
def test_zero_row_screen_keeps_the_unscreened_witness(f):
    h = build_hessian(f)
    cert = hypersurface_rank_certificate(h)
    assert (cert.witness_rows, cert.witness_minor) == unscreened_witness(h)


@pytest.mark.parametrize("f", differential_inputs(), ids=lambda f: f.format())
def test_hessian_expansion_matches_bareiss(f):
    # Every input has degree at least 3, so _pivot_columns_poly expands by
    # minors; its columns and determinant must be those of Bareiss.
    expanded, eliminated = expansion_and_bareiss(build_hessian(f).hessian)
    assert expanded == eliminated


def test_quartic_witness_is_first_principal_triple():
    cert = hypersurface_rank_certificate(quartic())
    assert cert.witness_rows == cert.witness_cols == (0, 1, 2)


def test_ambient_witness_on_zero_diagonal_hessian():
    # Every diagonal entry of this Hessian is zero, so the first pivot
    # comes from a row swap.  The full determinant 2*x0*x1*x2 vanishes
    # at (1, 0, 0), where the matrix has rank 2 only.
    h = build_hessian(parse_poly("x0*x1*x2", X[:3]))
    cert = ambient_rank_certificate(h)
    assert cert.rank == 3 and cert.witness_rows == (0, 1, 2)
    assert cert.witness_minor == parse_poly("2*x0*x1*x2", X[:3])
    assert evaluate(cert.witness_minor, [1, 0, 0]) == 0


@pytest.mark.parametrize(
    "text, witness, minor",
    [
        ("x1^2*x3 + x3^3", (1, 3), "-4*x1^2 + 12*x3^2"),
        ("x0*x1*x2", (0, 1, 2), "2*x0*x1*x2"),
    ],
    ids=["x1^2*x3 + x3^3", "x0*x1*x2"],
)
def test_ambient_witness_of_rank_deficient_form(text, witness, minor):
    # Zero columns get no pivot, so the witness need not start at index 0.
    cert = ambient_rank_certificate(build_hessian(parse_poly(text, X)))
    assert cert.rank == len(witness)
    assert cert.witness_rows == cert.witness_cols == witness
    assert cert.witness_minor == parse_poly(minor, X)


def test_ambient_certificate_rejects_zero_witness_minor(monkeypatch):
    from symdeg import hessian

    h = build_hessian(parse_poly("x0^2*x1", X[:3]))
    monkeypatch.setattr(hessian, "_pivot_columns_poly", lambda m: ((0, 1), MultiPoly.zero(3)))
    with pytest.raises(InternalCheckError, match="pivot columns"):
        ambient_rank_certificate(h)


@pytest.mark.parametrize(
    "text, names, searched",
    [
        (FERMAT, X, 0),
        (QUARTIC, W, 1),
        ("x1^2*x3 + x3^3", X, 0),
        ("x0^2*x1", X[:3], 0),
    ],
    ids=["fermat", "quartic", "x1^2*x3 + x3^3", "x0^2*x1"],
)
def test_each_principal_determinant_is_computed_at_most_once(monkeypatch, text, names, searched):
    # The ambient minor comes out of the one expansion that finds the rank,
    # and the hypersurface search tries its witness S with that minor
    # before it expands anything: f divides QUARTIC's full minor only.
    # Each later set is expanded once, and S never is.
    from symdeg import hessian, linalg

    events = []
    colex, search_expand, rank_expand = (
        hessian._colex_subsets, hessian._expand_by_minors, linalg._expand_by_minors,
    )

    def sets(pool, k):
        for s in colex(pool, k):
            events.append(s)
            yield s

    def expanded_set(work):
        events.append("search")
        return search_expand(work)

    def expanded_rank(work):
        events.append("rank")
        return rank_expand(work)

    monkeypatch.setattr(hessian, "_colex_subsets", sets)
    monkeypatch.setattr(hessian, "_expand_by_minors", expanded_set)
    monkeypatch.setattr(linalg, "_expand_by_minors", expanded_rank)
    h = build_hessian(parse_poly(text, names))
    assert ambient_rank_certificate(h).rank and events == ["rank"]
    events.clear()
    cert = hypersurface_rank_certificate(h)
    assert events.count("rank") == 1 and events.count("search") == searched
    tried = [events[i - 1] for i, e in enumerate(events) if e == "search"]
    assert len(set(tried)) == len(tried)
    assert ambient_rank_certificate(h).witness_rows not in tried
    assert cert.witness_rows in tried or not searched


# -- the packed search against the set-by-set reference --------------------------

PAST_THE_AMBIENT_WITNESS = [
    # S = (0, 1, 3) comes after (0, 1, 2), whose minor is zero, and f
    # divides its minor; the answer is 2, on (0, 1).
    parse_poly("x0*x1*x3 + x0*x2*x3", X),
    # a rank-deficient quadric: f never divides its constant minor
    parse_poly("x0^2 + 2*x0*x1 + x1^2 + x2*x3", [*X, "x4"]),
    # f divides S's minor x0*x1*x2/4 only as the primitive x0*x1*x2: packed
    # with one scale shared with the minor, f is 2*x0*x1*x2, the quotient
    # 1/2 is not an integer, and the answer would be 3; it is 2, on (0, 1).
    parse_poly("1/2*x0*x1*x2", X[:3]),
]


@pytest.mark.parametrize(
    "f",
    differential_inputs() + ZERO_ROW_INPUTS + PAST_THE_AMBIENT_WITNESS,
    ids=lambda f: f.format(),
)
def test_packed_search_matches_the_set_by_set_reference(f):
    h = build_hessian(f)
    cert = hypersurface_rank_certificate(h)
    assert (cert.rank, cert.witness_rows, cert.witness_minor) == set_by_set_search(h)
    assert cert.witness_cols == cert.witness_rows and cert.on_hypersurface


@pytest.mark.parametrize(
    "text, caveat",
    [
        (FERMAT, None),
        ("x0*x1^2", "f is divisible by the square of a variable: the hypersurface is not reduced"),
        (DENSE_QUADRIC, None),
    ],
    ids=["fermat", "x0*x1^2", "dense quadric"],
)
def test_search_returns_the_ambient_certificate_when_f_does_not_divide_its_minor(
    monkeypatch, text, caveat
):
    # Only f and S's minor are packed: no Hessian entry is packed or expanded.
    from symdeg import hessian

    packed, packed_terms_of = [], hessian._packed_terms

    def packed_terms(polys, pack):
        packed.append(list(polys))
        return packed_terms_of(polys, pack)

    def refuse(work):
        raise AssertionError("expansion by minors after the ambient witness passed")

    h = build_hessian(parse_poly(text, infer_variables(text)))
    ambient = ambient_rank_certificate(h)
    monkeypatch.setattr(hessian, "_packed_terms", packed_terms)
    monkeypatch.setattr(hessian, "_expand_by_minors", refuse)
    cert = hypersurface_rank_certificate(h)
    assert cert == ambient._replace(on_hypersurface=True, caveat=caveat)
    assert packed == [[h.f], [ambient.witness_minor]]


def test_search_goes_past_a_zero_minor_before_the_ambient_witness():
    h = build_hessian(PAST_THE_AMBIENT_WITNESS[0])
    ambient = ambient_rank_certificate(h)
    assert (ambient.rank, ambient.witness_rows) == (3, (0, 1, 3))
    assert det_poly([[h.hessian[i][j] for j in (0, 1, 2)] for i in (0, 1, 2)]).is_zero()
    cert = hypersurface_rank_certificate(h)
    assert (cert.rank, cert.witness_rows, cert.witness_minor) == (2, (0, 1), parse_poly("-x3^2", X))


def test_answer_at_the_ambient_rank_on_a_set_after_the_ambient_witness():
    # H = a*a^T + b*b^T has rank 2 with witness (0, 1), whose minor
    # (x0^2 - x1^2)^2 the linear f divides; the next 2-set, (0, 2), has
    # minor (x0*x3 - x1*x2)^2, which it does not.  A search that left out
    # the sets after S at the ambient rank would answer 1 on (0,).
    xs = [MultiPoly.variable(i, 4) for i in range(4)]
    a, b = xs, [xs[1], xs[0], xs[3], xs[2]]
    rows = tuple(tuple(a[i] * a[j] + b[i] * b[j] for j in range(4)) for i in range(4))
    h = HessianForm(f=xs[0] - xs[1], hessian=rows, degree=4, ambient_dim=3)
    assert ambient_rank_certificate(h).witness_rows == (0, 1)
    cert = hypersurface_rank_certificate(h)
    minor = parse_poly("x0^2*x3^2 - 2*x0*x1*x2*x3 + x1^2*x2^2", X)
    assert (cert.rank, cert.witness_rows, cert.witness_minor) == (2, (0, 2), minor)
    assert set_by_set_search(h) == (2, (0, 2), minor)


# -- divisors other than the Hessian's own f --------------------------------------

# The pencil [[0, x0, x1], [x0, 0, 0], [x1, 0, 0]] is no Hessian: the search
# reads only the matrix and f.
PENCIL = HessianForm(
    f=parse_poly("x0", X[:3]),
    hessian=tuple(
        tuple(parse_poly(e, X[:3]) for e in row)
        for row in [["0", "x0", "x1"], ["x0", "0", "0"], ["x1", "0", "0"]]
    ),
    degree=3,
    ambient_dim=2,
)


def test_ambient_certificate_of_a_pencil():
    cert = ambient_rank_certificate(PENCIL)
    assert (cert.rank, cert.witness_rows) == (2, (0, 1))
    assert cert.witness_minor == parse_poly("-x0^2", X[:3])


@pytest.mark.parametrize(
    "h, rank, witness, minor",
    [
        # x0 divides 6*x0, the only nonzero minor besides the empty one
        (build_hessian(parse_poly("x0^3", X[:1]))._replace(f=parse_poly("x0", X[:1])), 0, (), "1"),
        # the square of a conic, over its radical: H has rank 1 on X
        (
            build_hessian(parse_poly("x0^2*x2^2 + 2*x0*x1^2*x2 + x1^4", X[:3]))._replace(
                f=parse_poly("x0*x2 + x1^2", X[:3])
            ),
            1, (0,), "2*x2^2",
        ),
        # a hyperplane is irreducible: no caveat
        (PENCIL, 2, (0, 2), "-x1^2"),
    ],
    ids=["x0^3 over x0", "squared conic over its radical", "pencil over x0"],
)
def test_search_on_a_divisor_other_than_f(h, rank, witness, minor):
    cert = hypersurface_rank_certificate(h)
    expected = (rank, witness, parse_poly(minor, X[: h.size]))
    assert (cert.rank, cert.witness_rows, cert.witness_minor) == expected
    assert set_by_set_search(h) == expected
    assert cert.witness_cols == witness and cert.on_hypersurface and cert.caveat is None


@pytest.mark.parametrize(
    "f, message",
    [
        (MultiPoly.constant(2, 3), "f must be a nonconstant polynomial in the matrix's variables"),
        (parse_poly("x0", X[:2]), "f must be a nonconstant polynomial in the matrix's variables"),
        (MultiPoly.zero(3), "zero polynomial has no total degree"),
    ],
    ids=["constant", "another ring", "zero"],
)
def test_search_refuses_a_divisor_it_cannot_rank_on(f, message):
    h = build_hessian(parse_poly("x0^2*x1 + x1^2*x2 + x2^3", X[:3]))
    with pytest.raises(ValueError) as caught:
        hypersurface_rank_certificate(h._replace(f=f))
    assert str(caught.value) == message


def sweep_form(rng):
    """A seeded form in 2-5 variables of degree 2-4: random, a product, a
    square times a form, or a cone over a form in one variable less."""
    n, degree = rng.randint(2, 5), rng.randint(2, 4)
    kind = rng.choice(["random", "product", "square", "cone"])
    if kind == "random":
        return random_form(rng, n, degree)
    if kind == "product":
        return random_form(rng, n, 1) * random_form(rng, n, degree - 1)
    if kind == "square":
        a = random_form(rng, n, 1)
        return a * a * random_form(rng, n, degree - 2)
    g = random_form(rng, n - 1, degree) if n > 2 else random_form(rng, 1, degree)
    return MultiPoly(n, {(*e, *[0] * (n - g.num_vars)): c for e, c in g.terms.items()})


def test_packed_search_matches_the_set_by_set_reference_on_a_seeded_sweep():
    rng = random.Random(26)
    past = 0
    for _ in range(220):
        h = build_hessian(sweep_form(rng))
        cert = hypersurface_rank_certificate(h)
        expected = set_by_set_search(h)
        assert (cert.rank, cert.witness_rows, cert.witness_minor) == expected, h.f.format()
        past += cert.witness_rows != ambient_rank_certificate(h).witness_rows
    assert past >= 30


def hyperplane_draws():
    """300 seeded pairs (f, a): f from ``sweep_form``, a a linear form in its variables."""
    rng = random.Random(37)
    for _ in range(300):
        f = sweep_form(rng)
        yield f, random_form(rng, f.num_vars, 1)


def test_search_on_a_hyperplane_matches_the_set_by_set_reference_on_a_seeded_sweep():
    zero = past = 0
    for f, a in hyperplane_draws():
        h = build_hessian(f)._replace(f=a)
        cert = hypersurface_rank_certificate(h)
        expected = set_by_set_search(h)
        assert (cert.rank, cert.witness_rows, cert.witness_minor) == expected, (f.format(), a.format())
        zero += cert.rank == 0
        past += cert.witness_rows != ambient_rank_certificate(h).witness_rows
    assert zero >= 5 and past >= 11


# -- a rank oracle that shares no arithmetic with src/ ---------------------------


@pytest.mark.parametrize(
    "f",
    differential_inputs() + ZERO_ROW_INPUTS + PAST_THE_AMBIENT_WITNESS,
    ids=lambda f: f.format(),
)
def test_ranks_match_an_oracle_that_shares_no_arithmetic(f):
    # H comes from f's terms alone, and is read at a point in Z/P, P =
    # 2^127 - 1, prime to every denominator here: a ring map, so no oracle
    # rank exceeds the rank over Q of H at that point, and none exceeds the
    # rank over Q(x).  It falls short only where P divides each nonzero
    # minor of the largest size, or where a nonzero minor of H vanishes at
    # both points of (Z/P)^n; with these seeds, nowhere.
    n, rng = f.num_vars, random.Random(15)
    m = [[oracle_second_partial(f.terms, n, i, j) for j in range(n)] for i in range(n)]
    h = build_hessian(f)
    rank = ambient_rank_certificate(h).rank
    ambient = max(len(bareiss_mod_p(m, [rng.randrange(P) for _ in m])[0]) for _ in range(2))
    assert ambient <= rank
    assert ambient == rank
    points = []
    while len(points) < 6:
        p = tuple(rng.randint(-4, 4) for _ in m)
        points += [p] * any(p)
    ranks = [len(bareiss_mod_p(m, p)[0]) for p in points]
    assert [rank_at(h, p) for p in points] == ranks
    expected = {}
    for p, r in zip(points, ranks):
        expected.setdefault(r, []).append(p)
    assert stratify(h, points).buckets == expected


def point_on_hyperplane(a, rng):
    """A point of V(a) in (Z/P)^n, a linear: random coordinates, then a = 0
    solved for the first coordinate whose coefficient is nonzero mod P."""
    n = a.num_vars
    coeffs = [value_mod_p(a, [int(i == j) for j in range(n)]) for i in range(n)]
    point = [rng.randrange(P) for _ in range(n)]
    i = next(i for i, c in enumerate(coeffs) if c)
    point[i] = 0
    point[i] = -sum(c * x for c, x in zip(coeffs, point)) * pow(coeffs[i], -1, P) % P
    assert value_mod_p(a, point) == 0
    return point


def test_search_on_a_hyperplane_matches_an_oracle_that_shares_no_arithmetic():
    # H_f comes from f's terms alone and is ranked at two points of V(a) mod
    # P = 2^127 - 1.  A principal minor nonzero at such a point is not
    # divisible by a (Gauss's lemma), so no oracle rank exceeds the certified
    # one; with these seeds they are equal on every draw.
    rng = random.Random(127)
    for f, a in hyperplane_draws():
        n = f.num_vars
        m = [[oracle_second_partial(f.terms, n, i, j) for j in range(n)] for i in range(n)]
        oracle = max(len(bareiss_mod_p(m, point_on_hyperplane(a, rng))[0]) for _ in range(2))
        rank = hypersurface_rank_certificate(build_hessian(f)._replace(f=a)).rank
        assert oracle <= rank, (f.format(), a.format())
        assert oracle == rank, (f.format(), a.format())


# -- stratification ------------------------------------------------------------


def test_stratify_quartic_unit_points():
    h = quartic()
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    strat = stratify(h, units)
    as_ints = {
        r: [tuple(int(c) for c in p) for p in pts] for r, pts in strat.buckets.items()
    }
    assert as_ints == {
        1: [(1, 0, 0, 0), (0, 0, 0, 1)],
        3: [(0, 1, 0, 0), (0, 0, 1, 0)],
    }


def test_stratify_empty():
    assert stratify(quartic(), []).buckets == {}


def test_stratify_is_ambient_not_restricted():
    strat = stratify(fermat(), [(1, -1, 0, 0), (1, 1, 1, 1)])
    ranks = sorted(strat.buckets)
    assert ranks == [2, 4]


def test_stratify_bucket_key_matches_rank_at():
    h = quartic()
    points = [(1, 2, 3, 4), (1, 1, 0, 0), (0, 0, 1, 5)]
    strat = stratify(h, points)
    for r, pts in strat.buckets.items():
        for p in pts:
            assert rank_at(h, p) == r


def test_stratify_keeps_int_coordinates_and_reads_the_rest_by_fraction():
    h = build_hessian(parse_poly("x0^3 + x1^3", ["x0", "x1"]))
    buckets = stratify(h, [[1, True], [Fraction(1, 2), 0.5], ["1", 0]]).buckets
    assert buckets == {2: [(1, 1), (Fraction(1, 2), Fraction(1, 2))], 1: [(1, 0)]}
    types = [[type(c) for c in p] for r in (2, 1) for p in buckets[r]]
    assert types == [[int, Fraction], [Fraction, Fraction], [Fraction, int]]


def test_internal_check_error_is_runtime_error():
    assert issubclass(InternalCheckError, RuntimeError)
