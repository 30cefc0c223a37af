"""Dual-variety dimension and the rank relation at smooth points.

For a hypersurface f = 0 the generic Hessian rank on the hypersurface
exceeds the dual-variety dimension by exactly 2.  The pointwise version
is replayed here in coordinates: move a smooth point to (1, 0, ..., 0)
with its tangent hyperplane becoming the last-coordinate hyperplane,
read off the normal-form pieces, and compare the Hessian rank with the
rank of the middle block.  Every structural identity along the way is
re-verified in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalCheckError
from .hessian import (
    Point,
    _check_point,
    _symmetric,
    build_hessian,
    evaluate_hessian,
    hypersurface_rank_certificate,
    rank_at,
)
from .linalg import det_rational, rank_rational
from .poly import MultiPoly, compose_linear, differentiate, evaluate, homogeneous_degree


class AdaptedForm(NamedTuple):
    """f in coordinates adapted to a smooth point.

    ``transform`` columns: the point lift first (ints stay ints), then a
    basis of the tangent directions, then one transverse direction.  After
    composing and rescaling by ``scale``, the polynomial splits as

        f_adapted = X0^(d-1)*XN + X0^(d-2)*(g + XN*L) + higher

    with g quadratic in the middle variables, L linear in X1..XN and
    ``higher`` collecting everything of lower X0-degree.
    """

    transform: tuple[tuple[Fraction | int, ...], ...]
    f_adapted: MultiPoly
    degree: int
    g: MultiPoly
    ell: MultiPoly
    higher: MultiPoly
    scale: Fraction  # the coefficient divided out of f o T

    @property
    def num_vars(self) -> int:
        return self.f_adapted.num_vars


def _validated_smooth_point(f: MultiPoly, p: Point) -> tuple[list[Fraction | int], list[Fraction]]:
    coords = _check_point(f.num_vars, p)
    if evaluate(f, coords) != 0:
        raise ValueError("point does not lie on the hypersurface")
    gradient = [evaluate(differentiate(f, i), coords) for i in range(f.num_vars)]
    if all(x == 0 for x in gradient):
        raise ValueError("point is a singular point of the hypersurface")
    return coords, gradient


def adapt_coordinates(f: MultiPoly, p: Point) -> AdaptedForm:
    """Linear change of coordinates putting a smooth point in normal form.

    The new coordinates send (1, 0, ..., 0) to the point and the
    hyperplane XN = 0 to its tangent hyperplane.  Pivots are the first
    admissible indices, so the transform is deterministic.  All claimed
    normal-form properties are re-checked on the result.
    """
    d = homogeneous_degree(f)
    if d is None:
        raise ValueError("not homogeneous")
    if d < 2:
        raise ValueError(f"degree {d} < 2: no second-order structure to adapt")
    coords, gradient = _validated_smooth_point(f, p)
    n = f.num_vars
    big_n = n - 1

    j_star = next(i for i in range(n) if gradient[i] != 0)
    # Kernel of the differential: e_i - (grad_i/grad_j*) e_j* for i != j*.
    # The point lift itself lies in the kernel (Euler, since f(p) = 0),
    # and expanding it in this kernel basis uses the coefficients p_i,
    # so dropping the first index with p_i != 0 leaves a complement.
    kernel_indices = [i for i in range(n) if i != j_star]
    i_0 = next(i for i in kernel_indices if coords[i] != 0)

    columns: list[list[Fraction]] = [coords]
    for i in kernel_indices:
        if i == i_0:
            continue
        col = [Fraction(0)] * n
        col[i] = Fraction(1)
        col[j_star] = -gradient[i] / gradient[j_star]
        columns.append(col)
    last = [Fraction(0)] * n
    last[j_star] = Fraction(1)
    columns.append(last)

    transform = [[columns[j][i] for j in range(n)] for i in range(n)]
    if det_rational(transform) == 0:
        raise InternalCheckError("adapted coordinate change is singular")

    composed = compose_linear(f, transform)
    lead_exps = tuple(d - 1 if i == 0 else (1 if i == big_n else 0) for i in range(n))
    scale = composed.coefficient(lead_exps)
    if scale == 0:
        raise InternalCheckError("transverse direction lost the leading coefficient")
    f_adapted = composed * (1 / scale)

    g_terms: dict[tuple[int, ...], Fraction] = {}
    ell_terms: dict[tuple[int, ...], Fraction] = {}
    higher_terms: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in f_adapted.terms.items():
        k = d - exps[0]  # degree away from the distinguished point
        stripped = (0,) + exps[1:]
        if k == 0:
            raise InternalCheckError("adapted form does not vanish at the point")
        if k == 1:
            if exps[big_n] != 1:
                raise InternalCheckError("adapted form has a surviving tangential gradient")
            continue  # the X0^(d-1)*XN term itself
        if k == 2:
            if exps[big_n] == 0:
                g_terms[stripped] = coeff
            else:
                lowered = list(stripped)
                lowered[big_n] -= 1
                ell_terms[tuple(lowered)] = coeff
        else:
            higher_terms[exps] = coeff
    g = MultiPoly(n, g_terms)
    ell = MultiPoly(n, ell_terms)
    higher = MultiPoly(n, higher_terms)

    x0 = MultiPoly.variable(0, n)
    xn = MultiPoly.variable(big_n, n)
    rebuilt = x0 ** (d - 1) * xn + x0 ** (d - 2) * (g + xn * ell) + higher
    if rebuilt != f_adapted:
        raise InternalCheckError("normal-form pieces do not reassemble the adapted form")

    return AdaptedForm(
        transform=tuple(tuple(row) for row in transform),
        f_adapted=f_adapted,
        degree=d,
        g=g,
        ell=ell,
        higher=higher,
        scale=scale,
    )


class BlockDecomposition(NamedTuple):
    """Hessian of the adapted form at the point (1, 0, ..., 0), in block shape.

    ``a`` is the Hessian of g, ``b`` holds L's coefficients on the middle
    variables and ``l_n`` its coefficient on XN, so that

        assembled = [[0,    0,    d-1  ],
                     [0,    a,    b    ],
                     [d-1,  b^T,  2*l_n]],

    built from its upper triangle by ``hessian._symmetric`` and checked
    against the Hessian of f_adapted at the point.  Its rank always equals
    2 + rank(a) because the two antidiagonal corner entries d-1 clear the
    first and last rows and columns.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    l_n: Fraction
    assembled: tuple[tuple[Fraction, ...], ...]


def block_decompose(af: AdaptedForm) -> BlockDecomposition:
    n = af.num_vars
    big_n = n - 1
    d = af.degree

    def monomial(*indices: int) -> tuple[int, ...]:
        return tuple(map(indices.count, range(n)))

    # A is the Hessian of the quadratic g: its coefficients, doubled on the diagonal.
    middle = range(1, big_n)
    a = [[(1 + (i == j)) * af.g.coefficient(monomial(i, j)) for j in middle] for i in middle]
    b = [af.ell.coefficient(monomial(i)) for i in middle]
    l_n = af.ell.coefficient(monomial(big_n))

    # The upper triangle in row order: row 0, the middle rows, then row N.
    upper = [Fraction(0)] * big_n + [Fraction(d - 1)]
    for i, row in enumerate(a):
        upper += row[i:] + [b[i]]
    assembled = _symmetric(n, upper + [2 * l_n])

    point = [Fraction(1)] + [Fraction(0)] * (n - 1)
    direct = evaluate_hessian(build_hessian(af.f_adapted), point)
    if direct != assembled:
        raise InternalCheckError("block matrix disagrees with the Hessian at the point")

    return BlockDecomposition(
        a=tuple(tuple(row) for row in a),
        b=tuple(b),
        l_n=l_n,
        assembled=tuple(tuple(row) for row in assembled),
    )


def second_order_implicit(af: AdaptedForm) -> list[list[Fraction]]:
    """Quadratic coefficients of the implicit solution of the last variable.

    On the affine chart X0 = 1 the hypersurface solves XN as a function
    of the middle variables vanishing to second order.  Substituting an
    unknown quadratic for XN and matching weight-2 terms (middle
    variables weigh 1, XN weighs 2) gives one linear equation per
    quadratic monomial, with the same nonzero leading coefficient
    multiplying every unknown.  The result is checked against -a/2 from
    the block decomposition, which reads the same numbers from g.
    """
    n = af.num_vars
    big_n = n - 1
    gamma = Fraction(0)
    quad: dict[tuple[int, int], Fraction] = {}
    for exps, coeff in af.f_adapted.terms.items():
        middle_weight = sum(exps[1:big_n])
        weight = middle_weight + 2 * exps[big_n]
        if weight > 2:
            continue
        if weight == 2 and exps[big_n] == 1:
            gamma += coeff
            continue
        if weight == 2:
            support = [i for i in range(1, big_n) for _ in range(exps[i])]
            quad[(support[0], support[1])] = quad.get((support[0], support[1]), Fraction(0)) + coeff
            continue
        # weight < 2: a constant or linear leftover contradicts vanishing
        # to second order at the point
        raise InternalCheckError("adapted form is not flat to second order")
    if gamma == 0:
        raise InternalCheckError("implicit step is degenerate: no transverse linear term")

    # The upper triangle of q in row order; z_i*z_j, i < j, is shared by q_ij and q_ji.
    pairs = [(i, j) for i in range(1, big_n) for j in range(i, big_n)]
    q = _symmetric(big_n - 1, [-quad.get((i, j), 0) / gamma / (1 + (i != j)) for i, j in pairs])

    block = block_decompose(af)
    expected = [[-x / 2 for x in row] for row in block.a]
    if q != expected:
        raise InternalCheckError("implicit quadratic does not equal minus half the block")
    return q


class RankRelationReport(NamedTuple):
    """Hessian rank vs middle-block rank at one smooth point."""

    rank_q: int
    rank_a: int
    holds: bool
    transform: tuple[tuple[Fraction | int, ...], ...]


def rank_relation_check(f: MultiPoly, p: Point) -> RankRelationReport:
    """Verify rank(Hessian at p) = 2 + rank(middle block) at a smooth point."""
    d = homogeneous_degree(f)
    if d is None or d < 3:
        raise ValueError("rank relation needs homogeneous f of degree >= 3")
    af = adapt_coordinates(f, p)
    block = block_decompose(af)
    rank_a = rank_rational([list(row) for row in block.a])
    if rank_rational([list(row) for row in block.assembled]) != rank_a + 2:
        raise InternalCheckError("assembled block rank is not 2 + rank of the middle block")
    rank_q = rank_at(build_hessian(f), p)
    return RankRelationReport(
        rank_q=rank_q,
        rank_a=rank_a,
        holds=(rank_q == rank_a + 2),
        transform=af.transform,
    )


def dual_dimension(f: MultiPoly) -> int:
    """Dimension of the dual variety of the hypersurface f = 0.

    Equals the certified generic Hessian rank on the hypersurface minus
    2 for a reduced irreducible f.  A rank below 2 cannot come from such
    an f, and the certificate's caveat proves f reducible (x_i*g with
    deg g >= 2) or not reduced (x_i^2 | f); both raise ValueError.
    Irreducibility beyond that screen is the caller's responsibility.
    """
    d = homogeneous_degree(f)
    if d is None or d < 3:
        raise ValueError("dual dimension needs homogeneous f of degree >= 3")
    cert = hypersurface_rank_certificate(build_hessian(f))
    if cert.rank < 2:
        raise ValueError(
            "generic rank below 2: input cannot define a reduced irreducible hypersurface"
        )
    if cert.caveat:
        raise ValueError(cert.caveat)
    return cert.rank - 2
