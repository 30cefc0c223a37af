"""All-minors reference search and a Bareiss reference, shared by the tests.

``minor_dets`` streams every k x k minor, principal or not.  The rank
certificates in ``symdeg.hessian`` search principal minors only, and the
tests compare them against this plain search.  ``bareiss_pivot_columns``
eliminates a polynomial matrix in Z[x], the reference that
``_pivot_columns_poly``'s expansion by minors is compared against.
"""

from fractions import Fraction
from typing import Iterator, Optional

import pytest

from symdeg import MultiPoly, det_poly, linalg
from symdeg.linalg import (
    PolyMatrix, _bareiss, _colex_subsets, _int_div, _int_poly_matrix, _pivot_columns_poly,
    _shared_num_vars, matrix_dims,
)
from symdeg.poly import _cross, _divide_terms, _packing


def bareiss_pivot_columns(m: PolyMatrix) -> tuple[tuple[int, ...], Optional[MultiPoly]]:
    """Pivot columns of a nonempty square ``m``, and det m at full rank, by Bareiss in Z[x].

    The matrix is scaled into packed integer term dicts as in
    ``_pivot_columns_poly``, with degree bound 2n*delta: every Bareiss
    intermediate is a minor of degree at most n*delta, and a numerator
    pivot*x - factor*y is a sum of products of two of them.  Each step
    divides exactly by the previous pivot (Sylvester's identity), and
    det m is sign / D^n times the last pivot.
    """
    num_vars = _shared_num_vars(m)
    n = len(m)
    delta = max((x.total_degree() for row in m for x in row if x), default=0)
    pack, unpack, guard = _packing(num_vars, 2 * n * delta)
    work, scale = _int_poly_matrix(m, pack)

    def step(prev, pivot, x, factor, y):
        num = _cross(pivot, x, factor, y)
        return num if prev is None else _divide_terms(prev, num, _int_div, guard)

    pivots, sign = _bareiss(work, step)
    if len(pivots) < n:
        return tuple(pivots), None
    factor = Fraction(sign, scale**n)
    det = {unpack(e): c * factor for e, c in work[-1][-1].items()}
    return tuple(pivots), MultiPoly(num_vars, det)


def expansion_and_bareiss(m: PolyMatrix) -> tuple[tuple, tuple]:
    """``_pivot_columns_poly(m)``, and ``bareiss_pivot_columns(m)``.

    The first must run integer Bareiss exactly when every entry is
    constant, and the expansion by minors otherwise.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return _bareiss(*args)

    constant = not any(sum(e) for row in m for x in row for e in x.terms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_bareiss", counted)
        expanded = _pivot_columns_poly(m)
    assert len(calls) == constant
    return expanded, bareiss_pivot_columns(m)


def minor_dets(
    m: PolyMatrix, k: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], MultiPoly]]:
    """Stream all k x k minors as (row-set, col-set, determinant).

    Index sets run in colexicographic order, row-sets outermost, so a
    caller searching for the first nonzero (or first non-divisible)
    minor sees a deterministic sequence and can stop early.
    """
    rows, cols = matrix_dims(m)
    if k < 0 or k > min(rows, cols):
        raise ValueError(f"minor size {k} out of range for {rows}x{cols} matrix")
    num_vars = _shared_num_vars(m)
    if k == 0:
        yield (), (), MultiPoly.constant(1, num_vars)
        return
    col_sets = _colex_subsets(cols, k)
    for row_set in _colex_subsets(rows, k):
        for col_set in col_sets:
            sub = [[m[i][j] for j in col_set] for i in row_set]
            yield row_set, col_set, det_poly(sub)
