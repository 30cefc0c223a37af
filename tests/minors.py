"""All-minors reference search, shared by the tests.

``minor_dets`` streams every k x k minor, principal or not.  The rank
certificates in ``symdeg.hessian`` search principal minors only, and the
tests compare them against this plain search.
"""

from typing import Iterator

from symdeg import MultiPoly, det_poly
from symdeg.linalg import PolyMatrix, _colex_subsets, _shared_num_vars, matrix_dims


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
