"""All-minors reference search and a Bareiss reference, shared by the tests.

``det_poly`` is the determinant of a square polynomial matrix, read off
``_pivot_columns_poly``.  ``minor_dets`` streams every k x k minor,
principal or not.  The rank certificates in ``symdeg.hessian`` search
principal minors only, and the tests compare them against this plain
search.  ``set_by_set_search`` is the hypersurface search with one
``_pivot_columns_poly`` and one ``divides`` per principal set, the
reference for the packed search.  ``bareiss_pivot_columns``
eliminates a polynomial matrix over Q[x] with public ``MultiPoly``
arithmetic and ``divides``, the reference that ``_pivot_columns_poly``'s
expansion by minors is compared against; it shares no kernel code with it.
``bareiss_mod_p`` is the same elimination on the matrix read at a point
in Z/P, the reference for draws whose exact elimination can take minutes.
"""

import random
from typing import Iterator

import pytest

from symdeg import MultiPoly, ambient_rank_certificate, divides, linalg
from symdeg.linalg import (
    PolyMatrix, _bareiss, _colex_subsets, _pivot_columns_poly, _shared_num_vars, matrix_dims,
)


def det_poly(m: PolyMatrix) -> MultiPoly:
    """det m of a square polynomial matrix: the minor of ``_pivot_columns_poly``
    when every column is a pivot, and 0 otherwise."""
    pivots, minor = _pivot_columns_poly(m)
    return minor if len(pivots) == len(m) else MultiPoly.zero(minor.num_vars)


def set_by_set_search(h) -> tuple[int, tuple[int, ...], MultiPoly]:
    """(rank, witness, minor) of the hypersurface search, one set at a time.

    Principal sets in colex order over the live indices, sizes descending
    from the ambient rank to 0; each minor comes from ``_pivot_columns_poly``,
    except the ambient witness's, which is reused, and the empty set's, which
    is 1, and goes through ``divides``.  The first nonzero minor that f does
    not divide wins.
    """
    ambient = ambient_rank_certificate(h)
    live = [i for i, row in enumerate(h.hessian) if any(row)]
    for k in range(ambient.rank, -1, -1):
        for s in _colex_subsets(live, k):
            if s == ambient.witness_rows:
                minor = ambient.witness_minor
            elif not s:
                minor = MultiPoly.constant(1, h.f.num_vars)
            else:
                minor = det_poly([[h.hessian[i][j] for j in s] for i in s])
            if not minor.is_zero() and divides(h.f, minor) is None:
                return k, s, minor
    raise AssertionError("no principal minor passes")


def bareiss_pivot_columns(m: PolyMatrix) -> tuple[tuple[int, ...], MultiPoly]:
    """Pivot columns S of a nonempty square ``m``, and det m[S, S], by Bareiss over Q[x].

    The pivot rule is ``_bareiss``'s: the first nonzero entry in row order
    of the leftmost column that has one.  Each numerator pivot*x -
    factor*y is divided by the previous pivot, exactly by Sylvester's
    identity, so ``divides`` must find the quotient.  At full rank det m
    is the sign of the row swaps times the last pivot; below it the
    minor on S x S is this reference again on that submatrix (zero when
    it is singular, 1 when S is empty).
    """
    n = len(m)
    num_vars = m[0][0].num_vars
    work = [list(row) for row in m]
    prev = MultiPoly.constant(1, num_vars)
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
                row[j] = divides(prev, top[c] * row[j] - row[c] * top[j])
                assert row[j] is not None, "Bareiss division was not exact"
        prev = top[c]
        pivots.append(c)
    if len(pivots) == n:
        return tuple(pivots), sign * work[-1][-1]
    if not pivots:
        return (), MultiPoly.constant(1, num_vars)
    inner, minor = bareiss_pivot_columns([[m[i][j] for j in pivots] for i in pivots])
    return tuple(pivots), minor if len(inner) == len(pivots) else MultiPoly.zero(num_vars)


# A Mersenne prime, and a seeded point in Z/P for up to three variables.
P = (1 << 127) - 1
_POINT_RNG = random.Random(127)
POINT = tuple(_POINT_RNG.randrange(2, P) for _ in range(3))


def value_mod_p(x: MultiPoly, point) -> int:
    """x at ``point`` in Z/P, each coefficient num/den read as num * den^-1."""
    total = 0
    for exps, coeff in x.terms.items():
        term = coeff.numerator * pow(coeff.denominator, -1, P)
        for a, e in zip(point, exps):
            term = term * pow(a, e, P) % P
        total += term
    return total % P


def bareiss_mod_p(m: PolyMatrix, point) -> tuple[tuple[int, ...], int]:
    """``bareiss_pivot_columns(m)`` with m read at ``point`` in Z/P: the
    pivot columns S of m(point), and det m(point)[S, S] mod P.

    Reading at a point is a ring map to Z/P from the polynomials whose
    coefficients have denominators prime to P, so det m[S, S] read at the
    point is this determinant whenever S is right: the minor's check never
    fails on correct code.  The pivot
    columns of m(point) are those over Q(x) unless a nonzero minor of m,
    of degree at most 6 * 2 * 10^12 on the test's draws, vanishes at the
    point, a chance of about deg/P < 10^-25 (Schwartz-Zippel).
    """
    return _bareiss_mod_p([[value_mod_p(x, point) for x in row] for row in m])


def _bareiss_mod_p(values: list[list[int]]) -> tuple[tuple[int, ...], int]:
    n = len(values)
    work = [list(row) for row in values]
    prev, pivots, sign = 1, [], 1
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
        top, inverse = work[r], pow(prev, -1, P)
        for row in work[r + 1 :]:
            for j in range(c + 1, n):
                row[j] = (top[c] * row[j] - row[c] * top[j]) * inverse % P
        prev = top[c]
        pivots.append(c)
    if len(pivots) == n:
        return tuple(pivots), sign * work[-1][-1] % P if n else 1
    if not pivots:
        return (), 1
    inner, minor = _bareiss_mod_p([[values[i][j] for j in pivots] for i in pivots])
    return tuple(pivots), minor if len(inner) == len(pivots) else 0


def expanded_pivot_columns(m: PolyMatrix) -> tuple[tuple[int, ...], MultiPoly]:
    """``_pivot_columns_poly(m)``, which must run integer Bareiss exactly
    when every entry is constant, and the expansion by minors otherwise."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _bareiss(*args)

    constant = not any(sum(e) for row in m for x in row for e in x.terms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_bareiss", counted)
        expanded = _pivot_columns_poly(m)
    assert bool(calls) == constant
    return expanded


def expansion_and_bareiss(m: PolyMatrix) -> tuple[tuple, tuple]:
    """``expanded_pivot_columns(m)``, and ``bareiss_pivot_columns(m)``."""
    return expanded_pivot_columns(m), bareiss_pivot_columns(m)


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
    if k == 0:
        yield (), (), MultiPoly.constant(1, _shared_num_vars(m))
        return
    col_sets = list(_colex_subsets(range(cols), k))
    for row_set in _colex_subsets(range(rows), k):
        for col_set in col_sets:
            sub = [[m[i][j] for j in col_set] for i in row_set]
            yield row_set, col_set, det_poly(sub)
