"""Exact linear algebra over Q, Z and polynomial rings.

Matrices are plain lists of rows.  Three entry kinds appear: Fraction
(rational matrices), int (integral matrices for homology certificates)
and MultiPoly (symbolic matrices such as Hessians).  Everything here is
exact; ranks and normal forms are certificates, not estimates.

Over Q or Q[x] a matrix m is first replaced by its primitive multiple
c*m in Z or Z[x] (``poly._primitive``), and a determinant of the scaled
n x n matrix is c^n times the one asked for.  Over Z one fraction-free
(Bareiss) routine computes every rank and determinant: it returns its
pivot columns and the sign of its row swaps, so a rank is the number of
pivots, and a determinant is sign / c^n times the last pivot at full
rank, 0 below it (``_rational_pivots``).  Over Z[x], where every monomial
is packed into one int (``poly._packed_terms``), expansion by minors finds
the same pivot columns S and the minor on S x S (det m when S is all of
them) with products of an entry and a minor only, and no division; a
polynomial matrix of constant entries goes to Bareiss.  Only the Smith
normal form, which needs unimodular row and column operations, keeps a
loop of its own; it and ``cokernel`` are all that never load ``poly``.

Determinism matters for golden tests: pivots are always the first
admissible entry in row order, and minor searches take index sets in
colexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from . import poly
from .errors import InternalCheckError

RatMatrix = Sequence[Sequence[Fraction]]
IntMatrix = Sequence[Sequence[int]]
PolyMatrix = Sequence[Sequence["poly.MultiPoly"]]
_EXPANSION_TERMS = 1 << 22  # terms in one column of ``_expand_by_minors``


def matrix_dims(m: Sequence[Sequence]) -> tuple[int, int]:
    """(rows, cols) of a rectangular matrix; rejects ragged input."""
    rows = len(m)
    if rows == 0:
        return 0, 0
    cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    return rows, cols


def identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    ra, ca = matrix_dims(a)
    rb, cb = matrix_dims(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return [
        [sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)]
        for i in range(ra)
    ]


# -- fraction-free elimination -------------------------------------------------


def _bareiss(work: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon of the integer matrix ``work``, in place.

    The one elimination loop for every rank and determinant over Z: each
    step sets x to (pivot*x - factor*y) / prev, prev the previous pivot
    (1 before the first).  The pivot is the first nonzero entry in row
    order of the leftmost column that has one.  Returns the pivot columns
    and the sign of the row swaps.  Entries below a pivot are left as
    they were; no later step reads them.

    Exactness (Bareiss 1968): by Sylvester's identity, once r pivots are
    eliminated every entry of the rows below, right of the pivot columns,
    is the (r+1)-minor on the pivot rows and columns plus its own row and
    column.  The next numerator, a 2x2 combination of such minors, is the
    (r+2)-minor times the previous pivot, so dividing by that pivot is
    exact, and every intermediate is an integer; a nonzero remainder
    raises InternalCheckError.  The last pivot of a square matrix of full
    rank is its determinant times the sign.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    prev = 1
    pivots: list[int] = []
    sign = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r]
        pivot = top[c]
        for row in work[r + 1 :]:
            factor = row[c]
            for j in range(c + 1, cols):
                q, rem = divmod(pivot * row[j] - factor * top[j], prev)
                if rem:
                    raise InternalCheckError("Bareiss division was not exact")
                row[j] = q
        prev = pivot
        pivots.append(c)
    return pivots, sign


# -- rank and determinant over Q ------------------------------------------------


def _rational_pivots(m: RatMatrix) -> tuple[list[int], Fraction]:
    """Pivot columns of ``m`` over Q, and det m when m is square of full rank, else 0.

    The one Bareiss driver: ``_bareiss`` eliminates the primitive integer
    multiple c*m (``poly._primitive``), which has the same pivot columns,
    and at full rank det m is sign / c^n times the last pivot.  The 0 x 0
    matrix gives ([], 1).
    """
    rows, cols = matrix_dims(m)
    scale, ints = poly._primitive(x for row in m for x in row)
    work = [ints[i * cols : (i + 1) * cols] for i in range(rows)]
    pivots, sign = _bareiss(work)
    if rows != cols or len(pivots) < rows:
        return pivots, Fraction(0)
    return pivots, Fraction(sign * work[-1][-1] if rows else 1) / scale**rows


def rank_rational(m: RatMatrix) -> int:
    """Rank over Q: the pivot count of ``_rational_pivots``, each Bareiss division checked exact."""
    return len(_rational_pivots(m)[0])


def det_rational(m: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix, from ``_rational_pivots``."""
    rows, cols = matrix_dims(m)
    if rows != cols:
        raise ValueError("determinant needs a square matrix")
    return _rational_pivots(m)[1]


# -- symbolic minors ----------------------------------------------------------


def _pivot_columns_poly(m: PolyMatrix) -> tuple[tuple[int, ...], poly.MultiPoly]:
    """Pivot columns S of a square ``m`` over Q[x], and det m[S, S].

    The pivot columns are the greedy independent columns: column c is one
    exactly when it is not a Q(x)-combination of the columns before it.
    M is replaced once by its primitive multiple c*M in Z[x]
    (``poly._packed_terms``), and det(c*M[S, S]) = c^r * det M[S, S], r = |S|.

    Expansion by minors (``_expand_by_minors``) finds both, on packed
    integer term dicts, with terms of degree at most n*delta (delta the
    largest entry degree; the packing bound) and no division; only the
    minor is unpacked.  When delta is 0 the matrix is a rational one, and
    integer Bareiss (``_rational_pivots``) finds the same columns in
    polynomial time, where the expansion's 2^n row sets would not finish
    for a quadric in a few dozen variables; below full rank one r x r
    rational determinant gives the minor.  The 0 x 0 matrix gives the
    constant 1.
    """
    num_vars = _shared_num_vars(m)
    n = len(m)
    delta = max((x.total_degree() for row in m for x in row if x), default=0)
    if not delta:
        consts = [[x.terms.get((0,) * num_vars, 0) for x in row] for row in m]
        pivots, det = _rational_pivots(consts)
        if len(pivots) < n:
            det = _rational_pivots([[consts[i][j] for j in pivots] for i in pivots])[1]
        return tuple(pivots), poly.MultiPoly.constant(det, num_vars)
    pack, unpack, _ = poly._packing(num_vars, n * delta)
    scale, flat = poly._packed_terms([x for row in m for x in row], pack)
    pivots, minor = _expand_by_minors([flat[i * n : (i + 1) * n] for i in range(n)])
    return tuple(pivots), poly._unpacked(num_vars, minor, unpack, 1 / scale ** len(pivots))


def _expand_by_minors(work: list[list[dict]]) -> tuple[list[int], dict]:
    """Greedy independent columns K of a square matrix of packed integer
    term dicts, and its minor on rows and columns K ({} when zero).

    Column by column (Gentleman and Johnson, ACM TOMS 1976): after
    column c, ``minors`` maps each row set R (a bitmask) to the minor on R
    and the kept columns, when it is nonzero.  A minor with the new
    column, the last one, is the Laplace expansion along it: the sum over
    i in R of (-1)^(rows of R below i) * m[i][c] times the minor on
    R - {i}.  Zero minors contribute nothing, so none is stored.
    Soundness.  The kept columns K are independent, so K + {c} is
    independent exactly when one of its minors is nonzero; otherwise
    column c is a Q(x)-combination of K and is skipped.  The row set K
    then holds the minor on K x K, det m at full rank.  Every term is an
    entry times a minor of at most n - 1 columns, of degree at most
    n*delta; no two minors are ever multiplied.
    Cost.  Up to C(n, k) minors are stored after k kept columns, so time
    and memory grow as 2^n on a dense matrix.  Past ``_EXPANSION_TERMS``
    terms in the column being built, cancelled ones included, counted
    after each entry-times-minor product, ValueError is raised; with the
    column before, which passed the same check, at most twice that many
    terms are held.
    """
    budget = _EXPANSION_TERMS
    mul_add = poly._mul_add
    minors: dict[int, dict] = {0: {0: 1}}
    kept = []
    for c in range(len(work)):
        column = [(i, 1 << i, row[c]) for i, row in enumerate(work) if row[c]]
        grown: dict[int, dict] = {}
        size = 0
        for mask, minor in minors.items():
            for i, bit, entry in column:
                if mask & bit:
                    continue
                out = grown.setdefault(mask | bit, {})
                size -= len(out)
                mul_add(out, entry, minor, -1 if (mask >> i).bit_count() & 1 else 1)
                size += len(out)
                if size > budget:
                    raise ValueError(f"expansion by minors passed its budget of {budget} terms")
        grown = {r: t for r, out in grown.items() if (t := {e: k for e, k in out.items() if k})}
        if grown:
            minors = grown
            kept.append(c)
    return kept, minors.get(sum(1 << c for c in kept), {})


def _shared_num_vars(m: PolyMatrix) -> int:
    counts = {entry.num_vars for row in m for entry in row}
    if len(counts) > 1:
        raise ValueError("matrix entries live in different polynomial rings")
    return counts.pop() if counts else 0


def _colex_subsets(pool: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """The k-subsets of ``pool`` in colex order (largest element first), one at a time.

    Colex order is increasing bitmask order over the pool's positions, so
    the dropped positions come in decreasing order: the lex order in which
    ``combinations`` takes (n - k)-sets from the positions listed last first.
    There are none when k > n.
    """
    n = len(pool)
    for dropped in map(set, combinations(range(n - 1, -1, -1), n - k) if k <= n else ()):
        yield tuple(x for i, x in enumerate(pool) if i not in dropped)


# -- Smith normal form and cokernels ------------------------------------------


def smith_normal_form(
    m: IntMatrix,
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with D = U*m*V diagonal, d1 | d2 | ..., all di >= 0.

    One reduction loop per diagonal position t.  Each round moves the
    smallest nonzero entry of the block d[t:, t:] to (t, t), ties going
    to the first in row-major order, and reduces the pivot's column and
    row by floor division.  A nonzero remainder left in that column or
    row sends the loop round again.  Once both are clear, the first row
    with an entry the pivot does not divide is added to the pivot row,
    and the loop goes round again; otherwise the pivot divides the whole
    block and position t is done.  A zero block ends the work.  U and V
    collect the row and column operations and stay unimodular by
    construction.  The factorization is re-multiplied before returning.

    Termination: |pivot| is a positive integer that never grows, and it
    strictly decreases at least every second round.  A remainder is
    smaller than the pivot, so after a round that leaves one the next
    pick is smaller.  After a fold-in the next round keeps the pivot (it
    is first in row-major order) or picks a smaller entry; keeping it,
    it leaves a remainder in the pivot row, from the folded-in entry.
    """
    rows, cols = matrix_dims(m)
    d = [[int(x) for x in row] for row in m]
    u = identity_int(rows)
    v = identity_int(cols)

    def add_row(src: int, dst: int, factor: int) -> None:
        for a in (d, u):
            a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]

    def add_col(src: int, dst: int, factor: int) -> None:
        for row in (*d, *v):
            row[dst] += factor * row[src]

    limit = min(rows, cols)
    for t in range(limit):
        while True:
            block = [
                (abs(d[i][j]), i, j)
                for i in range(t, rows)
                for j in range(t, cols)
                if d[i][j]
            ]
            if not block:
                break
            _, i, j = min(block)
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
            for row in (*d, *v):
                row[t], row[j] = row[j], row[t]
            pivot = d[t][t]
            for i in range(t + 1, rows):
                add_row(t, i, -(d[i][t] // pivot))
            for j in range(t + 1, cols):
                add_col(t, j, -(d[t][j] // pivot))
            if any(d[i][t] for i in range(t + 1, rows)) or any(d[t][t + 1 :]):
                continue
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in d[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    product = mat_mul(mat_mul(u, [[int(x) for x in row] for row in m]), v)
    if product != d:
        raise InternalCheckError("Smith factorization does not multiply back")
    diag = [d[i][i] for i in range(limit)]
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise InternalCheckError("zero precedes nonzero on Smith diagonal")
        if a != 0 and b % a != 0:
            raise InternalCheckError("Smith diagonal divisibility chain broken")
    return u, d, v


class _FGAbelianGroupFields(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...] = ()


class FGAbelianGroup(_FGAbelianGroupFields):
    """Finitely generated abelian group: free rank plus torsion chain.

    A NamedTuple cannot define ``__new__``, so this subclass of the field
    tuple validates every construction; ``_make``, and so ``_replace``, too.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for value in torsion:
            if value < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        return super().__new__(cls, free_rank, torsion)

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        free = {0: [], 1: ["Z"]}.get(self.free_rank, [f"Z^{self.free_rank}"])
        return " + ".join(free + [f"Z/{d}" for d in self.torsion]) or "0"


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Cokernel of the map Z^cols -> Z^rows given by the matrix.

    Invariant factors come straight from the Smith diagonal: unit
    entries contribute nothing, entries >= 2 become torsion, and the
    missing pivots are free rank.
    """
    rows, _ = matrix_dims(m)
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    nonzero = [x for x in diag if x != 0]
    return FGAbelianGroup(
        free_rank=rows - len(nonzero),
        torsion=tuple(x for x in nonzero if x >= 2),
    )
