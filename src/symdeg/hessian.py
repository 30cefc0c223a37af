"""Hessian quadratic form of a homogeneous polynomial.

The form attached to f is the symmetric matrix of second partials; its
entries are homogeneous of degree d-2, so the rank at a projective point
does not depend on the chosen lift.  ``stratify`` is the one pointwise
rank routine, and ``rank_at`` is ``stratify`` at one point.  It uses that
freedom: the point is replaced by its primitive integer lift, the Hessian
by its primitive integer multiple (both from ``poly._primitive``), and the
rank is one integer Bareiss elimination.
``evaluate_hessian`` keeps the rational matrix for callers that need its
values.  Generic ranks (over the ambient space and over the hypersurface
f = 0) are certified symbolically by an explicit minor.  The ambient rank
comes from one expansion by minors of the whole matrix, or one integer
elimination when its entries are constant.  The form is symmetric, so
both witnesses are principal minors.  The hypersurface search starts from the
ambient certificate and tries C(n, k) index sets per size, not C(n, k)^2.
Both certificates read only ``hessian`` and ``f``: ``h._replace(f=g)``
ranks the same matrix on V(g), for any nonconstant squarefree g.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, dropwhile
from typing import NamedTuple, Optional, Sequence

from .errors import _EVALUATE_BITS, InternalCheckError, check_length
from .linalg import _bareiss, _colex_subsets, _expand_by_minors, _pivot_columns_poly
from .poly import (
    MultiPoly, _divide_terms, _extra_bits, _packed_terms, _packing, _primitive, _unpacked,
    differentiate, evaluate, homogeneous_degree,
)

Point = Sequence[Fraction | int]


class HessianForm(NamedTuple):
    """Symmetric matrix of second partials with degree bookkeeping.

    The certificates read only ``hessian`` and ``f``, for any symmetric H:
    ``h._replace(f=g)`` ranks H on V(g), g nonconstant and squarefree.
    """

    f: MultiPoly
    hessian: tuple[tuple[MultiPoly, ...], ...]
    degree: int
    ambient_dim: int  # projective dimension N; the matrix is (N+1) x (N+1)

    @property
    def size(self) -> int:
        return self.ambient_dim + 1


def build_hessian(f: MultiPoly) -> HessianForm:
    """Second-partials matrix of a homogeneous f of degree >= 2.

    Its n(n+1)/2 distinct entries are bounded by ``MAX_LENGTH`` before
    any is computed: a single stray index such as x5000 would otherwise
    start an n^2 construction that does not finish.
    """
    d = homogeneous_degree(f)
    if d is None:
        if f.is_zero():
            raise ValueError("zero polynomial has no Hessian form")
        raise ValueError("not homogeneous")
    if d < 2:
        raise ValueError(f"degree {d} < 2: the Hessian form needs degree >= 2")
    n = f.num_vars
    check_length("the Hessian upper triangle", n * (n + 1) // 2)
    gradient = [differentiate(f, i) for i in range(n)]
    upper = [differentiate(gradient[i], j) for i in range(n) for j in range(i, n)]
    rows = tuple(map(tuple, _symmetric(n, upper)))
    return HessianForm(f=f, hessian=rows, degree=d, ambient_dim=n - 1)


def _check_point(n: int, p: Point) -> list[Fraction | int]:
    coords = [c if type(c) is int else Fraction(c) for c in p]
    if len(coords) != n:
        raise ValueError(f"point has {len(coords)} coordinates, expected {n}")
    if all(c == 0 for c in coords):
        raise ValueError("zero point does not define a projective point")
    return coords


def _symmetric(n: int, upper: list) -> list[list]:
    """The symmetric n x n matrix whose upper triangle, in row order, is ``upper``.

    symdeg's one builder of symmetric matrices: the Hessian, its values at
    a point and its integer multiple here, and the adapted block and the
    implicit quadratic of ``dualvariety``.
    """
    rows: list[list] = []
    k = 0
    for i in range(n):
        rows.append([rows[j][i] for j in range(i)] + upper[k : k + n - i])
        k += n - i
    return rows


def evaluate_hessian(h: HessianForm, p: Point) -> list[list[Fraction]]:
    """The rational matrix at a nonzero point."""
    coords = _check_point(h.size, p)
    upper = [evaluate(e, coords) for i, row in enumerate(h.hessian) for e in row[i:]]
    return _symmetric(h.size, upper)


def rank_at(h: HessianForm, p: Point) -> int:
    """Rank of the form at a nonzero point, exact and lift-independent:
    ``stratify`` at that one point."""
    (rank,) = stratify(h, [p]).buckets
    return rank


# -- generic rank certificates -------------------------------------------------


class RankCertificate(NamedTuple):
    """A certified generic rank.

    The witness is a principal minor: ``witness_rows == witness_cols``
    index a principal submatrix of size ``rank`` whose determinant
    ``witness_minor`` is a nonzero polynomial (ambient case) or not
    divisible by f (hypersurface case).  The ambient rank is the number
    of greedy independent columns over Q(x); on the hypersurface the search
    already verified that no larger principal minor passes the same
    test, which by the principal-minor theorem bounds the rank.
    """

    rank: int
    witness_rows: tuple[int, ...]
    witness_cols: tuple[int, ...]
    witness_minor: MultiPoly
    on_hypersurface: bool
    caveat: Optional[str] = None


def ambient_rank_certificate(h: HessianForm) -> RankCertificate:
    """Rank of the Hessian H over Q(x), witnessed by a nonzero principal minor.

    ``_pivot_columns_poly`` gives the greedy independent columns S of H
    over Q(x), by expansion by minors in Z[x] (integer Bareiss when H is
    constant); the rank r is their number, and S is the witness.
    Soundness.  A column is in S exactly when it is not a Q(x)-
    combination of the columns before it, so the columns S are a basis
    of the column space: H = H[:, S] C for some r x n matrix C.  Taking
    the rows S, H[S, :] = H[S, S] C.  H is symmetric, so H[S, :] is the
    transpose of H[:, S] and has rank r; hence so has H[S, S], and its
    principal minor is a nonzero polynomial.  No minor larger than r is
    nonzero.  The witness minor det H[S, S] comes from the same
    computation, at every rank; a zero one raises InternalCheckError.
    """
    witness, det = _pivot_columns_poly(h.hessian)
    if det.is_zero():
        raise InternalCheckError("principal minor on the pivot columns is zero")
    return RankCertificate(len(witness), witness, witness, det, on_hypersurface=False)


def _reduced_caveat(f: MultiPoly) -> Optional[str]:
    """Cheap non-reducedness screen: common monomial factor of f.

    Only the content monomial is inspected; a square factor that is not
    a monomial goes undetected.  Good enough to flag degenerate inputs
    like pure powers of a variable.
    """
    mins = list(map(min, zip(*f.terms)))
    if any(e >= 2 for e in mins):
        return "f is divisible by the square of a variable: the hypersurface is not reduced"
    if any(e >= 1 for e in mins) and f.total_degree() > 1:
        return "f is divisible by a variable: the hypersurface is reducible"
    return None


def hypersurface_rank_certificate(h: HessianForm) -> RankCertificate:
    """Largest k with a principal k x k minor not divisible by f.

    Searches downward from the certified ambient rank r, principal index
    sets in colex order; every principal minor of every larger size has
    been checked divisible by the time a witness is returned.  Each set
    is visited once.  A division by f past ``MAX_LENGTH`` quotient terms
    raises ValueError: one that fails may take a step per unit of degree.
    S, the ambient witness, goes first: a nonzero principal r-minor picks
    a basis of the column space, and the greedy basis S precedes every
    other element by element in sorted order (Gale, J. Combin. Theory 4,
    1968), so in colex order, that of reversed tuples.  When f does not divide
    det H[S, S] (every quadric: f of degree 2 divides no nonzero constant), the
    ambient certificate is returned, marked on the hypersurface, and nothing is
    packed or expanded again.  f alone (so it stays primitive), S's minor and
    then c*H, the primitive multiple of H, are packed for degree max(n*delta,
    deg f), delta the largest entry degree, which bounds f and every minor.  One
    ``_divide_terms`` call tests each set, a later one on its ``_expand_by_minors``
    minor (skipped when zero).  A nonzero constant changes no divisibility.

    Soundness, for squarefree f with prime factors g.  A polynomial is
    not divisible by f exactly when it is not divisible by some g, that
    is, nonzero in the field K_g = Frac(Q[x]/(g)).  Over a field the rank
    of a symmetric matrix is the largest size of a nonzero principal
    minor (the principal-minor theorem; Kodiyalam-Lam-Swan).  So the
    k found here is max_g rank of H over K_g, which is also the largest
    k with some k x k minor, principal or not, not divisible by f.
    Minors larger than the ambient rank are zero polynomials.
    f must be squarefree, which the caller ensures: on a square factor the
    answer is silently wrong.  A cheap screen flags monomial squares.

    Only sets of indices whose Hessian row is not zero are tried.  A
    principal set holding a zero row has a zero minor, which the search
    skips anyway; and colex order on subsets of the live indices keeps
    their relative order among all subsets, so the first set that passes,
    and with it the rank, witness and minor, is unchanged.

    Sizes run down to k = 0, whose minor 1 no nonconstant f divides; a
    Hessian's own f stops by k = 2, as it divides no nonzero H_ii (degree
    d - 2) and, when all are 0, no -H_ij^2 (degree 0 in x_i, 1 in f).
    """
    ambient = ambient_rank_certificate(h)
    if h.f.num_vars != ambient.witness_minor.num_vars or not h.f.total_degree():
        raise ValueError("f must be a nonconstant polynomial in the matrix's variables")
    r, top = ambient.rank, ambient.witness_rows
    delta = max((x.total_degree() for row in h.hessian for x in row if x), default=0)
    packing = pack, unpack, _ = _packing(h.f.num_vars, max(h.size * delta, h.f.total_degree()))
    (f,) = _packed_terms((h.f,), pack)[1]
    if _divide_terms(f, _packed_terms((ambient.witness_minor,), pack)[1][0], packing) is None:
        return ambient._replace(on_hypersurface=True, caveat=_reduced_caveat(h.f))
    scale, flat = _packed_terms([x for row in h.hessian for x in row], pack)
    live = [i for i, row in enumerate(h.hessian) if any(row)]
    sets = chain.from_iterable(_colex_subsets(live, k) for k in range(r, -1, -1))
    for s in dropwhile(lambda s: len(s) == r and s[::-1] <= top[::-1], sets):
        kept, minor = _expand_by_minors([[flat[i * h.size + j] for j in s] for i in s])
        if len(kept) == len(s) and _divide_terms(f, minor, packing) is None:
            witness = _unpacked(h.f.num_vars, minor, unpack, 1 / scale ** len(s))
            return RankCertificate(len(s), s, s, witness, True, _reduced_caveat(h.f))
    raise InternalCheckError("divisibility search found no principal minor")


def generic_rank_ambient(h: HessianForm) -> int:
    return ambient_rank_certificate(h).rank


def generic_rank_on_hypersurface(h: HessianForm) -> int:
    return hypersurface_rank_certificate(h).rank


# -- stratification -------------------------------------------------------------


class RankStratification(NamedTuple):
    """Sample points bucketed by exact rank of the form; int coordinates stay ints."""

    buckets: dict[int, list[tuple[Fraction | int, ...]]]


def stratify(h: HessianForm, points: Sequence[Point]) -> RankStratification:
    """Bucket the points by the exact rank of the form, in input order.

    symdeg's one pointwise rank, computed entirely over Z.  The plan is
    built once: the upper triangle of c*H in row order, c*H the primitive
    multiple of H, each entry a ``poly._packed_terms`` dict keyed not by a
    packed int but by the sparse ((variable, exponent), ...) tuple, zero
    exponents left out.

    Soundness.  Let q be the primitive integer lift of a point p, q =
    lambda*p with lambda a nonzero rational.  The entries of H are
    homogeneous of degree d-2, so H(q) = lambda^(d-2) H(p), and c is the
    nonzero rational of ``poly._primitive``.  The integer matrix c*H(q) is
    therefore a nonzero multiple of H(p), and has the same rank over Q.
    That rank is the pivot count of the one Bareiss elimination, whose
    every division is checked to be exact (``linalg._bareiss``); nothing is
    decided modulo a prime.

    The evaluation budget of ``poly.evaluate`` applies to q: a term
    raising q_i to e_i needs at least sum e_i*(b_i - 1) bits, b_i the bit
    length of q_i, and more than ``_EVALUATE_BITS`` raises ValueError
    before any power is taken.  Every term has degree d-2, so when
    (d-2)*max(b_i - 1) is within budget no term is checked.
    """
    upper = [e for i, row in enumerate(h.hessian) for e in row[i:]]
    plan = _packed_terms(upper, lambda exps: tuple((v, k) for v, k in enumerate(exps) if k))[1]
    buckets: dict[int, list[tuple[Fraction | int, ...]]] = {}
    for p in points:
        coords = _check_point(h.size, p)
        lift = _primitive(coords)[1]
        if (h.degree - 2) * (max(map(abs, lift)).bit_length() - 1) > _EVALUATE_BITS:
            extra = [_extra_bits(x) for x in lift]
            for factors in chain.from_iterable(plan):
                bits = sum(e * extra[v] for v, e in factors)
                if bits > _EVALUATE_BITS:
                    raise ValueError(f"value needs at least {bits} bits (budget {_EVALUATE_BITS})")
        values = []
        for terms in plan:
            total = 0
            for factors, coeff in terms.items():
                for v, e in factors:
                    coeff *= lift[v] ** e
                total += coeff
            values.append(total)
        rank = len(_bareiss(_symmetric(h.size, values))[0])
        buckets.setdefault(rank, []).append(tuple(coords))
    return RankStratification(buckets=buckets)
