"""Homology bookkeeping for quadric bundles, as integer arithmetic.

A smooth quadric of rank r has cohomology concentrated in even degrees
with ranks given by a fixed table; here the table, the multiply-by-two
behaviour of the middle Gysin map and the resulting dimension counts
and torsion certificates are replayed over a free model of the base
homology supplied as a vector of Betti numbers.
Both bundle dimension counts go through the one product formula in
``_leray_hirsch``.
No topology is computed: the point is that the headline conclusions
reduce to small exact calculations that can be re-run and audited.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InternalCheckError
from .linalg import FGAbelianGroup, cokernel, smith_normal_form

IntVector = Sequence[int]


def _check_betti(betti: Sequence[int]) -> list[int]:
    out = []
    for value in betti:
        iv = int(value)
        if iv != value or iv < 0:
            raise ValueError("Betti numbers must be non-negative integers")
        out.append(iv)
    if not out:
        raise ValueError("empty Betti vector")
    return out


def check_betti_for_dim(betti: Sequence[int], d: int) -> list[int]:
    if d < 0:
        raise ValueError("dimension must be non-negative")
    out = _check_betti(betti)
    if len(out) != 2 * d + 1:
        raise ValueError(
            f"Betti vector must have 2d+1 = {2 * d + 1} entries for dimension {d}, got {len(out)}"
        )
    if out[2 * d] < 1:
        raise ValueError("top Betti number must be at least 1")
    return out


# -- fiber tables ---------------------------------------------------------------


def quadric_betti(r: int, i: int) -> int:
    """Rank of H^{2i} of a smooth quadric of rank r (dimension r-2).

    One basis class per degree, except the middle degree of an
    even-rank quadric, which carries two.
    """
    if r < 2:
        raise ValueError("quadric table needs rank >= 2")
    if i < 0 or i > r - 2:
        return 0
    if r % 2 == 0 and i == r // 2 - 1:
        return 2
    return 1


# -- Leray-Hirsch dimension counts -----------------------------------------------


def _leray_hirsch(b: list[int], k: int, fiber: Callable[[int], int]) -> int:
    """dim H_k of a bundle whose fiber has rank ``fiber(i)`` in degree 2i.

    Product formula: each fiber class in degree 2i contributes the base
    dimension in degree k - 2i.  The sum runs over the base degrees
    j = k - 2i, so its length is bounded by the input, not by the fiber.
    """
    if k < 0:
        raise ValueError("homological degree must be non-negative")
    return sum(fiber((k - j) // 2) * b[j] for j in range(k % 2, min(k + 1, len(b)), 2))


def lh_quadric_dim(betti: Sequence[int], r: int, k: int) -> int:
    """dim H_k of a quadric bundle over a base with the given Betti numbers."""
    b = _check_betti(betti)
    if r < 2:
        raise ValueError("quadric table needs rank >= 2")
    return _leray_hirsch(b, k, lambda i: quadric_betti(r, i))


def lh_projective_dim(betti: Sequence[int], fiber_dim: int, k: int) -> int:
    """dim H_k of a projective bundle: P^fiber_dim has one class in degrees 0..2*fiber_dim."""
    b = _check_betti(betti)
    if fiber_dim < 0:
        raise ValueError("fiber dimension must be non-negative")
    return _leray_hirsch(b, k, lambda i: int(i <= fiber_dim))


# -- certificates -----------------------------------------------------------------


class NonsurjectivityCertificate(NamedTuple):
    """Dimension-count certificate that the Gysin map cannot surject."""

    r: int
    d: int
    n: int
    degree_source: int
    degree_target: int
    dim_source: int
    dim_target: int
    surjection_impossible: bool


def nonsurjectivity_certificate(
    betti: Sequence[int], r: int, d: int
) -> NonsurjectivityCertificate:
    """Even-rank branch: source dimension falls short of the target.

    The gap dim_target - dim_source always equals the top Betti number
    of the base, which the precondition forces to be positive.
    """
    if r % 2 != 0:
        raise ValueError("odd rank belongs to the torsion certificate")
    if r < 2:
        raise ValueError("rank must be at least 2")
    b = check_betti_for_dim(betti, d)
    n = r // 2
    degree_source = 2 * d + 2 * n
    degree_target = 2 * d + 2 * n - 2
    dim_source = lh_projective_dim(b, r - 1, degree_source)
    dim_target = lh_quadric_dim(b, r, degree_target)
    return NonsurjectivityCertificate(
        r=r,
        d=d,
        n=n,
        degree_source=degree_source,
        degree_target=degree_target,
        dim_source=dim_source,
        dim_target=dim_target,
        surjection_impossible=dim_source < dim_target,
    )


class PhiReplay(NamedTuple):
    """One run of the four-times-a membership replay."""

    n: int
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    image: tuple[tuple[int, ...], ...]
    check: bool
    conclusion: str


def phi_torsion_replay(a: Sequence[IntVector], n: int) -> PhiReplay:
    """Replay the slot arithmetic showing 4a lies in the Gysin image.

    ``a`` has 2n slots (one per fiber basis class of an odd-rank
    quadric, rank 2n+1), each slot a vector over the free base model.
    The preimage candidate copies the low slots and doubles the high
    ones; pushing it back through the map multiplies low slots by 4 and
    high slots by 2, which lands on 4a in every slot.  The construction
    is forced, so ``check`` is always expected true; it is still
    recomputed, never assumed.
    """
    if n < 1:
        raise ValueError("need n >= 1 (odd rank 2n+1 >= 3)")
    slots = [tuple(int(x) for x in vec) for vec in a]
    if len(slots) != 2 * n:
        raise ValueError(f"need 2n = {2 * n} slots, got {len(slots)}")
    b = [slots[q - 1] if q <= n else tuple(2 * x for x in slots[q - 1]) for q in range(1, 2 * n + 1)]
    image = [
        tuple(4 * x for x in b[q - 1]) if q <= n else tuple(2 * x for x in b[q - 1])
        for q in range(1, 2 * n + 1)
    ]
    four_a = [tuple(4 * x for x in vec) for vec in slots]
    check = image == four_a
    return PhiReplay(
        n=n,
        a=tuple(slots),
        b=tuple(b),
        image=tuple(image),
        check=check,
        conclusion="4a lies in the image of the Gysin map",
    )


class TorsionCertificate(NamedTuple):
    """Odd-rank certificate: the Gysin quotient has an order-2 element."""

    r: int
    d: int
    n: int
    relation: Optional[str]
    bottom_matrix: tuple[tuple[int, ...], ...]
    snf_diagonal: tuple[int, ...]
    quotient: FGAbelianGroup
    element_order: int
    vertical_surjective: bool


def torsion_certificate(betti: Sequence[int], r: int, d: int) -> TorsionCertificate:
    """Odd-rank branch: the quotient by the Gysin image is Z/2.

    The fiber-level map multiplies the middle class by 2; over the free
    base model with positive top Betti number the vertical comparison
    maps surject, so the quotient of interest receives the cokernel of
    multiplication by 2 on Z.  That cokernel is recomputed from scratch
    through the Smith machinery rather than asserted.
    """
    if r % 2 == 0:
        raise ValueError("even rank belongs to the dimension-count certificate")
    if r < 1:
        raise ValueError("rank must be positive")
    b = check_betti_for_dim(betti, d)
    n = r // 2
    bottom = [[2]]
    _, diag, _ = smith_normal_form(bottom)
    quotient = cokernel(bottom)
    if quotient != FGAbelianGroup(free_rank=0, torsion=(2,)):
        raise InternalCheckError("multiplication by 2 on Z must have cokernel Z/2")
    # Fiber relation h^n = 2e: the Gysin image in middle degree has index 2.
    relation = None if n == 0 else "h = 2*e" if n == 1 else f"h^{n} = 2*e"
    return TorsionCertificate(
        r=r,
        d=d,
        n=n,
        relation=relation,
        bottom_matrix=((2,),),
        snf_diagonal=tuple(diag[i][i] for i in range(len(diag))),
        quotient=quotient,
        element_order=2,
        vertical_surjective=b[2 * d] >= 1,
    )
