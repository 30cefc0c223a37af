"""Dimension bounds for symmetric degeneracy loci, replayed as arithmetic.

The main bound d <= N - r is not asserted from the closed form; the
replay walks the homological argument step by step (vanishing range of
the complement, a nonvanishing certificate two steps inside it, the
resulting inequality, and, for odd rank, the exclusion of the equality
case by torsion against torsion-freeness) and reports where, if
anywhere, the hypotheses collide.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence, Union

from .errors import InternalCheckError
from .linalg import rank_rational
from .quadrics import (
    NonsurjectivityCertificate,
    TorsionCertificate,
    check_betti_for_dim,
    nonsurjectivity_certificate,
    torsion_certificate,
)


def main_bound(N: int, r: int) -> int:
    """The bound on dim X for a constant-rank-r form: N - r."""
    if not 0 < r <= N:
        raise ValueError("need 0 < r <= N")
    return N - r


class BoundStep(NamedTuple):
    statement: str
    lhs: int
    rhs: int
    ok: bool


class BoundReport(NamedTuple):
    """Step-by-step replay of the dimension bound argument."""

    N: int
    r: int
    d: int
    n: int
    steps: tuple[BoundStep, ...]
    verdict: str
    certificate: Union[NonsurjectivityCertificate, TorsionCertificate]

    @property
    def consistent(self) -> bool:
        return all(step.ok for step in self.steps)


def replay_main_theorem(N: int, r: int, d: int, betti: Sequence[int]) -> BoundReport:
    """Replay the homological proof of d <= N - r on concrete numbers.

    Steps: (1) the complement of the quadric bundle has no homology
    above degree N + d - 1 (taken as an arithmetic axiom); (2) a
    certificate from the fiber tables puts nonzero homology in degree
    2n + 2d - 1; (3) therefore 2n + 2d - 1 <= N + d - 1; (4) for odd
    rank, equality is impossible because the threshold group is
    torsion-free while the certificate produces 2-torsion.  A verdict
    of contradiction means the hypotheses cannot coexist, i.e. the
    next-lower degeneracy locus must be nonempty, if the theorem's hypotheses
    hold: N, r and d are bare numbers here, and nothing checks that S^2 V* (x) L
    is ample or that r is the maximum rank of the form.
    """
    if not 0 < r <= N:
        raise ValueError("need 0 < r <= N")
    b = check_betti_for_dim(betti, d)
    n = r // 2
    odd = r % 2 == 1
    steps: list[BoundStep] = []

    threshold = N + d - 1
    steps.append(
        BoundStep(
            statement="complement homology vanishes above degree N+d-1",
            lhs=threshold,
            rhs=threshold,
            ok=True,
        )
    )

    if odd:
        certificate: Union[NonsurjectivityCertificate, TorsionCertificate]
        certificate = torsion_certificate(b, r, d)
        torsion = certificate.quotient.torsion
        steps.append(
            BoundStep(
                statement="Gysin quotient has an order-2 element, forcing homology in degree 2n+2d-1",
                lhs=torsion[0] if torsion else 0,
                rhs=2,
                ok=bool(torsion) and torsion[0] == 2,
            )
        )
    else:
        certificate = nonsurjectivity_certificate(b, r, d)
        steps.append(
            BoundStep(
                statement="Gysin source dimension falls below target, forcing homology in degree 2n+2d-1",
                lhs=certificate.dim_source,
                rhs=certificate.dim_target,
                ok=certificate.surjection_impossible,
            )
        )

    nonvanishing = 2 * n + 2 * d - 1
    steps.append(
        BoundStep(
            statement="nonvanishing degree stays within the vanishing range: 2n+2d-1 <= N+d-1",
            lhs=nonvanishing,
            rhs=threshold,
            ok=nonvanishing <= threshold,
        )
    )

    if odd:
        steps.append(
            BoundStep(
                statement="equality d = N-2n is excluded: the degree-N+d-1 group is torsion-free but receives 2-torsion",
                lhs=d,
                rhs=N - 2 * n,
                ok=d != N - 2 * n,
            )
        )

    failed = next((k for k, step in enumerate(steps, start=1) if not step.ok), None)
    if failed is None:
        verdict = "d <= N-r consistent"
    else:
        verdict = (
            f"contradiction located at step {failed}: X_{r - 1} must be nonempty"
        )
    return BoundReport(
        N=N, r=r, d=d, n=n, steps=tuple(steps), verdict=verdict, certificate=certificate
    )


def telescoping_terms(N: int, r: int) -> list[int]:
    """Per-step bounds N-s+1 for s descending from N to r+1."""
    return [N - s + 1 for s in range(r + 1, N + 1)]


def corollary_threshold(N: int, r: int) -> int:
    """Dimension threshold C(N-r+1, 2) forcing the rank-r locus nonempty.

    Verified against the telescoped sum of per-step main bounds before
    being returned.
    """
    if not 0 <= r < N:
        raise ValueError("need 0 <= r < N")
    value = comb(N - r + 1, 2)
    if value != sum(telescoping_terms(N, r)):
        raise InternalCheckError("binomial threshold disagrees with the telescoped sum")
    return value


def sym_stratum_dim(N: int, r: int) -> int:
    """Dimension of the projectivized rank-<=r stratum of symmetric N x N forms.

    Computed by taking the telescoped codimension-(N-s+1) drops off the
    full space, then checked against the closed form.
    """
    if not 1 <= r <= N:
        raise ValueError("need 1 <= r <= N")
    dim = comb(N + 1, 2) - 1 - sum(telescoping_terms(N, r))
    closed = comb(N + 1, 2) - comb(N - r + 1, 2) - 1
    if dim != closed:
        raise InternalCheckError("stratum recursion disagrees with the closed form")
    return dim


def veronese_witness(v: Sequence[Union[Fraction, int]]) -> list[list[Fraction]]:
    """Rank-1 symmetric witness v v^T: an (N-1)-parameter family missing rank 0."""
    coords = [Fraction(x) for x in v]
    if not coords:
        raise ValueError("empty vector")
    if all(x == 0 for x in coords):
        raise ValueError("zero vector has rank 0, not 1")
    matrix = [[a * b for b in coords] for a in coords]
    if rank_rational(matrix) != 1:
        raise InternalCheckError("outer product of a nonzero vector must have rank 1")
    return matrix
