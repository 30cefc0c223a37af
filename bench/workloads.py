"""Seeded inputs and queries for the three benchmark workloads.

Inputs are a pure function of the seed: the same seed gives
byte-identical polynomial text and point files.  Each query carries the
check that decides, without trusting the program, whether its answer is
right.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import verify
from verify import Term

WORKLOADS = ("det-minors", "dense-quartic", "pointwise")

# Monomials of det [[x0, x1, x2], [x3, x4, x5], [x6, x7, x8]] with their signs.
_DET_MONOMIALS = ((1, (0, 4, 8)), (-1, (0, 5, 7)), (-1, (1, 3, 8)),
                  (1, (1, 5, 6)), (1, (2, 3, 7)), (-1, (2, 4, 6)))

# The dense quartic keeps one support for every seed: which monomials
# appear decides most of the symbolic cost, so fixing them keeps the run
# time steady across seeds.  The seed picks the coefficients: a shuffled
# fixed multiset of magnitudes with random signs.
_QUARTIC_VARS = 5
_QUARTIC_TERMS = 17
_QUARTIC_SUPPORT = sorted(
    random.Random("dense-quartic-support").sample(
        sorted(e for e in itertools.product(range(5), repeat=_QUARTIC_VARS) if sum(e) == 4),
        _QUARTIC_TERMS,
    ),
    reverse=True,
)
_QUARTIC_MAGNITUDES = list(range(1, 10)) + list(range(1, 9))

POINTWISE_POINTS = 3000
_RANK_RELATION_POINTS = 4
_BOUNDS_REPLAYS = 6
_TORSION_CALLS = 3
# Hessian rank of the determinant cubic at a 3x3 matrix of rank 1, 2, 3.
_HESSIAN_RANK = {1: 4, 2: 6, 3: 9}


@dataclass(frozen=True)
class Query:
    """One CLI call: its arguments after ``symdeg`` and the check of its output."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], Optional[str]]


def poly_text(terms: list[Term]) -> str:
    pieces = []
    for coeff, exps in terms:
        mon = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)
        pieces.append(f"{'-' if coeff < 0 else '+'} {abs(coeff)}*{mon}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def det_cubic(seed: int) -> tuple[list[int], list[Term]]:
    """Generic 3x3 determinant with seeded nonzero rescaling x_i -> c_i*x_i.

    The magnitudes |c_i| are a seeded permutation of 1..9 with random
    signs: independent draws let coefficient sizes, and so the run time,
    vary by 20% across seeds.
    """
    rng = random.Random(f"det-cubic:{seed}")
    magnitudes = list(range(1, 10))
    rng.shuffle(magnitudes)
    scales = [rng.choice((-1, 1)) * m for m in magnitudes]
    terms = []
    for sign, (a, b, c) in _DET_MONOMIALS:
        exps = tuple(1 if i in (a, b, c) else 0 for i in range(9))
        terms.append((sign * scales[a] * scales[b] * scales[c], exps))
    return scales, terms


def dense_quartic(seed: int) -> list[Term]:
    rng = random.Random(f"dense-quartic:{seed}")
    magnitudes = list(_QUARTIC_MAGNITUDES)
    rng.shuffle(magnitudes)
    return [(rng.choice((-1, 1)) * m, e) for m, e in zip(magnitudes, _QUARTIC_SUPPORT)]


def _matrix_of_rank(rng: random.Random, r: int) -> list[int]:
    """Row-major 3x3 integer matrix A*B of exact rank r (A is 3xr, B is rx3)."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(r)]
        m = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(3)] for i in range(3)]
        if verify.rank(m) == r:
            return [x for row in m for x in row]


def det_points(seed: int, scales: list[int], count: int) -> list[tuple[int, tuple[int, ...]]]:
    """(construction rank, point) pairs for the rescaled determinant cubic.

    A point x has c_i * x_i = L * M_i for a matrix M of rank 1, 2 or 3,
    where L is the lcm of the scales, so x is integral and the cubic sees
    the matrix L*M.
    """
    rng = random.Random(f"det-points:{seed}")
    lcm = math.lcm(*(abs(c) for c in scales))
    points = []
    for _ in range(count):
        r = rng.randint(1, 3)
        m = _matrix_of_rank(rng, r)
        points.append((r, tuple(lcm * x // c for x, c in zip(m, scales))))
    return points


def _bounds_cases(seed: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    rng = random.Random(f"bounds:{seed}")
    replays = []
    for _ in range(_BOUNDS_REPLAYS):
        big_n = rng.randint(2, 12)
        replays.append((big_n, rng.randint(1, big_n), rng.randint(0, 6)))
    torsions = [(2 * rng.randint(0, 5) + 1, rng.randint(0, 4)) for _ in range(_TORSION_CALLS)]
    return replays, torsions


def _betti(d: int) -> str:
    return ",".join(["0"] * (2 * d) + ["1"])


def build_queries(workload: str, seed: int, input_dir: Path) -> list[Query]:
    """Write the seeded input files under ``input_dir`` and return one round of queries."""
    input_dir.mkdir(parents=True, exist_ok=True)
    if workload == "det-minors":
        _, terms = det_cubic(seed)
        path = input_dir / "det_cubic.txt"
        path.write_text(poly_text(terms) + "\n")
        return [Query("dual-dim", ("dual-dim", f"@{path}", "--format", "json"),
                      functools.partial(verify.check_dual_dim, expected=4))]
    if workload == "dense-quartic":
        terms = dense_quartic(seed)
        path = input_dir / "dense_quartic.txt"
        path.write_text(poly_text(terms) + "\n")
        rng = random.Random(f"dense-quartic-check:{seed}")
        point = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(_QUARTIC_VARS)]
        check = functools.partial(verify.check_hypersurface_rank, terms=terms, expected=5, point=point)
        return [Query("generic-rank", ("generic-rank", "--on-hypersurface", f"@{path}",
                                       "--format", "json"), check)]
    if workload == "pointwise":
        scales, terms = det_cubic(seed)
        poly_path = input_dir / "det_cubic.txt"
        poly_path.write_text(poly_text(terms) + "\n")
        points = det_points(seed, scales, POINTWISE_POINTS)
        points_path = input_dir / "points.txt"
        points_path.write_text("".join(",".join(map(str, p)) + "\n" for _, p in points))
        expected = [(_HESSIAN_RANK[r], p) for r, p in points]
        queries = [Query("stratify", ("stratify", f"@{poly_path}", f"@{points_path}", "--format", "json"),
                         functools.partial(verify.check_stratify, expected=expected))]
        smooth = [p for r, p in points if r == 2][:_RANK_RELATION_POINTS]
        for p in smooth:
            queries.append(Query("check-rank-relation",
                                 ("check-rank-relation", "--format", "json", f"@{poly_path}",
                                  "--", ",".join(map(str, p))),
                                 functools.partial(verify.check_rank_relation, rank_q=6, rank_a=4)))
        replays, torsions = _bounds_cases(seed)
        for big_n, r, d in replays:
            queries.append(Query("bounds-replay", ("bounds", "replay", str(big_n), str(r), str(d),
                                                   "--format", "json"),
                                 functools.partial(verify.check_bounds_replay, big_n=big_n, r=r, d=d)))
        for r, d in torsions:
            queries.append(Query("torsion", ("torsion", "--betti", _betti(d), "--r", str(r),
                                             "--d", str(d), "--format", "json"),
                                 verify.check_torsion))
        return queries
    raise ValueError(f"unknown workload {workload!r}")
