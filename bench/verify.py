"""Independent checks of the answers the symdeg CLI prints.

Nothing here imports symdeg: polynomial text is parsed, evaluated and
differentiated with a few lines of exact ``Fraction`` arithmetic, and
determinants and ranks come from plain Gaussian elimination.  Every
checker takes the CLI's JSON output and returns ``None`` when the
answer is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

# (integer coefficient, exponent vector)
Term = tuple[int, tuple[int, ...]]

_TERM = re.compile(r"[+-]?[^+-]+")
_NUMBER = re.compile(r"\d+(?:/\d+)?")
_FACTOR = re.compile(r"[A-Za-z_]+(\d+)(?:\^(\d+))?")


def parse_terms(text: str, num_vars: int) -> dict[tuple[int, ...], Fraction]:
    """Exponent vector -> coefficient for text like ``-3/2*x0^2*x1 + x2``."""
    out: dict[tuple[int, ...], Fraction] = {}
    compact = text.replace(" ", "")
    if compact == "0":
        return out
    for term in _TERM.findall(compact):
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        coeff = Fraction(sign)
        exps = [0] * num_vars
        for factor in body.split("*"):
            if _NUMBER.fullmatch(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"cannot read factor {factor!r}")
            exps[int(m.group(1))] += int(m.group(2) or 1)
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def evaluate(terms: dict[tuple[int, ...], Fraction], point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


def hessian_at(terms: Sequence[Term], point: Sequence[Fraction]) -> list[list[Fraction]]:
    """Matrix of second partials of sum(c * x^e) at a rational point."""
    n = len(point)
    h = [[Fraction(0)] * n for _ in range(n)]
    for coeff, exps in terms:
        for i in range(n):
            for j in range(i, n):
                e = list(exps)
                factor = e[i]
                e[i] -= 1
                factor *= e[j]
                e[j] -= 1
                if factor == 0:
                    continue
                value = Fraction(coeff * factor)
                for x, k in zip(point, e):
                    value *= x**k
                h[i][j] += value
    for i in range(n):
        for j in range(i):
            h[i][j] = h[j][i]
    return h


def _eliminate(m: Sequence[Sequence[Fraction]]) -> tuple[int, Fraction]:
    """(rank, product of pivots with row-swap sign) by Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i][c] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            det = -det
        det *= work[rank][c]
        for i in range(rank + 1, rows):
            factor = work[i][c] / work[rank][c]
            if factor:
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank, det


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    return _eliminate(m)[0]


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    if len(m) == 0:
        return Fraction(1)
    return _eliminate(m)[1]


# -- per-query checkers ---------------------------------------------------------


def _load(output: str) -> dict:
    try:
        return json.loads(output)
    except json.JSONDecodeError:
        raise ValueError("output is not JSON") from None


def check_dual_dim(output: str, expected: int) -> Optional[str]:
    got = _load(output).get("dual_dimension")
    return None if got == expected else f"dual_dimension {got!r}, expected {expected}"


def check_hypersurface_rank(
    output: str, terms: Sequence[Term], expected: int, point: Sequence[Fraction]
) -> Optional[str]:
    """Rank, and the witness minor against the Hessian evaluated at ``point``."""
    report = _load(output)
    if report.get("rank") != expected or report.get("on_hypersurface") is not True:
        return f"rank {report.get('rank')!r} on_hypersurface {report.get('on_hypersurface')!r}, expected {expected} on the hypersurface"
    rows, cols = report["witness_rows"], report["witness_cols"]
    if len(rows) != expected or len(cols) != expected:
        return f"witness of size {len(rows)}x{len(cols)}, expected {expected}x{expected}"
    minor = parse_terms(report["witness_minor"], len(point))
    h = hessian_at(terms, point)
    want = det([[h[i][j] for j in cols] for i in rows])
    got = evaluate(minor, point)
    if got != want:
        return f"witness minor evaluates to {got}, the Hessian submatrix has determinant {want}"
    return None


def check_stratify(output: str, expected: Sequence[tuple[int, tuple[int, ...]]]) -> Optional[str]:
    """Every point sits in the bucket of its construction rank, once."""
    buckets = _load(output).get("ranks", {})
    got = Counter(
        (int(r), tuple(Fraction(c) for c in point))
        for r, points in buckets.items()
        for point in points
    )
    want = Counter((r, tuple(Fraction(c) for c in point)) for r, point in expected)
    if got != want:
        wrong = sum((want - got).values())
        return f"{wrong} of {len(expected)} points not in the bucket of their construction rank"
    return None


def check_rank_relation(output: str, rank_q: int, rank_a: int) -> Optional[str]:
    report = _load(output)
    got = (report.get("rank_Q"), report.get("rank_A"), report.get("holds"))
    return None if got == (rank_q, rank_a, True) else f"(rank_Q, rank_A, holds) = {got}, expected ({rank_q}, {rank_a}, True)"


def check_bounds_replay(output: str, big_n: int, r: int, d: int) -> Optional[str]:
    """The replay is consistent exactly when d <= N - r (default Betti vector)."""
    report = _load(output)
    steps = report.get("steps") or []
    steps_ok = bool(steps) and all(step.get("ok") is True for step in steps)
    consistent = report.get("verdict") == "d <= N-r consistent"
    want = d <= big_n - r
    if steps_ok != want or consistent != want:
        return f"replay ({big_n}, {r}, {d}) verdict {report.get('verdict')!r}, expected {'consistent' if want else 'contradiction'}"
    return None


def check_torsion(output: str) -> Optional[str]:
    report = _load(output)
    got = (report.get("element_order"), report.get("quotient"))
    want = (2, {"free_rank": 0, "torsion": [2]})
    return None if got == want else f"torsion certificate {got}, expected {want}"
