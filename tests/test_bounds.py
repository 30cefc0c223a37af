"""Dimension bounds: replayed inequality chain, thresholds, stratum dimensions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import (
    corollary_threshold,
    main_bound,
    rank_rational,
    replay_main_theorem,
    sym_stratum_dim,
    veronese_witness,
)
from symdeg.cli import to_json

# -- the bound itself ---------------------------------------------------------


def test_main_bound_values():
    assert main_bound(4, 3) == 1
    assert main_bound(7, 7) == 0
    assert main_bound(10, 4) == 6


def test_main_bound_preconditions():
    with pytest.raises(ValueError):
        main_bound(4, 0)
    with pytest.raises(ValueError):
        main_bound(4, 5)


# -- replayed proof ------------------------------------------------------------


def test_replay_odd_rank_consistent_case():
    report = replay_main_theorem(4, 3, 1, [1, 0, 1])
    assert report.verdict == "d <= N-r consistent"
    assert report.consistent
    assert len(report.steps) == 4
    assert all(step.ok for step in report.steps)
    # step 3 carries the inequality 2n+2d-1 <= N+d-1: here 3 <= 4
    assert (report.steps[2].lhs, report.steps[2].rhs) == (3, 4)


def test_replay_odd_rank_contradiction():
    surface_betti = [1, 0, 1, 0, 1]
    report = replay_main_theorem(4, 3, 2, surface_betti)
    assert report.verdict == "contradiction located at step 4: X_2 must be nonempty"
    assert not report.consistent


def test_replay_even_rank_contradiction():
    report = replay_main_theorem(4, 4, 1, [1, 0, 1])
    assert report.verdict == "contradiction located at step 3: X_3 must be nonempty"
    assert [step.ok for step in report.steps] == [True, True, False]
    # even branch certifies through the dimension gap, not torsion
    assert report.certificate is not None
    assert report.certificate.surjection_impossible
    assert (report.steps[2].lhs, report.steps[2].rhs) == (5, 4)


def test_replay_rejects_malformed_betti():
    with pytest.raises(ValueError):
        replay_main_theorem(4, 3, 1, [1, 0])  # wrong length for d=1
    with pytest.raises(ValueError):
        replay_main_theorem(4, 3, 1, [1, 0, 0])  # top Betti number zero
    with pytest.raises(ValueError):
        replay_main_theorem(4, 3, 1, [1, -1, 1])


def test_replay_rejects_bad_rank():
    with pytest.raises(ValueError):
        replay_main_theorem(4, 5, 0, [1])
    with pytest.raises(ValueError):
        replay_main_theorem(4, 0, 0, [1])


def test_replay_verdict_matches_raw_inequality():
    for big_n in range(1, 9):
        for r in range(1, big_n + 1):
            for d in range(0, 9):
                betti = [0] * (2 * d) + [1]
                report = replay_main_theorem(big_n, r, d, betti)
                assert report.consistent == (d <= big_n - r)


def test_replay_steps_serialize():
    report = replay_main_theorem(4, 3, 1, [1, 0, 1])
    payload = to_json(report)
    assert payload["verdict"] == "d <= N-r consistent"
    assert len(payload["steps"]) == 4
    assert all(set(s) == {"statement", "lhs", "rhs", "ok"} for s in payload["steps"])


# -- corollary threshold ----------------------------------------------------------


def test_corollary_pinned_values():
    assert corollary_threshold(4, 2) == 3
    assert corollary_threshold(5, 1) == 10
    assert corollary_threshold(9, 8) == 1


def test_corollary_rejects_out_of_range():
    with pytest.raises(ValueError):
        corollary_threshold(4, 4)
    with pytest.raises(ValueError):
        corollary_threshold(4, -1)


def test_corollary_telescoping_full_sweep():
    # the internal telescoping identity is re-verified on every call
    for big_n in range(1, 201):
        for r in range(0, big_n):
            value = corollary_threshold(big_n, r)
            assert value == math.comb(big_n - r + 1, 2)


# -- stratum dimensions --------------------------------------------------------------


def test_stratum_pinned_values():
    assert sym_stratum_dim(2, 1) == 1
    assert sym_stratum_dim(3, 3) == 5
    assert sym_stratum_dim(4, 2) == 6


def test_stratum_rejects_out_of_range():
    with pytest.raises(ValueError):
        sym_stratum_dim(3, 0)
    with pytest.raises(ValueError):
        sym_stratum_dim(3, 4)


@settings(deadline=None)
@given(st.integers(2, 20))
def test_stratum_codimension_steps(big_n):
    for r in range(2, big_n + 1):
        drop = sym_stratum_dim(big_n, r) - sym_stratum_dim(big_n, r - 1)
        assert drop == big_n - r + 1


def test_stratum_full_rank_is_whole_space():
    for big_n in range(1, 10):
        assert sym_stratum_dim(big_n, big_n) == math.comb(big_n + 1, 2) - 1


# -- rank-one witness family -----------------------------------------------------------


def test_veronese_outer_products():
    assert veronese_witness([1, 2]) == [[1, 2], [2, 4]]
    e11 = veronese_witness([1, 0, 0])
    assert e11[0][0] == 1
    assert sum(x for row in e11 for x in row) == 1


def test_veronese_rejects_zero():
    for v, message in (([0, 0], "zero vector has rank 0, not 1"), ([], "empty vector")):
        with pytest.raises(ValueError) as exc:
            veronese_witness(v)
        assert str(exc.value) == message


def test_veronese_rank_one_seeded_sweep():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 10)
        v = [rng.randint(-9, 9) for _ in range(n)]
        if all(x == 0 for x in v):
            v[0] = 1
        witness = veronese_witness(v)
        assert rank_rational(witness) == 1


def test_witness_family_dimension_meets_bound():
    # the rank-1 family through v has projective dimension N-1 = main_bound(N, 1)
    for big_n in range(1, 12):
        assert big_n - 1 == main_bound(big_n, 1)
