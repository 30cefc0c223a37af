"""Fiber tables, Leray-Hirsch dimension counts, Gysin certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import (
    FGAbelianGroup,
    lh_projective_dim,
    lh_quadric_dim,
    nonsurjectivity_certificate,
    phi_torsion_replay,
    quadric_betti,
    torsion_certificate,
)
from symdeg.cli import to_json

betti_vectors = st.lists(st.integers(0, 5), min_size=1, max_size=11).map(
    lambda b: b[:-1] + [max(b[-1], 1)]
)


# -- fiber Betti table -----------------------------------------------------------


def test_quadric_betti_pinned_values():
    assert quadric_betti(6, 2) == 2
    assert quadric_betti(5, 1) == 1
    assert quadric_betti(2, 0) == 2


def test_quadric_betti_out_of_range_is_zero():
    assert quadric_betti(6, -1) == 0
    assert quadric_betti(6, 5) == 0
    assert quadric_betti(5, 4) == 0


def test_quadric_betti_rejects_degenerate_rank():
    with pytest.raises(ValueError):
        quadric_betti(1, 0)


def oracle_table(r, i):
    """Table transcribed slot by slot, no arithmetic shared with the code."""
    dim = r - 2
    if i < 0 or i > dim:
        return 0
    if r % 2 == 1:
        return 1
    return 2 if i == r // 2 - 1 else 1


@settings(deadline=None)
@given(st.integers(2, 14), st.integers(-2, 14))
def test_quadric_betti_matches_transcribed_table(r, i):
    assert quadric_betti(r, i) == oracle_table(r, i)


@settings(deadline=None)
@given(st.integers(2, 14))
def test_fiber_total_rank_is_two_n(r):
    n = r // 2
    assert sum(quadric_betti(r, i) for i in range(r - 1)) == 2 * n


@settings(deadline=None)
@given(st.integers(2, 14))
def test_fiber_table_poincare_symmetry(r):
    for i in range(r - 1):
        assert quadric_betti(r, i) == quadric_betti(r, (r - 2) - i)


# -- Leray-Hirsch dimension counts -------------------------------------------------------


def test_lh_quadric_point_base():
    # X a point: reduces to the fiber table
    assert lh_quadric_dim([1], 6, 4) == 2


def test_lh_quadric_p2_base():
    betti_p2 = [1, 0, 1, 0, 1]
    assert lh_quadric_dim(betti_p2, 4, 6) == 3


def test_lh_quadric_vanishes_above_top():
    betti_p2 = [1, 0, 1, 0, 1]
    assert lh_quadric_dim(betti_p2, 4, 4 + 2 * 2 + 1) == 0
    assert lh_quadric_dim(betti_p2, 4, 100) == 0


def test_lh_quadric_rejects_negative_degree():
    with pytest.raises(ValueError):
        lh_quadric_dim([1], 4, -2)


@pytest.mark.parametrize("r", [1, 0, -3])
def test_lh_quadric_rejects_fiber_rank_below_two(r):
    # the sum over range(r - 1) is empty here, so the check must be explicit
    with pytest.raises(ValueError, match="rank >= 2"):
        lh_quadric_dim([1, 0, 1], r, 2)


@settings(deadline=None)
@given(st.integers(2, 12), st.integers(0, 20))
def test_lh_quadric_point_base_is_fiber_table(r, k):
    expected = quadric_betti(r, k // 2) if k % 2 == 0 else 0
    assert lh_quadric_dim([1], r, k) == expected


def test_lh_projective_pinned():
    betti_p2 = [1, 0, 1, 0, 1]
    assert lh_projective_dim(betti_p2, 3, 8) == 2
    assert lh_projective_dim([1], 3, 4) == 1


def test_lh_projective_odd_degrees_vanish_over_even_base():
    betti_p2 = [1, 0, 1, 0, 1]
    assert lh_projective_dim(betti_p2, 3, 5) == 0


@settings(deadline=None)
@given(betti_vectors, st.integers(1, 5))
def test_lh_counts_reproduce_truncated_sums(betti, n):
    # quadric count in degree 2d+2n-2 is 2*b[2d] + b[2d-2] + ... + b[2d-2n+2];
    # projective count in degree 2d+2n over fiber dim 2n-1 is b[2d] + ... + b[2d-2n+2]
    two_d = len(betti) - 1
    if two_d % 2 != 0:
        betti = betti + [1]
        two_d += 1
    d = two_d // 2

    def b(i):
        return betti[i] if 0 <= i < len(betti) else 0

    quad = lh_quadric_dim(betti, 2 * n, 2 * d + 2 * n - 2)
    tail = sum(b(2 * d - 2 * j) for j in range(1, n))
    assert quad == 2 * b(2 * d) + tail

    proj = lh_projective_dim(betti, 2 * n - 1, 2 * d + 2 * n)
    assert proj == sum(b(2 * d - 2 * j) for j in range(n))


@settings(deadline=None)
@given(betti_vectors, st.integers(2, 12), st.integers(0, 10), st.integers(0, 30))
def test_lh_counts_match_sum_over_fiber_classes(betti, r, fiber_dim, k):
    # reference: one term per fiber class in degree 2i, the base in degree k - 2i
    def b(j):
        return betti[j] if 0 <= j < len(betti) else 0

    assert lh_quadric_dim(betti, r, k) == sum(
        quadric_betti(r, i) * b(k - 2 * i) for i in range(r - 1)
    )
    assert lh_projective_dim(betti, fiber_dim, k) == sum(
        b(k - 2 * i) for i in range(fiber_dim + 1)
    )


# -- nonsurjectivity (even rank) -----------------------------------------------------------


def test_nonsurjectivity_p2():
    betti_p2 = [1, 0, 1, 0, 1]
    cert = nonsurjectivity_certificate(betti_p2, 4, 2)
    assert cert.dim_source == 2
    assert cert.dim_target == 3
    assert cert.surjection_impossible


def test_nonsurjectivity_point_base():
    cert = nonsurjectivity_certificate([1], 4, 0)
    assert (cert.dim_source, cert.dim_target) == (1, 2)
    assert cert.surjection_impossible


def test_nonsurjectivity_sparse_betti():
    betti = [0, 0, 0, 0, 1]
    for r in (4, 6, 8):
        cert = nonsurjectivity_certificate(betti, r, 2)
        assert (cert.dim_source, cert.dim_target) == (1, 2)
        assert cert.surjection_impossible


def test_nonsurjectivity_rejects_odd_rank():
    with pytest.raises(ValueError, match="odd"):
        nonsurjectivity_certificate([1], 5, 0)


@settings(deadline=None)
@given(betti_vectors, st.integers(2, 5))
def test_nonsurjectivity_gap_is_top_betti(betti, n):
    if (len(betti) - 1) % 2 != 0:
        betti = betti + [1]
    d = (len(betti) - 1) // 2
    cert = nonsurjectivity_certificate(betti, 2 * n, d)
    assert cert.dim_target - cert.dim_source == betti[2 * d]
    assert cert.surjection_impossible


# -- torsion replay in fiber coordinates --------------------------------------------------


def test_phi_replay_unit_vector():
    report = phi_torsion_replay([[1], [0]], 1)
    assert report.b == ((1,), (0,))
    assert report.image == ((4,), (0,))
    assert report.check


def test_phi_replay_zero():
    report = phi_torsion_replay([[0, 0], [0, 0]], 1)
    assert report.check
    assert all(all(x == 0 for x in row) for row in report.image)


def test_phi_replay_all_ones_n2():
    report = phi_torsion_replay([[1], [1], [1], [1]], 2)
    assert report.b == ((1,), (1,), (2,), (2,))
    assert report.image == ((4,), (4,), (4,), (4,))
    assert report.check
    assert "image" in report.conclusion


def test_phi_replay_dimension_mismatch():
    with pytest.raises(ValueError):
        phi_torsion_replay([[1], [0], [0]], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: phi_torsion_replay([], 0), "need n >= 1 (odd rank 2n+1 >= 3)"),
        (lambda: lh_quadric_dim([], 4, 2), "empty Betti vector"),
    ],
    ids=["phi-rank-one", "empty-betti"],
)
def test_degenerate_fiber_input_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@settings(deadline=None)
@given(st.integers(1, 4), st.data())
def test_phi_replay_always_checks(n, data):
    width = data.draw(st.integers(1, 3))
    a = [
        [data.draw(st.integers(-9, 9)) for _ in range(width)] for _ in range(2 * n)
    ]
    report = phi_torsion_replay(a, n)
    assert report.check
    for q in range(2 * n):
        factor = 1 if q < n else 2
        assert list(report.b[q]) == [factor * x for x in a[q]]
        assert list(report.image[q]) == [4 * x for x in a[q]]


# -- torsion certificate (odd rank) ----------------------------------------------------------


def test_torsion_point_base():
    cert = torsion_certificate([1], 3, 0)
    assert cert.bottom_matrix == ((2,),)
    assert cert.quotient == FGAbelianGroup(0, (2,))
    assert cert.element_order == 2
    assert cert.vertical_surjective


def test_torsion_p1_base():
    cert = torsion_certificate([1, 0, 1], 5, 1)
    assert cert.quotient == FGAbelianGroup(0, (2,))
    assert cert.snf_diagonal == (2,)
    assert cert.relation == "h^2 = 2*e"
    assert cert.vertical_surjective


def test_torsion_rejects_even_rank():
    with pytest.raises(ValueError, match="even"):
        torsion_certificate([1], 4, 0)


def test_torsion_smallest_odd_rank():
    # r = 1 means an empty fiber table; the bottom map model still applies
    cert = torsion_certificate([1], 1, 0)
    assert cert.quotient == FGAbelianGroup(0, (2,))
    assert cert.relation is None


@pytest.mark.parametrize(
    "r, relation",
    [(1, None), (3, "h = 2*e"), (5, "h^2 = 2*e"), (7, "h^3 = 2*e"), (21, "h^10 = 2*e")],
    ids=["r1", "r3", "r5", "r7", "r21"],
)
def test_torsion_relation_is_h_to_the_n_equals_two_e(r, relation):
    # odd rank r = 2n+1: the fiber Gysin image in middle degree is generated by 2e
    assert torsion_certificate([1], r, 0).relation == relation


def test_torsion_json_round_trip():
    import json

    cert = torsion_certificate([1, 0, 1], 5, 1)
    payload = to_json(cert)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["quotient"] == {"free_rank": 0, "torsion": [2]}
