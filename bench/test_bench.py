"""Tests of the benchmark itself: seeded inputs, answer checks, tracing.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.build_queries(workload, 7, tmp_path / "a")
    second = workloads.build_queries(workload, 7, tmp_path / "b")
    other = workloads.build_queries(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda qs, d: [tuple(a.replace(str(d), "") for a in q.argv) for q in qs]  # noqa: E731
    assert strip(first, tmp_path / "a") == strip(second, tmp_path / "b")


def test_det_cubic_is_the_rescaled_determinant():
    scales, terms = workloads.det_cubic(3)
    assert all(c != 0 for c in scales) and len(terms) == 6
    m = [[Fraction(v) for v in row] for row in ((2, -1, 4), (0, 3, 5), (7, 1, -2))]
    x = [m[i // 3][i % 3] / scales[i] for i in range(9)]
    assert verify.evaluate(dict((e, Fraction(c)) for c, e in terms), x) == verify.det(m)


def test_points_have_their_construction_rank():
    scales, _ = workloads.det_cubic(5)
    for r, p in workloads.det_points(5, scales, 60):
        matrix = [[Fraction(p[3 * i + j] * scales[3 * i + j]) for j in range(3)] for i in range(3)]
        assert verify.rank(matrix) == r


def test_poly_text_round_trips_through_the_checker_parser():
    terms = workloads.dense_quartic(2)
    parsed = verify.parse_terms(workloads.poly_text(terms), 5)
    assert parsed == {e: Fraction(c) for c, e in terms}
    assert verify.parse_terms("-3/2*x0^2*x1 + x2 - 4", 3) == {
        (2, 1, 0): Fraction(-3, 2), (0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-4)}


def test_linear_algebra_oracles():
    m = [[Fraction(v) for v in row] for row in ((0, 2, 1), (1, 1, 1), (2, 0, 3))]
    assert verify.det(m) == -4 and verify.rank(m) == 3
    assert verify.rank([[1, 2], [2, 4]]) == 1 and verify.det([[1, 2], [2, 4]]) == 0


# -- the checkers reject corrupted answers --------------------------------------


def test_dual_dim_check():
    assert verify.check_dual_dim('{"dual_dimension": 4}', 4) is None
    assert verify.check_dual_dim('{"dual_dimension": 5}', 4) is not None
    with pytest.raises(ValueError):
        verify.check_dual_dim("Traceback", 4)


def test_hypersurface_rank_check_evaluates_the_witness():
    # f = x0^4 + x1^4 has Hessian diag(12 x0^2, 12 x1^2); its 2x2 minor is 144 x0^2 x1^2.
    terms = [(1, (4, 0)), (1, (0, 4))]
    point = [Fraction(3, 2), Fraction(-5)]
    good = {"rank": 2, "on_hypersurface": True, "witness_rows": [0, 1],
            "witness_cols": [0, 1], "witness_minor": "144*x0^2*x1^2"}
    assert verify.check_hypersurface_rank(json.dumps(good), terms, 2, point) is None
    for corrupt in ({"witness_minor": "145*x0^2*x1^2"}, {"witness_minor": "144*x0^2*x1"},
                    {"rank": 1}, {"on_hypersurface": False}, {"witness_cols": [0]}):
        answer = json.dumps({**good, **corrupt})
        assert verify.check_hypersurface_rank(answer, terms, 2, point) is not None, corrupt


def test_stratify_check():
    expected = [(4, (1, 0)), (6, (0, 1)), (6, (0, 1))]
    good = {"ranks": {"4": [[1, 0]], "6": [[0, 1], [0, 1]]}}
    assert verify.check_stratify(json.dumps(good), expected) is None
    moved = {"ranks": {"4": [[1, 0], [0, 1]], "6": [[0, 1]]}}
    assert verify.check_stratify(json.dumps(moved), expected) is not None
    dropped = {"ranks": {"4": [[1, 0]], "6": [[0, 1]]}}
    assert verify.check_stratify(json.dumps(dropped), expected) is not None


def test_rank_relation_bounds_and_torsion_checks():
    assert verify.check_rank_relation('{"rank_Q": 6, "rank_A": 4, "holds": true}', 6, 4) is None
    assert verify.check_rank_relation('{"rank_Q": 6, "rank_A": 3, "holds": true}', 6, 4) is not None
    consistent = {"steps": [{"ok": True}], "verdict": "d <= N-r consistent"}
    assert verify.check_bounds_replay(json.dumps(consistent), 5, 2, 3) is None
    assert verify.check_bounds_replay(json.dumps(consistent), 5, 2, 4) is not None
    good = {"element_order": 2, "quotient": {"free_rank": 0, "torsion": [2]}}
    assert verify.check_torsion(json.dumps(good)) is None
    assert verify.check_torsion(json.dumps({**good, "element_order": 4})) is not None


# -- benchmark definition, tracing and the no-sources case ---------------------


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_records_spans_at_every_patched_binding(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--",
         "generic-rank", "--on-hypersurface", "x0^3+x1^3+x2^3", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rank"] == 3
    stats, counters = run.aggregate_spans([spans])
    metrics = run.layer_metrics(stats, counters)
    # ambient and hypersurface phases each compute the one 3x3 minor
    assert metrics["linalg.det_poly.calls"] == 2
    assert metrics["linalg.minor_dets.yielded.k3.ambient"] == 1
    assert metrics["linalg.minor_dets.yielded.k3.hypersurface"] == 1
    assert metrics["poly.divides.calls"] > 0
    assert stats["cli.main"]["calls"] == 1
    for entry in stats.values():
        assert 0 <= entry["self"] <= entry["total"] + 1e-9


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "det-minors", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
