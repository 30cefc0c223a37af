"""symdeg benchmark: time to a certified answer, end to end and per layer.

    python3 bench/run.py --workload det-minors --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the symdeg sources are taken
from ``src/`` next to this directory, and the command fails without them.
One client runs one CLI query at a time in a closed loop: the workload's
queries form a round, and rounds repeat until ``--seconds`` have passed.
Every answer is checked by ``verify.py``, never trusted.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates an untraced round with a round run under
``tracer.py`` and reports the per-layer metrics from the traced rounds'
spans.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with run metadata, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from workloads import WORKLOADS, Query, build_queries

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

QUERY_LIMIT_S = 120.0  # a query running longer is killed and counts as failed
HARD_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says
SETUP_PER_ROUND = 5
MIN_SETUP_SAMPLES = 31

END_TO_END = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_TIMES = ("cli.main.total_s", "cli.main.self_s", "poly.parse_poly.self_s",
               "poly.evaluate.self_s", "poly.divides.self_s", "poly.compose_linear.self_s",
               "poly.format.self_s", "linalg.det_poly.self_s", "linalg.rank_rational.self_s",
               "linalg.smith_normal_form.self_s", "hessian.build_hessian.self_s",
               "hessian.evaluate_hessian.self_s", "hessian.ambient_rank_certificate.total_s",
               "hessian.hypersurface_rank_certificate.total_s",
               "dualvariety.dual_dimension.total_s", "dualvariety.rank_relation_check.total_s",
               "dualvariety.adapt_coordinates.self_s", "quadrics.torsion_certificate.total_s",
               "quadrics.nonsurjectivity_certificate.total_s",
               "bounds.replay_main_theorem.total_s")
_SPAN_CALLS = ("poly.differentiate.calls", "poly.evaluate.calls", "poly.divides.calls",
               "linalg.det_poly.calls", "linalg.rank_rational.calls",
               "linalg.smith_normal_form.calls", "hessian.evaluate_hessian.calls")
MINOR_SIZES = range(1, 10)
PHASES = ("ambient", "hypersurface")

PER_LAYER = {
    **{name: "s" for name in _SPAN_TIMES},
    **{name: "count" for name in _SPAN_CALLS},
    "poly.divides.miss_ratio": "ratio",
    "poly.max_terms": "count",
    "poly.max_coeff_bits": "bits",
    **{f"linalg.minor_dets.yielded.k{k}.{phase}": "count" for k in MINOR_SIZES for phase in PHASES},
    "hessian.witness_ratio": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class QueryResult:
    label: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    failure: Optional[str]


class Runner:
    """Spawns CLI processes one at a time and measures each with wait4."""

    def __init__(self, src: Path, work_dir: Path, started: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self.work_dir = work_dir
        self.deadline = started + HARD_LIMIT_S

    def left(self) -> float:
        return self.deadline - perf_counter()

    def spawn(self, cmd: list[str], label: str, check=None) -> QueryResult:
        out_path = self.work_dir / "stdout.txt"
        err_path = self.work_dir / "stderr.txt"
        limit = max(0.0, min(QUERY_LIMIT_S, self.left()))
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(limit, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        failure = None
        stderr = err_path.read_text(errors="replace")
        if killed.is_set():
            failure = f"killed after the {limit:.0f} s limit"
        elif proc.returncode != 0:
            failure = f"exit code {proc.returncode}: {stderr.strip()[-200:]}"
        elif "Traceback (most recent call last)" in stderr:
            failure = "traceback on stderr"
        elif check is not None:
            try:
                failure = check(out_path.read_text())
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                failure = f"unreadable output: {exc!r}"
        return QueryResult(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                           proc.returncode, failure)

    def round(self, queries: list[Query], spans_dir: Optional[Path] = None) -> list[QueryResult]:
        results = []
        for j, query in enumerate(queries):
            if spans_dir is None:
                cmd = [sys.executable, "-m", "symdeg.cli", *query.argv]
            else:
                spans = spans_dir / f"q{j:02d}-{query.label}.json"
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans),
                       "--", *query.argv]
            results.append(self.spawn(cmd, query.label, query.check))
        return results

    def setup_sample(self) -> QueryResult:
        return self.spawn([sys.executable, "-c", "import symdeg.cli"], "setup")


# -- per-layer metrics from spans --------------------------------------------------


def aggregate_spans(paths: list[Path]) -> tuple[dict[str, dict[str, float]], Counter]:
    """Per span name: calls, total and self seconds, summed over the files."""
    stats: dict[str, dict[str, float]] = {}
    counters: Counter = Counter()
    for path in paths:
        data = json.loads(path.read_text())
        names, spans = data["names"], data["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name_id, start, end, _), child_time in zip(spans, covered):
            entry = stats.setdefault(names[name_id], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time
        for key, value in data["counters"].items():
            if key.startswith("det_poly.max_"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    return stats, counters


def layer_metrics(stats: dict[str, dict[str, float]], counters: Counter) -> dict[str, float]:
    def span(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for metric in _SPAN_TIMES:
        name, field = metric.rsplit(".", 1)
        out[metric] = span(name, "self" if field == "self_s" else "total")
    for metric in _SPAN_CALLS:
        out[metric] = span(metric.rsplit(".", 1)[0], "calls")
    divides = span("poly.divides", "calls")
    out["poly.divides.miss_ratio"] = counters["divides.misses"] / divides if divides else 0.0
    out["poly.max_terms"] = counters["det_poly.max_terms"]
    out["poly.max_coeff_bits"] = counters["det_poly.max_coeff_bits"]
    examined = sum(v for k, v in counters.items() if k.startswith("minor_dets."))
    for k in MINOR_SIZES:
        for phase in PHASES:
            out[f"linalg.minor_dets.yielded.k{k}.{phase}"] = counters[f"minor_dets.k{k}.{phase}"]
    out["hessian.witness_ratio"] = counters["first_minor.witnesses"] / examined if examined else 0.0
    return out


# -- run -----------------------------------------------------------------------------


def _git_commit(root: Path) -> Optional[str]:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args: argparse.Namespace, src: Path) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.platform(),
        "git_commit": _git_commit(ROOT),
        # Recorded for the line-count goal; never a gated metric.
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def round_totals(rounds: list[list[QueryResult]]) -> tuple[list[float], list[float]]:
    return ([sum(q.wall_s for q in r) for r in rounds], [sum(q.cpu_s for q in r) for r in rounds])


def run(args: argparse.Namespace) -> tuple[dict, list[QueryResult]]:
    started = perf_counter()
    src = ROOT / "src"
    run_dir = BENCH_DIR / "results" / args.workload / f"seed{args.seed}-trace{args.trace}"
    work_dir = run_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    queries = build_queries(args.workload, args.seed, run_dir / "inputs")
    runner = Runner(src, work_dir, started)

    setup: list[QueryResult] = []
    untraced: list[list[QueryResult]] = []
    traced: list[list[QueryResult]] = []
    span_files: list[list[Path]] = []
    while True:
        if not args.trace:
            setup.extend(runner.setup_sample() for _ in range(SETUP_PER_ROUND))
        untraced.append(runner.round(queries))
        if args.trace:
            spans_dir = run_dir / f"spans-round{len(traced)}"
            spans_dir.mkdir(exist_ok=True)
            for stale in spans_dir.glob("*.json"):
                stale.unlink()
            traced.append(runner.round(queries, spans_dir))
            span_files.append(sorted(spans_dir.glob("*.json")))
        elapsed = perf_counter() - started
        # Stop at --seconds, or before a round that could not finish in time.
        if elapsed >= args.seconds or runner.left() < 2 * elapsed / len(untraced):
            break
    while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.setup_sample())

    # Set-up probes are not queries, but a failed import still fails the run.
    results = [q for r in untraced + traced for q in r] + [q for q in setup if q.failure]
    failed = [q for q in results if q.failure]
    solve, cpu = round_totals(untraced)
    if args.trace:
        per_round = [layer_metrics(*aggregate_spans(files)) for files in span_files]
        # Counts repeat exactly across rounds; report one observed value for them.
        pick = {"s": statistics.median, "ratio": statistics.median}
        values = {name: pick.get(PER_LAYER[name], statistics.median_low)(r[name] for r in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = statistics.median(round_totals(traced)[0]) - statistics.median(solve)
        units = PER_LAYER
    else:
        values = {
            "solve_s": statistics.median(solve),
            "cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(q.wall_s for q in setup),
            "peak_rss_mb": max(q.maxrss_kb for r in untraced for q in r) / 1024,
        }
        units = END_TO_END
    summary = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "metadata": metadata(args, src),
        **summary,
        "failed_ratio": len(failed) / len(results),
        "rounds": {"untraced_solve_s": solve, "untraced_cpu_s": cpu,
                   "traced_solve_s": round_totals(traced)[0],
                   "setup_s": [q.wall_s for q in setup]},
        "queries": [asdict(q) for q in results],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return summary, failed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="symdeg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running query is killed and reaped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "symdeg" / "cli.py").is_file():
        print(f"error: no symdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    summary, failed = run(args)
    for q in failed:
        print(f"FAILED {q.label}: {q.failure}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
