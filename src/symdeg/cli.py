"""Command-line front end.

Every command accepts ``--format json`` for a machine-readable report
with a top-level ``"schema": 1`` field; identical invocations produce
byte-identical JSON.  JSON encoding lives only in this module: library
reports are immutable named tuples, and ``to_json`` turns them into JSON
values.  Each command handler returns a payload (a dict or a report) and
its text lines, and prints nothing: ``main`` alone reads ``--format`` and
prints the payload's JSON body or the lines.  Exit codes: 0 success; 1
stdout cannot be written: it was closed before start or by the reader,
or a write failed; 2 bad input; 3 failed internal consistency check.

Polynomials are passed inline or as ``@path``, a file read as UTF-8.
Variable names come from ``--vars`` or are inferred: indexed names
sharing one alphabetic prefix (w0, w1, ...) imply the full range up to
the largest index.  An index with a leading zero (x00, x01) names no
variable in that range, so it is not inferred.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from math import log2
from typing import Iterator, Optional, Sequence

from . import bounds as bounds_mod
from . import dualvariety, hessian, poly, quadrics
from .errors import _EVALUATE_BITS, MAX_DIGITS, InternalCheckError, PolyParseError, check_length


_INDEXED_NAME = re.compile(r"([A-Za-z_]+?)(0|[1-9][0-9]*)\Z")
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\Z")
# 10^e has more than _EVALUATE_BITS bits exactly when |e| > 1,262,611.
_MAX_EXPONENT = int(_EVALUATE_BITS / log2(10))


def _read_inline_or_file(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"cannot read {text[1:]!r}: {reason}") from None
    return text


def infer_variables(text: str) -> list[str]:
    """x0..xN-style variable list from the names the polynomial tokenizer reads."""
    names = {value for kind, value, _ in poly._tokenize(text) if kind == "name"}
    if not names:
        raise ValueError("no variables found in the polynomial; pass --vars")
    prefixes = set()
    top = -1
    for name in sorted(names):
        m = _INDEXED_NAME.fullmatch(name)
        if m is None:
            raise ValueError(
                f"cannot infer variables from {name!r}; pass --vars explicitly"
            )
        prefixes.add(m.group(1))
        _check_digit_runs("the index of variable", name)  # the index is its one digit run
        top = max(top, int(m.group(2)))
    if len(prefixes) != 1:
        raise ValueError(
            "mixed variable prefixes; pass --vars explicitly"
        )
    check_length("the variable list", top + 1)
    prefix = prefixes.pop()
    return [f"{prefix}{i}" for i in range(top + 1)]


def _poly_arg(args: argparse.Namespace) -> tuple[poly.MultiPoly, list[str]]:
    text = _read_inline_or_file(args.poly)
    if args.vars is not None:
        var_names = [v.strip() for v in args.vars.split(",") if v.strip()]
        if not var_names:
            raise ValueError("empty --vars")
        for name in var_names:
            if not _is_name(name):
                raise ValueError(f"--vars entry {name!r} is not a variable name")
    else:
        var_names = infer_variables(text)
    return poly.parse_poly(text, var_names), var_names


def _is_name(text: str) -> bool:
    """Whether the polynomial tokenizer reads ``text`` as exactly one name."""
    try:
        return [kind for kind, _, _ in poly._tokenize(text)] == ["name"]
    except PolyParseError:
        return False


def _check_digit_runs(kind: str, text: str) -> None:
    """ValueError when a run of digits in ``text`` is longer than ``MAX_DIGITS``."""
    if len(text) > MAX_DIGITS:
        for run in _DIGIT_RUN.findall(text):
            if (digits := len(run.replace("_", ""))) > MAX_DIGITS:
                raise ValueError(f"{kind} {text[:8]}... has {digits} digits (limit {MAX_DIGITS})")


def _coordinate(p: str) -> Fraction | int:
    _check_digit_runs("a number in coordinate", p)
    if _PLAIN_INT.fullmatch(p):
        return int(p)
    exponent = _EXPONENT.search(p)
    if exponent is not None and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise ValueError(f"power of ten in {p!r} exceeds the {_EVALUATE_BITS}-bit budget")
    return Fraction(p)


def _parse_point(text: str) -> list[Fraction | int]:
    """Coordinates as ``Fraction(part)`` values; a plain ASCII integer is read by ``int``.

    Only ``[+-]?[0-9]+`` takes the fast path: ``int`` alone would also
    accept ``1_000`` and non-ASCII digits, which ``Fraction`` may refuse,
    so every string keeps the outcome and value ``Fraction`` gives it.
    Two exceptions are refused before either reads the token: a decimal
    exponent e with 10^|e| beyond the evaluation budget, which
    ``Fraction`` would build before any budget could refuse it, and a
    run of more than ``MAX_DIGITS`` digits, which Python 3.11 and later
    refuse in their own terms and 3.10 reads.
    """
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError(f"malformed point {text!r}")
    try:
        return [_coordinate(p) for p in parts]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in point {text!r}") from None


def _parse_points_arg(text: str) -> list[list[Fraction | int]]:
    raw = _read_inline_or_file(text)
    if text.startswith("@"):
        lines = [ln.strip() for ln in raw.splitlines()]
        chunks = [ln for ln in lines if ln and not ln.startswith("#")]
    else:
        chunks = [c.strip() for c in raw.split(";") if c.strip()]
    if not chunks:
        raise ValueError("no points supplied")
    return [_parse_point(c) for c in chunks]


def _parse_betti(text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        _check_digit_runs("a Betti number", p)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed Betti vector {text!r}") from None


def to_json(value):
    """JSON value of a report: the one place symdeg decides JSON encoding.

    A report (a named tuple) becomes {field name: value} and a dict keeps
    its keys, each value converted in turn; other tuples and lists become
    lists, and a Fraction becomes an int, or "p/q" when its denominator is
    not 1.  Other values pass through unchanged.
    """
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {name: to_json(v) for name, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value


# -- command handlers -----------------------------------------------------------


def _cmd_hessian(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f, var_names = _poly_arg(args)
    h = hessian.build_hessian(f)
    matrix = [[entry.format(var_names) for entry in row] for row in h.hessian]
    lines = ["[" + ", ".join(row) + "]" for row in matrix]
    return {"vars": var_names, "degree": h.degree, "matrix": matrix}, lines


def _cmd_rank_at(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f, _ = _poly_arg(args)
    point = _parse_point(args.point)
    rank = hessian.rank_at(hessian.build_hessian(f), point)
    return {"point": point, "rank": rank}, [f"rank at ({args.point}): {rank}"]


def _cmd_stratify(args: argparse.Namespace) -> tuple[dict, Iterator[str]]:
    f, _ = _poly_arg(args)
    points = _parse_points_arg(args.points)
    buckets = sorted(hessian.stratify(hessian.build_hessian(f), points).buckets.items())
    lines = (
        f"rank {rank}: " + "; ".join("(" + ", ".join(map(str, p)) + ")" for p in ps)
        for rank, ps in buckets
    )
    return {"ranks": {str(rank): ps for rank, ps in buckets}}, lines


def _cmd_generic_rank(args: argparse.Namespace) -> tuple[tuple, list[str]]:
    f, var_names = _poly_arg(args)
    h = hessian.build_hessian(f)
    if args.on_hypersurface:
        cert = hessian.hypersurface_rank_certificate(h)
        where = "on the hypersurface"
    else:
        cert = hessian.ambient_rank_certificate(h)
        where = "ambient"
    minor = cert.witness_minor.format(var_names)
    lines = [
        f"generic rank {where}: {cert.rank}",
        f"witness minor rows {list(cert.witness_rows)} cols {list(cert.witness_cols)}: {minor}",
    ]
    if cert.caveat:
        lines.append(f"caveat: {cert.caveat}")
    return cert._replace(witness_minor=minor), lines


def _cmd_dual_dim(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f, _ = _poly_arg(args)
    value = dualvariety.dual_dimension(f)
    return {"dual_dimension": value}, [f"dual variety dimension: {value}"]


def _cmd_check_rank_relation(args: argparse.Namespace) -> tuple[dict, list[str]]:
    f, _ = _poly_arg(args)
    point = _parse_point(args.point)
    report = dualvariety.rank_relation_check(f, point)
    lines = [
        f"rank Q: {report.rank_q}",
        f"rank A: {report.rank_a}",
        f"rank Q = rank A + 2: {'holds' if report.holds else 'FAILS'}",
    ]
    payload = {
        "rank_Q": report.rank_q,
        "rank_A": report.rank_a,
        "holds": report.holds,
        "transform": report.transform,
    }
    return payload, lines


def _cmd_quad_betti(args: argparse.Namespace) -> tuple[dict, list[str]]:
    r = args.r
    check_length("the rank table", r - 1)
    # at least one library call, so r < 2 is rejected as in quadric_betti
    table = [quadrics.quadric_betti(r, i) for i in range(max(r - 1, 1))]
    return {"r": r, "table": table}, [f"rank H^(2i) for i = 0..{r - 2}: {table}"]


def _cmd_lh_dim(args: argparse.Namespace) -> tuple[dict, list[str]]:
    betti = _parse_betti(args.betti)
    if args.quadric_rank is not None:
        dim = quadrics.lh_quadric_dim(betti, args.quadric_rank, args.k)
        payload = {"kind": "quadric", "r": args.quadric_rank}
        lines = [f"dim H_{args.k} of the rank-{args.quadric_rank} quadric bundle: {dim}"]
    else:
        dim = quadrics.lh_projective_dim(betti, args.projective_fiber, args.k)
        payload = {"kind": "projective", "fiber_dim": args.projective_fiber}
        lines = [f"dim H_{args.k} of the P^{args.projective_fiber} bundle: {dim}"]
    return {"betti": betti, "k": args.k, "dim": dim, **payload}, lines


def _cmd_nonsurj(args: argparse.Namespace) -> tuple[tuple, list[str]]:
    cert = quadrics.nonsurjectivity_certificate(_parse_betti(args.betti), args.r, args.d)
    lines = [
        f"source dim (degree {cert.degree_source}): {cert.dim_source}",
        f"target dim (degree {cert.degree_target}): {cert.dim_target}",
        "surjection impossible" if cert.surjection_impossible else "dimensions permit surjection",
    ]
    return cert, lines


def _cmd_torsion(args: argparse.Namespace) -> tuple[tuple, list[str]]:
    cert = quadrics.torsion_certificate(_parse_betti(args.betti), args.r, args.d)
    lines = [
        f"quotient by the Gysin image: {cert.quotient}",
        f"exhibited element order: {cert.element_order}",
    ]
    if cert.relation:
        lines.append(f"fiber relation: {cert.relation}")
    return cert, lines


def _cmd_bounds_replay(args: argparse.Namespace) -> tuple[tuple, list[str]]:
    if args.betti is None:
        check_length("the default Betti vector", 2 * args.d + 1)
        betti = [0] * (2 * args.d) + [1]
    else:
        betti = _parse_betti(args.betti)
    report = bounds_mod.replay_main_theorem(args.N, args.r, args.d, betti)
    lines = []
    for k, step in enumerate(report.steps, start=1):
        mark = "ok" if step.ok else "FAIL"
        lines.append(f"step {k} [{mark}] {step.statement} ({step.lhs} vs {step.rhs})")
    lines.append(f"verdict: {report.verdict}")
    return report, lines


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdeg",
        description="Exact toolkit for symmetric degeneracy loci: Hessian rank "
        "stratification, dual-variety dimension, quadric-bundle homology "
        "certificates and dimension bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    poly_input = argparse.ArgumentParser(add_help=False)
    poly_input.add_argument("poly", help="polynomial text or @file")
    poly_input.add_argument("--vars", help="comma-separated variable names")
    betti_input = argparse.ArgumentParser(add_help=False)
    betti_input.add_argument("--betti", required=True, help="comma-separated base Betti numbers")
    sub = parser.add_subparsers(required=True)

    def add(group, name: str, handler, help_text: str, *extra) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=[common, *extra], help=help_text)
        p.set_defaults(handler=handler, command=p.prog.partition(" ")[2], parser=p)
        return p

    add(sub, "hessian", _cmd_hessian, "print the symbolic Hessian matrix", poly_input)

    p = add(sub, "rank-at", _cmd_rank_at, "Hessian rank at a point", poly_input)
    p.add_argument("point", help="comma-separated rational coordinates")

    p = add(sub, "stratify", _cmd_stratify, "bucket points by Hessian rank", poly_input)
    p.add_argument("points", help="semicolon-separated points, or @file with one per line")

    p = add(sub, "generic-rank", _cmd_generic_rank, "certified generic Hessian rank", poly_input)
    p.add_argument(
        "--on-hypersurface",
        action="store_true",
        help="rank on the hypersurface f = 0 instead of the ambient space",
    )

    add(sub, "dual-dim", _cmd_dual_dim, "dual-variety dimension", poly_input)

    p = add(
        sub,
        "check-rank-relation",
        _cmd_check_rank_relation,
        "verify rank Q = rank A + 2 at a smooth point",
        poly_input,
    )
    p.add_argument("point", help="comma-separated rational coordinates")

    p = add(sub, "quad-betti", _cmd_quad_betti, "rank table of a smooth quadric")
    p.add_argument("r", type=int, help="rank of the quadratic form")

    p = add(sub, "lh-dim", _cmd_lh_dim, "bundle homology dimension by product formula", betti_input)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadric-rank", type=int, help="quadric-bundle fiber rank")
    group.add_argument("--projective-fiber", type=int, help="projective-bundle fiber dimension")
    p.add_argument("k", type=int, help="homological degree")

    p = add(sub, "nonsurj", _cmd_nonsurj, "even-rank Gysin nonsurjectivity certificate", betti_input)
    p.add_argument("--r", type=int, required=True, help="even fiber rank")
    p.add_argument("--d", type=int, required=True, help="base dimension")

    p = add(sub, "torsion", _cmd_torsion, "odd-rank 2-torsion certificate", betti_input)
    p.add_argument("--r", type=int, required=True, help="odd fiber rank")
    p.add_argument("--d", type=int, required=True, help="base dimension")

    p_bounds = sub.add_parser("bounds", help="dimension-bound arithmetic")
    bounds_sub = p_bounds.add_subparsers(required=True)
    p = add(bounds_sub, "replay", _cmd_bounds_replay, "step-by-step replay of the main bound")
    p.add_argument("N", type=int)
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--betti", help="comma-separated Betti numbers (default: 0,...,0,1)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # Every token before the subcommand is a top-level leftover, shown
        # under the top-level usage; later ones under the subcommand's own.
        top = argv[: argv.index(args.command.split()[0])]
        (parser if top else args.parser).error(
            f"unrecognized arguments: {' '.join(top or extra)}"
        )
    # Every input number is capped at MAX_DIGITS by symdeg's own checks, so
    # Python's int-to-str limit (3.11 and later) only stops certified
    # answers from printing; it is lifted while the handler runs and while
    # its report prints.
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if int_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload, lines = args.handler(args)
        if args.format == "json":
            # Batched: the text is never whole in memory, yet unbuffered stdout sees few writes.
            body = {**to_json(payload), "schema": 1, "command": args.command}
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(body)
            while batch := "".join(islice(chunks, 4096)):
                print(batch, end="")
            print()
        else:
            for line in lines:
                print(line)
        if sys.stdout is None:
            # fd 1 was closed before start (``symdeg ... >&-``): print wrote nothing.
            print("error: cannot write the report: standard output is closed", file=sys.stderr)
            return 1
        sys.stdout.flush()
        return 0
    except OSError as exc:
        # The reader closed stdout (``symdeg ... | head``), silently, or a
        # write failed (``> /dev/full``).  Reads never get here: their
        # OSError is a ValueError by then.  As the Python docs on SIGPIPE
        # advise, point fd 1 at devnull so that the flush at interpreter
        # exit cannot fail a second time.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the report: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        if int_digits is not None:
            sys.set_int_max_str_digits(int_digits)


if __name__ == "__main__":
    sys.exit(main())
