"""Command-line surface: dispatch, formats, determinism, exit codes."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg import (
    MultiPoly, PolyParseError, ambient_rank_certificate, build_hessian, parse_poly,
)
from symdeg.cli import _parse_point, infer_variables, main

from minors import det_poly

QUARTIC = "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2"
FERMAT = "x0^3 + x1^3 + x2^3 + x3^3"
GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env(**environ):
    """The environment with ``environ`` added and the sources first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_python(*args, timeout=60, **environ):
    """A fresh interpreter on the sources, killed after ``timeout`` s: a hang fails the test."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=source_env(**environ),
    )


def run_subprocess(*argv, **options):
    return run_python("-m", "symdeg.cli", *argv, **options)


# -- variable inference ----------------------------------------------------------


def test_infer_variables_simple():
    assert infer_variables("x0^3 + x1^3") == ["x0", "x1"]


def test_infer_variables_fills_gaps():
    assert infer_variables("x0 + x3") == ["x0", "x1", "x2", "x3"]


def test_infer_variables_mixed_prefix_rejected():
    with pytest.raises(ValueError, match="--vars"):
        infer_variables("x0 + y1")


def test_infer_variables_unindexed_rejected():
    with pytest.raises(ValueError, match="--vars"):
        infer_variables("a + b")


@pytest.mark.parametrize("text, name", [("x00^2", "x00"), ("x01*x1", "x01")])
def test_infer_variables_rejects_leading_zero_index(text, name):
    # "x00" is not x0: inferring x0 would blame the parser for the name
    with pytest.raises(ValueError, match=f"cannot infer variables from '{name}'"):
        infer_variables(text)


@pytest.mark.parametrize(
    "text, name",
    [("é0^3 + é1^3", "é0"), ("xé0^3 + xé1^3", "xé0"), ("x1١^3 + x0^3", "x1١")],
)
def test_inference_reads_names_as_the_polynomial_reader_does(capsys, text, name):
    # The whole name is blamed, never a fragment of it; "١" is not read
    # as an index digit, so x1١ is not x11.
    code, out, err = run(capsys, "hessian", text)
    assert (code, out) == (2, "")
    assert err == f"error: cannot infer variables from {name!r}; pass --vars explicitly\n"


def test_names_outside_ascii_read_with_explicit_vars(capsys):
    code, out, _ = run(capsys, "hessian", "é0^3 + é1^3", "--vars", "é0,é1")
    assert (code, out) == (0, "[6*é0, 0]\n[0, 6*é1]\n")


def test_inference_reports_an_unreadable_character_first(capsys):
    code, out, err = run(capsys, "hessian", "x0^3 + y1^3 $")
    assert (code, out, err) == (2, "", "error: unexpected character '$' at position 12\n")


# -- basic commands ---------------------------------------------------------------


def test_hessian_text(capsys):
    code, out, err = run(capsys, "hessian", "x0^3+x1^3")
    assert code == 0 and err == ""
    assert out == "[6*x0, 0]\n[0, 6*x1]\n"


def test_hessian_named_vars(capsys):
    code, out, _ = run(capsys, "hessian", "--vars", "w0,w1,w2,w3", QUARTIC)
    assert code == 0
    assert "2*w0^2" in out.splitlines()[3]


def test_rank_at(capsys):
    code, out, _ = run(capsys, "rank-at", QUARTIC, "0,1,0,0")
    assert code == 0
    assert out == "rank at (0,1,0,0): 3\n"


def test_dual_dim(capsys):
    code, out, _ = run(capsys, "dual-dim", QUARTIC)
    assert code == 0
    assert out == "dual variety dimension: 1\n"


def test_generic_rank_on_hypersurface(capsys):
    code, out, _ = run(capsys, "generic-rank", "--on-hypersurface", FERMAT)
    assert code == 0
    assert out.splitlines()[0] == "generic rank on the hypersurface: 4"
    assert "1296*x0*x1*x2*x3" in out


def test_generic_rank_ambient(capsys):
    code, out, _ = run(capsys, "generic-rank", QUARTIC)
    assert code == 0
    assert "generic rank ambient: 4" in out


def test_stratify(capsys):
    code, out, _ = run(capsys, "stratify", QUARTIC, "1,0,0,0;0,1,0,0")
    assert code == 0
    assert out == "rank 1: (1, 0, 0, 0)\nrank 3: (0, 1, 0, 0)\n"


def test_check_rank_relation(capsys):
    code, out, _ = run(capsys, "check-rank-relation", FERMAT, "1,-1,0,0")
    assert code == 0
    assert "rank Q: 2" in out and "rank A: 0" in out and "holds" in out


def test_quad_betti(capsys):
    code, out, _ = run(capsys, "quad-betti", "6")
    assert code == 0
    assert "[1, 1, 2, 1, 1]" in out


def test_lh_dim_quadric(capsys):
    code, out, _ = run(
        capsys, "lh-dim", "--betti", "1,0,1,0,1", "--quadric-rank", "4", "6"
    )
    assert code == 0
    assert out.strip().endswith("3")


def test_lh_dim_projective(capsys):
    code, out, _ = run(
        capsys, "lh-dim", "--betti", "1,0,1,0,1", "--projective-fiber", "3", "8"
    )
    assert code == 0
    assert out.strip().endswith("2")


def test_nonsurj_text(capsys):
    code, out, _ = run(capsys, "nonsurj", "--betti", "1,0,1,0,1", "--r", "4", "--d", "2")
    assert code == 0
    assert "surjection impossible" in out


def test_torsion(capsys):
    code, out, _ = run(capsys, "torsion", "--betti", "1", "--r", "3", "--d", "0")
    assert code == 0
    assert "Z/2" in out
    assert "order: 2" in out


def test_bounds_replay_defaults(capsys):
    code, out, _ = run(capsys, "bounds", "replay", "4", "3", "2")
    assert code == 0
    assert "verdict: contradiction located at step 4: X_2 must be nonempty" in out


def test_bounds_replay_consistent(capsys):
    code, out, _ = run(capsys, "bounds", "replay", "4", "3", "1")
    assert code == 0
    assert "verdict: d <= N-r consistent" in out
    assert out.count("[ok]") == 4


# -- file input -------------------------------------------------------------------


def test_poly_from_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(FERMAT + "\n")
    code, out, _ = run(capsys, "dual-dim", f"@{path}")
    assert code == 0
    assert "2" in out


def test_points_from_file(tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text("# unit points\n1,0,0,0\n0,1,0,0\n")
    code, out, _ = run(capsys, "stratify", QUARTIC, f"@{path}")
    assert code == 0
    assert "rank 1" in out and "rank 3" in out


# -- JSON output --------------------------------------------------------------------


def test_json_has_schema_and_command(capsys):
    code, out, _ = run(
        capsys, "nonsurj", "--format", "json", "--betti", "1,0,1,0,1", "--r", "4", "--d", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "nonsurj"
    assert payload["surjection_impossible"] is True
    assert payload["dim_source"] == 2 and payload["dim_target"] == 3


def test_json_deterministic_bytes(capsys):
    args = ["generic-rank", "--format", "json", "--on-hypersurface", QUARTIC]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["rank"] == 3
    assert payload["on_hypersurface"] is True


def test_json_stratify_shape(capsys):
    code, out, _ = run(capsys, "stratify", "--format", "json", QUARTIC, "1,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"1": [[1, 0, 0, 0]]}


def test_json_bounds_replay(capsys):
    code, out, _ = run(capsys, "bounds", "replay", "--format", "json", "4", "3", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "bounds replay"
    assert payload["verdict"] == "d <= N-r consistent"
    assert len(payload["steps"]) == 4


def test_json_round_trip_revalidates(capsys):
    code, out, _ = run(capsys, "bounds", "replay", "--format", "json", "4", "4", "1")
    payload = json.loads(out)
    # re-evaluate each step's comparison from its own numbers
    for step in payload["steps"][:2]:
        assert step["ok"] is True
    failed = payload["steps"][2]
    assert failed["ok"] is False
    assert failed["lhs"] > failed["rhs"]
    assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload


# Every JSON-emitting subcommand, with the stdout bytes pinned in
# tests/golden/<name>.json.  Rational coordinates cover the "p/q" form.
JSON_GOLDEN_CASES = [
    ("hessian", ("hessian", QUARTIC)),
    ("rank-at", ("rank-at", QUARTIC, "0,1,0,0")),
    ("rank-at-rational", ("rank-at", QUARTIC, "1/2,1,-3/4,0")),
    ("stratify", ("stratify", QUARTIC, "1,0,0,0;0,1,0,0;1/2,1,-3/4,0")),
    ("generic-rank-ambient", ("generic-rank", QUARTIC)),
    ("generic-rank-hypersurface", ("generic-rank", "--on-hypersurface", QUARTIC)),
    ("dual-dim", ("dual-dim", FERMAT)),
    ("check-rank-relation", ("check-rank-relation", FERMAT, "1,-1,0,0")),
    ("check-rank-relation-rational", ("check-rank-relation", FERMAT, "1/2,-1/2,0,0")),
    ("quad-betti", ("quad-betti", "6")),
    ("lh-dim-quadric", ("lh-dim", "--betti", "1,0,1,0,1", "--quadric-rank", "4", "6")),
    ("lh-dim-projective", ("lh-dim", "--betti", "1,0,1,0,1", "--projective-fiber", "3", "8")),
    ("nonsurj", ("nonsurj", "--betti", "1,0,1,0,1", "--r", "4", "--d", "2")),
    ("torsion-r5", ("torsion", "--betti", "1,0,1", "--r", "5", "--d", "1")),
    ("torsion-r1", ("torsion", "--betti", "1", "--r", "1", "--d", "0")),
    ("bounds-replay-4-3-1", ("bounds", "replay", "4", "3", "1")),
    ("bounds-replay-4-4-1", ("bounds", "replay", "4", "4", "1")),
    ("bounds-replay-6-2-2", ("bounds", "replay", "6", "2", "2", "--betti", "1,0,2,0,1")),
]


def _json_argv(argv):
    """argv with ``--format json`` placed after the (sub)command name."""
    cut = 2 if argv[0] == "bounds" else 1
    return [*argv[:cut], "--format", "json", *argv[cut:]]


@pytest.mark.parametrize(
    "name, argv", JSON_GOLDEN_CASES, ids=[name for name, _ in JSON_GOLDEN_CASES]
)
def test_json_golden(capsys, name, argv):
    code, out, err = run(capsys, *_json_argv(argv))
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


# -- exit codes ------------------------------------------------------------------------


def test_exit_two_on_bad_polynomial(capsys):
    code, out, err = run(capsys, "hessian", "x0 + x1^2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "not homogeneous" in err


def test_exit_two_on_parse_error(capsys):
    code, _, err = run(capsys, "dual-dim", "x0^^2")
    assert code == 2
    assert err.startswith("error:")


def test_exit_two_on_singular_point(capsys):
    code, _, err = run(capsys, "check-rank-relation", QUARTIC, "1,0,0,0")
    assert code == 2
    assert "singular" in err


def test_exit_two_on_zero_point(capsys):
    code, _, err = run(capsys, "rank-at", QUARTIC, "0,0,0,0")
    assert code == 2
    assert "zero point" in err


def test_exit_two_on_bad_rank_argument(capsys):
    code, _, err = run(capsys, "torsion", "--betti", "1", "--r", "4", "--d", "0")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("point", ["1,,1", "", ",1", "1, "])
def test_exit_two_on_empty_coordinate(capsys, point):
    code, out, err = run(capsys, "rank-at", "x0^2+x1^2", point)
    assert (code, out) == (2, "")
    assert err == f"error: malformed point {point!r}\n"


def test_exit_two_on_zero_denominator(capsys):
    code, out, err = run(capsys, "rank-at", "x0^2+x1^2", "1/0,1")
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in point '1/0,1'\n"


@pytest.mark.parametrize(
    "target", ["missing", "directory", "empty", "trailing-slash", "not-utf8"]
)
def test_exit_two_on_unreadable_file(capsys, tmp_path, target):
    # The path after @ is opened exactly as given: "" names no file (not
    # "."), and a trailing slash names a directory, not the file before it.
    # A file is read as UTF-8, and one that is not UTF-8 is named too.
    cubic = tmp_path / "cubic.txt"
    cubic.write_text("x0^3 + x1^3")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"\xff x0^3")
    path, reason = {
        "missing": (f"{tmp_path / 'missing.txt'}", "No such file or directory"),
        "directory": (f"{tmp_path}", "Is a directory"),
        "empty": ("", "No such file or directory"),
        "trailing-slash": (f"{cubic}/", "Not a directory"),
        "not-utf8": (
            f"{latin}",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    }[target]
    code, out, err = run(capsys, "dual-dim", f"@{path}")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read '{path}': {reason}\n"


def test_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # With EncodingWarning an error, a read that follows the locale would
    # end in a traceback.
    cubic = tmp_path / "cubic.txt"
    cubic.write_text("x0^3 + x1^3\n", encoding="utf-8")
    done = run_python(
        "-X", "warn_default_encoding", "-W", "error", "-m", "symdeg.cli",
        "rank-at", f"@{cubic}", "0,1",
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "rank at (0,1): 1\n", "")


@pytest.mark.parametrize("r", ["1", "0", "-3"])
def test_exit_two_on_degenerate_quadric_rank(capsys, r):
    code, out, err = run(capsys, "quad-betti", r)
    assert (code, out) == (2, "")
    assert "rank >= 2" in err


@pytest.mark.parametrize("r", ["1", "0", "-3"])
def test_exit_two_on_degenerate_lh_fiber_rank(capsys, r):
    code, out, err = run(capsys, "lh-dim", "--betti", "1,0,1", "--quadric-rank", r, "2")
    assert (code, out) == (2, "")
    assert err == "error: quadric table needs rank >= 2\n"


def test_exit_two_on_generic_rank_below_two(capsys):
    code, out, err = run(capsys, "dual-dim", "x0^3")
    assert (code, out) == (2, "")
    assert err == (
        "error: generic rank below 2: input cannot define a reduced irreducible hypersurface\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("stratify", "x0^2+x1^2", " ; "), "no points supplied"),
        (("rank-at", "x0^2+x1^2", "1,2,3"), "point has 3 coordinates, expected 2"),
        (("lh-dim", "--betti", "1,a", "--quadric-rank", "4", "2"), "malformed Betti vector '1,a'"),
        (
            ("lh-dim", "--betti", "1", "--projective-fiber", "-1", "2"),
            "fiber dimension must be non-negative",
        ),
        (
            ("lh-dim", "--betti", "1", "--projective-fiber", "3", "--", "-1"),
            "homological degree must be non-negative",
        ),
        (("nonsurj", "--betti", "1", "--r", "0", "--d", "0"), "rank must be at least 2"),
        (("nonsurj", "--betti", "1", "--r", "4", "--d", "-1"), "dimension must be non-negative"),
        (("torsion", "--betti", "1", "--r", "-1", "--d", "0"), "rank must be positive"),
        (("hessian", "x0^2", "--vars", "x0,x0"), "duplicate variable names"),
        (("hessian", "0", "--vars", "x0"), "zero polynomial has no Hessian form"),
    ],
    ids=[
        "no-points", "point-length", "malformed-betti", "negative-fiber-dim",
        "negative-degree", "nonsurj-rank", "nonsurj-dim", "torsion-rank", "duplicate-vars",
        "zero-hessian",
    ],
)
def test_exit_two_names_the_refused_argument(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("names", ["", ","])
def test_exit_two_on_empty_vars(capsys, names):
    code, out, err = run(capsys, "hessian", "x0^2", "--vars", names)
    assert (code, out) == (2, "")
    assert err == "error: empty --vars\n"


@pytest.mark.parametrize(
    "names, entry", [("x0,+", "+"), ("x0,1a", "1a"), (" x 1 ", "x 1"), ("x0,x$", "x$")]
)
def test_exit_two_on_vars_the_parser_cannot_read(capsys, names, entry):
    # Such a name could never occur in the polynomial: it would stand for
    # a phantom variable.
    code, out, err = run(capsys, "hessian", "x0^2", "--vars", names)
    assert (code, out) == (2, "")
    assert err == f"error: --vars entry {entry!r} is not a variable name\n"


def test_exit_two_on_a_digit_that_is_not_decimal(capsys):
    # str.isdigit accepts "²", int does not; the reader takes decimal runs only.
    code, out, err = run(capsys, "hessian", "x0^²")
    assert (code, out, err) == (2, "", "error: unexpected character '²' at position 3\n")


@pytest.mark.parametrize(
    "f, caveat",
    [
        ("x0*x1*x2", "f is divisible by a variable: the hypersurface is reducible"),
        ("x0^2*x1", "f is divisible by the square of a variable: the hypersurface is not reduced"),
    ],
)
def test_dual_dim_refuses_what_the_screen_proves_reducible(capsys, f, caveat):
    # Both ranks are 2, which would read as dimension 0; r - 2 needs a
    # reduced irreducible f, and generic-rank prints the same caveat.
    assert run(capsys, "dual-dim", f) == (2, "", f"error: {caveat}\n")
    code, out, _ = run(capsys, "generic-rank", "--on-hypersurface", f)
    assert (code, out.splitlines()[0], out.splitlines()[-1]) == (
        0, "generic rank on the hypersurface: 2", f"caveat: {caveat}",
    )


SQUARED_CONIC = "x0^2*x2^2 + 2*x0*x1^2*x2 + x1^4"  # (x0*x2 + x1^2)^2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_dual_dim_of_a_squared_conic_is_not_zero(capsys):
    # The dual of the conic x0*x2 + x1^2 is a conic: dimension 1, not 0.
    assert run(capsys, "dual-dim", SQUARED_CONIC) != (0, "dual variety dimension: 0\n", "")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_generic_rank_of_a_squared_conic_is_not_two_without_caveat(capsys):
    # H_f = 2g*H_g + 2*grad(g)*grad(g)^T has rank at most 1 on X = {g = 0}.
    argv = ("generic-rank", "--on-hypersurface", SQUARED_CONIC, "--format", "json")
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert (code, report["rank"], report["caveat"]) != (0, 2, None)


def test_closed_stdout_exits_one_without_traceback():
    # About 420 KB of JSON: the write is still blocked on the full 64 KiB
    # pipe when the reader closes it, as ``symdeg ... | head`` does.
    with subprocess.Popen(
        [sys.executable, "-m", "symdeg.cli", "quad-betti", "60000", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=source_env(),
    ) as proc:
        assert proc.stdout.read(12) == b'{\n  "command'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_stdout_closed_before_start_exits_one_with_one_line():
    # As ``symdeg quad-betti 6 >&-``: with fd 1 closed, sys.stdout is None.
    close_and_exec = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
    done = run_python("-c", close_and_exec, sys.executable, "-m", "symdeg.cli", "quad-betti", "6")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: cannot write the report: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_failed_write_exits_one_with_one_line():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "symdeg.cli", "quad-betti", "6"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=source_env(),
        )
    assert result.returncode == 1
    assert result.stderr == f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n"


def test_failed_write_in_process_exits_one(capsys, monkeypatch, tmp_path):
    # ``main`` points the failed stdout's fd at devnull: here that of a
    # temporary file, not the test runner's own fd 1.
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):
            return target.fileno()

    with open(tmp_path / "out", "w") as target:
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["quad-betti", "6"])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("hessian", "--seed", "1", "x0^2"),
        ("quad-betti", "--sample-budget", "2", "4"),
        ("hessian", "x0^2", "--seed", "5", "--sample-budget", "-3"),
        ("generic-rank", "--seed", "1", "x0^3+x1^3"),
        ("dual-dim", "--sample-budget", "2", "x0^3+x1^3+x2^3"),
    ],
)
def test_sampling_flags_rejected_outside_sampling_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (("hessian", "x0^2", "--seed", "1"), "usage: symdeg hessian"),
        (("bounds", "replay", "1", "1", "0", "--bogus"), "usage: symdeg bounds replay"),
    ],
)
def test_unknown_argument_shows_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[0].startswith(usage)
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_unknown_argument_before_subcommand_shows_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "hessian", "x0^2"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[0].startswith("usage: symdeg [-h]")
    assert "unrecognized arguments: --bogus" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (
            (),
            "symdeg: error: the following arguments are required: {hessian,rank-at,stratify,"
            "generic-rank,dual-dim,check-rank-relation,quad-betti,lh-dim,nonsurj,torsion,bounds}",
        ),
        (("bounds",), "symdeg bounds: error: the following arguments are required: {replay}"),
        (
            ("lh-dim", "--quadric-rank", "4", "2"),
            "symdeg lh-dim: error: the following arguments are required: --betti",
        ),
        (
            ("nonsurj", "--r", "4", "--d", "1"),
            "symdeg nonsurj: error: the following arguments are required: --betti",
        ),
        (
            ("torsion", "--r", "5", "--d", "1"),
            "symdeg torsion: error: the following arguments are required: --betti",
        ),
    ],
    ids=["top-level", "bounds", "lh-dim-betti", "nonsurj-betti", "torsion-betti"],
)
def test_a_missing_argument_is_named_in_the_last_error_line(capsys, argv, last_line):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("nope",), "symdeg: error: argument {hessian,rank-at,stratify,generic-rank,dual-dim,"),
        (("bounds", "nope"), "symdeg bounds: error: argument {replay}: invalid choice: "),
    ],
    ids=["top-level", "bounds"],
)
def test_unknown_subcommand_is_named_by_its_choices(capsys, argv, prefix):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.splitlines()[-1].startswith(prefix)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("lh-dim", "--betti", "1,0,1", "--quadric-rank", "1000000000000", "2"),
            ["dim H_2 of the rank-1000000000000 quadric bundle: 2"],
        ),
        (
            ("lh-dim", "--betti", "1,0,1", "--projective-fiber", "1000000000000", "2"),
            ["dim H_2 of the P^1000000000000 bundle: 2"],
        ),
        (
            ("nonsurj", "--betti", "1,0,1", "--r", "1000000000000", "--d", "1"),
            [
                "source dim (degree 1000000000002): 2",
                "target dim (degree 1000000000000): 3",
                "surjection impossible",
            ],
        ),
    ],
    ids=["lh-dim-quadric", "lh-dim-projective", "nonsurj"],
)
def test_huge_fiber_rank_answers_from_the_betti_vector(capsys, argv, expected):
    # The sums run over the Betti vector, so a fiber rank of 10^12 costs
    # no more than a small one.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


HUGE_FERMAT = "x0^999999999999 + x1^999999999999"


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (("generic-rank", HUGE_FERMAT), "rank", 2),
        (("generic-rank", "--on-hypersurface", HUGE_FERMAT), "rank", 2),
        (("dual-dim", HUGE_FERMAT + " + x2^999999999999"), "dual_dimension", 1),
    ],
    ids=["ambient", "hypersurface", "dual-dim"],
)
def test_huge_exponents_answer_symbolically(argv, key, expected):
    # No step evaluates the form at a point, so exponents near 10^12 cost
    # no more than small ones.  A subprocess with a timeout turns a hang
    # into a failure.
    done = run_subprocess(*argv, "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)
    assert out[key] == expected
    if key == "rank":
        assert out["witness_rows"] == out["witness_cols"] == [0, 1]


@pytest.mark.parametrize("flags", [(), ("--on-hypersurface",)], ids=["ambient", "hypersurface"])
def test_huge_degree_rank_stays_instant(flags):
    # The Z[x] elimination packs monomials for the degree bound
    # 2*2*(10^12 - 3), in fields 43 bits wide; the text answer must not
    # change, and ten seconds is room for interpreter start-up only.
    done = run_subprocess("generic-rank", *flags, HUGE_FERMAT, timeout=10)
    where = "on the hypersurface" if flags else "ambient"
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        f"generic rank {where}: 2",
        "witness minor rows [0, 1] cols [0, 1]: "
        "999999999994000000000012999999999988000000000004*x0^999999999997*x1^999999999997",
    ]


DENSE_QUADRIC = " + ".join(
    f"{(i * j + i + j) % 7 + 1}*x{i}*x{j}" for i in range(20) for j in range(i, 20)
)


def test_constant_hessian_rank_skips_the_expansion(monkeypatch):
    # A constant matrix goes to integer Bareiss.  Expansion by minors
    # would visit up to 2^20 row sets here.
    from symdeg import linalg

    def refuse(work):
        raise AssertionError("expansion by minors on a constant matrix")

    monkeypatch.setattr(linalg, "_expand_by_minors", refuse)
    h = build_hessian(parse_poly(DENSE_QUADRIC, infer_variables(DENSE_QUADRIC)))
    cert = ambient_rank_certificate(h)
    assert cert.rank == 20 and cert.witness_rows == tuple(range(20))
    done = run_subprocess("generic-rank", DENSE_QUADRIC, "--format", "json", timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)
    assert (out["rank"], out["witness_rows"]) == (20, list(range(20)))
    assert out["witness_minor"] == cert.witness_minor.format()


def test_symmetric_4x4_determinant_rank_by_expansion():
    # det of the generic symmetric 4x4 matrix, 17 terms in 10 variables:
    # its 10 x 10 Hessian determinant has 6,671 terms.  Bareiss elimination
    # takes about 20 times as long as expansion by minors over it.
    x = [MultiPoly.variable(i, 10) for i in range(10)]
    rows = [[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]]
    f = det_poly([[x[k] for k in row] for row in rows]).format()
    assert len(parse_poly(f, infer_variables(f)).terms) == 17
    done = run_subprocess("generic-rank", f, "--format", "json", timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)
    assert out["rank"] == 10
    assert out["witness_rows"] == out["witness_cols"] == list(range(10))
    assert len(parse_poly(out["witness_minor"], infer_variables(f)).terms) == 6671


def test_expansion_stops_past_its_term_budget(monkeypatch, capsys):
    # The largest column of QUARTIC's expansion holds 30 terms; the
    # budget is inclusive, and one term less stops it with exit 2.
    from symdeg import linalg

    monkeypatch.setattr(linalg, "_EXPANSION_TERMS", 30)
    code, out, _ = run(capsys, "generic-rank", QUARTIC)
    assert (code, out.splitlines()[0]) == (0, "generic rank ambient: 4")
    monkeypatch.setattr(linalg, "_EXPANSION_TERMS", 29)
    assert run(capsys, "generic-rank", QUARTIC) == (
        2,
        "",
        "error: expansion by minors passed its budget of 29 terms\n",
    )


FERMAT_28 = " + ".join(f"x{i}^3" for i in range(14)) + " + 0*x27"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (("generic-rank", "--on-hypersurface"), "generic rank on the hypersurface: 14"),
        (("dual-dim",), "dual variety dimension: 12"),
    ],
    ids=["generic-rank", "dual-dim"],
)
def test_hypersurface_search_takes_colex_sets_lazily(argv, first_line):
    # The Hessian of this 28-variable form has rank 14, and the first of
    # the C(28, 14) = 40,116,600 principal sets in colex order, {0..13},
    # is the witness: the search must reach it without listing the rest.
    done = run_subprocess(*argv, FERMAT_28, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == first_line


def test_hypersurface_search_skips_sets_meeting_a_zero_row():
    # Here the witness {14..27} is the last of the C(28, 14) colex sets;
    # every set before it holds one of the zero rows 0..13, so none is tried.
    fermat = "0*x0 + " + " + ".join(f"x{i}^3" for i in range(14, 28))
    done = run_subprocess(
        "generic-rank", "--on-hypersurface", fermat, "--format", "json", timeout=10
    )
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)
    assert out["rank"] == 14
    assert out["witness_rows"] == out["witness_cols"] == list(range(14, 28))


def test_a_long_division_stops_at_its_budget():
    # Long division of a Hessian minor by f would take about a step per
    # unit of degree, 10^12 of them, before it found that f does not
    # divide; every quotient term on the way is one q could have.
    done = run_subprocess(
        "generic-rank",
        "--on-hypersurface",
        "x0^999999999999 + x0^999999999998*x1 + x0*x1^999999999998 + x1^999999999999",
        timeout=10,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: polynomial division passed its budget of 65536 quotient terms\n"
    )


def test_a_division_outside_the_degree_box_answers_at_once():
    # The 2 x 2 Hessian minor has x1-degree 999999999998, below that of f,
    # so f cannot divide it: no step of the long division is needed.
    done = run_subprocess(
        "generic-rank",
        "--on-hypersurface",
        "x0^999999999999 + x0^999999999998*x1 + x1^999999999999",
        "--format",
        "json",
        timeout=10,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["rank"] == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answers_past_4300_digits_print(fmt, capsys):
    # The witness minor is -(10^3000 - 1)^2, of 6,000 digits, which Python
    # 3.11+ would refuse to print; its own limit must come back afterwards.
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = int_digits()
    code, out, err = run(capsys, "generic-rank", f"{'9' * 3000}*x0*x1", "--format", fmt)
    assert (code, err, int_digits()) == (0, "", before)
    minor = "-" + "9" * 2999 + "8" + "0" * 2999 + "1"
    if fmt == "json":
        assert json.loads(out)["witness_minor"] == minor
    else:
        assert out.splitlines()[1] == f"witness minor rows [0, 1] cols [0, 1]: {minor}"


@pytest.mark.parametrize("int_limit", ["4300", "0"], ids=["int-limit", "no-int-limit"])
def test_betti_numbers_past_4300_digits_are_refused_by_symdeg(int_limit):
    done = run_subprocess(
        "torsion", "--betti", f"1,{'1' * 5000}", "--r", "3", "--d", "0",
        PYTHONINTMAXSTRDIGITS=int_limit,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: a Betti number 11111111... has 5000 digits (limit 4300)\n"


ONES = "1" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rank-at", "x0^2+x1^2", f"1,{ONES}"), "a number in coordinate 11111111..."),
        (("rank-at", "x0^2+x1^2", f"1,1.{ONES}"), "a number in coordinate 1.111111..."),
        (("hessian", f"{ONES}*x0^2+x1^2"), "number 11111111... at position 0"),
        (("hessian", f"x0^{ONES}+x1^2"), "number 11111111... at position 3"),
        (("hessian", f"x{ONES}^2"), "the index of variable x1111111..."),
    ],
    ids=["coordinate", "decimals", "coefficient", "exponent", "variable"],
)
@pytest.mark.parametrize("int_limit", ["4300", "0"], ids=["int-limit", "no-int-limit"])
def test_numbers_past_4300_digits_are_refused_by_symdeg(argv, message, int_limit):
    # Python 3.11+ refuses such int strings with advice about its own
    # settings, and 3.10 reads them; with the limit off (as on 3.10) the
    # outcome must be the same one error line.
    done = run_subprocess(*argv, PYTHONINTMAXSTRDIGITS=int_limit)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message} has 5000 digits (limit 4300)\n"


def test_digit_limit_is_inclusive():
    at_limit, past = "7" * 4300, "7" * 4301
    assert _parse_point(f"1,{at_limit}")[1] == int(at_limit)
    assert _parse_point(f"1/{at_limit}")[0].denominator == int(at_limit)
    assert parse_poly(f"{at_limit}*x0^{at_limit}", ["x0"]).terms == {
        (int(at_limit),): int(at_limit)
    }
    with pytest.raises(ValueError, match="has 4301 digits"):
        _parse_point(f"1,{past}")
    with pytest.raises(PolyParseError, match="has 4301 digits"):
        parse_poly(f"x0^{past}", ["x0"])


def test_variable_index_digit_limit_is_inclusive():
    # A 4,300-digit index passes the digit check, and the variable list it
    # implies is refused by its length limit; one digit more is refused first.
    with pytest.raises(ValueError, match=r"^the variable list would have 7{4299}8 entries"):
        infer_variables(f"x{'7' * 4300}^2")
    with pytest.raises(ValueError, match=r"^the index of variable x7777777\.\.\. has 4301 digits"):
        infer_variables(f"x{'7' * 4301}^2")


def test_a_length_too_long_to_print_is_not_printed():
    # 10^4300 has 4,301 digits: the message says it is over the limit
    # instead of printing it, which Python 3.11 and later would refuse.
    message = r"^the variable list would have at least 10\^4300 entries \(limit 65536\)$"
    with pytest.raises(ValueError, match=message):
        infer_variables(f"x{'9' * 4300}^2")


def test_bounds_replay_refuses_a_huge_default_betti_vector_in_one_short_line():
    done = run_subprocess("bounds", "replay", "3", "1", "9" * 4300)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: the default Betti vector would have at least 10^4300 entries (limit 65536)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("rank-at", HUGE_FERMAT, "2,3"), ("stratify", HUGE_FERMAT, "1,1;2,3")],
    ids=["rank-at", "stratify"],
)
def test_huge_exponents_at_a_point_stop_at_the_evaluation_budget(argv):
    # 2^(10^12) would take 125 GB; the evaluation budget turns the hang
    # into exit 2 with one error line.
    done = run_subprocess(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


def test_primitive_lift_makes_a_refused_point_cheap():
    # (1/2, -1/2) lifts to (1, -1), where x^(10^12 - 2) costs no bits;
    # evaluation at the rational point itself would need 10^12 bits.
    done = run_subprocess("rank-at", HUGE_FERMAT, "1/2,-1/2", "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["rank"] == 2


def test_evaluation_budget_error_names_the_budget():
    done = run_subprocess("rank-at", HUGE_FERMAT, "2,3")
    assert done.stderr == "error: value needs at least 999999999997 bits (budget 4194304)\n"


@pytest.mark.parametrize(
    "argv, entries",
    [(("hessian", "x5000^2"), 12507501), (("generic-rank", "x3000^3"), 4504501)],
    ids=["hessian", "generic-rank"],
)
def test_hessian_size_is_bounded_before_it_is_built(argv, entries):
    # One index names n variables, and the Hessian has n(n+1)/2 distinct
    # entries; both inputs hung before the bound.
    done = run_subprocess(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: the Hessian upper triangle would have {entries} entries (limit 65536)\n"
    )


def test_hessian_of_a_300_variable_quadric_builds():
    quadric = " + ".join(f"x{i}^2" for i in range(300))
    h = build_hessian(parse_poly(quadric, infer_variables(quadric)))
    assert h.size == 300 and h.hessian[299][299] == MultiPoly.constant(2, 300)


@pytest.mark.parametrize(
    "argv, budget",
    [
        (
            ("check-rank-relation", "x0^999999999999 - x1^999999999999 + x2^999999999999", "1,1,0"),
            "budget 1048576",
        ),
        (("quad-betti", "100000000000"), "limit 65536"),
        (("bounds", "replay", "4", "3", "100000000000"), "limit 65536"),
    ],
    ids=["check-rank-relation", "quad-betti", "bounds-replay"],
)
def test_huge_arguments_stop_at_a_budget(argv, budget):
    # A power of a linear form with 10^12 terms, a table of 10^11 entries
    # and a default Betti vector of 2*10^11 + 1 entries are refused before
    # they are built.
    done = run_subprocess(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert budget in done.stderr


def test_dense_quartic_in_14_variables_is_adapted(capsys):
    # The dense row of the adapted coordinates raises x0^4 to C(17, 13) = 2,380 terms.
    form = " + ".join(f"x{i}^4" for i in range(13)) + " - 13*x13^4"
    code, out, _ = run(capsys, "check-rank-relation", form, ",".join(["1"] * 14))
    assert code == 0 and "rank Q = rank A + 2: holds" in out


def test_list_limit_is_inclusive(capsys):
    from symdeg.errors import MAX_LENGTH as _MAX_LENGTH

    code, out, _ = run(capsys, "quad-betti", str(_MAX_LENGTH + 1), "--format", "json")
    assert code == 0 and len(json.loads(out)["table"]) == _MAX_LENGTH
    assert len(infer_variables(f"x{_MAX_LENGTH - 1}")) == _MAX_LENGTH
    too_long = [
        ("quad-betti", str(_MAX_LENGTH + 2)),
        ("bounds", "replay", "4", "3", "32768"),
        ("hessian", f"x{_MAX_LENGTH}^2"),
    ]
    for argv in too_long:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "limit" in err


def test_huge_exponents_at_unit_coordinates_cost_nothing(capsys):
    code, out, err = run(capsys, "rank-at", HUGE_FERMAT, "1,-1")
    assert (code, err) == (0, "")
    assert out.strip().endswith("2")


def test_rational_point_coordinates_accepted(capsys):
    code, out, _ = run(capsys, "rank-at", FERMAT, "1,-1,0,0")
    assert code == 0
    assert out.strip().endswith("2")
    code, out, _ = run(capsys, "rank-at", FERMAT, "1/2,-1/2,0,0")
    assert code == 0
    assert out.strip().endswith("2")


# 10^1262611 has 4,194,303 bits, 10^1262612 has 4,194,307: the last
# decimal exponent inside the 2^22-bit evaluation budget.
EXPONENT_LIMIT = 1_262_611


def _huge_exponent(token):
    _, e, tail = token.lower().rpartition("e")
    try:
        return bool(e) and abs(int(tail)) > EXPONENT_LIMIT
    except ValueError:
        return False


def _long_digit_run(token):
    return any(len(run.replace("_", "")) > 4300 for run in re.findall(r"\d+(?:_\d+)*", token))


def _fraction_outcome(text):
    """What ``[Fraction(s) for s in parts]`` makes of a point: its values, or None.

    Two deliberate exceptions: a token ending in a decimal exponent past
    ``EXPONENT_LIMIT`` is None, where Fraction would first build 10^|e|,
    and so is a token with a run of more than 4,300 digits, which Python
    3.10 would read and later versions refuse.
    """
    from fractions import Fraction

    parts = [p.strip() for p in text.split(",")]
    if any(_huge_exponent(p) or _long_digit_run(p) for p in parts):
        return None
    try:
        return [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        return None


def _parse_outcome(text):
    try:
        return _parse_point(text)
    except ValueError:
        return None


POINT_TOKENS = [
    "+12", "-0", "0012", "3/4", "-3/4", "1.5", "1e3", "1_000", "\u0661\u0662", "\uff17",
    "0x10", "1/0", "abc", "", " 7 ", "+-1", "--1", "1 2", "7\n",
    "1e1000", "-2.5E-1000", "1e1262612", "1E-1262612", "1e1_262_612", "1e\u0661262612",
    "1/2e1262612", "x1e1262612",
]


@pytest.mark.parametrize("token", POINT_TOKENS)
def test_point_parsing_matches_fraction(token):
    # The int fast path must not change which strings are accepted, nor
    # their values, on any supported Python.
    for text in (token, f"1,{token}", f"{token},{token}"):
        assert _parse_outcome(text) == _fraction_outcome(text), text


def test_point_parsing_matches_fraction_past_the_int_digit_limit():
    # Python 3.11+ refuses int strings over 4,300 digits; Fraction parses
    # through int, so both refuse alike, and both accept just under it.
    for text in ("1" * 5000, "-" + "1" * 4300):
        assert _parse_outcome(text) == _fraction_outcome(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-/._eEx, \u0663\uff10", max_size=12))
def test_point_parsing_matches_fraction_on_any_text(text):
    assert _parse_outcome(text) == _fraction_outcome(text)


def test_decimal_exponents_up_to_the_limit_keep_their_value():
    from fractions import Fraction

    from symdeg.poly import _EVALUATE_BITS

    assert (10**EXPONENT_LIMIT).bit_length() <= _EVALUATE_BITS
    assert (10 ** (EXPONENT_LIMIT + 1)).bit_length() > _EVALUATE_BITS
    assert _parse_point("1,1e1000") == [1, Fraction(10**1000)]
    assert _parse_point(f"1e{EXPONENT_LIMIT}") == [10**EXPONENT_LIMIT]
    assert _parse_point(f"3e-{EXPONENT_LIMIT}") == [Fraction(3, 10**EXPONENT_LIMIT)]
    with pytest.raises(ValueError, match="exceeds the 4194304-bit budget"):
        _parse_point(f"1e{EXPONENT_LIMIT + 1}")


@pytest.mark.parametrize("coordinate", ["1e999999999", "1e-999999999", "-7.5E+999999999"])
@pytest.mark.parametrize(
    "command", ["rank-at", "stratify", "stratify-file", "check-rank-relation"]
)
def test_huge_decimal_exponents_stop_at_the_budget(tmp_path, command, coordinate):
    # Fraction would build 10^999999999 before any budget applied: these
    # calls ran past a 10 s timeout.
    point = f"1,-1,0,{coordinate}"
    if command == "stratify-file":
        (tmp_path / "points.txt").write_text(f"1,-1,0,0\n{point}\n")
        argv = ("stratify", FERMAT, f"@{tmp_path / 'points.txt'}")
    elif command == "stratify":
        argv = ("stratify", FERMAT, f"1,-1,0,0;{point}")
    else:
        argv = (command, FERMAT, point)
    done = run_subprocess(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: power of ten in {coordinate!r} exceeds the 4194304-bit budget\n"


# -- CLI contract fuzz ------------------------------------------------------------------

SUBCOMMANDS = [
    (),
    ("hessian",),
    ("rank-at",),
    ("stratify",),
    ("generic-rank",),
    ("dual-dim",),
    ("check-rank-relation",),
    ("quad-betti",),
    ("lh-dim",),
    ("nonsurj",),
    ("torsion",),
    ("bounds",),
    ("bounds", "replay"),
]
FLAGS = [
    "--format", "json", "text", "--vars", "--seed", "--sample-budget", "--on-hypersurface",
    "--betti", "--quadric-rank", "--projective-fiber", "--r", "--d", "-h",
]


@st.composite
def small_polys(draw):
    """Polynomial text in x0..x2: exponents <= 3, coefficients in -4..4."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.integers(-4, 4))
        exps = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
        factors = [str(abs(coeff))] + [f"x{i}^{e}" for i, e in enumerate(exps) if e]
        pieces.append(("-" if coeff < 0 else "+") + "*".join(factors))
    return " ".join(pieces).lstrip("+")


coordinates = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(-3, 3), st.integers(1, 3)
)
points = st.lists(
    st.lists(coordinates, min_size=1, max_size=4).map(",".join), min_size=1, max_size=3
).map(";".join)
tokens = st.one_of(
    small_polys(),
    st.integers(-3, 12).map(str),
    points,
    st.text(alphabet="x0123^*+-/,;@ .", max_size=6),
    st.sampled_from(FLAGS),
)


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(SUBCOMMANDS), st.lists(tokens, max_size=6))
def test_cli_contract_exit_zero_or_two_without_traceback(command, rest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*command, *rest])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# -- report records ---------------------------------------------------------------------

RECORD_FIELDS = {
    ("bounds", "BoundStep"): ("statement", "lhs", "rhs", "ok"),
    ("bounds", "BoundReport"): ("N", "r", "d", "n", "steps", "verdict", "certificate"),
    ("dualvariety", "AdaptedForm"): (
        "transform", "f_adapted", "degree", "g", "ell", "higher", "scale",
    ),
    ("dualvariety", "BlockDecomposition"): ("a", "b", "l_n", "assembled"),
    ("dualvariety", "RankRelationReport"): ("rank_q", "rank_a", "holds", "transform"),
    ("hessian", "HessianForm"): ("f", "hessian", "degree", "ambient_dim"),
    ("hessian", "RankCertificate"): (
        "rank", "witness_rows", "witness_cols", "witness_minor", "on_hypersurface", "caveat",
    ),
    ("hessian", "RankStratification"): ("buckets",),
    ("linalg", "FGAbelianGroup"): ("free_rank", "torsion"),
    ("quadrics", "NonsurjectivityCertificate"): (
        "r", "d", "n", "degree_source", "degree_target", "dim_source", "dim_target",
        "surjection_impossible",
    ),
    ("quadrics", "PhiReplay"): ("n", "a", "b", "image", "check", "conclusion"),
    ("quadrics", "TorsionCertificate"): (
        "r", "d", "n", "relation", "bottom_matrix", "snf_diagonal", "quotient",
        "element_order", "vertical_surjective",
    ),
}


@pytest.mark.parametrize("module, name", list(RECORD_FIELDS), ids=[n for _, n in RECORD_FIELDS])
def test_records_keep_their_field_order_and_are_immutable(module, name):
    import importlib

    cls = getattr(importlib.import_module(f"symdeg.{module}"), name)
    assert cls._fields == RECORD_FIELDS[module, name]
    values = (1, (2,)) if name == "FGAbelianGroup" else range(len(cls._fields))
    record = cls(*values)
    assert tuple(record) == tuple(values) and len(record) == len(cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_to_json_turns_nested_records_into_dicts():
    from fractions import Fraction

    from symdeg.bounds import replay_main_theorem
    from symdeg.cli import to_json
    from symdeg.quadrics import torsion_certificate

    cert = to_json(torsion_certificate([1, 0, 1], 3, 1))
    assert cert["quotient"] == {"free_rank": 0, "torsion": [2]}
    assert cert["bottom_matrix"] == [[2]]
    payload = to_json({"p": (Fraction(1, 2), 3), "cert": torsion_certificate([1, 0, 1], 3, 1)})
    assert list(payload) == ["p", "cert"]
    assert payload == {"p": ["1/2", 3], "cert": cert}
    assert isinstance(payload["cert"], dict)
    for r, kind in ((3, "quotient"), (4, "surjection_impossible")):
        report = to_json(replay_main_theorem(4, r, 1, [1, 0, 1]))
        assert all(isinstance(step, dict) and list(step) == ["statement", "lhs", "rhs", "ok"]
                   for step in report["steps"])
        assert isinstance(report["certificate"], dict) and kind in report["certificate"]


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    # Start-up cost: dataclasses pulls in inspect, ast, dis and tokenize.
    # The benchmark tracer patches these modules straight after this import.
    traced = ("poly", "linalg", "hessian", "dualvariety", "quadrics", "bounds")
    code = (
        "import sys, symdeg.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
        f"print([m for m in {traced!r} if 'symdeg.' + m not in sys.modules])"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n[]\n"


def test_submodules_run_only_when_a_command_uses_them():
    # A module that has run is a plain module again; ``type`` does not load one.
    code = (
        "import sys, types, symdeg.cli\n"
        "names = ('bounds', 'dualvariety', 'errors', 'hessian', 'linalg', 'poly', 'quadrics')\n"
        "ran = lambda: [m for m in names if type(sys.modules['symdeg.' + m]) is types.ModuleType]\n"
        "print(ran())\n"
        "symdeg.cli.main(['bounds', 'replay', '4', '3', '2'])\n"
        "print(ran())\n"
        "getattr(sys.modules['symdeg.hessian'], 'build_hessian')\n"
        "print(ran())\n"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "['errors']"
    assert lines[-2] == "['bounds', 'errors', 'linalg', 'quadrics']"
    assert lines[-1] == "['bounds', 'errors', 'hessian', 'linalg', 'poly', 'quadrics']"


# -- public surface ---------------------------------------------------------------


def test_public_names_are_sorted_unique_and_bound():
    import symdeg

    names = symdeg.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(symdeg, name)
    star: dict = {}
    exec("from symdeg import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def test_unknown_package_attribute_is_refused():
    import symdeg

    with pytest.raises(AttributeError, match="^module 'symdeg' has no attribute 'nope'$"):
        symdeg.nope
    assert not hasattr(symdeg, "nope")
    with pytest.raises(ImportError):
        from symdeg import nope  # noqa: F401
