"""README examples run as written, and its stated limits match the code."""

import re
import shlex
from pathlib import Path

import pytest

from symdeg.cli import _MAX_EXPONENT, main
from symdeg.errors import MAX_DIGITS, MAX_LENGTH
from symdeg.linalg import _EXPANSION_TERMS
from symdeg.poly import _COMPOSE_TERMS, _EVALUATE_BITS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
QUARTIC = "w0^2*w3^2 - 6*w0*w1*w2*w3 + 4*w0*w2^3 + 4*w1^3*w3 - 3*w1^2*w2^2"


def code_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    assert len(blocks) >= 1, f"no {language} block in README"
    return blocks[-1]


CLI_LINES = [ln for ln in code_block("sh").splitlines() if ln.startswith("symdeg ")]


def test_python_example_gives_the_commented_results():
    block = code_block("python")
    namespace = {}
    exec(block, namespace)
    results = re.findall(r"^(\S.*?)\s+# (\d+)\b", block, re.M)
    assert [value for _, value in results] == ["3", "3", "1"]
    for expression, value in results:
        assert eval(expression, namespace) == int(value), expression


def test_cli_block_lists_every_example():
    assert len(CLI_LINES) == 11


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "quartic.txt").write_text(QUARTIC + "\n")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert (code, err) == (0, "")


def test_limits_paragraph_matches_the_constants():
    text = " ".join(README.split())
    assert _EVALUATE_BITS == 8 * (1 << 19) and "half a megabyte" in text
    most_variables = max(n for n in range(1, MAX_LENGTH) if n * (n + 1) // 2 <= MAX_LENGTH)
    for phrase in (
        f"|e| > {_MAX_EXPONENT:,}",
        f"more than {_COMPOSE_TERMS:,} terms",
        f"more than {MAX_LENGTH:,} entries",
        f"at most {most_variables} variables",
        f"more than {_EXPANSION_TERMS:,} terms",
        f"more than {MAX_DIGITS:,} digits",
        f"hypersurface search, stops past {MAX_LENGTH:,} quotient terms",
    ):
        assert phrase in text, phrase
