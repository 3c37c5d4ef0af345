"""The README's command lines and Library example run as printed, and its
admission limits are those of the cost model, so a removed option or
public name or a change to the cost model fails here instead of leaving
the docs stale."""

import re
import shlex
from pathlib import Path
from types import SimpleNamespace

from qmix.cli import main
from qmix.mixing import GATHER_BUDGET, gather_estimate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_command_block_runs(capsys, monkeypatch, tmp_path):
    commands = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", commands, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "qmix" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_library_block_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1 3 3 6 7 8]"
    assert lines[1].startswith("3 1.0366")
    assert lines[-2] == "True"


def largest_admitted(suite):
    """The largest n whose gather_estimate fits GATHER_BUDGET."""

    def fits(n):
        C = SimpleNamespace(group=SimpleNamespace(n=n))
        return gather_estimate(suite, C) <= GATHER_BUDGET

    lo, hi = 1, 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def test_admission_limits_follow_the_cost_model():
    text = " ".join(README.read_text().split())
    limits = {
        "chain up to n = ": largest_admitted("chain"),
        "γ up to n = ": largest_admitted("gamma"),
        "every O(n²) suite up to n = ": largest_admitted("bnp"),
    }
    for phrase, n in limits.items():
        assert int(re.search(re.escape(phrase) + r"(\d+)", text).group(1)) == n


def test_o_n3_suites_bound_the_table_they_build():
    # The chain's c3 and gamma's class convolution read GroupTable.mul,
    # the int32 n x n table, which any group builds on first read.  No
    # rule but the cost model bounds it, so the largest table is 4n^2
    # bytes at the largest n it admits, as the README says.
    n = max(largest_admitted(suite) for suite in ("chain", "gamma"))
    text = " ".join(README.read_text().split())
    assert f"4n² bytes at the largest admitted n, {round(4 * n * n / 1e6)} MB at n = {n}" in text
