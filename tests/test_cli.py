import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmix import (
    GroupTable,
    LemmaReport,
    build_group,
    compute_character_table,
    conjugacy_classes,
    random_ensemble,
    theta_defects,
)
import qmix
from qmix import cli, mixing
from qmix.cli import main
from qmix.chartab import MAX_CLASSES
from qmix.groups import CHUNK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_json(text):
    """json.loads that refuses Infinity and NaN, which RFC 8259 JSON has no
    literal for (jq and JSON.parse reject them too)."""
    return json.loads(text, parse_constant=_no_constant)


def assert_theta_matches_a_compose_recount(G, row, sets):
    """The row's theta against an exact count of the pairs (x, y) with x in
    A1, xy in A2 and xy^2 in A3, each row x -> xy read through compose."""
    n = G.n
    ar = np.arange(n)
    ysq = G.compose(ar, ar)
    member = np.zeros((3, n), dtype=bool)
    for m, a in zip(member, sets):
        m[a] = True
    count = 0
    for lo in range(0, len(sets[0]), 128):
        rows = G.compose(sets[0][lo:lo + 128, None], ar)
        count += int(np.count_nonzero(member[1][rows] & member[2][rows[:, ysq]]))
    sizes = [len(a) for a in sets]
    assert round(row["raw_re"] * n * n) == count
    theta = abs(count / (n * n) - sizes[0] * sizes[1] * sizes[2] / n**3)
    assert row["theta"] == pytest.approx(theta, rel=0, abs=1e-15)


class TestGroupCommand:
    def test_basic_info(self, capsys):
        code, out, _ = run(capsys, "group", "alt:5")
        assert code == 0
        assert "n=60" in out
        assert "abelian=False" in out
        assert "classes=5" in out

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "group", "cyclic:1")
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "group", "cyclic:6", "--format", "json")
        assert code == 0
        info = parse_json(out)
        assert info == {"group": "cyclic:6", "n": 6, "abelian": True, "classes": 6}

    # Closed forms: n classes for cyclic:n, n/2 + 3 for dihedral:n with n
    # even, the 22 partitions of 8 for sym:8, 14 for alt:8 (the partitions
    # with an even number of even parts, one with distinct odd parts split
    # in two), p + 4 for sl2:p and (p + 5)/2 for psl2:p.
    @pytest.mark.parametrize(
        "text,n,classes",
        [
            ("cyclic:50000", 50000, 50000),
            ("dihedral:25000", 50000, 12503),
            ("sym:8", 40320, 22),
            ("alt:8", 20160, 14),
            ("sl2:31", 29760, 35),
            ("psl2:43", 39732, 24),
        ],
    )
    def test_every_family_at_its_largest_order(self, capsys, text, n, classes):
        code, out, _ = run(capsys, "group", text, "--format", "json")
        assert code == 0
        info = {"group": text, "n": n, "abelian": text.startswith("cyclic"), "classes": classes}
        assert parse_json(out) == info


class TestChartabCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "chartab", "alt:5", "--format", "json")
        assert code == 0
        report = parse_json(out)
        assert report["degrees"] == [1, 3, 3, 4, 5]
        assert report["D"] == 3

    def test_abelian_flagged(self, capsys):
        code, out, _ = run(capsys, "chartab", "cyclic:8")
        assert code == 0
        assert "not quasirandom" in out

    def test_zeta_value(self, capsys):
        code, out, _ = run(capsys, "chartab", "psl2:7", "--format", "json")
        payload = parse_json(out)
        expected = 1 / 3 + 1 / 3 + 1 / 6 + 1 / 7 + 1 / 8
        assert payload["zeta1"] == pytest.approx(expected, abs=1e-12)

    def test_csv_is_full_table(self, capsys):
        code, out, _ = run(capsys, "chartab", "sym:3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("class_rep,")
        assert len(lines) == 2 + 3


class TestVerifyCommand:
    def test_fcmu_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "alt:5", "--suite", "fcmu")
        assert code == 0
        assert "passed=True" in out

    def test_not_quasirandom_gate(self, capsys):
        code, _, err = run(capsys, "verify", "cyclic:6", "--suite", "bnp")
        assert code == 2
        assert "not quasirandom" in err

    @pytest.mark.parametrize(
        "suite", ["bnp", "derivative", "gamma", "fcmu", "parseval", "chain"]
    )
    def test_small_runs_pass(self, capsys, suite):
        trials = () if suite == "fcmu" else ("--trials", "3")
        code, out, _ = run(capsys, "verify", "alt:5", "--suite", suite, *trials)
        assert code == 0
        rows = [line for line in out.strip().splitlines() if "lemma_id" in line]
        expected_rows = 1 if suite == "fcmu" else 3
        assert len(rows) == expected_rows
        assert all("passed=True" in r for r in rows)

    def test_chain_row_carries_its_values(self, capsys):
        code, out, _ = run(
            capsys, "verify", "alt:5", "--suite", "chain", "--trials", "2",
            "--format", "json",
        )
        assert code == 0
        for row in parse_json(out):
            assert list(row["values"]) == [
                "c1", "c2", "c3", "c4", "gamma_term", "mean_term", "split", "bound"
            ]
            assert row["lhs"] == row["values"]["split"]
            assert row["rhs"] == row["values"]["bound"]
            assert row["mode"] == "exhaustive" and row["stderr"] is None
            assert len(row["hash"]) == 16

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "alt:5", "--suite", "bnp", "--trials", "0"),
            ("mix", "sl2:5", "--random", "0.5", "--trials", "0"),
        ],
    )
    def test_zero_trials_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--trials must be >= 1" in err

    def test_suite_all_emits_every_lemma(self, capsys):
        code, out, _ = run(
            capsys, "verify", "psl2:5", "--suite", "all",
            "--trials", "2", "--format", "json",
        )
        assert code == 0
        rows = parse_json(out)
        lemmas = {row["lemma_id"] for row in rows}
        assert lemmas == {"bnp", "derivative", "gamma", "fcmu", "parseval", "chain"}
        assert all(row["passed"] for row in rows)
        assert all(row["group"] == "psl2:5" for row in rows)
        assert all((row["hash"] is None) == (row["lemma_id"] == "fcmu") for row in rows)
        assert all(row["mode"] == "exhaustive" and row["stderr"] is None for row in rows)

    def test_rows_ordered_by_trial(self, capsys):
        code, out, _ = run(
            capsys, "verify", "alt:5", "--suite", "bnp",
            "--trials", "5", "--format", "json",
        )
        rows = parse_json(out)
        assert [r["trial"] for r in rows] == list(range(5))

    def test_failure_prints_witness_and_exits_1(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def broken(f1, f2, T, tol=1e-9):
            return LemmaReport(
                lemma_id="bnp", lhs_value=2.0, rhs_bound=1.0, passed=False, margin=-1.0
            )

        monkeypatch.setattr(cli_module, "verify_bnp", broken)
        code, out, err = run(
            capsys, "verify", "alt:5", "--suite", "bnp", "--trials", "2"
        )
        assert code == 1
        assert "passed=False" in out
        assert "FAIL lemma=bnp" in err
        assert "replay: qmix verify alt:5 --suite bnp" in err
        assert "hash=" in err
        replay = err.split("replay: qmix ")[1].splitlines()[0].split()
        assert run(capsys, *replay) == (code, out, err)

    def test_fcmu_runs_above_the_old_size_guard(self, capsys):
        # One profile per class: psl2:17 (n = 2448) was refused before at
        # n * sum_K |K|^2 = 1.6e9 gathers.
        code, out, err = run(capsys, "verify", "psl2:17", "--suite", "fcmu")
        assert code == 0
        assert err == ""
        assert "n=2448" in out and "passed=True" in out

    def test_fcmu_refuses_trials(self, capsys):
        code, out, err = run(capsys, "verify", "alt:5", "--suite", "fcmu", "--trials", "50")
        assert code == 2
        assert out == ""
        assert "--trials does not apply to --suite fcmu" in err

    def test_fcmu_failure_replays_without_trials(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def broken(T, C, tol):
            return LemmaReport(
                lemma_id="fcmu", lhs_value=2.0, rhs_bound=tol, passed=False, margin=tol - 2.0
            )

        monkeypatch.setattr(cli_module, "verify_fcmu", broken)
        argv = ("verify", "alt:5", "--suite", "fcmu", "--seed", "3", "--tol", "1e-07")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "FAIL lemma=fcmu" in err
        replay = err.split("replay: qmix ")[1].split()
        assert replay == list(argv)
        assert run(capsys, *replay) == (code, out, err)

    def test_suite_all_refused_before_any_suite_runs(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def never(*args):
            raise AssertionError("a suite ran")

        for suite in list(cli_module._SUITE_RUNNERS):
            monkeypatch.setitem(cli_module._SUITE_RUNNERS, suite, never)
        code, out, err = run(
            capsys, "verify", "psl2:11", "--suite", "all", "--trials", "1"
        )
        assert code == 2
        assert out == ""
        assert "chain on n=660 needs about 1.1e+09 table gathers" in err

    def test_oversized_budget_refused_before_drawing(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("gamma ran")

        monkeypatch.setattr(cli_module, "gamma_functional", never)
        # gamma runs all 2n^3 gathers or none, and 2 * 4896^3 exceeds the budget.
        code, out, err = run(
            capsys, "verify", "sl2:17", "--suite", "gamma", "--trials", "1"
        )
        assert code == 2
        assert out == ""
        assert "gamma on n=4896 needs about 2.3e+11 table gathers" in err

    def test_gamma_above_its_exhaustive_limit_refused(self, capsys, monkeypatch):
        # psl2:13 (n = 1092) is the smallest family group above n = 736:
        # refused before the character table, any draw or the n x n table.
        import qmix.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("gamma or the character table ran")

        groups = []

        def recorded(spec):
            groups.append(build_group(spec))
            return groups[-1]

        monkeypatch.setattr(cli_module, "build_group", recorded)
        monkeypatch.setattr(cli_module, "gamma_functional", never)
        monkeypatch.setattr(cli_module, "compute_character_table", never)
        code, out, err = run(
            capsys, "verify", "psl2:13", "--suite", "gamma", "--trials", "1"
        )
        assert code == 2
        assert out == ""
        assert "gamma on n=1092 needs about 2.6e+09 table gathers" in err
        assert [G.n for G in groups] == [1092] and groups[0].table is None

    def test_budget_is_no_verify_option(self, capsys):
        code, out, err = run(capsys, "verify", "alt:5", "--budget", "32")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --budget 32" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "alt:5", "--suite", "derivative",
            "--trials", "2", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:4] == ["group", "n", "D", "lemma_id"]
        assert len(lines) == 3


class TestMixCommand:
    def test_point_sets_oracle(self, capsys):
        code, out, _ = run(capsys, "mix", "cyclic:5", "--sets", "[[0],[0],[0]]")
        assert code == 0
        assert "theta=0.032" in out
        assert "vacuous=True" in out

    def test_sets_from_file(self, capsys, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text("[[0, 1], [2], [3]]")
        code, out, _ = run(capsys, "mix", "sym:3", "--sets", f"@{path}")
        assert code == 0
        assert "sizes=[2, 1, 1]" in out

    def test_random_triples(self, capsys):
        code, out, _ = run(
            capsys, "mix", "sl2:5", "--random", "0.5",
            "--trials", "5", "--format", "json",
        )
        assert code == 0
        rows = parse_json(out)
        assert len(rows) == 5
        bound = (2 / math.sqrt(2)) ** 0.25
        for row in rows:
            assert row["theta"] <= bound + 1e-9
            assert row["passed"]

    def test_random_triples_are_drawn_chunk_at_a_time(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        trials = CHUNK + 3
        G = build_group("sym:3")
        T = compute_character_table(G, conjugacy_classes(G))
        streams = [
            random_ensemble(G, "indicator:0.5", (42, 11 + role), trials) for role in range(3)
        ]
        expected = [rep.theta for rep in theta_defects(*streams, T)]
        counts, blocks = [], []

        def counted(G, kind, seed, count):
            counts.append(count)
            return random_ensemble(G, kind, seed, count)

        def blocked(*args):
            blocks.append(len(args[0]))
            return theta_defects(*args)

        monkeypatch.setattr(cli_module, "random_ensemble", counted)
        monkeypatch.setattr(cli_module, "theta_defects", blocked)
        code, out, _ = run(
            capsys, "mix", "sym:3", "--random", "0.5", "--trials", str(trials),
            "--seed", "42", "--format", "json",
        )
        assert code == 0
        assert [row["theta"] for row in parse_json(out)] == expected
        assert [row["trial"] for row in parse_json(out)] == list(range(trials))
        assert counts == [1] * (3 * trials)
        assert blocks == [CHUNK, 3]

    def test_malformed_sets_exit_2(self, capsys):
        for bad in ("not json", "[[0],[0]]", "[[0],[0],[999]]", '{"a": 1}'):
            code, _, err = run(capsys, "mix", "cyclic:5", "--sets", bad)
            assert code == 2, bad
            assert "error" in err

    def test_bad_density_exit_2(self, capsys):
        for bad in ("0", "1", "-0.5", "2"):
            code, _, _ = run(capsys, "mix", "cyclic:5", "--random", bad, "--trials", "1")
            assert code == 2, bad

    @pytest.mark.parametrize(
        "sets",
        ["[[0.9],[1],[2]]", '[["3"],[true],[2]]', "[[0],[true],[2]]", "[[0],[1.0],[2]]"],
    )
    def test_non_integer_sets_refused(self, capsys, sets):
        code, out, err = run(capsys, "mix", "cyclic:5", "--sets", sets)
        assert code == 2
        assert out == ""
        assert "element indices must be integers" in err

    def test_sets_and_random_conflict(self, capsys):
        code, _, err = run(
            capsys, "mix", "cyclic:5", "--sets", "[[0],[0],[0]]", "--random", "0.5"
        )
        assert code == 2
        assert "mutually exclusive" in err

    @pytest.mark.parametrize(
        "extra", [("--trials", "5"), ("--seed", "3"), ("--trials", "5", "--seed", "3")]
    )
    def test_sets_refuse_trials_and_seed(self, capsys, extra):
        code, out, err = run(capsys, "mix", "sym:3", "--sets", "[[0],[0],[0]]", *extra)
        assert code == 2
        assert out == ""
        assert "--trials and --seed apply only to --random" in err

    def test_missing_selector_exit_2(self, capsys):
        code, _, _ = run(capsys, "mix", "cyclic:5")
        assert code == 2


class TestSearchCommand:
    def test_small_search_passes(self, capsys):
        code, out, _ = run(
            capsys, "search", "psl2:5", "--budget", "400", "--restarts", "2",
            "--seed", "7",
        )
        assert code == 0
        assert "best_theta=" in out
        assert "A1=[" in out

    def test_deterministic_output(self, capsys):
        args = ("search", "sym:4", "--budget", "300", "--restarts", "2", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_nulls_the_infinite_bound_and_margin(self, capsys):
        # sym:3 has D = 1, so its bound and margin are infinite.
        code, out, _ = run(capsys, "search", "sym:3", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["D"] == 1
        assert payload["bound"] is None and payload["margin"] is None
        assert payload["vacuous"] is True

    def test_a_budget_below_one_step_is_noted(self, capsys):
        # sl2:13 has n = 2184, so one greedy step costs 6552 evaluations,
        # more than the default budget of 5000.
        code, out, err = run(capsys, "search", "sl2:13")
        assert code == 0
        assert "best_theta=" in out
        assert err == (
            "note: --budget 5000 is below 3n = 6552, the cost of one greedy "
            "step, so no step runs and the seeded start is reported\n"
        )
        code, _, err = run(
            capsys, "search", "psl2:13", "--budget", "100000", "--restarts", "1"
        )
        assert code == 0
        assert err == ""

    def test_json_sets_are_valid_indices(self, capsys):
        code, out, _ = run(
            capsys, "search", "sym:4", "--budget", "200", "--restarts", "1",
            "--format", "json",
        )
        assert code == 0
        payload = parse_json(out)
        for key in ("A1", "A2", "A3"):
            indices = payload["sets"][key]
            assert all(0 <= i < 24 for i in indices)
            assert len(set(indices)) == len(indices)


class TestHarness:
    # The O(n^2) suites read no table and run on these groups; the O(n^3)
    # ones are refused by the cost model alone, far below n = 12144.
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "sl2:23", "--suite", "chain", "--trials", "1"),
            ("verify", "sl2:23", "--suite", "gamma", "--trials", "1"),
            ("verify", "sl2:23", "--trials", "1"),
            ("verify", "psl2:29", "--suite", "chain", "--trials", "1"),
            ("verify", "psl2:29", "--suite", "gamma", "--trials", "1"),
            ("verify", "alt:8", "--suite", "gamma", "--trials", "1"),
            ("verify", "sym:8", "--trials", "1"),
        ],
    )
    def test_group_without_table_refused_before_chartab(self, capsys, monkeypatch, argv):
        import qmix.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("the character table was computed")

        monkeypatch.setattr(cli_module, "compute_character_table", never)
        n = build_group(argv[1]).n
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert re.search(rf"^error: \w+ on n={n} needs about \S+ table gathers", err, re.M)

    def test_verify_all_fills_the_table_once(self, capsys, monkeypatch):
        # The chain and gamma read one table: the first read fills it from
        # the walk, and every later read, in every trial, finds it kept.
        fills = []
        fill = GroupTable.mul.fget

        def counted(G):
            if G.table is None:
                fills.append(G.n)
            return fill(G)

        monkeypatch.setattr(GroupTable, "mul", property(counted))
        code, out, err = run(capsys, "verify", "sl2:7", "--suite", "all", "--trials", "2")
        assert code == 0 and err == ""
        assert "lemma_id=chain" in out and "lemma_id=gamma" in out
        assert fills == [336]

    def test_o_n2_suite_runs_on_a_group_without_table(self, capsys):
        code, out, err = run(
            capsys, "verify", "sl2:23", "--suite", "derivative", "--trials", "1",
            "--format", "json",
        )
        assert code == 0 and err == ""
        (row,) = parse_json(out)
        assert row["lemma_id"] == "derivative" and row["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("mix", "sl2:5"),
            ("mix", "sl2:5", "--random", "1.5"),
            ("mix", "sl2:5", "--random", "nan"),
            ("search", "sl2:5", "--budget", "-1"),
            ("search", "sl2:5", "--restarts", "0"),
        ],
    )
    def test_bad_mix_and_search_options_are_refused_before_the_group(
        self, capsys, monkeypatch, argv
    ):
        def unreachable(spec):
            raise AssertionError(f"build_group({spec!r}) ran for a refused command")

        monkeypatch.setattr(cli, "build_group", unreachable)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, k",
        [
            (("mix", "cyclic:1000", "--random", "0.5", "--trials", "1"), 1000),
            (("search", "dihedral:600", "--budget", "0", "--restarts", "1"), 303),
            (("mix", "prod:sl2:5+cyclic:50", "--random", "0.5", "--trials", "1"), 450),
        ],
    )
    def test_mix_and_search_refuse_groups_above_the_class_cap(self, capsys, argv, k):
        # Both read D from the character table, so the class cap binds
        # below the order cap.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{k} classes exceeds the {MAX_CLASSES} cap" in err

    def test_mix_peaks_below_the_table_it_no_longer_builds(self, capsys):
        # The n x n int32 table of sl2:13 alone takes 4n^2 bytes (19 MB);
        # mix streams its rows and builds none.
        n = build_group("sl2:13").n
        tracemalloc.start()
        try:
            code = main(["mix", "sl2:13", "--random", "0.5", "--trials", "10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out.count("passed=True") == 10
        assert peak < 2 * n * n

    def test_mix_sets_above_the_cap_matches_a_compose_recount(self, capsys):
        G = build_group("sl2:23")
        rng = np.random.default_rng(23)
        sets = [np.sort(rng.choice(G.n, 50, replace=False))]
        sets += [np.flatnonzero(rng.random(G.n) < 0.5) for _ in range(2)]
        argv = ["mix", "sl2:23", "--sets", json.dumps([a.tolist() for a in sets])]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        (row,) = parse_json(out)
        assert row["sizes"] == [len(a) for a in sets]
        assert_theta_matches_a_compose_recount(G, row, sets)
        assert G.table is None

    def test_search_above_the_cap_matches_a_compose_recount(self, capsys):
        G = build_group("sl2:23")
        argv = ["search", "sl2:23", "--budget", "200000", "--restarts", "1"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        row = parse_json(out)
        sets = [np.asarray(row["sets"][key]) for key in ("A1", "A2", "A3")]
        assert row["sizes"] == [len(a) for a in sets]
        assert_theta_matches_a_compose_recount(G, row, sets)
        assert G.table is None

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("group", "cyclic:5", "--seed", "1"),
            ("group", "cyclic:5", "--tol", "1"),
            ("mix", "cyclic:5", "--sets", "[[0],[0],[0]]", "--tol", "5"),
            ("search", "sym:3", "--budget", "0", "--tol", "5"),
            ("chartab", "psl2:7", "--tol", "1e-8"),
        ],
    )
    def test_options_a_command_ignores_are_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "psl2:7", "--suite", "fcmu"),
            ("verify", "alt:5", "--suite", "parseval", "--trials", "1"),
        ],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert f"argument --tol: must be a finite number > 0, got '{tol}'" in err

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("chartab", "psl2:7"),
            ("verify", "alt:5", "--suite", "parseval", "--trials", "1"),
            ("mix", "sym:3", "--random", "0.5", "--trials", "1"),
            ("search", "sym:3", "--budget", "0"),
        ],
    )
    def test_seed_must_be_a_nonnegative_integer(self, capsys, argv, seed):
        code, out, err = run(capsys, *argv, f"--seed={seed}")
        assert code == 2
        assert out == ""
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in err

    def test_search_has_no_csv_format(self, capsys):
        code, out, err = run(
            capsys, "search", "sym:3", "--budget", "0", "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert "invalid choice: 'csv'" in err

    def test_chartab_accepts_a_seed_that_changes_nothing(self, capsys):
        # perfbench/run.py passes --seed to every command; the exact table
        # draws nothing, so the output is the same bytes.
        outputs = [
            run(capsys, "chartab", "psl2:7", "--format", "json", *extra)
            for extra in ((), ("--seed", "0"), ("--seed", "987654"))
        ]
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[1:] == outputs[:1] * 2

    def test_text_output_rounds_to_six_digits(self, capsys):
        _, out, _ = run(capsys, "chartab", "psl2:7")
        assert "zeta1=1.10119" in out

    def test_json_output_keeps_full_precision(self, capsys):
        _, out, _ = run(capsys, "chartab", "psl2:7", "--format", "json")
        payload = parse_json(out)
        assert abs(payload["zeta1"] - 1.1011904761904763) < 1e-15

    def test_out_flag_writes_file(self, capsys, tmp_path):
        # --out moves the report stdout would show into the file, unchanged.
        paths = [tmp_path / name for name in ("rows.json", "group.txt", "group.json")]
        for path, argv in zip(paths, [
            ("verify", "alt:5", "--suite", "parseval", "--trials", "2", "--format", "json"),
            ("group", "sl2:7"),
            ("group", "sl2:7", "--format", "json"),
        ]):
            code, shown, _ = run(capsys, *argv)
            assert code == 0
            code, out, _ = run(capsys, *argv, "--out", str(path))
            assert code == 0
            assert out == ""
            assert path.read_text() == shown, argv
        assert len(parse_json(paths[0].read_text())) == 2
        assert paths[1].read_text().startswith("group=sl2:7 n=336 ")
        assert parse_json(paths[2].read_text())["n"] == 336


# sha256 of stdout, taken from the CLI before the packed progression pass,
# the row-filled table and the trimmed word walk; the two multi-restart
# searches from the CLI before the packed sensitivity tables.  Each run is
# exact (integer counts, seeded draws), so any drift in theta or the search
# sets shows here.  The two verify runs, taken before the class convolution
# became one body, cover the O(n^3) suites: exhaustive gamma and the chain
# on sl2:7, sampled gamma on psl2:13.  Their text rounds to 6 digits, so a
# reordered sum keeps them and a wrong one does not.  The sl2:7 digest was
# taken again when the character table became exact: only its fcmu and
# parseval residues moved, each row still passing.  It was taken again when
# the row correlation stopped reading the table and real functions stopped
# being summed in complex128: only the two parseval residues moved, from 0
# to 1.11022e-16, each row still passing.
GOLDEN_STDOUT = [
    (
        ("mix", "sl2:13", "--random", "0.5", "--trials", "10", "--format", "json"),
        "49a42330af20649a653c778618c51f6bc14bc50679e9628940345aa5697d4f0b",
    ),
    (
        ("mix", "psl2:7", "--random", "0.3", "--trials", "300", "--format", "json"),
        "b6229d2dfa273950c31e52f925851b023fec1801f94298940fdfe799df76328d",
    ),
    (
        ("search", "psl2:13", "--budget", "100000", "--restarts", "1", "--format", "json"),
        "7327d26f24ce5451f6c40fb6e37b02e7dbfc6f69c16878a1e57b15d9f0ff8ef1",
    ),
    (
        ("search", "sym:4", "--budget", "300", "--restarts", "2", "--seed", "5"),
        "54a307b0ba98bd268d840adfd9da9a12dbee87b35a67c38c8644a52539d9cc53",
    ),
    (
        ("search", "psl2:7", "--budget", "5000", "--restarts", "5", "--format", "json"),
        "6f60b78f02ce18d6a666f0eb51759443372027c1aeffcfb8d792f1d2933d5dbd",
    ),
    (
        ("verify", "sl2:7", "--suite", "all", "--trials", "2"),
        "c03e8ab612759a97feff0ab5388b31a830d849623e47668257f7f15183b12f28",
    ),
    (
        ("verify", "psl2:11", "--suite", "gamma", "--trials", "1"),
        "912bae28a540129543fcaf35f2de2ec0ead8fc900aae83481c014c0b98aa58af",
    ),
]


def test_chartab_and_group_load_neither_numpy_random_nor_openssl():
    # Modules that a bare `import numpy` already loads (numpy 1.x imports
    # numpy.random, and with it hashlib) are not counted against qmix.
    code = textwrap.dedent("""
        import sys
        import numpy
        before = set(sys.modules)
        from qmix.cli import main
        assert main(["chartab", "sl2:7", "--format", "json"]) == 0
        assert main(["group", "sl2:7"]) == 0
        loaded = set(sys.modules) - before
        print(sorted({"numpy.random", "hashlib", "_hashlib"} & loaded))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(qmix.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_verify_hash_holds_with_hashlib_imported_late(capsys):
    # _hash_functions imports hashlib at its first call; the row hash is
    # the same sha256 prefix as before.
    code, out, _ = run(capsys, "verify", "alt:5", "--suite", "bnp", "--trials", "1",
                       "--format", "json")
    assert code == 0
    assert parse_json(out)[0]["hash"] == "41397cee42441de9"


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_STDOUT, ids=["-".join(argv[:2]) for argv, _ in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_rows_stream_in_the_bytes_of_one_rendering(capsys, fmt):
    # verify and mix write each row as it comes; the output must equal the
    # whole list rendered at once, as both commands printed it before.
    columns = ["trial", "lhs", "rhs", "passed"]
    rows = [
        {"trial": 0, "lhs": 0.25, "rhs": math.inf, "passed": True, "values": {"c1": 1e-3}},
        {"trial": 1, "lhs": 1 / 3, "rhs": 0.5, "passed": False, "sizes": [1, 2, 3]},
        {"trial": 2, "lhs": None, "rhs": 0.5, "passed": True, "mode": "exhaustive"},
    ]
    if fmt == "json":
        want = json.dumps([cli._json_row(r) for r in rows], indent=2)
    elif fmt == "csv":
        lines = (",".join(cli._fmt(r.get(c)) for c in columns) for r in rows)
        want = "\n".join([",".join(columns), *lines])
    else:
        want = "\n".join(" ".join(f"{c}={cli._fmt(r.get(c))}" for c in columns) for r in rows)
    failed = cli._write_rows(iter(rows), columns, fmt, None)
    assert capsys.readouterr().out == want + "\n"
    assert failed == [rows[1]]


def test_rows_written_before_a_raise_stay(capsys, tmp_path):
    def rows(count):
        for trial in range(count):
            yield {"trial": trial, "passed": True}
        raise RuntimeError("mid-run")

    with pytest.raises(RuntimeError):
        cli._write_rows(rows(2), ["trial"], "text", None)
    assert capsys.readouterr().out == "trial=0\ntrial=1"
    path = tmp_path / "rows.json"
    with pytest.raises(RuntimeError):
        cli._write_rows(rows(1), ["trial"], "json", str(path))
    assert path.read_text() == '[\n  {\n    "trial": 0,\n    "passed": true\n  }'
    # A raise before the first row writes nothing and creates no file.
    path.unlink()
    with pytest.raises(RuntimeError):
        cli._write_rows(rows(0), ["trial"], "json", str(path))
    assert capsys.readouterr().out == ""
    assert not path.exists()


def test_verify_draws_stream_one_ensemble_in_blocks(monkeypatch):
    # The verify suites draw their functions through cli._draws: the same
    # functions as one random_ensemble call, asked for one at a time and
    # only as they are consumed.
    G = build_group("psl2:7")
    count = 2 * CHUNK + 88
    whole = random_ensemble(G, "unimodular", (42, 105), count)
    asked = []

    def spy(G, kind, rng, k):
        asked.append(k)
        return random_ensemble(G, kind, rng, k)

    monkeypatch.setattr(cli, "random_ensemble", spy)
    fns = cli._draws(G, "unimodular", (42, 105), count)
    first = next(fns)
    assert asked == [1]
    streamed = [first, *fns]
    assert asked == [1] * count
    assert len(streamed) == count
    assert all(np.array_equal(f.values, g.values) for f, g in zip(streamed, whole))


def test_verify_draws_hold_only_the_functions_read():
    # Three functions of a 2 * CHUNK stream: each complex128 function is
    # 16n bytes, and a draw adds a few n-sized temporaries.
    G = build_group("cyclic:8000")
    tracemalloc.start()
    try:
        fns = cli._draws(G, "unimodular", (42, 105), 2 * CHUNK)
        held = [next(fns) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 3
    assert peak < 16 * 16 * G.n


@pytest.mark.parametrize("kind", ["rademacher", "unimodular", "indicator:0.5",
                                  "mean_zero_rademacher"])
def test_hash_reads_the_complex128_conversion(kind):
    # Each kind is held as itself (int64, complex128, bool, float64), and a
    # row's hash is the digest of the complex128 values held before, so
    # every hash printed by verify stays.
    G = build_group("psl2:7")
    fns = random_ensemble(G, kind, 97, 2)
    want = hashlib.sha256()
    for f in fns:
        want.update(f.values.astype(np.complex128).tobytes())
    assert cli._hash_functions(*fns) == want.hexdigest()[:16]


def test_mix_block_holds_3n_bytes_per_triple():
    # One block of mix --random: CHUNK bool triples, 3n bytes each, drawn
    # as cmd_mix draws them, and their packed pass, whose buffers are the
    # row block and three word buffers of about CHUNK^2 entries (8 bytes
    # each) plus per-element terms: the packed words, the squares and the
    # walk's lists.  Held as complex128 the triples alone took 48n bytes.
    G = build_group("sl2:13")
    T = compute_character_table(G, conjugacy_classes(G))
    n = G.n
    mixing.count_progressions([0], [0], [0], G)  # the walk plan, kept on G
    tracemalloc.start()
    try:
        roles = [cli._draws(G, "indicator:0.5", (42, 11 + r), CHUNK) for r in range(3)]
        streams = [list(itertools.islice(fns, CHUNK)) for fns in roles]
        reports = theta_defects(*streams, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == CHUNK
    assert all(f.values.dtype == np.bool_ for F in streams for f in F)
    assert peak < 3 * n * CHUNK + 64 * CHUNK**2 + 256 * n
