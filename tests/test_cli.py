import json
import math

import numpy as np
import pytest

from qmix import LemmaReport, read_group
from qmix.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_out_writes_binary(self, capsys, tmp_path):
        path = tmp_path / "g.qmg"
        code, _, _ = run(capsys, "group", "sl2:7", "--out", str(path))
        assert code == 0
        assert path.read_bytes()[:4] == b"QMG1"
        assert read_group(path).n == 336

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "group", "cyclic:6", "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info == {"group": "cyclic:6", "n": 6, "abelian": True, "classes": 6}


class TestChartabCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "chartab", "alt:5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["degrees"] == [1, 3, 3, 4, 5]
        assert report["D"] == 3

    def test_abelian_flagged(self, capsys):
        code, out, _ = run(capsys, "chartab", "cyclic:8")
        assert code == 0
        assert "not quasirandom" in out

    def test_zeta_value(self, capsys):
        code, out, _ = run(capsys, "chartab", "psl2:7", "--format", "json")
        payload = json.loads(out)
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
        budget = ("--budget", "300") if suite == "gamma" else ()
        trials = () if suite == "fcmu" else ("--trials", "3")
        code, out, _ = run(capsys, "verify", "alt:5", "--suite", suite, *trials, *budget)
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
        for row in json.loads(out):
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
            "--trials", "2", "--budget", "200", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        lemmas = {row["lemma_id"] for row in rows}
        assert lemmas == {"bnp", "derivative", "gamma", "fcmu", "parseval", "chain"}
        assert all(row["passed"] for row in rows)
        assert all(row["group"] == "psl2:5" for row in rows)
        assert all((row["hash"] is None) == (row["lemma_id"] == "fcmu") for row in rows)

    def test_rows_ordered_by_trial(self, capsys):
        code, out, _ = run(
            capsys, "verify", "alt:5", "--suite", "bnp",
            "--trials", "5", "--format", "json",
        )
        rows = json.loads(out)
        assert [r["trial"] for r in rows] == list(range(5))

    def test_failure_prints_witness_and_exits_1(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def broken(f1, f2, T, tol=1e-9):
            return LemmaReport(
                lemma_id="bnp", lhs_value=2.0, rhs_bound=1.0,
                mode="exhaustive", passed=False, margin=-1.0,
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
        # The replay leaves out --budget, which bnp would refuse.
        replay = err.split("replay: qmix ")[1].splitlines()[0].split()
        assert "--budget" not in replay
        assert run(capsys, *replay) == (code, out, err)

        # A sampled gamma failure replays with the same draws and the full tol.
        def broken_gamma(f, T, C, *, budget, seed, tol):
            return LemmaReport(
                lemma_id="gamma", lhs_value=2.0, rhs_bound=1.0,
                mode=f"sampled(m={budget},seed={seed})", passed=False, margin=-1.0,
                stderr_estimate=0.0, sample_count=budget, sample_seed=seed,
            )

        monkeypatch.setattr(cli_module, "gamma_functional", broken_gamma)
        argv = (
            "verify", "alt:5", "--suite", "gamma", "--trials", "1",
            "--seed", "7", "--tol", "1.2345678e-09", "--budget", "500",
        )
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "mode=sampled(m=500,seed=7000021)" in out
        assert "FAIL lemma=gamma" in err
        replay = err.split("replay: qmix ")[1].split()
        assert replay == list(argv)
        assert run(capsys, *replay) == (code, out, err)

    def test_fcmu_refuses_trials(self, capsys):
        code, out, err = run(capsys, "verify", "alt:5", "--suite", "fcmu", "--trials", "50")
        assert code == 2
        assert out == ""
        assert "--trials does not apply to --suite fcmu" in err

    def test_fcmu_failure_replays_without_trials(self, capsys, monkeypatch):
        import qmix.cli as cli_module

        def broken(T, C, tol):
            return LemmaReport(
                lemma_id="fcmu", lhs_value=2.0, rhs_bound=tol,
                mode="exhaustive", passed=False, margin=tol - 2.0,
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
        code, out, err = run(
            capsys, "verify", "psl2:13", "--suite", "gamma", "--trials", "1",
            "--budget", "1000000000000",
        )
        assert code == 2
        assert out == ""
        assert "gamma on n=1092" in err

    @pytest.mark.parametrize("spec", ["sl2:7", "psl2:13"])
    def test_budget_below_two_columns_refused(self, capsys, spec):
        # sl2:7 runs gamma exhaustively and psl2:13 samples; both refuse.
        code, out, err = run(
            capsys, "verify", spec, "--suite", "gamma", "--trials", "1", "--budget", "1"
        )
        assert code == 2
        assert out == ""
        assert "at least 2 columns" in err

    @pytest.mark.parametrize("budget", ["1", "32"])
    def test_budget_refused_unless_gamma_runs(self, capsys, budget):
        code, out, err = run(
            capsys, "verify", "alt:5", "--suite", "bnp", "--trials", "1",
            "--budget", budget,
        )
        assert code == 2
        assert out == ""
        assert "--budget applies only to --suite gamma or all" in err

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
        rows = json.loads(out)
        assert len(rows) == 5
        bound = (2 / math.sqrt(2)) ** 0.25
        for row in rows:
            assert row["theta"] <= bound + 1e-9
            assert row["passed"]

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

    def test_json_sets_are_valid_indices(self, capsys):
        code, out, _ = run(
            capsys, "search", "sym:4", "--budget", "200", "--restarts", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("A1", "A2", "A3"):
            indices = payload["sets"][key]
            assert all(0 <= i < 24 for i in indices)
            assert len(set(indices)) == len(indices)


class TestHarness:
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
        ],
    )
    def test_options_a_command_ignores_are_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("chartab", "psl2:7"),
            ("verify", "alt:5", "--suite", "parseval", "--trials", "1"),
        ],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err

    def test_search_has_no_csv_format(self, capsys):
        code, out, err = run(
            capsys, "search", "sym:3", "--budget", "0", "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert "invalid choice: 'csv'" in err

    def test_text_output_rounds_to_six_digits(self, capsys):
        _, out, _ = run(capsys, "chartab", "psl2:7")
        assert "zeta1=1.10119" in out

    def test_json_output_keeps_full_precision(self, capsys):
        _, out, _ = run(capsys, "chartab", "psl2:7", "--format", "json")
        payload = json.loads(out)
        assert abs(payload["zeta1"] - 1.1011904761904763) < 1e-15

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        code, out, _ = run(
            capsys, "verify", "alt:5", "--suite", "parseval",
            "--trials", "2", "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(path.read_text())) == 2
