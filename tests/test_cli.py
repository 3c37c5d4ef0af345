import hashlib
import json
import math

import numpy as np
import pytest

from qmix import (
    LemmaReport,
    build_group,
    compute_character_table,
    conjugacy_classes,
    random_ensemble,
    theta_defects,
)
from qmix import cli
from qmix.cli import main
from qmix.fourier import CHUNK


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
            "--trials", "2", "--budget", "200", "--format", "json",
        )
        assert code == 0
        rows = parse_json(out)
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
        rows = parse_json(out)
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
                stderr_estimate=0.0,
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
        counts = []

        def counted(G, kind, seed, count):
            counts.append(count)
            return random_ensemble(G, kind, seed, count)

        monkeypatch.setattr(cli_module, "random_ensemble", counted)
        code, out, _ = run(
            capsys, "mix", "sym:3", "--random", "0.5", "--trials", str(trials),
            "--seed", "42", "--format", "json",
        )
        assert code == 0
        assert [row["theta"] for row in parse_json(out)] == expected
        assert [row["trial"] for row in parse_json(out)] == list(range(trials))
        assert counts == [CHUNK] * 3 + [3] * 3

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
    @pytest.mark.parametrize(
        "argv",
        [
            *(("verify", "sl2:23", "--suite", s, "--trials", "1")
              for s in ("bnp", "derivative", "parseval", "chain")),
            ("verify", "sl2:23", "--suite", "fcmu"),
            ("verify", "sl2:23", "--suite", "gamma", "--trials", "1", "--budget", "2"),
            ("verify", "sl2:23", "--trials", "1"),
            ("mix", "sl2:23", "--random", "0.5", "--trials", "1"),
            ("mix", "sl2:23", "--sets", "[[0],[1],[2]]"),
            ("search", "sl2:23"),
        ],
    )
    def test_group_without_table_refused_before_chartab(self, capsys, monkeypatch, argv):
        import qmix.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("the character table was computed")

        monkeypatch.setattr(cli_module, "compute_character_table", never)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "needs the dense multiplication table" in err
        assert "n=12144" in err

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
# sets shows here.
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
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_STDOUT, ids=["-".join(argv[:2]) for argv, _ in GOLDEN_STDOUT]
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_draws_stream_one_ensemble_in_blocks(monkeypatch):
    # The verify suites draw their functions through cli._draws: the same
    # functions as one random_ensemble call, asked for at most CHUNK at a
    # time and only as they are consumed.
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
    assert asked == [CHUNK]
    streamed = [first, *fns]
    assert asked == [CHUNK, CHUNK, 88]
    assert len(streamed) == count
    assert all(np.array_equal(f.values, g.values) for f, g in zip(streamed, whole))
