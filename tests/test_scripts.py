import csv
import importlib.util
import json
from pathlib import Path

import pytest

from qmix import (
    adversarial_search,
    build_group,
    compute_character_table,
    conjugacy_classes,
    random_ensemble,
    theta_defects,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_of(text: str):
    G = build_group(text)
    return G, compute_character_table(G, conjugacy_classes(G))


def test_decay_curve_writes_the_thetas_of_its_seeds(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    argv = ["--specs", "sl2:5", "--trials", "6", "--seed", "3", "--out", str(out)]
    assert load_script("decay_curve").main(argv) == 0
    assert "sl2:5" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    G, T = table_of("sl2:5")
    streams = [random_ensemble(G, "indicator:0.5", (3, G.n, role), 6) for role in range(3)]
    want = [rep.theta for rep in theta_defects(*streams, T)]
    assert [float(r["theta"]) for r in rows] == want
    assert [int(r["trial"]) for r in rows] == list(range(6))
    assert {(r["group"], r["n"], r["D"]) for r in rows} == {("sl2:5", "120", "2")}


def test_search_extremes_writes_the_thetas_of_its_seeds(tmp_path, capsys):
    out = tmp_path / "search.json"
    argv = ["--specs", "psl2:5", "--budget", "2000", "--restarts", "3", "--seed", "3"]
    argv += ["--out", str(out)]
    assert load_script("search_extremes").main(argv) == 0
    assert "psl2:5" in capsys.readouterr().out
    (row,) = json.loads(out.read_text())
    G, T = table_of("psl2:5")
    A1, A2, A3, rep = adversarial_search(G, T, budget=2000, restarts=3, seed=3)
    streams = [random_ensemble(G, "indicator:0.5", (3, 77, role), 20) for role in range(3)]
    baseline = max(r.theta for r in theta_defects(*streams, T))
    assert row["best_theta"] == rep.theta
    assert row["baseline_max_theta"] == baseline
    assert row["sizes"] == [len(A1), len(A2), len(A3)]
    assert row["improvement_over_random"] == pytest.approx(rep.theta / baseline)
