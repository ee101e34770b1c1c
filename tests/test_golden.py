"""Byte-for-byte golden outputs of the CLI.

The files under ``tests/golden/`` were written by the CLI itself; these tests
pin its eval CSV, ``estimate --verify`` JSON and ``gen`` stream so that a
refactor which changes any byte of them fails here, not only when two runs of
the same code are compared with each other.
"""

from pathlib import Path

import pytest

from wmstream.cli import main

GOLDEN = Path(__file__).parent / "golden"

GRID_GEN_ARGS = ["gen", "--family", "grid", "--rows", "4", "--cols", "4",
                 "--weights", "uniform-int", "--wmax", "64", "--order", "shuffled",
                 "--seed", "7"]


def test_golden_eval_csv(tmp_path):
    out = tmp_path / "suite.csv"
    assert main(["eval", "--suite", str(GOLDEN / "suite.txt"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "suite.csv").read_bytes()


def test_golden_gen_stream(tmp_path):
    out = tmp_path / "grid.stream"
    assert main(GRID_GEN_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "grid4x4.stream").read_bytes()


@pytest.mark.parametrize("estimator", ["greedy", "exact"])
def test_golden_estimate_verify_json(tmp_path, estimator):
    out = tmp_path / "report.json"
    code = main(["estimate", "--stream", str(GOLDEN / "grid4x4.stream"),
                 "--epsilon", "0.1", "--estimator", estimator, "--verify",
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"estimate_{estimator}.json").read_bytes()


# Streams that fill many levels: a 1999-edge Erdos-Renyi graph with Pareto
# float weights (greedy, eps 0.1: 73 of 74 levels non-empty) and a churned
# 4x4 grid at the 24-edge oracle cap (exact, eps 0.5, with --verify). Made by
#   gen --family erdos-renyi --n 200 --p 0.1 --weights powerlaw --alpha 1.0
#       --wmax 1024 --order shuffled --seed 11
#   gen --family grid --rows 4 --cols 4 --weights uniform-int --wmax 64
#       --order shuffled --churn 0.5 --seed 5
CORPUS_GEN_ARGS = [
    ("er200_powerlaw.stream",
     ["gen", "--family", "erdos-renyi", "--n", "200", "--p", "0.1", "--weights", "powerlaw",
      "--alpha", "1.0", "--wmax", "1024", "--order", "shuffled", "--seed", "11"]),
    ("grid4x4_churn.stream",
     ["gen", "--family", "grid", "--rows", "4", "--cols", "4", "--weights", "uniform-int",
      "--wmax", "64", "--order", "shuffled", "--churn", "0.5", "--seed", "5"]),
]
LARGE_ESTIMATES = [
    ("er200_powerlaw.stream", "greedy", "0.1", [], "estimate_greedy_er200.json"),
    ("grid4x4_churn.stream", "exact", "0.5", ["--verify"], "estimate_exact_churn.json"),
]


@pytest.mark.parametrize("stream,estimator,epsilon,extra,golden", LARGE_ESTIMATES)
def test_golden_estimate_json_on_many_levels(tmp_path, stream, estimator, epsilon, extra, golden):
    out = tmp_path / "report.json"
    code = main(["estimate", "--stream", str(GOLDEN / stream), "--epsilon", epsilon,
                 "--estimator", estimator, *extra, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("stream,args", CORPUS_GEN_ARGS)
def test_golden_gen_regenerates_the_corpus_streams(tmp_path, stream, args):
    out = tmp_path / stream
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / stream).read_bytes()
