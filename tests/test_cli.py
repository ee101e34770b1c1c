import concurrent.futures
import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import wmstream
from wmstream import (CapacityError, GenConfig, ParseError, generate, make_estimator, parse_stream,
                      serialize)
from wmstream import cli, generators, reduction
from wmstream.cli import main, parse_suite, render_suite_csv, run_suite_row

TWO_EDGE_STREAM = "n 4 wmax 4 model insert-only\n+ 1 2 1\n+ 3 4 4\n"


@pytest.fixture
def two_edge_file(tmp_path):
    path = tmp_path / "two.stream"
    path.write_text(TWO_EDGE_STREAM)
    return str(path)


def test_estimate_two_edge_trace(two_edge_file, capsys):
    code = main(["estimate", "--stream", two_edge_file, "--epsilon", "1",
                 "--estimator", "exact"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == 4.0
    assert payload["T"] == 2


def test_estimate_empty_body(tmp_path, capsys):
    path = tmp_path / "empty.stream"
    path.write_text("n 3 wmax 2 model insert-only\n")
    code = main(["estimate", "--stream", str(path), "--epsilon", "0.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["estimate"] == 0.0


def test_estimate_verify_appends_oracle(two_edge_file, capsys):
    code = main(["estimate", "--stream", two_edge_file, "--epsilon", "1",
                 "--estimator", "exact", "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_mwm"] == 5.0
    assert payload["sandwich_ok"] is True


def test_estimate_greedy_on_dynamic_is_capability_error(tmp_path, capsys):
    path = tmp_path / "dyn.stream"
    path.write_text("n 2 wmax 1 model dynamic\n+ 1 2 1\n- 1 2 1\n")
    code = main(["estimate", "--stream", str(path), "--epsilon", "0.5",
                 "--estimator", "greedy"])
    assert code == 3


def test_estimate_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.stream"
    path.write_text("n 2 wmax 1 model insert-only\n- 1 2 1\n")
    assert main(["estimate", "--stream", str(path), "--epsilon", "0.5"]) == 2


def test_estimate_missing_file_exit_code(tmp_path):
    assert main(["estimate", "--stream", str(tmp_path / "nope"),
                 "--epsilon", "0.5"]) == 1


def test_estimate_writes_output_file(two_edge_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["estimate", "--stream", two_edge_file, "--epsilon", "1",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["estimate"] == 4.0


def test_oracle_modes(tmp_path, capsys):
    path = tmp_path / "adj.stream"
    path.write_text("n 3 wmax 5 model insert-only\n+ 1 2 3\n+ 2 3 5\n")
    assert main(["oracle", "--stream", str(path), "--mode", "mwm"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 5.0

    tri = tmp_path / "tri.stream"
    tri.write_text("n 3 wmax 1 model insert-only\n+ 1 2 1\n+ 2 3 1\n+ 1 3 1\n")
    assert main(["oracle", "--stream", str(tri), "--mode", "mcm"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1

    k4 = tmp_path / "k4.stream"
    lines = ["n 4 wmax 1 model insert-only"]
    lines += [f"+ {u} {v} 1" for u in range(1, 5) for v in range(u + 1, 5)]
    k4.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:  # argparse refuses the choice
        main(["oracle", "--stream", str(k4), "--mode", "arboricity"])
    assert exc.value.code == 2
    assert "invalid choice: 'arboricity'" in capsys.readouterr().err


@pytest.mark.parametrize("wmax,epsilon", [("4", "1e-7"), ("4", "1e-17"), ("1e308", "0.001")])
def test_estimate_refuses_a_schedule_over_max_levels(tmp_path, capsys, wmax, epsilon):
    path = tmp_path / "one.stream"
    path.write_text(f"n 2 wmax {wmax} model insert-only\n+ 1 2 3\n")
    assert main(["estimate", "--stream", str(path), "--epsilon", epsilon]) == 4
    err = capsys.readouterr().err
    assert err.startswith("wmstream: ") and err.endswith("levels\n") and err.count("\n") == 1


@pytest.mark.parametrize("command,edges,message", [
    (["estimate", "--epsilon", "1"], "+ 1 2 1e308\n",
     "epsilon 1.0 and wmax 1e+308 overflow the top threshold"),
    (["estimate", "--epsilon", "0.1", "--verify"], "+ 1 2 1e308\n+ 3 4 1e308\n",
     "the estimate is past the float range"),
    (["oracle", "--mode", "mwm"], "+ 1 2 1e308\n+ 3 4 1e308\n",
     "the matching weight is past the float range"),
])
def test_a_value_past_the_float_range_exits_4_and_writes_no_json(tmp_path, capsys, command,
                                                                   edges, message):
    # JSON has no spelling for inf or nan: json.dumps would write Infinity or NaN
    path = tmp_path / "heavy.stream"
    path.write_text(f"n 4 wmax 1e308 model insert-only\n{edges}")
    assert main([*command, "--stream", str(path)]) == 4
    assert capsys.readouterr() == ("", f"wmstream: {message}\n")


def test_estimate_at_wmax_2_to_the_1023_builds_1023_levels(tmp_path, capsys):
    # the threshold products reach 2**1023 at level 1023; no level past it
    # is needed, so the schedule does not overflow
    top = repr(2.0**1023)
    assert top == "8.98846567431158e+307"
    path = tmp_path / "top.stream"
    path.write_text(f"n 2 wmax {top} model insert-only\n+ 1 2 {top}\n")
    assert main(["estimate", "--stream", str(path), "--epsilon", "1", "--verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"] == 1023
    assert payload["levels"][0]["threshold"] == 2.0**1023
    assert payload["estimate"] == payload["oracle_mwm"] == 2.0**1023
    assert payload["sandwich_ok"] is True


def test_oracle_capacity_exit_code(tmp_path):
    lines = ["n 26 wmax 1 model insert-only"]
    lines += [f"+ 1 {i} 1" for i in range(2, 27)]
    path = tmp_path / "big.stream"
    path.write_text("\n".join(lines) + "\n")
    assert main(["oracle", "--stream", str(path), "--mode", "mwm"]) == 4


@pytest.mark.parametrize("n", [2**62, 2**64])
def test_greedy_on_a_vertex_count_it_cannot_allocate_exits_4(tmp_path, n):
    # both sizes fail in the list allocation's size check, before any memory is taken
    with pytest.raises(CapacityError):
        make_estimator("greedy", n, 0.05, "insert-only")
    path = tmp_path / "huge.stream"
    path.write_text(f"n {n} wmax 4 model insert-only\n+ 1 2 1\n")
    assert main(["estimate", "--stream", str(path), "--epsilon", "1",
                 "--estimator", "greedy"]) == 4


def test_gen_writes_parseable_stream(tmp_path, capsys):
    out = tmp_path / "gen.stream"
    code = main(["gen", "--family", "grid", "--rows", "3", "--cols", "3",
                 "--weights", "constant", "--seed", "1", "--out", str(out)])
    assert code == 0
    from wmstream import parse_stream

    header, updates = parse_stream(out.read_text())
    assert header.n == 9
    assert len(updates) == 12


def test_gen_deterministic_per_seed(tmp_path):
    args = ["gen", "--family", "forest-union", "--n", "8", "--nu", "2",
            "--wmax", "16", "--order", "shuffled", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SUITE = """\
# a small suite
family=forest-union
n=8
nu=2
wmax=16
order=shuffled
epsilon=0.5
estimator=exact
seed=3
reps=3

family=grid
rows=2
cols=3
wmax=8
epsilon=1.0
estimator=greedy
seed=1
reps=2
"""


def test_parse_suite_expands_reps():
    rows = parse_suite(SUITE)
    assert len(rows) == 5
    assert [r.config.seed for r in rows[:3]] == [3, 4, 5]
    assert rows[3].estimator == "greedy"


def test_gen_flags_and_suite_keys_build_the_same_config(tmp_path):
    values = {"family": "erdos-renyi", "n": "9", "rows": "2", "cols": "3",
              "nu": "3", "p": "0.45", "weights": "powerlaw", "wmax": "50",
              "alpha": "1.5", "order": "light-first", "churn": "0.25",
              "seed": "17"}
    out = tmp_path / "gen.stream"
    argv = ["gen"] + [x for k, v in values.items() for x in (f"--{k}", v)]
    assert main(argv + ["--out", str(out)]) == 0
    block = "".join(f"{k}={v}\n" for k, v in values.items()) + "estimator=exact\n"
    (row,) = parse_suite(block)
    assert out.read_bytes() == serialize(*generate(row.config)).encode()


def test_parse_suite_minimal_block_uses_genconfig_defaults():
    (row,) = parse_suite("family=grid\nestimator=greedy\n")
    assert row.config == GenConfig(family="grid")
    assert (row.epsilon, row.delta) == (0.5, 0.1)


def test_parse_suite_rejects_unknown_key():
    with pytest.raises(ParseError):
        parse_suite("family=grid\nestimator=exact\nbogus=1\n")


@pytest.mark.parametrize("key, value", [("reps", "x"), ("rows", "two"), ("epsilon", "abc")])
def test_eval_bad_suite_value_is_a_parse_error(tmp_path, capsys, key, value):
    suite = tmp_path / "suite.txt"
    suite.write_text(f"family=grid\nestimator=exact\n{key}={value}\n")
    assert main(["eval", "--suite", str(suite)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("reps", [0, -3])
def test_suite_reps_below_1_is_a_parse_error(tmp_path, capsys, reps):
    text = f"family=grid\nestimator=exact\nreps={reps}\n"
    with pytest.raises(ParseError, match="reps"):
        parse_suite(text)
    suite = tmp_path / "suite.txt"
    suite.write_text(text)
    assert main(["eval", "--suite", str(suite)]) == 2
    assert "reps" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_eval_jobs_below_1_is_a_parameter_error(tmp_path, capsys, jobs):
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out), "--jobs", jobs]) == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_input_is_a_parse_error(tmp_path):
    stream = tmp_path / "bad.stream"
    stream.write_bytes(b"n 2 wmax 1 model insert-only\n+ 1 2 \xff\n")
    suite = tmp_path / "suite.txt"
    suite.write_bytes(b"family=grid\nestimator=exact\n# \xff\n")
    assert main(["estimate", "--stream", str(stream), "--epsilon", "0.5"]) == 2
    assert main(["oracle", "--stream", str(stream), "--mode", "mwm"]) == 2
    assert main(["eval", "--suite", str(suite)]) == 2


def test_eval_suite_end_to_end(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(SUITE)
    out = tmp_path / "rows.csv"
    code = main(["eval", "--suite", str(suite), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("config,epsilon,estimator,lambda,estimate")
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 1 + 5
    assert any(line.startswith("# max_ratio") for line in lines)
    for line in data[1:]:
        assert ",ok" in line


def test_eval_empty_suite(tmp_path):
    suite = tmp_path / "empty.txt"
    suite.write_text("\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "config,epsilon,estimator,lambda,estimate,oracle_mwm,ratio,bound,"
        "lemma1_ok,obs_ok,lemma2_ok,total_words,status"
    ]


def test_eval_greedy_on_dynamic_row_errors(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "family=erdos-renyi\nn=6\np=0.4\nwmax=8\nchurn=0.5\n"
        "epsilon=0.5\nestimator=greedy\nseed=1\n"
    )
    out = tmp_path / "rows.csv"
    code = main(["eval", "--suite", str(suite), "--out", str(out)])
    assert code == 3
    assert "error:CapabilityError" in out.read_text()


def test_eval_marks_a_bad_generator_row_and_keeps_the_good_one(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\n\n"
                     "family=grid\nrows=2\ncols=2\nwmax=nan\nestimator=exact\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 2
    good, bad = csv.DictReader(line for line in out.read_text().splitlines()
                               if not line.startswith("#"))
    assert (good["status"], bad["status"]) == ("ok", "error:ParameterError")


def test_eval_marks_a_row_over_max_levels_and_runs_the_others(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\n\n"
                     "family=grid\nrows=2\ncols=2\nepsilon=1e-9\nestimator=exact\n\n"
                     "family=grid\nrows=2\ncols=2\nestimator=greedy\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 4
    rows = csv.DictReader(line for line in out.read_text().splitlines()
                          if not line.startswith("#"))
    assert [row["status"] for row in rows] == ["ok", "error:CapacityError", "ok"]
    assert capsys.readouterr().err.count("error:CapacityError") == 1


def test_eval_row_where_optimal_matching_misses_the_top_level_is_ok(tmp_path):
    # b = 1 on the levels that only the weight-62 edge reaches, while the
    # optimal weighted matching takes the edges of weight 51 and 43
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "family=forest-union\nn=6\nnu=1\nweights=uniform-int\nwmax=64\n"
        "order=shuffled\nepsilon=0.1\nestimator=exact\nseed=1606\n"
    )
    out = tmp_path / "rows.csv"
    code = main(["eval", "--suite", str(suite), "--out", str(out)])
    (row,) = csv.DictReader(line for line in out.read_text().splitlines()
                            if not line.startswith("#"))
    assert row["config"].endswith("seed=1606)")
    assert (row["lemma2_ok"], row["status"], code) == ("True", "ok", 0)


def test_eval_reproducible_byte_identical(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text(SUITE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(a)]) == 0
    assert main(["eval", "--suite", str(suite), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_parallel_matches_serial(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text(SUITE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(a)]) == 0
    assert main(["eval", "--suite", str(suite), "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_asks_the_pool_for_no_more_workers_than_rows(tmp_path, monkeypatch):
    asked = []

    class RecordingPool:  # stands in for the process pool, so no process starts
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows):
            return map(fn, rows)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\nreps=2\n")
    assert main(["eval", "--suite", str(suite), "--out", str(tmp_path / "rows.csv"),
                 "--jobs", "64"]) == 0
    assert asked in ([], [2])


def test_eval_rows_respect_guarantee_bound():
    rows = parse_suite(SUITE)
    for row in rows:
        result = run_suite_row(row)
        assert result["status"] == "ok"
        assert result["ratio"] <= result["bound"] * (1 + 1e-9)
        assert result["ratio"] >= 1 - 1e-9
    csv_text = render_suite_csv([run_suite_row(r) for r in rows])
    assert csv_text.count("\n") >= 6


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only eval --jobs > 1 needs the process pool; every other command skips
    # it. The records are NamedTuples, so dataclasses and the inspect module
    # it imports stay unloaded too.
    code = ("import sys, wmstream.cli; "
            "print([m for m in ('multiprocessing', 'dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(wmstream.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_eval_row_of_an_unknown_family_is_a_parameter_error(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("family=mystery\nn=5\nestimator=exact\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 2
    (row,) = csv.DictReader(line for line in out.read_text().splitlines()
                            if not line.startswith("#"))
    config = "mystery(n=5,nu=1,w=uniform-int:8.0,order=as-generated,churn=0.0,seed=0)"
    assert (row["config"], row["status"]) == (config, "error:ParameterError")
    assert capsys.readouterr().err == f"eval: {config}: error:ParameterError\n"


# --- refusals with their message and exit code -------------------------------

@pytest.mark.parametrize("text, message", [
    ("n 2 wmax 2 model insert-only\n+ 1 x 1\n", "line 2: bad update fields in '+ 1 x 1'"),
    ("# only a comment\n\n", "missing header line"),
    ("n two wmax 1 model insert-only\n",
     "line 1: bad header numbers in 'n two wmax 1 model insert-only'"),
    ("n 2 wmax 0.5 model insert-only\n", "line 1: wmax must be finite and >= 1, got 0.5"),
    ("n 2 wmax inf model insert-only\n", "line 1: wmax must be finite and >= 1, got inf"),
])
def test_estimate_stream_refusals(tmp_path, capsys, text, message):
    path = tmp_path / "bad.stream"
    path.write_text(text)
    assert main(["estimate", "--stream", str(path), "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == f"wmstream: {message}\n"


@pytest.mark.parametrize("epsilon", ["0", "1.5", "nan", "inf"])
def test_estimate_refuses_a_bad_epsilon_in_one_message(two_edge_file, capsys, epsilon):
    assert main(["estimate", "--stream", two_edge_file, "--epsilon", epsilon]) == 2
    assert capsys.readouterr().err == (
        f"wmstream: epsilon must be in (0, 1], got {float(epsilon)!r}\n")


@pytest.mark.parametrize("text, message", [
    ("estimator=exact\nrows=2\n", "suite block needs at least family= and estimator="),
    ("family=grid\nrows=2\n", "suite block needs at least family= and estimator="),
    ("family=grid\nestimator=magic\n", "unknown estimator 'magic'"),
    ("family=grid\nestimator=exact\nrows 2\n", "line 3: expected key=value, got 'rows 2'"),
])
def test_eval_suite_refusals(tmp_path, capsys, text, message):
    suite = tmp_path / "suite.txt"
    suite.write_text(text)
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"wmstream: {message}\n"
    assert not out.exists()


GOLDEN_STREAMS = [p.read_bytes()
                  for p in sorted((Path(__file__).parent / "golden").glob("*.stream"))]
FUZZ_COMMANDS = [
    *(["estimate", "--epsilon", "0.5", "--estimator", kind, *verify]
      for kind in ("greedy", "exact") for verify in ([], ["--verify"])),
    *(["oracle", "--mode", mode] for mode in ("mwm", "mcm")),
]
# digits, the other bytes that the stream format gives a meaning, or any byte
FUZZ_BYTES = st.one_of(st.sampled_from(b"0123456789"), st.sampled_from(b" +-.\n#e\t"),
                       st.integers(0, 255)).map(lambda b: bytes([b]))


@st.composite
def mutated_streams(draw):
    """A golden stream after up to three byte edits, each in a line drawn
    first: a replaced, inserted or deleted byte."""
    lines = draw(st.sampled_from(GOLDEN_STREAMS)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        cut = draw(st.integers(0, 1)) if at < len(lines[i]) else 0
        lines[i] = lines[i][:at] + draw(FUZZ_BYTES | st.just(b"")) + lines[i][at + cut:]
    return b"".join(lines)


def _header_n(data):
    """The header's n as the parser would read it, or None where it would not."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    for raw in text.splitlines():
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            try:
                return int(parts[1])
            except (IndexError, ValueError):
                return None
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_streams(), command=st.sampled_from(FUZZ_COMMANDS))
def test_a_mutated_golden_stream_exits_with_a_documented_code_and_one_line(
        tmp_path, data, command):
    # greedy allocates one int per vertex up front, so an edit that grows the
    # header's n into the billions would only exhaust memory, a known limit
    n = _header_n(data)
    assume(n is None or n <= 10**6)
    path = tmp_path / "fuzz.stream"
    path.write_bytes(data)
    _exits_with_a_documented_code_and_one_line([*command, "--stream", str(path)])


def _exits_with_a_documented_code_and_one_line(argv) -> int:
    """``main(argv)``'s exit code, once it is checked to be 0 with nothing on
    stderr, or a documented error code with one ``wmstream:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("wmstream: ") and lines[0].endswith("\n")
    return code


def _any_float_or(valid):
    """A value from ``valid``, any float, finite or not, or a float at an edge."""
    return valid | st.floats() | st.sampled_from([0.0, -0.0, 5e-324, math.nextafter(1.0, 2.0)])


# An epsilon in (0, 1] is kept at 0.05 or more, so that a golden stream
# (wmax <= 1024) asks for at most 142 levels, or at 1e-5 or less, where the
# schedule counts past 2**18 levels and refuses before it stores a threshold;
# between the two a run would hold up to 2**18 levels.
EPSILONS = _any_float_or(st.floats(0.05, 1.0)).filter(lambda e: not 1e-5 < e < 0.05)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=st.sampled_from(GOLDEN_STREAMS),
       command=st.sampled_from([c for c in FUZZ_COMMANDS if c[0] == "estimate"]),
       epsilon=EPSILONS, delta=_any_float_or(st.floats(0.001, 0.999)))
def test_an_estimate_flag_value_exits_with_a_documented_code_and_one_line(
        tmp_path, stream, command, epsilon, delta):
    path = tmp_path / "flags.stream"
    path.write_bytes(stream)
    # "--epsilon=-inf": a separate "-inf" would be read as a flag
    argv = [*command, "--stream", str(path), f"--epsilon={epsilon!r}", f"--delta={delta!r}"]
    _exits_with_a_documented_code_and_one_line(argv)


GEN_TYPES = typing.get_type_hints(GenConfig)
# each GenConfig field's values in a config that gen accepts, small enough
# that the O(n**2) families stay fast
GEN_VALID = {"family": st.sampled_from(generators.FAMILIES), "n": st.integers(1, 9),
             "rows": st.integers(1, 4), "cols": st.integers(1, 4), "nu": st.integers(1, 3),
             "p": st.floats(0.0, 1.0), "weights": st.sampled_from(generators.WEIGHT_DISTS),
             "wmax": st.floats(1.0, 1e6), "alpha": st.floats(0.01, 10.0),
             "order": st.sampled_from(generators.ORDERS), "churn": st.floats(0.0, 1.0),
             "seed": st.integers()}
GEN_WILD = {float: _any_float_or(st.nothing()), int: st.integers(max_value=9)}


@st.composite
def gen_configs(draw):
    """``gen`` flags for every GenConfig field: a valid config in which up to
    two number fields take any float, or any int up to 9, instead."""
    numbers = [name for name, kind in GEN_TYPES.items() if kind is not str]
    wild = draw(st.sets(st.sampled_from(numbers), max_size=2))
    return [f"--{name}={draw(GEN_WILD[GEN_TYPES[name]] if name in wild else GEN_VALID[name])}"
            for name in GenConfig._fields]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=gen_configs())
def test_a_gen_config_exits_with_a_documented_code_and_one_line(tmp_path, flags):
    out = tmp_path / "gen.stream"
    out.unlink(missing_ok=True)
    if _exits_with_a_documented_code_and_one_line(["gen", *flags, "--out", str(out)]) == 0:
        parse_stream(out.read_bytes())  # what gen writes, the parser reads
    else:
        assert not out.exists()


# --- the verdict path: a failed check exits 5 and still writes its output ----

def test_eval_invariant_failure_writes_every_row_and_exits_5(tmp_path, capsys, monkeypatch):
    real = reduction.check_lemma1
    monkeypatch.setattr(reduction, "check_lemma1",
                        lambda report: report.estimator != "greedy" and real(report))
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\n\n"
                     "family=grid\nrows=2\ncols=2\nestimator=greedy\n")
    out = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(out)]) == 5
    exact, greedy = csv.DictReader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#"))
    assert (exact["status"], exact["lemma1_ok"]) == ("ok", "True")
    assert (greedy["status"], greedy["lemma1_ok"]) == ("invariant-failure", "False")
    assert greedy["estimate"] and greedy["oracle_mwm"]
    assert capsys.readouterr().err == f"eval: {greedy['config']}: invariant-failure\n"


# each check forced to fail -> the name `estimate --verify` gives it
_FAILED_CHECKS = {
    "check_lemma1": (lambda report: False, "lemma 1"),
    "check_observations": (lambda report: False, "observations"),
    "check_lemma2": (lambda report, snapshot, matching_weights: False, "lemma 2"),
    "check_sandwich": (lambda report, mwm: (1.0, 2.0, False), "approximation sandwich"),
}


@pytest.mark.parametrize("check", sorted(_FAILED_CHECKS))
def test_each_failed_check_alone_makes_an_eval_row_an_invariant_failure(
        two_edge_file, tmp_path, capsys, monkeypatch, check):
    # both commands share one verdict: eval marks the row and exits 5, and
    # `estimate --verify` writes its report, names the check and exits 5
    forced, name = _FAILED_CHECKS[check]
    monkeypatch.setattr(reduction, check, forced)
    suite = tmp_path / "suite.txt"
    suite.write_text("family=grid\nrows=2\ncols=2\nestimator=exact\n")
    rows = tmp_path / "rows.csv"
    assert main(["eval", "--suite", str(suite), "--out", str(rows)]) == 5
    (row,) = csv.DictReader(line for line in rows.read_text().splitlines()
                            if not line.startswith("#"))
    assert row["status"] == "invariant-failure"

    out = tmp_path / "report.json"
    assert main(["estimate", "--stream", two_edge_file, "--epsilon", "1", "--verify",
                 "--out", str(out)]) == 5
    assert list(json.loads(out.read_text()))[-3:] == ["oracle_mwm", "bound", "sandwich_ok"]
    assert capsys.readouterr().err == (f"eval: {row['config']}: invariant-failure\n"
                                       f"wmstream: {name} violated\n")


def test_estimate_verify_sandwich_violation_writes_the_report_and_exits_5(
        two_edge_file, tmp_path, capsys, monkeypatch):
    real = reduction.check_sandwich
    monkeypatch.setattr(reduction, "check_sandwich",
                        lambda report, mwm: (*real(report, mwm)[:2], False))
    out = tmp_path / "report.json"
    code = main(["estimate", "--stream", two_edge_file, "--epsilon", "1", "--verify",
                 "--out", str(out)])
    assert code == 5
    payload = json.loads(out.read_text())
    assert (payload["oracle_mwm"], payload["sandwich_ok"]) == (5.0, False)
    assert capsys.readouterr().err == "wmstream: approximation sandwich violated\n"


# --- estimate keeps the collector paused while it holds the records -----------

def _churned_text(live):
    """Every pair of 100 vertices inserted and then, in the other orientation,
    all but the first ``live`` deleted: 9,900 - live records."""
    pairs = [(u, v) for u in range(1, 101) for v in range(u + 1, 101)]
    return "n 100 wmax 4 model dynamic\n" + "".join(
        [f"+ {u} {v} 2\n" for u, v in pairs] + [f"- {v} {u} 2\n" for u, v in pairs[live:]])


@pytest.mark.parametrize("enabled", [True, False])
def test_estimate_keeps_the_collector_paused_until_it_frees_the_records(
        tmp_path, capsys, monkeypatch, enabled):
    stream = tmp_path / "churn.stream"
    young = []  # for each collection started, the objects of generation 0 it walks

    def counted(phase, info):
        if phase == "start":
            young.append(len(gc.get_objects(0)))

    def estimate(text):
        stream.write_text(text)
        young.clear()
        gc.callbacks.append(counted)
        try:
            code = main(["estimate", "--stream", str(stream), "--epsilon", "1", "--verify",
                         "--out", str(tmp_path / "report.json")])
        finally:
            gc.callbacks.remove(counted)
        assert gc.isenabled() is enabled
        return code

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert estimate(_churned_text(3)) == 0
        assert young == []  # no collection starts while the command runs
        # on each exit, the records are freed before the collector resumes
        assert estimate(_churned_text(3) + "+ 1 2 x\n") == 2
        assert all(size < 4950 for size in young)
        assert estimate(_churned_text(25)) == 4  # exact refuses 25 live pairs
        assert all(size < 4950 for size in young)
        monkeypatch.setattr(reduction, "check_lemma1", lambda report: False)
        assert estimate(_churned_text(3)) == 5
        assert all(size < 4950 for size in young)
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().err.splitlines()[1:] == [
        "wmstream: 25 edges exceed oracle cap 24", "wmstream: lemma 1 violated"]


# --- main runs each command with the collector off -----------------------------

def _path_stream(n, live, tail=""):
    """The path 1..n inserted and then, in the other orientation, all but
    its first ``live`` edges deleted, and ``tail``."""
    edges = [(u, u + 1) for u in range(1, n)]
    return (f"n {n} wmax 4 model dynamic\n" + "".join(f"+ {u} {v} 2\n" for u, v in edges)
            + "".join(f"- {v} {u} 2\n" for u, v in edges[live:]) + tail)


_REPS_SUITE = ("family=grid\nrows=2\ncols=2\nestimator=exact\nreps={reps}\n\n"
               "family=grid\nrows=2\ncols=2\nwmax=nan\nestimator=exact\nreps={reps}\n")

# every command and exit that main runs: its arguments, its stream at n vertices, its exit code
COMMANDS = [
    ("estimate --stream {stream} --epsilon 1 --verify --out {out}",
     lambda n: _path_stream(n, 3), 0),
    ("estimate --stream {stream} --epsilon 1 --out {out}",
     lambda n: _path_stream(n, 3, "+ 1 2 x\n"), 2),
    ("estimate --stream {stream} --epsilon 1 --estimator greedy --out {out}",
     lambda n: _path_stream(n, 3), 3),
    ("estimate --stream {stream} --epsilon 1 --verify --out {out}",
     lambda n: _path_stream(n, 25), 4),
    ("oracle --stream {stream} --mode mwm", lambda n: _path_stream(n, 20), 0),
    ("gen --family forest-union --n {n} --nu 2 --churn 0.5 --out {out}", None, 0),
    ("eval --suite {suite} --jobs 1 --out {out}", None, 2),
    ("eval --suite {suite} --jobs 2 --out {out}", None, 2),
]
COMMAND_IDS = ["estimate-0", "estimate-2", "estimate-3", "estimate-4", "oracle", "gen",
               "eval-jobs-1", "eval-jobs-2"]


def _run_command(tmp_path, template, stream, code, n=30, reps=2):
    """Run ``template`` through main on a stream of ``n`` vertices or a suite
    of ``reps`` reps, and check its exit code."""
    paths = {"stream": tmp_path / "in.stream", "suite": tmp_path / "suite.txt",
             "out": tmp_path / "out"}
    paths["stream"].write_text(stream(n) if stream else "")
    paths["suite"].write_text(_REPS_SUITE.format(reps=reps))
    assert main([arg.format(n=n, **paths) for arg in template.split()]) == code


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("template, stream, code", COMMANDS, ids=COMMAND_IDS)
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, template,
                                                  stream, code, enabled):
    seen = []  # the collector's state as each command starts
    for name in ("cmd_estimate", "cmd_oracle", "cmd_gen", "cmd_eval"):
        command = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda args, command=command: (
            seen.append(gc.isenabled()), command(args))[1])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        _run_command(tmp_path, template, stream, code)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("template, stream, code", COMMANDS, ids=COMMAND_IDS)
def test_nothing_a_command_builds_per_update_or_row_holds_a_reference_cycle(
        tmp_path, capsys, template, stream, code):
    # main keeps the collector off for the whole command, which pays only if
    # the cyclic garbage it leaves does not grow with the input
    def garbage(n, reps):
        gc.collect()
        _run_command(tmp_path, template, stream, code, n, reps)
        return gc.collect()

    was = gc.isenabled()
    gc.disable()
    try:
        garbage(30, 2)  # a first run may fill caches and import lazily
        small, large = garbage(30, 2), garbage(150, 40)
    finally:
        (gc.enable if was else gc.disable)()
    assert small == large


# --- the report is encoded straight into its file ----------------------------

@pytest.mark.parametrize("to_file", [True, False])
def test_estimate_report_bytes_are_json_dumps_with_a_newline(tmp_path, capsys, to_file):
    stream = tmp_path / "one.stream"
    stream.write_text("n 2 wmax 4 model insert-only\n+ 1 2 3\n")
    out = tmp_path / "report.json"
    args = ["estimate", "--stream", str(stream), "--epsilon", "0.01", "--estimator", "greedy",
            "--verify"] + (["--out", str(out)] if to_file else [])
    assert main(args) == 0
    written = out.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
    header, updates = wmstream.parse_stream(stream.read_bytes())
    report = wmstream.run(header, updates, 0.01, 0.1, "greedy")
    _, bound, ok = wmstream.check_sandwich(report, 3.0)
    payload = wmstream.report_to_dict(report)
    payload.update(oracle_mwm=3.0, bound=bound, sandwich_ok=ok)
    assert written == json.dumps(payload, indent=2) + "\n"


def test_estimate_report_peak_memory_stays_below_the_joined_text(tmp_path):
    # eps 5e-5 gives 27,728 levels and a 4.5 MiB report; encoding it into
    # one string before writing it would peak near 50 MiB
    stream = tmp_path / "one.stream"
    stream.write_text("n 2 wmax 4 model insert-only\n+ 1 2 3\n")
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["estimate", "--stream", str(stream), "--epsilon", "5e-5",
                     "--estimator", "greedy", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4 * 2**20
    assert peak < 20 * 2**20
