"""The package calls that the benchmark (``perfbench/run.py`` and
``perfbench/tracing.py``) makes, with its names and call forms, so that a
change which would break a traced benchmark run fails here first."""

import inspect
import json

from hypothesis import given, strategies as st

from wmstream import cli, estimators, generators, oracle, reduction, schedule, stream_io

# one exact and one greedy block in eval's suite format
SUITE = """family=grid
rows=2
cols=3
wmax=16
epsilon=0.5
estimator=exact
churn=0.5
seed=40
reps=1

family=forest-union
n=8
nu=2
wmax=16
epsilon=0.1
estimator=greedy
seed=41
reps=1
"""


def _rows():
    return list(cli.parse_suite(SUITE))


def test_suite_rows_and_generated_records():
    for row in _rows():
        assert row.estimator in ("exact", "greedy")
        assert isinstance(row.epsilon, float) and isinstance(row.delta, float)
        header, updates = generators.generate(row.config)
        assert header.n >= 1 and header.wmax >= 1 and header.model
        ops = [("+" if u.op == stream_io.INSERT else "-", u.u, u.v, u.w) for u in updates]
        assert ops and {op for op, _, _, _ in ops} <= {"+", "-"}


def test_serialize_and_parse_round_trip_text_and_bytes():
    header, updates = generators.generate(_rows()[0].config)
    text = stream_io.serialize(header, updates)
    assert isinstance(text, str)
    for source in (text, text.encode("utf-8")):
        parsed_header, parsed = stream_io.parse_stream(source)
        assert parsed_header == header
        assert [(u.op, u.u, u.v, u.w) for u in parsed] == [
            (u.op, u.u, u.v, u.w) for u in updates]


def test_run_binds_by_the_names_tracing_reads():
    row = _rows()[0]
    header, updates = generators.generate(row.config)
    report = reduction.run(header, updates, row.epsilon, row.delta, row.estimator)
    args = inspect.signature(reduction.run).bind(
        header, updates, row.epsilon, row.delta, row.estimator).arguments
    assert set(args) == {"header", "updates", "epsilon", "delta", "estimator_kind"}
    assert reduction.run(**args) == report
    assert reduction.check_lemma1(report) and reduction.check_observations(report)
    assert report.schedule.levels >= 0
    assert report.total_words == sum(report.level_words)
    assert max(report.level_words, default=0) >= 0
    json.dumps(reduction.report_to_dict(report), indent=2)


def test_estimate_hands_run_sized_records_that_iterate_twice_alike(tmp_path, monkeypatch):
    # tracing counts the updates with len(), then iterates them twice (its
    # direct feed and its counting run) and reads .op/.u/.v/.w on each
    seen = []
    real_run = reduction.run

    def spy(header, updates, *args):
        seen.append(updates)
        return real_run(header, updates, *args)

    monkeypatch.setattr(reduction, "run", spy)
    header, updates = generators.generate(_rows()[0].config)
    stream = tmp_path / "g.stream"
    stream.write_text(stream_io.serialize(header, updates), encoding="utf-8")
    assert cli.main(["estimate", "--stream", str(stream), "--epsilon", "0.5",
                     "--out", str(tmp_path / "est.json")]) == 0
    [handed] = seen
    assert len(handed) == len(updates)
    first, second = list(handed), list(handed)
    assert first == second
    assert all(type(u) is stream_io.StreamUpdate for u in first)
    assert [(u.op, u.u, u.v, u.w) for u in first] == [tuple(u) for u in updates]


@st.composite
def _parsed_streams(draw):
    """(header, columns, estimator): a parsed insert-only or churned stream
    on at most 7 vertices, so that the exact estimator's live set stays
    under the oracle cap, and an estimator that takes its model."""
    n = draw(st.integers(2, 7))
    wmax = draw(st.integers(1, 16))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] != p[1]), unique_by=lambda p: tuple(sorted(p)), max_size=12))
    updates = [stream_io.StreamUpdate(stream_io.INSERT, u, v, float(draw(st.integers(1, wmax))))
               for u, v in pairs]
    header = stream_io.StreamHeader(n, float(wmax), stream_io.INSERT_ONLY)
    churn = draw(st.sampled_from([0.0, 0.5, 1.0]))
    header, updates = generators.dynamify(header, updates, churn, draw(st.integers(0, 99)))
    header, columns = stream_io.parse_stream(stream_io.serialize(header, updates))
    kinds = ["exact"] + (["greedy"] if header.model == stream_io.INSERT_ONLY else [])
    return header, columns, draw(st.sampled_from(kinds))


@given(_parsed_streams(), st.sampled_from([0.1, 0.5, 1.0]))
def test_run_on_the_columns_and_on_their_list_writes_the_same_report(case, epsilon):
    header, columns, kind = case
    texts = ["".join(reduction.report_json(reduction.run(header, updates, epsilon, 0.1, kind), {}))
             for updates in (columns, list(columns))]
    assert texts[0] == texts[1]


def test_make_estimator_and_per_level_update():
    for row in _rows():
        header, updates = generators.generate(row.config)
        sched = schedule.build_schedule(row.epsilon, header.wmax)
        delta_prime = row.delta / (sched.levels + 1)
        ests = [estimators.make_estimator(row.estimator, header.n, delta_prime, header.model)
                for _ in range(sched.levels + 1)]
        for upd in updates:
            for i in range(schedule.top_level(sched, upd.w) + 1):
                ests[i].update(upd.op, upd.u, upd.v)
    counted = [cls for cls in vars(estimators).values()
               if inspect.isclass(cls) and cls.__module__ == estimators.__name__
               and "update" in vars(cls)]
    assert counted


def test_cli_entry_points_and_json_attribute(tmp_path):
    # tracing swaps cli.json for a proxy whose dumps it times
    assert cli.json is json
    rows = _rows()
    row = cli.run_suite_row(rows[0])
    assert row["status"] == "ok"
    assert isinstance(cli.render_suite_csv([row]), str)

    header, updates = generators.generate(rows[1].config)
    stream = tmp_path / "g.stream"
    stream.write_text(stream_io.serialize(header, updates), encoding="utf-8")
    suite = tmp_path / "suite.txt"
    suite.write_text(SUITE, encoding="utf-8")
    assert cli.main(["estimate", "--stream", str(stream), "--epsilon", repr(0.1),
                     "--estimator", "greedy", "--out", str(tmp_path / "est.json")]) == 0
    json.loads((tmp_path / "est.json").read_text(encoding="utf-8"))
    assert cli.main(["eval", "--suite", str(suite), "--jobs", "1",
                     "--out", str(tmp_path / "eval.csv")]) == 0
    assert (tmp_path / "eval.csv").read_text(encoding="utf-8").startswith("config,")


def test_oracle_search_and_its_cache_may_be_absent():
    # tracing's own lookup: the search and its cache are both optional
    search = getattr(oracle, "_mwm_search", None)
    cache = getattr(search, "cache_info", None)
    if cache is not None:
        search.cache_clear()
    graph = stream_io.GraphSnapshot(3, ((1, 2, 2.0), (2, 3, 1.0)))
    assert oracle.exact_mwm(graph).value == 2.0
    assert oracle.exact_mcm(graph).value == 1
