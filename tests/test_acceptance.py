"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

import networkx as nx
import pytest

from wmstream import (
    GenConfig,
    build_schedule,
    check_lemma1,
    check_lemma2,
    check_observations,
    check_sandwich,
    dynamify,
    exact_mcm,
    exact_mwm,
    generate,
    replay,
    run,
    serialize,
)
from wmstream.cli import main
from wmstream.estimators import EXACT_OFFLINE, GREEDY
from wmstream.oracle import MAX_ORACLE_EDGES

from helpers import arboricity, combined_report, corpus_instances, snapshot_stream

EPSILONS = (0.1, 0.5, 1.0)
REL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    return corpus_instances()


@pytest.fixture(scope="module")
def exact_reports(corpus):
    out = []
    for config, header, updates in corpus:
        oracle = exact_mwm(replay(header, updates))
        for epsilon in EPSILONS:
            report = run(header, updates, epsilon, 0.1, EXACT_OFFLINE)
            out.append((config, header, updates, epsilon, oracle, report))
    return out


@pytest.fixture(scope="module")
def greedy_reports(corpus):
    out = []
    for config, header, updates in corpus:
        oracle = exact_mwm(replay(header, updates))
        for epsilon in EPSILONS:
            report = run(header, updates, epsilon, 0.1, GREEDY)
            out.append((config, header, updates, epsilon, oracle, report))
    return out


def _announce(criterion, detail, started):
    print(f"[acceptance] criterion {criterion}: PASS "
          f"({detail}, {time.perf_counter() - started:.1f}s)")


def test_criterion_1_sandwich_exact(exact_reports):
    started = time.perf_counter()
    assert len(exact_reports) >= 500
    for config, _, _, epsilon, oracle, report in exact_reports:
        bound = 2.0 * (1.0 + epsilon)
        assert report.estimate <= oracle.value * (1 + REL), config.summary()
        assert oracle.value <= bound * report.estimate * (1 + REL), config.summary()
    _announce(1, f"{len(exact_reports)} runs", started)


def test_criterion_2_sandwich_greedy(greedy_reports):
    started = time.perf_counter()
    assert len(greedy_reports) >= 500
    for config, header, updates, epsilon, oracle, report in greedy_reports:
        bound = 4.0 * (1.0 + epsilon)
        assert report.estimate <= oracle.value * (1 + REL), config.summary()
        assert oracle.value <= bound * report.estimate * (1 + REL), config.summary()
    # per-substream greedy contract g <= MCM <= 2g, once per (instance, eps)
    for config, header, updates, epsilon, _, report in greedy_reports:
        edges = replay(header, updates)
        thresholds = report.schedule.thresholds
        for state in report.levels:
            sub_edges = [e for e in edges if e[2] >= thresholds[state.level]]
            mcm = exact_mcm(sub_edges).value
            g = state.s_hat
            assert g <= mcm <= 2 * g or (g == 0 and mcm == 0), config.summary()
    _announce(2, f"{len(greedy_reports)} runs", started)


# One seeded graph per family, of 1k-1.7k edges: past the exact oracle's cap
PAST_CAP_CONFIGS = (
    GenConfig(family="forest-union", n=500, nu=3, wmax=64.0, order="shuffled", seed=1),
    GenConfig(family="erdos-renyi", n=200, p=0.05, weights="powerlaw", wmax=64.0,
              order="shuffled", seed=2),
    GenConfig(family="grid", rows=30, cols=30, wmax=64.0, order="shuffled", seed=3),
)


@pytest.mark.parametrize("config", PAST_CAP_CONFIGS, ids=lambda c: c.family)
def test_greedy_guarantee_past_the_oracle_cap(config):
    # networkx's weighted blossom algorithm stands in for exact_mwm here
    header, updates = generate(config)
    edges = replay(header, updates)
    assert len(edges) > MAX_ORACLE_EDGES
    graph = nx.Graph()
    graph.add_weighted_edges_from(edges)
    mwm = sum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))
    for epsilon in EPSILONS:
        report = run(header, updates, epsilon, 0.1, GREEDY)
        ratio, bound, ok = check_sandwich(report, mwm)
        assert ok, (config.summary(), epsilon, ratio, bound)
        assert check_lemma1(report), (config.summary(), epsilon)
        assert check_observations(report), (config.summary(), epsilon)


def test_criterion_3_lemma1(exact_reports, greedy_reports):
    started = time.perf_counter()
    for _, _, _, _, _, report in exact_reports + greedy_reports:
        assert check_lemma1(report)
        for state in report.levels:
            assert state.b <= math.ceil(state.m_hat)
            assert state.m_hat <= 2 * state.b
    rng = random.Random(61)
    fuzzed = 0
    while fuzzed < 200:
        epsilon = rng.choice(EPSILONS)
        schedule = build_schedule(epsilon, float(rng.randint(1, 64)))
        s_hats = [float(rng.randint(0, 8)) for _ in range(schedule.levels + 1)]
        if rng.random() < 0.3:
            s_hats = [s + rng.random() for s in s_hats]
        assert check_lemma1(combined_report(schedule, s_hats))
        fuzzed += 1
    _announce(3, f"{len(exact_reports) + len(greedy_reports)} reports + 200 fuzzed",
              started)


def test_criterion_4_observations(exact_reports, greedy_reports):
    started = time.perf_counter()
    for _, _, _, _, _, report in exact_reports + greedy_reports:
        assert check_observations(report)
        suffix_b = 0
        suffix_a = 0.0
        for state in report.levels:
            suffix_b += state.delta_count
            suffix_a += report.schedule.thresholds[state.level] * state.delta_count
            assert state.b == suffix_b
            assert abs(state.a - suffix_a) <= REL * max(1.0, abs(suffix_a))
    _announce(4, f"{len(exact_reports) + len(greedy_reports)} reports", started)


def test_criterion_5_lemma2_oracle_check(exact_reports):
    started = time.perf_counter()
    for config, header, updates, epsilon, oracle, report in exact_reports:
        weights = [w for _, _, w in oracle.witness]
        ok = check_lemma2(report, replay(header, updates), weights)
        if not ok:
            pytest.fail(
                "lemma 2 violated on instance:\n"
                + serialize(header, updates)
                + f"epsilon={epsilon} witness={oracle.witness}"
            )
    _announce(5, f"{len(exact_reports)} runs", started)


def test_per_level_cardinality_sandwich_exact(exact_reports):
    # Each level on its own: B brackets the maximum cardinality matching of
    # that level's substream, b_j <= MCM_j <= 2*b_j. Criterion 5 checks the
    # stronger fact that one matching realises every b_j at once.
    started = time.perf_counter()
    for config, header, updates, _, _, report in exact_reports:
        edges = replay(header, updates)
        thresholds = report.schedule.thresholds
        for state in report.levels:
            sub_edges = [e for e in edges if e[2] >= thresholds[state.level]]
            ustar = exact_mcm(sub_edges).value
            assert state.b <= ustar <= 2 * state.b or (state.b == 0 and ustar == 0), \
                config.summary()
    print(f"[acceptance] corrected per-level bound: PASS "
          f"({len(exact_reports)} runs, {time.perf_counter() - started:.1f}s)")


def test_criterion_6_dynamic_consistency(corpus):
    started = time.perf_counter()
    runs = 0
    churns = (0.25, 0.5, 1.0)
    for idx, (config, header, updates) in enumerate(corpus):
        if runs >= 102:
            break
        churn = churns[idx % 3]
        dyn_header, dyn_updates = dynamify(header, updates, churn, config.seed + 7)
        snap_header, snap_updates = snapshot_stream(
            header.n, replay(header, updates), header.wmax
        )
        dyn = run(dyn_header, dyn_updates, 0.5, 0.1, EXACT_OFFLINE)
        base = run(snap_header, snap_updates, 0.5, 0.1, EXACT_OFFLINE)
        assert dyn.estimate == base.estimate, config.summary()
        runs += 1
    assert runs >= 100
    _announce(6, f"{runs} dynamified streams", started)


def test_criterion_7_generator_soundness():
    started = time.perf_counter()
    rng = random.Random(83)
    for i in range(100):
        nu = 1 + i % 3
        n = rng.randint(4, 12)
        config = GenConfig(
            family="forest-union", n=n, nu=nu, weights="constant",
            seed=5000 + i,
        )
        header, updates = generate(config)
        edges = replay(header, updates)
        full = arboricity(header.n, edges)
        assert full <= nu, config.summary()
        if edges:
            kept = rng.sample(list(edges), rng.randint(1, len(edges)))
            assert arboricity(header.n, kept) <= full
    _announce(7, "100 forest unions", started)


def test_criterion_8_space_accounting(greedy_reports):
    started = time.perf_counter()
    for config, header, _, _, _, report in greedy_reports:
        assert len(report.level_words) == report.schedule.levels + 1
        for words in report.level_words:
            assert words <= header.n // 2, config.summary()
        assert report.total_words == sum(report.level_words)
    _announce(8, f"{len(greedy_reports)} runs", started)


def test_criterion_9_eval_determinism(tmp_path):
    started = time.perf_counter()
    suite = tmp_path / "suite.txt"
    suite.write_text(
        "family=forest-union\nn=8\nnu=2\nwmax=32\norder=shuffled\n"
        "epsilon=0.5\nestimator=exact\nseed=11\nreps=10\n\n"
        "family=grid\nrows=3\ncols=3\nwmax=16\nepsilon=1.0\n"
        "estimator=greedy\nseed=2\nreps=10\n\n"
        "family=erdos-renyi\nn=8\np=0.3\nwmax=64\nepsilon=0.1\n"
        "estimator=exact\nseed=4\nreps=10\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # exit codes reflect per-row invariant verdicts; determinism requires
    # identical codes and byte-identical CSV across reruns
    code_a = main(["eval", "--suite", str(suite), "--out", str(a)])
    code_b = main(["eval", "--suite", str(suite), "--out", str(b)])
    assert code_a == code_b
    assert a.read_bytes() == b.read_bytes()
    _announce(9, "30-row suite twice", started)
