import random

import pytest

from wmstream import (
    CapabilityError,
    GraphSnapshot,
    ParameterError,
    StreamError,
    exact_mcm,
    make_estimator,
)
from wmstream.estimators import EXACT_OFFLINE, GREEDY
from wmstream.stream_io import DELETE, DYNAMIC, INSERT, INSERT_ONLY


def test_greedy_reports_lambda_2():
    est = make_estimator(GREEDY, 10, 0.05, INSERT_ONLY)
    assert est.spec.lam == 2.0
    assert not est.spec.supports_deletes


def test_exact_reports_lambda_1():
    est = make_estimator(EXACT_OFFLINE, 10, 0.05, INSERT_ONLY)
    assert est.spec.lam == 1.0
    assert est.spec.supports_deletes


def test_greedy_refuses_dynamic_stream():
    with pytest.raises(CapabilityError):
        make_estimator(GREEDY, 10, 0.05, DYNAMIC)


def test_make_estimator_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        make_estimator("bogus", 10, 0.05, INSERT_ONLY)


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
def test_make_estimator_rejects_empty_vertex_set(kind):
    with pytest.raises(ParameterError):
        make_estimator(kind, 0, 0.05, INSERT_ONLY)


def test_greedy_refuses_delete_update():
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY)
    est.update(INSERT, 1, 2)
    with pytest.raises(CapabilityError):
        est.update(DELETE, 1, 2)


def test_greedy_path_in_order():
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY)
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        est.update(INSERT, u, v)
    assert est.finalize().value == 2.0


def test_greedy_path_middle_edge_first():
    # hand simulation of the first-come rule: (2,3) blocks both ends,
    # giving 1 while the exact MCM is 2, consistent with lambda = 2
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY)
    for u, v in [(2, 3), (1, 2), (3, 4)]:
        est.update(INSERT, u, v)
    assert est.finalize().value == 1.0


def test_greedy_star_collapses_to_one():
    est = make_estimator(GREEDY, 5, 0.05, INSERT_ONLY)
    for u, v in [(5, 1), (5, 2), (5, 3)]:
        est.update(INSERT, u, v)
    assert est.finalize().value == 1.0


def test_exact_offline_cancellation():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC)
    est.update(INSERT, 1, 2)
    est.update(DELETE, 1, 2)
    result = est.finalize()
    assert result.value == 0.0
    assert result.words_stored == 1  # one edge was retained at peak


def test_exact_offline_rejects_negative_multiplicity():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC)
    with pytest.raises(StreamError):
        est.update(DELETE, 1, 2)


def test_exact_offline_triangle():
    est = make_estimator(EXACT_OFFLINE, 3, 0.05, INSERT_ONLY)
    for u, v in [(1, 2), (2, 3), (1, 3)]:
        est.update(INSERT, u, v)
    assert est.finalize().value == 1.0


def test_two_disjoint_edges_either_estimator():
    for kind in (EXACT_OFFLINE, GREEDY):
        est = make_estimator(kind, 4, 0.05, INSERT_ONLY)
        est.update(INSERT, 1, 2)
        est.update(INSERT, 3, 4)
        assert est.finalize().value == 2.0


def _random_edge_list(rng, n, max_edges):
    edges = list(
        {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, max_edges))
        }
    )
    rng.shuffle(edges)
    return edges


def test_greedy_two_approximation_vs_oracle():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 12)
        edges = _random_edge_list(rng, n, 14)
        est = make_estimator(GREEDY, n, 0.05, INSERT_ONLY)
        for u, v in edges:
            est.update(INSERT, u, v)
        g = est.finalize().value
        m = exact_mcm(
            GraphSnapshot(n, tuple((u, v, 1.0) for u, v in sorted(edges)))
        ).value
        assert g <= m <= 2 * g or (g == 0 and m == 0)


def test_greedy_space_bounded_by_half_n():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 12)
        est = make_estimator(GREEDY, n, 0.05, INSERT_ONLY)
        for u, v in _random_edge_list(rng, n, 20):
            est.update(INSERT, u, v)
        assert est.finalize().words_stored <= n // 2


def test_exact_offline_matches_oracle_on_replayed_snapshot():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 10)
        edges = _random_edge_list(rng, n, 12)
        est = make_estimator(EXACT_OFFLINE, n, 0.05, INSERT_ONLY)
        for u, v in edges:
            est.update(INSERT, u, v)
        expected = exact_mcm(
            GraphSnapshot(n, tuple((u, v, 1.0) for u, v in sorted(edges)))
        ).value
        assert est.finalize().value == float(expected)


def test_estimators_deterministic():
    edges = [(1, 2), (3, 4), (2, 3), (4, 5), (1, 5)]
    for kind in (EXACT_OFFLINE, GREEDY):
        results = []
        for _ in range(2):
            est = make_estimator(kind, 5, 0.05, INSERT_ONLY)
            for u, v in edges:
                est.update(INSERT, u, v)
            results.append(est.finalize())
        assert results[0] == results[1]
