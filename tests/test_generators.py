import math
import random

import pytest

from helpers import arboricity, dynamify_reference, python_calls, traced_peak
from wmstream import (
    GenConfig,
    ParameterError,
    dynamify,
    generate,
    parse_stream,
    replay,
    serialize,
)
from wmstream.generators import CHOICES
from wmstream.stream_io import DYNAMIC, INSERT, INSERT_ONLY, StreamHeader, StreamUpdate


def test_single_forest_is_a_forest():
    config = GenConfig(family="forest-union", n=8, nu=1, weights="constant", seed=2)
    header, updates = generate(config)
    assert len(updates) <= 7
    assert arboricity(header.n, replay(header, updates)) <= 1


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_forest_union_respects_arboricity_bound(nu, seed):
    config = GenConfig(family="forest-union", n=9, nu=nu, weights="constant", seed=seed)
    header, updates = generate(config)
    assert arboricity(header.n, replay(header, updates)) <= nu


def test_forest_union_holds_no_quadratic_edge_list():
    # a list of (u, v) tuples over all n(n-1)/2 pairs peaks at about 3.2 MiB here
    assert traced_peak(generate, GenConfig(family="forest-union", n=300, nu=2, seed=1)) < 1 << 20


def test_grid_3x3_shape_and_arboricity():
    config = GenConfig(family="grid", rows=3, cols=3, weights="constant", seed=0)
    header, updates = generate(config)
    assert header.n == 9
    assert len(updates) == 12
    assert arboricity(header.n, replay(header, updates)) == 2


def test_erdos_renyi_p_zero_is_empty():
    config = GenConfig(family="erdos-renyi", n=5, p=0.0, seed=1)
    header, updates = generate(config)
    assert updates == []
    assert header.n == 5


def test_erdos_renyi_p_one_is_complete():
    config = GenConfig(family="erdos-renyi", n=5, p=1.0, weights="constant", seed=1)
    _, updates = generate(config)
    assert len(updates) == 10


def test_weight_distributions_respect_bounds():
    for dist, wmax in (("uniform-int", 16.0), ("powerlaw", 16.0), ("constant", 1.0)):
        config = GenConfig(
            family="erdos-renyi", n=8, p=0.6, weights=dist, wmax=16.0, seed=5
        )
        header, updates = generate(config)
        assert header.wmax == wmax
        for upd in updates:
            assert 1.0 <= upd.w <= header.wmax


def test_orderings():
    base = GenConfig(
        family="erdos-renyi", n=8, p=0.6, weights="uniform-int", wmax=32.0, seed=9
    )
    _, as_gen = generate(base)
    _, heavy = generate(base._replace(order="heavy-first"))
    _, light = generate(base._replace(order="light-first"))
    _, shuffled = generate(base._replace(order="shuffled"))
    assert [u.w for u in heavy] == sorted((u.w for u in heavy), reverse=True)
    assert [u.w for u in light] == sorted(u.w for u in light)
    key = lambda upd: (upd.u, upd.v, upd.w)
    assert sorted(map(key, shuffled)) == sorted(map(key, as_gen))


def test_generate_deterministic_per_seed():
    config = GenConfig(
        family="forest-union", n=10, nu=2, wmax=16.0, order="shuffled", seed=77
    )
    a = generate(config)
    b = generate(config)
    assert serialize(*a) == serialize(*b)


def test_generate_rejects_bad_config():
    with pytest.raises(ParameterError):
        generate(GenConfig(family="erdos-renyi", n=5, p=1.5))
    with pytest.raises(ParameterError):
        generate(GenConfig(family="forest-union", n=0))
    for bad in ({"wmax": float("inf")}, {"wmax": float("nan")}, {"wmax": "8"},
                {"weights": "powerlaw", "alpha": 0.0}, {"weights": "powerlaw", "alpha": -1.0},
                {"weights": "powerlaw", "alpha": float("inf")}):
        with pytest.raises(ParameterError):
            generate(GenConfig(family="grid", rows=2, cols=2, **bad))


@pytest.mark.parametrize("names, message", [
    ({"family": "mystery"}, "unknown family 'mystery'"),
    ({"weights": "mystery"}, "unknown weight distribution 'mystery'"),
    ({"order": "mystery"}, "unknown order 'mystery'"),
    # two unknown names: the first field in the registry's order is refused
    ({"family": "f", "weights": "w"}, "unknown family 'f'"),
    ({"weights": "w", "order": "o"}, "unknown weight distribution 'w'"),
])
def test_generate_refuses_an_unknown_name_in_its_fields_words(names, message):
    with pytest.raises(ParameterError) as exc:
        generate(GenConfig(**{"family": "grid", "rows": 2, "cols": 2, **names}))
    assert str(exc.value) == message


def test_generate_accepts_every_name_the_registry_lists():
    for field, names in CHOICES.items():
        for name in names:
            generate(GenConfig(**{"family": "grid", "n": 3, "rows": 2, "cols": 2, field: name}))


def test_powerlaw_draw_beyond_float_range_is_capped_at_wmax():
    header, updates = generate(
        GenConfig(family="grid", rows=4, cols=4, weights="powerlaw", alpha=1e-300, wmax=16.0)
    )
    assert [upd.w for upd in updates] == [header.wmax] * 24


def test_dynamify_zero_churn_is_identity():
    config = GenConfig(family="forest-union", n=6, nu=1, wmax=8.0, seed=3)
    header, updates = generate(config)
    out_header, out_updates = dynamify(header, updates, 0.0, 42)
    assert out_header == header
    assert out_updates == updates


def test_dynamify_full_churn_triples_two_edge_stream():
    from wmstream.stream_io import StreamHeader, StreamUpdate

    header = StreamHeader(4, 4.0, INSERT_ONLY)
    updates = [StreamUpdate(INSERT, 1, 2, 1.0), StreamUpdate(INSERT, 3, 4, 4.0)]
    out_header, out_updates = dynamify(header, updates, 1.0, 1)
    assert out_header.model == DYNAMIC
    assert len(out_updates) == 6
    assert replay(out_header, out_updates) == replay(header, updates)


@pytest.mark.parametrize("churn", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_dynamify_preserves_final_snapshot(churn, seed):
    config = GenConfig(
        family="erdos-renyi", n=8, p=0.4, weights="uniform-int", wmax=16.0,
        order="shuffled", seed=seed,
    )
    header, updates = generate(config)
    out_header, out_updates = dynamify(header, updates, churn, seed + 100)
    assert replay(out_header, out_updates) == replay(header, updates)


@pytest.mark.parametrize("churn", [0.0, 0.5, 1.0])
def test_dynamify_matches_the_list_search_reference(churn):
    for family in ("forest-union", "grid", "erdos-renyi"):
        for seed in range(4):
            config = GenConfig(
                family=family, n=12, nu=2, rows=3, cols=5, p=0.3,
                weights="uniform-int", wmax=16.0, order="shuffled", seed=seed,
            )
            header, updates = generate(config)
            assert dynamify(header, updates, churn, seed) == dynamify_reference(
                header, updates, churn, seed
            ), config.summary()
    rng = random.Random(f"dynamify/{churn}")
    for _ in range(100):
        n = rng.randint(2, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        pairs = rng.sample([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], m)
        header = StreamHeader(n, 4.0, INSERT_ONLY)
        updates = [StreamUpdate(INSERT, *rng.choice([(u, v), (v, u)]), float(rng.randint(1, 4)))
                   for u, v in pairs]
        seed = rng.randrange(10_000)
        assert dynamify(header, updates, churn, seed) == dynamify_reference(
            header, updates, churn, seed
        )
        # a repeated edge is refused; these draws keep the later cases as they were
        repeated = updates + rng.choices(updates, k=len(updates) // 2)
        rng.shuffle(repeated)
        if len(repeated) > len(updates):
            with pytest.raises(ParameterError, match="must not repeat an edge"):
                dynamify(header, repeated, churn, seed)
        else:
            assert dynamify(header, repeated, churn, seed) == dynamify_reference(
                header, repeated, churn, seed
            )


@pytest.mark.parametrize("churn", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_dynamify_takes_parsed_columns_as_their_list(churn, seed):
    config = GenConfig(family="erdos-renyi", n=10, p=0.4, wmax=16.0, order="shuffled", seed=seed)
    header, columns = parse_stream(serialize(*generate(config)))
    out = dynamify(header, columns, churn, seed)
    assert out == dynamify(header, list(columns), churn, seed)
    assert out == dynamify(header, iter(list(columns)), churn, seed)
    assert type(out[1]) is list and len(out[1]) == len(columns) + 2 * round(churn * len(columns))


@pytest.mark.parametrize("churn", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("repeat", [
    StreamUpdate(INSERT, 1, 2, 3.0),  # the same tuple
    StreamUpdate(INSERT, 2, 1, 3.0),  # the pair reversed
    StreamUpdate(INSERT, 1, 2, 1.0),  # the pair at another weight
])
def test_dynamify_refuses_a_repeated_edge(churn, repeat):
    header = StreamHeader(3, 4.0, INSERT_ONLY)
    updates = [StreamUpdate(INSERT, 1, 2, 3.0), StreamUpdate(INSERT, 2, 3, 1.0), repeat]
    with pytest.raises(ParameterError, match="must not repeat an edge"):
        dynamify(header, updates, churn, 1)


def test_dynamify_rejects_dynamic_input():
    from wmstream.stream_io import StreamHeader, StreamUpdate

    header = StreamHeader(2, 1.0, DYNAMIC)
    updates = [
        StreamUpdate(INSERT, 1, 2, 1.0),
        StreamUpdate("delete", 1, 2, 1.0),
    ]
    with pytest.raises(ParameterError):
        dynamify(header, updates, 0.5, 1)


# --- growth: Python calls at two sizes k ------------------------------------


def _path(k):
    """An insert-only path of k edges, built outside the profile."""
    return StreamHeader(k + 1, 1.0, INSERT_ONLY), [
        StreamUpdate(INSERT, v, v + 1, 1.0) for v in range(1, k + 1)]


# Each generator path as (row, its call at size k, two sizes, the exponent of
# k that its Python call count grows by, why). cProfile's count is exact, so
# log(calls ratio) / log(k ratio) lands within 0.1 of the exponent at these
# sizes. Only the two families below are quadratic, and on purpose: faster
# algorithms would change their streams per seed, so they would come as new
# families. A third quadratic path fails its linear row.
GENERATOR_GROWTH = [
    ("grid", lambda k: (generate, GenConfig("grid", rows=2, cols=k)), (500, 4000), 1,
     "2k vertices, 3k - 2 edges and one weight draw per edge"),
    ("dynamify churn 0.5", lambda k: (dynamify, *_path(k), 0.5, 1), (500, 4000), 1,
     "k/2 churned edges, each placed twice by a Fenwick search that makes no call"),
    ("forest-union", lambda k: (generate, GenConfig("forest-union", n=k)), (100, 400), 2,
     "quadratic by design: each spanning tree shuffles all k(k-1)/2 pairs"),
    ("erdos-renyi", lambda k: (generate, GenConfig("erdos-renyi", n=k, p=0.1)), (100, 400), 2,
     "quadratic by design: one coin per pair, and at a fixed p the 0.1 k(k-1)/2 "
     "edges each draw a weight (the coins are C calls, which cProfile files as builtins)"),
]


@pytest.mark.parametrize("row, call, sizes, exponent, why", GENERATOR_GROWTH,
                         ids=[row[0] for row in GENERATOR_GROWTH])
def test_generator_calls_grow_as_the_table_states(row, call, sizes, exponent, why):
    small, large = (python_calls(*call(k)) for k in sizes)
    growth = math.log(large / small) / math.log(sizes[1] / sizes[0])
    assert abs(growth - exponent) < 0.1, (row, why, small, large)


# --- memory: the traced peak per unit at one size ----------------------------


# Each generator path as (row, its call, its units, the bytes per unit, why):
# the traced peak per unit lies in [bytes, 1.25 * bytes). tracemalloc slows a
# call about tenfold, so each size is small, yet large enough that the fixed
# costs stay inside the 25% (forest-union reads 4.28 B a pair at n = 400).
GENERATOR_MEMORY = [
    ("forest-union", (generate, GenConfig("forest-union", n=400)), 400 * 399 // 2, 4,
     "Θ(n²) packed pairs, shuffled in place, 4 B each while their keys fit 32 bits "
     "(n < 2**16); n-sized lists and the tree come on top"),
]


@pytest.mark.parametrize("row, call, units, size, why", GENERATOR_MEMORY,
                         ids=[row[0] for row in GENERATOR_MEMORY])
def test_generator_peak_per_unit_is_as_the_table_states(row, call, units, size, why):
    per_unit = traced_peak(*call) / units
    assert size <= per_unit < 1.25 * size, (row, why, per_unit)
