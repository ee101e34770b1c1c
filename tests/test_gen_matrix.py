"""Every generator output and refusal, pinned byte for byte.

``tests/golden/gen_matrix.txt`` holds one ``key<TAB>value`` line per case:
the ``summary()`` of a config and the sha256 of ``serialize(*generate(config))``,
then the ``repr`` of each refused call and the class and message it raised.
Existing seeds keep their output, so a change to any stream or refusal fails
here and names the cases that moved. Rewrite the file only for a change that
means to alter generator output, with the command in its header.
"""

import hashlib
import sys
from itertools import product
from pathlib import Path

from wmstream import GenConfig, WmStreamError, dynamify, generate, serialize
from wmstream.stream_io import DELETE, INSERT, INSERT_ONLY, StreamHeader, StreamUpdate

GOLDEN = Path(__file__).parent / "golden" / "gen_matrix.txt"
HEADER = (
    "# generators: sha256 of serialize(*generate(config)) per config summary, then refusals\n"
    "# written by: PYTHONPATH=src python tests/test_gen_matrix.py > tests/golden/gen_matrix.txt\n"
)

# two shapes per family, each with its own wmax and alpha
SHAPES = (
    GenConfig("forest-union", n=9, nu=1),
    GenConfig("forest-union", n=12, nu=3, wmax=64.0, alpha=1.5),
    GenConfig("grid", rows=3, cols=4, wmax=10.5),
    GenConfig("grid", rows=1, cols=5, wmax=1024.0, alpha=1.0),
    GenConfig("erdos-renyi", n=10, p=0.3, wmax=64.0, alpha=0.5),
    GenConfig("erdos-renyi", n=7, p=1.0),
)
WEIGHTS = ("uniform-int", "powerlaw", "constant")
ORDERS = ("as-generated", "shuffled", "heavy-first", "light-first")
CHURNS = (0.0, 0.5, 1.0)
SEEDS = (0, 7)

# fields that a family does not read may hold any value
ACCEPTED = (
    GenConfig("grid", rows=2, cols=2, n=-1, nu=0, p=7.0, weights="powerlaw"),
    GenConfig("erdos-renyi", n=4, p=0.5, nu=0, rows=-1, order="heavy-first"),
    GenConfig("forest-union", n=4, nu=2, p=-3.0, cols=-2, order="light-first"),
    GenConfig("grid", rows=1, cols=1, wmax=1.0, churn=1.0),
)

INF, NAN = float("inf"), float("nan")
REFUSED = (
    GenConfig("mystery", n=5),
    GenConfig("grid", rows=2, cols=2, weights="gaussian"),
    GenConfig("grid", rows=2, cols=2, order="random"),
    GenConfig("grid"),
    GenConfig("grid", rows=0, cols=3),
    GenConfig("grid", rows=3, cols=0),
    GenConfig("forest-union", n=0),
    GenConfig("erdos-renyi", n=-1, p=0.5),
    GenConfig("forest-union", n=5, nu=0),
    GenConfig("erdos-renyi", n=5, p=-0.1),
    GenConfig("erdos-renyi", n=5, p=1.5),
    GenConfig("erdos-renyi", n=5, p=NAN),
    GenConfig("grid", rows=2, cols=2, wmax=INF),
    GenConfig("grid", rows=2, cols=2, wmax=NAN),
    GenConfig("grid", rows=2, cols=2, wmax=0.5),
    GenConfig("grid", rows=2, cols=2, weights="powerlaw", alpha=0.0),
    GenConfig("grid", rows=2, cols=2, weights="powerlaw", alpha=-1.0),
    GenConfig("grid", rows=2, cols=2, weights="powerlaw", alpha=INF),
    GenConfig("grid", rows=2, cols=2, alpha=NAN),
    GenConfig("grid", rows=2, cols=2, churn=-0.1),
    GenConfig("grid", rows=2, cols=2, churn=1.5),
    GenConfig("grid", rows=2, cols=2, churn=NAN),
    # several errors at once: the first check in order wins
    GenConfig("mystery", weights="x", order="y"),
    GenConfig("grid", rows=2, cols=2, weights="x", order="y"),
    GenConfig("grid", rows=0, cols=2, order="y"),
    GenConfig("grid", rows=0, cols=0, wmax=INF, alpha=0.0, churn=2.0),
    GenConfig("forest-union", n=0, nu=0),
    GenConfig("forest-union", n=4, nu=0, wmax=NAN),
    GenConfig("erdos-renyi", n=0, p=2.0),
    GenConfig("erdos-renyi", n=3, p=2.0, wmax=0.0),
    GenConfig("grid", rows=2, cols=2, wmax=0.0, alpha=0.0),
    GenConfig("grid", rows=2, cols=2, alpha=0.0, churn=2.0),
)

_TWO_EDGES = (StreamHeader(4, 4.0, INSERT_ONLY),
              [StreamUpdate(INSERT, 1, 2, 1.0), StreamUpdate(INSERT, 3, 4, 4.0)])
DYNAMIFY_REFUSED = (
    ("dynamify(churn=1.5)", lambda: dynamify(*_TWO_EDGES, 1.5, 0)),
    ("dynamify(churn=-0.5)", lambda: dynamify(*_TWO_EDGES, -0.5, 0)),
    ("dynamify(churn=nan)", lambda: dynamify(*_TWO_EDGES, NAN, 0)),
    ("dynamify(delete in input)",
     lambda: dynamify(_TWO_EDGES[0], [StreamUpdate(DELETE, 1, 2, 1.0)], 0.5, 0)),
)


def configs():
    for shape, weights, order, churn, seed in product(SHAPES, WEIGHTS, ORDERS, CHURNS, SEEDS):
        yield shape._replace(weights=weights, order=order, churn=churn, seed=seed)
    yield from ACCEPTED


def _refusal(call) -> str:
    try:
        call()
    except WmStreamError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def matrix() -> dict[str, str]:
    """Case key -> digest or refusal, in file order."""
    out = {}
    for config in configs():
        out[config.summary()] = hashlib.sha256(
            serialize(*generate(config)).encode()).hexdigest()
    for config in REFUSED:
        out[f"generate({config!r})"] = _refusal(lambda: generate(config))
    for label, call in DYNAMIFY_REFUSED:
        out[label] = _refusal(call)
    assert len(out) == len(ACCEPTED) + len(REFUSED) + len(DYNAMIFY_REFUSED) + (
        len(SHAPES) * len(WEIGHTS) * len(ORDERS) * len(CHURNS) * len(SEEDS)), "duplicate key"
    return out


def render(cases: dict[str, str]) -> str:
    return HEADER + "".join(f"{key}\t{value}\n" for key, value in cases.items())


def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines if not line.startswith("#"))


def test_gen_matrix_matches_golden():
    golden, now = read_golden(), matrix()
    assert list(now) == list(golden), "the set of cases changed"
    changed = [key for key in golden if now[key] != golden[key]]
    assert not changed, "generator output or refusal changed for:\n" + "\n".join(
        f"{key}: {golden[key]} -> {now[key]}" for key in changed)


def test_gen_matrix_golden_refuses_every_refusal_case():
    golden = read_golden()
    keys = [f"generate({c!r})" for c in REFUSED] + [label for label, _ in DYNAMIFY_REFUSED]
    assert [key for key in keys if not golden[key].startswith("ParameterError: ")] == []


if __name__ == "__main__":
    sys.stdout.write(render(matrix()))
