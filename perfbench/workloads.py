"""Seeded, O(m) input builders for the four benchmark workloads.

Every input is derived from the benchmark's ``--seed`` alone; the program
under test only ever sees the files written here. The large streams are
built without ``wmstream.generators`` on purpose: its Erdos-Renyi family is
O(n^2), and the program must not generate its own benchmark inputs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

# insert-uniform / insert-heavytail / dynamic-window shape
N_VERTICES = 20_000
WMAX = 1024
INSERT_EDGES = 200_000
WINDOW_INSERTS = 100_000
WINDOW_LIVE = 10_000
# The exact estimator refuses more than 24 edges per level at finalize
# (oracle cap; ROADMAP item 3a), so the dynamic stream drains to 24 live edges.
WINDOW_FINAL = 24
PARETO_ALPHA = 2.0

# eval-verify: every family sits at the 24-edge oracle cap or just under it
EVAL_REPS = 20
EVAL_WMAX = 16
EVAL_FAMILIES = (
    {"family": "forest-union", "n": 13, "nu": 2, "weights": "uniform-int", "order": "shuffled"},
    {"family": "erdos-renyi", "n": 7, "p": 0.8, "weights": "uniform-int", "order": "shuffled"},
    {"family": "grid", "rows": 4, "cols": 4, "weights": "uniform-int", "order": "heavy-first"},
    {"family": "grid", "rows": 4, "cols": 4, "weights": "uniform-int", "order": "light-first"},
    {"family": "grid", "rows": 4, "cols": 4, "weights": "powerlaw", "alpha": 2.0, "order": "heavy-first"},
    {"family": "grid", "rows": 4, "cols": 4, "weights": "powerlaw", "alpha": 2.0, "order": "light-first"},
)
EVAL_EPSILONS = (0.1, 0.5)
# (estimator, churn): greedy is insert-only; exact also runs on churned streams
EVAL_MODES = (("greedy", 0.0), ("exact", 0.0), ("exact", 0.5))


@dataclass
class Stream:
    """A generated edge stream: ``updates`` holds (op, u, v, w) with op in '+-'."""

    n: int
    wmax: float
    model: str
    updates: list[tuple[str, int, int, float]]

    def header_line(self) -> str:
        return f"n {self.n} wmax {self.wmax:g} model {self.model}"

    def text(self) -> str:
        lines = [self.header_line()]
        lines.extend(f"{op} {u} {v} {w!r}" for op, u, v, w in self.updates)
        return "\n".join(lines) + "\n"


@dataclass
class Spec:
    """What a workload runs: the CLI subcommand, its flags, and its input."""

    name: str
    command: str  # "estimate" or "eval"
    epsilon: float = 0.0
    estimator: str = ""
    stream: Stream | None = None
    suite: str = ""
    rows: int = 0

    @property
    def items(self) -> int:
        """Work items per invocation: stream updates, or eval suite rows."""
        return len(self.stream.updates) if self.stream is not None else self.rows


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _distinct_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct unordered vertex pairs in random order, by rejection: O(m)
    expected while m is far below n^2 / 2."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        out.append((u, v))
    return out


def insert_uniform(seed: int) -> Stream:
    rng = _rng("insert-uniform", seed)
    pairs = _distinct_pairs(rng, N_VERTICES, INSERT_EDGES)
    updates = [("+", u, v, rng.randint(1, WMAX)) for u, v in pairs]
    return Stream(N_VERTICES, WMAX, "insert-only", updates)


def insert_heavytail(seed: int) -> Stream:
    rng = _rng("insert-heavytail", seed)
    pairs = _distinct_pairs(rng, N_VERTICES, INSERT_EDGES)
    updates = [
        ("+", u, v, min(float(WMAX), rng.paretovariate(PARETO_ALPHA))) for u, v in pairs
    ]
    return Stream(N_VERTICES, WMAX, "insert-only", updates)


def dynamic_window(seed: int) -> Stream:
    """Insert distinct edges; once more than WINDOW_LIVE are live, delete the
    oldest (FIFO); after the last insert, drain to the WINDOW_FINAL newest."""
    rng = _rng("dynamic-window", seed)
    pairs = _distinct_pairs(rng, N_VERTICES, WINDOW_INSERTS)
    live: deque[tuple[int, int, int]] = deque()
    updates: list[tuple[str, int, int, float]] = []
    for u, v in pairs:
        w = rng.randint(1, WMAX)
        updates.append(("+", u, v, w))
        live.append((u, v, w))
        if len(live) > WINDOW_LIVE:
            updates.append(("-",) + live.popleft())
    while len(live) > WINDOW_FINAL:
        updates.append(("-",) + live.popleft())
    return Stream(N_VERTICES, WMAX, "dynamic", updates)


def eval_suite(seed: int) -> str:
    """36 blocks of EVAL_REPS rows each; block seeds are disjoint per seed."""
    blocks = []
    base = seed * 10_000
    for family in EVAL_FAMILIES:
        for epsilon in EVAL_EPSILONS:
            for estimator, churn in EVAL_MODES:
                block = dict(family, wmax=EVAL_WMAX, epsilon=epsilon,
                             estimator=estimator, churn=churn,
                             seed=base + len(blocks) * EVAL_REPS, reps=EVAL_REPS)
                blocks.append("\n".join(f"{k}={v}" for k, v in block.items()))
    return "\n\n".join(blocks) + "\n"


def build(name: str, seed: int) -> Spec:
    if name == "insert-uniform":
        return Spec(name, "estimate", 0.1, "greedy", stream=insert_uniform(seed))
    if name == "insert-heavytail":
        return Spec(name, "estimate", 0.1, "greedy", stream=insert_heavytail(seed))
    if name == "dynamic-window":
        return Spec(name, "estimate", 0.5, "exact", stream=dynamic_window(seed))
    if name == "eval-verify":
        rows = len(EVAL_FAMILIES) * len(EVAL_EPSILONS) * len(EVAL_MODES) * EVAL_REPS
        return Spec(name, "eval", suite=eval_suite(seed), rows=rows)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("insert-uniform", "insert-heavytail", "dynamic-window", "eval-verify")


def write_inputs(spec: Spec, workdir: Path) -> dict[str, Path]:
    """Write the workload's input file and the matching empty set-up input."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if spec.stream is not None:
        paths["input"] = workdir / "input.stream"
        paths["input"].write_text(spec.stream.text(), encoding="utf-8")
        paths["setup"] = workdir / "header.stream"
        paths["setup"].write_text(spec.stream.header_line() + "\n", encoding="utf-8")
    else:
        paths["input"] = workdir / "suite.txt"
        paths["input"].write_text(spec.suite, encoding="utf-8")
        paths["setup"] = workdir / "empty-suite.txt"
        paths["setup"].write_text("", encoding="utf-8")
    return paths


def cli_args(spec: Spec, input_path: Path, out_path: Path) -> list[str]:
    if spec.command == "estimate":
        return ["estimate", "--stream", str(input_path), "--epsilon", repr(spec.epsilon),
                "--estimator", spec.estimator, "--out", str(out_path)]
    return ["eval", "--suite", str(input_path), "--jobs", "1", "--out", str(out_path)]
