"""Byte-identity contract: one sha256 per output that must not change.

Report JSON and eval CSV stay byte-identical for fixed seeds unless a change
means to alter them. ``tests/golden/`` pins small inputs; this script pins
the benchmark's larger ones, where a perf change could alter a 73-level
report, Pareto weights or churned exact rows unseen:

- ``eval --jobs 1`` on ``perfbench/workloads.eval_suite(seed)``, seeds 1-4;
- ``estimate`` on each seed-1 stream workload at its benchmark settings;
- ``estimate --verify`` on dynamic-window.

Each output comes from ``wmstream.cli.main`` of this checkout's ``src/``,
with the benchmark's own arguments (``workloads.cli_args``), in this
process; ``perfbench/`` is only imported. It is not part of tier-1 (it
takes about 10 s), but ``tests/test_contract.py`` is: it recomputes the
seed-1 eval digest and compares it with the file. Run it by hand from the
repository root, and commit its output:

    python tests/contract.py > tests/golden/contract.txt

A change that claims byte-identical outputs reruns it and shows no diff:

    python tests/contract.py | diff tests/golden/contract.txt -

A change that alters an output on purpose commits the new file and names
each changed line. The exit code is 1 if a command exits with a nonzero code.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read-only)

from wmstream.cli import main as cli_main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "contract.txt"
EVAL_SEEDS = (1, 2, 3, 4)
STREAM_WORKLOADS = ("insert-uniform", "insert-heavytail", "dynamic-window")
HEADER = (
    "# sha256 of each output that must stay byte-identical: output<TAB>digest\n"
    "# written by: python tests/contract.py > tests/golden/contract.txt\n"
    "# The digests pin Python 3.11.7: random's streams and float repr make them\n"
    "# reproducible, and another interpreter may give other bytes.\n"
)


def digest(name: str, seed: int, extra: tuple[str, ...] = ()) -> str:
    """The sha256 of what the CLI writes for perfbench workload ``name`` at
    ``seed``, with ``extra`` arguments after the benchmark's own."""
    spec = workloads.build(name, seed)
    with tempfile.TemporaryDirectory(prefix="wmstream-contract-") as tmp:
        paths = workloads.write_inputs(spec, Path(tmp))
        out = Path(tmp) / "out"
        code = cli_main([*workloads.cli_args(spec, paths["input"], out), *extra])
        if code != 0:
            raise SystemExit(f"{name} seed {seed} {' '.join(extra)}: exit code {code}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def outputs():
    """(label, name, seed, extra arguments) for every pinned output."""
    for seed in EVAL_SEEDS:
        yield f"eval seed={seed}", "eval-verify", seed, ()
    for name in STREAM_WORKLOADS:
        yield f"estimate {name} seed=1", name, 1, ()
    yield "estimate --verify dynamic-window seed=1", "dynamic-window", 1, ("--verify",)


def pinned() -> dict[str, str]:
    """The committed digests, by label."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines if not line.startswith("#"))


def main() -> int:
    sys.stdout.write(HEADER)
    for label, name, seed, extra in outputs():
        sys.stdout.write(f"{label}\t{digest(name, seed, extra)}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
