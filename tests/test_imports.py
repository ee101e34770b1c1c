"""The package's module graph: each module's imports from its siblings, read
with ``ast`` from the source, against a table that gives the reason for each
one. A new dependency fails here until the table names why it is needed;
``oracle`` in particular depends on nothing but the error classes, so that
it can be reworked without touching the stream format.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wmstream"

# module -> {sibling it imports from: why}
ALLOWED = {
    "__init__": {
        "errors": "exports the error classes",
        "estimators": "exports the estimator registry and factory",
        "generators": "exports the generator config and its two calls",
        "oracle": "exports the exact searches",
        "reduction": "exports run, combine, the checks and the verdict",
        "schedule": "exports the level schedule",
        "stream_io": "exports the stream records, parse, replay and serialize",
    },
    "cli": {
        "errors": "maps each error class to its exit code",
        "estimators": "lists the estimator names for --estimator and suites",
        "generators": "gen and eval build streams from a GenConfig",
        "oracle": "oracle --mode runs one exact search",
        "reduction": "estimate and eval run the reduction and its verdict",
        "stream_io": "reads, replays and writes streams",
    },
    "errors": {},
    "estimators": {
        "errors": "refuses bad updates, kinds, capabilities and sizes",
        "oracle": "the exact estimator asks the oracle per level",
        "stream_io": "the op names, the n rule and the edge words",
    },
    "generators": {
        "errors": "refuses bad configs and sizes",
        "schedule": "the wmax rule",
        "stream_io": "builds stream records; the n rule and the packed-pair column",
    },
    "oracle": {
        "errors": "refuses edge sets past its cap and weights past the float range",
    },
    "reduction": {
        "errors": "refuses bad delta, estimates and overflows",
        "estimators": "one estimator per run; each estimator's lambda",
        "oracle": "verify and lemma 2 judge a run by the exact searches",
        "schedule": "the level schedule and the weight refusal",
        "stream_io": "reads parsed columns as plain tuples",
    },
    "schedule": {
        "errors": "refuses bad epsilon, wmax and weights, and too many levels",
    },
    "stream_io": {
        "errors": "refuses malformed streams and multiset faults",
        "schedule": "the wmax rule and the weight words",
    },
}


def sibling_imports(path: Path) -> set[str]:
    """The siblings that ``path`` imports from: ``from .x import ...`` gives
    x, and ``from . import x, y`` gives x and y."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_each_module_imports_only_the_siblings_its_table_entry_names():
    got = {path.stem: sibling_imports(path) for path in SRC.glob("*.py")}
    assert got == {module: set(why) for module, why in ALLOWED.items()}
