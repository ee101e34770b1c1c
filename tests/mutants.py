"""Mutation gate: how hard the tests are to fool.

Each mutant replaces one exact text, which must occur once in its file under
``src/wmstream/``, and names the test files that must kill it. The script
copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` into a
temporary directory, checks that the unmutated copy passes every named test
file, then applies each mutant to the copy in turn and runs ``pytest -x -q``
on its test files there. pytest runs inside the copy because
``pyproject.toml`` puts its own ``src`` first on the path; a ``PYTHONPATH``
pointing at the copy would come after the repository's ``src``. Hypothesis
runs with a fixed seed and no example database, so a verdict does not
depend on earlier runs.

It is not part of tier-1 (a full run takes a few minutes), but
``tests/test_mutants.py`` is: it checks that each text still occurs once, so
a change that strands a mutant fails the suite. Run this script by hand
from the repository root and commit the kill matrix it prints:

    python tests/mutants.py > tests/golden/mutants.txt

Names given as arguments, ``python tests/mutants.py NAME_PREFIX ...``,
run only the mutants whose names start with one of them (``mcm.`` rechecks
``exact_mcm``'s leaf and its fallback in about 20 s); the committed matrix is
the full run's.
Progress goes to stderr. The exit code is 1 if the unmutated copy fails, a
mutant's text is not found exactly once, or a mutant survives that is not
marked equivalent; an equivalent mutant carries the reason why no test can
kill it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HEADER = (
    "# kill matrix: mutant<TAB>verdict<TAB>test files (equivalent survivors: why)\n"
    "# written by: python tests/mutants.py > tests/golden/mutants.txt\n"
)


class Mutant(NamedTuple):
    name: str
    path: str  # under src/wmstream/
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no test can tell it apart, for a known survivor


MUTANTS = (
    # the report's one spelling
    Mutant("report.level-s_hat-m_hat-swapped", "reduction.py",
           '"s_hat": {s_hat!r},\\n      "m_hat": {m_hat!r}',
           '"s_hat": {m_hat!r},\\n      "m_hat": {s_hat!r}', ("test_reduction.py",)),
    Mutant("report.head-key-renamed", "reduction.py",
           '"total_words": report.total_words', '"total_word": report.total_words',
           ("test_reduction.py",)),
    Mutant("report.extra-keys-dropped", "reduction.py",
           '("," + json.dumps(extra, indent=2)[1:] if extra else "\\n}")', '"\\n}"',
           ("test_reduction.py",)),
    # the block reader and the blank/comment rule
    Mutant("reader.readline-dropped", "stream_io.py",
           "        piece += source.readline()\n", "", ("test_stream_io.py",)),
    Mutant("reader.offset-not-advanced", "stream_io.py",
           "        offset += len(piece)\n", "", ("test_stream_io.py",)),
    Mutant("header.comment-is-only-a-lone-hash", "stream_io.py",
           'if parts and not parts[0].startswith("#"):', 'if parts and not parts[0] == "#":',
           ("test_stream_io.py",)),
    Mutant("records.comment-tested-on-the-raw-line", "stream_io.py",
           'if not parts or parts[0].startswith("#"):', 'if not parts or raw.startswith("#"):',
           ("test_stream_io.py",)),
    Mutant("records.split-on-spaces-only", "stream_io.py",
           "        parts = raw.split()\n        if len(parts) != 4",
           '        parts = raw.split(" ")\n        if len(parts) != 4', ("test_stream_io.py",)),
    Mutant("records.error-quotes-the-unstripped-line", "stream_io.py",
           'raise ParseError(f"bad update {raw.strip()!r}", lineno)',
           'raise ParseError(f"bad update {raw!r}", lineno)', ("test_stream_io.py",)),
    # the parser's range checks
    Mutant("parser.vertex-above-n-accepted", "stream_io.py",
           "if not (1 <= u <= n and 1 <= v <= n):", "if not (1 <= u <= n and 1 <= v <= n + 1):",
           ("test_stream_io.py",)),
    Mutant("parser.vertex-0-accepted", "stream_io.py",
           "if not (1 <= u <= n and 1 <= v <= n):", "if not (0 <= u <= n and 1 <= v <= n):",
           ("test_stream_io.py",)),
    Mutant("parser.weight-above-wmax-accepted", "stream_io.py",
           "if not 1.0 <= w <= wmax:", "if not 1.0 <= w:", ("test_stream_io.py",)),
    Mutant("parser.weight-as-two-comparisons", "stream_io.py",
           "if not 1.0 <= w <= wmax:", "if w < 1.0 or w > wmax:", ("test_stream_io.py",)),
    Mutant("parser.self-loop-accepted", "stream_io.py",
           "        if u == v:\n", "        if False:\n", ("test_stream_io.py",)),
    # the typed columns that hold the parsed updates
    Mutant("columns.typecode-threshold-off-by-one", "stream_io.py",
           "if top < 1 << 8 * array(code).itemsize:", "if top <= 1 << 8 * array(code).itemsize:",
           ("test_stream_io.py",)),
    Mutant("columns.delete-marked-as-insert", "stream_io.py",
           "            mark(0)\n", "            mark(1)\n", ("test_stream_io.py",)),
    # the plain path: run and _live_edges read parsed columns as plain tuples
    Mutant("plain.op-codes-unmapped", "stream_io.py",
           "ops = map(_OPS.__getitem__, ops)", "ops = iter(ops)", ("test_bench_interface.py",)),
    Mutant("plain.op-map-reversed", "stream_io.py",
           "map(_OPS.__getitem__, ops)", "map(_OPS[::-1].__getitem__, ops)",
           ("test_bench_interface.py",)),
    Mutant("plain.u-column-zipped-twice", "stream_io.py",
           "zip(ops, updates._u, updates._v, updates._w)",
           "zip(ops, updates._u, updates._u, updates._w)", ("test_bench_interface.py",)),
    Mutant("plain.run-reads-the-records", "reduction.py",
           "for op, u, v, w in _plain_updates(updates):", "for op, u, v, w in updates:",
           ("test_bench_interface.py",)),
    Mutant("plain.replay-reads-the-records", "stream_io.py",
           "for op, u, v, w in _plain_updates(updates):", "for op, u, v, w in updates:",
           ("test_bench_interface.py",)),
    # the multiset rules in their two homes: inline in the parse's loop, and
    # in _live_edges for replay
    Mutant("multiset.parse.weight-mismatch-unchecked", "stream_io.py",
           "            if inserted != w:\n                raise StreamError(\n"
           "                    f\"delete weight {w} != inserted weight {inserted} \"\n"
           "                    f\"for edge {divmod",
           "            if False:\n                raise StreamError(\n"
           "                    f\"delete weight {w} != inserted weight {inserted} \"\n"
           "                    f\"for edge {divmod", ("test_stream_io.py",)),
    Mutant("multiset.parse.duplicate-insert-accepted", "stream_io.py",
           "if key in present:\n                raise StreamError(f\"duplicate insert of edge {divmod",
           "if False:\n                raise StreamError(f\"duplicate insert of edge {divmod",
           ("test_stream_io.py",)),
    Mutant("multiset.parse.absent-delete-accepted", "stream_io.py",
           "popped(key, None)", "popped(key, w)", ("test_stream_io.py",)),
    Mutant("multiset.parse.delete-gets-and-keeps", "stream_io.py",
           "popped = present.pop", "popped = present.get", ("test_stream_io.py",)),
    Mutant("multiset.parse.key-packed-unordered", "stream_io.py",
           "key = u * size + v if u < v else v * size + u", "key = u * size + v",
           ("test_stream_io.py",)),
    # an insert-only stream's repeats: its keys bucketed, sorted and scanned
    # after the pass, and looked for again before a ParseError from the pass
    Mutant("multiset.parse.insert-only-repeat-unchecked", "stream_io.py",
           "        if any(map(eq, keys, islice(keys, 1, None))):\n"
           "            _live_edges(header, records)\n", "", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-bucket-left-unsorted", "stream_io.py",
           "map(sorted, buckets)", "map(list, buckets)", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-last-bucket-skipped", "stream_io.py",
           "map(sorted, buckets)", "map(sorted, buckets[:-1])", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-bucket-by-high-bits", "stream_io.py",
           "into[key % 251](key)", "into[key * 251 // (n * size)](key)", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-bucket-by-low-bits", "stream_io.py",
           "into[key % 251](key)", "into[(key & 255) % 251](key)", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-keys-compared-two-apart", "stream_io.py",
           "islice(keys, 1, None)", "islice(keys, 2, None)", ("test_stream_io.py",)),
    Mutant("multiset.parse.insert-only-keys-in-the-dict", "stream_io.py",
           "if insert_only:\n                into[key % 251](key)",
           "if False:\n                into[key % 251](key)", ("test_stream_io.py",)),
    Mutant("multiset.parse.repeat-unchecked-before-a-parse-error", "stream_io.py",
           "        if header.model == INSERT_ONLY:  # a repeat on an earlier line wins\n"
           "            _live_edges(header, records)\n", "", ("test_stream_io.py",)),
    Mutant("multiset.replay.weight-mismatch-unchecked", "stream_io.py",
           "            if inserted != w:\n                raise StreamError(\n"
           "                    f\"delete weight {w} != inserted weight {inserted} \"\n"
           "                    f\"for edge {(u, v)}",
           "            if False:\n                raise StreamError(\n"
           "                    f\"delete weight {w} != inserted weight {inserted} \"\n"
           "                    f\"for edge {(u, v)}", ("test_stream_io.py",)),
    Mutant("multiset.replay.duplicate-insert-accepted", "stream_io.py",
           "if key in present:\n                raise StreamError(f\"duplicate insert of edge {(u, v)}",
           "if False:\n                raise StreamError(f\"duplicate insert of edge {(u, v)}",
           ("test_stream_io.py",)),
    Mutant("multiset.replay.delete-gets-and-keeps", "stream_io.py",
           "present.pop(key, None)", "present.get(key)", ("test_stream_io.py",)),
    # main's one collector pause, around the command
    Mutant("main.collector-left-on", "cli.py",
           "    gc.disable()\n", "", ("test_cli.py",)),
    Mutant("main.collector-never-restored", "cli.py",
           "        if collecting:\n            gc.enable()\n", "        pass\n",
           ("test_cli.py",)),
    # one home per validation rule: each predicate and message, and each
    # raise site of the weight-range and edge words, which parity tests pin
    Mutant("rules.n-bound-at-0", "stream_io.py",
           "and n >= 1 else", "and n >= 0 else", ("test_schedule.py",)),
    Mutant("rules.n-type-test-dropped", "stream_io.py",
           "isinstance(n, int) and ", "", ("test_schedule.py",)),
    Mutant("rules.wmax-finiteness-dropped", "schedule.py",
           "math.isfinite(wmax) and wmax >= 1.0", "wmax >= 1.0", ("test_schedule.py",)),
    Mutant("rules.wmax-bound-strict", "schedule.py",
           "and wmax >= 1.0", "and wmax > 1.0", ("test_schedule.py",)),
    Mutant("rules.wmax-type-test-dropped", "schedule.py",
           "isinstance(wmax, (int, float)) and ", "", ("test_generators.py",)),
    Mutant("rules.epsilon-upper-bound-open", "schedule.py",
           "0.0 < epsilon <= 1.0", "0.0 < epsilon < 1.0", ("test_schedule.py",)),
    Mutant("rules.epsilon-lower-bound-closed", "schedule.py",
           "0.0 < epsilon <= 1.0", "0.0 <= epsilon <= 1.0", ("test_schedule.py",)),
    Mutant("rules.n-message", "stream_io.py",
           'f"n must be >= 1, got {n!r}"', 'f"n must be at least 1, got {n!r}"',
           ("test_schedule.py",)),
    Mutant("rules.wmax-message-unquoted", "schedule.py",
           "got {wmax!r}", "got {wmax}", ("test_schedule.py",)),
    Mutant("rules.epsilon-message-unquoted", "schedule.py",
           "got {epsilon!r}", "got {epsilon}", ("test_schedule.py",)),
    Mutant("rules.weight-message-in-parser", "stream_io.py",
           'outside [1, {wmax}]"', 'outside [1, {wmax})"', ("test_schedule.py",)),
    Mutant("rules.weight-message-in-top-level", "schedule.py",
           'outside [1, {schedule.wmax}]"', 'outside [1, {schedule.wmax})"',
           ("test_schedule.py",)),
    Mutant("rules.edge-message-in-replay", "stream_io.py",
           '"edge ({u}, {v}) is a self-loop', '"edge ({v}, {u}) is a self-loop',
           ("test_estimators.py",)),
    Mutant("rules.edge-message-in-update", "estimators.py",
           '"edge ({u}, {v}) is a self-loop', '"edge ({v}, {u}) is a self-loop',
           ("test_estimators.py",)),
    Mutant("rules.edge-order-swap-dropped-in-update", "estimators.py",
           "    if u > v:\n        u, v = v, u\n", "", ("test_estimators.py",)),
    # the three overflow refusals
    Mutant("schedule.overflowed-threshold-kept", "schedule.py",
           "if top == math.inf:", "if False:", ("test_schedule.py",)),
    Mutant("combine.overflowed-estimate-kept", "reduction.py",
           "if not math.isfinite(a_next):", "if False:", ("test_reduction.py",)),
    Mutant("oracle.overflowed-matching-weight-kept", "oracle.py",
           "if value == math.inf:", "if False:", ("test_oracle.py",)),
    # the schedule and level routing
    Mutant("schedule.level-past-the-one-reaching-wmax", "schedule.py",
           "while top < wmax:", "while top <= wmax:", ("test_schedule.py",)),
    Mutant("schedule.cap-one-level-late", "schedule.py",
           "if levels == MAX_LEVELS:", "if levels == MAX_LEVELS + 1:", ("test_schedule.py",)),
    Mutant("schedule.cap-one-level-early", "schedule.py",
           "if levels == MAX_LEVELS:", "if levels == MAX_LEVELS - 1:", ("test_schedule.py",)),
    Mutant("schedule.one-threshold-short", "schedule.py",
           "repeat(step, levels)", "repeat(step, levels - 1)", ("test_schedule.py",)),
    # the byte-identity contract: one threshold one ulp up changes an eval digest
    Mutant("contract.one-threshold-last-bit", "schedule.py",
           "initial=1.0))\n",
           "initial=1.0))\n    thresholds = (*thresholds[:1],"
           " *(math.nextafter(t, math.inf) for t in thresholds[1:2]), *thresholds[2:])\n",
           ("test_contract.py",)),
    Mutant("top_level.bisect_left", "schedule.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
           ("test_schedule.py",)),
    Mutant("run.bisect_left", "reduction.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
           ("test_reduction.py",)),
    Mutant("run.unchecked-weight", "reduction.py",
           "if not 1.0 <= w <= wmax:", "if False:", ("test_reduction.py",)),
    # combine and the checks
    Mutant("combine.no-2-times-b", "reduction.py",
           "math.ceil(m_hat - 2 * b_next)", "math.ceil(m_hat - b_next)", ("test_reduction.py",)),
    Mutant("combine.int-for-ceil", "reduction.py",
           "math.ceil(m_hat - 2 * b_next)", "int(m_hat - 2 * b_next)", ("test_reduction.py",)),
    Mutant("lemma1.strict-b", "reduction.py",
           "st.b <= math.ceil(st.m_hat)", "st.b < math.ceil(st.m_hat)", ("test_reduction.py",)),
    Mutant("lemma1.strict-m_hat", "reduction.py",
           "st.m_hat <= 2 * st.b", "st.m_hat < 2 * st.b", ("test_reduction.py",)),
    Mutant("sandwich.lower-slack-sign", "reduction.py",
           "1.0 - REL_SLACK <= ratio", "1.0 + REL_SLACK <= ratio", ("test_reduction.py",)),
    Mutant("sandwich.upper-slack-sign", "reduction.py",
           "ratio <= bound * (1.0 + REL_SLACK)", "ratio <= bound * (1.0 - REL_SLACK)",
           ("test_reduction.py",)),
    Mutant("observations.b-unchecked", "reduction.py",
           "        if st.b != b_sum:\n", "        if False:\n", ("test_reduction.py",)),
    Mutant("observations.a-unchecked", "reduction.py",
           "if abs(st.a - a_sum) > REL_SLACK * max(1.0, abs(a_sum)):", "if False:",
           ("test_reduction.py",)),
    Mutant("lemma2.free-edges-uncounted", "reduction.py",
           "if len(free) < st.delta_count:", "if False:", ("test_reduction.py",)),
    Mutant("lemma2.upper-half-dropped", "reduction.py",
           "if sum(1 for w in matching_weights if w >= t) > 2 * lam * st.b:", "if False:",
           ("test_reduction.py",)),
    Mutant("lemma2.weight-unchecked", "reduction.py",
           "return sum(picked) >= report.estimate * (1.0 - REL_SLACK)", "return True",
           ("test_reduction.py",)),
    Mutant("lemma2.per-level-count-unchecked", "reduction.py",
           "if len(picked) < st.b:", "if False:", ("test_reduction.py",)),
    Mutant("lemma2.level-edges-strictly-heavier", "reduction.py",
           "for e in snapshot.edges if e[2] >= t)", "for e in snapshot.edges if e[2] > t)",
           ("test_reduction.py",)),
    Mutant("lemma2.upper-half-without-2", "reduction.py",
           "> 2 * lam * st.b:", "> lam * st.b:", ("test_reduction.py",)),
    Mutant("lemma2.lambda-fixed-at-2", "reduction.py",
           "lam = ESTIMATORS[report.estimator].LAM", "lam = 2.0", ("test_reduction.py",)),
    Mutant("lemma2.cap-unchecked", "reduction.py",
           "    check_oracle_cap(snapshot.edges)\n    lam", "    lam", ("test_reduction.py",)),
    Mutant("lemma2.maximal-level-matching", "reduction.py",
           "exact_mcm(level).witness",
           '__import__("functools").reduce(lambda ms, e: ms if {e[0], e[1]} & '
           '{x for f in ms for x in f[:2]} else ms + [e], level.edges, [])',
           ("test_reduction.py",)),
    # the estimators
    Mutant("exact.key-packed-unordered", "estimators.py",
           "key = u * size + v if u < v else v * size + u", "key = u * size + v",
           ("test_estimators.py",)),
    Mutant("exact.key-width-n", "estimators.py",
           "size, width = self.n + 1, self._width", "size, width = self.n, self._width",
           ("test_estimators.py",)),
    Mutant("exact.key-decoded-at-width-n", "estimators.py",
           "(*divmod(key, self.n + 1), 1.0)", "(*divmod(key, self.n), 1.0)",
           ("test_estimators.py",)),
    Mutant("exact.no-guard-bit", "estimators.py",
           "(n * (n - 1) // 2).bit_length() + 1", "(n * (n - 1) // 2).bit_length()",
           ("test_estimators.py",)),
    Mutant("greedy.bit-counts-wrong-bit", "estimators.py",
           "(columns[i >> 3] >> (i & 7) & ones)", "(columns[i >> 3] >> (i % 7) & ones)",
           ("test_estimators.py",)),
    Mutant("greedy.bit-counts-keep-zero-masks", "estimators.py",
           'for m in masks if m)', 'for m in masks)', ("test_estimators.py",)),
    Mutant("greedy.one-level-short", "estimators.py",
           "new = ((2 << top) - 1)", "new = ((1 << top) - 1)", ("test_estimators.py",)),
    Mutant("exact.words-without-the-gap", "estimators.py",
           "len(level) + (self._gap >> i * width & field)", "len(level)",
           ("test_estimators.py",)),
    Mutant("exact.gap-read-one-field-up", "estimators.py",
           "(self._gap >> i * width & field)", "(self._gap >> (i + 1) * width & field)",
           ("test_estimators.py",)),
    Mutant("exact.prefix-shift-one-over", "estimators.py",
           "self._ones >> (self.levels - top) * width",
           "self._ones >> (self.levels - top + 1) * width", ("test_estimators.py",)),
    Mutant("exact.prefix-shift-one-under", "estimators.py",
           "self._ones >> (self.levels - top) * width",
           "self._ones >> (self.levels - top - 1) * width", ("test_estimators.py",)),
    Mutant("exact.guard-one-bit-low", "estimators.py",
           "guards = ones << width - 1", "guards = ones << width - 2", ("test_estimators.py",)),
    Mutant("exact.delete-leaves-the-gap", "estimators.py",
           "self._gap += ones", "pass", ("test_estimators.py",)),
    Mutant("exact.cap-unchecked-up-front", "estimators.py",
           "check_oracle_cap(self._edges)  # level 0", "pass  # level 0", ("test_estimators.py",)),
    Mutant("exact.skip-one-below-the-ceiling", "estimators.py",
           "if value < len(ends) // 2:", "if value < len(ends) // 2 - 1:",
           ("test_estimators.py",)),
    Mutant("exact.no-ceiling-skip", "estimators.py",
           "if value < len(ends) // 2:", "if True:", ("test_estimators.py",)),
    # dynamify's indexed placement
    Mutant("dynamify.gap-offset-one-over", "generators.py",
           "gaps[g].insert(j - before - 1, upd)", "gaps[g].insert(j - before, upd)",
           ("test_generators.py",)),
    Mutant("dynamify.reinsert-bound-one-short", "generators.py",
           "j2 = rng.randint(j1 + 1, size + 1)", "j2 = rng.randint(j1 + 1, size)",
           ("test_generators.py",)),
    Mutant("dynamify.repeated-edge-accepted", "generators.py",
           "if len({(min(u, v), max(u, v)) for _, u, v, _ in updates}) < len(updates):",
           "if False:", ("test_generators.py",)),
    # the generated graphs
    Mutant("grid.last-row-unlinked", "generators.py",
           "if v + cols <= n:", "if v + cols < n:", ("test_generators.py",)),
    Mutant("grid.row-ends-linked", "generators.py",
           "if v % cols:", "if True:", ("test_generators.py",)),
    Mutant("forest.duplicates-kept", "generators.py",
           "list(dict.fromkeys(chain.from_iterable(trees)))", "list(chain.from_iterable(trees))",
           ("test_generators.py",)),
    # the exact searches
    Mutant("mwm.frontier-ties-by-value-alone", "oracle.py",
           "                if old is None or state > old:\n                    nxt[key] = state\n"
           "                if not",
           "                if old is None or state[0] > old[0]:\n"
           "                    nxt[key] = state\n                if not", ("test_oracle.py",)),
    Mutant("mwm.copy-layer-at-a-departure", "oracle.py",
           "if keep == later[idx]:", "if True:", ("test_oracle.py",)),
    # exact_mcm's greedy leaf and its fallback to the dynamic program
    Mutant("mcm.leaf-one-below-the-ceiling", "oracle.py",
           "if len(leaf) == len(ends) // 2:", "if len(leaf) >= len(ends) // 2 - 1:",
           ("test_oracle.py",)),
    Mutant("mcm.leaf-tests-one-end", "oracle.py",
           "if u not in used and v not in used:", "if v not in used:", ("test_oracle.py",)),
    Mutant("mcm.cap-only-in-the-dp", "oracle.py",
           "    check_oracle_cap(snapshot.edges)\n    unit", "    unit", ("test_oracle.py",)),
    Mutant("mcm.fallback-value-a-float", "oracle.py",
           "OracleResult(int(value), witness)", "OracleResult(value, witness)",
           ("test_oracle.py",)),
    # the one verdict and its two readers
    Mutant("verdict.sandwich-dropped", "reduction.py",
           "lemma1_ok and obs_ok and lemma2_ok and sandwich_ok",
           "lemma1_ok and obs_ok and lemma2_ok", ("test_cli.py",)),
    Mutant("verdict.lemma1-dropped", "reduction.py",
           "lemma1_ok and obs_ok and lemma2_ok and sandwich_ok",
           "obs_ok and lemma2_ok and sandwich_ok", ("test_cli.py",)),
    Mutant("verdict.observations-dropped", "reduction.py",
           "lemma1_ok and obs_ok and lemma2_ok and sandwich_ok",
           "lemma1_ok and lemma2_ok and sandwich_ok", ("test_cli.py",)),
    Mutant("verdict.lemma2-dropped", "reduction.py",
           "lemma1_ok and obs_ok and lemma2_ok and sandwich_ok",
           "lemma1_ok and obs_ok and sandwich_ok", ("test_cli.py",)),
    Mutant("eval.verdict-ignored", "cli.py",
           "        if not verdict.ok:\n", "        if False:\n", ("test_cli.py",)),
    Mutant("estimate.verify-verdict-dropped", "cli.py",
           "if args.verify and not verdict.ok:", "if False:", ("test_cli.py",)),
    Mutant("estimate.verify-reads-the-sandwich-alone", "cli.py",
           "if args.verify and not verdict.ok:", "if args.verify and not verdict.sandwich_ok:",
           ("test_cli.py",)),
)


def pytest_fails(copy: Path, tests) -> bool:
    """Whether ``pytest -x -q`` fails on the named test files inside ``copy``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *(f"tests/{name}" for name in tests)]
    try:
        code = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=600).returncode
    except subprocess.TimeoutExpired:  # a mutant that hangs is caught too
        code = -1
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return code != 0


def main(prefixes) -> int:
    mutants = [m for m in MUTANTS if not prefixes or m.name.startswith(tuple(prefixes))]
    if not mutants:
        sys.stderr.write(f"no mutant name starts with {' or '.join(prefixes)}\n")
        return 1
    with tempfile.TemporaryDirectory(prefix="wmstream-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "perfbench", copy / "perfbench",  # test_contract.py reads it
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        all_tests = sorted({name for m in mutants for name in m.tests})
        if pytest_fails(copy, all_tests):
            sys.stderr.write(f"the unmutated copy fails {' '.join(all_tests)}\n")
            return 1
        lines, bad = [], 0
        for m in mutants:
            target = copy / "src" / "wmstream" / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                sys.stderr.write(f"{m.name}: its text occurs {original.count(m.old)} times\n")
                return 1
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                killed = pytest_fails(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "killed" if killed else "survived"
            line = f"{m.name}\t{verdict}\t{' '.join(m.tests)}"
            if not killed:
                if m.equivalent:
                    line += f"\tequivalent: {m.equivalent}"
                else:
                    bad += 1
            lines.append(line + "\n")
            sys.stderr.write(f"{line}\t{time.perf_counter() - started:.1f} s\n")
        sys.stdout.write(HEADER + "".join(lines))
        return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
