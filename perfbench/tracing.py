"""In-process traced run: spans around the calls into each wmstream module.

The tracer wraps, from outside, every public module-level function and every
public method of each layer module (``stream_io``, ``schedule``, ``reduction``,
``estimators``, ``oracle``, ``generators``, ``cli``), rebinding each name
everywhere the package refers to it. Each call records a span (id, parent,
name, start, end) in memory; per-name call counts, total and child time are
kept for every call, and self time is total minus child time. Spans are
written to a JSON file when the run ends.

Two per-update methods are not wrapped: the per-level estimator ``update``
(about 63 calls per update on insert-uniform, where a wrapper would cost more
than the call) and ``StreamUpdate.pair``. Their time stays in the caller's
self time; ``estimators.update_s`` measures the per-level updates in a pass of
their own that feeds each level directly, and an untimed counting pass gives
the exact number of estimator calls per update.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import json
import math
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import cli_args, eval_suite

LAYERS = ("stream_io", "schedule", "reduction", "estimators", "oracle", "generators", "cli")
HOT_METHODS = {"update", "pair"}
SPAN_CAP = 100_000  # spans kept for the trace file; per-name totals are always complete
KEEP_DURATIONS = {"cli.run_suite_row"}


class Tracer:
    def __init__(self):
        self.phase = "own"
        self.spans: list[tuple] = []
        self.stats: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, total, child]
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, capture: bool = False):
        tracer = self
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                key = (tracer.phase, name)
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += frame[1]
                if keep:
                    tracer.durations[key].append(dur)
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, tracer.phase, name, start, end))
            if capture and tracer.phase == "own":
                tracer.captured[name].append((args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str, modules: dict, capture: set[str]) -> None:
        """Wrap the public callables of ``modules`` (layer name -> module) and
        rebind every module-level reference to them inside ``package``."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, capture=name in capture)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if (mname.startswith("_") or mname in HOT_METHODS
                                or not inspect.isfunction(meth)):
                            continue
                        self._patch(obj, mname, self.wrap(f"{layer}.{obj.__name__}.{mname}", meth))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        cli = modules["cli"]
        self._patch(cli, "json", _JsonProxy(self.wrap("cli.json.dumps", json.dumps)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- queries ----------------------------------------------------------

    def calls(self, phase: str, prefix: str) -> int:
        return sum(st[0] for (ph, name), st in self.stats.items()
                   if ph == phase and _matches(name, prefix))

    def total(self, phase: str, prefix: str) -> float:
        return sum(st[1] for (ph, name), st in self.stats.items()
                   if ph == phase and _matches(name, prefix))

    def self_time(self, phase: str, prefix: str) -> float:
        return sum(st[1] - st[2] for (ph, name), st in self.stats.items()
                   if ph == phase and _matches(name, prefix))

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, name), st in self.stats.items():
            out[name.split(".", 1)[0]] += st[1] - st[2]
        return out

    def write(self, path: Path) -> None:
        payload = {
            "fields": ["id", "parent", "phase", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": sum(st[0] for st in self.stats.values()) - len(self.spans),
            "totals": [
                {"phase": ph, "name": name, "calls": st[0], "total_s": st[1],
                 "self_s": st[1] - st[2]}
                for (ph, name), st in sorted(self.stats.items())
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _matches(name: str, prefix: str) -> bool:
    # "estimators.*.finalize" matches the finalize method of any estimator class
    if "*" in prefix:
        head, tail = prefix.split("*", 1)
        return name.startswith(head) and name.endswith(tail)
    return name == prefix


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` so that report
    serialisation shows up as its own span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# --- the traced run -----------------------------------------------------------


def run_traced(root: Path, spec, paths: dict, workdir: Path, seed: int, trace_path: Path) -> dict:
    """Trace one in-process CLI invocation of the workload, then the census
    and the side passes. Returns per-layer values as (value, source) pairs,
    where source says which part of the run measured it."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import wmstream
    from wmstream import cli, estimators, generators, oracle, reduction, schedule, stream_io

    modules = {"stream_io": stream_io, "schedule": schedule, "reduction": reduction,
               "estimators": estimators, "oracle": oracle, "generators": generators,
               "cli": cli}
    search = getattr(oracle, "_mwm_search", None)
    cache = getattr(search, "cache_info", None)
    if cache is not None:
        search.cache_clear()

    def cache_lookups():
        if cache is None:
            return 0, 0
        info = cache()
        return info.hits, info.hits + info.misses

    out_path = workdir / "traced.out"
    # Keep the benchmark's own objects (the workload, the references) out of
    # the collector's way, so that traced layers pay only for their own heap.
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    tracer.install(wmstream.__name__, modules, capture={"reduction.run"})
    try:
        tracer.phase = "own"
        h0, l0 = cache_lookups()
        start = perf_counter()
        with open(out_path.with_suffix(".err"), "w", encoding="utf-8") as err, \
                contextlib.redirect_stderr(err):
            code = cli.main(cli_args(spec, paths["input"], out_path))
        own_total = perf_counter() - start
        h1, l1 = cache_lookups()
        own_cache = (h1 - h0, l1 - l0)

        # Census: one call into each layer entry point the workload's own path
        # does not reach, so that every per-layer metric is measured on every
        # workload. Input: the first exact row of this seed's eval suite.
        tracer.phase = "census"
        row = next(r for r in cli.parse_suite(eval_suite(seed)) if r.estimator == "exact")
        header, updates = generators.generate(row.config)
        census_text = stream_io.serialize(header, updates)
        census_cache = (0, 0)
        census_row = None
        if spec.stream is not None:
            for _, _, rep in tracer.captured["reduction.run"]:
                reduction.check_lemma1(rep)
                reduction.check_observations(rep)
            h0, l0 = cache_lookups()
            census_row = cli.run_suite_row(row)
            h1, l1 = cache_lookups()
            census_cache = (h1 - h0, l1 - l0)
            cli.render_suite_csv([census_row])
        else:
            header, updates = stream_io.parse_stream(census_text)
            report = reduction.run(header, updates, row.epsilon, row.delta, row.estimator)
            cli.json.dumps(reduction.report_to_dict(report), indent=2)
    finally:
        tracer.uninstall()
        gc.unfreeze()
    tracer.write(trace_path)

    runs = tracer.captured["reduction.run"]
    bind = inspect.signature(reduction.run).bind
    run_args = [bind(*a, **k).arguments for a, k, _ in runs]
    reports = [r for _, _, r in runs]
    updates_total = sum(len(a["updates"]) for a in run_args)

    # Parse memory in its own pass: tracemalloc slows everything it watches.
    parse_input = (paths["input"].read_bytes() if spec.stream is not None
                   else census_text.encode("utf-8"))
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    parsed = stream_io.parse_stream(parse_input)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    parse_peak_mb = (peak - base) / 2**20
    bytes_per_update = (held - base) / max(1, len(parsed[1]))
    del parsed, parse_input

    update_s = _direct_feed(run_args, schedule, estimators)
    fanout_calls = _count_estimator_calls(run_args, reduction, estimators)

    def phase_of(prefix: str) -> str:
        return "own" if tracer.calls("own", prefix) else "census"

    def timed(prefix: str) -> tuple[float, str]:
        phase = phase_of(prefix)
        return tracer.total(phase, prefix), phase

    parse_src = phase_of("stream_io.parse_stream")
    rows_phase = phase_of("cli.run_suite_row")
    row_times = tracer.durations[(rows_phase, "cli.run_suite_row")]
    json_phase = phase_of("reduction.report_to_dict")
    report_json = (tracer.total(json_phase, "reduction.report_to_dict")
                   + tracer.total(json_phase, "cli.json.dumps"))
    cache_phase = "own" if own_cache[1] else "census"
    hits, lookups = own_cache if own_cache[1] else census_cache
    census_invariant = int(census_row is not None and census_row["status"] == "invariant-failure")

    values = {
        "stream_io.parse_s": (tracer.self_time(parse_src, "stream_io.parse_stream"), parse_src),
        "stream_io.replay_s": timed("stream_io.replay"),
        "stream_io.parse_peak_mb": (parse_peak_mb, parse_src),
        "stream_io.bytes_per_update": (bytes_per_update, parse_src),
        "schedule.levels": (max(r.schedule.levels for r in reports), "own"),
        "schedule.top_level_s": timed("schedule.top_level"),
        "reduction.route_s": timed("reduction.route_update"),
        "reduction.fanout_calls_per_update": (fanout_calls / max(1, updates_total), "own"),
        "reduction.combine_s": timed("reduction.combine"),
        "reduction.checks_s": timed("reduction.check_*"),
        "estimators.update_s": (update_s, "own"),
        "estimators.finalize_s": timed("estimators.*.finalize"),
        "estimators.total_words": (sum(r.total_words for r in reports), "own"),
        "estimators.max_level_words": (max(max(r.level_words, default=0) for r in reports), "own"),
        "oracle.exact_mwm_s": timed("oracle.exact_mwm"),
        "oracle.exact_mcm_s": timed("oracle.exact_mcm"),
        "oracle.cache_hit_ratio": (hits / lookups if lookups else 0.0, cache_phase),
        "generators.generate_s": timed("generators.generate"),
        "cli.eval_row_p50_s": (percentile(row_times, 0.5), rows_phase),
        "cli.eval_row_p98_s": (percentile(row_times, 0.98), rows_phase),
        "cli.render_csv_s": timed("cli.render_suite_csv"),
        "cli.report_json_s": (report_json, json_phase),
    }
    for layer, self_s in tracer.layer_self_times().items():
        values[f"{layer}.self_s"] = (self_s, "own+census")
    values["trace.total_s"] = (own_total, "own")
    return {
        "values": values,
        "exit_code": code,
        "out_path": out_path,
        "census_invariant_rows": census_invariant,
    }


def _direct_feed(run_args: list[dict], schedule, estimators) -> float:
    """Seconds spent feeding each level's estimator directly, without routing:
    the same per-level update calls a run makes, minus route_update."""
    total = 0.0
    for a in run_args:
        header, updates = a["header"], a["updates"]
        sched = schedule.build_schedule(a["epsilon"], header.wmax)
        delta_prime = a["delta"] / (sched.levels + 1)
        ests = [estimators.make_estimator(a["estimator_kind"], header.n, delta_prime, header.model)
                for _ in range(sched.levels + 1)]
        work = [(upd.op, upd.u, upd.v, schedule.top_level(sched, upd.w)) for upd in updates]
        start = perf_counter()
        for op, u, v, top in work:
            for i in range(top + 1):
                ests[i].update(op, u, v)
        total += perf_counter() - start
    return total


def _count_estimator_calls(run_args: list[dict], reduction, estimators) -> int:
    """Exact number of estimator ``update`` calls the runs make (untimed)."""
    count = [0]
    undo = []
    for cls in vars(estimators).values():
        if inspect.isclass(cls) and cls.__module__ == estimators.__name__ and "update" in vars(cls):
            original = vars(cls)["update"]

            def counted(self, *args, _original=original, **kwargs):
                count[0] += 1
                return _original(self, *args, **kwargs)

            undo.append((cls, original))
            cls.update = counted
    try:
        for a in run_args:
            reduction.run(**a)
    finally:
        for cls, original in undo:
            cls.update = original
    return count[0]
