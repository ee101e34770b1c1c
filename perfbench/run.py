"""wmstream benchmark: seeded workloads run end to end through the CLI.

    python3 perfbench/run.py --workload insert-uniform --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, every metric

Each timed invocation is a fresh ``python -m wmstream.cli`` process on the
checkout's ``src/``, so the oracle's process-wide cache and allocator state
never carry over; its peak RSS comes from ``os.wait4``. ``--trace 1`` adds an
in-process traced run (see tracing.py) and reports the per-layer metrics instead
of the end-to-end ones. Every output is checked against an independent
reference (see reference.py) in an untimed phase. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_CALLS = 7  # fresh-interpreter set-up calls per run; the median is reported
CHILD_TIMEOUT_S = 120
# CPU time of spawn.py's probe chunk on a fast, unloaded core of the machine
# the benchmark was written on (2-vCPU KVM guest on a Xeon, Python 3.11).
# Times are reported at that speed: wall x REF_PROBE_S / the probe's cost
# on the child's CPU during the call (see spawn.py and README.md).
REF_PROBE_S = 0.00062

END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "stream_io.parse_s": "s",
    "stream_io.replay_s": "s",
    "stream_io.parse_peak_mb": "MiB",
    "stream_io.bytes_per_update": "B/update",
    "schedule.levels": "count",
    "schedule.top_level_s": "s",
    "reduction.route_s": "s",
    "reduction.fanout_calls_per_update": "calls/update",
    "reduction.combine_s": "s",
    "reduction.checks_s": "s",
    "estimators.update_s": "s",
    "estimators.finalize_s": "s",
    "estimators.total_words": "words",
    "estimators.max_level_words": "words",
    "oracle.exact_mwm_s": "s",
    "oracle.exact_mcm_s": "s",
    "oracle.cache_hit_ratio": "ratio",
    "generators.generate_s": "s",
    "cli.eval_row_p50_s": "s",
    "cli.eval_row_p98_s": "s",
    "cli.render_csv_s": "s",
    "cli.report_json_s": "s",
    "cli.eval_invariant_failure_rows": "rows",
    "stream_io.self_s": "s",
    "schedule.self_s": "s",
    "reduction.self_s": "s",
    "estimators.self_s": "s",
    "oracle.self_s": "s",
    "generators.self_s": "s",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    wall_s: float
    probe_s: float
    rss_mib: float
    code: int
    out: Path

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference CPU speed (see spawn.py)."""
        return self.wall_s * REF_PROBE_S / self.probe_s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs fresh ``wmstream`` CLI processes through spawn.py, so that each
    child's wait4 peak RSS is its own and not the benchmark process's."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def invoke(self, argv: list[str], out: Path) -> Invocation:
        """One CLI call; wall time covers interpreter start to exit."""
        request = {"argv": [sys.executable, "-m", "wmstream.cli", *argv], "cwd": str(ROOT),
                   "env": child_env(), "stdout": str(out.with_suffix(".stdout")),
                   "stderr": str(out.with_suffix(".err")), "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Invocation(reply["wall_s"], reply["probe_s"], reply["maxrss_kb"] / 1024.0,
                          reply["code"], out)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def tail_percentile(values: list[float]) -> str:
    """The highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    k = n - 11  # 0-based rank with exactly ten samples above
    return f"n={n}, p{100.0 * (k + 1) / n:.1f}={sorted(values)[k]:.6g}"


class Checker:
    """Untimed verification of every output against the references."""

    def __init__(self, spec: workloads.Spec):
        self.spec = spec
        self.invariant_rows = 0
        self.problems: list[str] = []
        self._first: bytes | None = None
        self._first_failed = 0
        if spec.stream is not None:
            self.expected = reference.expected_report(spec.stream, spec.epsilon, spec.estimator)
        else:
            self.row_edges, self.row_meta = _eval_rows(spec.suite)

    def failed_items(self, code: int, out: Path) -> int:
        """Items of one invocation that count as failed."""
        spec = self.spec
        ok_codes = (0,) if spec.command == "estimate" else (0, 5)
        if code not in ok_codes or not out.is_file():
            self.problems.append(f"exit {code}: {_first_line(out.with_suffix('.err'))}")
            return spec.items
        data = out.read_bytes()
        if self._first is None:
            self._first = data
            self._first_failed = self._check_first(data.decode("utf-8"))
        elif data != self._first:
            self.problems.append("output differs from the run's first invocation")
            return spec.items
        if spec.command == "eval" and code != (5 if self.invariant_rows else 0):
            self.problems.append(f"eval exit {code} with {self.invariant_rows} invariant rows")
            return spec.items
        return self._first_failed

    def _check_first(self, text: str) -> int:
        if self.spec.stream is not None:
            problems = reference.check_report(text, self.expected)
            self.problems += problems
            return self.spec.items if problems else 0
        failed, self.invariant_rows, problems = reference.check_eval_csv(
            text, self.row_edges, self.row_meta)
        self.problems += problems
        return len(failed)

    def setup_ok(self, inv: Invocation) -> bool:
        spec = self.spec
        if inv.code != 0 or not inv.out.is_file():
            self.problems.append(f"set-up exit {inv.code}: {_first_line(inv.out.with_suffix('.err'))}")
            return False
        text = inv.out.read_text(encoding="utf-8")
        if spec.stream is not None:
            problems = reference.check_setup_report(text, spec.epsilon, float(spec.stream.wmax))
        else:
            bare_header = text.startswith("config,") and text.count("\n") == 1
            problems = [] if bare_header else ["set-up CSV is not the bare header line"]
        self.problems += problems
        return not problems


def _first_line(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip() if path.is_file() else ""
    return text.splitlines()[0] if text else ""


def _eval_rows(suite: str):
    """Each eval row's final weighted edges, regenerated the way ``eval`` does
    (the suite is the input; the graphs come from the program's generators)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from wmstream import cli, generators, stream_io

    edges, meta = [], []
    for row in cli.parse_suite(suite):
        _, updates = generators.generate(row.config)
        ops = [("+" if u.op == stream_io.INSERT else "-", u.u, u.v, u.w) for u in updates]
        edges.append(reference.final_edges(ops))
        meta.append((row.epsilon, row.estimator))
    return edges, meta


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.build(name, seed)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        paths = workloads.write_inputs(spec, workdir)
        return _measure(launcher, spec, seed, seconds, trace, paths, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(launcher, spec, seed, seconds, trace, paths, workdir) -> dict:
    def setup_call(tag):
        out = workdir / f"setup{tag}.out"
        return launcher.invoke(workloads.cli_args(spec, paths["setup"], out), out)

    setup_call("-warm")  # fills the bytecode and file caches; not timed
    setups = [setup_call(k) for k in range(SETUP_CALLS)]

    runs: list[Invocation] = []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        out = workdir / f"run{len(runs)}.out"
        runs.append(launcher.invoke(workloads.cli_args(spec, paths["input"], out), out))

    checker = Checker(spec)
    attempted = len(setups) + spec.items * len(runs)
    failed = sum(not checker.setup_ok(inv) for inv in setups)
    failed += sum(checker.failed_items(inv.code, inv.out) for inv in runs)

    walls = [inv.wall_s for inv in runs]
    throughput = [spec.items / inv.scaled_s for inv in runs]
    setup_s = statistics.median(inv.scaled_s for inv in setups)
    result = {
        "workload": spec.name,
        "seed": seed,
        "items": spec.items,
        "invocations": len(runs),
        "e2e": {
            "throughput_per_s": statistics.median(throughput),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(inv.rss_mib for inv in runs),
        },
        "detail": {
            "throughput_per_s": tail_percentile(throughput),
            "setup_s": tail_percentile([inv.scaled_s for inv in setups]),
            "peak_rss_mb": f"max {max(inv.rss_mib for inv in runs):.1f}",
            "wall_s": f"median {statistics.median(walls):.4f}; {tail_percentile(walls)}; "
                      + " ".join(f"{w:.3f}" for w in walls),
            "speed": "probe/ref " + " ".join(f"{inv.probe_s / REF_PROBE_S:.2f}" for inv in runs),
        },
    }
    if trace:
        traced = tracing.run_traced(ROOT, spec, paths, workdir, seed,
                                    WORK / f"trace-{spec.name}-{seed}.json")
        values = traced["values"]
        if spec.command == "eval":
            values["cli.eval_invariant_failure_rows"] = (checker.invariant_rows, "own")
        else:
            values["cli.eval_invariant_failure_rows"] = (traced["census_invariant_rows"], "census")
        untraced_in_process = statistics.median(walls) - statistics.median(
            inv.wall_s for inv in setups)
        values["trace.overhead_s"] = (values["trace.total_s"][0] - untraced_in_process, "own")
        attempted += spec.items
        failed += checker.failed_items(traced["exit_code"], traced["out_path"])
        result["layers"] = values
    result.update(attempted=attempted, failed=failed, problems=checker.problems[:20])
    return result


def print_report(result: dict, trace: bool) -> None:
    w = result["workload"]
    print(f"# {w} seed={result['seed']} items/invocation={result['items']} "
          f"invocations={result['invocations']}")
    for name, unit in END_TO_END.items():
        print(f"{w}  {name:<36} {result['e2e'][name]:>14.6g} {unit:<12} {result['detail'][name]}")
    frac = result["failed"] / result["attempted"]
    print(f"{w}  {'failed_frac':<36} {frac:>14.6g} {'fraction':<12} "
          f"failed={result['failed']} attempted={result['attempted']}")
    print(f"{w}  {'invocation wall':<36} {result['detail']['wall_s']}")
    print(f"{w}  {'CPU speed factor':<36} {result['detail']['speed']}")
    if trace:
        for name, unit in PER_LAYER.items():
            value, source = result["layers"][name]
            print(f"{w}  {name:<36} {value:>14.6g} {unit:<12} [{source}]")
    for problem in result["problems"]:
        print(f"{w}  PROBLEM {problem}")


def metrics_for(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": result["layers"][name][0], "unit": unit}
                for name, unit in PER_LAYER.items()}
    return {name: {"value": result["e2e"][name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wmstream" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no wmstream sources under {ROOT / 'src'}\n")
        return 2

    launcher = Launcher()
    try:
        return _run(launcher, args)
    finally:
        launcher.close()


def _run(launcher: Launcher, args) -> int:
    if args.workload == "all":
        summary = {}
        for name in workloads.WORKLOADS:
            result = run_workload(launcher, name, args.seed, args.seconds, trace=True)
            print_report(result, trace=True)
            summary[name] = {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {**metrics_for(result, False), **metrics_for(result, True)},
            }
        print(json.dumps(summary))
        return 0

    result = run_workload(launcher, args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_for(result, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
