"""Command-line harness: estimate, oracle, gen, and eval subcommands."""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
import typing
from contextlib import nullcontext

from . import generators, oracle, reduction, stream_io
from .errors import InvariantError, ParameterError, ParseError, WmStreamError
from .estimators import ESTIMATORS, EXACT_OFFLINE

CSV_COLUMNS = ["config", "epsilon", "estimator", "lambda", "estimate",
               *reduction.Verdict._fields[:6], "total_words", "status"]


def _read_stream(path: str):
    with open(path, "rb") as fh:
        return stream_io.parse_stream(fh)


def _write(content: str | typing.Iterable[str], path: str | None = None) -> None:
    """Write ``content``, one str or each str of an iterable in turn, to the
    file at ``path``, or to stdout without one."""
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as fh:
        fh.writelines([content] if isinstance(content, str) else content)


# Verdict field -> the check that `estimate --verify` names when it is the first to fail
_VERIFY_FAILURES = {"sandwich_ok": "approximation sandwich", "lemma1_ok": "lemma 1",
                    "obs_ok": "observations", "lemma2_ok": "lemma 2"}


def cmd_estimate(args) -> int:
    header, updates = _read_stream(args.stream)
    report = reduction.run(header, updates, args.epsilon, args.delta, args.estimator)
    verdict, extra = None, {}
    if args.verify:
        verdict = reduction.verify(report, stream_io.replay(header, updates))
        extra = {key: getattr(verdict, key) for key in ("oracle_mwm", "bound", "sandwich_ok")}
    _write(reduction.report_json(report, extra), args.out)
    if args.verify and not verdict.ok:
        raise InvariantError(next(f"{name} violated" for key, name in _VERIFY_FAILURES.items()
                                  if not getattr(verdict, key)))
    return 0


# `oracle --mode` name -> the exact search it runs
_ORACLE_MODES = {"mwm": oracle.exact_mwm, "mcm": oracle.exact_mcm}


def cmd_oracle(args) -> int:
    header, updates = _read_stream(args.stream)
    result = _ORACLE_MODES[args.mode](stream_io.replay(header, updates))
    payload = {"mode": args.mode, "value": result.value, "witness": list(result.witness)}
    _write(json.dumps(payload, indent=2) + "\n")
    return 0


# Each GenConfig field is a `gen` flag and a suite key of the same name.
_GEN_TYPES = typing.get_type_hints(generators.GenConfig)
_GEN_CHOICES = {
    "family": generators.FAMILIES,
    "weights": generators.WEIGHT_DISTS,
    "order": generators.ORDERS,
}


def cmd_gen(args) -> int:
    config = generators.GenConfig(*[getattr(args, name) for name in generators.GenConfig._fields])
    _write(stream_io.serialize(*generators.generate(config)), args.out)
    return 0


# --- eval suite -----------------------------------------------------------

_SUITE_KEYS = set(generators.GenConfig._fields) | {"epsilon", "delta", "estimator", "reps"}


class SuiteRow(typing.NamedTuple):
    config: generators.GenConfig
    epsilon: float
    delta: float
    estimator: str


def parse_suite(text: str | bytes) -> list[SuiteRow]:
    """Flat key=value blocks separated by blank lines; one block expands to
    ``reps`` rows with consecutive seeds."""
    text = stream_io.decode_text(text, "suite")
    rows: list[SuiteRow] = []
    block: dict[str, str] = {}

    def typed(key, kind, default=None):
        try:
            return kind(block.get(key, default))
        except ValueError:
            raise ParseError(f"bad value for suite key {key}: {block[key]!r}") from None

    def flush():
        if not block:
            return
        unknown = set(block) - _SUITE_KEYS
        if unknown:
            raise ParseError(f"unknown suite keys: {sorted(unknown)}")
        if "family" not in block or "estimator" not in block:
            raise ParseError("suite block needs at least family= and estimator=")
        estimator = block["estimator"]
        if estimator not in ESTIMATORS:
            raise ParseError(f"unknown estimator {estimator!r}")
        values = {key: typed(key, kind) for key, kind in _GEN_TYPES.items() if key in block}
        base_seed = values.pop("seed", 0)
        reps = typed("reps", int, "1")
        if reps < 1:
            raise ParseError(f"suite key reps must be >= 1, got {reps}")
        epsilon = typed("epsilon", float, "0.5")
        delta = typed("delta", float, "0.1")
        for rep in range(reps):
            config = generators.GenConfig(**values, seed=base_seed + rep)
            rows.append(SuiteRow(config, epsilon, delta, estimator))
        block.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush()
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        block[key.strip()] = value.strip()
    flush()
    return rows


def run_suite_row(row: SuiteRow) -> dict:
    """Execute one eval row; pure function of the row, safe to parallelize."""
    out = dict.fromkeys(CSV_COLUMNS, "")
    out.update({"config": row.config.summary(), "epsilon": row.epsilon, "estimator": row.estimator,
                "lambda": ESTIMATORS[row.estimator].LAM, "status": "ok", "exit_code": 0})
    try:
        header, updates = generators.generate(row.config)
        report = reduction.run(header, updates, row.epsilon, row.delta, row.estimator)
        verdict = reduction.verify(report, stream_io.replay(header, updates))
        out.update(verdict._asdict(), estimate=report.estimate, total_words=report.total_words)
        if not verdict.ok:
            out.update(status="invariant-failure", exit_code=InvariantError.exit_code)
    except WmStreamError as exc:
        out["status"] = f"error:{type(exc).__name__}"
        out["exit_code"] = exc.exit_code
    return out


def render_suite_csv(results: list[dict]) -> str:
    """Fixed-column CSV plus a max-ratio-per-(estimator, epsilon) footer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for res in results:
        writer.writerow([res[col] for col in CSV_COLUMNS])
    worst: dict[tuple[str, float], float] = {}
    for res in results:
        if res["status"] == "ok" and res["ratio"] != "":
            key = (res["estimator"], res["epsilon"])
            worst[key] = max(worst.get(key, 0.0), res["ratio"])
    for (estimator, epsilon), ratio in sorted(worst.items()):
        buf.write(f"# max_ratio estimator={estimator} epsilon={epsilon} ratio={ratio}\n")
    return buf.getvalue()


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    with open(args.suite, "rb") as fh:
        rows = parse_suite(fh.read())

    # the pool forks every worker at its first submit: no more than rows or CPUs
    workers = min(args.jobs, len(rows), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing would add start-up time to every command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_suite_row, rows))
    else:
        results = [run_suite_row(row) for row in rows]

    _write(render_suite_csv(results), args.out)

    for res in results:
        if res["exit_code"] != 0:
            sys.stderr.write(f"eval: {res['config']}: {res['status']}\n")
    codes = [res["exit_code"] for res in results if res["exit_code"] != 0]
    return codes[0] if codes else 0


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmstream",
        description="Streaming weighted-matching estimation via weight "
        "bucketing over pluggable cardinality estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate MWM weight of a stream file")
    p_est.add_argument("--stream", required=True)
    p_est.add_argument("--epsilon", type=float, required=True)
    p_est.add_argument("--delta", type=float, default=0.1)
    p_est.add_argument("--estimator", choices=ESTIMATORS, default=EXACT_OFFLINE)
    p_est.add_argument("--verify", action="store_true",
                       help="also judge the run as eval does: the exact oracle, the "
                       "sandwich and the lemma checks; a failed check exits 5")
    p_est.add_argument("--out")
    p_est.set_defaults(func=cmd_estimate)

    p_or = sub.add_parser("oracle", help="exact ground truth on a small stream")
    p_or.add_argument("--stream", required=True)
    p_or.add_argument("--mode", choices=_ORACLE_MODES, required=True)
    p_or.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a reproducible stream")
    defaults = generators.GenConfig._field_defaults
    for name, kind in _GEN_TYPES.items():
        kw = {"default": defaults[name]} if name in defaults else {"required": True}
        p_gen.add_argument(f"--{name}", type=kind, choices=_GEN_CHOICES.get(name), **kw)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_ev = sub.add_parser("eval", help="run a batch suite to a CSV report")
    p_ev.add_argument("--suite", required=True)
    p_ev.add_argument("--out")
    p_ev.add_argument("--jobs", type=int, default=1)
    p_ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector off. What a command builds
    per update or per row holds no reference cycle, so a collection would
    only walk it. The collector is turned back on, if it was on, once the
    command's frames and, on an error, its traceback are gone."""
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except WmStreamError as exc:
        sys.stderr.write(f"wmstream: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"wmstream: {exc}\n")
        return 1
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
