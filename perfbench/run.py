"""holefinder benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extract-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Operations run in a closed loop from one caller: the next starts when the
previous one returns.  A run repeats whole passes over the workload's cases
until ``--seconds`` have elapsed, then checks every answer outside the timed
region.  With ``--trace 0`` it prints the end-to-end metrics, their times
corrected for the speed of the shared machine (see ``speed.py``); with
``--trace 1`` it wraps the program's public functions (see ``spans.py``),
prints the per-layer metrics for one pass, and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import ROOT as ROOT_SPAN, Recorder  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

LAYERS = ("geometry", "convexity", "holes", "extractor", "cli", "generators", "oracle")
SHARE_LAYERS = ("geometry", "convexity", "holes", "extractor", "cli")
SETUP_REPEATS = 7
# Percentiles tried for the tail, highest first; the tail is the highest one
# with at least TAIL_BEYOND operations beyond it.  Each step is a factor of
# ten in operation count, so a run one pass longer or shorter than usual
# still reports the same percentile, and whole passes keep it on the same
# case.
TAIL_PERMILLE = (999, 990, 900, 500)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_mid_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Reported with the end-to-end metrics but not bounded.  The plain median
# falls in a gap between two cases' times on some workloads (8 and 12 ms on
# extract-batch), so noise moves it from one side to the other; op_mid_ms
# is the bounded central figure.  The ratios are zero on most workloads,
# and a failure also shows in "failed" and "correct".
UNBOUNDED = (
    ("op_p50_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("unresolved_ratio", "ratio"),
)

SPAN_METRICS = (
    "geometry.max_collinear",
    "geometry.validate_points",
    "convexity.find_convex_position_subset",
    "convexity.k_minimal_convex_subset",
    "convexity.max_convex_position_subset",
    "convexity.max_strictly_convex_subset",
    "convexity.convex_hull",
    "holes.find_k_hole",
    "holes.is_hole",
    "extractor.extract",
    "cli.load_point_file",
)
COUNT_METRICS = (
    "geometry.cross",
    "convexity.cross",
    "holes.cross",
    "extractor.cross",
    "convexity.in_closed_hull",
    "holes.in_closed_triangle",
)
OUTCOMES = (
    "collinear",
    "window-harvest",
    "claim-b-empty-harvest",
    "claim-c-violation-harvest",
    "terminal-harvest",
    "oracle-fallback",
    "inconclusive",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    rows = []
    for name in SPAN_METRICS:
        rows.append((f"{name}.calls", "count", "lower"))
        rows.append((f"{name}.self_s", "s", "lower"))
        if name in ("convexity.find_convex_position_subset", "holes.find_k_hole"):
            rows.append((f"{name}.found_ratio", "ratio", "higher"))
    rows += [(f"{name}.calls", "count", "lower") for name in COUNT_METRICS]
    rows += [
        ("extractor.follower.calls", "count", "lower"),
        ("extractor.is_empty_arc.calls", "count", "lower"),
        ("extractor.restart.count", "count", "lower"),
    ]
    rows += [(f"extractor.outcome.{kind}", "count", "higher") for kind in OUTCOMES]
    rows += [
        ("cli.analyze.self_s", "s", "lower"),
        ("generators.self_s", "s", "lower"),
    ]
    rows += [(f"share.{layer}", "%", "lower") for layer in SHARE_LAYERS]
    rows.append(("trace_overhead", "ratio", "lower"))
    return rows


@dataclass
class Measurement:
    latencies_ns: list
    starts_ns: list  # perf_counter_ns at the start of each operation
    results: list  # (case index, result or exception), one per operation
    passes: int
    wall_s: float


def load_program() -> SimpleNamespace:
    """A fresh import of every holefinder module, from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "holefinder"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"holefinder.{layer}") for layer in LAYERS}
    )


def set_up(workload, seed, tiny, workdir, repeats, recorder=None):
    """Import the program and build the cases ``repeats`` times; the last
    import is the one measured.  Returns (program, cases, (start, end)
    perf_counter_ns of each set-up)."""
    spans = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        hf = load_program()
        if recorder is not None:
            recorder.install(vars(hf))
        cases = workload.build(hf, seed, tiny, workdir)
        spans.append((start, time.perf_counter_ns()))
    return hf, cases, spans


def measure(cases, seconds: float, recorder=None) -> Measurement:
    """Whole passes over ``cases`` until ``seconds`` have elapsed."""
    latencies, starts, results = [], [], []
    passes = 0
    start = time.perf_counter()
    while True:
        for index, case in enumerate(cases):
            t0 = time.perf_counter_ns()
            try:
                if recorder is None:
                    result = case.run()
                else:
                    result = recorder.run_op(len(latencies), case.run)
            except Exception as exc:  # a raising operation counts as failed
                result = exc
            latencies.append(time.perf_counter_ns() - t0)
            starts.append(t0)
            results.append((index, result))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return Measurement(latencies, starts, results, passes, time.perf_counter() - start)


def check_all(hf, workload, cases, results):
    """(failed, unresolved, first problem) over every operation's answer."""
    memo: dict = {}
    failed = unresolved = 0
    problem = None
    for index, result in results:
        case = cases[index]
        if isinstance(result, Exception):
            verdict = Verdict(False, reason=f"raised {result!r}")
        else:
            try:
                verdict = workload.check(hf, case, result, memo)
            except Exception as exc:  # a malformed answer can break a check
                verdict = Verdict(False, reason=f"check raised {exc!r}")
        failed += not verdict.ok
        unresolved += verdict.unresolved
        if not verdict.ok and problem is None:
            problem = f"{case.label}: {verdict.reason}"
    return failed, unresolved, problem


def tail(latencies_ms: list) -> tuple[float, float, int]:
    """(percentile, value, operations beyond it) of the highest percentile in
    TAIL_PERMILLE with at least TAIL_BEYOND operations beyond it; the median
    when the run is too short for any."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)  # nearest rank, in integers
        if n - rank >= TAIL_BEYOND:
            break
    return permille / 10, ordered[max(rank, 1) - 1], n - rank


def mid_mean(values: list) -> float:
    """Mean of the middle fifth of ``values``, 40th to 60th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    lo = 2 * n // 5
    return statistics.fmean(ordered[lo : max(3 * n // 5, lo + 1)])


def machine() -> str:
    return (
        f"machine={platform.machine()} cpu={platform.processor() or 'unknown'} "
        f"nproc={os.cpu_count()} python={platform.python_version()}"
    )


def end_to_end(args, workload, workdir) -> dict:
    with SpeedProbe() as probe:
        hf, cases, setup_spans = set_up(
            workload, args.seed, args.tiny, workdir, SETUP_REPEATS
        )
        m = measure(cases, args.seconds)
    failed, unresolved, problem = check_all(hf, workload, cases, m.results)
    setup_ms = [probe.correct(start, end) for start, end in setup_spans]
    op_ms = [
        probe.correct(start, start + lat)
        for start, lat in zip(m.starts_ns, m.latencies_ns)
    ]
    ops = len(op_ms)

    def times(column: int) -> dict:
        """The timing metrics from wall (0) or corrected (1) times."""
        ms = [t[column] for t in op_ms]
        n = len(cases)
        return {
            "setup_s": statistics.median(t[column] for t in setup_ms) / 1e3,
            # Median over passes, so a burst during one pass does not move it.
            "ops_per_s": statistics.median(
                n / (sum(ms[i : i + n]) / 1e3) for i in range(0, ops, n)
            ),
            "op_mid_ms": mid_mean(ms),
            "op_p50_ms": statistics.median(ms),
            "op_tail_ms": tail(ms)[1],
        }

    values = times(1) | {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": failed / ops,
        "unresolved_ratio": unresolved / ops,
    }
    pct, _, beyond = tail([t[1] for t in op_ms])
    print(
        f"# ops={ops} passes={m.passes} cases={len(cases)} wall_s={m.wall_s:.3f} "
        f"setup_repeats={SETUP_REPEATS} tail=p{pct:g} ({beyond} ops beyond)"
    )
    wall = " ".join(f"{name}={value:.6g}" for name, value in times(0).items())
    print(f"# uncorrected wall times: {wall}")
    quartiles = " ".join(f"{q:.4f}" for q in statistics.quantiles(probe.ms, n=4))
    print(f"# reference: {len(probe.ms)} samples, quartiles {quartiles} ms")
    if problem:
        print(f"# first failure: {problem}")
    for name, unit in END_TO_END + UNBOUNDED:
        print(f"{name} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": metrics}


def traced(args, workload, workdir) -> dict:
    rec = Recorder()
    hf, cases, _ = set_up(workload, args.seed, args.tiny, workdir, 1, recorder=rec)
    setup_spans = rec.span_totals(in_ops=False)
    rec.reset_counts()
    m = measure(cases, args.seconds, rec)
    rec.uninstall()
    base = measure(cases, 0)  # one untraced pass of the same cases
    answers = m.results + base.results
    failed, _, problem = check_all(hf, workload, cases, answers)

    spans = rec.span_totals(in_ops=True)
    per_pass = 1 / m.passes
    values = {}
    for name in SPAN_METRICS + ("cli.analyze",):
        calls, self_ns = spans.get(name, (0, 0))
        values[f"{name}.calls"] = calls * per_pass
        values[f"{name}.self_s"] = self_ns / 1e9 * per_pass
    for name in ("convexity.find_convex_position_subset", "holes.find_k_hole"):
        calls = spans.get(name, (0, 0))[0]
        values[f"{name}.found_ratio"] = rec.count(name + ".found") / calls if calls else 0
    for name in COUNT_METRICS:
        values[f"{name}.calls"] = rec.count(name) * per_pass
    for name in ("extractor.follower", "extractor.is_empty_arc"):
        values[f"{name}.calls"] = spans.get(name, (0, 0))[0] * per_pass
    kinds = [
        [step.kind for step in r.trace]
        for _, r in m.results
        if isinstance(r, hf.extractor.ExtractionResult)
    ]
    values["extractor.restart.count"] = sum(k.count("restart") for k in kinds) * per_pass
    for kind in OUTCOMES:
        values[f"extractor.outcome.{kind}"] = sum(k[-1] == kind for k in kinds) * per_pass
    values["generators.self_s"] = sum(
        self_ns for name, (_, self_ns) in setup_spans.items()
        if name.startswith("generators.")
    ) / 1e9

    op_ns = sum(end - start for end, start, name in zip(rec.end, rec.start, rec.name)
                if rec.names[name] == ROOT_SPAN)
    layer_ns = {layer: 0 for layer in SHARE_LAYERS}
    for name, (_, self_ns) in spans.items():
        layer = name.split(".")[0]
        if layer in layer_ns:
            layer_ns[layer] += self_ns
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = 100 * layer_ns[layer] / op_ns
    values["trace_overhead"] = (m.wall_s / m.passes) / base.wall_s

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    rec.write(spans_path)
    ops = len(m.latencies_ns)
    print(
        f"# traced ops={ops} passes={m.passes} cases={len(cases)} "
        f"untraced_ops={len(base.latencies_ns)} "
        f"spans={len(rec.start)} file={spans_path.relative_to(ROOT)} "
        f"unattributed={100 - sum(values[f'share.{l}'] for l in SHARE_LAYERS):.2f}%"
    )
    print("# counts and times are per pass over the cases")
    if problem:
        print(f"# first failure: {problem}")
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": len(answers),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few small cases (self-test)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "holefinder" / "__init__.py").is_file():
        print(f"error: no holefinder package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} {machine()}"
    )
    print(f"# why: {workload.why}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        result = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
