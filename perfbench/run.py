"""slocc benchmark: library throughput, one-shot CLI latency, per-layer costs.

    python3 perfbench/run.py --workload tri-orbit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout: the package is imported from ./src. One
run sets up (import, seeded input generation, warm-up pass; repeated and the
median taken), then drives one workload in a closed loop (one caller, the
next input only after the previous one returns) for --seconds, checking
every output. --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics from a run that alternates untraced and traced blocks and
reports the tracing overhead. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Before numpy is imported: BLAS reads these once, and children inherit them.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("tri-orbit", "quad-mix", "cli-oneshot")
SETUP_REPEATS = 3
TAIL_LADDER = (99.0, 75.0)
TAIL_MIN_BEYOND = 10
BLOCK_S = 0.05
TRACE_BLOCK_S = 1.0
TRACED_PROBE_THREE = 48
TRACED_PROBE_FOUR = 120


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_package() -> float:
    """Import numpy and the checkout's package; return the seconds it took."""
    if not (SRC / "slocc" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'slocc'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t = perf_counter()
    import numpy  # noqa: F401
    import slocc

    import workloads  # noqa: F401  (imports every slocc module the benchmark drives)

    elapsed = perf_counter() - t
    if Path(slocc.__file__).resolve().parent != (SRC / "slocc").resolve():
        fail(f"imported slocc from {slocc.__file__}, not from {SRC}")
    return elapsed


# --- statistics -----------------------------------------------------------------


class Calls:
    """Durations (ns), outcomes and block numbers of one kind of call, in order.

    Statistics take the per-block machine speeds (see calib.py) and scale
    each call's time by its block's speed; ``speeds=None`` gives raw times.
    """

    def __init__(self):
        self.ns: list[int] = []
        self.ok: list[bool] = []
        self.block: list[int] = []

    def add(self, ns: int, ok: bool, block: int):
        self.ns.append(ns)
        self.ok.append(ok)
        self.block.append(block)

    def times_ns(self, speeds) -> list[float]:
        if speeds is None:
            return list(self.ns)
        return [n * speeds[b] for n, b in zip(self.ns, self.block)]

    def per_s(self, speeds) -> float:
        """Successful calls per busy second."""
        return sum(self.ok) * 1e9 / sum(self.times_ns(speeds))

    def latencies_ms(self, speeds) -> list[float]:
        """Sorted latencies; a failed call counts as missing every limit."""
        return sorted(t / 1e6 if ok else math.inf for t, ok in zip(self.times_ns(speeds), self.ok))

    def p50_ms(self, speeds) -> float:
        return nearest_rank(self.latencies_ms(speeds), 50.0)

    def tail(self, speeds) -> tuple[float, float, int]:
        """(percentile, value in ms, samples beyond) for the highest ladder
        percentile with at least TAIL_MIN_BEYOND samples beyond it."""
        lat = self.latencies_ms(speeds)
        for p in TAIL_LADDER:
            idx = math.ceil(p / 100.0 * len(lat)) - 1
            beyond = len(lat) - idx - 1
            if beyond >= TAIL_MIN_BEYOND:
                return p, lat[idx], beyond
        return 50.0, nearest_rank(lat, 50.0), len(lat) // 2


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)]


class Record:
    def __init__(self):
        self.primary = Calls()
        self.followup = Calls()
        self.state = Calls()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.block_speeds: list[float] = []

    def fail(self, name: str, problem: str):
        self.failures.append((name, problem))

    def end_block(self, speed: float):
        self.block_speeds.append(speed)

    def speeds(self) -> list[float]:
        """Speed of each block: the median of its own and its neighbours'
        measurements, which damps the error of a single short reference block."""
        b = self.block_speeds
        return [statistics.median(b[max(k - 1, 0):k + 2]) for k in range(len(b))]


# --- the closed loop --------------------------------------------------------------


def handle(wl, case, rec: Record, tracer=None, op_id: int = 0):
    """Run one case: primary call, then follow-up; time them, then check outputs."""
    from slocc.errors import SloccError

    errors = (SloccError, subprocess.TimeoutExpired)
    rec.attempted += 1
    p1 = p2 = None
    run_followup = wl.has_followup(case)
    with tracer.op(op_id) if tracer else nullcontext():
        t0 = perf_counter_ns()
        try:
            out1 = wl.primary(case)
        except errors as exc:
            p1 = f"{wl.primary_name} raised {type(exc).__name__}: {exc}"
            run_followup = False
        t1 = perf_counter_ns()
        if run_followup:
            try:
                out2 = wl.followup(case)
            except errors as exc:
                p2 = f"{wl.followup_name} raised {type(exc).__name__}: {exc}"
        t2 = perf_counter_ns()
    if p1 is None:
        p1 = wl.check_primary(case, out1)
    if run_followup and p2 is None:
        p2 = wl.check_followup(case, out2)
    block = len(rec.block_speeds)
    rec.primary.add(t1 - t0, p1 is None, block)
    if run_followup:
        rec.followup.add(t2 - t1, p2 is None, block)
    problem = p1 or p2
    rec.state.add(t2 - t0, problem is None, block)
    if problem is not None:
        rec.fail(case.name, problem)


def closed_loop(wl, cases, seconds: float, rec: Record, calib, tracer=None, start: int = 0) -> int:
    """Cycle through the cases until ``seconds`` have passed; return the next index.

    After each block of about BLOCK_S, the reference loop measures the
    machine's speed, and the block's calls are calibrated by it.
    """
    deadline = perf_counter() + seconds
    i = start
    while perf_counter() < deadline:
        block_end = min(perf_counter() + BLOCK_S, deadline)
        while True:
            handle(wl, cases[i % len(cases)], rec, tracer, i)
            i += 1
            if perf_counter() >= block_end:
                break
        rec.end_block(calib.speed())
    return i


def make_workload(name: str, workdir: Path):
    import workloads as W

    if name == "tri-orbit":
        return W.TriOrbit()
    if name == "quad-mix":
        return W.QuadMix()
    return W.CliOneshot(ROOT, workdir)


def set_up(wl, seed: int, import_s: float, rec: Record, calib):
    """Generate the inputs and run the warm-up pass, SETUP_REPEATS times.

    Returns the inputs and the set-up time in calibrated seconds: the import
    plus the median repetition, each scaled by the speed measured right
    after it. Warm-up outputs are checked and count in ``rec``'s attempted
    and failed, but their timings are not kept.
    """
    times = []
    raw = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        inputs = wl.make_inputs(seed)
        warm = Record()
        for case in wl.warmup_cases(inputs.cases):
            handle(wl, case, warm)
        raw.append(perf_counter() - t)
        times.append(raw[-1] * calib.speed())
        rec.attempted += warm.attempted
        rec.failures += warm.failures
    print(f"  setup raw_s={import_s + statistics.median(raw):.6g} (import {import_s:.6g})")
    return inputs, import_s * calib.speeds[0] + statistics.median(times)


# --- reports ------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
    }


def print_calls(label: str, calls: Calls, speeds):
    if not calls.ns:
        return
    for kind, sp in (("cal", speeds), ("raw", None)):
        p, value, beyond = calls.tail(sp)
        print(
            f"  {label:<22} {kind} calls={len(calls.ns)} "
            f"per_s={calls.per_s(sp):.6g} p50_ms={calls.p50_ms(sp):.6g} "
            f"p{p:g}_ms={value:.6g} (n={len(calls.ns)}, {beyond} beyond)"
        )


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, rec: Record, setup_s: float) -> dict:
    """The bounded end-to-end metrics. The primary tail is printed on the call
    lines but left out: its run-to-run spread here is too wide for a bound."""
    speeds = rec.speeds()
    m = {
        "setup_s": metric(setup_s, "s"),
        "states_per_s": metric(rec.state.per_s(speeds), "1/s"),
        "primary_per_s": metric(rec.primary.per_s(speeds), "1/s"),
        "followup_per_s": metric(rec.followup.per_s(speeds), "1/s"),
        "primary_p50_ms": metric(rec.primary.p50_ms(speeds), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(children=wl.name == "cli-oneshot"), "MB"),
    }
    return m


def traced_run(wl, inputs, seconds: float, seed: int, workdir: Path, rec: Record, calib) -> dict:
    import layers
    import tracing
    import workloads as W

    import slocc.multiqubit as M
    import slocc.tripartite as T
    from slocc.errors import SloccError

    tracer = tracing.Tracer()
    rates = {False: [], True: []}
    ops = {False: 0, True: 0}
    block = min(TRACE_BLOCK_S, seconds / 8)
    deadline = perf_counter() + seconds
    traced = False
    i = 0
    while perf_counter() < deadline:
        block_rec = Record()
        with tracer.installed() if traced else nullcontext():
            i = closed_loop(
                wl, inputs.cases, block, block_rec, calib, tracer if traced else None, i
            )
        busy_ns = sum(block_rec.state.times_ns(block_rec.speeds()))
        rates[traced].append(sum(block_rec.state.ok) * 1e9 / busy_ns)
        ops[traced] += block_rec.attempted
        rec.attempted += block_rec.attempted
        rec.failures += block_rec.failures
        traced = not traced
    loop_spans = len(tracer.spans)
    loop_speed = statistics.median(calib.speeds)

    # Traced direct calls, so every self time below has spans on every
    # workload, and the descriptor statistics come from the workload's states.
    exceptional, dim_w1, n_desc = 0, 0, 0
    probe_id = -1
    with tracer.installed():
        for s in inputs.three[:TRACED_PROBE_THREE]:
            for fn in (T.classify3, T.reduce_to_canonical):
                with tracer.op(probe_id):
                    try:
                        fn(s)
                    except SloccError as exc:
                        rec.fail(f"probe/{fn.__name__}/{probe_id}", f"{type(exc).__name__}: {exc}")
                probe_id -= 1
        for s in inputs.four[:TRACED_PROBE_FOUR]:
            with tracer.op(probe_id):
                try:
                    desc = M.descriptor(s)
                except SloccError as exc:
                    rec.fail(f"probe/descriptor/{probe_id}", f"{type(exc).__name__}: {exc}")
                    desc = None
            probe_id -= 1
            if desc is not None:
                n_desc += 1
                exceptional += len(desc.exceptional_points)
                dim_w1 += desc.dim_w == 1

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    problems = tracing.sanity_violations(spans, selfs)
    for problem in problems[:20]:
        rec.fail("trace", problem)
    if len(problems) > 20:
        rec.fail("trace", f"... {len(problems) - 20} more span-tree violations")
    rec.attempted += 1  # the trace sanity check itself
    tracing.write_spans(OUT / f"spans-{wl.name}.csv", spans)

    loop_ops = ops[True]
    count = {}
    self_ns: dict[str, list[int]] = {}
    svd_self = 0
    root_total = 0
    for idx, s in enumerate(spans):
        name, is_loop = s[tracing.NAME], idx < loop_spans
        self_ns.setdefault(name, []).append(selfs[idx])
        if is_loop:
            count[name] = count.get(name, 0) + 1
            if name == "numerics.svd":
                svd_self += selfs[idx]
            elif name == tracing.ROOT:
                root_total += s[tracing.END] - s[tracing.START]

    def self_us(name):
        return statistics.median(self_ns[name]) * loop_speed / 1e3

    def per_op(name):
        return count.get(name, 0) / loop_ops

    untraced, traced_rate = statistics.median(rates[False]), statistics.median(rates[True])
    print(f"  trace: {loop_ops} traced ops, {len(spans)} spans, "
          f"untraced {untraced:.6g}/s, traced {traced_rate:.6g}/s")

    m = {
        "trace.overhead_share": metric(untraced / traced_rate - 1.0, "share"),
        "trace.spans_per_op": metric(loop_spans / loop_ops, "count"),
        "numerics.svd_per_op": metric(per_op("numerics.svd"), "count"),
        "numerics.svd_self_share": metric(svd_self / root_total, "share"),
        "subspaces.classify_span_per_op": metric(per_op("subspaces.classify_span"), "count"),
        "tripartite.classify3_per_op": metric(per_op("tripartite.classify3"), "count"),
        "tripartite.classify3_self_us": metric(self_us("tripartite.classify3"), "us"),
        "tripartite.reduce_self_us": metric(self_us("tripartite.reduce_to_canonical"), "us"),
        "multiqubit.descriptor_self_us": metric(self_us("multiqubit.descriptor"), "us"),
        "multiqubit.exceptional_points_per_op": metric(exceptional / max(n_desc, 1), "count"),
        "multiqubit.dimw1_share": metric(dim_w1 / max(n_desc, 1), "share"),
    }
    ilos = W.probe_ilos(seed, layers.PROBE_INPUTS)
    wl_env = W.child_env(ROOT)
    for name, value in layers.measure(inputs, ilos, workdir, wl_env, ROOT, calib).items():
        m[name] = metric(value, name.rsplit("_", 1)[1])
    return m


def run_one(args) -> int:
    import_s = import_package()
    from calib import Calibrator

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workdir = Path(tmp)
        wl = make_workload(args.workload, workdir)
        if args.trace and args.workload == "cli-oneshot":
            wl.in_process = True
        print(f"slocc benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        rec = Record()
        calib = Calibrator()
        inputs, setup_s = set_up(wl, args.seed, import_s, rec, calib)
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print("inputs " + json.dumps(inputs.counts, sort_keys=True))
        if args.trace:
            metrics = traced_run(wl, inputs, args.seconds, args.seed, workdir, rec, calib)
        else:
            closed_loop(wl, inputs.cases, args.seconds, rec, calib)
            for label, calls in ((wl.primary_name, rec.primary),
                                 (wl.followup_name, rec.followup), ("state", rec.state)):
                print_calls(label, calls, rec.speeds())
            metrics = end_to_end(wl, rec, setup_s)
        speeds = statistics.quantiles(calib.speeds, n=4)
        print(f"  machine speed quartiles {speeds[0]:.4g} {speeds[1]:.4g} {speeds[2]:.4g}")
    failed = len(rec.failures)
    print(f"  error_rate {failed}/{rec.attempted} = {failed / rec.attempted:.6g}")
    seen = set()
    for name, problem in rec.failures:
        if name not in seen:
            seen.add(name)
            print(f"  FAIL {name}: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value['value']!r} {value['unit']}")
    result = {"correct": failed == 0, "attempted": rec.attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
            )
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
