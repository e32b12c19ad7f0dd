"""Per-layer direct-call costs, measured untraced on the workload's own inputs.

Each probe calls one public function of one module on states taken from the
workload (3-qubit, 4-qubit and bipartite views of its cases) and reports the
median per-call time, calibrated by the machine speed measured right after
it (see calib.py). The import and interpreter costs of the CLI come from
child processes that time their own imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import slocc.bipartite as B
import slocc.cli as C
import slocc.multiqubit as M
import slocc.numerics as N
import slocc.states as S
import slocc.subspaces as U

PROBE_INPUTS = 48
PROBE_SECONDS = 0.2
PROBE_MAX_CALLS = 4000
CHILD_REPEATS = 5
MAIN_FILES = 4

_IMPORT_TIMER = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import slocc\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1]))\n"
)


def per_call_us(fn, arg_lists, calib) -> float:
    """Median calibrated time of ``fn(*args)`` in us, over at least one pass of the inputs."""
    times = []
    deadline = perf_counter() + PROBE_SECONDS
    while True:
        for args in arg_lists:
            t = perf_counter_ns()
            fn(*args)
            times.append(perf_counter_ns() - t)
        if perf_counter() >= deadline or len(times) >= PROBE_MAX_CALLS:
            return statistics.median(times) * calib.speed() / 1e3


def _main_ms(paths, calib) -> float:
    def run(path):
        with contextlib.redirect_stdout(io.StringIO()):
            if C.main(["classify", path, "--json"]) != 0:
                raise RuntimeError(f"slocc classify {path} failed")

    return per_call_us(run, [(p,) for p in paths], calib) / 1e3


def _child_ms(argv, env, cwd, calib) -> float:
    times = []
    for _ in range(CHILD_REPEATS):
        t = perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
        times.append((perf_counter() - t) * 1e3 * calib.speed())
    return statistics.median(times)


def _import_ms(env, cwd, calib) -> tuple[float, float]:
    numpy_s, slocc_s = [], []
    for _ in range(CHILD_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=cwd,
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        a, b = json.loads(out)
        speed = calib.speed()
        numpy_s.append(a * speed)
        slocc_s.append(b * speed)
    return statistics.median(numpy_s) * 1e3, statistics.median(slocc_s) * 1e3


def measure(inputs, ilos, workdir: Path, env, root: Path, calib) -> dict[str, float]:
    three = inputs.three[:PROBE_INPUTS]
    four = inputs.four[:PROBE_INPUTS]
    bip = inputs.bipartite[:PROBE_INPUTS]

    c2x4 = [S.coefficient_matrix(s, 1).entries for s in three]
    c2x8 = [S.coefficient_matrix(s, 1).entries for s in four]
    c2x2 = [m[0].reshape(2, 2) for m in c2x4]
    sigmas = [N.svd(m).sigma for m in c2x4]
    gens = [N.svd(m).W for m in c2x4]
    w1s = [w[:, 0] for w in gens]
    pairs = [(w[:, 0], w[:, 1]) for w in gens]
    slices = [(U.slice_matrix(a), U.slice_matrix(b)) for a, b in pairs]

    probes = {
        "numerics.svd_2x2_us": (N.svd, [(x,) for x in c2x2]),
        "numerics.svd_2x4_us": (N.svd, [(x,) for x in c2x4]),
        "numerics.svd_2x8_us": (N.svd, [(x,) for x in c2x8]),
        "numerics.np_svd_2x4_us": (np.linalg.svd, [(x,) for x in c2x4]),
        "numerics.numerical_rank_us": (N.numerical_rank, [(x,) for x in sigmas]),
        "states.make_state_us": (S.make_state, [(s.dims, s.amps) for s in three]),
        "states.coefficient_matrix_us": (
            S.coefficient_matrix, [(s, p) for s in three for p in (1, 2, 3)]
        ),
        "states.apply_local_operators_us": (S.apply_local_operators, list(zip(three, ilos))),
        "subspaces.classify_span_us": (U.classify_span, pairs),
        "subspaces.classify_line_us": (U.classify_line, [(w,) for w in w1s]),
        "subspaces.product_roots_us": (U.product_roots, slices),
        "subspaces.pencil_quadratic_us": (U.pencil_quadratic, slices),
        "subspaces.product_factors_us": (U.product_factors, [(w,) for w in w1s]),
        "multiqubit.factor_support_us": (M.factor_support, [(s,) for s in four]),
        "multiqubit.hyperdeterminant_us": (M.hyperdeterminant, [(s.amps,) for s in three]),
        "bipartite.classify_bipartite_us": (B.classify_bipartite, [(s,) for s in bip]),
        "bipartite.schmidt_us": (B.schmidt, [(s,) for s in bip]),
        "cli.parse_state_text_us": (
            C.parse_state_text, [(C.format_state_text(s),) for s in bip + three + four]
        ),
    }
    m = {name: per_call_us(fn, args, calib) for name, (fn, args) in probes.items()}
    for kind, states in (("2q", bip), ("3q", three), ("4q", four)):
        paths = []
        for i, s in enumerate(states[:MAIN_FILES]):
            path = workdir / f"probe-{kind}-{i}.txt"
            path.write_text(C.format_state_text(s))
            paths.append(str(path))
        m[f"cli.main_inproc_{kind}_ms"] = _main_ms(paths, calib)

    m["cli.interpreter_ms"] = _child_ms([sys.executable, "-c", "pass"], env, root, calib)
    m["cli.numpy_import_ms"], m["cli.slocc_import_ms"] = _import_ms(env, root, calib)
    return m
