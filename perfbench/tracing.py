"""Span tracing by rebinding the package's public functions.

For the traced run only, every function in ``TRACED`` is replaced, in each
``slocc`` module that holds a reference to it, by a wrapper that records a
span: name, start, end, parent span and op id. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus the
durations of its children; calls are sequential in one thread, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter_ns

TRACED = (
    "numerics.svd",
    "numerics.numerical_rank",
    "states.make_state",
    "states.coefficient_matrix",
    "states.apply_local_operators",
    "subspaces.classify_span",
    "subspaces.classify_line",
    "subspaces.product_roots",
    "subspaces.pencil_quadratic",
    "subspaces.product_factors",
    "tripartite.classify3",
    "tripartite.reduce_to_canonical",
    "multiqubit.descriptor",
    "multiqubit.factor_support",
    "multiqubit.hyperdeterminant",
    "bipartite.classify_bipartite",
    "bipartite.schmidt",
    "cli.parse_state_text",
    "cli.main",
)

ROOT = "op"
# span fields
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self._stack.pop()
        self.spans[idx][END] = perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: the benchmark's own checks
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span recorded inside carries its id."""
        self._op = op_id
        idx = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = -1

    def install(self):
        wrappers = {}
        for dotted in TRACED:
            module, name = dotted.split(".")
            fn = getattr(sys.modules[f"slocc.{module}"], name)
            wrappers[id(fn)] = self.wrap(dotted, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "slocc" and not mod_name.startswith("slocc."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[int]:
    """Self time of every span in ns: duration minus its children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def sanity_violations(spans, selfs) -> list[str]:
    """Check that every op's span tree closes.

    Each span is closed, lies inside its parent and in its parent's op, has a
    non-negative self time, and the self times of an op's spans sum to the
    duration of its root span.
    """
    problems = []
    root_dur: dict[int, int] = {}
    self_sum: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[END] < s[START] or s[END] == 0:
            problems.append(f"span {i} ({s[NAME]}) not closed")
            continue
        if s[PARENT] < 0:
            if s[NAME] != ROOT:
                problems.append(f"span {i} ({s[NAME]}) has no parent op")
            root_dur[s[OP]] = s[END] - s[START]
        else:
            p = spans[s[PARENT]]
            if p[OP] != s[OP] or s[START] < p[START] or s[END] > p[END]:
                problems.append(f"span {i} ({s[NAME]}) lies outside its parent")
        if selfs[i] < 0:
            problems.append(f"span {i} ({s[NAME]}) has negative self time")
        self_sum[s[OP]] = self_sum.get(s[OP], 0) + selfs[i]
    for op, dur in root_dur.items():
        if self_sum.get(op) != dur:
            problems.append(f"op {op}: self times sum to {self_sum.get(op)} ns, root lasts {dur} ns")
    return problems


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("op,name,start_ns,end_ns,parent\n")
        for s in spans:
            fh.write(f"{s[OP]},{s[NAME]},{s[START]},{s[END]},{s[PARENT]}\n")
