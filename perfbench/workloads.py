"""Seeded inputs, calls and output checks for the three workloads.

Every workload handles a list of cases in a closed loop. One case is one
state; it gets a *primary* call and, where it applies, a *follow-up* call:

    tri-orbit    classify3                 then reduce_to_canonical
    quad-mix     descriptor                then factor_support
    cli-oneshot  `slocc classify F --json` then `slocc reduce F --json`
                 (one process each; reduce only on 3-qubit files)

Inputs come only from the seed and the package's stable public
constructors. The expected answer of every case is fixed by what generated
it: the class of the canonical vector, or the signature and factor position
of the 4-qubit representative. A case whose output differs is a failure; it
is reported, never dropped or redrawn.

Library calls are looked up on the module at call time (``T.classify3``), so
the traced run's rebinding sees the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import slocc.bipartite as B
import slocc.cli as C
import slocc.multiqubit as M
import slocc.states as S
import slocc.tripartite as T
from slocc.numerics import DEFAULT_POLICY

COND_CAP = 1e3
TRI_PER_CLASS = 64
QUAD_PER_REP = 12
CLI_TRI_PER_CLASS = 2
CLI_QUAD_PER_REP = 1
# (rows, cols, Schmidt ranks) of the bipartite CLI files
CLI_BIPARTITE = ((2, 2, (1, 2)), (3, 3, (1, 2, 3)), (4, 6, (1, 2, 4)))
CHILD_TIMEOUT_S = 60.0

# Stream ids that keep the workloads' random draws independent.
_TRI, _QUAD, _CLI, _PROBE = 1, 2, 3, 4


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def random_ilo(g: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Complex Ginibre matrix, resampled until its condition number is <= COND_CAP."""
    while True:
        m = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= COND_CAP:
            return m


def _complex(g: np.random.Generator, n: int) -> np.ndarray:
    return g.standard_normal(n) + 1j * g.standard_normal(n)


@dataclass(frozen=True)
class Case:
    """One input state and the answer its generator fixes.

    ``expect`` is the class string (3-qubit tag, descriptor signature or the
    CLI's JSON ``class``); ``factor`` is the expected factor position of a
    4-qubit state (None when it has no factor at a non-pivot position).
    """

    name: str
    group: str
    state: S.PureState
    expect: str
    factor: int | None = None
    path: str | None = None


@dataclass
class Inputs:
    cases: list[Case]
    counts: dict[str, int]
    # 3-qubit, 4-qubit and bipartite states derived from the cases, for the
    # per-layer direct-call probes.
    three: list[S.PureState] = field(default_factory=list)
    four: list[S.PureState] = field(default_factory=list)
    bipartite: list[S.PureState] = field(default_factory=list)


def _counts(cases) -> dict[str, int]:
    out: dict[str, int] = {}
    for c in cases:
        out[c.group] = out.get(c.group, 0) + 1
    return out


def _append_zero(state: S.PureState) -> S.PureState:
    return S.make_state(state.dims + (2,), np.kron(state.amps, [1.0, 0.0]))


def _tri_cases(seed: int, per_class: int, stream: int) -> list[Case]:
    g = rng(seed, stream)
    cases = []
    for tag in T.TripartiteClass:
        canon = T.canonical_vector(tag)
        for k in range(per_class):
            ops = [random_ilo(g) for _ in range(3)]
            state = S.apply_local_operators(canon, ops)
            cases.append(Case(f"tri/{tag.value}/{k}", tag.value, state, tag.value))
    order = g.permutation(len(cases))
    return [cases[i] for i in order]


@dataclass(frozen=True)
class Representative:
    name: str
    state: S.PureState
    signature: str
    factor: int | None
    cli_label: str


def quad_representatives(seed: int) -> list[Representative]:
    """The ten 4-qubit representatives with their signatures and factor positions."""
    g = rng(seed, _QUAD, 0)
    e0 = np.array([1.0, 0.0])
    w3 = T.canonical_vector(T.TripartiteClass.W).amps
    ghz3 = T.canonical_vector(T.TripartiteClass.GHZ).amps
    epr = np.array([1.0, 0.0, 0.0, 1.0])
    w4 = np.zeros(16)
    w4[[1, 2, 4, 8]] = 1.0
    product = np.zeros(16)
    product[0] = 1.0
    four = (2, 2, 2, 2)
    states = {
        "GHZ4": M.ghz_state(4),
        "Phi4": M.cluster_state_4(),
        "canonical4": M.example_4partite_canonical(_complex(g, 2)),
        "W(x)0": S.make_state(four, np.kron(w3, e0)),
        "0(x)W": S.make_state(four, np.kron(e0, w3)),
        "GHZ3(x)0": S.make_state(four, np.kron(ghz3, e0)),
        "EPR(x)EPR": S.make_state(four, np.kron(epr, epr)),
        "W4": S.make_state(four, w4),
        "generic": S.make_state(four, _complex(g, 16)),
        "product": S.make_state(four, product),
    }
    ghz4 = M.descriptor(M.ghz_state(4))
    phi4 = M.descriptor(M.cluster_state_4())
    reps = []
    for name, state in states.items():
        desc = M.descriptor(state)
        support = M.factor_support(state)
        # The CLI names a descriptor after GHZ4 or Phi4 when it matches them.
        label = desc.signature()
        if M.same_broad_class(desc, ghz4):
            label = "GHZ4"
        elif M.same_broad_class(desc, phi4):
            label = "Phi4"
        reps.append(Representative(
            name, state, desc.signature(), None if support is None else support[0], label
        ))
    return reps


def _quad_cases(seed: int, per_rep: int, stream: int, cli: bool = False) -> list[Case]:
    g = rng(seed, stream)
    cases = []
    for rep in quad_representatives(seed):
        for k in range(per_rep):
            state = S.apply_local_operators(rep.state, [random_ilo(g) for _ in range(4)])
            expect = rep.cli_label if cli else rep.signature
            cases.append(Case(f"quad/{rep.name}/{k}", rep.name, state, expect, rep.factor))
    order = g.permutation(len(cases))
    return [cases[i] for i in order]


def _bipartite_cases(seed: int) -> list[Case]:
    g = rng(seed, _CLI, 0)
    cases = []
    for rows, cols, ranks in CLI_BIPARTITE:
        for k in ranks:
            m = (g.standard_normal((rows, k)) + 1j * g.standard_normal((rows, k))) @ (
                g.standard_normal((k, cols)) + 1j * g.standard_normal((k, cols))
            )
            state = S.make_state((rows, cols), m.reshape(-1))
            label = B.BipartiteClass(k).label(state.dims)
            cases.append(Case(f"bip/{rows}x{cols}/rank{k}", f"{rows}x{cols}", state, label))
    return cases


def _three_from_four(state: S.PureState) -> S.PureState:
    """Larger row of the pivot-1 coefficient matrix: a 3-qubit slice of the state."""
    rows = S.coefficient_matrix(state, 1).entries
    row = rows[0] if np.abs(rows[0]).max() > np.abs(rows[1]).max() else rows[1]
    return S.make_state((2, 2, 2), row)


class Workload:
    """A workload's inputs, its two calls and their checks.

    ``primary``/``followup`` make the timed call; ``check_*`` return None or
    the reason the output is wrong.
    """

    name: str
    primary_name: str
    followup_name: str

    def make_inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def warmup_cases(self, cases: list[Case]) -> list[Case]:
        return cases

    def has_followup(self, case: Case) -> bool:
        return True


# --- library workloads --------------------------------------------------------


class TriOrbit(Workload):
    name = "tri-orbit"
    primary_name = "classify3"
    followup_name = "reduce_to_canonical"

    def make_inputs(self, seed: int) -> Inputs:
        cases = _tri_cases(seed, TRI_PER_CLASS, _TRI)
        states = [c.state for c in cases]
        return Inputs(
            cases, _counts(cases),
            three=states,
            four=[_append_zero(s) for s in states],
            bipartite=[S.make_state((2, 4), s.amps) for s in states],
        )

    def primary(self, case):
        return T.classify3(case.state)

    def check_primary(self, case, report) -> str | None:
        if report.tag.value != case.expect:
            return f"classify3 gave {report.tag.value}, expected {case.expect}"
        return None

    def followup(self, case):
        return T.reduce_to_canonical(case.state)

    def check_followup(self, case, out) -> str | None:
        report, ilos = out
        if report.tag.value != case.expect:
            return f"reduce_to_canonical gave {report.tag.value}, expected {case.expect}"
        residual = reduction_residual(case, ilos.ops)
        if not residual <= DEFAULT_POLICY.residual_tol:
            return f"reduce residual {residual:.3e} above {DEFAULT_POLICY.residual_tol:.1e}"
        return None


def reduction_residual(case: Case, ops) -> float:
    """Distance of F1 (x) F2 (x) F3 psi from the span of the canonical vector.

    Recomputed here with einsum, independently of the package's own residual.
    """
    f1, f2, f3 = (np.asarray(f, dtype=complex) for f in ops)
    out = np.einsum("ai,bj,ck,ijk->abc", f1, f2, f3, case.state.amps.reshape(2, 2, 2)).reshape(-1)
    canon = T.canonical_vector(T.TripartiteClass(case.expect)).amps
    z = np.vdot(canon, out) / np.vdot(canon, canon)
    norm = np.linalg.norm(out)
    return float(np.linalg.norm(out - z * canon) / norm) if norm > 0 else float("inf")


class QuadMix(Workload):
    name = "quad-mix"
    primary_name = "descriptor"
    followup_name = "factor_support"

    def make_inputs(self, seed: int) -> Inputs:
        cases = _quad_cases(seed, QUAD_PER_REP, _QUAD)
        states = [c.state for c in cases]
        return Inputs(
            cases, _counts(cases),
            three=[_three_from_four(s) for s in states],
            four=states,
            bipartite=[S.make_state((2, 8), s.amps) for s in states],
        )

    def primary(self, case):
        return M.descriptor(case.state)

    def check_primary(self, case, desc) -> str | None:
        if desc.signature() != case.expect:
            return f"signature {desc.signature()}, expected {case.expect}"
        return None

    def followup(self, case):
        return M.factor_support(case.state)

    def check_followup(self, case, support) -> str | None:
        position = None if support is None else support[0]
        if position != case.factor:
            return f"factor position {position}, expected {case.factor}"
        return None


# --- CLI workload ---------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _check_cli_report(case: Case, text: str, reduce: bool) -> str | None:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"output is not JSON: {text[:80]!r}"
    if report.get("class") != case.expect:
        return f"CLI class {report.get('class')!r}, expected {case.expect!r}"
    if reduce:
        residual = report.get("residual")
        if not isinstance(residual, float) or not residual <= DEFAULT_POLICY.residual_tol:
            return f"CLI reduce residual {residual!r} above {DEFAULT_POLICY.residual_tol:.1e}"
    return None


class CliOneshot(Workload):
    """One `python -m slocc` process at a time over files written at set-up.

    ``in_process`` switches the calls to ``cli.main(argv)`` in this process,
    which the traced run uses: spans cannot be collected from a child.
    """

    name = "cli-oneshot"
    primary_name = "slocc classify"
    followup_name = "slocc reduce"

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.in_process = False

    def make_inputs(self, seed: int) -> Inputs:
        bip = _bipartite_cases(seed)
        tri = _tri_cases(seed, CLI_TRI_PER_CLASS, _CLI)
        quad = _quad_cases(seed, CLI_QUAD_PER_REP, _CLI, cli=True)
        cases = []
        for i, case in enumerate(bip + tri + quad):
            path = self.workdir / f"state{i:03d}.txt"
            path.write_text(C.format_state_text(case.state, label=case.name))
            cases.append(replace(case, path=str(path)))
        order = rng(seed, _CLI, 1).permutation(len(cases))
        cases = [cases[i] for i in order]
        return Inputs(
            cases, _counts(cases),
            three=[c.state for c in cases if c.state.dims == (2, 2, 2)],
            four=[c.state for c in cases if c.state.dims == (2, 2, 2, 2)],
            bipartite=[c.state for c in cases if c.state.n_subsystems == 2],
        )

    def warmup_cases(self, cases: list[Case]) -> list[Case]:
        """In a child: one file of each kind, enough to fill the file caches."""
        if self.in_process:
            return cases
        picked: dict[tuple[int, ...], Case] = {}
        for case in cases:
            picked.setdefault(case.state.dims, case)
        return list(picked.values())

    def _run(self, verb: str, case: Case):
        argv = [verb, case.path, "--json"]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = C.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "slocc", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _check(self, case: Case, out, reduce: bool) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:120]}"
        return _check_cli_report(case, stdout, reduce)

    def primary(self, case):
        return self._run("classify", case)

    def check_primary(self, case, out) -> str | None:
        return self._check(case, out, reduce=False)

    def has_followup(self, case) -> bool:
        return case.state.dims == (2, 2, 2)

    def followup(self, case):
        return self._run("reduce", case)

    def check_followup(self, case, out) -> str | None:
        return self._check(case, out, reduce=True)


def probe_ilos(seed: int, n: int) -> list[list[np.ndarray]]:
    g = rng(seed, _PROBE)
    return [[random_ilo(g) for _ in range(3)] for _ in range(n)]
