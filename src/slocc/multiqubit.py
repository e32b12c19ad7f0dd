"""Inductive structure descriptors for N >= 4 qubits.

The right singular subspace of the 1-vs-rest coefficient matrix of an
N-qubit state has dimension 1 or 2. Its structure is summarized by the
classes of the (N-1)-qubit states it contains: the single generator's class
when one-dimensional, otherwise the class attained on a continuum of the
projective line {alpha*w1 + beta*w2} (the generic class) together with the
finitely many exceptional points whose class differs. Two states belong to
the same broad-sense class exactly when these summaries match; residual
continuous freedom (the exceptional points' positions) is deliberately
excluded from the comparison.

Exceptional points are located algebraically: rank drops of a pivot's
coefficient matrix along the line are the roots of its largest 2x2-minor
quadratic that zero all of its minors, and (for N = 4) the genuinely
tripartite GHZ/W boundary is the root set of the degree-4 hyperdeterminant
along the line. Rank-drop loci have measure zero, so sampling alone would
miss them. Every other point of the line carries the generic class, which
is read at one fixed probe point farthest from all candidates. For N = 4
the probe point and the merged candidates (or a one-dimensional line's
generator) are decided in one batched :func:`classify3_tags` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegenerateParameter, UnsupportedDepth, WrongArity
from .numerics import DEFAULT_POLICY, TolerancePolicy, minor_ratios, numerical_rank, svd
from .states import PureState, coefficient_matrix, make_state, minor_index
from .subspaces import projective_quadratic_roots
from .tripartite import classify3_tags

# chordal distances of machine-identical points already read ~sqrt(eps)
_MERGE_DISTANCE = 1e-6
# Probe directions (alpha, beta) for the generic class, a golden-angle spiral
# on the Bloch sphere: cos(theta) = 1 - odd/16 and phi an irrational multiple
# of pi keep every probe off the poles and round angles of structured states.
_PROBE_THETA = np.arccos(1.0 - (2 * np.arange(16) + 1) / 16)
_PROBE_PHI = (np.arange(16) + 0.5) * np.pi * (3.0 - np.sqrt(5.0))
_PROBES = np.stack(
    [np.cos(_PROBE_THETA / 2), np.sin(_PROBE_THETA / 2) * np.exp(1j * _PROBE_PHI)], axis=1
)
# interpolation nodes of the hyperdeterminant quartic along the line
_TANGLE_NODES = (-2.0, -1.0, 0.0, 1.0, 2.0)
_TANGLE_VANDER = np.array([[t**k for k in range(5)] for t in _TANGLE_NODES])


@dataclass(frozen=True)
class StructureDescriptor:
    """Broad-sense class summary of an N-qubit right singular subspace.

    ``exceptional_points`` records where on the line each exceptional class
    sits, as unit (alpha, beta); it is diagnostic only and never takes part
    in equality. Points are ordered by class, then by (Re alpha, Im alpha,
    Re beta, Im beta) rounded to 9 decimals.
    """

    n_qubits: int
    dim_w: int
    line_class: str | None
    generic_class: str | None
    exceptional_classes: tuple[str, ...]
    exceptional_points: tuple[tuple[complex, complex], ...]

    def signature(self) -> str:
        if self.dim_w == 1:
            return f"{self.n_qubits}q|dimW=1|line={self.line_class}"
        exc = ",".join(self.exceptional_classes)
        return f"{self.n_qubits}q|dimW=2|generic={self.generic_class}|exc=[{exc}]"


@dataclass(frozen=True)
class ClassCountBound:
    """Upper bound on the number of (n+1)-qubit classes given m_n for n qubits."""

    m_n: int
    n: int
    bound: int
    genuine: int
    degenerate: int


def _require_qubits(state: PureState, minimum: int):
    if any(d != 2 for d in state.dims):
        raise WrongArity(f"qubit subsystems required, got dims {state.dims}")
    if state.n_subsystems < minimum:
        raise WrongArity(
            f"need at least {minimum} qubits, got {state.n_subsystems}"
        )


def hyperdeterminant(amps) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 amplitude tensor (vanishes off GHZ)."""
    c = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    d1 = (
        (c[0, 0, 0] * c[1, 1, 1]) ** 2
        + (c[0, 0, 1] * c[1, 1, 0]) ** 2
        + (c[0, 1, 0] * c[1, 0, 1]) ** 2
        + (c[1, 0, 0] * c[0, 1, 1]) ** 2
    )
    d2 = (
        c[0, 0, 0] * c[1, 1, 1] * (
            c[0, 1, 1] * c[1, 0, 0] + c[1, 0, 1] * c[0, 1, 0] + c[1, 1, 0] * c[0, 0, 1]
        )
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 0, 1] * c[0, 1, 0]
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 1, 0] * c[0, 0, 1]
        + c[1, 0, 1] * c[0, 1, 0] * c[1, 1, 0] * c[0, 0, 1]
    )
    d3 = (
        c[0, 0, 0] * c[1, 1, 0] * c[1, 0, 1] * c[0, 1, 1]
        + c[1, 1, 1] * c[0, 0, 1] * c[0, 1, 0] * c[1, 0, 0]
    )
    return complex(d1 - 2.0 * d2 + 4.0 * d3)


def _point_classes(vecs, n_sub: int, pol: TolerancePolicy, max_qubits: int) -> list[str]:
    """Class names of the (N-1)-qubit states in the rows of ``vecs``, scaled to unit norm
    (np.linalg.norm's sums); for N = 4 in one :func:`classify3_tags` call."""
    norms = [math.sqrt(x @ x + y @ y) for x, y in zip(vecs.real, vecs.imag)]
    vecs = vecs / np.array(norms)[:, None]
    if n_sub == 3:
        return [tag.value for tag in classify3_tags(vecs, pol)]
    return [descriptor(make_state((2,) * n_sub, v), pol, max_qubits).signature() for v in vecs]


def _unit_point(point):
    v = np.array(point, dtype=complex)
    return tuple(v / np.linalg.norm(v))


def _rank_drop_candidates(w1, w2, n_sub: int, pol: TolerancePolicy):
    """Unit points of the line where some pivot's coefficient matrix drops rank.

    Such a point zeroes every 2x2 minor of the pivot, so it is one of the
    roots of the pivot's largest minor quadratic that all its minors share.
    """
    index = minor_index(n_sub)
    (a0p, a0q), (a1p, a1q) = w1[index].reshape(n_sub, 2, 2, -1).transpose(1, 2, 0, 3)
    (b0p, b0q), (b1p, b1q) = w2[index].reshape(n_sub, 2, 2, -1).transpose(1, 2, 0, 3)
    a = a0p * a1q - a0q * a1p
    c = b0p * b1q - b0q * b1p
    b = a0p * b1q + b0p * a1q - a0q * b1p - b0q * a1p
    size = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    scale = size.max(axis=1)
    floor = 1e-13 * (np.linalg.norm(w1) + np.linalg.norm(w2)) ** 2
    roots, owner = [], []
    for k, m in enumerate(size.argmax(axis=1)):
        if scale[k] <= floor:
            continue  # pivot is rank-deficient on the whole line
        _, found = projective_quadratic_roots(
            a[k, m], b[k, m], c[k, m], zero_tol=0.0, deg_tol=pol.deg_tol
        )
        roots.extend(found)
        owner.extend([k] * len(found))
    units = np.array(roots, dtype=complex).reshape(-1, 2)
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    alpha, beta = units[:, :1], units[:, 1:]
    residual = np.abs(a[owner] * alpha * alpha + b[owner] * alpha * beta + c[owner] * beta * beta)
    return list(units[(residual <= pol.deg_tol * scale[owner, None]).all(axis=1)])


def _tangle_candidates(w1, w2):
    """Roots of the hyperdeterminant quartic along the line (N = 4 only)."""
    values = [hyperdeterminant(t * w1 + w2) for t in _TANGLE_NODES]
    h = np.linalg.solve(_TANGLE_VANDER, np.array(values))
    s = float(np.abs(h).max())
    if s <= 1e-12 * (np.linalg.norm(w1) + np.linalg.norm(w2)) ** 4:
        return []
    degree = max(k for k in range(5) if abs(h[k]) > 1e-9 * s)
    candidates = []
    if degree < 4:
        candidates.append(_unit_point((1.0, 0.0)))
    if degree >= 1:
        for t in np.roots(h[degree::-1]):
            candidates.append(_unit_point((complex(t), 1.0)))
    return candidates


def _merge(candidates) -> np.ndarray:
    """Greedy merge: keep each candidate farther than _MERGE_DISTANCE from all kept."""
    points = np.array(candidates, dtype=complex).reshape(-1, 2)
    far = np.sqrt(np.maximum(0.0, 1.0 - np.abs(points.conj() @ points.T) ** 2)) > _MERGE_DISTANCE
    kept = []
    for i, row in enumerate(far.tolist()):
        if all(row[j] for j in kept):
            kept.append(i)
    return points[kept]


def _generic_point(merged):
    """The probe with the largest chordal distance to every unit candidate.

    That distance falls as the overlap |<p, c>| grows; ties go to the
    earlier probe, and with no candidates the first probe is returned.
    """
    overlap = np.abs(_PROBES.conj() @ np.array(merged, dtype=complex).reshape(-1, 2).T)
    return _PROBES[np.argmin(overlap.max(axis=1, initial=0.0))]


def descriptor(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY, max_qubits: int = 4
) -> StructureDescriptor:
    """Right-singular-subspace descriptor of an N >= 4 qubit state."""
    _require_qubits(state, 4)
    n = state.n_subsystems
    if n > max_qubits:
        raise UnsupportedDepth(
            f"{n} qubits exceeds the configured recursion depth {max_qubits}"
        )
    n_sub = n - 1
    res = svd(coefficient_matrix(state, 1).entries)
    dim_w = numerical_rank(res.sigma, pol)

    if dim_w == 1:
        line = _point_classes(res.W[:, :1].T, n_sub, pol, max_qubits)[0]
        return StructureDescriptor(
            n_qubits=n,
            dim_w=1,
            line_class=line,
            generic_class=None,
            exceptional_classes=(),
            exceptional_points=(),
        )

    w1 = res.W[:, 0]
    w2 = res.W[:, 1]
    candidates = _rank_drop_candidates(w1, w2, n_sub, pol)
    if n == 4:
        candidates.extend(_tangle_candidates(w1, w2))

    merged = _merge(candidates)
    points = np.concatenate((_generic_point(merged)[None], merged))
    generic, *classes = _point_classes(
        points[:, :1] * w1 + points[:, 1:] * w2, n_sub, pol, max_qubits
    )
    keys = np.round(merged, 9).view(float).tolist()
    exceptional = sorted(
        (cls, *key, i) for i, (cls, key) in enumerate(zip(classes, keys)) if cls != generic
    )

    return StructureDescriptor(
        n_qubits=n,
        dim_w=2,
        line_class=None,
        generic_class=generic,
        exceptional_classes=tuple(item[0] for item in exceptional),
        exceptional_points=tuple(tuple(merged[item[-1]]) for item in exceptional),
    )


def same_broad_class(a: StructureDescriptor, b: StructureDescriptor) -> bool:
    """Broad-sense equality: same summary, continuous parameters ignored."""
    if a.n_qubits != b.n_qubits:
        raise ArityMismatch(f"{a.n_qubits} qubits vs {b.n_qubits}")
    return (
        a.dim_w == b.dim_w
        and a.line_class == b.line_class
        and a.generic_class == b.generic_class
        and a.exceptional_classes == b.exceptional_classes
    )


def factor_support(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY):
    """Detect a single-qubit tensor factor at a non-pivot position.

    Qubit p >= 2 factors out exactly when its coefficient matrix
    ``coefficient_matrix(state, p)`` has numerical rank 1, read from the
    matrix's 2x2 minors; the factor is that matrix's first left singular
    vector, so only a rank-1 pivot takes an SVD. Returns
    ``(p, factor, reduced_state)`` for the first such p whose factor
    rebuilds the state within ``residual_tol``, else ``None``. A
    pivot-qubit factor shows up as dim_w = 1 in :func:`descriptor`
    instead.
    """
    _require_qubits(state, 3)
    n = state.n_subsystems
    t = state.tensor()
    ratios = minor_ratios(state.amps, minor_index(n)[1:]).tolist()
    for p, ratio in enumerate(ratios, start=2):
        if ratio > pol.rank_rel_tol:
            continue
        factor = svd(coefficient_matrix(state, p).entries).V[:, 0]
        reduced = np.tensordot(factor.conj(), t, axes=(0, p - 1))
        rebuilt = np.moveaxis(np.tensordot(factor, reduced, axes=0), 0, p - 1)
        if np.linalg.norm(rebuilt - t) > pol.residual_tol * np.linalg.norm(t):
            continue
        reduced_state = make_state((2,) * (n - 1), reduced.reshape(-1))
        return p, factor, reduced_state
    return None


def class_count_bound(m_n: int, n: int) -> ClassCountBound:
    """Bound on the (n+1)-qubit class count: half m (m + 2n + 3), split exactly.

    The genuine part counts unordered generator-class pairs, the degenerate
    part the (n+1) possible factor positions times the n-qubit classes.
    Python integers are arbitrary precision, so no overflow handling is
    needed. Non-integral inputs, infinities and bools are refused, not truncated.
    """
    raw = (m_n, n)
    m_n, n = (None if x in (math.inf, -math.inf) else int(x) for x in raw)  # int(nan) raises
    if (m_n, n) != raw or any(isinstance(x, (bool, np.bool_)) for x in raw):
        raise ValueError(f"m_n and n must be integers, got {raw}")
    if m_n < 1:
        raise ValueError("m_n must be at least 1")
    if n < 2:
        raise ValueError("n must be at least 2")
    genuine = m_n * (m_n + 1) // 2
    degenerate = (n + 1) * m_n
    bound = genuine + degenerate
    assert bound == m_n * (m_n + 2 * n + 3) // 2
    return ClassCountBound(m_n=m_n, n=n, bound=bound, genuine=genuine, degenerate=degenerate)


def example_4partite_canonical(
    psi, pol: TolerancePolicy = DEFAULT_POLICY
) -> PureState:
    """Member of the 4-qubit continuous canonical family for parameter psi.

    Three nonzero amplitudes: the first-three-qubit pattern 001 carries psi
    on the fourth qubit, plus unit amplitudes on 1000 and 1111. psi must not
    be parallel to a basis vector, otherwise the family degenerates.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != 2:
        raise DegenerateParameter(f"psi must be a 2-vector, got length {v.size}")
    norm = np.linalg.norm(v)
    if norm == 0.0 or abs(v[0]) <= pol.deg_tol * norm or abs(v[1]) <= pol.deg_tol * norm:
        raise DegenerateParameter("psi must not be parallel to e1 or e2")
    amps = np.zeros(16, dtype=complex)
    amps[2] = v[0]
    amps[3] = v[1]
    amps[8] = 1.0
    amps[15] = 1.0
    return make_state((2, 2, 2, 2), amps)


def ghz_state(n_qubits: int) -> PureState:
    """|0...0> + |1...1> on n qubits."""
    if n_qubits < 2:
        raise WrongArity("a GHZ-type state needs at least 2 qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    amps[-1] = 1.0
    return make_state((2,) * n_qubits, amps)


def cluster_state_4() -> PureState:
    """The 4-qubit cluster state |0000> + |0011> + |1100> - |1111>."""
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    amps[3] = 1.0
    amps[12] = 1.0
    amps[15] = -1.0
    return make_state((2, 2, 2, 2), amps)
