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

Exceptional points are located algebraically: rank drops of any pivot's
coefficient matrix along the line are common roots of its 2x2-minor
quadratics, and (for N = 4) the genuinely tripartite GHZ/W boundary is the
root set of the degree-4 hyperdeterminant along the line. Rank-drop loci
have measure zero, so sampling alone would miss them. Every other point of
the line carries the generic class, which is read at one fixed probe point
farthest from all candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ArityMismatch, DegenerateParameter, UnsupportedDepth, WrongArity
from .numerics import DEFAULT_POLICY, TolerancePolicy, numerical_rank, svd
from .states import PureState, coefficient_matrix, make_state
from .subspaces import RootKind, projective_quadratic_roots
from .tripartite import classify3

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


@dataclass(frozen=True)
class StructureDescriptor:
    """Broad-sense class summary of an N-qubit right singular subspace.

    ``exceptional_points`` records where on the line each exceptional class
    sits; it is diagnostic only and never takes part in equality.
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


def _point_class(vec, n_sub: int, pol: TolerancePolicy, max_qubits: int) -> str:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    point = make_state((2,) * n_sub, v)
    if n_sub == 3:
        return classify3(point, pol).tag.value
    return descriptor(point, pol, max_qubits=max_qubits).signature()


def _chordal_distance(p, q) -> float:
    a = np.array(p, dtype=complex)
    b = np.array(q, dtype=complex)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)))


def _minor_quadratics(A, B):
    """Quadratic (a, b, c) coefficients of every 2x2 minor of alpha*A + beta*B."""
    quads = []
    for p, q in combinations(range(A.shape[1]), 2):
        a = A[0, p] * A[1, q] - A[0, q] * A[1, p]
        c = B[0, p] * B[1, q] - B[0, q] * B[1, p]
        b = (
            A[0, p] * B[1, q]
            + B[0, p] * A[1, q]
            - A[0, q] * B[1, p]
            - B[0, q] * A[1, p]
        )
        quads.append((complex(a), complex(b), complex(c)))
    return quads


def _eval_quadratic(coeffs, point) -> float:
    a, b, c = coeffs
    alpha, beta = point
    return abs(a * alpha * alpha + b * alpha * beta + c * beta * beta)


def _unit_point(point):
    v = np.array(point, dtype=complex)
    return tuple(v / np.linalg.norm(v))


def _rank_drop_candidates(w1, w2, n_sub: int, pol: TolerancePolicy):
    """Roots of the minor quadratics that are common to a whole pivot."""
    candidates = []
    for pivot in range(1, n_sub + 1):
        A = coefficient_matrix(make_state((2,) * n_sub, w1), pivot).entries
        B = coefficient_matrix(make_state((2,) * n_sub, w2), pivot).entries
        quads = _minor_quadratics(A, B)
        scale = max(max(abs(a), abs(b), abs(c)) for a, b, c in quads)
        if scale <= 1e-13 * (np.linalg.norm(A) + np.linalg.norm(B)) ** 2:
            continue  # pivot is rank-deficient on the whole line
        pivot_roots = []
        for coeffs in quads:
            if max(abs(x) for x in coeffs) <= 1e-12 * scale:
                continue
            kind, roots = projective_quadratic_roots(
                *coeffs, zero_tol=0.0, deg_tol=pol.deg_tol
            )
            if kind is not RootKind.INFINITELY_MANY:
                pivot_roots.extend(roots)
        for root in pivot_roots:
            unit = _unit_point(root)
            if all(_eval_quadratic(q, unit) <= pol.deg_tol * scale for q in quads):
                candidates.append(unit)
    return candidates


def _tangle_candidates(w1, w2):
    """Roots of the hyperdeterminant quartic along the line (N = 4 only)."""
    nodes = (-2.0, -1.0, 0.0, 1.0, 2.0)
    values = [hyperdeterminant(t * w1 + w2) for t in nodes]
    vander = np.array([[t**k for k in range(5)] for t in nodes])
    h = np.linalg.solve(vander, np.array(values))
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
        line = _point_class(res.W[:, 0], n_sub, pol, max_qubits)
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

    merged = []
    for cand in candidates:
        if all(_chordal_distance(cand, kept) > _MERGE_DISTANCE for kept in merged):
            merged.append(cand)

    generic, *classes = (
        _point_class(point[0] * w1 + point[1] * w2, n_sub, pol, max_qubits)
        for point in (_generic_point(merged), *merged)
    )
    exceptional = [(cls, point) for cls, point in zip(classes, merged) if cls != generic]
    exceptional.sort(key=lambda item: (item[0], repr(np.round(np.array(item[1]), 9))))

    return StructureDescriptor(
        n_qubits=n,
        dim_w=2,
        line_class=None,
        generic_class=generic,
        exceptional_classes=tuple(cls for cls, _ in exceptional),
        exceptional_points=tuple(point for _, point in exceptional),
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

    Tests, for every position p >= 2, whether all right singular subspace
    generators share a common factor there; if so returns
    ``(p, factor, reduced_state)`` with the factor removed, else ``None``.
    A pivot-qubit factor shows up as dim_w = 1 in :func:`descriptor`
    instead.
    """
    _require_qubits(state, 3)
    n = state.n_subsystems
    res = svd(coefficient_matrix(state, 1).entries)
    dim_w = numerical_rank(res.sigma, pol)
    generators = [res.W[:, k] for k in range(dim_w)]
    shape = (2,) * (n - 1)

    for p in range(2, n + 1):
        blocks = [
            np.moveaxis(g.reshape(shape), p - 2, 0).reshape(2, -1) for g in generators
        ]
        stacked = np.hstack(blocks)
        sres = svd(stacked)
        if sres.sigma[1] > pol.rank_rel_tol * sres.sigma[0]:
            continue
        factor = sres.V[:, 0].conj()
        t = state.tensor()
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
    needed.
    """
    m_n = int(m_n)
    n = int(n)
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
