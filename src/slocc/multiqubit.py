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

Exceptional points are located algebraically. Each 2x2 minor of a pivot's
coefficient matrix along the line is a quadratic pencil, gathered once per line
into one table (``subspaces.minor_pencil``); rank drops are the roots of a
pivot's largest minor quadratic that zero all of its minors. For N = 4 the
GHZ/W boundary is the root set of the hyperdeterminant along the line, B^2 - 4AC
over the table's pivot-2 quadratics A = m01, B = m03 - m12, C = m23 (the 3-tangle
of Coffman, Kundu and Wootters), solved as its companion matrix's eigenvalues.
Product and biseparable points lie in its singular locus (Miyake), so a rank-drop
point is a multiple root, which root finding spreads by ~eps^(1/m) for
multiplicity m: a quartic root within ``_SNAP_DISTANCE`` = 8 eps^(1/4) (chordal)
of a rank-drop point is that point. Rank-drop loci have measure zero, so sampling
alone would miss them. Every other point of the line carries the generic class,
read at one fixed probe point farthest from all candidates. For N = 4 the probe
point and the merged candidates (or a one-dimensional line's generator) are
decided in one batched :func:`classify3_tags` call, which reads pencil kinds only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegenerateParameter, NonFinite, UnsupportedDepth, WrongArity
from .numerics import (
    DEFAULT_POLICY, TolerancePolicy, _exponent, numerical_rank, singular_values, svd
)
from .states import PureState, coefficient_matrix, make_state, minor_index, pivot_index
from .subspaces import minor_pencil, projective_quadratic_roots
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
# chordal radius within which a tangle root is a rank-drop point: a multiple root moves ~eps^(1/4)
_SNAP_DISTANCE = 8.0 * float(np.finfo(float).eps) ** 0.25


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
    line_class: str | None = None
    generic_class: str | None = None
    exceptional_classes: tuple[str, ...] = ()
    exceptional_points: tuple[tuple[complex, complex], ...] = ()

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
    """Cayley hyperdeterminant of a 2x2x2 amplitude tensor (vanishes off GHZ): b^2 - 4ac of
    the pencil of the qubit-1 slices, (m03 - m12)^2 - 4 m01 m23 over the pivot-2 minors."""
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2).tolist()
    a, b, c = minor_pencil(t[0], t[1])
    return complex(b * b - 4.0 * a * c)


def _point_classes(vecs, n_sub: int, pol: TolerancePolicy, max_qubits: int) -> list[str]:
    """Class names of the (N-1)-qubit states in the rows of ``vecs``, unit vectors
    alpha w1 + beta w2 (orthonormal w, unit (alpha, beta)); for N = 4 in one
    :func:`classify3_tags` call."""
    if n_sub == 3:
        return [tag.value for tag in classify3_tags(vecs, pol)]
    return [descriptor(make_state((2,) * n_sub, v), pol, max_qubits).signature() for v in vecs]


def _unit_point(point) -> tuple[complex, complex]:  # + 0.0 turns -0.0 into 0.0
    p, q, r, s = point[0].real, point[0].imag, point[1].real, point[1].imag
    norm = math.sqrt(p * p + q * q + r * r + s * s)
    return complex(p / norm + 0.0, q / norm + 0.0), complex(r / norm + 0.0, s / norm + 0.0)


def _minor_table(w1, w2, n_sub: int):
    """``minor_pencil``'s (a, b, c) along the line, each (n_sub, M): pivot k's m-th minor."""
    return minor_pencil(w1[minor_index(n_sub)], w2[minor_index(n_sub)])


def _rank_drop_candidates(table, norm, pol: TolerancePolicy):
    """Unit points of the line where some pivot's matrix drops rank: the roots of its largest
    minor quadratic that zero all its minors, read on the table's rows as Python scalars."""
    a, b, c = table
    floor = 1e-13 * norm**2
    drops = []
    for ak, bk, ck in zip(a.tolist(), b.tolist(), c.tolist()):  # pivot k: one entry per minor
        size = list(map(max, map(abs, ak), map(abs, bk), map(abs, ck)))
        scale = max(size)
        if scale <= floor:
            continue  # pivot is rank-deficient on the whole line
        m = size.index(scale)
        _, roots = projective_quadratic_roots(ak[m], bk[m], ck[m], pol.deg_tol)
        for u, v in map(_unit_point, roots):
            uu, uv, vv, tol = u * u, u * v, v * v, pol.deg_tol * scale
            if all(abs(x * uu + y * uv + z * vv) <= tol for x, y, z in zip(ak, bk, ck)):
                drops.append((u, v))
    return drops


def _tangle_quartic(table) -> np.ndarray:
    """Coefficients, alpha^4 down to beta^4, of the hyperdeterminant of alpha*w1 + beta*w2
    (N = 4): B^2 - 4AC over the table's pivot-2 quadratics A = m01, B = m03 - m12, C = m23."""
    m01, m03, m12, m23 = np.array(table)[:, 1, [0, 2, 3, 5]].T
    return np.convolve(m03 - m12, m03 - m12) - 4.0 * np.convolve(m01, m23)


def _tangle_candidates(table, norm) -> list:
    """Unit roots of the tangle quartic (N = 4): (1, 0) if its degree in t (points t*w1 + w2)
    is below 4, then (t, 1) for np.roots' t: its companion's eigenvalues, then trailing zeros."""
    h = _tangle_quartic(table)[::-1].tolist()  # h[k] multiplies t^k
    s = max(map(abs, h))
    if s <= 1e-12 * norm**4:
        return []
    degree = max(k for k in range(5) if abs(h[k]) > 1e-9 * s)
    zeros = next(k for k in range(5) if h[k] != 0)
    p = np.array(h[zeros : degree + 1][::-1])  # highest power first
    companion = np.eye(len(p) - 1, k=-1, dtype=complex)
    companion[:1] = -p[1:] / p[0]  # nothing to assign in a 0 x 0 companion
    t = [*np.linalg.eigvals(companion).tolist(), *[0j] * zeros]
    return list(map(_unit_point, [(1.0, 0.0)] * (degree < 4) + [(x, 1.0) for x in t]))


def _line_candidates(w1, w2, n_sub: int, pol: TolerancePolicy) -> np.ndarray:
    """Merged rank drops, then (N = 4) tangle roots, from one :func:`_minor_table` and one
    |w1| + |w2|; a root within _SNAP_DISTANCE (chordal) of a drop is that drop, a multiple root."""
    table, norm = _minor_table(w1, w2, n_sub), np.linalg.norm(w1) + np.linalg.norm(w2)
    drops = _rank_drop_candidates(table, norm, pol)
    tangle = _tangle_candidates(table, norm) if n_sub == 3 else []
    overlaps = [[abs(a.conjugate() * x + b.conjugate() * y) for x, y in drops] for a, b in tangle]
    far = [p for p, o in zip(tangle, overlaps) if all(1.0 - v * v > _SNAP_DISTANCE**2 for v in o)]
    return _merge(drops + far)


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
        return StructureDescriptor(n_qubits=n, dim_w=1, line_class=line)

    w1 = res.W[:, 0]
    w2 = res.W[:, 1]
    merged = _line_candidates(w1, w2, n_sub, pol)
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


@functools.lru_cache(maxsize=16)
def _factor_index(n: int) -> np.ndarray:
    """Read-only flat offsets (n - 1, 2, 2^(n-1)): row p - 2 is ``pivot_index`` of pivot p."""
    index = np.stack([pivot_index((2,) * n, p) for p in range(2, n + 1)])
    index.flags.writeable = False
    return index


def factor_support(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY):
    """Detect a single-qubit tensor factor at a non-pivot position.

    Qubit p >= 2 factors out exactly when its pivot matrix C (the entries of
    ``coefficient_matrix(state, p)``) has numerical rank 1, read as
    ``sigma_2 <= rank_rel_tol * sigma_1`` from one ``singular_values`` call over
    pivots 2..N, gathered through one cached index. The factor is C's first left
    singular vector, so only a rank-1 pivot takes a full SVD. The rebuild test
    compares factor (x) reduced with C in C's own layout, both scaled by the
    exact power of two of the state's largest part. Returns ``(p, factor,
    reduced_state)`` for the first such p whose factor rebuilds the state within
    ``residual_tol``, else ``None``. A pivot-qubit factor shows up as dim_w = 1
    in :func:`descriptor` instead.
    """
    _require_qubits(state, 3)
    n = state.n_subsystems
    pivots = state.amps[_factor_index(n)]
    f = None
    for p, (s1, s2) in enumerate(singular_values(pivots).tolist(), start=2):
        if s2 > pol.rank_rel_tol * s1:
            continue
        if not math.isfinite(s1):  # an inf or NaN sigma_1 reads rank 1
            raise NonFinite("singular values leave the float range")
        c = pivots[p - 2]
        factor = svd(c).V[:, 0]
        # tensordot, not a product with c: its strided operand sets reduced's last bits
        reduced = np.tensordot(factor.conj(), state.tensor(), axes=(0, p - 1)).reshape(-1)
        f = f or math.ldexp(1.0, -_exponent(state.amps.tolist()))  # exact: no norm under- or overflows
        residual = np.linalg.norm((factor[:, None] * reduced - c) * f)
        if residual > pol.residual_tol * np.linalg.norm(c * f):
            continue
        return p, factor, make_state((2,) * (n - 1), reduced)
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
