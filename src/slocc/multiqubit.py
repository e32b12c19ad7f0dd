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

Exceptional points are located algebraically, reading each line once. Each 2x2 minor of a
pivot's coefficient matrix along the line is a quadratic pencil, gathered into one table
(``subspaces.minor_pencil``). One pass over it reads each pivot's scale (its largest minor
coefficient) and rank drops: the roots of that minor's quadratic that zero all of its minors.
For N = 4 the GHZ/W boundary is the root set of the hyperdeterminant along the line, the one
tangle quartic B^2 - 4AC over the pivot-2 quadratics A = m01, B = m03 - m12, C = m23 (the
3-tangle of Coffman, Kundu and Wootters), solved as its companion matrix's eigenvalues. Product
and biseparable points lie in its singular locus (Miyake), so a rank-drop point is a multiple
root, which root finding spreads by ~eps^(1/m) for multiplicity m: a quartic root within
``_SNAP_DISTANCE`` = 8 eps^(1/4) (chordal) of a rank-drop point is that point. Rank-drop loci
have measure zero, so sampling alone would miss them. Every other point carries the generic
class. For N = 4 the same readings name it: a pivot whose scale is within rank_rel_tol |w|^2
has rank 1 on the whole line; at ranks (2, 2, 2) the class is W where the quartic stays within
1e-8 of the least pivot scale squared (both shrink as the squared distance to a biseparable
line), else GHZ. Only the candidates, merged on Python scalars (or a one-dimensional line's
generator), are decided. For N = 4 the table names each kept rank drop (at a unit point a
pivot's squared minors sum to sigma_1^2 sigma_2^2); a drop of ranks (2, 2, 2) and a tangle root
far from every drop are decided on their own pivot-1 SVD, reading pencil kinds only. Deeper
lines decide every candidate, and read their generic class at one probe point farthest from all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegenerateParameter, UnsupportedDepth, WrongArity
from .numerics import DEFAULT_POLICY, TolerancePolicy, _eigenvalues, _exponent, _leading_svd
from .numerics import _entries, numerical_rank, singular_values
from .states import PureState, _checked_state, _in_range, _integers, make_state, minor_index
from .states import pivot_index
from .subspaces import minor_pencil, projective_quadratic_roots
from .tripartite import TripartiteClass, _classify3_rows, _rank_class

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
        raise WrongArity(f"need at least {minimum} qubits, got {state.n_subsystems}")


def hyperdeterminant(amps) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 amplitude tensor (vanishes off GHZ): b^2 - 4ac of
    the pencil of the qubit-1 slices, (m03 - m12)^2 - 4 m01 m23 over the pivot-2 minors, on the
    eight finite amplitudes (:func:`numerics._entries`) times 2^-e, as :func:`numerics.inv2`
    reads, scaled back by 2^(4e): inf only where the value leaves the float range."""
    t = _entries(amps, 8)
    e = _exponent(t)
    f, g = math.ldexp(1.0, -e), 2.0 ** (e - 1)  # 2^(4e) = 16 g^4, each factor a finite float
    t = [z * f for z in t]
    a, b, c = minor_pencil((t[0:2], t[2:4]), (t[4:6], t[6:8]))
    h = b * b - 4.0 * a * c  # real and imaginary parts scaled apart: inf * 0 never forms
    return complex(h.real * 16.0 * g * g * g * g, h.imag * 16.0 * g * g * g * g)


def _point_classes(vecs, n_sub: int, pol: TolerancePolicy, max_qubits: int) -> list[str]:
    """Class names of the (N-1)-qubit states in the rows of ``vecs``, unit vectors
    alpha w1 + beta w2 (orthonormal w, unit (alpha, beta)); for N = 4, the points the line's
    table does not name, each on its own pivot-1 SVD (``tripartite._classify3_rows``)."""
    if n_sub == 3:
        return [tag.value for tag in _classify3_rows(vecs, pol)]
    return [descriptor(make_state((2,) * n_sub, v), pol, max_qubits).signature() for v in vecs]


def _unit_point(point) -> tuple[complex, complex]:  # + 0.0 turns -0.0 into 0.0
    p, q, r, s = point[0].real, point[0].imag, point[1].real, point[1].imag
    norm = math.sqrt(p * p + q * q + r * r + s * s)
    return complex(p / norm + 0.0, q / norm + 0.0), complex(r / norm + 0.0, s / norm + 0.0)


def _minor_table(w1, w2, n_sub: int):
    """``minor_pencil``'s (a, b, c) along the line, each (n_sub, M): pivot k's m-th minor."""
    return minor_pencil(w1[minor_index(n_sub)], w2[minor_index(n_sub)])


def _rank_drop_candidates(table, norm, pol: TolerancePolicy, scales=None):
    """Unit points of the line where some pivot's matrix drops rank: the roots of its largest
    minor quadratic that zero all its minors, on Python scalars; pivot scales go to ``scales``."""
    a, b, c = table
    floor = 1e-13 * norm**2
    drops, scales = [], [] if scales is None else scales
    for ak, bk, ck in zip(a.tolist(), b.tolist(), c.tolist()):  # pivot k: one entry per minor
        size = list(map(max, map(abs, ak), map(abs, bk), map(abs, ck)))
        scale = max(size)
        scales.append(scale)
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


def _tangle_candidates(table, norm, quartic=None) -> list:
    """Unit roots of ``quartic``, the table's tangle quartic if None: (1, 0) if its degree in t
    (points t*w1 + w2) is below 4, then (t, 1) for np.roots' t: companion eigenvalues (the
    LAPACK gufunc, :func:`numerics._eigenvalues`), zeros."""
    h = (_tangle_quartic(table) if quartic is None else quartic)[::-1].tolist()  # h[k]: t^k
    s = max(map(abs, h))
    if s <= 1e-12 * norm**4:
        return []
    degree = max(k for k in range(5) if abs(h[k]) > 1e-9 * s)
    zeros = next(k for k in range(5) if h[k] != 0)
    p = np.array(h[zeros : degree + 1][::-1])  # highest power first
    companion = np.eye(len(p) - 1, k=-1, dtype=complex)
    companion[:1] = -p[1:] / p[0]  # nothing to assign in a 0 x 0 companion
    t = [*_eigenvalues(companion).tolist(), *[0j] * zeros]
    return list(map(_unit_point, [(1.0, 0.0)] * (degree < 4) + [(x, 1.0) for x in t]))


def _table_classes(table, points, tol: float) -> list:
    """Class names of unit points of an orthonormal 3-qubit line from its minor table, None at
    ranks (2, 2, 2). Pivot k's 2x4 matrix has unit norm, so its squared minors sum to
    M = sigma_1^2 sigma_2^2 (Cauchy-Binet) and sigma_2 / sigma_1 = 2 sqrt(M) / (1 + sqrt(1 - 4M)),
    ``_pivot_ratios`` at tr G = 1, with 1 - 4M clamped at 0 (an EPR-type pivot's M is 1/4)."""
    a, b, c = (x.tolist() for x in table)
    classes = []
    for u, v in points:
        uu, uv, vv, ranks = u * u, u * v, v * v, []
        for ak, bk, ck in zip(a, b, c):  # pivot k: one entry per minor
            m = sum([abs(x * uu + y * uv + z * vv) ** 2 for x, y, z in zip(ak, bk, ck)])
            ratio = 2.0 * math.sqrt(m) / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * m)))
            ranks.append(1 + (ratio > tol))
        tag = _rank_class(tuple(ranks))
        classes.append(tag and tag.value)
    return classes


def _line(w1, w2, n_sub: int, pol: TolerancePolicy):
    """Merged rank drops, then (N = 4) tangle roots, a root within _SNAP_DISTANCE (chordal) of
    a drop being that drop; for N = 4 the generic class and the :func:`_table_classes` of the
    kept drops, the merge's prefix (None and [] above), each read once."""
    table, norm = _minor_table(w1, w2, n_sub), np.linalg.norm(w1) + np.linalg.norm(w2)
    scales = []  # each pivot's largest minor coefficient, read by the rank-drop pass
    drops = _rank_drop_candidates(table, norm, pol, scales)
    if n_sub > 3:
        return _merge(drops), None, []
    quartic = _tangle_quartic(table)  # one per line: its roots and the GHZ/W test
    tangle = _tangle_candidates(table, norm, quartic)
    overlaps = [[abs(a.conjugate() * x + b.conjugate() * y) for x, y in drops] for a, b in tangle]
    far = [p for p, o in zip(tangle, overlaps) if all(1.0 - v * v > _SNAP_DISTANCE**2 for v in o)]
    tag = _rank_class(tuple(2 if s > pol.rank_rel_tol * norm**2 else 1 for s in scales))
    if tag is None:  # ranks (2, 2, 2): GHZ or W (module docstring)
        ghz = max(map(abs, quartic.tolist())) > 1e-8 * min(scales) ** 2
        tag = TripartiteClass.GHZ if ghz else TripartiteClass.W
    kept = _merge(drops).tolist()  # drops enter the merge first, so they stay its prefix
    return _merge(kept + far), tag.value, kept and _table_classes(table, kept, pol.rank_rel_tol)


def _merge(candidates) -> np.ndarray:
    """Greedy scalar merge: keep each candidate farther than _MERGE_DISTANCE from all kept."""
    kept = []
    for a, b in candidates:
        overlaps = (abs(x.conjugate() * a + y.conjugate() * b) for x, y in kept)
        if all(math.sqrt(max(0.0, 1.0 - o * o)) > _MERGE_DISTANCE for o in overlaps):
            kept.append((a, b))
    return np.array(kept, dtype=complex).reshape(-1, 2)


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
    """Right-singular-subspace descriptor of an N >= 4 qubit state (module docstring), read at
    its working scale (``states._in_range``: its unit ray where sigma_1 could pass 2^1024)."""
    _require_qubits(state, 4)
    n = state.n_subsystems
    if n > max_qubits:
        raise UnsupportedDepth(f"{n} qubits exceeds the configured recursion depth {max_qubits}")
    n_sub, state = n - 1, _in_range(state)
    _, sigma, W, _ = _leading_svd(state.amps[pivot_index(state.dims, 1)])
    dim_w = numerical_rank(sigma, pol)

    if dim_w == 1:
        line = _point_classes(W[:, :1].T, n_sub, pol, max_qubits)[0]
        return StructureDescriptor(n_qubits=n, dim_w=1, line_class=line)

    w1, w2 = W.T
    merged, generic, named = _line(w1, w2, n_sub, pol)
    points = merged if generic else np.concatenate((_generic_point(merged)[None], merged))
    classes = named + [None] * (len(points) - len(named))
    rows = [i for i, cls in enumerate(classes) if cls is None]  # the points the table leaves
    if rows:
        vecs = points[rows]
        read = iter(_point_classes(vecs[:, :1] * w1 + vecs[:, 1:] * w2, n_sub, pol, max_qubits))
        classes = [cls or next(read) for cls in classes]
    generic = generic or classes.pop(0)  # N >= 5 reads its generic class at the probe point
    exceptional = sorted(
        (cls, *[round(x, 9) for z in point for x in (z.real, z.imag)], i)
        for i, (cls, point) in enumerate(zip(classes, merged.tolist())) if cls != generic
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

    Qubit p >= 2 factors out exactly when its pivot matrix C, ``coefficient_matrix(state, p)``'s
    entries, has numerical rank 1, read as ``sigma_2 <= rank_rel_tol * sigma_1`` from one
    ``singular_values`` call over pivots 2..N, gathered through one cached index. The factor is C's
    first left singular vector, so only a rank-1 pivot takes a full SVD; reduced is factor^H C, the
    one ``np.dot`` that ``np.tensordot`` makes (its bytes), frozen uncopied. The rebuild test
    compares factor (x) reduced with C in C's own layout, both times 2^-e, e the state's stored
    ``exponent``. Returns ``(p, factor, reduced_state)`` for the first such p whose factor
    rebuilds the state within ``residual_tol``, else ``None``; the state is read at its working
    scale (``states._in_range``), so where sigma_1 could pass 2^1024, factor (x) reduced_state
    rebuilds its unit ray. A pivot-qubit factor shows up as dim_w = 1 in :func:`descriptor` instead.
    """
    _require_qubits(state, 3)
    n, state = state.n_subsystems, _in_range(state)
    pivots = state.amps[_factor_index(n)]
    for p, (s1, s2) in enumerate(singular_values(pivots).tolist(), start=2):
        if s2 > pol.rank_rel_tol * s1:
            continue
        c = pivots[p - 2]
        factor = _leading_svd(c)[0][:, 0]
        # tensordot's one np.dot (its (1, 2) row and a 1-D factor^H take the same gemv) on C, its
        # C-order copy for p < N; at p = N its strided view of the amplitudes sets the last bits
        reduced = np.dot(factor.conj(), c if p < n else state.amps.reshape(-1, 2).T)
        f = math.ldexp(1.0, -state.exponent)  # exact: no norm under- or overflows
        residual = np.linalg.norm((factor[:, None] * reduced - c) * f)
        if residual > pol.residual_tol * np.linalg.norm(c * f):
            continue
        return p, factor, _checked_state((2,) * (n - 1), reduced)
    return None


def class_count_bound(m_n: int, n: int) -> ClassCountBound:
    """Bound on the (n+1)-qubit class count: half m (m + 2n + 3), split exactly.

    The genuine part counts unordered generator-class pairs, the degenerate
    part the (n+1) possible factor positions times the n-qubit classes.
    Python integers are arbitrary precision, so no overflow handling is
    needed. Non-integral inputs, infinities and bools are refused, not truncated.
    """
    ints = _integers((m_n, n))
    if ints is None:
        raise ValueError(f"m_n and n must be integers, got {(m_n, n)}")
    m_n, n = ints
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
    return make_state((2, 2, 2, 2), [0, 0, *v, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])


def ghz_state(n_qubits: int) -> PureState:
    """|0...0> + |1...1> on n qubits."""
    if n_qubits < 2:
        raise WrongArity("a GHZ-type state needs at least 2 qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[[0, -1]] = 1.0
    return make_state((2,) * n_qubits, amps)


def cluster_state_4() -> PureState:
    """The 4-qubit cluster state |0000> + |0011> + |1100> - |1111>."""
    return make_state((2, 2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1])
