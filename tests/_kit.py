"""Reproducible generators and reference oracles for the test suites.

None of this is part of the ``slocc`` package: the package computes the
decisions, and these helpers draw inputs for it or re-derive its readings by
independent routes (eigenvalues of a 2x2 matrix, a Schmidt-form rebuild, the
chordal distance of projective points, a brute-force count of product
directions, a descriptor that classifies its line points one at a time, a
factor search with one SVD per pivot, Cayley's explicit hyperdeterminant, the
tangle quartic read from pivot 2 alone and solved by ``np.roots``, and the
GHZ/W kind rule of a quadratic in exact rational arithmetic).

The random source is counter-based (Philox keyed through SeedSequence), so a
given seed produces the same draws on every platform. Sources are values:
use ``split`` to derive independent child sources instead of sharing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from slocc import multiqubit
from slocc.bipartite import SchmidtForm
from slocc.errors import DependentGenerators, UnsupportedDepth
from slocc.multiqubit import StructureDescriptor
from slocc.numerics import DEFAULT_POLICY, TolerancePolicy, numerical_rank, svd
from slocc.states import PureState, coefficient_matrix, make_state, pivot_index
from slocc.subspaces import _EPS, RootKind, minor_pencil
from slocc.tripartite import classify3

MANY = "many"


@dataclass(frozen=True)
class RandomSource:
    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.key))
        )

    def split(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self.key + (int(index),))


def random_state(dims, src: RandomSource) -> PureState:
    """State with independent standard-normal real and imaginary parts."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    g = src.generator()
    while True:
        amps = g.standard_normal(total) + 1j * g.standard_normal(total)
        if np.linalg.norm(amps) > 1e-6 * np.sqrt(2 * total):
            return make_state(dims, amps)


def random_ilo(dim: int, src: RandomSource, cond_cap: float = 1e3) -> np.ndarray:
    """Random invertible matrix, resampled until its condition number fits."""
    if cond_cap <= 1.0:
        raise ValueError("cond_cap must exceed 1")
    g = src.generator()
    while True:
        m = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= cond_cap:
            return m


def eig2(matrix) -> tuple[complex, complex]:
    """Both eigenvalues of a 2x2 matrix, larger magnitude first.

    Roots of ``lam^2 - tr*lam + det`` via the numerically stable quadratic
    formula; the companion root is recovered as ``det / lam1`` when lam1 is
    nonzero.
    """
    m = np.asarray(matrix, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    if abs(tr + disc) >= abs(tr - disc):
        lam1 = (tr + disc) / 2.0
    else:
        lam1 = (tr - disc) / 2.0
    lam2 = det / lam1 if lam1 != 0 else complex(0.0)
    return complex(lam1), complex(lam2)


def is_degenerate(pair, scale: float, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when the two eigenvalues coincide at the policy's tolerance.

    ``scale`` is a caller-supplied spectral scale (typically the norm of the
    matrix whose spectrum is tested) so that a pair of near-zero eigenvalues
    of a non-zero matrix still registers as degenerate.
    """
    lam1, lam2 = pair
    return abs(lam1 - lam2) <= pol.deg_tol * max(scale, abs(lam1) + abs(lam2))


def reconstruct(form: SchmidtForm) -> np.ndarray:
    """Flat amplitude vector rebuilt from a Schmidt form."""
    return ((form.left_basis * form.coeffs) @ form.right_basis.T).reshape(-1)


def _chordal_distance(p, q) -> float:
    a = np.array(p, dtype=complex)
    b = np.array(q, dtype=complex)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)))


_GRID_CACHE: dict[int, tuple] = {}


def _sphere_grid(n_points):
    """Grid over the projective line as (alpha, beta) pairs on the 2-sphere."""
    if n_points in _GRID_CACHE:
        return _GRID_CACHE[n_points]
    n_theta = max(int(np.sqrt(n_points / 2.0)), 8)
    n_phi = 2 * n_theta
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    tt = tt.reshape(-1)
    pp = pp.reshape(-1)
    alpha = np.cos(tt / 2.0).astype(complex)
    beta = np.sin(tt / 2.0) * np.exp(1j * pp)
    spacing = np.pi / (n_theta - 1)
    _GRID_CACHE[n_points] = (alpha, beta, spacing)
    return _GRID_CACHE[n_points]


def _abs_det(W1, W2, alpha, beta):
    m00 = alpha * W1[0, 0] + beta * W2[0, 0]
    m01 = alpha * W1[0, 1] + beta * W2[0, 1]
    m10 = alpha * W1[1, 0] + beta * W2[1, 0]
    m11 = alpha * W1[1, 1] + beta * W2[1, 1]
    return np.abs(m00 * m11 - m01 * m10)


def _refine_batch(W1, W2, alpha, beta, depth, half0=0.5, avoid=None):
    """Shrinking local search around each candidate, all in one batch.

    Moves live in the projective tangent space at each current point, so
    the search has no coordinate pinch anywhere on the sphere. With
    ``avoid`` set, minimizes |det| deflated by the chordal distance to that
    point, which digs out a second zero sharing a basin with a found one.
    """
    offsets = np.linspace(-1.0, 1.0, 5)
    dx, dy = np.meshgrid(offsets, offsets, indexing="ij")
    step = (dx + 1j * dy).reshape(-1)
    a = np.asarray(alpha, dtype=complex).copy()
    b = np.asarray(beta, dtype=complex).copy()
    rows = np.arange(a.size)
    half = half0
    for _ in range(depth):
        perp_a = -np.conj(b)
        perp_b = np.conj(a)
        ca = a[:, None] + half * step[None, :] * perp_a[:, None]
        cb = b[:, None] + half * step[None, :] * perp_b[:, None]
        norm = np.sqrt(np.abs(ca) ** 2 + np.abs(cb) ** 2)
        ca /= norm
        cb /= norm
        vals = _abs_det(W1, W2, ca, cb)
        if avoid is not None:
            overlap = ca * np.conj(avoid[0]) + cb * np.conj(avoid[1])
            dist = np.sqrt(np.maximum(0.0, 1.0 - np.abs(overlap) ** 2))
            vals = vals / np.maximum(dist, 1e-7)
        pick = np.argmin(vals, axis=1)
        a = ca[rows, pick]
        b = cb[rows, pick]
        half *= 0.5
    return a, b, _abs_det(W1, W2, a, b)


def brute_product_count(w1, w2, grid_n: int = 10_000, depth: int = 20):
    """Count product directions in span{w1, w2} by sweeping |det| to zero.

    Sweeps the projective line (as the 2-sphere of normalized (alpha, beta)
    pairs), refines the candidate minima of |det(alpha*W1 + beta*W2)|, and
    merges refined zeros closer than 1e-6. Returns 0, 1, 2, or ``MANY``.
    Used only as an independent cross-check of the analytic root finder.
    """
    v1 = np.asarray(w1, dtype=complex).reshape(-1)
    v2 = np.asarray(w2, dtype=complex).reshape(-1)
    gram = (
        float(np.vdot(v1, v1).real) * float(np.vdot(v2, v2).real)
        - abs(np.vdot(v1, v2)) ** 2
    )
    if gram <= 1e-9 * float(np.vdot(v1, v1).real) * float(np.vdot(v2, v2).real):
        raise DependentGenerators("the generators are numerically parallel")
    W1 = v1.reshape(2, 2).T
    W2 = v2.reshape(2, 2).T
    scale = (np.linalg.norm(W1) + np.linalg.norm(W2)) ** 2

    alpha, beta, spacing = _sphere_grid(grid_n)
    vals = _abs_det(W1, W2, alpha, beta)
    if float(vals.max()) <= 1e-10 * scale:
        return MANY
    # |det| is tiny on a large fraction of the sphere only when it vanishes
    # identically up to noise.
    if float(np.mean(vals <= 1e-8 * scale)) > 0.1:
        return MANY

    # Spatially distinct starts: the smallest grid values, skipping
    # candidates projectively adjacent to an already chosen one.
    top = np.argpartition(vals, 200)[:200]
    top = top[np.argsort(vals[top])]
    cand_a = [complex(z) for z in alpha[top]]
    cand_b = [complex(z) for z in beta[top]]
    min_overlap_sq = 1.0 - (2.0 * spacing) ** 2
    starts_rows: list[int] = []
    for i in range(top.size):
        a_i = cand_a[i]
        b_i = cand_b[i]
        if any(
            abs(cand_a[j].conjugate() * a_i + cand_b[j].conjugate() * b_i) ** 2
            > min_overlap_sq
            for j in starts_rows
        ):
            continue
        starts_rows.append(i)
        if len(starts_rows) >= 8:
            break
    picked = top[starts_rows]
    q_scale = float(vals.max())

    def _find_zeros(zeros, avoid=None):
        a0, b0, _ = _refine_batch(W1, W2, alpha[picked], beta[picked], depth, avoid=avoid)
        # Polish from the refined positions so converged zeros separate
        # cleanly (by many orders of magnitude) from stalled descents.
        als, bes, refined = _refine_batch(W1, W2, a0, b0, 16, half0=1e-4)
        for al, be, val in zip(als, bes, refined):
            if val > 1e-7 * q_scale:
                continue
            point = (complex(al), complex(be))
            if all(_chordal_distance(point, z) > 1e-6 for z in zeros):
                zeros.append(point)
        return zeros

    zeros = _find_zeros([])
    if len(zeros) == 1:
        # A second zero can share the basin of the first; deflate and retry.
        zeros = _find_zeros(zeros, avoid=zeros[0])
    count = len(zeros)
    if count > 2:
        return MANY
    return count


def cayley_hyperdeterminant(amps) -> complex:
    """Cayley's hyperdeterminant of a 2x2x2 amplitude tensor, expanded term by term."""
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


def tangle_quartic(w1, w2) -> np.ndarray:
    """The tangle quartic of the line alpha*w1 + beta*w2 (alpha^4 first), its pivot-2 minors
    m01, m03, m12 and m23 gathered directly from the pivot-2 matrices of w1 and w2."""
    index = pivot_index((2, 2, 2), 2)[:, [[0, 0, 1, 2], [1, 3, 2, 3]]]
    m01, m03, m12, m23 = np.array(minor_pencil(w1[index], w2[index])).T
    return np.convolve(m03 - m12, m03 - m12) - 4.0 * np.convolve(m01, m23)


def tangle_roots(quartic, floor: float) -> list:
    """Projective roots (alpha, beta) of a tangle quartic, unnormalized, by ``np.roots``:
    none when no coefficient passes ``floor``, (1, 0) when its degree in t (the points
    t*w1 + w2) is below 4, then (t, 1) for each of np.roots' t."""
    h = np.asarray(quartic)[::-1]  # h[k] multiplies t^k
    s = float(np.abs(h).max())
    if s <= floor:
        return []
    degree = max(k for k in range(5) if abs(h[k]) > 1e-9 * s)
    return [(1.0, 0.0)] * (degree < 4) + [(complex(t), 1.0) for t in np.roots(h[degree::-1])]


def _modulus2(z) -> Fraction:
    return z[0] ** 2 + z[1] ** 2


def root_kind(a, b, c, deg_tol: float) -> RootKind:
    """The kind rule of ``projective_quadratic_roots`` on exact rationals: all zero is
    InfinitelyMany; |b^2 - 4ac| <= deg_tol s^2 (s the largest modulus) a double root; else
    |a| <= _EPS s puts a root at (1, 0), double when |b| <= _EPS s too. Moduli are compared
    squared, so no rounding enters; inputs must keep clear of each threshold."""
    parts = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, (a, b, c))]
    (ar, ai), (br, bi), (cr, ci) = parts
    s2 = max(map(_modulus2, parts))
    if s2 == 0:
        return RootKind.INFINITELY_MANY
    disc = (br * br - bi * bi - 4 * (ar * cr - ai * ci), 2 * br * bi - 4 * (ar * ci + ai * cr))
    if _modulus2(disc) <= Fraction(deg_tol) ** 2 * s2 * s2:
        return RootKind.ONE_DOUBLE
    eps2 = Fraction(_EPS) ** 2 * s2
    if _modulus2((ar, ai)) <= eps2:
        return RootKind.ONE_DOUBLE if _modulus2((br, bi)) <= eps2 else RootKind.TWO_DISTINCT
    return RootKind.TWO_DISTINCT


def _point_class(vec, n_sub: int, pol: TolerancePolicy, max_qubits: int) -> str:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    point = make_state((2,) * n_sub, v)
    if n_sub == 3:
        return classify3(point, pol).tag.value
    return reference_descriptor(point, pol, max_qubits=max_qubits).signature()


def reference_descriptor(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY, max_qubits: int = 4
) -> StructureDescriptor:
    """The descriptor with its line points classified one at a time: each point
    becomes a state of its own and goes through :func:`classify3` (or, deeper,
    through this function), in the order probe point, then merged candidates.
    The candidates come from the package's own snap-and-merge step."""
    multiqubit._require_qubits(state, 4)
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
    merged = multiqubit._line(w1, w2, n_sub, pol)[0]
    generic, *classes = (
        _point_class(point[0] * w1 + point[1] * w2, n_sub, pol, max_qubits)
        for point in (multiqubit._generic_point(merged), *merged)
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


def reference_factor_support(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY):
    """Factor search with one SVD per non-pivot qubit, each rank read from its sigma; the
    rebuild test reads the state scaled by the power of two of its largest part."""
    multiqubit._require_qubits(state, 3)
    n = state.n_subsystems
    t = state.tensor()
    for p in range(2, n + 1):
        res = svd(coefficient_matrix(state, p).entries)
        if numerical_rank(res.sigma, pol) != 1:
            continue
        factor = res.V[:, 0]
        reduced = np.tensordot(factor.conj(), t, axes=(0, p - 1))
        rebuilt = np.moveaxis(np.tensordot(factor, reduced, axes=0), 0, p - 1)
        top = max(np.abs(t.real).max(), np.abs(t.imag).max())
        f = 2.0 ** -max(int(np.frexp(top)[1]), -1023)
        if np.linalg.norm((rebuilt - t) * f) > pol.residual_tol * np.linalg.norm(t * f):
            continue
        reduced_state = make_state((2,) * (n - 1), reduced.reshape(-1))
        return p, factor, reduced_state
    return None
