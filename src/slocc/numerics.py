"""Numeric kernels with an explicit tolerance policy.

All rank and degeneracy decisions in the package go through the thresholds
collected in :class:`TolerancePolicy`, so that classification is
scale-invariant and the sensitivity to the cutoffs can be probed by running
the same analysis under a different policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import svd as _lapack_sigma, svd_f as _lapack_svd  # numpy >= 2.0

from .errors import EmptySpectrum, NonFinite, SingularMatrix


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative thresholds used by every numerical decision.

    rank_rel_tol: singular values below ``rank_rel_tol * sigma_1`` count as
        zero when computing a numerical rank.
    deg_tol: relative threshold for declaring two eigenvalues (or the two
        roots of a quadratic) coincident.
    residual_tol: maximum relative reconstruction / reduction residual.
    """

    rank_rel_tol: float = 1e-9
    deg_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_tol", "deg_tol", "residual_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_POLICY = TolerancePolicy()


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition ``Q = V @ diag(sigma) @ W.conj().T``.

    V is m x m unitary, W is n x n unitary (columns are the right singular
    vectors), sigma is nonincreasing, and ``matrix`` is a read-only copy of
    the decomposed input Q. ``residual``, the relative Frobenius
    reconstruction error, is computed from it on first access.
    """

    V: np.ndarray
    sigma: np.ndarray
    W: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        # Q and sigma scaled by 2**-e: no norm under- or overflows
        f = math.ldexp(1.0, -_exponent(self.matrix.ravel().tolist()))
        q = self.matrix * f
        norm = np.linalg.norm(q)
        if norm == 0.0:
            return 0.0
        k = self.sigma.size
        recon = (self.V[:, :k] * (self.sigma * f)) @ self.W[:, :k].conj().T
        return float(np.linalg.norm(q - recon) / norm)


def _lead_phase(col) -> complex:
    """Phase of the first significant component of a column (1 if none)."""
    for z in col:
        if abs(z) > 1e-8:
            return z * (1.0 / abs(z))  # rounds as numpy divides complex by real
    return 1.0


def _phases(cols, null_rows) -> list:
    """Phases of U's columns, then of W's null columns (rows of Vh are conjugated
    columns of W)."""
    return [*map(_lead_phase, cols), *(_lead_phase(row).conjugate() for row in null_rows)]


def _svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# the error state np.linalg.svd calls its gufuncs under
_svd_errstate = np.errstate(
    call=_svd_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


@_svd_errstate
def svd(matrix) -> SvdResult:
    """SVD with a pinned phase convention so results are deterministic.

    The first significant component of each left singular vector is made
    real positive; the compensating phase is absorbed into the paired right
    singular vector. Left-over null-space columns are phase-fixed on their
    own.

    The decomposition calls ``svd_f``, the LAPACK gufunc that
    ``np.linalg.svd(a, full_matrices=True)`` wraps, under the same error
    state, so its output is byte for byte numpy's. The input is already a
    finite complex 2-d array here; on matrices this small numpy's per-call
    conversions and checks would add about half of LAPACK's own time.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise NonFinite(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")

    U, s, Vh = _lapack_svd(a, signature="D->DdD")
    (m, n), k = a.shape, s.size
    phases = np.array(_phases(U.T.tolist(), Vh[k:].tolist()))
    V = U / phases[:m]
    W = Vh.conj().T / phases[:n]
    for arr in (a, V, W, s):
        arr.setflags(write=False)
    return SvdResult(V=V, sigma=s, W=W, matrix=a)


@_svd_errstate
def singular_values(matrices) -> np.ndarray:
    """Singular values of a finite complex matrix or stack (..., m, n) from ``svd``, the LAPACK
    gufunc that ``np.linalg.svd(a, compute_uv=False)`` wraps, under the same error state: byte
    for byte numpy's, without numpy's per-call conversions and checks."""
    return _lapack_sigma(matrices, signature="D->d")


def numerical_rank(sigma, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Count singular values above ``rank_rel_tol`` times the first (the largest).

    Raises :class:`EmptySpectrum` unless the first value is positive, and
    :class:`NonFinite` unless it is finite: for a finite matrix whose sigma_1
    nears or leaves the float range's end, LAPACK returns inf or NaN without error."""
    s = np.asarray(sigma, dtype=float).tolist()  # Python floats: numpy's results, half its cost
    if not s or s[0] <= 0.0:
        raise EmptySpectrum("rank needs at least one positive singular value")
    if not math.isfinite(s[0]):
        raise NonFinite("singular values leave the float range")
    return sum(x > pol.rank_rel_tol * s[0] for x in s)


def _pivot_ratios(s1: float, s2: float, w1: list, w2: list) -> list[float]:
    """sigma_2 / sigma_1 of [W1 | rho W2] and [W1^T | rho W2^T], W_l = w_l.reshape(2, 2)
    and rho = s2 / s1, in Python scalars.

    For a 3-qubit state with pivot-1 SVD sum_l s_l v_l (x) conj(w_l) these are, up to
    conjugation and a unitary change of columns, which keep singular values, its
    pivot-2 and pivot-3 matrices. For the unit generators of a span and s1 = s2 = 1
    they read its common left and right factor (``subspaces.classify_span``).
    Each ratio is ||m|| / sigma_1^2 over the six 2x2 minors m (Cauchy-Binet), with
    sigma_1^2 = (tr G + sqrt((g11 - g22)^2 + 4 |g12|^2)) / 2 from the Gram matrix G:
    no cancellation, and no under- or overflow among unit-vector components.
    """
    rho = s2 / s1
    v = [rho * z for z in w2]
    dets = abs(w1[0] * w1[3] - w1[1] * w1[2]) ** 2 + abs(v[0] * v[3] - v[1] * v[2]) ** 2
    ratios = []
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3))):  # rows of W_l, then of W_l^T
        x0, x1, x2, x3, y0, y1, y2, y3 = w1[i], w1[j], v[i], v[j], w1[k], w1[l], v[k], v[l]
        minors = dets + abs(x0 * y2 - x2 * y0) ** 2 + abs(x0 * y3 - x3 * y0) ** 2
        minors += abs(x1 * y2 - x2 * y1) ** 2 + abs(x1 * y3 - x3 * y1) ** 2
        g11 = abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2
        g22 = abs(y0) ** 2 + abs(y1) ** 2 + abs(y2) ** 2 + abs(y3) ** 2
        g12 = x0 * y0.conjugate() + x1 * y1.conjugate() + x2 * y2.conjugate()
        g12 = abs(g12 + x3 * y3.conjugate())
        ratios.append(2.0 * math.sqrt(minors) / (g11 + g22 + math.hypot(g11 - g22, 2.0 * g12)))
    return ratios


def _top_direction(rows) -> list:
    """Unit top eigenvector of G = C C^dagger, C a 2xM matrix given as two rows of Python
    scalars, phase-pinned as by :func:`svd`: for a rank-1 C, its first left singular vector.
    G is read on C times 2^-e, e the exponent of its largest part, so nothing under- or
    overflows; the row of G - lambda_1 with the larger diagonal gap gives the vector."""
    f = math.ldexp(1.0, -_exponent(rows[0] + rows[1]))
    x, y = [[z * f for z in row] for row in rows]
    g11, g22 = (sum([z.real * z.real + z.imag * z.imag for z in r]) for r in (x, y))
    g12 = sum([a * b.conjugate() for a, b in zip(x, y)])
    d, h = g11 - g22, math.hypot(g11 - g22, 2.0 * abs(g12))  # h = lambda_1 - lambda_2
    v = ((d + h) or 1.0, 2.0 * g12.conjugate()) if d >= 0.0 else (2.0 * g12, h - d)  # G = g I: e1
    n = math.hypot(abs(v[0]), abs(v[1]))
    phase = n * _lead_phase([z / n for z in v])
    return [z / phase for z in v]


def _exponent(parts) -> int:
    """Binary exponent e with every real and imaginary part below 2**e in size, at
    least -1023 so that 2**-e is finite: scaling by 2**-e is exact in every part
    that stays normal."""
    top = max([abs(z.real) for z in parts] + [abs(z.imag) for z in parts])
    return max(math.frexp(top)[1], -1023)


def inv2(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Adjugate-over-determinant inverse of a 2x2 matrix, :func:`_inv2` of its entries read as
    Python complex scalars. Raises :class:`SingularMatrix` when |det| is at most
    ``rank_rel_tol`` times the squared Frobenius norm, a test independent of the matrix scale,
    or when the inverse could leave the float range. The test and the adjugate run on the
    matrix scaled by the power of two that puts its largest real or imaginary part in
    [0.5, 1): the scaling is exact, so neither |det| nor the norm under- or overflows."""
    return np.array(_inv2(np.asarray(matrix, dtype=complex).tolist(), pol))


def _inv2(rows, pol: TolerancePolicy) -> list[list]:
    """:func:`inv2` of the nested lists ((p, q), (r, s)) of Python scalars, as nested lists."""
    (p, q), (r, s) = rows
    e = _exponent((p, q, r, s))
    f = math.ldexp(1.0, -e)
    p, q, r, s = p * f, q * f, r * f, s * f
    det = p * s - q * r
    scale = abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2 + abs(s) ** 2
    if abs(det) <= pol.rank_rel_tol * scale:
        with np.errstate(over="ignore"):  # report the unscaled values
            det_abs, scale = np.ldexp([abs(det), scale], 2 * e)
        raise SingularMatrix(f"|det| = {det_abs:.3e} at matrix scale {scale:.3e}")
    if math.frexp(abs(det))[1] + e < -1022:  # |inverse| < 2^(0.5-e)/|det| may pass 2^1024
        raise SingularMatrix(f"inverse outside the float range, entries below 2^{e}")
    g = f / det  # the inverse of the unscaled matrix is adj(m * 2**-e) * 2**-e / det
    return [[s * g, -q * g], [-r * g, p * g]]
