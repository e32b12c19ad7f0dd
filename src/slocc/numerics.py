"""Numeric kernels with an explicit tolerance policy.

All rank and degeneracy decisions in the package go through the thresholds
collected in :class:`TolerancePolicy`, so that classification is
scale-invariant and the sensitivity to the cutoffs can be probed by running
the same analysis under a different policy. Every decomposition in the package
is one kernel, :func:`_leading_svd`; the public :func:`svd` is built on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _lapack_eigvals  # numpy >= 2.0, as are svd, svd_f
from numpy.linalg._umath_linalg import svd as _lapack_sigma, svd_f as _lapack_svd

from .errors import DimensionMismatch, EmptySpectrum, NonFinite, SingularMatrix


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
    reconstruction error, is computed from it on first access; it raises
    :class:`NonFinite` where sigma_1, the largest value, left the float range.
    """

    V: np.ndarray
    sigma: np.ndarray
    W: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        if not math.isfinite(self.sigma[0]):  # as numerical_rank refuses it, with no warning
            raise NonFinite("singular values leave the float range")
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


def _nonconvergence(message: str) -> np.errstate:
    """The error state np.linalg calls its LAPACK gufuncs under: a failed convergence, which a
    gufunc flags as an invalid operation, raises ``LinAlgError(message)``."""
    def handler(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=handler, invalid="call", over="ignore", divide="ignore", under="ignore")


_svd_errstate = _nonconvergence("SVD did not converge")
_eig_errstate = _nonconvergence("Eigenvalues did not converge")


@_svd_errstate
def _leading_svd(matrix) -> tuple:
    """(V, sigma, W_k, Vh): :func:`svd`'s V, sigma and W[:, :k], k = min(m, n), byte for byte,
    and LAPACK's Vh, whose rows past k are W's unpinned null columns conjugated. The package's
    one decomposition: no null-space phase, read-only flag or :class:`SvdResult` is built."""
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise NonFinite(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains non-finite entries")
    U, s, Vh = _lapack_svd(a, signature="D->DdD")
    phases = np.array([*map(_lead_phase, U.T.tolist())])
    k = s.size
    return U / phases, s, Vh[:k].conj().T / phases[:k], Vh


@_svd_errstate
def svd(matrix) -> SvdResult:
    """SVD with a pinned phase convention so results are deterministic.

    The first significant component of each left singular vector is made
    real positive; the compensating phase is absorbed into the paired right
    singular vector. Left-over null-space columns are phase-fixed on their
    own.

    It is :func:`_leading_svd`, which calls ``svd_f``, the LAPACK gufunc that
    ``np.linalg.svd(a, full_matrices=True)`` wraps, under the same error state,
    so its output is byte for byte numpy's, plus W's null columns, read-only
    flags and the result, which no package caller reads.
    """
    a = np.array(matrix, dtype=complex)
    V, s, W, Vh = _leading_svd(a)
    null = Vh[s.size :]  # W's null columns, each divided by its own phase
    if null.size:
        phases = np.array([_lead_phase(row).conjugate() for row in null.tolist()])
        W = np.concatenate((W, null.conj().T / phases), axis=1)
    for arr in (a, V, W, s):
        arr.setflags(write=False)
    return SvdResult(V=V, sigma=s, W=W, matrix=a)


@_svd_errstate
def singular_values(matrices) -> np.ndarray:
    """Singular values of a finite complex matrix or stack (..., m, n) from ``svd``, the LAPACK
    gufunc that ``np.linalg.svd(a, compute_uv=False)`` wraps, under the same error state: byte
    for byte numpy's, without numpy's per-call conversions and checks."""
    return _lapack_sigma(matrices, signature="D->d")


@_eig_errstate
def _eigenvalues(matrix) -> np.ndarray:
    """``np.linalg.eigvals`` of a finite complex square matrix, from its LAPACK gufunc."""
    return _lapack_eigvals(matrix, signature="D->D")


def numerical_rank(sigma, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Count singular values above ``rank_rel_tol`` times the first (the largest).

    Raises :class:`EmptySpectrum` unless the first value is positive, and
    :class:`NonFinite` unless all are finite: for a finite matrix whose sigma_1
    nears or leaves the float range's end, LAPACK returns inf or NaN without error."""
    s = np.asarray(sigma, dtype=float).tolist()  # Python floats: numpy's results, half its cost
    if not s or s[0] <= 0.0:
        raise EmptySpectrum("rank needs at least one positive singular value")
    if not all(map(math.isfinite, s)):
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
    z = w1 + [rho * x for x in w2]  # entry (r, c) of W1 is z[2 r + c], of rho W2 z[4 + 2 r + c]
    q = [abs(x) ** 2 for x in z]  # each squared modulus once, for both pivots' Gram diagonals
    dets = abs(z[0] * z[3] - z[1] * z[2]) ** 2 + abs(z[4] * z[7] - z[5] * z[6]) ** 2
    ratios = []
    for i0, i1, i2, i3, j0, j1, j2, j3 in ((0, 1, 4, 5, 2, 3, 6, 7), (0, 2, 4, 6, 1, 3, 5, 7)):
        x0, x1, x2, x3, y0, y1, y2, y3 = z[i0], z[i1], z[i2], z[i3], z[j0], z[j1], z[j2], z[j3]
        minors = dets + abs(x0 * y2 - x2 * y0) ** 2 + abs(x0 * y3 - x3 * y0) ** 2
        minors += abs(x1 * y2 - x2 * y1) ** 2 + abs(x1 * y3 - x3 * y1) ** 2
        g11 = q[i0] + q[i1] + q[i2] + q[i3]
        g22 = q[j0] + q[j1] + q[j2] + q[j3]
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


def _entries(values, size: int) -> list:
    """The ``size`` entries of an array-like, flat, as Python complex scalars: raises
    :class:`DimensionMismatch` for another count, :class:`NonFinite` for an inf or NaN part."""
    flat = np.asarray(values, dtype=complex).reshape(-1).tolist()
    if len(flat) != size:
        raise DimensionMismatch(f"expected a {size}-vector, got length {len(flat)}")
    if not all(map(cmath.isfinite, flat)):
        raise NonFinite("vector contains non-finite entries")
    return flat


def _exponent(parts) -> int:
    """Binary exponent e with every real and imaginary part below 2**e in size, at
    least -1023 so that 2**-e is finite: scaling by 2**-e is exact in every part
    that stays normal."""
    top = max([abs(z.real) for z in parts] + [abs(z.imag) for z in parts])
    return max(math.frexp(top)[1], -1023)


def inv2(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Adjugate-over-determinant inverse of a 2x2 matrix, in Python complex scalars. Raises
    :class:`SingularMatrix` unless |det| exceeds ``rank_rel_tol`` times the squared Frobenius
    norm, a scale-independent test that a NaN or inf entry fails, or when the inverse could
    leave the float range. Both run on the matrix times the exact power of two that puts its
    largest real or imaginary part in [0.5, 1): neither |det| nor the norm under- or overflows."""
    (p, q), (r, s) = np.asarray(matrix, dtype=complex).tolist()
    e = _exponent((p, q, r, s))
    f = math.ldexp(1.0, -e)
    p, q, r, s = p * f, q * f, r * f, s * f
    det = p * s - q * r
    scale = abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2 + abs(s) ** 2
    if not abs(det) > pol.rank_rel_tol * scale:  # a NaN or inf det or scale fails
        with np.errstate(over="ignore"):  # report the unscaled values
            det_abs, scale = np.ldexp([abs(det), scale], 2 * e)
        raise SingularMatrix(f"|det| = {det_abs:.3e} at matrix scale {scale:.3e}")
    if math.frexp(abs(det))[1] + e < -1022:  # |inverse| < 2^(0.5-e)/|det| may pass 2^1024
        raise SingularMatrix(f"inverse outside the float range, entries below 2^{e}")
    g = f / det  # the inverse of the unscaled matrix is adj(m * 2**-e) * 2**-e / det
    return np.array([[s * g, -q * g], [-r * g, p * g]])
