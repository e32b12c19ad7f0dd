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
from numpy.linalg._umath_linalg import svd_f as _lapack_svd  # numpy >= 2.0 name

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
        e = _exponent(self.matrix)  # Q and sigma scaled by 2**-e: no norm under- or overflows
        q = _ldexp(self.matrix, -e)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            return 0.0
        k = self.sigma.size
        recon = (self.V[:, :k] * np.ldexp(self.sigma, -e)) @ self.W[:, :k].conj().T
        return float(np.linalg.norm(q - recon) / norm)


def _lead_phase(col) -> complex:
    """Phase of the first significant component of a column (1 if none)."""
    for z in col:
        if abs(z) > 1e-8:
            return z * (1.0 / abs(z))  # rounds as numpy divides complex by real
    return 1.0


def _svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


@np.errstate(
    call=_svd_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)
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
    # phases of U's columns, then of W's null columns (rows of Vh are conjugated columns of W)
    phases = [_lead_phase(col) for col in U.T.tolist()]
    phases = np.array(phases + [_lead_phase(row).conjugate() for row in Vh[s.size :].tolist()])
    V = U / phases[: len(U)]
    W = Vh.conj().T / phases[: len(Vh)]
    for arr in (a, V, W, s):
        arr.setflags(write=False)
    return SvdResult(V=V, sigma=s, W=W, matrix=a)


def numerical_rank(sigma, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Count singular values above ``rank_rel_tol`` times the first (the largest).

    Raises :class:`EmptySpectrum` unless the first value is positive."""
    s = np.asarray(sigma, dtype=float).tolist()  # Python floats: numpy's results, half its cost
    if not s or s[0] <= 0.0:
        raise EmptySpectrum("rank needs at least one positive singular value")
    return sum(x > pol.rank_rel_tol * s[0] for x in s)


def det2(m) -> complex:
    """Determinant of a 2x2 matrix."""
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def eig2(matrix) -> tuple[complex, complex]:
    """Both eigenvalues of a 2x2 matrix, larger magnitude first.

    Roots of ``lam^2 - tr*lam + det`` via the numerically stable quadratic
    formula; the companion root is recovered as ``det / lam1`` when lam1 is
    nonzero.
    """
    m = np.asarray(matrix, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = det2(m)
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


def _exponent(m) -> int:
    """Binary exponent e with every real and imaginary part of m below 2**e in size."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in m.ravel().tolist()))[1]


def _ldexp(m, e: int) -> np.ndarray:
    """Complex m times 2**e in m's memory order, exact in every part that stays normal."""
    if e == 0:
        return m
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        return _ldexp(m.T, e).T
    return np.ldexp(np.ascontiguousarray(m).view(float), e).view(complex)


def inv2(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Adjugate-over-determinant inverse of a 2x2 matrix.

    Raises :class:`SingularMatrix` when |det| is at most ``rank_rel_tol``
    times the squared Frobenius norm, a test independent of the matrix scale,
    or when the inverse could leave the float range. The test and the
    adjugate run on the matrix scaled by the power of two that puts its
    largest real or imaginary part in [0.5, 1): the scaling is exact, so
    neither |det| nor the norm under- or overflows at any scale.
    """
    m = np.asarray(matrix, dtype=complex)
    e = _exponent(m)
    m = _ldexp(m, -e)
    det = det2(m)
    scale = np.linalg.norm(m) ** 2
    if abs(det) <= pol.rank_rel_tol * scale:
        with np.errstate(over="ignore"):  # report the unscaled values
            det_abs, scale = np.ldexp([abs(det), scale], 2 * e)
        raise SingularMatrix(f"|det| = {det_abs:.3e} at matrix scale {scale:.3e}")
    if math.frexp(abs(det))[1] + e < -1022:  # |inverse| < 2^(0.5-e)/|det| may pass 2^1024
        raise SingularMatrix(f"inverse outside the float range, entries below 2^{e}")
    return _ldexp(np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det, -e)
