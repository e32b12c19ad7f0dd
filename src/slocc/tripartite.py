"""Three-qubit SLOCC classification and canonical-form reduction.

Decision procedure: the ranks of the three coefficient matrices separate the
product-like classes; when all three ranks are 2 the span of the two right
singular vectors of the pivot-1 matrix is analyzed through its slice
matrices W1, W2. Two distinct product directions in the span mean GHZ, a
single (double) one means W. Equivalently, the spectrum of W1^-1 W2 is
non-degenerate for GHZ and degenerate for W; the implementation decides via
the discriminant of det(alpha*W1 + beta*W2), which is the same predicate
evaluated without the square-root noise amplification of an explicit
eigenvalue gap (see the module tests for the fixture table).

The reduction constructs one invertible operator per qubit sending the span
witnesses to computational basis vectors; the pivot operator is the inverse
of the generator-mixing matrix composed with diag(1/sigma_k) V^dagger.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentRanks, ReductionFailed, ToleranceBreakdown, WrongArity
from .numerics import DEFAULT_POLICY, SvdResult, TolerancePolicy, numerical_rank, svd
from .states import PureState, apply_local_operators, coefficient_matrix, make_state
from .subspaces import (
    RootKind,
    SubspaceStructure,
    classify_line,
    classify_span,
    one_product_span_basis,
    orthogonal_complement,
    pencil_quadratic,
    product_factors,
    product_roots,
    projective_quadratic_roots,
    slice_matrix,
)

_DET_GUARD = 1e-12


class TripartiteClass(enum.Enum):
    C000 = "000"
    C01_PSI23 = "0_1 Psi+_23"
    C02_PSI13 = "0_2 Psi+_13"
    C03_PSI12 = "0_3 Psi+_12"
    GHZ = "GHZ"
    W = "W"


_CANONICAL_AMPS = {
    TripartiteClass.C000: (0,),
    TripartiteClass.C01_PSI23: (0, 3),
    TripartiteClass.C02_PSI13: (0, 5),
    TripartiteClass.C03_PSI12: (0, 6),
    TripartiteClass.GHZ: (0, 7),
    TripartiteClass.W: (1, 2, 4),
}


@dataclass(frozen=True)
class SpectrumInfo:
    """Which slice product was formed and its two eigenvalues (diagnostic)."""

    product: str
    eigenvalues: tuple[complex, complex]


@dataclass(frozen=True)
class ClassificationReport:
    tag: TripartiteClass
    ranks: tuple[int, int, int]
    sigma: tuple[float, ...]
    structure: SubspaceStructure
    spectrum_used: SpectrumInfo | None
    near_boundary: bool

    @property
    def label(self) -> str:
        return self.tag.value


@dataclass(frozen=True)
class IloTriple:
    """Invertible operators reducing a state to its canonical vector."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    residual: float

    @property
    def ops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.f1, self.f2, self.f3)

    def det_abs(self) -> tuple[float, float, float]:
        return tuple(abs(complex(np.linalg.det(f))) for f in self.ops)


def canonical_vector(tag: TripartiteClass) -> PureState:
    """The canonical representative of a class (unnormalized, 0/1 amplitudes)."""
    amps = np.zeros(8, dtype=complex)
    amps[list(_CANONICAL_AMPS[tag])] = 1.0
    return make_state((2, 2, 2), amps)


def _require_three_qubits(state: PureState):
    if state.dims != (2, 2, 2):
        raise WrongArity(f"expected dims (2, 2, 2), got {state.dims}")


_RANK1_CLASS = {
    1: TripartiteClass.C01_PSI23,
    2: TripartiteClass.C02_PSI13,
    3: TripartiteClass.C03_PSI12,
}


def classify3(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY) -> ClassificationReport:
    """Classify a 3-qubit state into one of the six SLOCC classes."""
    return _classify3(state, pol)[0]


def _classify3(state: PureState, pol: TolerancePolicy) -> tuple[ClassificationReport, SvdResult]:
    """:func:`classify3`, also returning the pivot-1 SVD for the reduction."""
    _require_three_qubits(state)
    svds = [svd(coefficient_matrix(state, p).entries) for p in (1, 2, 3)]
    ranks = tuple(numerical_rank(res.sigma, pol) for res in svds)
    sigma = tuple(float(s) for s in svds[0].sigma)
    w1 = svds[0].W[:, 0]
    w2 = svds[0].W[:, 1]

    rank_ones = [p for p, r in zip((1, 2, 3), ranks) if r == 1]
    if len(rank_ones) == 2:
        raise InconsistentRanks(
            f"ranks {ranks}: exactly two pivots read rank 1, impossible for a valid state"
        )
    if rank_ones:
        report = ClassificationReport(
            tag=TripartiteClass.C000 if len(rank_ones) == 3 else _RANK1_CLASS[rank_ones[0]],
            ranks=ranks,
            sigma=sigma,
            structure=classify_line(w1, pol) if ranks[0] == 1 else classify_span(w1, w2, pol),
            spectrum_used=None,
            near_boundary=False,
        )
        return report, svds[0]

    # All three ranks are 2: GHZ or W, decided on the slice pencil.
    W1 = slice_matrix(w1)
    W2 = slice_matrix(w2)
    a, b, c = pencil_quadratic(W1, W2)
    s = max(abs(a), abs(b), abs(c))
    n1, n2 = np.linalg.norm(W1), np.linalg.norm(W2)
    scale = (n1 + n2) ** 2
    if s <= pol.rank_rel_tol * scale:
        raise ToleranceBreakdown(
            "pencil determinant vanishes identically although all pivots read rank 2"
        )
    disc = abs(b * b - 4.0 * a * c)
    threshold = pol.deg_tol * s * s
    tag = TripartiteClass.W if disc <= threshold else TripartiteClass.GHZ
    near = threshold / 100.0 < disc <= threshold * 100.0

    report = ClassificationReport(
        tag=tag,
        ranks=ranks,
        sigma=sigma,
        structure=classify_span(w1, w2, pol),
        spectrum_used=_pencil_spectrum(a, b, c, n1, n2, pol),
        near_boundary=near,
    )
    return report, svds[0]


def _pencil_spectrum(a, b, c, n1, n2, pol) -> SpectrumInfo | None:
    """Eigenvalues of W_a^-1 W_b with the invertible slice on the left.

    det(W2 - lam*W1) = a*lam^2 - b*lam + c, so each projective root
    (alpha, beta) of the pencil is an eigenvalue -alpha/beta of W1^-1 W2
    and -beta/alpha of W2^-1 W1. A slice of norm n counts as invertible by
    the test of :func:`inv2`: |det| above ``rank_rel_tol * n^2``.
    """
    zero_tol = pol.rank_rel_tol * (n1 + n2) ** 2
    kind, roots = projective_quadratic_roots(a, b, c, zero_tol, pol.deg_tol)
    if kind is RootKind.ONE_DOUBLE:
        roots = roots * 2
    if abs(a) > pol.rank_rel_tol * n1 * n1 and all(beta != 0 for _, beta in roots):
        product, lams = "W1^-1 @ W2", [-alpha / beta for alpha, beta in roots]
    elif abs(c) > pol.rank_rel_tol * n2 * n2 and all(alpha != 0 for alpha, _ in roots):
        product, lams = "W2^-1 @ W1", [-beta / alpha for alpha, beta in roots]
    else:
        return None
    return SpectrumInfo(product, tuple(sorted(lams, key=abs, reverse=True)))


def _columns(*vectors) -> np.ndarray:
    return np.column_stack(vectors)


def _inv_columns(*vectors) -> np.ndarray:
    m = _columns(*vectors)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = np.linalg.norm(m[:, 0]) * np.linalg.norm(m[:, 1])
    if scale == 0.0 or abs(det) <= _DET_GUARD * scale:
        raise ReductionFailed("target basis vectors are numerically parallel")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def _mixing_matrix(t1, t2, u1, u2) -> np.ndarray:
    targets = _columns(t1, t2)
    m1, *_ = np.linalg.lstsq(targets, u1, rcond=None)[:1]
    m2, *_ = np.linalg.lstsq(targets, u2, rcond=None)[:1]
    M = np.array([m1, m2])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) <= _DET_GUARD * max(1.0, np.linalg.norm(M) ** 2):
        raise ReductionFailed("generator mixing matrix is numerically singular")
    return M


def _pivot_op_rank1(res: SvdResult) -> np.ndarray:
    return np.diag([1.0 / res.sigma[0], 1.0]) @ res.V.conj().T


def _pivot_op_rank2(res: SvdResult, M) -> np.ndarray:
    P = res.V @ np.diag(res.sigma[:2])
    PM = P @ M
    det = PM[0, 0] * PM[1, 1] - PM[0, 1] * PM[1, 0]
    if abs(det) <= _DET_GUARD * max(1.0, np.linalg.norm(PM) ** 2):
        raise ReductionFailed("pivot operator would be singular")
    return np.array([[PM[1, 1], -PM[0, 1]], [-PM[1, 0], PM[0, 0]]], dtype=complex) / det


def reduce_to_canonical(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassificationReport, IloTriple]:
    """Classify, then build the local operators reaching the canonical vector.

    The construction works on the conjugated right singular vectors
    u_k = conj(w_k), because the state decomposes exactly as
    sum_k sigma_k v_k (x) u_k; the witnesses of span{u1, u2} are sent to
    computational basis vectors by the second and third operators, and the
    pivot operator is the inverse of the mixed, sigma-weighted left factor.
    """
    report, res = _classify3(state, pol)
    tag = report.tag

    if tag is TripartiteClass.C000:
        u1 = res.W[:, 0].conj()
        a, b = product_factors(u1, pol)
        f1 = _pivot_op_rank1(res)
        f2 = _inv_columns(a, orthogonal_complement(a))
        f3 = _inv_columns(b, orthogonal_complement(b))
    elif tag is TripartiteClass.C01_PSI23:
        u1 = res.W[:, 0].conj()
        part = svd(u1.reshape(2, 2))
        if part.sigma[1] <= _DET_GUARD * part.sigma[0]:
            raise ReductionFailed("pair part of the state is numerically a product")
        f1 = _pivot_op_rank1(res)
        f2 = np.diag(1.0 / part.sigma[:2]) @ part.V.conj().T
        f3 = part.W.T.copy()
    else:
        u1 = res.W[:, 0].conj()
        u2 = res.W[:, 1].conj()
        if tag is TripartiteClass.C02_PSI13:
            stack = np.hstack([u1.reshape(2, 2), u2.reshape(2, 2)])
            a = svd(stack).V[:, 0]
            t1, t2 = np.kron(a, [1, 0]), np.kron(a, [0, 1])
            f2 = _inv_columns(a, orthogonal_complement(a))
            f3 = np.eye(2, dtype=complex)
        elif tag is TripartiteClass.C03_PSI12:
            stack = np.hstack([u1.reshape(2, 2).T, u2.reshape(2, 2).T])
            b = svd(stack).V[:, 0]
            t1, t2 = np.kron([1, 0], b), np.kron([0, 1], b)
            f2 = np.eye(2, dtype=complex)
            f3 = _inv_columns(b, orthogonal_complement(b))
        elif tag is TripartiteClass.GHZ:
            roots = product_roots(slice_matrix(u1), slice_matrix(u2), pol)
            if roots.kind is not RootKind.TWO_DISTINCT:
                raise ReductionFailed(
                    f"GHZ-class state but the slice pencil reports {roots.kind.value}"
                )
            g1 = roots.roots[0][0] * u1 + roots.roots[0][1] * u2
            g2 = roots.roots[1][0] * u1 + roots.roots[1][1] * u2
            a1, b1 = product_factors(g1, pol)
            a2, b2 = product_factors(g2, pol)
            t1, t2 = g1, g2
            f2 = _inv_columns(a1, a2)
            f3 = _inv_columns(b1, b2)
        else:  # W class
            roots = product_roots(slice_matrix(u1), slice_matrix(u2), pol)
            if roots.kind is not RootKind.ONE_DOUBLE:
                raise ReductionFailed(
                    f"W-class state but the slice pencil reports {roots.kind.value}"
                )
            g = roots.roots[0][0] * u1 + roots.roots[0][1] * u2
            basis = one_product_span_basis(u1, u2, g, pol)
            t1 = basis.entangled
            t2 = np.kron(basis.left, basis.right)
            f2 = _inv_columns(basis.left, basis.left_comp)
            f3 = _inv_columns(basis.right, basis.right_comp)
        M = _mixing_matrix(t1, t2, u1, u2)
        f1 = _pivot_op_rank2(res, M)

    transformed = apply_local_operators(state, (f1, f2, f3))
    canon = canonical_vector(tag)
    z = np.vdot(canon.amps, transformed.amps) / np.vdot(canon.amps, canon.amps)
    residual = float(
        np.linalg.norm(transformed.amps - z * canon.amps) / np.linalg.norm(transformed.amps)
    )
    if residual > pol.residual_tol:
        raise ReductionFailed(
            f"residual {residual:.3e} above tolerance {pol.residual_tol:.1e}"
        )
    return report, IloTriple(f1=f1, f2=f2, f3=f3, residual=residual)
