"""Three-qubit SLOCC classification and canonical-form reduction.

Decision procedure: the ranks of the three coefficient matrices name the
product-like classes, whose structure is read from the rank-1 pivots; when
all three ranks are 2 the span of the two right singular vectors of the
pivot-1 matrix is analyzed through its slice matrices W1, W2. Two distinct
product directions in the span mean GHZ, a single (double) one means W.
Equivalently, the spectrum of W1^-1 W2 is non-degenerate for GHZ and
degenerate for W; the implementation decides via the discriminant of
det(alpha*W1 + beta*W2), which is the same predicate evaluated without the
square-root noise amplification of an explicit eigenvalue gap (see the
module tests for the fixture table).

The reduction constructs one invertible operator per qubit sending the span
witnesses to computational basis vectors; the pivot operator is the inverse
of the generator-mixing matrix composed with diag(1/sigma_k) V^dagger.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentRanks,
    ReductionFailed,
    SingularMatrix,
    SingularOperator,
    ToleranceBreakdown,
    WrongArity,
)
from .numerics import DEFAULT_POLICY, TolerancePolicy, inv2, numerical_rank, svd
from .states import (
    LocalOperatorSet,
    PureState,
    apply_local_operators,
    make_state,
    pivot_index,
)
from .subspaces import (
    RootKind,
    RootReport,
    StructureTag,
    SubspaceStructure,
    one_product_span_basis,
    orthogonal_complement,
    product_factors,
    product_roots,
    slice_matrix,
    span_structure,
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
    """Class of a 3-qubit state and the readings that decided it; ``pencil``
    holds (roots, W1, W2, policy) where the slice pencil decided GHZ or W,
    and the diagnostic ``spectrum_used`` is computed from it on first access."""

    tag: TripartiteClass
    ranks: tuple[int, int, int]
    sigma: tuple[float, ...]
    structure: SubspaceStructure
    near_boundary: bool
    pencil: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        return self.tag.value

    @functools.cached_property
    def spectrum_used(self) -> SpectrumInfo | None:
        if self.pencil is None:
            return None
        roots, W1, W2, pol = self.pencil
        return _pencil_spectrum(roots, np.linalg.norm(W1), np.linalg.norm(W2), pol)


@dataclass(frozen=True)
class IloTriple:
    """Invertible operators F1, F2, F3 reducing a state to its canonical vector."""

    ops: LocalOperatorSet
    residual: float


@functools.cache
def canonical_vector(tag: TripartiteClass) -> PureState:
    """The canonical representative of a class (unnormalized, 0/1 amplitudes; cached)."""
    return make_state((2, 2, 2), [k in _CANONICAL_AMPS[tag] for k in range(8)])


def _require_three_qubits(state: PureState):
    if state.dims != (2, 2, 2):
        raise WrongArity(f"expected dims (2, 2, 2), got {state.dims}")


_PIVOT_INDEX = tuple(pivot_index((2, 2, 2), p) for p in (1, 2, 3))
_RANK_CLASS = {
    (1, 1, 1): TripartiteClass.C000,
    (1, 2, 2): TripartiteClass.C01_PSI23,
    (2, 1, 2): TripartiteClass.C02_PSI13,
    (2, 2, 1): TripartiteClass.C03_PSI12,
}


def classify3(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY) -> ClassificationReport:
    """Classify a 3-qubit state into one of the six SLOCC classes."""
    return _classify3(state, pol)[0]


def _classify3(state: PureState, pol: TolerancePolicy) -> tuple[ClassificationReport, list]:
    """:func:`classify3`, also returning the pivot-1, 2 and 3 SVDs for the reduction."""
    _require_three_qubits(state)
    svds = [svd(state.amps[index]) for index in _PIVOT_INDEX]
    ranks = tuple(numerical_rank(res.sigma, pol) for res in svds)
    sigma = tuple(svds[0].sigma.tolist())
    w1, w2 = svds[0].W[:, 0], svds[0].W[:, 1]

    pencil, near = None, False
    tag = _RANK_CLASS.get(ranks)
    # a factored qubit is a rank-1 pivot; the conjugate of its factor lies in span{w1, w2}
    if tag is TripartiteClass.C000:
        structure = SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(w1.copy(),))
    elif tag is TripartiteClass.C01_PSI23:
        structure = SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)
    elif tag is TripartiteClass.C02_PSI13:
        structure = SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=svds[1].V[:, 0].conj())
    elif tag is TripartiteClass.C03_PSI12:
        structure = SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=svds[2].V[:, 0].conj())
    elif ranks != (2, 2, 2):
        raise InconsistentRanks(
            f"ranks {ranks}: exactly two pivots read rank 1, impossible for a valid state"
        )
    else:
        # the slice pencil decides GHZ (two roots) against W (one double root)
        W1, W2 = slice_matrix(w1), slice_matrix(w2)
        roots = product_roots(W1, W2, pol)
        if roots.kind is RootKind.INFINITELY_MANY:
            raise ToleranceBreakdown(
                "pencil determinant vanishes identically although all pivots read rank 2"
            )
        tag = TripartiteClass.GHZ if roots.kind is RootKind.TWO_DISTINCT else TripartiteClass.W
        a, b, c = roots.coeffs
        s = max(abs(a), abs(b), abs(c))
        threshold = pol.deg_tol * s * s
        near = threshold / 100.0 < abs(b * b - 4.0 * a * c) <= threshold * 100.0
        pencil = (roots, W1, W2, pol)
        structure = span_structure(w1, w2, roots, pol)

    report = ClassificationReport(
        tag=tag,
        ranks=ranks,
        sigma=sigma,
        structure=structure,
        near_boundary=near,
        pencil=pencil,
    )
    return report, svds


def _pencil_spectrum(report: RootReport, n1, n2, pol) -> SpectrumInfo | None:
    """Eigenvalues of W_a^-1 W_b with the invertible slice on the left.

    det(W2 - lam*W1) = a*lam^2 - b*lam + c, so each projective root
    (alpha, beta) of the pencil is an eigenvalue -alpha/beta of W1^-1 W2
    and -beta/alpha of W2^-1 W1. A slice of norm n counts as invertible by
    the test of :func:`inv2`: |det| above ``rank_rel_tol * n^2``.
    """
    a, _, c = report.coeffs
    roots = report.roots
    if report.kind is RootKind.ONE_DOUBLE:
        roots = roots * 2
    if abs(a) > pol.rank_rel_tol * n1 * n1 and all(beta != 0 for _, beta in roots):
        product, lams = "W1^-1 @ W2", [-alpha / beta for alpha, beta in roots]
    elif abs(c) > pol.rank_rel_tol * n2 * n2 and all(alpha != 0 for alpha, _ in roots):
        product, lams = "W2^-1 @ W1", [-beta / alpha for alpha, beta in roots]
    else:
        return None
    return SpectrumInfo(product, tuple(sorted(lams, key=abs, reverse=True)))


def _onto_e1(v, pol: TolerancePolicy) -> np.ndarray:
    """Invertible 2x2 operator sending v to the first basis vector."""
    return inv2(np.column_stack((v, orthogonal_complement(v))), pol)


def _reducing_operators(report: ClassificationReport, svds, pol: TolerancePolicy):
    """F1, F2, F3 sending the state to the canonical vector of its class.

    ``svds`` are the three pivot SVDs. A factored qubit p is a rank-1 pivot,
    and F_p sends its factor ``svds[p-1].V[:, 0]`` to e1; otherwise F2 and
    F3 send the span witnesses to computational basis vectors. With
    u_k = M[k, 0] t1 + M[k, 1] t2 over the target product vectors t_j, the
    pivot operator is F1 = M^-1 diag(1/sigma) V^dagger: only the mixing
    matrix M is inverted, and M does not carry the scale of the state.
    """
    tag = report.tag
    res = svds[0]
    U = res.W[:, :2].conj()  # columns u1, u2
    u1, u2 = U.T
    if tag is TripartiteClass.C000:
        f2, f3 = (_onto_e1(pivot.V[:, 0], pol) for pivot in svds[1:])
    elif tag is TripartiteClass.C01_PSI23:
        part = svd(u1.reshape(2, 2))
        if part.sigma[1] <= _DET_GUARD * part.sigma[0]:
            raise ReductionFailed("pair part of the state is numerically a product")
        f2 = np.diag(1.0 / part.sigma[:2]) @ part.V.conj().T
        f3 = part.W.T.copy()
    if report.ranks[0] == 1:  # 000 or 0_1: V^dagger / sigma_1 scales both directions alike
        return res.V.conj().T / res.sigma[0], f2, f3

    if tag is TripartiteClass.C02_PSI13:
        a = svds[1].V[:, 0]
        t1, t2 = np.outer(a, [1, 0]).ravel(), np.outer(a, [0, 1]).ravel()
        f2, f3 = _onto_e1(a, pol), np.eye(2, dtype=complex)
    elif tag is TripartiteClass.C03_PSI12:
        b = svds[2].V[:, 0]
        t1, t2 = np.outer([1, 0], b).ravel(), np.outer([0, 1], b).ravel()
        f2, f3 = np.eye(2, dtype=complex), _onto_e1(b, pol)
    elif tag is TripartiteClass.GHZ:
        # the witnesses span {w1, w2}; conjugation carries them to span {u1, u2}
        t1, t2 = (w.conj() for w in report.structure.witnesses)
        a1, b1 = product_factors(t1, pol)
        a2, b2 = product_factors(t2, pol)
        f2 = inv2(np.column_stack((a1, a2)), pol)
        f3 = inv2(np.column_stack((b1, b2)), pol)
    else:  # W class
        basis = one_product_span_basis(u1, u2, report.structure.witnesses[0].conj(), pol)
        t1 = basis.entangled
        t2 = np.outer(basis.left, basis.right).ravel()
        f2 = inv2(np.column_stack((basis.left, basis.left_comp)), pol)
        f3 = inv2(np.column_stack((basis.right, basis.right_comp)), pol)
    M = np.linalg.lstsq(np.column_stack((t1, t2)), U, rcond=None)[0].T
    f1 = (inv2(M, pol) / res.sigma[:2]) @ res.V.conj().T
    return f1, f2, f3


def reduce_to_canonical(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassificationReport, IloTriple]:
    """Classify, then build the local operators reaching the canonical vector.

    The construction works on the conjugated right singular vectors
    u_k = conj(w_k), because the state decomposes exactly as
    sum_k sigma_k v_k (x) u_k. A singular 2x2 matrix on the way, or an
    operator whose |det| leaves the float range (amplitudes beyond about
    1e+-150), raises :class:`ReductionFailed`.
    """
    report, svds = _classify3(state, pol)
    try:
        ops = LocalOperatorSet(_reducing_operators(report, svds, pol))
    except (SingularMatrix, SingularOperator) as exc:
        raise ReductionFailed(f"reducing operators are numerically singular: {exc}") from exc

    out, canon = apply_local_operators(state, ops).amps, canonical_vector(report.tag).amps
    z = np.vdot(canon, out) / np.vdot(canon, canon)
    residual = float(np.linalg.norm(out - z * canon) / np.linalg.norm(out))
    if not residual <= pol.residual_tol:  # a NaN residual fails too
        raise ReductionFailed(
            f"residual {residual:.3e} above tolerance {pol.residual_tol:.1e}"
        )
    return report, IloTriple(ops=ops, residual=residual)
