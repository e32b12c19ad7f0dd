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

Pivot 1's rank comes from its SVD, one stacked LAPACK call for a batch of
states (:func:`classify3_tags`; :func:`classify3` is the batch of one).
Pivots 2 and 3 read sigma_2 / sigma_1 from their 2x2 minors, taken in pivot
1's singular basis; a pivot 2 or 3 takes an SVD only where it reads rank 1
and its factor is wanted.

The reduction builds one invertible operator per qubit from the numbers the
decision holds, with no least-squares solve and no further SVD. A factored
qubit's operator sends its rank-1 pivot's factor to e1. Otherwise F2 and F3
send targets t1, t2 to computational basis vectors, and with u_k = conj(w_k) =
M[k, 0] t1 + M[k, 1] t2 the pivot operator is F1 = M^-1 diag(1/sigma) V^dagger.
For GHZ the targets are the conjugated witnesses, so M^-1 = R^T and
F1 = R^T diag(1/sigma) V^dagger with R = conj([[alpha_1, alpha_2],
[beta_1, beta_2]]) over the pencil roots. For 0_2, 0_3 and W the targets are
orthogonal, so M^T = diag(1/|t_j|^2) [t1 t2]^dagger [u1 u2].
"""

from __future__ import annotations

import enum
import functools
import math
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
from .numerics import DEFAULT_POLICY, SvdResult, TolerancePolicy, inv2, svd, svd_stack
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
    onto_e1,
    product_factors,
    product_roots,
    span_structure,
)


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


def classify3_tags(amps, pol: TolerancePolicy = DEFAULT_POLICY) -> list[TripartiteClass]:
    """Classes of the 3-qubit states in the rows of ``amps`` (B, 8), decided in one
    batched call as :func:`classify3` decides each; the first row that fails raises
    the error that :func:`make_state` or :func:`classify3` gives it alone."""
    amps = np.asarray(amps, dtype=complex).reshape(-1, 8)
    valid = np.isfinite(amps).all(axis=1) & (amps != 0).any(axis=1)
    n = len(amps) if valid.all() else int(valid.argmin())
    tags = [reading[0] for reading in _decide(amps[:n], pol)[1]] if n else []
    if n < len(amps):
        make_state((2, 2, 2), amps[n])  # raises the row's NonFinite or ZeroState
    return tags


def _pivot_ratios(s1: float, s2: float, w1: list, w2: list) -> list[float]:
    """sigma_2 / sigma_1 of the pivot-2 and pivot-3 matrices, read from pivot 1's SVD.

    The state is sum_l s_l v_l (x) conj(w_l), so up to a unitary change of columns,
    which keeps singular values, the pivot-2 matrix is conj([W1 | rho W2]) and the
    pivot-3 matrix conj([W1^T | rho W2^T]), W_l = w_l.reshape(2, 2), rho = s2 / s1.
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


def _decide(amps, pol: TolerancePolicy):
    """The stacked pivot-1 SVD of the finite, nonzero rows of ``amps`` (B, 8), and each
    row's (tag, ranks, pencil) in order; the first failing row raises. Pivot 1's rank
    comes from its SVD, pivots 2 and 3 from :func:`_pivot_ratios`; only ranks (2, 2, 2)
    solve the slice pencil, ``pencil = (roots, W1, W2, pol)``."""
    res = svd_stack(amps[:, _PIVOT_INDEX[0]])
    tol = pol.rank_rel_tol
    gens = res.W[:, :, :2].swapaxes(1, 2)  # w1, w2 of each row; slice_matrix(w) = w.reshape(2, 2).T
    slices = np.ascontiguousarray(gens.reshape(-1, 2, 2, 2).swapaxes(2, 3))
    readings = []
    for (s1, s2), (w1, w2), (W1, W2) in zip(res.sigma.tolist(), gens.tolist(), slices):
        r2, r3 = _pivot_ratios(s1, s2, w1, w2)
        ranks = (1 + (s2 > tol * s1), 1 + (r2 > tol), 1 + (r3 > tol))
        tag, pencil = _RANK_CLASS.get(ranks), None
        if tag is None and ranks != (2, 2, 2):
            raise InconsistentRanks(
                f"ranks {ranks}: exactly two pivots read rank 1, impossible for a valid state"
            )
        if tag is None:
            # the slice pencil decides GHZ (two roots) against W (one double root); the
            # ranks already rule out a factor, so only an exactly vanishing pencil reads as one
            roots = product_roots(W1, W2, pol, zero_tol=0.0)
            if roots.kind is RootKind.INFINITELY_MANY:
                raise ToleranceBreakdown(
                    "pencil determinant vanishes identically although all pivots read rank 2"
                )
            tag = TripartiteClass.GHZ if roots.kind is RootKind.TWO_DISTINCT else TripartiteClass.W
            pencil = (roots, W1, W2, pol)
        readings.append((tag, ranks, pencil))
    return res, readings


def _classify3(
    state: PureState, pol: TolerancePolicy, reduce: bool = False
) -> tuple[ClassificationReport, list]:
    """:func:`classify3`, also returning the pivot SVDs: pivot 1's, then pivot 2's and 3's
    where the report (0_2, 0_3) or, with ``reduce``, the reduction reads their factor."""
    _require_three_qubits(state)
    res, [(tag, ranks, pencil)] = _decide(state.amps[None], pol)
    svds = [SvdResult(res.V[0], res.sigma[0], res.W[0], res.matrix[0])]
    factored = reduce or tag is not TripartiteClass.C000  # 000 reads no factor until reduced
    svds += [svd(state.amps[_PIVOT_INDEX[p]]) if factored and ranks[p] == 1 else None
             for p in (1, 2)]
    w1, w2 = svds[0].W[:, 0], svds[0].W[:, 1]

    near = False
    # a factored qubit is a rank-1 pivot; the conjugate of its factor lies in span{w1, w2}
    if tag is TripartiteClass.C000:
        structure = SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(w1.copy(),))
    elif tag is TripartiteClass.C01_PSI23:
        structure = SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)
    elif tag is TripartiteClass.C02_PSI13:
        structure = SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=svds[1].V[:, 0].conj())
    elif tag is TripartiteClass.C03_PSI12:
        structure = SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=svds[2].V[:, 0].conj())
    else:
        a, b, c = pencil[0].coeffs
        s = max(abs(a), abs(b), abs(c))
        threshold = pol.deg_tol * s * s
        near = threshold / 100.0 < abs(b * b - 4.0 * a * c) <= threshold * 100.0
        structure = span_structure(w1, w2, pencil[0], pol)

    report = ClassificationReport(
        tag=tag,
        ranks=ranks,
        sigma=tuple(svds[0].sigma.tolist()),
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


def _reducing_operators(report: ClassificationReport, svds, pol: TolerancePolicy):
    """F1, F2, F3 sending the state to the canonical vector of its class.

    ``svds`` are the three pivot SVDs. A factored qubit p is a rank-1 pivot,
    and F_p sends its factor ``svds[p-1].V[:, 0]`` to e1. Otherwise F2 and F3
    send the targets t_j to computational basis vectors, and F1 is read from
    the pencil roots (GHZ, F1 = R^T diag(1/sigma) V^dagger) or from orthogonal
    targets (0_2, 0_3, W): there F1 = (V diag(sigma) M)^-1 with
    V diag(sigma) M = C conj(T) diag(1/|t_j|^2), the pivot matrix C in the
    coordinates of T = [t1 t2]. See the module docstring for R and M.
    """
    tag = report.tag
    res = svds[0]
    U = res.W[:, :2].conj()  # columns u1, u2
    if tag is TripartiteClass.C000:
        f2, f3 = (onto_e1(pivot.V[:, 0]) for pivot in svds[1:])
    elif tag is TripartiteClass.C01_PSI23:
        # the pair part u1 = vec(P) reaches e1 (x) e1 + e2 (x) e2 under P^-1 (x) 1
        f2, f3 = inv2(U[:, 0].reshape(2, 2), pol), np.eye(2, dtype=complex)
    if report.ranks[0] == 1:  # 000 or 0_1: V^dagger / sigma_1 scales both directions alike
        return res.V.conj().T / res.sigma[0], f2, f3

    if tag is TripartiteClass.GHZ:
        # the witnesses span {w1, w2}; conjugation carries them to span {u1, u2}
        (a1, b1), (a2, b2) = (product_factors(w.conj()) for w in report.structure.witnesses)
        f2 = inv2(np.column_stack((a1, a2)), pol)
        f3 = inv2(np.column_stack((b1, b2)), pol)
        RT = np.array(report.pencil[0].roots).conj()  # row j: conj(alpha_j, beta_j)
        return (RT / res.sigma[:2]) @ res.V.conj().T, f2, f3
    C = res.matrix
    if tag is TripartiteClass.C02_PSI13:  # t_j = a (x) e_j with |a| = 1
        a = svds[1].V[:, 0]
        return inv2(a.conj() @ C.reshape(2, 2, 2), pol), onto_e1(a), np.eye(2, dtype=complex)
    if tag is TripartiteClass.C03_PSI12:  # t_j = e_j (x) b with |b| = 1
        b = svds[2].V[:, 0]
        return inv2(C.reshape(2, 2, 2) @ b.conj(), pol), np.eye(2, dtype=complex), onto_e1(b)
    # W class: t1 = a (x) b' + a' (x) b and t2 = a (x) b
    basis = one_product_span_basis(U[:, 0], U[:, 1], report.structure.witnesses[0].conj())
    f2 = inv2(np.column_stack((basis.left, basis.left_comp)), pol)
    f3 = inv2(np.column_stack((basis.right, basis.right_comp)), pol)
    T = np.column_stack((basis.entangled, np.outer(basis.left, basis.right).ravel())).conj()
    return inv2((C @ T) / (T.real**2 + T.imag**2).sum(axis=0), pol), f2, f3


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
    report, svds = _classify3(state, pol, reduce=True)
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
