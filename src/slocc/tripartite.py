"""Three-qubit SLOCC classification and canonical-form reduction.

Decision procedure: the ranks of the three coefficient matrices name the
product-like classes, whose structure is read from the rank-1 pivots; when
all three ranks are 2 the span of the two right singular vectors of the
pivot-1 matrix is analyzed through its slice matrices W1, W2. Two distinct
product directions in the span mean GHZ, a single (double) one means W.
Equivalently, the spectrum of W1^-1 W2 is non-degenerate for GHZ and
degenerate for W; the implementation decides via the discriminant of
det(alpha*W1 + beta*W2), the same predicate without the square-root noise
of an explicit eigenvalue gap. The pencil is read once (``_span_pencil``):
the decision keeps its kind, and :func:`classify3` solves its roots from it.

Pivot 1's rank comes from its SVD, one stacked LAPACK call for a batch of
states (:func:`classify3_tags`; :func:`classify3` is the batch of one).
Pivots 2 and 3 read sigma_2 / sigma_1 from their 2x2 minors, taken in pivot
1's singular basis; a pivot 2 or 3 takes an SVD only where it reads rank 1
and its factor is wanted.

The reduction builds one invertible operator per qubit from the report and
pivot 1's SVD, with no least-squares solve. A factored qubit's operator sends
its rank-1 pivot's first left singular vector to e1 (0_2 and 0_3 read it from
the report's factor; 000 takes the pivot-2 and pivot-3 SVDs). Otherwise F2 and
F3 send targets t1, t2 to computational basis vectors, and with u_k = conj(w_k) =
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
    NonFinite,
    ReductionFailed,
    SingularMatrix,
    SingularOperator,
    ToleranceBreakdown,
    WrongArity,
)
from .numerics import DEFAULT_POLICY, SvdResult, TolerancePolicy, inv2, svd, svd_stack
from .numerics import _exponent, _pivot_ratios
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
    _solve,
    _span_pencil,
    one_product_span_basis,
    onto_e1,
    product_factors,
    slice_matrix,
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
    holds (roots, w1, w2, policy) where the slice pencil decided GHZ or W,
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
        roots, w1, w2, pol = self.pencil
        return _pencil_spectrum(roots, *(np.linalg.norm(slice_matrix(w)) for w in (w1, w2)), pol)


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
    """Classes of the 3-qubit states in the rows of ``amps`` (B, 8): :func:`classify3`'s
    :func:`_decide` on all rows at once, reading a GHZ/W pencil's kind, never its roots; the
    first failing row raises the error :func:`make_state` or :func:`classify3` gives it."""
    amps = np.asarray(amps, dtype=complex).reshape(-1, 8)
    top = np.maximum(abs(amps.real), abs(amps.imag)).max(axis=1)  # make_state's reading per row
    valid = np.isfinite(top) & (top > 0.0)
    n = len(amps) if valid.all() else int(valid.argmin())
    tags = [reading[0] for reading in _decide(amps[:n], pol)[1]] if n else []
    if n < len(amps):
        make_state((2, 2, 2), amps[n])  # raises the row's NonFinite or ZeroState
    return tags


def _decide(amps, pol: TolerancePolicy):
    """The stacked pivot-1 SVD of the finite, nonzero rows of ``amps`` (B, 8), and each
    row's (tag, ranks, pencil) in order; the first failing row raises. Pivot 1's rank
    comes from its SVD, pivots 2 and 3 from :func:`_pivot_ratios`. Ranks (2, 2, 2) decide
    from the kind of ``pencil``, :func:`_span_pencil` of w1, w2 (orthonormal singular
    vectors: no Gram test or range check applies); other ranks have no pencil."""
    res = svd_stack(amps[:, _PIVOT_INDEX[0]])
    tol = pol.rank_rel_tol
    readings = []
    for (s1, s2), (w1, w2) in zip(res.sigma.tolist(), res.W[:, :, :2].swapaxes(1, 2).tolist()):
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
            pencil = _span_pencil(w1, w2, pol.deg_tol)
            kind = pencil[1][0]
            if kind is RootKind.INFINITELY_MANY:
                raise ToleranceBreakdown(
                    "pencil determinant vanishes identically although all pivots read rank 2"
                )
            tag = TripartiteClass.GHZ if kind is RootKind.TWO_DISTINCT else TripartiteClass.W
        readings.append((tag, ranks, pencil))
    return res, readings


def _classify3(state: PureState, pol: TolerancePolicy) -> tuple[ClassificationReport, SvdResult]:
    """:func:`classify3`, also returning pivot 1's SVD; it solves :func:`_decide`'s reading."""
    _require_three_qubits(state)
    stack, [(tag, ranks, pencil)] = _decide(state.amps[None], pol)
    res = SvdResult(stack.V[0], stack.sigma[0], stack.W[0], stack.matrix[0])
    w1, w2, sigma = res.W[:, 0], res.W[:, 1], tuple(res.sigma.tolist())
    if not math.isfinite(sigma[0]):  # an inf or NaN sigma_1 reads pivot 1 as rank 1
        raise NonFinite("singular values leave the float range")

    near = False
    # a factored qubit is a rank-1 pivot; the conjugate of its factor lies in span{w1, w2}
    if tag is TripartiteClass.C000:
        structure = SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(w1.copy(),))
    elif tag is TripartiteClass.C01_PSI23:
        structure = SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)
    elif tag is TripartiteClass.C02_PSI13:
        factor = svd(state.amps[_PIVOT_INDEX[1]]).V[:, 0].conj()
        structure = SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=factor)
    elif tag is TripartiteClass.C03_PSI12:
        factor = svd(state.amps[_PIVOT_INDEX[2]]).V[:, 0].conj()
        structure = SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=factor)
    else:
        coeffs, reading = pencil
        *_, disc, s = reading[2]  # scaled by a power of two: the window reads as unscaled
        threshold = pol.deg_tol * s * s
        near = threshold / 100.0 < abs(disc) <= threshold * 100.0
        roots = RootReport(*_solve(reading), coeffs)
        structure = span_structure(w1, w2, roots)
        pencil = (roots, w1, w2, pol)

    report = ClassificationReport(
        tag=tag,
        ranks=ranks,
        sigma=sigma,
        structure=structure,
        near_boundary=near,
        pencil=pencil,
    )
    return report, res


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


def _column_inverses(pairs, pol: TolerancePolicy):
    """:func:`inv2` of the 2x2 matrix [x y] for each column pair (x, y), read as Python scalars."""
    return (inv2(list(zip(x.tolist(), y.tolist())), pol) for x, y in pairs)


def _reducing_operators(report: ClassificationReport, res: SvdResult, amps, pol: TolerancePolicy):
    """F1, F2, F3 sending the state ``amps`` to the canonical vector of its class.

    ``res`` is pivot 1's SVD. A factored qubit is a rank-1 pivot, and its operator
    sends the pivot's first left singular vector a to e1: a = conj(factor) from the
    report for 0_2 and 0_3, from the pivot-2 and pivot-3 SVDs taken here for 000.
    Otherwise F2 and F3 send the targets t_j to computational basis vectors, and
    F1 is read from the pencil roots (GHZ, F1 = R^T diag(1/sigma) V^dagger) or
    from orthogonal targets (0_2, 0_3, W): there F1 = (V diag(sigma) M)^-1 with
    V diag(sigma) M = C conj(T) diag(1/|t_j|^2), the pivot matrix C in the
    coordinates of T = [t1 t2]. See the module docstring for R and M.
    """
    tag = report.tag
    U = res.W[:, :2].conj()  # columns u1, u2
    if tag is TripartiteClass.C000:
        f2, f3 = (onto_e1(svd(amps[_PIVOT_INDEX[p]]).V[:, 0]) for p in (1, 2))
    elif tag is TripartiteClass.C01_PSI23:
        # the pair part u1 = vec(P) reaches e1 (x) e1 + e2 (x) e2 under P^-1 (x) 1
        f2, f3 = inv2(U[:, 0].reshape(2, 2), pol), np.eye(2, dtype=complex)
    if report.ranks[0] == 1:  # 000 or 0_1: V^dagger / sigma_1 scales both directions alike
        return res.V.conj().T / res.sigma[0], f2, f3

    if tag is TripartiteClass.GHZ:
        # the witnesses span {w1, w2}; conjugation carries them to span {u1, u2}
        (a1, b1), (a2, b2) = (product_factors(w.conj()) for w in report.structure.witnesses)
        f2, f3 = _column_inverses(((a1, a2), (b1, b2)), pol)
        RT = np.array(report.pencil[0].roots).conj()  # row j: conj(alpha_j, beta_j)
        return (RT / res.sigma[:2]) @ res.V.conj().T, f2, f3
    C, factor = res.matrix, report.structure.factor
    if tag is TripartiteClass.C02_PSI13:  # t_j = a (x) e_j with a = conj(factor), |a| = 1
        f1 = inv2(factor @ C.reshape(2, 2, 2), pol)
        return f1, onto_e1(factor.conj()), np.eye(2, dtype=complex)
    if tag is TripartiteClass.C03_PSI12:  # t_j = e_j (x) b with b = conj(factor), |b| = 1
        f1 = inv2(C.reshape(2, 2, 2) @ factor, pol)
        return f1, np.eye(2, dtype=complex), onto_e1(factor.conj())
    # W class: t1 = a (x) b' + a' (x) b and t2 = a (x) b
    basis = one_product_span_basis(U[:, 0], U[:, 1], report.structure.witnesses[0].conj())
    f2, f3 = _column_inverses(((basis.left, basis.left_comp), (basis.right, basis.right_comp)), pol)
    a, b = basis.left.tolist(), basis.right.tolist()
    T = basis.entangled.conj().tolist(), [(x * y).conjugate() for x in a for y in b]
    n = [sum(t.real * t.real + t.imag * t.imag for t in tj) for tj in T]  # |t_j|^2
    CT = [[sum(c * t for c, t in zip(row, tj)) / nj for tj, nj in zip(T, n)] for row in C.tolist()]
    return inv2(CT, pol), f2, f3


def _norm(values) -> float:
    """2-norm of Python complex scalars, summed part by part with no over- or underflow."""
    return math.hypot(*(p for v in values for p in (v.real, v.imag)))


def reduce_to_canonical(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassificationReport, IloTriple]:
    """Classify, then build the local operators reaching the canonical vector.

    The construction works on the conjugated right singular vectors u_k = conj(w_k), because
    the state decomposes exactly as sum_k sigma_k v_k (x) u_k. Where |det F1| ~ 1 / (sigma_1
    sigma_r) nears the float range's end, the operators and the residual are read on the
    amplitudes times the exact power of two 2^-e that brings their largest part near 1: the
    operators send the state to 2^e times the canonical vector, up to scale. The residual
    |out - z c| / |out| of the image out, z its mean on the support of the 0/1 canonical c,
    is summed term by term (``math.hypot``), never as |out|^2 - |z|^2 |c|^2, which cancels.
    A singular 2x2 matrix or a residual above ``residual_tol`` raises :class:`ReductionFailed`.
    """
    report, res = _classify3(state, pol)
    s1, s2 = res.sigma.tolist()  # |det F1| ~ 1 / (s1 s_r), s_r the last nonzero sigma
    if not 2.0**-1010 < s1 * (s2 if report.ranks[0] == 2 else s1) < 2.0**1010:
        f = 2.0 ** -_exponent(state.amps.tolist())
        res = SvdResult(res.V, res.sigma * f, res.W, res.matrix * f)
        state = make_state(state.dims, state.amps * f)  # the operators and residual read it
    try:
        ops = LocalOperatorSet(_reducing_operators(report, res, state.amps, pol))
    except (SingularMatrix, SingularOperator) as exc:
        raise ReductionFailed(f"reducing operators are numerically singular: {exc}") from exc

    out, support = apply_local_operators(state, ops).amps.tolist(), _CANONICAL_AMPS[report.tag]
    z = sum(out[i] for i in support) / len(support)  # the projection onto the 0/1 canonical vector
    residual = _norm(v - z if i in support else v for i, v in enumerate(out)) / _norm(out)
    if not residual <= pol.residual_tol:  # a NaN residual fails too
        raise ReductionFailed(
            f"residual {residual:.3e} above tolerance {pol.residual_tol:.1e}"
        )
    return report, IloTriple(ops=ops, residual=residual)
