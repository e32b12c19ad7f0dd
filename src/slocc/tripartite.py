"""Three-qubit SLOCC classification and canonical-form reduction.

Decision procedure: the ranks of the three coefficient matrices name the product-like
classes, whose structure is read from the rank-1 pivots; when all three ranks are 2 the
span of the two right singular vectors of the pivot-1 matrix is analyzed through its
slice matrices W1, W2. Two distinct product directions in the span mean GHZ, a single
(double) one means W. Equivalently, the spectrum of W1^-1 W2 is non-degenerate for GHZ
and degenerate for W; the implementation decides via the discriminant of
det(alpha*W1 + beta*W2), the same predicate without the square-root noise of an explicit
eigenvalue gap. The pencil is read once (``_span_pencil``): the decision keeps its kind.
The report explains the decision only when read: the first access to its ``structure``
or ``pencil`` solves the roots from that reading (or takes 0_2's or 0_3's factor SVD).

Pivot 1's rank comes from its one SVD (``numerics._leading_svd``), read as Python scalars
by :func:`_decide`, which the line points ``descriptor``'s minor table leaves share, one SVD
per point. Pivots 2 and 3 read sigma_2 / sigma_1 from their 2x2 minors in pivot 1's basis.

The reduction builds one invertible operator per qubit in Python scalars, from the report
and pivot 1's SVD, and reads no ``structure``: GHZ and W read the report's ``pencil``. A
factored qubit's operator sends its rank-1 pivot's one left direction, the top eigenvector
of the pivot's 2x2 Gram matrix, to e1, so 000 takes no pivot-2 or pivot-3 SVD. Otherwise F2
and F3 send targets t1, t2 to the computational basis, and with u_k = conj(w_k) =
M[k, 0] t1 + M[k, 1] t2, F1 = M^-1 diag(1/sigma) V^dagger: for GHZ, whose targets are the
conjugated witnesses, M^-1 = R^T with R = conj([[alpha_1, alpha_2], [beta_1, beta_2]]) over
the pencil roots; for 0_2, 0_3 and W, whose targets are orthogonal, F1 is the inverse of
C conj(T) diag(1/|t_j|^2), C the pivot-1 matrix in the coordinates of T = [t1 t2].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentRanks, ReductionFailed, SingularMatrix, SingularOperator
from .errors import ToleranceBreakdown, WrongArity
from .numerics import DEFAULT_POLICY, TolerancePolicy, inv2
from .numerics import _leading_svd, _pivot_ratios, _top_direction
from .states import LocalOperatorSet, PureState, _unit_ray, apply_local_operators, make_state
from .states import pivot_index
from .subspaces import (
    RootKind,
    RootReport,
    StructureTag,
    SubspaceStructure,
    _factors,
    _solve,
    _span_basis,
    _span_pencil,
    onto_e1,
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


class _Explanation:
    """A report's explanation, each part a cached read from its ``_source``: (amplitudes, pivot
    1's right singular vectors, the :func:`_span_pencil` reading or None, policy), stored in the
    instance ``__dict__``, not through ``__setattr__``, so the frozen report takes it."""

    @functools.cached_property
    def pencil(self) -> tuple | None:
        _, W, reading, pol = self._source
        if reading is None:
            return None
        coeffs, reading = reading
        return RootReport(*_solve(reading), coeffs), W[:, 0], W[:, 1], pol

    @functools.cached_property
    def structure(self) -> SubspaceStructure:
        # a factored qubit is a rank-1 pivot; the conjugate of its factor lies in span{w1, w2}
        amps, W, _, _ = self._source
        if self.tag is TripartiteClass.C000:
            return SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(W[:, 0].copy(),))
        if self.tag is TripartiteClass.C01_PSI23:
            return SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)
        if self.tag is TripartiteClass.C02_PSI13:
            factor = _leading_svd(amps[_PIVOT_INDEX[1]])[0][:, 0].conj()
            return SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=factor)
        if self.tag is TripartiteClass.C03_PSI12:
            factor = _leading_svd(amps[_PIVOT_INDEX[2]])[0][:, 0].conj()
            return SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=factor)
        roots, w1, w2, _ = self.pencil
        return span_structure(w1, w2, roots)

    @functools.cached_property
    def spectrum_used(self) -> SpectrumInfo | None:
        if self.pencil is None:
            return None
        roots, w1, w2, pol = self.pencil
        return _pencil_spectrum(roots, *(np.linalg.norm(slice_matrix(w)) for w in (w1, w2)), pol)


@dataclass(frozen=True)
class ClassificationReport(_Explanation):
    """Class of a 3-qubit state and the readings that decided it. ``structure`` and ``pencil``
    ((roots, w1, w2, policy) where the slice pencil decided GHZ or W, else None) take no
    argument and no class default: a read reaches :class:`_Explanation`, which computes them;
    their fields keep ``structure`` in ``==``, hash and repr. Where :func:`_classify3` reads the
    amplitudes times 2^-e, ``sigma`` and every other reading are that scaled ray's."""

    tag: TripartiteClass
    ranks: tuple[int, int, int]
    sigma: tuple[float, ...]
    structure: SubspaceStructure = field(init=False)
    near_boundary: bool
    pencil: tuple | None = field(init=False, repr=False, compare=False)
    _source: tuple = field(repr=False, compare=False)


@dataclass(frozen=True)
class IloTriple:
    """Invertible operators F1, F2, F3 reducing a state to its canonical vector."""

    ops: LocalOperatorSet
    residual: float


@functools.cache
def canonical_vector(tag: TripartiteClass) -> PureState:
    """The canonical representative of a class (unnormalized, 0/1 amplitudes; cached)."""
    return make_state((2, 2, 2), [k in _CANONICAL_AMPS[tag] for k in range(8)])


_PIVOT_INDEX = tuple(pivot_index((2, 2, 2), p) for p in (1, 2, 3))
_RANK_CLASS = {
    (1, 1, 1): TripartiteClass.C000,
    (1, 2, 2): TripartiteClass.C01_PSI23,
    (2, 1, 2): TripartiteClass.C02_PSI13,
    (2, 2, 1): TripartiteClass.C03_PSI12,
}


def _rank_class(ranks: tuple[int, ...]) -> TripartiteClass | None:
    """The class pivot ``ranks`` name; None at (2, 2, 2), which GHZ and W share."""
    if ranks in _RANK_CLASS or ranks == (2, 2, 2):
        return _RANK_CLASS.get(ranks)
    msg = f"ranks {ranks}: exactly two pivots read rank 1, impossible for a valid state"
    raise InconsistentRanks(msg)


def classify3(state: PureState, pol: TolerancePolicy = DEFAULT_POLICY) -> ClassificationReport:
    """Classify a 3-qubit state into one of the six SLOCC classes."""
    return _classify3(state, pol)[0]


def _decide(sigma: list, span: list, pol: TolerancePolicy) -> tuple:
    """(tag, ranks, pencil) of a 3-qubit state from its pivot-1 SVD read as Python scalars:
    ``sigma`` = [s1, s2] and ``span`` = [w1, w2], the right singular vectors. Pivot 1's rank
    comes from sigma, pivots 2 and 3 from :func:`_pivot_ratios`. Ranks (2, 2, 2) decide from
    the kind of ``pencil``, the :func:`_span_pencil` of the orthonormal w1, w2 (no Gram test
    or range check applies)."""
    (s1, s2), (w1, w2), tol = sigma, span, pol.rank_rel_tol
    r2, r3 = _pivot_ratios(s1, s2, w1, w2)
    ranks = (1 + (s2 > tol * s1), 1 + (r2 > tol), 1 + (r3 > tol))
    tag = _rank_class(ranks)
    if tag is not None:
        return tag, ranks, None
    # the slice pencil decides GHZ (two roots) against W (one double root); the ranks
    # already rule out a factor, so only an exactly vanishing pencil reads as one
    pencil = _span_pencil(w1, w2, pol.deg_tol)
    kind = pencil[1][0]
    if kind is RootKind.INFINITELY_MANY:
        raise ToleranceBreakdown(
            "pencil determinant vanishes identically although all pivots read rank 2"
        )
    tag = TripartiteClass.GHZ if kind is RootKind.TWO_DISTINCT else TripartiteClass.W
    return tag, ranks, pencil


def _classify3_rows(amps, pol: TolerancePolicy = DEFAULT_POLICY) -> list[TripartiteClass]:
    """Classes of the 3-qubit unit vectors in the rows of ``amps`` (B, 8), the line points
    ``descriptor``'s minor table leaves: :func:`_decide` on each row's pivot-1 SVD, which
    reads a GHZ/W pencil's kind, never its roots. The first failing row raises."""
    pivots = map(_leading_svd, amps[:, _PIVOT_INDEX[0]])
    return [_decide(s.tolist(), W.T.tolist(), pol)[0] for _, s, W, _ in pivots]


def _classify3(state: PureState, pol: TolerancePolicy) -> tuple:
    """:func:`classify3`, also returning pivot 1's SVD (V, sigma, W_k) and the state read. Where
    s1 s_r ~ 1 / |det F1| (s_r = s2 at pivot-1 rank 2, else s1) leaves (2^-1010, 2^1010), as an
    inf or NaN sigma_1 does, the unit ray (``states._unit_ray``: times 2^-e) is read once."""
    if state.dims != (2, 2, 2):
        raise WrongArity(f"expected dims (2, 2, 2), got {state.dims}")
    V, s, W, _ = _leading_svd(state.amps[_PIVOT_INDEX[0]])
    s1, s2 = sigma = s.tolist()
    if not 2.0**-1010 < s1 * (s2 if s2 > pol.rank_rel_tol * s1 else s1) < 2.0**1010:
        state = _unit_ray(state)
        V, s, W, _ = _leading_svd(state.amps[_PIVOT_INDEX[0]])
        sigma = s.tolist()
    W.flags.writeable = False  # the report's pencil hands out its columns w1, w2
    tag, ranks, pencil = _decide(sigma, W.T.tolist(), pol)
    near = False
    if pencil is not None:
        *_, disc, scale = pencil[1][2]  # scaled by a power of two: the window reads as unscaled
        threshold = pol.deg_tol * scale * scale
        near = threshold / 100.0 < abs(disc) <= threshold * 100.0
    report = ClassificationReport(tag, ranks, tuple(sigma), near, (state.amps, W, pencil, pol))
    return report, (V, s, W), state


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


def _reducing_operators(report: ClassificationReport, V, sigma, W, amps, pol: TolerancePolicy):
    """F1, F2, F3 sending the state ``amps``, with pivot-1 SVD V diag(sigma) W^dagger, to the
    canonical vector of its class, as the module docstring builds them, in Python scalars
    (:class:`LocalOperatorSet` then holds its own read-only copy of each). A factored
    qubit's direction comes from :func:`numerics._top_direction`, so 000 takes no pivot-2 or
    pivot-3 SVD; GHZ's and W's witnesses alpha w1 + beta w2 come from the report's ``pencil``
    roots, as :func:`span_structure` forms them. No class reads ``structure``; a later
    ``structure`` read forms the witnesses again, without a second pencil solve."""
    tag = report.tag
    if tag is TripartiteClass.C000:
        f2, f3 = (onto_e1(_top_direction(amps[_PIVOT_INDEX[p]].tolist())) for p in (1, 2))
    elif tag is TripartiteClass.C01_PSI23:
        # the pair part u1 = vec(P) reaches e1 (x) e1 + e2 (x) e2 under P^-1 (x) 1
        f2, f3 = inv2(W[:, 0].conj().reshape(2, 2), pol), np.eye(2)
    if report.ranks[0] == 1:  # 000 or 0_1: V^dagger / sigma_1 scales both directions alike
        return V.conj().T / sigma[0], f2, f3
    C = amps[_PIVOT_INDEX[0]].tolist()
    if tag is TripartiteClass.C02_PSI13:  # t_j = a (x) e_j, |a| = 1
        (x, y), _ = f2 = onto_e1(_top_direction(amps[_PIVOT_INDEX[1]].tolist()))  # x, y = conj(a)
        return inv2([[x * c[k] + y * c[k + 2] for k in (0, 1)] for c in C], pol), f2, np.eye(2)
    if tag is TripartiteClass.C03_PSI12:  # t_j = e_j (x) b, |b| = 1
        (x, y), _ = f3 = onto_e1(_top_direction(amps[_PIVOT_INDEX[2]].tolist()))  # x, y = conj(b)
        return inv2([[x * c[k] + y * c[k + 1] for k in (0, 2)] for c in C], pol), np.eye(2), f3

    roots, w1, w2, _ = report.pencil  # the decision's own reading, solved once
    witnesses = [(alpha * w1 + beta * w2).conj().tolist() for alpha, beta in roots.roots]
    if tag is TripartiteClass.GHZ:
        # the witnesses span {w1, w2}; conjugation carries them to span {u1, u2}
        (a1, b1), (a2, b2) = map(_factors, witnesses)
        (s1, s2), Vh = sigma.tolist(), V.conj().tolist()  # row k of conj(V): column k of V^dagger
        RT = [(x.conjugate() / s1, y.conjugate() / s2) for x, y in roots.roots]
        f1 = [[x * p + y * q for p, q in Vh] for x, y in RT]  # R^T diag(1/sigma) V^dagger
        return f1, inv2([*zip(a1, a2)], pol), inv2([*zip(b1, b2)], pol)
    # W class: t1 = a (x) b' + a' (x) b and t2 = a (x) b, in span{u1, u2}, u_k = conj(w_k)
    a, b, a_comp, b_comp, entangled, _ = _span_basis(*W[:, :2].conj().T.tolist(), witnesses[0])
    T = [t.conjugate() for t in entangled], [(x * y).conjugate() for x in a for y in b]
    n = [sum([t.real * t.real + t.imag * t.imag for t in tj]) for tj in T]  # |t_j|^2
    CT = [[sum([c * t for c, t in zip(row, tj)]) / nj for tj, nj in zip(T, n)] for row in C]
    return inv2(CT, pol), inv2([*zip(a, a_comp)], pol), inv2([*zip(b, b_comp)], pol)


def reduce_to_canonical(
    state: PureState, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[ClassificationReport, IloTriple]:
    """Classify, then build the local operators reaching the canonical vector.

    The construction works on the conjugated right singular vectors u_k = conj(w_k), because
    the state decomposes exactly as sum_k sigma_k v_k (x) u_k. The operators and the residual
    are read on the state and SVD :func:`_classify3` decided on (read at 2^-e, the operators
    send the state to 2^e times the canonical vector, up to scale). The residual |out - z c| /
    |out| of the image out, z its mean on the support of the 0/1 canonical c, is summed term by
    term (``math.hypot``), never as |out|^2 - |z|^2 |c|^2, which cancels. A singular 2x2
    matrix or a residual above ``residual_tol`` raises :class:`ReductionFailed`.
    """
    report, (V, sigma, W), state = _classify3(state, pol)
    try:
        ops = LocalOperatorSet(_reducing_operators(report, V, sigma, W, state.amps, pol))
    except (SingularMatrix, SingularOperator) as exc:
        raise ReductionFailed(f"reducing operators are numerically singular: {exc}") from exc

    image = apply_local_operators(state, ops).amps
    out, support = image.tolist(), _CANONICAL_AMPS[report.tag]
    z = sum(out[i] for i in support) / len(support)  # the projection onto the 0/1 canonical vector
    out = [v - z if i in support else v for i, v in enumerate(out)]
    residual = math.hypot(*[v.real for v in out], *[v.imag for v in out])
    residual /= math.hypot(*image.view(float).tolist())
    if not residual <= pol.residual_tol:  # a NaN residual fails too
        raise ReductionFailed(f"residual {residual:.3e} above tolerance {pol.residual_tol:.1e}")
    return report, IloTriple(ops=ops, residual=residual)
