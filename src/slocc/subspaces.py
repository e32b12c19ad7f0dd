"""Structure of 1- and 2-dimensional subspaces of C^2 (x) C^2.

A vector w in C^2 (x) C^2 written as w = e1 (x) w_1 + e2 (x) w_2 maps to the
2x2 slice matrix [w_1 w_2]; w is a product vector exactly when the slice has
rank 1. A two-dimensional span holds a continuum of product directions
exactly when its generators share a one-qubit factor, which is read from
ranks as ``classify3`` reads a factored qubit: [V1 | V2] has rank 1 for a
left factor and [V1^T | V2^T] for a right one (V = v.reshape(2, 2)). Any
other span has one or two product directions, the projective roots of
``q(a, b) = det(a*W1 + b*W2)``. A span always contains at least one product
direction, which is what makes the structure analysis exhaustive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DependentGenerators, DimensionMismatch, NonFinite, ToleranceBreakdown, ZeroVector
from .numerics import DEFAULT_POLICY, TolerancePolicy, _pivot_ratios, det2, numerical_rank

_EPS = 1e-13


class RootKind(enum.Enum):
    INFINITELY_MANY = "InfinitelyMany"
    TWO_DISTINCT = "TwoDistinct"
    ONE_DOUBLE = "OneDouble"


class StructureTag(enum.Enum):
    PRODUCT_LINE = "ProductLine"
    ENTANGLED_LINE = "EntangledLine"
    LEFT_FACTOR = "LeftFactor"
    RIGHT_FACTOR = "RightFactor"
    TWO_PRODUCTS = "TwoProducts"
    ONE_PRODUCT_PLUS_ENTANGLED = "OneProductPlusEntangled"


@dataclass(frozen=True)
class RootReport:
    """Projective roots of ``det(a*W1 + b*W2)``, normalized to max component 1.

    ``coeffs`` holds the pencil coefficients (a, b, c) the roots solve.
    """

    kind: RootKind
    roots: tuple[tuple[complex, complex], ...]
    coeffs: tuple[complex, complex, complex]


@dataclass(frozen=True, eq=False)
class SubspaceStructure:
    """Span (or line) structure with its product-vector witnesses.

    ``witnesses`` lists the product vectors found (none for an entangled
    line or a factor span, one or two otherwise); ``factor`` carries the
    common single-qubit factor for the LeftFactor / RightFactor spans.
    Two structures are equal when their tags match and their witnesses and
    factors are equal entry by entry, and equal structures hash alike.
    """

    tag: StructureTag
    witnesses: tuple[np.ndarray, ...] = ()
    factor: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, SubspaceStructure):
            return NotImplemented
        return (
            self.tag is other.tag
            and len(self.witnesses) == len(other.witnesses)
            and all(map(np.array_equal, self.witnesses, other.witnesses))
            and (self.factor is None) == (other.factor is None)
            and (self.factor is None or bool(np.array_equal(self.factor, other.factor)))
        )

    def __hash__(self):
        arrays = self.witnesses if self.factor is None else (*self.witnesses, self.factor)
        # + 0.0 turns -0.0 into 0.0
        return hash((self.tag, tuple((np.asarray(a, complex) + 0.0).tobytes() for a in arrays)))


def slice_matrix(w) -> np.ndarray:
    """2x2 slice of a 4-vector indexed as (11, 12, 21, 22)."""
    v = np.asarray(w, dtype=complex).reshape(-1)
    if v.size != 4:
        raise DimensionMismatch(f"expected a 4-vector, got length {v.size}")
    return v.reshape(2, 2).T.copy()


def unslice(matrix) -> np.ndarray:
    """Inverse of :func:`slice_matrix` (exact round trip)."""
    m = np.asarray(matrix, dtype=complex)
    return m.T.reshape(-1).copy()


def _normalize_root(alpha: complex, beta: complex) -> tuple[complex, complex]:
    if abs(alpha) >= abs(beta):
        return complex(1.0), complex(beta / alpha)
    return complex(alpha / beta), complex(1.0)


def projective_quadratic_roots(a, b, c, zero_tol: float, deg_tol: float):
    """Roots of ``a*x^2 + b*x*y + c*y^2`` on the projective line.

    Returns ``(RootKind, roots)``. The double root comes from the stable
    vertex formula, so its position is first-order accurate even though the
    two split roots would each carry sqrt-of-noise error.
    """
    a, b, c = complex(a), complex(b), complex(c)
    s = max(abs(a), abs(b), abs(c))
    if s <= zero_tol:
        return RootKind.INFINITELY_MANY, ()
    disc = b * b - 4.0 * a * c
    if abs(disc) <= deg_tol * s * s:
        if abs(a) >= abs(c):
            root = _normalize_root(-b, 2.0 * a)
        else:
            root = _normalize_root(2.0 * c, -b)
        return RootKind.ONE_DOUBLE, (root,)
    if abs(a) <= _EPS * s:
        r1 = (complex(1.0), complex(0.0))
        if abs(b) <= _EPS * s:
            return RootKind.ONE_DOUBLE, (r1,)
        return RootKind.TWO_DISTINCT, (r1, _normalize_root(-c, b))
    sd = np.sqrt(disc)
    t = -b - sd if abs(-b - sd) >= abs(-b + sd) else -b + sd
    return RootKind.TWO_DISTINCT, (
        _normalize_root(t, 2.0 * a),
        _normalize_root(2.0 * c, t),
    )


def _check_independent(w1, w2, pol):
    g11 = float(np.vdot(w1, w1).real)
    g22 = float(np.vdot(w2, w2).real)
    g12 = complex(np.vdot(w1, w2))
    gram = g11 * g22 - abs(g12) ** 2
    if g11 == 0.0 or g22 == 0.0 or gram <= pol.rank_rel_tol * g11 * g22:
        raise DependentGenerators("the generators are numerically parallel")


def pencil_quadratic(W1, W2) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of ``det(alpha*W1 + beta*W2)``."""
    a = det2(W1)
    c = det2(W2)
    b = det2(np.asarray(W1) + np.asarray(W2)) - a - c
    return a, b, c


def product_roots(W1, W2, pol: TolerancePolicy = DEFAULT_POLICY) -> RootReport:
    """Classify the product directions of span{w1, w2} from the slice pencil.

    The pencil is read on its own scale: the roots and the discriminant test
    scale with its coefficients, and it counts as vanishing only when all
    three are exactly zero. A span of product vectors only, one with a common
    factor, is named from ranks (:func:`classify_span`), not from its pencil.
    """
    W1 = np.asarray(W1, dtype=complex)
    W2 = np.asarray(W2, dtype=complex)
    _check_independent(unslice(W1), unslice(W2), pol)
    a, b, c = pencil_quadratic(W1, W2)
    kind, roots = projective_quadratic_roots(a, b, c, zero_tol=0.0, deg_tol=pol.deg_tol)
    return RootReport(kind=kind, roots=roots, coeffs=(a, b, c))


def product_factors(w) -> tuple[np.ndarray, np.ndarray]:
    """Split a (near-)product 4-vector as a (x) b with a of unit norm.

    The 2x2 matrix m = a b^T of a product vector has rank 1, so a is its
    largest column over that column's norm and b = a^dagger m.
    """
    p, q, r, s = np.asarray(w, dtype=complex).reshape(-1).tolist()
    n0, n1 = math.hypot(abs(p), abs(r)), math.hypot(abs(q), abs(s))  # column norms of m
    x, y, n = (p, r, n0) if n0 >= n1 else (q, s, n1)
    if n == 0.0:
        raise ZeroVector("the zero vector has no product factors")
    x, y = x / n, y / n
    b = [x.conjugate() * p + y.conjugate() * r, x.conjugate() * q + y.conjugate() * s]
    return np.array([x, y]), np.array(b)


def classify_line(w, pol: TolerancePolicy = DEFAULT_POLICY) -> SubspaceStructure:
    """Name a one-dimensional subspace: product line or entangled line."""
    v = np.asarray(w, dtype=complex).reshape(-1)
    if v.size != 4:
        raise DimensionMismatch(f"expected a 4-vector, got length {v.size}")
    if not np.isfinite(v).all():
        raise NonFinite("vector contains non-finite entries")
    if np.abs(v).max() == 0.0:
        raise ZeroVector("the zero vector spans no line")
    rank = numerical_rank(np.linalg.svd(slice_matrix(v), compute_uv=False), pol)
    if rank == 1:
        return SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(v.copy(),))
    return SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)


def classify_span(w1, w2, pol: TolerancePolicy = DEFAULT_POLICY) -> SubspaceStructure:
    """Name the structure of span{w1, w2} and return its witnesses or factor.

    With V = v.reshape(2, 2), the span has a common left factor exactly when
    [V1 | V2] has rank 1, and a common right factor when [V1^T | V2^T] does:
    the rank-1 pivot reading of ``classify3``. Both sigma_2 / sigma_1 come
    from :func:`_pivot_ratios` on the unit generators (scaling a generator
    keeps the ranks); the smaller one at most ``rank_rel_tol`` names the
    factor side, left on a tie. Any other span is read from its slice pencil
    (:func:`span_structure`).
    """
    v1 = np.asarray(w1, dtype=complex).reshape(-1)
    v2 = np.asarray(w2, dtype=complex).reshape(-1)
    W1, W2 = slice_matrix(v1), slice_matrix(v2)
    if not (np.isfinite(v1).all() and np.isfinite(v2).all()):
        raise NonFinite("generators contain non-finite entries")
    _check_independent(v1, v2, pol)  # zero generators are refused before the division
    left, right = _pivot_ratios(1.0, 1.0, *((v / np.linalg.norm(v)).tolist() for v in (v1, v2)))
    if left <= pol.rank_rel_tol and left <= right:
        return SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=product_factors(v1)[0])
    if right <= pol.rank_rel_tol:
        b = product_factors(v1)[1]
        return SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=b / np.linalg.norm(b))
    return span_structure(v1, v2, product_roots(W1, W2, pol), pol)


def span_structure(
    v1, v2, report: RootReport, pol: TolerancePolicy = DEFAULT_POLICY
) -> SubspaceStructure:
    """Structure of a span{v1, v2} without a common factor, from its pencil roots.

    ``report`` must come from :func:`product_roots` on the slices of the flat
    4-vectors v1, v2; each root (alpha, beta) gives the product witness
    alpha v1 + beta v2. ``pol`` is not read: the report already holds the
    policy's decisions. A factor span is named from ranks before its pencil
    is read, so a vanishing pencil here raises :class:`ToleranceBreakdown`.
    """
    if report.kind is RootKind.INFINITELY_MANY:
        raise ToleranceBreakdown("slice pencil vanishes identically, but no factor was read")
    witnesses = tuple(alpha * v1 + beta * v2 for alpha, beta in report.roots)
    if report.kind is RootKind.TWO_DISTINCT:
        return SubspaceStructure(tag=StructureTag.TWO_PRODUCTS, witnesses=witnesses)
    return SubspaceStructure(
        tag=StructureTag.ONE_PRODUCT_PLUS_ENTANGLED, witnesses=witnesses
    )


@dataclass(frozen=True)
class AdaptedSpanBasis:
    """Adapted generators of a one-product span{a (x) b, a (x) b' + a' (x) b}.

    ``leak`` is the relative coordinate of the span on the forbidden
    direction a' (x) b'; it vanishes exactly when only one product direction
    exists.
    """

    left: np.ndarray
    right: np.ndarray
    left_comp: np.ndarray
    right_comp: np.ndarray
    entangled: np.ndarray
    leak: float


def onto_e1(v) -> np.ndarray:
    """Unitary [[conj v0, conj v1], [-v1, v0]] sending the unit vector v = (v0, v1) to e1."""
    v0, v1 = v.tolist()
    return np.array([[v0.conjugate(), v1.conjugate()], [-v1, v0]])


def one_product_span_basis(w1, w2, witness) -> AdaptedSpanBasis:
    """Adapted basis of a OneProductPlusEntangled span around its witness a (x) b.

    With X = onto_e1(a) and Y = onto_e1(b) (a, b of unit norm; their rows are
    a^dagger, a_perp^dagger and b^dagger, b_perp^dagger), X H Y^T holds a
    generator's coordinates on the product basis {a, a_perp} (x) {b, b_perp}, H
    its 2x2 matrix. The witness is coordinate (0, 0); of the generator farther
    from it, coordinate (1, 1) must vanish (``leak``) and the cross ones fold
    into the complements, so the entangled generator reads a (x) b' + a' (x) b.
    """
    a, b = product_factors(witness)  # raises ZeroVector for a zero witness
    b = b / np.linalg.norm(b)
    (x0, x1), (x2, x3) = onto_e1(a).tolist()
    (y0, y1), (y2, y3) = onto_e1(b).tolist()
    best = -1.0
    for w in (w1, w2):
        p, q, r, s = np.asarray(w, dtype=complex).reshape(-1).tolist()
        # X H Y^T for H = [[p, q], [r, s]], coordinates (0, 1), (1, 0) and (1, 1)
        h00, h01, h10, h11 = p * y0 + q * y1, p * y2 + q * y3, r * y0 + s * y1, r * y2 + s * y3
        c = (x0 * h01 + x1 * h11, x2 * h00 + x3 * h10, x2 * h01 + x3 * h11)
        size = math.hypot(*map(abs, c))
        if size > best:
            best, (b01, b10, b11) = size, c
    if best == 0.0:
        raise DependentGenerators("span collapses onto the witness")
    if abs(b01) <= _EPS * best or abs(b10) <= _EPS * best:
        raise ToleranceBreakdown(
            "complement of the witness has no cross component; span is not of one-product type"
        )
    right_comp = b01 * np.array([y2, y3]).conj()  # b01 b_perp
    left_comp = b10 * np.array([x2, x3]).conj()  # b10 a_perp
    entangled = np.outer(a, right_comp).ravel() + np.outer(left_comp, b).ravel()
    return AdaptedSpanBasis(
        left=a,
        right=b,
        left_comp=left_comp,
        right_comp=right_comp,
        entangled=entangled,
        leak=abs(b11) / best,
    )
