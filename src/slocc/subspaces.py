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

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DependentGenerators, DimensionMismatch, NonFinite, ToleranceBreakdown, ZeroVector
from .numerics import DEFAULT_POLICY, TolerancePolicy, _entries, _exponent, _pivot_ratios
from .numerics import numerical_rank, singular_values

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
            and (self.factor is other.factor or bool(np.array_equal(self.factor, other.factor)))
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
    return np.asarray(matrix, dtype=complex).T.reshape(-1).copy()


def _normalize_root(alpha: complex, beta: complex) -> tuple[complex, complex]:
    if abs(alpha) >= abs(beta):
        return complex(1.0), complex(beta / alpha)
    return complex(alpha / beta), complex(1.0)


def _root_kind(a, b, c, deg_tol: float):
    """(kind, pole, (a, b, c, disc, s)) by the rule of :func:`projective_quadratic_roots`, on
    the coefficients scaled by the power of two that puts the largest modulus s in [0.5, 1):
    exact, so b^2 neither under- nor overflows. ``pole``: |a| <= _EPS s put a root at (1, 0)."""
    a, b, c = complex(a), complex(b), complex(c)
    try:
        s = max(abs(a), abs(b), abs(c))
    except OverflowError:  # finite parts, a modulus past 2^1024: read the exact halves once
        return _root_kind(a * 0.5, b * 0.5, c * 0.5, deg_tol)
    if s == 0.0:
        return RootKind.INFINITELY_MANY, False, (a, b, c, 0j, s)
    f = math.ldexp(1.0, -max(math.frexp(s)[1], -1022))
    a, b, c, s = a * f, b * f, c * f, s * f
    disc = b * b - 4.0 * a * c
    if abs(disc) <= deg_tol * s * s:
        return RootKind.ONE_DOUBLE, False, (a, b, c, disc, s)
    pole = abs(a) <= _EPS * s
    kind = RootKind.ONE_DOUBLE if pole and abs(b) <= _EPS * s else RootKind.TWO_DISTINCT
    return kind, pole, (a, b, c, disc, s)


def _solve(reading):
    """(kind, roots) of a :func:`_root_kind` reading, each root normalized to max component 1."""
    kind, pole, (a, b, c, disc, _) = reading
    if kind is RootKind.INFINITELY_MANY:
        return kind, ()
    if pole:
        r1 = (complex(1.0), complex(0.0))
        return kind, ((r1,) if kind is RootKind.ONE_DOUBLE else (r1, _normalize_root(-c, b)))
    if kind is RootKind.ONE_DOUBLE:
        if abs(a) >= abs(c):
            return kind, (_normalize_root(-b, 2.0 * a),)
        return kind, (_normalize_root(2.0 * c, -b),)
    sd = np.sqrt(disc)
    t = -b - sd if abs(-b - sd) >= abs(-b + sd) else -b + sd
    return kind, (_normalize_root(t, 2.0 * a), _normalize_root(2.0 * c, t))


def projective_quadratic_roots(a, b, c, deg_tol: float):
    """Roots of ``a*x^2 + b*x*y + c*y^2`` on the projective line, ``(RootKind, roots)``:
    :func:`_solve` of the :func:`_root_kind` reading. The double root comes from the stable
    vertex formula, so its position is first-order accurate even though the two split roots
    would each carry sqrt-of-noise error. An inf or NaN part raises :class:`NonFinite`."""
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c)):
        raise NonFinite("quadratic coefficients leave the float range (an inf or NaN part)")
    return _solve(_root_kind(a, b, c, deg_tol))


def _scaled(v) -> np.ndarray:
    """v times the power of two that puts its largest part in [0.5, 1): exact, so a
    ratio of its norms or Gram entries reads as at scale 1, with no under- or overflow."""
    return v * math.ldexp(1.0, -_exponent(v.tolist()))


def _check_independent(w1, w2, pol):
    w1, w2 = _scaled(w1), _scaled(w2)  # the one scale read of each generator
    g11, g22 = float(np.vdot(w1, w1).real), float(np.vdot(w2, w2).real)
    g12 = complex(np.vdot(w1, w2))
    gram = g11 * g22 - abs(g12) ** 2
    if g11 == 0.0 or g22 == 0.0 or gram <= pol.rank_rel_tol * g11 * g22:
        raise DependentGenerators("the generators are numerically parallel")
    return w1, w2  # the unit rays, which classify_span reads


def minor_pencil(A, B):
    """Coefficients (a, b, c) of ``det(alpha*A + beta*B)``, b polarized: A and B unpack as
    ((A00, A01), (A10, A11)), nested lists of Python scalars for one 2x2 pencil or arrays
    with row and column as their first two axes for one pencil per trailing index."""
    (p1, q1), (r1, s1) = A
    (p2, q2), (r2, s2) = B
    return p1 * s1 - q1 * r1, p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1, p2 * s2 - q2 * r2


def pencil_quadratic(W1, W2) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of ``det(alpha*W1 + beta*W2)``: one :func:`minor_pencil` of two
    finite 2x2 matrices (:class:`DimensionMismatch`, :class:`NonFinite` otherwise)."""
    if np.shape(W1) != (2, 2) or np.shape(W2) != (2, 2):
        raise DimensionMismatch(f"expected 2x2 slices, got {np.shape(W1)} and {np.shape(W2)}")
    (p1, q1, r1, s1), (p2, q2, r2, s2) = _entries(W1, 4), _entries(W2, 4)
    return minor_pencil(((p1, q1), (r1, s1)), ((p2, q2), (r2, s2)))


def _span_pencil(v1, v2, deg_tol: float):
    """(a, b, c) of the slice pencil of flat 4-vector lists v1, v2 and its :func:`_root_kind`."""
    coeffs = minor_pencil((v1[::2], v1[1::2]), (v2[::2], v2[1::2]))  # rows of slice_matrix(v)
    return coeffs, _root_kind(*coeffs, deg_tol)


def product_roots(W1, W2, pol: TolerancePolicy = DEFAULT_POLICY) -> RootReport:
    """Classify the product directions of span{w1, w2} from the slice pencil.

    The public entry: it refuses slices other than finite 2x2 matrices first
    (:func:`pencil_quadratic`), then dependent generators, and :func:`projective_quadratic_roots`
    refuses coefficients beyond the float range (:class:`NonFinite`): checks on outside input
    that the package's own spans, read once by :func:`_span_pencil`, skip. The pencil is read
    on its own scale: the roots and the discriminant test scale with its coefficients, and it
    counts as vanishing only when all three are exactly zero. A common-factor span is named
    from ranks (:func:`classify_span`), not from its pencil.
    """
    a, b, c = pencil_quadratic(W1, W2)
    _check_independent(unslice(W1), unslice(W2), pol)
    return RootReport(*projective_quadratic_roots(a, b, c, pol.deg_tol), coeffs=(a, b, c))


def product_factors(w) -> tuple[np.ndarray, np.ndarray]:
    """Split a finite (near-)product 4-vector as a (x) b, a of unit norm (:func:`_factors`), read
    on the vector times 2^-e and b taken back to 2^e (:func:`_ldexp`)."""
    v = _entries(w, 4)
    e = _exponent(v)
    a, b = _factors(*_ldexp(-e, v))
    return np.array(a), np.array(_ldexp(e, b)[0])


def _ldexp(e: int, *vectors) -> list[list]:
    """Vectors times 2^e, part by part: exact where normal, :class:`NonFinite` past 2^1024."""
    try:
        return [[complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in v] for v in vectors]
    except OverflowError:
        raise NonFinite("a part leaves the float range at the input's scale") from None


def _factors(w) -> tuple[list, list]:
    """:func:`product_factors` of a flat list of four Python scalars, as lists: the 2x2 matrix
    m = a b^T of a product vector has rank 1, so a is its largest column over that column's
    norm and b = a^dagger m."""
    p, q, r, s = w
    n0, n1 = math.hypot(abs(p), abs(r)), math.hypot(abs(q), abs(s))  # column norms of m
    x, y, n = (p, r, n0) if n0 >= n1 else (q, s, n1)
    if n == 0.0:
        raise ZeroVector("the zero vector has no product factors")
    x, y = x / n, y / n
    return [x, y], [x.conjugate() * p + y.conjugate() * r, x.conjugate() * q + y.conjugate() * s]


def classify_line(w, pol: TolerancePolicy = DEFAULT_POLICY) -> SubspaceStructure:
    """Name a one-dimensional subspace: product line or entangled line."""
    v = np.array(_entries(w, 4))
    if np.abs(v).max() == 0.0:
        raise ZeroVector("the zero vector spans no line")
    rank = numerical_rank(singular_values(slice_matrix(_scaled(v))), pol)  # a rank has no scale
    if rank == 1:
        return SubspaceStructure(tag=StructureTag.PRODUCT_LINE, witnesses=(v,))  # v: a new array
    return SubspaceStructure(tag=StructureTag.ENTANGLED_LINE)


def classify_span(w1, w2, pol: TolerancePolicy = DEFAULT_POLICY) -> SubspaceStructure:
    """Name the structure of span{w1, w2} and return its witnesses or factor.

    With V = v.reshape(2, 2), the span has a common left factor exactly when
    [V1 | V2] has rank 1, and a common right factor when [V1^T | V2^T] does:
    the rank-1 pivot reading of ``classify3``. Both sigma_2 / sigma_1 come
    from :func:`_pivot_ratios` on the unit generators (scaling a generator
    keeps the ranks); the smaller one at most ``rank_rel_tol`` names the
    factor side, left on a tie. The Gram test, the factor, the pencil and its witnesses
    (:func:`span_structure`) are read from the generators' unit rays, which
    :func:`_check_independent` returns, so a generator's size does not change the reading.
    """
    v1, v2 = (np.array(_entries(w, 4)) for w in (w1, w2))  # finite 4-vectors only
    r1, r2 = _check_independent(v1, v2, pol)  # zero generators are refused before the division
    u1, u2 = r1 / np.linalg.norm(r1), r2 / np.linalg.norm(r2)
    l1, l2 = u1.tolist(), u2.tolist()
    left, right = _pivot_ratios(1.0, 1.0, l1, l2)
    if min(left, right) <= pol.rank_rel_tol:
        a, b = map(np.array, _factors(r1.tolist()))
        if left <= right:
            return SubspaceStructure(tag=StructureTag.LEFT_FACTOR, factor=a)
        return SubspaceStructure(tag=StructureTag.RIGHT_FACTOR, factor=b / np.linalg.norm(b))
    # Witnesses are read on the unit generators too, times the power of two of the larger
    # generator halved (a combination of unit vectors stays in range): a common power of
    # two scales them exactly, and no coefficient on v1, v2 can underflow.
    f = math.ldexp(1.0, _exponent([*v1.tolist(), *v2.tolist()]) - 1)
    coeffs, reading = _span_pencil(l1, l2, pol.deg_tol)
    return span_structure(u1 * f, u2 * f, RootReport(*_solve(reading), coeffs))


def span_structure(v1, v2, report: RootReport) -> SubspaceStructure:
    """Structure of a span{v1, v2} without a common factor, from its pencil roots.

    ``report`` must read the slice pencil of the flat 4-vectors v1, v2 (up to a common
    scale), as :func:`product_roots` or :func:`_span_pencil` does; each root (alpha, beta)
    gives the product witness alpha v1 + beta v2; the report holds the policy's decisions.
    A factor span is named from ranks before its pencil is read, so a vanishing pencil here
    raises :class:`ToleranceBreakdown`.
    """
    if report.kind is RootKind.INFINITELY_MANY:
        raise ToleranceBreakdown("slice pencil vanishes identically, but no factor was read")
    witnesses = tuple(alpha * v1 + beta * v2 for alpha, beta in report.roots)
    two = report.kind is RootKind.TWO_DISTINCT
    tag = StructureTag.TWO_PRODUCTS if two else StructureTag.ONE_PRODUCT_PLUS_ENTANGLED
    return SubspaceStructure(tag=tag, witnesses=witnesses)


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


def onto_e1(v) -> list[list]:
    """Unitary [[conj v0, conj v1], [-v1, v0]] sending the unit vector v = (v0, v1) to e1."""
    v0, v1 = v
    return [[v0.conjugate(), v1.conjugate()], [-v1, v0]]


def one_product_span_basis(w1, w2, witness) -> AdaptedSpanBasis:
    """Adapted basis of a OneProductPlusEntangled span around its witness a (x) b.

    With X = onto_e1(a) and Y = onto_e1(b) (a, b of unit norm; their rows are a^dagger,
    a_perp^dagger and b^dagger, b_perp^dagger), X H Y^T holds a generator's coordinates on
    the product basis {a, a_perp} (x) {b, b_perp}, H its 2x2 matrix. The witness is
    coordinate (0, 0); of the generator farther from it, coordinate (1, 1) must vanish
    (``leak``) and the cross ones fold into the complements, so the entangled generator
    reads a (x) b' + a' (x) b. :func:`_span_basis` reads the fields in Python scalars, from
    three finite 4-vectors (:class:`DimensionMismatch`, :class:`NonFinite` otherwise): the
    witness on its unit ray and the generators at their common 2^-e, read back at 2^e."""
    w1, w2, witness = (_entries(v, 4) for v in (w1, w2, witness))
    e = _exponent(w1 + w2)
    a, b, *fields, leak = _span_basis(*_ldexp(-e, w1, w2), *_ldexp(-_exponent(witness), witness))
    return AdaptedSpanBasis(*map(np.array, (a, b, *_ldexp(e, *fields))), leak=leak)


def _span_basis(w1, w2, witness) -> tuple:
    """:func:`one_product_span_basis`'s fields in order on flat lists of Python scalars."""
    a, b = _factors(witness)  # raises ZeroVector for a zero witness
    nb = math.hypot(abs(b[0]), abs(b[1]))
    b = [b[0] / nb, b[1] / nb]
    (x0, x1), (x2, x3) = onto_e1(a)
    (y0, y1), (y2, y3) = onto_e1(b)
    best = -1.0
    for p, q, r, s in (w1, w2):
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
    right_comp = [b01 * y2.conjugate(), b01 * y3.conjugate()]  # b01 b_perp
    left_comp = [b10 * x2.conjugate(), b10 * x3.conjugate()]  # b10 a_perp
    entangled = [u * v + p * q for u, p in zip(a, left_comp) for v, q in zip(right_comp, b)]
    return a, b, left_comp, right_comp, entangled, abs(b11) / best
