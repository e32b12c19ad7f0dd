import numpy as np

from _kit import RandomSource, random_ilo
from slocc.states import apply_local_operators
from slocc.tripartite import canonical_vector


def orbit_state(tag, src: RandomSource, cond_cap=1e3):
    """Canonical state of a class pushed along a random ILO triple."""
    ops = [random_ilo(2, src.split(k), cond_cap) for k in range(3)]
    return apply_local_operators(canonical_vector(tag), ops), ops


def random_complex(g, n):
    return g.standard_normal(n) + 1j * g.standard_normal(n)


def rel_err(a, b):
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


def up_to_scale(a, b, tol=1e-10):
    """Relative distance of b from the complex span of a."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    z = np.vdot(a, b) / np.vdot(a, a)
    return np.linalg.norm(b - z * a) / np.linalg.norm(b) <= tol


def numpy_span_basis(w1, w2, witness):
    """``one_product_span_basis`` as it was built on numpy arrays, kept as the reference of the
    scalar one: the same fields, read through ``product_factors`` and array products."""
    import math

    from slocc.errors import DependentGenerators, ToleranceBreakdown
    from slocc.subspaces import _EPS, AdaptedSpanBasis, product_factors

    a, b = product_factors(witness)
    b = b / np.linalg.norm(b)
    (x0, x1), (x2, x3) = np.array([[a[0].conj(), a[1].conj()], [-a[1], a[0]]]).tolist()
    (y0, y1), (y2, y3) = np.array([[b[0].conj(), b[1].conj()], [-b[1], b[0]]]).tolist()
    best = -1.0
    for w in (w1, w2):
        p, q, r, s = np.asarray(w, dtype=complex).reshape(-1).tolist()
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
    right_comp = b01 * np.array([y2, y3]).conj()
    left_comp = b10 * np.array([x2, x3]).conj()
    entangled = np.outer(a, right_comp).ravel() + np.outer(left_comp, b).ravel()
    return AdaptedSpanBasis(a, b, left_comp, right_comp, entangled, abs(b11) / best)
