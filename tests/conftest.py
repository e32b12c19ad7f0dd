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
