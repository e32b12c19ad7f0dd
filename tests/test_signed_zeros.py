"""A read at another scale keeps every sign: ``subspaces._scaled`` and ``states._unit_ray`` scale
the float view of their amplitudes by 2^-e, so a -0.0 part stays -0.0, which a complex multiply
by the real 2^-e would turn into +0.0."""

import itertools

import numpy as np
import pytest

from slocc.states import _unit_ray, make_state
from slocc.subspaces import _scaled, classify_span

PATTERNS = list(itertools.product((1.0, -1.0), repeat=2))  # the signs of a real and imaginary part


def signed_vector(x: float) -> np.ndarray:
    """Zeros beside parts of size x, in all four sign patterns of a real and imaginary part."""
    parts = [
        complex(sr * a, si * b)
        for sr, si in PATTERNS
        for a, b in ((0.0, 0.0), (x, 0.0), (0.0, x), (x, x))
    ]
    return np.array(parts)


@pytest.mark.parametrize("k", [-1060, -1000, -1, 0, 1, 600, 1020])
def test_scaled_keeps_every_sign(k):
    v = signed_vector(3.0 * 2.0**k)
    for w in v.reshape(4, 4):  # the 4-vectors classify_span reads
        got = _scaled(w.copy())
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(w.view(float)))
        if k > -1023:  # below 2^-1023 the scale stops at 2^1023, short of [0.5, 1)
            assert 0.5 <= np.abs(got.view(float)).max() < 1.0


@pytest.mark.parametrize("k", [-1060, -1000, -1, 0, 1, 600, 1020])
def test_unit_ray_keeps_every_sign(k):
    state = make_state((2,) * 4, signed_vector(3.0 * 2.0**k))
    ray = _unit_ray(state)
    assert np.array_equal(np.signbit(ray.amps.view(float)), np.signbit(state.amps.view(float)))
    assert ray.amps.tobytes() == _scaled(state.amps.copy()).tobytes()


def test_span_factor_keeps_its_signed_zeros():
    e11, e12 = np.eye(4, dtype=complex)[:2]
    factor = classify_span(e11.conj(), e12.conj()).factor
    assert np.array_equal(factor, [1, 0])
    assert np.signbit(factor.view(float)).tolist() == [False, True, False, True]  # [1-0j, 0-0j]
