"""A state's working scale is read once, from the binary exponent make_state keeps: descriptor,
factor_support and classify_bipartite read a state whose sigma_1 could pass 2^1024 on its unit
ray (the amplitudes times 2^-e) before their first SVD, with no retry after an inf sigma_1.
Also the boundary mends that ride along: classify_line at any scale, SvdResult.residual past
the float range, and typed refusals of non-integral subsystem indices."""

import math
import warnings

import numpy as np
import pytest

import slocc.bipartite
import slocc.multiqubit
from _kit import RandomSource, random_ilo
from conftest import random_complex
from slocc.bipartite import _read_bipartite, classify_bipartite
from slocc.errors import BadPivot, NonFinite
from slocc.multiqubit import descriptor, factor_support
from slocc.numerics import DEFAULT_POLICY, TolerancePolicy, _exponent, _leading_svd, svd
from slocc.states import (
    PureState,
    _in_range,
    _unit_ray,
    apply_local_operators,
    coefficient_matrix,
    make_state,
    permute_subsystems,
)
from slocc.subspaces import StructureTag, _scaled, classify_line
from slocc.tripartite import TripartiteClass, canonical_vector

POLICIES = [DEFAULT_POLICY, TolerancePolicy(1e-6, 1e-5), TolerancePolicy(1e-4, 1e-3)]


def at_top(amps, top):
    """The amplitudes rescaled so that their largest real or imaginary part is ``top``."""
    amps = np.asarray(amps, dtype=complex)
    return amps / np.abs(amps.view(float)).max() * top


def far_scales(amps):
    """The amplitudes at 2^+-1000, at a largest part of 1e307 and at one of 1.5e308."""
    return [amps * 2.0**1000, amps * 2.0**-1000, at_top(amps, 1e307), at_top(amps, 1.5e308)]


def w_times_zero(top):
    """W (x) |0>, a factored 4-qubit state, at largest part ``top``."""
    return make_state((2,) * 4, at_top(np.kron(canonical_vector(TripartiteClass.W).amps, [1, 0]), top))


def random_states(dims, seed, count):
    g = RandomSource(seed).generator()
    return [make_state(dims, random_complex(g, math.prod(dims))) for _ in range(count)]


def counting(monkeypatch, module, name):
    """Count the calls ``module`` makes to its ``name``."""
    calls, inner = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStoredExponent:
    """PureState.exponent is numerics._exponent of the amplitudes, wherever the state comes from,
    and takes no part in ==, hash or repr."""

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300, "1.5e308"])
    def test_equals_the_exponent_of_the_amplitudes(self, scale):
        src = RandomSource(9100)
        g = src.generator()
        amps = random_complex(g, 16)
        amps = at_top(amps, 1.5e308) if scale == "1.5e308" else amps * scale
        state = make_state((2,) * 4, amps)
        ops = [op / (2 * np.abs(op).max()) for op in (random_ilo(2, src.split(k)) for k in range(4))]
        made = [state, permute_subsystems(state, (3, 1, 4, 2)), apply_local_operators(state, ops)]
        factored = make_state((2,) * 4, np.kron(amps[:8], [0.6, 0.8j]))
        made.append(factor_support(factored)[2])
        for s in made:
            assert s.exponent == _exponent(s.amps.tolist())

    def test_subnormal_largest_part(self):  # the exponent is at least -1023: 2^-e stays finite
        state = make_state((2, 2), [2.0**-1070, 0, 0, 2.0**-1072])
        assert state.exponent == _exponent(state.amps.tolist()) == -1023
        assert _unit_ray(state).amps.tobytes() == (state.amps * 2.0**1023).tobytes()

    def test_built_directly(self):
        amps = np.array([3e300, 0, 0, 1j], dtype=complex)
        state = PureState((2, 2), amps)
        assert state.exponent == _exponent(amps.tolist()) == make_state((2, 2), amps).exponent

    def test_outside_equality_hash_and_repr(self):
        state = make_state((2, 2), [1, 0, 0, 1])
        other = PureState((2, 2), state.amps, exponent=7)
        assert other == state and hash(other) == hash(state) and repr(other) == repr(state)

    def test_unit_ray_is_the_scaled_amplitudes(self):
        for amps in far_scales(random_complex(RandomSource(9110).generator(), 8)):
            state = make_state((2, 2, 2), amps)
            ray = _unit_ray(state)
            assert ray.amps.tobytes() == _scaled(state.amps).tobytes()
            assert ray.exponent == _exponent(ray.amps.tolist()) and not ray.amps.flags.writeable

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 6), (2,) * 4, (2,) * 8])
    def test_in_range_only_where_sigma_1_could_overflow(self, dims):
        for state in random_states(dims, 9120, 4):
            for top in (1.0, 1e-300, 1e300, 1e307, 1.5e308, 1.79e308):
                scaled = make_state(dims, at_top(state.amps, top))
                bound = scaled.exponent + math.log2(2 * scaled.amps.size) / 2
                read = _in_range(scaled)
                assert (read is scaled) == (bound < 1024)
                if read is scaled:  # sigma_1 <= |amps| < 2^bound stays finite
                    assert math.isfinite(_leading_svd(coefficient_matrix(scaled, 1).entries)[1][0])


class TestReadOnce:
    """At a largest part of 1.5e308 sigma_1 reads inf unscaled: each entry's SVD runs once, on the
    unit ray, with no warning."""

    def test_descriptor_pivot_svd_once(self, monkeypatch):
        calls = counting(monkeypatch, slocc.multiqubit, "_leading_svd")
        for state in random_states((2,) * 4, 9200, 3):
            big = make_state(state.dims, at_top(state.amps, 1.5e308))
            assert not math.isfinite(np.linalg.svd(big.amps.reshape(2, 8), compute_uv=False)[0])
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = descriptor(big)
            assert len(calls) == 1
            assert got.signature() == descriptor(state).signature()

    def test_factor_support_singular_values_once(self, monkeypatch):
        calls = counting(monkeypatch, slocc.multiqubit, "singular_values")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            support = factor_support(w_times_zero(1.5e308))
        assert len(calls) == 1
        assert support is not None and support[0] == 4
        assert classify_bipartite(make_state((2, 4), support[2].amps)).schmidt_rank == 2

    def test_classify_bipartite_svd_once(self, monkeypatch):
        calls = counting(monkeypatch, slocc.bipartite, "_leading_svd")
        for dims in ((2, 2), (3, 3), (4, 6)):
            for state in random_states(dims, 9210, 2):
                big = make_state(dims, at_top(state.amps, 1.5e308))
                want = classify_bipartite(state)
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert classify_bipartite(big) == want
                assert len(calls) == 1


class TestReadAtTheWorkingScale:
    """Past the bound each entry reads exactly what it reads on the unit ray; below it, the state
    as given."""

    def test_finite_sigma_past_the_bound_reads_the_unit_ray(self):
        state = make_state((2, 2), [1.5e308, 0, 0, 1e300])
        assert math.isfinite(_leading_svd(state.amps.reshape(2, 2))[1][0])
        cls, sigma = _read_bipartite(state, DEFAULT_POLICY)
        unit = _leading_svd(_scaled(state.amps).reshape(2, 2))[1]
        assert cls.schmidt_rank == 2 and sigma.tobytes() == unit.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 6), (2, 8)])
    def test_bipartite(self, dims):
        for state in random_states(dims, 9300, 5):
            for amps in far_scales(state.amps):
                far = make_state(dims, amps)
                for pol in POLICIES:
                    cls, sigma = _read_bipartite(far, pol)
                    assert cls == classify_bipartite(state, pol)
                    want = _read_bipartite(_in_range(far), pol)[1]
                    assert sigma.tobytes() == want.tobytes()

    def test_descriptor_and_factor_support(self):
        states = random_states((2,) * 4, 9310, 6) + [w_times_zero(1.0)]
        for state in states:
            for amps in far_scales(state.amps):
                far = make_state(state.dims, amps)
                read = _in_range(far)
                for pol in POLICIES:
                    got, want = descriptor(far, pol), descriptor(read, pol)
                    assert got == want and got.exceptional_points == want.exceptional_points
                    assert got.signature() == descriptor(state, pol).signature()
                    support, unit = factor_support(far, pol), factor_support(read, pol)
                    assert (support is None) == (unit is None) == (factor_support(state, pol) is None)
                    if support is not None:
                        assert support[0] == unit[0] and support[1].tobytes() == unit[1].tobytes()
                        assert support[2].amps.tobytes() == unit[2].amps.tobytes()


class TestClassifyLineAtAnyScale:
    """classify_line reads its rank on the vector times 2^-e, so a line past 2^1024 in sigma_1
    reads its scale-1 tag with no warning, and keeps its witness as given."""

    @pytest.mark.parametrize("vector,tag", [
        ([1, 1, 1, 1], StructureTag.PRODUCT_LINE),
        ([1, 2j, -3, -6j], StructureTag.PRODUCT_LINE),
        ([1, 0, 0, 1], StructureTag.ENTANGLED_LINE),
        ([0.5, 1j, 2, -1], StructureTag.ENTANGLED_LINE),
    ])
    def test_scale_1_tag(self, vector, tag):
        assert classify_line(vector).tag is tag
        v = np.array(vector, dtype=complex)
        for w in (v * 2.0**1000, v * 2.0**-1000, at_top(v, 1e308), at_top(v, 1.5e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = classify_line(w)
            assert got.tag is tag
            if tag is StructureTag.PRODUCT_LINE:
                assert got.witnesses[0].tobytes() == w.tobytes()

    def test_same_scale_as_classify_span_decides(self):
        assert classify_line([1e308] * 4).tag is StructureTag.PRODUCT_LINE
        assert classify_line([1.5e308] * 4).tag is StructureTag.PRODUCT_LINE


class TestResidualPastTheFloatRange:
    def test_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = svd([[1e308, 1e308], [1e308, 1e308]])
            assert result.sigma[0] == math.inf  # numpy's bytes, kept
            with pytest.raises(NonFinite, match="leave the float range"):
                result.residual

    def test_finite_sigma_unchanged(self):
        m = np.array([[1e300, 2e300], [3e300, 4e300j]])
        assert svd(m).residual <= 1e-15
        assert svd(np.zeros((2, 2))).residual == 0.0


class TestSubsystemIndexTypes:
    GHZ = make_state((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1])

    @pytest.mark.parametrize("pivot", [1.5, True, False, np.True_, math.nan, math.inf, "2", None, 2 + 0j])
    def test_coefficient_matrix_refuses(self, pivot):
        with pytest.raises(BadPivot):
            coefficient_matrix(self.GHZ, pivot)

    @pytest.mark.parametrize("pivot", [2, 2.0, np.int64(2), np.int32(2), np.float64(2.0)])
    def test_coefficient_matrix_stores_an_int(self, pivot):
        m = coefficient_matrix(self.GHZ, pivot)
        assert type(m.pivot) is int and m.pivot == 2
        assert m.entries.tobytes() == coefficient_matrix(self.GHZ, 2).entries.tobytes()

    @pytest.mark.parametrize("order", [(1.5, 2, 3), (True, 2, 3), (1, 2, "3"), (1, 2, None)])
    def test_permute_subsystems_refuses(self, order):
        with pytest.raises(BadPivot):
            permute_subsystems(self.GHZ, order)

    def test_permute_subsystems_accepts_integers(self):
        want = permute_subsystems(self.GHZ, (2, 1, 3))
        assert permute_subsystems(self.GHZ, (np.int64(2), 1.0, 3)) == want
