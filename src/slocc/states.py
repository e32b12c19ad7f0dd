"""Pure states, coefficient-matrix reshapes, and local operators.

Index convention, fixed throughout the package: amplitudes are stored flat
in lexicographic order with the FIRST subsystem index most significant, so
for dims ``(d1, ..., dN)`` the multi-index ``(i1, ..., iN)`` (0-based) sits
at flat offset ``i1*d2*...*dN + ... + iN``. Subsystem indices at public
interfaces are 1-based.

States are never normalized implicitly; classification is invariant under
nonzero rescaling, so the amplitudes are kept verbatim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadPivot, DimensionMismatch, NonFinite, SingularOperator, ZeroState
from .numerics import _exponent, _times_pow2

_DET_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized pure state: subsystem dimensions plus flat amplitudes.

    Two states are equal when their dims and their amplitudes are equal
    entry by entry (so not up to scale), and equal states hash alike. ``exponent``, the binary
    exponent of the largest part (``numerics._exponent``, kept from :func:`make_state`'s check or
    read here), takes no part in either or in repr; it sets the working scale (:func:`_in_range`).
    """

    dims: tuple[int, ...]
    amps: np.ndarray
    exponent: int | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.exponent is None:
            object.__setattr__(self, "exponent", _exponent(self.amps.ravel().tolist()))

    def __eq__(self, other):
        if not isinstance(other, PureState):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.amps, other.amps))

    def __hash__(self):
        return hash((self.dims, (self.amps + 0.0).tobytes()))  # + 0.0 turns -0.0 into 0.0

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amps.reshape(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class CoeffMatrix:
    """Reshape of a state with one subsystem indexing rows, the rest columns.

    Row r holds every amplitude whose pivot-subsystem index equals r; the
    columns run lexicographically over the remaining subsystem indices in
    their original order (``col_subsystems``, 1-based).
    """

    pivot: int
    entries: np.ndarray
    col_subsystems: tuple[int, ...]

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _det_abs(op) -> float:
    """|det op|; a |det| beyond the float range reads inf, which the caller refuses."""
    if op.shape != (2, 2):
        with np.errstate(over="ignore", invalid="ignore"):  # the LU product may leave the range
            return abs(complex(np.linalg.det(op)))
    (a, b), (c, d) = op.tolist()
    try:
        return abs(a * d - b * c)
    except OverflowError:  # finite parts, modulus above the float range
        return math.inf


class LocalOperatorSet:
    """One square operator per subsystem, each invertible, held as a read-only copy."""

    def __init__(self, ops):
        mats = tuple([np.array(op, dtype=complex) for op in ops])
        for op in mats:
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise DimensionMismatch(f"local operator must be square, got shape {op.shape}")
        dets = tuple(map(_det_abs, mats))
        for d in dets:
            if not (math.isfinite(d) and d > _DET_FLOOR):
                raise SingularOperator(
                    f"|det| = {d:.3e} is at the machine floor or outside the float range"
                )
        for op in mats:
            op.setflags(write=False)
        self.ops = mats
        self.det_abs = dets

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)


def make_state(dims, amps) -> PureState:
    """Validate and build a :class:`PureState`; amplitudes stored verbatim."""
    raw = tuple(dims)
    dims = _integers(raw)
    if dims is None or any(d < 1 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be positive integers, got {raw}")
    total = math.prod(dims)
    if total < 2:
        raise DimensionMismatch("the total dimension must be at least 2")
    a = np.array(amps, dtype=complex).reshape(-1)  # a copy, made read-only below
    if a.size != total:
        raise DimensionMismatch(f"got {a.size} amplitudes, dims {dims} require {total}")
    return _checked_state(dims, a)


def _integers(raw: tuple) -> tuple[int, ...] | None:
    """``raw`` as ints where each entry is a whole number, not a bool (True == 1 would pass): 2.0
    and numpy integers pass, as ``int`` reads them; 1.5, nan, "2" or None give None."""
    try:
        ints = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == raw and {bool, np.bool_}.isdisjoint(map(type, raw)) else None


def _checked_state(dims: tuple[int, ...], a: np.ndarray) -> PureState:
    """:func:`make_state`'s amplitude checks on a new flat complex array of valid ``dims``."""
    top = float(np.abs(a.view(float)).max())  # largest |part|: NaN propagates, no modulus overflows
    if not math.isfinite(top):
        raise NonFinite("amplitudes contain NaN or infinite entries")
    if top == 0.0:
        raise ZeroState("the zero vector does not define a state")
    a.setflags(write=False)
    return PureState(dims, a, exponent=max(math.frexp(top)[1], -1023))  # numerics._exponent(a)


def _in_range(state: PureState) -> PureState:
    """The state, or its :func:`_unit_ray` where sigma_1 could pass 2^1024: no singular value
    exceeds |amps| < 2^e sqrt(2 size), e its ``exponent``. Read before any SVD, never retried."""
    big = state.exponent + math.log2(2 * state.amps.size) / 2 >= 1024
    return _unit_ray(state) if big else state


def _unit_ray(state: PureState) -> PureState:
    """The state times 2^-e, e its ``exponent``: exact wherever a part stays normal, and the
    package's one read of a state at another scale (its largest part in [0.5, 1))."""
    return _checked_state(state.dims, _times_pow2(state.amps, -state.exponent))


@functools.lru_cache(maxsize=128)
def pivot_index(dims: tuple[int, ...], pivot: int) -> np.ndarray:
    """Read-only flat offsets: ``amps[pivot_index(dims, pivot)]`` is the pivot's matrix."""
    index = np.moveaxis(np.arange(math.prod(dims)).reshape(dims), pivot - 1, 0)
    index = np.ascontiguousarray(index.reshape(dims[pivot - 1], -1))
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def minor_index(n: int) -> np.ndarray:
    """Read-only flat offsets (2, 2, n, M): [r, 0, k - 1, m] and [r, 1, k - 1, m] are row r of
    the pivot-k matrix A at the columns p < q of its m-th column pair, so that
    ``subspaces.minor_pencil`` reads A[0, p] A[1, q] - A[0, q] A[1, p], its 2x2 minors: the
    one minor table of a ``descriptor`` line (``multiqubit._minor_table``)."""
    mats = np.stack([pivot_index((2,) * n, k) for k in range(1, n + 1)])
    p, q = np.triu_indices(mats.shape[2], 1)
    index = np.stack((mats[:, :, p], mats[:, :, q])).transpose(2, 0, 1, 3)
    index.flags.writeable = False
    return index


def coefficient_matrix(state: PureState, pivot: int) -> CoeffMatrix:
    """Matrix of the state for the partition pivot | rest (pivot is 1-based)."""
    n, ks = state.n_subsystems, _integers((pivot,))
    if ks is None or not 1 <= ks[0] <= n:
        raise BadPivot(f"pivot must be an integer in 1..{n}, got {pivot!r}")
    pivot = ks[0]
    entries = state.amps[pivot_index(state.dims, pivot)]
    entries.flags.writeable = False
    cols = tuple(k for k in range(1, n + 1) if k != pivot)
    return CoeffMatrix(pivot=pivot, entries=entries, col_subsystems=cols)


def apply_local_operators(state: PureState, ops) -> PureState:
    """Apply one invertible operator per subsystem: ``C -> F1 @ C @ kron(F2, ..., FN).T``.

    F_k maps the pivot-k matrix C_k, gathered and scattered back through
    :func:`pivot_index`, to ``np.dot(F_k, C_k)``: the 2-D product that
    ``np.tensordot`` forms for a mode-k contraction, so the bytes match it.
    """
    if not isinstance(ops, LocalOperatorSet):
        ops = LocalOperatorSet(ops)
    if len(ops) != state.n_subsystems:
        raise DimensionMismatch(f"{len(ops)} operators for {state.n_subsystems} subsystems")
    amps = state.amps
    for k, op in enumerate(ops):
        if op.shape[0] != state.dims[k]:
            raise DimensionMismatch(
                f"operator {k + 1} is {op.shape[0]}x{op.shape[1]}, subsystem has dimension {state.dims[k]}"
            )
        index, old, amps = pivot_index(state.dims, k + 1), amps, np.empty_like(amps)
        amps[index] = np.dot(op, old[index])
    return _checked_state(state.dims, amps)  # the dims are the state's, the array is new


def permute_subsystems(state: PureState, order) -> PureState:
    """Reorder subsystems; ``order`` lists the old 1-based indices, new first.

    ``permute_subsystems(s, (2, 1, 3))`` swaps the first two subsystems.
    """
    order = tuple(order)
    ints = _integers(order)
    if ints is None or sorted(ints) != list(range(1, state.n_subsystems + 1)):
        raise BadPivot(f"{order} is not a permutation of 1..{state.n_subsystems}")
    axes = tuple(k - 1 for k in ints)
    dims = tuple(state.dims[a] for a in axes)
    return make_state(dims, state.tensor().transpose(axes).reshape(-1))
