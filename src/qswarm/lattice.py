"""Configuration-space lattice: cell indexing, field storage, diffusion and
diffusion-equilibrium (Green function) construction of potentials.

Fields live on a regular 1-3 axis lattice with spacing ``h``.  A scalar
field is stored as a dense numpy array shaped like the lattice; cell ids
are the row-major linear indices of that array.  Three boundary
conventions are supported:

* ``periodic``   - axes wrap around,
* ``reflecting`` - outflowing mass bounces back, zero-gradient stencils,
* ``absorbing``  - outflowing mass is lost, zero-value (Dirichlet) stencils.

:func:`_add_inflow` is the one place that implements these rules; diffusion,
the Laplacian, the stochastic photon hop and composite translation all
accumulate shifted values through it, in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError


class Boundary(str, Enum):
    ABSORBING = "absorbing"
    REFLECTING = "reflecting"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the configuration-space lattice."""

    dims: tuple[int, ...]
    h: float = 1.0
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if not all(float(n).is_integer() for n in self.dims):  # False for nan, inf
            raise DomainError(f"lattice dims must be whole numbers, got {self.dims}")
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if self.boundary not in list(Boundary):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not 1 <= len(dims) <= 3:
            raise DomainError(f"lattice must have 1-3 axes, got {len(dims)}")
        if any(n < 2 for n in dims):
            raise DomainError(f"every axis needs >= 2 cells, got {dims}")
        if math.prod(dims) > np.iinfo(np.intp).max:
            raise DomainError(f"lattice {dims} has more cells than an array can index")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise DomainError(f"cell spacing must be positive and finite, got {self.h}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def ncells(self) -> int:
        return int(np.prod(self.dims))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dims)

    def coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinate along ``axis``, measured from the lattice center."""
        n = self.dims[axis]
        return (np.arange(n) - (n - 1) / 2.0) * self.h


@dataclass
class FieldGrid:
    """A per-cell real intensity over a lattice.

    Count-mode fields are non-negative; derived fields (potentials,
    differences) may be signed.
    """

    spec: LatticeSpec
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.values is None:
            self.values = self.spec.zeros()
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.dims:
            raise DomainError(
                f"field shape {self.values.shape} does not match lattice {self.spec.dims}"
            )


@dataclass
class PotentialField:
    """Per-cell creation/annihilation rate (the potential V, signed)."""

    grid: FieldGrid

    def __post_init__(self):
        # max|V| is read by every mean-field step's stability check; NaN
        # propagates through both reductions
        v = self.grid.values
        self._vmax = float(max(v.max(), -v.min()))
        if not np.isfinite(self._vmax):
            raise DomainError("potential must be finite")

    @classmethod
    def zero(cls, spec: LatticeSpec) -> "PotentialField":
        return cls(FieldGrid(spec))


def cell_index(position, spec: LatticeSpec) -> int:
    """Row-major linear index of an integer coordinate tuple.

    Under periodic boundaries coordinates wrap; otherwise out-of-range
    coordinates are a domain error.
    """
    try:
        pos = np.asarray(position, dtype=int)
    except OverflowError:
        raise DomainError(f"coordinates {position!r} out of integer range") from None
    if pos.shape != (spec.ndim,):
        raise DomainError(f"expected {spec.ndim} coordinates, got {position!r}")
    dims = np.asarray(spec.dims)
    if spec.boundary is Boundary.PERIODIC:
        pos = np.mod(pos, dims)
    elif np.any(pos < 0) or np.any(pos >= dims):
        raise DomainError(f"coordinates {tuple(position)} outside lattice {spec.dims}")
    return int(np.ravel_multi_index(tuple(pos), spec.dims))


def cell_coords(index: int, spec: LatticeSpec) -> tuple[int, ...]:
    """Inverse of :func:`cell_index`."""
    return tuple(int(c) for c in np.unravel_index(index, spec.dims))


def _add_inflow(total: np.ndarray, v: np.ndarray, axis: int, step: int, boundary: Boundary) -> None:
    """Add to ``total`` the mass arriving in each cell from its neighbor at
    ``-step`` along ``axis``.

    Mass that would leave the lattice is wrapped (periodic), returned to the
    cell it left (reflecting, at most half an axis per shift) or dropped
    (absorbing).  The shift is one in-place add over the flattened arrays;
    then the two edge planes, where that add crosses a row, are rewritten.
    """
    assert total.flags.c_contiguous, "an in-place shift needs a C-contiguous total"
    v = np.ascontiguousarray(v)
    n = v.shape[axis]
    if boundary is Boundary.PERIODIC:
        step = int(np.fmod(step, n))  # whole turns move nothing
    elif boundary is Boundary.REFLECTING:
        assert 2 * abs(step) <= n, "a reflecting shift moves at most half an axis"
    elif abs(step) >= n:
        return  # every cell's mass leaves the lattice
    if step == 0:
        total += v
        return
    s, fwd = abs(step), step > 0

    def slab(lo):
        idx = [slice(None)] * v.ndim
        idx[axis] = slice(lo, lo + s)
        return tuple(idx)

    recv, leave = (slab(0), slab(n - s)) if fwd else (slab(n - s), slab(0))
    saved = total[recv].copy()
    if boundary is Boundary.REFLECTING:
        # one addend: what arrives from behind plus what bounces back
        bounced = total[leave] + (v[slab(n - 2 * s if fwd else s)] + v[leave])
    k = s * (v.strides[axis] // v.itemsize)
    flat, vflat = total.reshape(-1), v.reshape(-1)
    dst, src = (flat[k:], vflat[:-k]) if fwd else (flat[:-k], vflat[k:])
    dst += src
    if boundary is Boundary.PERIODIC:
        saved += v[leave]
    total[recv] = saved
    if boundary is Boundary.REFLECTING:
        total[leave] = bounced


def _neighbor_sum(v: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Sum of the 2d axis neighbors of every cell under the :func:`_add_inflow` rule.

    A reflecting edge counts the cell itself as its missing neighbor (the
    mass bounced back), an absorbing edge counts zero (the mass dropped).
    """
    total = np.zeros(v.shape, v.dtype)
    for axis in range(v.ndim):
        for step in (+1, -1):
            _add_inflow(total, v, axis, step, boundary)
    return total


def diffuse_field(f: FieldGrid, stay_prob: float) -> FieldGrid:
    """One step of nearest-neighbor diffusion.

    A share ``stay_prob`` of each cell's mass stays put and the rest is
    split equally over the 2d axis neighbors.  Total mass is conserved under
    periodic and reflecting boundaries.
    """
    if not 0.0 <= stay_prob <= 1.0:
        raise DomainError(f"stay probability must be in [0, 1], got {stay_prob}")
    spec = f.spec
    v = f.values
    share = (1.0 - stay_prob) / (2 * spec.ndim)
    out = _neighbor_sum(v, spec.boundary)
    out *= share
    out += stay_prob * v
    return FieldGrid(spec, out)


def field_laplacian(f: FieldGrid) -> FieldGrid:
    """Standard (2d+1)-point discrete Laplacian, (sum of neighbors - 2d*center)/h^2.

    Missing neighbors are wrapped (periodic), mirrored to the center value
    (reflecting, zero-gradient) or taken as zero (absorbing).
    """
    spec = f.spec
    v = f.values
    nsum = _neighbor_sum(v, spec.boundary)
    nsum -= 2.0 * spec.ndim * v
    nsum /= spec.h**2
    return FieldGrid(spec, nsum)


def diffusion_coefficient(spec: LatticeSpec, stay_prob: float) -> float:
    """Coefficient c such that one diffusion step equals I + c * Laplacian."""
    return (1.0 - stay_prob) * spec.h**2 / (2 * spec.ndim)


@dataclass
class GreenResult:
    field: FieldGrid
    converged: bool
    iterations: int
    last_change: float


def relax_to_green(
    source: FieldGrid,
    absorption: FieldGrid,
    stay_prob: float,
    steps: int,
    tol: float = 1e-6,
) -> GreenResult:
    """Relax a diffusing field with injection and absorption to equilibrium.

    Iterates F <- diffuse(F) + source - absorption*F until the maximum
    relative per-cell change drops below ``tol`` or ``steps`` is exhausted.
    The fixed point satisfies  c*Lap(F) = absorption*F - source  with
    c = (1-stay_prob)*h^2/(2d); with a point source, no bulk absorption and
    absorbing boundaries this is the lattice Green function of the Laplacian.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    spec = source.spec
    if absorption.spec.dims != spec.dims:
        raise DomainError("source and absorption lattices differ")
    if not (np.all(np.isfinite(source.values)) and np.all(np.isfinite(absorption.values))):
        raise DomainError("source and absorption must be finite")
    if np.any(source.values < 0):
        raise DomainError("source must be non-negative")
    if not source.values.any():
        return GreenResult(FieldGrid(spec), True, 0, 0.0)

    absorbs = absorption.values.any()
    F = spec.zeros()
    scale = spec.zeros()
    change = np.inf
    it = 0
    for it in range(1, steps + 1):
        Fn = diffuse_field(FieldGrid(spec, F), stay_prob).values
        Fn += source.values
        if absorbs:
            Fn -= absorption.values * F
        # maximum relative change |Fn - F| / max(|Fn|, 1e-300), in F's buffer
        np.maximum(np.abs(Fn, out=scale), 1e-300, out=scale)
        diff = np.abs(np.subtract(Fn, F, out=F), out=F)
        diff /= scale
        change = float(diff.max())
        F = Fn
        if change < tol:
            return GreenResult(FieldGrid(spec, F), True, it, change)
    return GreenResult(FieldGrid(spec, F), False, it, change)
