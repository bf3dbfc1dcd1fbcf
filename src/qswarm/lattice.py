"""Configuration-space lattice: cell indexing, field storage, diffusion and
diffusion-equilibrium (Green function) construction of potentials.

Fields live on a regular 1-3 axis lattice with spacing ``h``.  A scalar
field is stored as a dense numpy array shaped like the lattice; cell ids
are the row-major linear indices of that array.  Three boundary
conventions are supported:

* ``periodic``   - axes wrap around,
* ``reflecting`` - outflowing mass bounces back, zero-gradient stencils,
* ``absorbing``  - outflowing mass is lost, zero-value (Dirichlet) stencils.

:func:`_inflow` is the one place that implements these rules; diffusion,
the Laplacian, the stochastic photon hop and composite translation all
move values through it.
"""

from __future__ import annotations

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
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not 1 <= len(dims) <= 3:
            raise DomainError(f"lattice must have 1-3 axes, got {len(dims)}")
        if any(n < 2 for n in dims):
            raise DomainError(f"every axis needs >= 2 cells, got {dims}")
        if not self.h > 0:
            raise DomainError(f"cell spacing must be positive, got {self.h}")

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

    def copy(self) -> "FieldGrid":
        return FieldGrid(self.spec, self.values.copy())

    def total(self) -> float:
        return float(self.values.sum())


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


def _inflow(v: np.ndarray, axis: int, step: int, boundary: Boundary) -> np.ndarray:
    """Mass arriving in each cell from its neighbor at ``-step`` along ``axis``.

    Mass that would leave the lattice is wrapped (periodic), returned to the
    cell it left (reflecting) or dropped (absorbing).
    """
    out = np.roll(v, step, axis=axis)
    if boundary is Boundary.PERIODIC:
        return out
    # zero out the wrapped-around slice
    edge = [slice(None)] * v.ndim
    edge[axis] = slice(0, step) if step > 0 else slice(step, None)
    out[tuple(edge)] = 0.0
    if boundary is Boundary.REFLECTING:
        # the slice that tried to leave bounces back in place
        src = [slice(None)] * v.ndim
        src[axis] = slice(-step, None) if step > 0 else slice(0, -step)
        out[tuple(src)] += v[tuple(src)]
    return out


def _neighbor_sum(v: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Sum of the 2d axis neighbors of every cell under the :func:`_inflow` rule.

    A reflecting edge counts the cell itself as its missing neighbor (the
    mass bounced back), an absorbing edge counts zero (the mass dropped).
    """
    total = np.zeros_like(v)
    for axis in range(v.ndim):
        for step in (+1, -1):
            total += _inflow(v, axis, step, boundary)
    return total


def diffuse_field(f: FieldGrid, stay_prob: float) -> FieldGrid:
    """One step of nearest-neighbor diffusion.

    A fraction ``stay_prob`` of each cell's mass stays put and the rest is
    split equally over the 2d axis neighbors.  Total mass is conserved under
    periodic and reflecting boundaries.
    """
    if not 0.0 <= stay_prob <= 1.0:
        raise DomainError(f"stay probability must be in [0, 1], got {stay_prob}")
    spec = f.spec
    v = f.values
    share = (1.0 - stay_prob) / (2 * spec.ndim)
    return FieldGrid(spec, stay_prob * v + share * _neighbor_sum(v, spec.boundary))


def field_laplacian(f: FieldGrid) -> FieldGrid:
    """Standard (2d+1)-point discrete Laplacian, (sum of neighbors - 2d*center)/h^2.

    Missing neighbors are wrapped (periodic), mirrored to the center value
    (reflecting, zero-gradient) or taken as zero (absorbing).
    """
    spec = f.spec
    v = f.values
    nsum = _neighbor_sum(v, spec.boundary)
    return FieldGrid(spec, (nsum - 2.0 * spec.ndim * v) / spec.h**2)


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
    if np.any(source.values < 0):
        raise DomainError("source must be non-negative")
    spec = source.spec
    if absorption.spec.dims != spec.dims:
        raise DomainError("source and absorption lattices differ")
    if not source.values.any():
        return GreenResult(FieldGrid(spec), True, 0, 0.0)

    F = spec.zeros()
    change = np.inf
    it = 0
    for it in range(1, steps + 1):
        Fn = diffuse_field(FieldGrid(spec, F), stay_prob).values
        Fn = Fn + source.values - absorption.values * F
        scale = np.maximum(np.abs(Fn), 1e-300)
        change = float(np.max(np.abs(Fn - F) / scale))
        F = Fn
        if change < tol:
            return GreenResult(FieldGrid(spec, F), True, it, change)
    return GreenResult(FieldGrid(spec, F), False, it, change)
