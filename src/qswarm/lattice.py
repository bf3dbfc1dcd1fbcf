"""Configuration-space lattice: cell indexing, field storage, diffusion and
diffusion-equilibrium (Green function) construction of potentials.

Fields live on a regular 1-3 axis lattice with spacing ``h``.  A scalar
field is stored as a dense numpy array shaped like the lattice; cell ids
are the row-major linear indices of that array.  Three boundary
conventions are supported:

* ``periodic``   - axes wrap around,
* ``reflecting`` - outflowing mass bounces back, zero-gradient stencils,
* ``absorbing``  - outflowing mass is lost, zero-value (Dirichlet) stencils.

:func:`_add_inflow`, the inflow from one neighbor, is the one place that
implements these rules; diffusion, the Laplacian, the mean-field step and
the stochastic photon hop all accumulate their one-cell moves through it, in place.
"""

from __future__ import annotations

import math
import operator
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
        # every stencil divides by h*h, the stability bound by 4d/(h*h): about 1e-154 < h < 1e154
        h = float(self.h) if self.h > 0 else 0.0  # NaN too
        if not (0 < h * h < math.inf and 4 * len(dims) / (h * h) < math.inf):
            raise DomainError(f"cell spacing h={self.h} must keep h*h and 4d/(h*h) finite and > 0")

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

    def check_lattice(self, spec: LatticeSpec) -> None:
        """Raise DomainError unless the potential lives on ``spec``'s cells."""
        if self.grid.values.shape != spec.dims:
            raise DomainError(
                f"potential shape {self.grid.values.shape} does not match lattice {spec.dims}"
            )


def cell_index(position, spec: LatticeSpec) -> int:
    """Row-major linear index of a tuple of whole-number coordinates.

    Under periodic boundaries coordinates wrap; otherwise out-of-range
    coordinates are a domain error, and so are fractional, non-finite and
    int64-overflowing ones, text (even "2") and ones ``float()`` cannot read.
    """
    try:
        # an integer array is whole; float(c).is_integer() is False for nan, inf
        raw = np.asarray(position)
        whole = raw.dtype.kind in "iu" or all(
            not isinstance(c, (str, bytes)) and float(c).is_integer() for c in raw.flat)
        pos = np.asarray(position, dtype=int) if whole else None
    except OverflowError:
        raise DomainError(f"coordinates {position!r} out of integer range") from None
    except (TypeError, ValueError):  # float() of a string or None, a ragged tuple
        whole = False
    if not whole:
        raise DomainError(f"coordinates {position!r} must be whole numbers")
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
    ``-step`` along ``axis``, one cell away (``step`` is +1 or -1).

    Mass that would leave the lattice is wrapped (periodic), returned to the
    cell it left (reflecting) or dropped (absorbing).  The shift is one
    in-place add over the flattened arrays; then the two edge planes, where
    that add crosses a row, are rewritten.
    """
    assert total.flags.c_contiguous, "an in-place shift needs a C-contiguous total"
    assert step in (1, -1), "an inflow comes from one neighbor"
    v = np.ascontiguousarray(v)
    n = v.shape[axis]

    def plane(i):
        idx = [slice(None)] * v.ndim
        idx[axis] = i
        return tuple(idx)

    fwd = step > 0
    recv, leave = (plane(0), plane(n - 1)) if fwd else (plane(n - 1), plane(0))
    saved = total[recv].copy()
    if boundary is Boundary.REFLECTING:
        # one addend: what arrives from behind plus what bounces back
        bounced = total[leave] + (v[plane(n - 2 if fwd else 1)] + v[leave])
    k = v.strides[axis] // v.itemsize
    flat, vflat = total.reshape(-1), v.reshape(-1)
    dst, src = (flat[k:], vflat[:-k]) if fwd else (flat[:-k], vflat[k:])
    dst += src
    if boundary is Boundary.PERIODIC:
        saved += v[leave]
    total[recv] = saved
    if boundary is Boundary.REFLECTING:
        total[leave] = bounced


def _neighbor_sum(v: np.ndarray, boundary: Boundary, total=None) -> np.ndarray:
    """Sum of the 2d axis neighbors of every cell under the :func:`_add_inflow` rule,
    added in place to ``total`` (zeros when None) and returned.

    A reflecting edge counts the cell itself as its missing neighbor (the
    mass bounced back), an absorbing edge counts zero (the mass dropped).
    """
    total = np.zeros(v.shape, v.dtype) if total is None else total
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


# every 4th cell along each axis, from 0, screens a relaxation sweep's convergence
_SCREEN_STRIDE = 4


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
    ``absorption`` must lie in [0, 2*stay_prob], where the sweep cannot grow
    (Gershgorin's theorem).

    Each sweep first takes the relative change on every ``_SCREEN_STRIDE``-th
    cell along each axis.  That is the same per-cell expression on a subset
    of the cells, so its maximum is a lower bound on the full one: when it
    reaches ``tol`` the sweep has not converged and the full test is skipped.
    Sweep counts, fields and ``last_change`` are those of the full test alone.
    """
    try:
        steps = operator.index(steps)
    except TypeError:
        raise DomainError(f"steps must be a whole number, got {steps!r}") from None
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not tol > 0:  # NaN fails too
        raise DomainError(f"tol must be > 0, got {tol}")
    if not 0.0 <= stay_prob <= 1.0:
        raise DomainError(f"stay probability must be in [0, 1], got {stay_prob}")
    spec = source.spec
    if absorption.spec.dims != spec.dims:
        raise DomainError("source and absorption lattices differ")
    if not (source.values.min() >= 0 and source.values.max() < np.inf):  # NaN fails too
        raise DomainError("source must be finite and non-negative")
    if not (absorption.values.min() >= 0 and absorption.values.max() <= 2 * stay_prob):
        raise DomainError(f"absorption must lie in [0, 2*stay_prob] = [0, {2 * stay_prob:g}]")
    if not source.values.any():
        return GreenResult(FieldGrid(spec), True, 0, 0.0)

    def change_of(old, new):  # the maximum relative change |new - old| / max(|new|, 1e-300)
        return float(np.max(np.abs(new - old) / np.maximum(np.abs(new), 1e-300)))

    absorbs = absorption.values.any()
    sample = (slice(None, None, _SCREEN_STRIDE),) * spec.ndim
    F = spec.zeros()
    for it in range(1, steps + 1):
        Fn = diffuse_field(FieldGrid(spec, F), stay_prob).values
        Fn += source.values
        if absorbs:
            Fn -= absorption.values * F
        # the screen; a NaN sample compares False and takes the full test
        if it < steps and change_of(F[sample], Fn[sample]) >= tol:
            F = Fn
            continue
        change = change_of(F, Fn)
        F = Fn
        if change < tol:
            return GreenResult(FieldGrid(spec, F), True, it, change)
    return GreenResult(FieldGrid(spec, F), False, it, change)
