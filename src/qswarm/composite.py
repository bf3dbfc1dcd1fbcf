"""Entangled states as composite particles.

Two particles glue into a single new particle whose samples all carry the
same internal (relative-coordinate) state; a composite decays back by
splitting every sample at once (swarm stability principle: a swarm is
never partially split).  Hierarchical states generalize this nesting;
identical-particle sectors use determinant/permanent coefficients with a
small-n brute-force evaluator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    DisjointnessError,
    DomainError,
    InterferenceConditionError,
    SwarmStabilityError,
)
from .lattice import Boundary, LatticeSpec, _inflow
from .measure import AmplitudeQuantum, DiscreteState, born_measure
from .swarm import SwarmState, reconstruct_wavefunction, sample_from_wavefunction


@dataclass(frozen=True)
class Branch:
    """One component of a composite's internal state.

    ``labels`` name the constituent outcomes of the branch (one label per
    constituent); ``offsets`` optionally place each constituent at a fixed
    integer offset from the composite position (None = on the composite
    cell).
    """

    amplitude: complex
    labels: tuple
    offsets: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class InternalState:
    """Normalized amplitude distribution over relative configurations.

    The distribution is position-independent by construction: branch
    offsets are fixed integers, identical for every sample of the swarm
    (the interference condition).
    """

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise DomainError("internal state needs at least one branch")
        n = math.sqrt(sum(abs(b.amplitude) ** 2 for b in self.branches))
        if abs(n - 1.0) > 1e-9:
            raise DomainError(f"internal state must be normalized, norm {n}")
        arity = {len(b.labels) for b in self.branches}
        if len(arity) != 1:
            raise DomainError("all branches must cover the same constituents")

    def amplitudes(self) -> np.ndarray:
        return np.array([b.amplitude for b in self.branches])


@dataclass
class ParticleTypeSpec:
    """Entry of the particle-type registry: a (possibly composite) type."""

    id: str
    constituents: tuple[str, ...] = ()
    internal_state: InternalState | None = None

    @property
    def is_composite(self) -> bool:
        return bool(self.constituents)


def _shift(psi: np.ndarray, offset, spec: LatticeSpec) -> np.ndarray:
    """Translate a field by an integer offset; support must stay on-lattice
    for non-periodic boundaries."""
    off = tuple(int(o) for o in offset)
    boundary = spec.boundary if spec.boundary is Boundary.PERIODIC else Boundary.ABSORBING
    out = psi
    for axis, o in enumerate(off):
        if o == 0:
            continue
        moved = _inflow(out, axis, o, boundary)
        # what an absorbing shift drops is what a periodic one wraps around
        dropped = _inflow(out, axis, o, Boundary.PERIODIC) - moved
        if np.max(np.abs(dropped)) > 1e-12:
            raise DomainError(f"shift by {off} pushes support off the lattice")
        out = moved
    return out


def _branch_offsets(branch: Branch, nconst: int, ndim: int):
    if branch.offsets is None:
        return tuple((0,) * ndim for _ in range(nconst))
    return branch.offsets


def com_internal(xa, xb, labels=(0, 1)) -> InternalState:
    """Single-branch internal state placing two constituents at fixed
    offsets around their (rounded) center of mass."""
    xa = np.asarray(xa, dtype=int)
    xb = np.asarray(xb, dtype=int)
    com = np.floor_divide(xa + xb, 2)
    return InternalState(
        (Branch(1.0 + 0j, tuple(labels), (tuple(xa - com), tuple(xb - com))),)
    )


def glue(
    state: SwarmState,
    registry: dict,
    a: str,
    b: str,
    internal: InternalState,
    rng,
    cid: str | None = None,
) -> str:
    """Fuse particles a and b into one composite swarm.

    The composite position amplitude is inferred from the constituents by
    undoing the branch offsets; every branch and both constituents must
    yield the same position amplitude, otherwise the requested internal
    state would depend on the composite position and gluing fails.  All
    samples of the new swarm carry the same internal state (swarm
    stability principle).
    """
    spec = state.spec
    psi_a, _ = reconstruct_wavefunction(state, a)
    psi_b, _ = reconstruct_wavefunction(state, b)

    candidates = []
    for br in internal.branches:
        oa, ob = _branch_offsets(br, 2, spec.ndim)
        candidates.append(_shift(psi_a, tuple(-o for o in oa), spec))
        candidates.append(_shift(psi_b, tuple(-o for o in ob), spec))
    ref = candidates[0]
    for cand in candidates[1:]:
        overlap = np.vdot(ref, cand)
        if abs(abs(overlap) - 1.0) > 1e-6:
            raise InterferenceConditionError(
                "constituent states are inconsistent with a position-independent "
                "internal state"
            )
    psi_c = ref / np.linalg.norm(ref)

    K = max(1, int(round((state.fields[a].sum() + state.fields[b].sum()) / 2)))
    cid = cid or f"({a}+{b})"
    new = sample_from_wavefunction(psi_c, spec, K, rng, pid=cid)
    state.remove_particle(a)
    state.remove_particle(b)
    state.add_particle(cid, new.fields[cid], new.scale[cid])
    state.internal[cid] = internal
    registry[cid] = ParticleTypeSpec(cid, (a, b), internal)
    return cid


def decay(
    state: SwarmState,
    registry: dict,
    cid: str,
    rng,
    fraction: float = 1.0,
) -> tuple[str, str]:
    """Split a composite back into its two constituents.

    Every sample divides at once; asking for a partial split violates the
    swarm stability principle.  A multi-branch internal state first
    collapses to one branch by a Born draw over the branch weights.
    """
    pspec = registry.get(cid)
    if pspec is None or not pspec.is_composite:
        raise DomainError(f"{cid!r} is not a composite particle")
    if fraction != 1.0:
        raise SwarmStabilityError("a swarm is never partially split")
    spec = state.spec
    a, b = pspec.constituents
    internal: InternalState = state.internal[cid]

    population = state.fields[cid].sum()
    if population == 0:
        state.remove_particle(cid)
        state.add_particle(a, np.zeros((4, *spec.dims)), 1.0)
        state.add_particle(b, np.zeros((4, *spec.dims)), 1.0)
        return a, b

    psi_c, _ = reconstruct_wavefunction(state, cid)
    branches = internal.branches
    if len(branches) > 1:
        q = AmplitudeQuantum(1.0 / math.sqrt(4 * len(branches)))
        idx = born_measure(
            DiscreteState(list(range(len(branches))), internal.amplitudes()), q, rng
        )
        branch = branches[idx]
    else:
        branch = branches[0]

    oa, ob = _branch_offsets(branch, 2, spec.ndim)
    K = max(1, int(round(population)))
    for pid, off in ((a, oa), (b, ob)):
        psi = _shift(psi_c, off, spec)
        part = sample_from_wavefunction(psi, spec, K, rng, pid=pid)
        state.add_particle(pid, part.fields[pid], part.scale[pid])
    state.remove_particle(cid)
    return a, b


def measure_correlated(
    state: SwarmState,
    registry: dict,
    cid: str,
    q: AmplitudeQuantum,
    rng,
) -> tuple:
    """Measure the composite position, then the internal branch.

    Returns the pair of constituent outcome labels of the drawn branch;
    for a (|00> + |11>)/sqrt(2) internal state the two labels always
    agree while each marginal is uniform.
    """
    pspec = registry.get(cid)
    if pspec is None or not pspec.is_composite:
        raise DomainError(f"{cid!r} is not a composite particle")
    from .measure import measure_swarm

    measure_swarm(state, q, rng, pid=cid)  # position draw (outcome unused here)
    internal: InternalState = state.internal[cid]
    idx = born_measure(
        DiscreteState(list(range(len(internal.branches))), internal.amplitudes()),
        q,
        rng,
    )
    labels = internal.branches[idx].labels
    return tuple(labels)


def assert_swarm_stability(state: SwarmState) -> None:
    """All samples of one particle share the same type-level parameters.

    The aggregated representation stores internal parameters once per
    particle id, so a violation can only appear as a stale parameter entry
    for a particle that no longer exists.
    """
    for pid in state.internal:
        if pid not in state.fields:
            raise SwarmStabilityError(f"internal parameters for unknown swarm {pid!r}")


# ---------------------------------------------------------------------------
# hierarchical (nested) states and depth classes


@dataclass
class HierarchicalState:
    """Tree of conditional amplitude tables.

    ``levels[j]`` has one axis per coordinate r_1..r_{j+1} and is
    normalized along its last axis (the conditional amplitude of r_{j+1}
    given the outer coordinates).
    """

    levels: list

    def __post_init__(self):
        self.levels = [np.asarray(l, dtype=complex) for l in self.levels]
        for j, lvl in enumerate(self.levels):
            if lvl.ndim != j + 1:
                raise DomainError(f"level {j} must have {j + 1} axes, got {lvl.ndim}")
            norms = np.sqrt((np.abs(lvl) ** 2).sum(axis=-1))
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise DomainError(f"level {j} is not normalized along its last axis")


def hierarchical_from_amplitudes(psi: np.ndarray) -> HierarchicalState:
    """Canonical nesting of a full amplitude table into conditionals."""
    psi = np.asarray(psi, dtype=complex)
    n = psi.ndim
    prob = np.abs(psi) ** 2
    margins = []  # margins[j] = sqrt of the marginal over r_1..r_{j+1}
    for j in range(n):
        margins.append(np.sqrt(prob.sum(axis=tuple(range(j + 1, n)))))
    levels = []
    for j in range(n):
        if j == 0:
            lvl = margins[0].astype(complex)
        elif j < n - 1:
            lvl = margins[j] / np.where(margins[j - 1] == 0, 1.0, margins[j - 1])[..., None]
        else:
            lvl = psi / np.where(margins[n - 2] == 0, 1.0, margins[n - 2])[..., None]
        # dead conditioning branches carry an arbitrary normalized row
        norms = np.sqrt((np.abs(lvl) ** 2).sum(axis=-1, keepdims=True))
        dead = norms[..., 0] < 1e-15
        if dead.any():
            uniform = np.ones(lvl.shape[-1]) / math.sqrt(lvl.shape[-1])
            lvl = np.where(dead[..., None], uniform, lvl / np.where(norms == 0, 1.0, norms))
        else:
            lvl = lvl / norms
        levels.append(lvl)
    return HierarchicalState(levels)


def depth_class(h: HierarchicalState, p: int, tol: float = 1e-9) -> bool:
    """True iff every conditional table depends only on its last p+1
    coordinates (variation over the outer coordinates below ``tol``)."""
    if p < 0:
        raise DomainError("depth must be >= 0")
    for lvl in h.levels:
        outer = lvl.ndim - (p + 1)
        if outer <= 0:
            continue
        mean = lvl.mean(axis=tuple(range(outer)), keepdims=True)
        if np.max(np.abs(lvl - mean)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# identical particles: determinant / permanent coefficients


@dataclass
class FockState:
    """Occupation-number state over N one-particle basis labels."""

    occupations: tuple[int, ...]
    statistics: str  # "fermion" | "boson"
    coefficients: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.statistics not in ("fermion", "boson"):
            raise DomainError("statistics must be 'fermion' or 'boson'")
        if any(o < 0 for o in self.occupations):
            raise DomainError("occupations must be non-negative")
        if self.statistics == "fermion" and any(o > 1 for o in self.occupations):
            raise DomainError("fermion occupations exceed 1")

    @property
    def n_particles(self) -> int:
        return sum(self.occupations)


_MAX_BRUTE_N = 8


def symmetrized_amplitude(matrix: np.ndarray, statistics: str) -> complex:
    """Determinant (fermion) or permanent (boson) of an n x n amplitude
    matrix, times the 1/sqrt(n!) normalization.

    Brute-force over permutations with value-sorted factor products and
    exactly rounded summation, so row swaps negate the fermion value (and
    leave the permanent unchanged) bit-exactly, and repeated columns give
    an exact Pauli zero.
    """
    if statistics not in ("fermion", "boson"):
        raise DomainError("statistics must be 'fermion' or 'boson'")
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("matrix must be square")
    n = M.shape[0]
    if n > _MAX_BRUTE_N:
        raise DomainError(f"n={n} too large for brute-force evaluation (max {_MAX_BRUTE_N})")
    fermion = statistics == "fermion"

    reals, imags = [], []
    for perm in itertools.permutations(range(n)):
        factors = sorted(
            (M[r, perm[r]] for r in range(n)), key=lambda z: (z.real, z.imag)
        )
        prod = complex(1.0)
        for f in factors:
            prod *= f
        if fermion and _parity(perm) < 0:
            prod = -prod
        reals.append(prod.real)
        imags.append(prod.imag)
    total = complex(math.fsum(reals), math.fsum(imags))
    return total / math.sqrt(math.factorial(n))


def _parity(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def fock_diagonal_density(states: list, statistics: str) -> np.ndarray:
    """Brute-force per-cell particle density of the (anti)symmetrized state
    of n one-particle wave functions, normalized to total mass n."""
    psis = [np.asarray(p, dtype=complex).ravel() for p in states]
    n = len(psis)
    ncells = psis[0].size
    dens = np.zeros(ncells)
    norm = 0.0
    for config in itertools.product(range(ncells), repeat=n):
        M = np.array([[psis[j][c] for c in config] for j in range(n)])
        w = abs(symmetrized_amplitude(M, statistics)) ** 2
        norm += w
        for c in config:
            dens[c] += w
    if norm == 0:
        raise DomainError("state vanishes identically")
    return dens / norm


def place_fermion_swarms(
    states: list,
    spec: LatticeSpec,
    K: int,
    rng,
    deterministic: bool = False,
    tol: float = 1e-9,
) -> list[SwarmState]:
    """One independent swarm per one-particle state on pairwise disjoint
    supports; the union density then equals the antisymmetrized diagonal
    density."""
    psis = [np.asarray(p, dtype=complex) for p in states]
    for i in range(len(psis)):
        for j in range(i + 1, len(psis)):
            if float(np.sum(np.abs(psis[i]) * np.abs(psis[j]))) > tol:
                raise DisjointnessError(
                    f"states {i} and {j} overlap: disjointness violated"
                )
    return [
        sample_from_wavefunction(
            p / np.linalg.norm(p), spec, K, rng, pid=f"f{i}", deterministic=deterministic
        )
        for i, p in enumerate(psis)
    ]


def union_density(swarms: list[SwarmState]) -> np.ndarray:
    """Summed per-cell sample density of several swarms, unit mass per swarm."""
    total = None
    for s in swarms:
        pid = s.particles()[0]
        psi, _ = reconstruct_wavefunction(s, pid)
        d = np.abs(psi) ** 2
        total = d if total is None else total + d
    return total
