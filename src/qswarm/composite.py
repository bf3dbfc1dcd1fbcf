"""Entangled states as composite particles.

Two particles glue into a single new particle whose samples all carry the
same internal (relative-coordinate) state; a composite decays back by
splitting every sample at once (swarm stability principle: a swarm is
never partially split).  Both directions move the existing samples by the
branch offsets and never draw new ones.  The state holds each composite's
record (:class:`Composite`).  Hierarchical states generalize this nesting;
identical-particle sectors use determinant/permanent coefficients with a
small-n brute-force evaluator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DisjointnessError, DomainError, InterferenceConditionError
from .lattice import Boundary, LatticeSpec, _add_inflow
from .measure import AmplitudeQuantum, DiscreteState, born_measure
from .swarm import PhotonCohort, SwarmState, reconstruct_wavefunction, sample_from_wavefunction


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


@dataclass(frozen=True)
class Composite:
    """A composite particle's record, stored in ``SwarmState.internal[cid]``.

    ``constituents`` are the ids the composite decays into, ``internal`` is
    the internal state every sample carries, and ``parts`` holds each
    constituent's own record (None for an elementary particle), so nested
    composites decay all the way down.
    """

    constituents: tuple[str, str]
    internal: InternalState
    parts: tuple[Composite | None, Composite | None]


def _composite(state: SwarmState, cid: str) -> Composite:
    rec = state.internal.get(cid)
    if not isinstance(rec, Composite):
        raise DomainError(f"{cid!r} is not a composite particle")
    return rec


def _shift(f: np.ndarray, offset, spec: LatticeSpec) -> np.ndarray:
    """A translated copy of a field by an integer offset along its trailing
    (lattice) axes; off a periodic lattice, support that would leave the
    lattice is an error."""
    off = tuple(int(o) for o in offset)
    periodic = spec.boundary is Boundary.PERIODIC
    lead = f.ndim - spec.ndim
    out = f
    for axis, o in enumerate(off, start=lead):
        if o == 0:
            continue
        if not periodic:
            # the planes a shift by o moves off the lattice (all, if |o| >= n)
            leave = [slice(None)] * out.ndim
            leave[axis] = slice(max(out.shape[axis] - o, 0), None) if o > 0 else slice(0, -o)
            if np.max(np.abs(out[tuple(leave)])) > 1e-12:
                raise DomainError(f"shift by {off} pushes support off the lattice")
        moved = np.zeros(out.shape, out.dtype)
        _add_inflow(moved, out, axis, o, spec.boundary if periodic else Boundary.ABSORBING)
        out = moved
    return out.copy() if out is f else out


def _moved(state: SwarmState, pid: str, offset) -> tuple:
    """A particle's count field and in-flight photon cohorts, translated."""
    spec = state.spec
    cohorts = [
        PhotonCohort(_shift(c.counts, offset, spec), _shift(c.pending, offset, spec), c.age)
        for c in state.photons.get(pid, [])
    ]
    return _shift(state.fields[pid], offset, spec), cohorts


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
    a: str,
    b: str,
    internal: InternalState,
    *,
    cid: str | None = None,
) -> str:
    """Fuse particles a and b into one composite swarm.

    The composite position amplitude is inferred from the constituents by
    undoing the branch offsets; every branch and both constituents must
    yield the same position amplitude, otherwise the requested internal
    state would depend on the composite position and gluing fails.  The
    composite's samples are a's own, translated by branch 0's -offset, at
    a's scale, and so are a's in-flight photon cohorts: nothing is drawn,
    and every sample carries the same internal state (swarm stability
    principle).  The state stores the composite's :class:`Composite`
    record under its id, keeping the records of a and b.  A ``cid`` that
    names a particle other than a or b is an error.  Off a periodic
    lattice the translated photons must stay on it as the field must: a
    photon can be up to ``n_age`` hops beyond the field, so a glue whose
    field fits can still raise :class:`DomainError`, leaving the state
    untouched.
    """
    spec = state.spec
    cid = cid or f"({a}+{b})"
    if a == b:
        raise DomainError(f"cannot glue {a!r} to itself")
    if cid not in (a, b) and cid in state.fields:
        raise DomainError(f"composite id {cid!r} names an existing particle")
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

    oa, _ = _branch_offsets(internal.branches[0], 2, spec.ndim)
    counts, cohorts = _moved(state, a, tuple(-o for o in oa))
    scale = state.scale[a]
    record = Composite((a, b), internal, (state.internal.get(a), state.internal.get(b)))
    state.remove_particle(a)
    state.remove_particle(b)
    state.add_particle(cid, counts, scale)
    state.photons[cid] = cohorts
    state.internal[cid] = record
    return cid


def decay(state: SwarmState, cid: str, rng) -> tuple[str, str]:
    """Split a composite back into its two constituents.

    Every sample divides at once (a swarm is never partially split).  A
    multi-branch internal state first collapses to one branch, drawn with
    probability |amplitude|^2.  Each constituent gets the composite's
    samples and photon cohorts translated by its offset in that branch, at
    the composite's scale, and its own record back, so a constituent that
    is itself a composite can decay in turn.  A constituent id already in
    use, or a translation that fails, leaves the state untouched.
    """
    rec = _composite(state, cid)
    taken = [pid for pid in rec.constituents if pid != cid and pid in state.fields]
    if taken:
        raise DomainError(f"constituent ids {taken} name existing particles")
    weights = np.abs(rec.internal.amplitudes()) ** 2
    branch = rec.internal.branches[rng.choice(weights.size, p=weights / weights.sum())]
    offsets = _branch_offsets(branch, 2, state.spec.ndim)
    moved = [_moved(state, cid, off) for off in offsets]
    scale = state.scale[cid]
    state.remove_particle(cid)
    for pid, (counts, cohorts), part in zip(rec.constituents, moved, rec.parts):
        state.add_particle(pid, counts, scale)
        state.photons[pid] = cohorts
        if part is not None:
            state.internal[pid] = part
    return rec.constituents


def measure_correlated(state: SwarmState, cid: str, q: AmplitudeQuantum, rng) -> tuple:
    """Measure the composite's internal branch by a Born draw at ``q``.

    Returns the pair of constituent outcome labels of the drawn branch;
    for a (|00> + |11>)/sqrt(2) internal state the two labels always
    agree while each marginal is uniform.  The state is not changed.
    """
    internal = _composite(state, cid).internal
    urn = DiscreteState(np.arange(len(internal.branches)), internal.amplitudes())
    return tuple(internal.branches[born_measure(urn, q, rng)].labels)


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
    """Canonical nesting of a full amplitude table into conditionals.

    Level j is the square root of the marginal over r_1..r_{j+1} (psi itself
    at the last level) normalized along its last axis: dividing by the outer
    marginal only rescales each row, which the normalization undoes.  A dead
    row (norm below 1e-15, a branch of zero weight) carries the uniform row.
    """
    psi = np.asarray(psi, dtype=complex)
    n = psi.ndim
    prob = np.abs(psi) ** 2
    levels = []
    for j in range(n):
        lvl = psi if j == n - 1 else np.sqrt(prob.sum(axis=tuple(range(j + 1, n))))
        norms = np.sqrt((np.abs(lvl) ** 2).sum(axis=-1, keepdims=True))
        uniform = 1 / math.sqrt(lvl.shape[-1])
        levels.append(np.where(norms < 1e-15, uniform, lvl / np.maximum(norms, 1e-15)))
    return HierarchicalState(levels)


def depth_class(h: HierarchicalState, p: int, tol: float = 1e-9) -> bool:
    """True iff psi is a product of conditional tables, each a function of
    its last p+1 coordinates only, wherever psi's path weight is non-zero.

    The row of level j at outer coordinates o = r_1..r_{j-p} and class
    c = r_{j-p+1}..r_j (its last axis at fixed r_1..r_j) must equal, within
    ``tol`` per entry, a unit phase phi(o, c) times the heaviest row of its
    class.  Rows of zero path weight (the product of the outer levels'
    |.|^2 along them) carry no amplitude and are skipped.  phi then moves
    onto the level j-1 entry at (o, c), which leaves psi unchanged, and
    level j-1 is tested with it.  So for every p "up to a phase" means a
    row phase that the outer levels can carry without a depth above p: on
    two axes any phase of r_1 keeps a product depth 0, but on three axes a
    generic e^{i theta(r_1, r_2)} does not.  The verdict does not depend on how the
    given levels split psi's phases among themselves.
    """
    if p < 0:
        raise DomainError("depth must be >= 0")
    levels = [lvl.copy() for lvl in h.levels]
    weights = [np.ones(())]  # path weight of every row of level j
    for lvl in levels[:-1]:
        weights.append(weights[-1][..., None] * np.abs(lvl) ** 2)
    for j in range(len(levels) - 1, p, -1):
        lvl = levels[j]
        nclass = math.prod(lvl.shape[j - p:j])
        rows = lvl.reshape(-1, nclass, lvl.shape[-1])
        w = weights[j].reshape(-1, nclass)
        ref = rows[w.argmax(axis=0), np.arange(nclass)]
        overlap = np.einsum("ocm,cm->oc", rows, ref.conj())
        phase = np.divide(overlap, np.abs(overlap), out=np.ones_like(overlap),
                          where=overlap != 0)
        live = w > 0
        if np.abs(rows - phase[..., None] * ref)[live].max(initial=0.0) > tol:
            return False
        levels[j - 1] *= np.where(live, phase, 1).reshape(levels[j - 1].shape)
    return True


# ---------------------------------------------------------------------------
# identical particles: determinant / permanent coefficients


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
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def fock_diagonal_density(states: list, statistics: str) -> np.ndarray:
    """Brute-force per-cell particle density of the (anti)symmetrized state
    of n one-particle wave functions, normalized to total mass n."""
    P = np.stack([np.asarray(p, dtype=complex).ravel() for p in states])
    n, ncells = P.shape
    dens = np.zeros(ncells)
    norm = 0.0
    for config in itertools.product(range(ncells), repeat=n):
        w = abs(symmetrized_amplitude(P[:, config], statistics)) ** 2
        norm += w
        np.add.at(dens, list(config), w)
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
    return sum(np.abs(reconstruct_wavefunction(s, s.particles()[0])[0]) ** 2 for s in swarms)
