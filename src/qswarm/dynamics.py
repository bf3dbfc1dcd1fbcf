"""Time evolution of swarm states.

Two integrators over the same four-type field representation:

* :func:`step_meanfield` - deterministic explicit (staggered) step of the
  coupled field equations

      ds1/dt = Lap s4 + V s2        ds2/dt = Lap s1 + V s3
      ds3/dt = Lap s2 + V s4        ds4/dt = Lap s3 + V s1

  whose type differences (s1-s3) + i(s2-s4) follow the Schrodinger
  equation  i dpsi/dt = -Lap psi + V psi.

* :func:`step_stochastic` - event-level simulation of the same dynamics
  with integer samples: each particle sample emits connected-photon
  samples at a steady rate, the photons random-walk and after their
  lifetime convert into particle samples of the cyclically shifted type;
  the potential creates/annihilates samples per cell.

The kinetic term arises from photon transport alone.  The raw
emit/convert cycle also contributes an identity term r*s_j (a pure global
phase on the encoded wave function); every emission therefore creates a
paired opposite-sign sample at the source cell, deposited at conversion
time, which cancels that term in expectation.  The expected stochastic
update is still not the mean-field update.  Photons emitted at step t
convert at step t + n_age, so it is the delayed recurrence
psi_{t+1} = psi_t + i r dt (T^n_age - 1) psi_{t+1-n_age}, T the one-hop
walk, whose largest root lies outside the unit circle for every n_age: a
moving packet lags the exact one.  With V != 0 the potential events also
spawn from the pre-step field, a forward-Euler update that grows by
sqrt(1 + (V dt)^2) a step, and a packet in a harmonic well drifts to the
lattice edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ConfigError, DomainError
from .lattice import Boundary, LatticeSpec, PotentialField, _add_inflow, _neighbor_sum
from .swarm import (PhotonCohort, SwarmState, _exact, _split, _stochastic_round, cancel_pairs,
                    resample)

# Cyclic type shifts of a (4, *dims) field: row j of f[_PREV] is f[j-1],
# row j of f[_NEXT] is f[j+1].
_PREV = np.array([3, 0, 1, 2])
_NEXT = np.array([1, 2, 3, 0])

# Most (type, cell) counts hopped by one transport draw; stacking saves the
# per-call cost of small cohorts.  Median stochastic step of a K = 10**6
# Gaussian (2-vCPU VM) at 2**14 / 2**15 / 2**16 / 2**17 counts: 1D 256
# cells, 20 cohorts 0.48 / 0.40 / 0.40 / 0.40 ms; 2D 64^2, 10 cohorts 5.3 /
# 4.9 / 4.8 / 5.9 ms; 3D 16^3, 5 cohorts 22.3 / 22.3 / 22.2 / 23.1 ms.
_STACK_CELLS = 2**15

# Largest count a lattice slice may hold and still split by random bits.
# Per count of m samples (2-vCPU VM, 4096 counts a call), bit split against
# rng.multinomial: 1D 55 / 76 ns at m = 256, 60 / 70 at 384, 67 / 65 at 512;
# 2D 205 / 334 ns, 297 / 310, 368 / 295.  They cross near m = 512 in 1D and
# m = 384 in 2D, and the rest of a slice's counts sit below its largest, so
# the cap is 512.  Moving it would change which slices draw which way.
_BIT_CAP = 2**9
_WORDS = 2**15  # random words, or int64 multinomial draws, at a time (256 KiB)
_LANE_LOW = np.uint64(0x5555555555555555)  # the low bit of each 2-bit lane

# Cells per slab of the blocked mean-field step.  On the 64^3 reflecting box
# (2-vCPU Xeon, 2 MiB L2 a core) an update took 8.4-10 ms at 2**13 cells,
# 4.3-4.5 ms at 2**16 (16 planes, 512 KiB) and 5.6-6.0 ms as one slab.
_SLAB_CELLS = 2**16


@dataclass
class StepParams:
    """All tunable rates of one evolution step.

    Every photon hops to a neighbor cell each step; particle samples do not
    move by themselves.  The connected-photon emission rate is not a
    parameter: it is calibrated so the expected conversion flux reproduces
    the unit kinetic coefficient (see :func:`calibrated_emission_rate`).
    ``dt_phot`` is the photon lifetime before conversion.  ``A`` is the
    resampling memory constant (None disables resampling).  Samples are
    per-cell counts, so a step's memory does not grow with their number.
    """

    dt: float
    dt_phot: float | None = None
    A: float | None = None

    def __post_init__(self):
        for name in ("dt", "dt_phot", "A"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.dt_phot is None:
            self.dt_phot = self.dt
        if self.dt_phot < self.dt - 1e-12:
            raise ConfigError("photon lifetime dt_phot must be >= dt")
        if float(self.dt_phot) / float(self.dt) == np.inf:  # n_age would round inf
            raise ConfigError(f"dt_phot={self.dt_phot} is past the float range in steps of dt")
        if self.A is not None and not self.A > 0:
            raise ConfigError("memory constant A must be positive")

    @property
    def n_age(self) -> int:
        """Photon lifetime in whole steps."""
        return max(1, int(round(self.dt_phot / self.dt)))


def calibrated_emission_rate(spec: LatticeSpec, p: StepParams) -> float:
    """Emission rate making the expected conversion flux equal Lap with unit
    coefficient.

    A photon cohort hopping for n_age steps acts as I + c*Lap with
    c = n_age * h^2 / (2d); with emission rate r the expected deposit per
    step is r*dt*c*Lap, so r = 1/c = 2d / (n_age * h^2).  It is computed as
    1/c: in 3D the other form can differ in the last bit.  ``LatticeSpec``
    keeps 2d/h^2 finite, and n_age >= 1, so 1/c is finite too.
    """
    return 1.0 / (p.n_age * spec.h**2 / (2 * spec.ndim))


def check_meanfield_stability(spec: LatticeSpec, V: PotentialField, p: StepParams) -> None:
    """Explicit staggered scheme is stable for dt*(4d/h^2 + max|V|) <= 2;
    the step also forms h^2*V, so h^2*max|V| must be a float."""
    vmax = V._vmax
    if spec.h**2 * vmax == np.inf:
        raise ConfigError(f"lattice.h={spec.h} squared times the potential's "
                          f"max|V|={vmax:.6g} is past the float range")
    bound = 2.0 / (4.0 * spec.ndim / spec.h**2 + vmax)
    if p.dt > bound * (1 + 1e-12):
        raise ConfigError(
            f"dt={p.dt} violates the stability bound dt <= {bound:.6g} "
            f"(h={spec.h}, d={spec.ndim}, max|V|={vmax:.6g})"
        )


def meanfield_update(
    fields: np.ndarray, V: PotentialField, spec: LatticeSpec, p: StepParams
) -> np.ndarray:
    """One explicit step of the four coupled field equations.

    The equations act on the four types only through re = s1-s3 and
    im = s2-s4, so the step advances those two fields: first
    re -= dt*(Lap im - V im), then im += dt*(Lap re - V re) with the updated
    re (staggered update).  The result is split back into four
    non-negative counts, at most one of each (+, -) pair non-zero per cell.

    Each half-step builds h^2*(Lap - V)*x in one buffer, the fused diagonal
    na*x with na = -(2d + h^2 V) plus the neighbor sum of :func:`_neighbor_sum`,
    then scales it by -+dt/h^2 and adds it.  Both half-steps run slab by
    slab along axis 0 (``_SLAB_CELLS``), so a slab's buffer stays in cache.  A
    slab reads one halo plane each side and keeps only its own rows, so the
    result is bit-identical for any slab size.
    """
    V.check_lattice(spec)
    check_meanfield_stability(spec, V, p)
    if fields.shape != (4, *spec.dims):
        raise DomainError(f"fields shape {fields.shape} does not match lattice {spec.dims}")
    n = spec.dims[0]
    rows = max(1, _SLAB_CELLS * n // spec.ncells)
    slabs = [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    na = V.grid.values * -spec.h**2
    na -= 2 * spec.ndim

    def halo(s):
        """Rows of slab ``s`` with a halo plane each side, and its own rows in them."""
        if spec.boundary is Boundary.PERIODIC and len(slabs) > 1:
            return np.arange(s.start - 1, s.stop + 1) % n, slice(1, -1)
        lo = max(s.start - 1, 0)
        return slice(lo, s.stop + 1), slice(s.start - lo, s.stop - lo)

    def half_step(y, x, scale):
        """y += scale * h^2*(Lap - V)*x, slab by slab."""
        for s in slabs:
            win, own = halo(s)
            xs = x[win]
            d = _neighbor_sum(xs, spec.boundary, na[win] * xs)
            d[own] *= scale
            y[s] += d[own]

    out = np.empty(fields.shape)
    np.subtract(fields[:2], fields[2:], out=out[:2])
    half_step(out[0], out[1], -p.dt / spec.h**2)
    half_step(out[1], out[0], p.dt / spec.h**2)
    return _split(out)


def step_meanfield(s: SwarmState, V: PotentialField, p: StepParams) -> SwarmState:
    """Advance every particle of a state by one mean-field step."""
    return s._with_fields(
        {pid: meanfield_update(f, V, s.spec, p) for pid, f in s.fields.items()}
    )


def _bit_hops(m: np.ndarray, rng, moved: np.ndarray) -> None:
    """Split counts ``m`` into ``moved``, (ndirs, m.size), ndirs 2 or 4.

    A sample takes b = log2(ndirs) fair bits from 64-bit words of ``rng``
    (for PCG64, its raw outputs; a 32-bit generator such as MT19937 gives
    two outputs a word).  A count of m samples takes the next ceil(b*m/64)
    words, masked to the b*m bits it uses, and its direction counts are
    popcounts of the b-bit lane patterns.  Empty counts take none, and only
    the occupied counts are cast to int64.  The words are drawn about
    ``_WORDS`` at a time, cut between counts; words that fit in one piece
    (the usual case) skip the search for the cuts.
    """
    b = len(moved).bit_length() - 1
    occ = np.flatnonzero(m != 0)
    if not occ.size:  # no word to draw, and no piece to cut
        return
    m = m[occ].astype(np.int64)
    words = (b * m + 63) >> 6
    ends = np.cumsum(words)
    if ends[-1] <= _WORDS:
        cuts = [0, len(m)]
    else:
        cuts = np.flatnonzero(np.diff(ends // _WORDS, prepend=-1, append=-1)).tolist()
    for i, j in zip(cuts, cuts[1:]):
        mp, ep = m[i:j], ends[i:j] - (ends[i] - words[i])
        raw = rng.integers(0, 2**64, int(ep[-1]), dtype=np.uint64)
        raw[ep - 1] &= np.uint64(2**64 - 1) >> ((-b * mp) & 63).astype(np.uint64)
        starts = ep - words[i:j]
        if b == 1:
            up = np.add.reduceat(np.bitwise_count(raw), starts, dtype=np.int64)
            draws = [up, mp - up]
        else:  # 2-bit lanes: the popcounts of the low bits, the high bits and both
            lo, hi = raw & _LANE_LOW, (raw >> np.uint64(1)) & _LANE_LOW
            lo, hi, both = (np.add.reduceat(np.bitwise_count(x), starts, dtype=np.int64)
                            for x in (lo, hi, lo & hi))
            draws = [mp - lo - hi + both, lo - both, hi - both, both]
        for k, d in enumerate(draws):
            moved[k, occ[i:j]] = d


def _diffuse_counts(counts: np.ndarray, spec: LatticeSpec, rng) -> np.ndarray:
    """Stochastic nearest-neighbor hop of integer per-cell counts.

    Every count moves to one of its 2d axis neighbors with probability
    1/(2d) each.  The trailing axes of ``counts`` are the lattice; leading
    axes (types, stacked cohorts) are moved independently.  In 1D and 2D a
    lattice slice whose counts are all at most ``_BIT_CAP`` splits them by
    random bits (:func:`_bit_hops`); other slices, and every 3D slice (six
    directions are not a power of two), draw ``rng.multinomial``, about
    ``_WORDS`` int64 draws a call.  The largest count, which the 2**53 check
    takes anyway, picks the rule: when it is at most ``_BIT_CAP`` every 1D
    or 2D slice splits by bits, with no per-slice maximum.  Slices draw in C
    order, each from where the one before left the stream, so one call on a
    stack draws what per-slice calls would.
    """
    nd, n = spec.ndim, spec.ncells
    lead = counts.ndim - nd
    top = _exact(counts.max())
    if nd < 3 and top > _BIT_CAP:  # runs of slices with one rule
        small = (counts.reshape(-1, n).max(axis=1) <= _BIT_CAP).tolist()
        runs = [(bits, len(list(run))) for bits, run in groupby(small)]
    else:
        runs = [(nd < 3, counts.size // n)]
    m = counts.ravel()
    moved = np.zeros((2 * nd, m.size))
    pvals, piece, hi = [1.0 / (2 * nd)] * (2 * nd), max(1, _WORDS // (2 * nd)), 0
    for bits, size in runs:
        lo, hi = hi, hi + size * n
        if bits:
            _bit_hops(m[lo:hi], rng, moved[:, lo:hi])
        else:
            for a in range(lo, hi, piece):
                b = min(a + piece, hi)
                moved[:, a:b] = rng.multinomial(m[a:b].astype(np.int64), pvals).T
    out = np.empty(counts.shape)
    k = 0
    for axis in range(nd):
        for step in (+1, -1):
            _add_inflow(out, moved[k].reshape(counts.shape), lead + axis, step, spec.boundary,
                        first=k == 0)
            k += 1
    return _exact(out)


def step_stochastic(
    s: SwarmState,
    V: PotentialField,
    p: StepParams,
    rng,
    normalize: bool = True,
) -> SwarmState:
    """One stochastic sample-event step.

    Per particle: existing photon cohorts random-walk and age; cohorts
    past the lifetime convert into particle samples of the shifted type;
    every particle sample emits a fresh photon cohort; the potential
    spawns samples per cell; finally pairs are cancelled and the
    population is resampled to the memory budget (``normalize``).

    A particle's cohorts hop in stacked transport draws, consecutive
    cohorts of at most ``_STACK_CELLS`` (type, cell) counts in each, at
    least one cohort per draw.  The draws take cells in cohort order, so
    the stream and every count are those of one draw per cohort.  A count
    that would pass 2**53, where float64 counts stop being exact, raises
    MemoryBudgetError before it reaches a draw or the returned state.
    """
    spec = s.spec
    V.check_lattice(spec)
    emit_rate = calibrated_emission_rate(spec, p)
    out = s.copy()
    vvals = V.grid.values
    n_age = p.n_age

    for pid in out.particles():
        f = out.fields[pid]

        # (b) photon transport + (c) conversion of expired cohorts; runs of
        # consecutive cohorts hop in one stacked draw each
        cohorts, kept = out.photons[pid], []
        run = max(1, _STACK_CELLS // f.size)
        for lo in range(0, len(cohorts), run):
            group = cohorts[lo:lo + run]
            # a lone cohort hops as a view: no stacked copy on large lattices
            stack = np.stack([c.counts for c in group]) if len(group) > 1 else group[0].counts[None]
            moved = _diffuse_counts(stack, spec, rng)
            for cohort, counts in zip(group, moved):
                if cohort.age + 1 >= n_age:
                    # photons of type j convert into particle samples of type j+1
                    f += counts[_PREV] + cohort.pending
                else:
                    kept.append(PhotonCohort(counts, cohort.pending, cohort.age + 1))

        # (a) emission of a fresh cohort
        with np.errstate(over="ignore", invalid="ignore"):  # _exact fails an inf or NaN count
            emitted = _stochastic_round(f * (emit_rate * p.dt), rng)
        if emitted.any():
            # each type-j photon is paired with a type j-1 anti-sample
            kept.append(PhotonCohort(emitted, emitted[_NEXT], 0))
        out.photons[pid] = kept

        # (d) potential events: type j spawns j-1 where V > 0, its negation
        # (shift by two) where V < 0
        if vvals.any():
            with np.errstate(over="ignore", invalid="ignore"):  # as in the emission
                spawn = _stochastic_round(f * (np.abs(vvals) * p.dt), rng)
            f += np.where(vvals > 0, spawn[_NEXT], spawn[_PREV])
        _exact(f)

    # (e) normalization: cancel mutually canceling parts, hold the budget
    # (resample cancels pairs itself)
    if normalize:
        out = cancel_pairs(out) if p.A is None else resample(out, p.A, rng)
    return out
