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

import numpy as np

from .errors import ConfigError, MemoryBudgetError
from .lattice import FieldGrid, LatticeSpec, PotentialField, _add_inflow, field_laplacian
from .swarm import (PhotonCohort, SwarmState, _exact, _split, _stochastic_round, cancel_pairs,
                    resample)

# Cyclic type shifts of a (4, *dims) field: row j of f[_PREV] is f[j-1],
# row j of f[_NEXT] is f[j+1].
_PREV = np.array([3, 0, 1, 2])
_NEXT = np.array([1, 2, 3, 0])

# Most (type, cell) counts hopped by one multinomial call.  Stacking saves
# the per-call cost of small cohorts; past about 2**14 counts the larger
# draw array (2d int64 per count) costs more than that saves (measured
# on 1D to 3D Gaussians).
_STACK_CELLS = 2**14


@dataclass
class StepParams:
    """All tunable rates of one evolution step.

    Every photon hops to a neighbor cell each step; particle samples do not
    move by themselves.  The connected-photon emission rate is not a
    parameter: it is calibrated so the expected conversion flux reproduces
    the unit kinetic coefficient (see :func:`calibrated_emission_rate`).
    ``dt_phot`` is the photon lifetime before conversion.  ``A`` is the
    resampling memory constant (None disables resampling).
    ``max_population`` bounds the stored samples.
    """

    dt: float
    dt_phot: float | None = None
    A: float | None = None
    max_population: float | None = None

    def __post_init__(self):
        for name in ("dt", "dt_phot", "A", "max_population"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.dt_phot is None:
            self.dt_phot = self.dt
        if self.dt_phot < self.dt - 1e-12:
            raise ConfigError("photon lifetime dt_phot must be >= dt")
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
    1/c: in 3D the other form can differ in the last bit.
    """
    c = p.n_age * spec.h**2 / (2 * spec.ndim)
    if not c > 0 or not np.isfinite(1.0 / c):
        raise ConfigError(f"cell spacing h={spec.h} makes the emission rate infinite")
    return 1.0 / c


def check_meanfield_stability(spec: LatticeSpec, V: PotentialField, p: StepParams) -> None:
    """Explicit staggered scheme is stable for dt*(4d/h^2 + max|V|) <= 2."""
    vmax = V._vmax
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
    """
    check_meanfield_stability(spec, V, p)
    dt, v = p.dt, V.grid.values

    def rate(x):
        """dt*(Lap x - V x), computed in the Laplacian's own buffer."""
        d = field_laplacian(FieldGrid(spec, x)).values
        d -= v * x
        d *= dt
        return d

    out = np.empty(fields.shape)
    re, im = np.subtract(fields[:2], fields[2:], out=out[:2])
    re -= rate(im)
    im += rate(re)
    return _split(out)


def step_meanfield(s: SwarmState, V: PotentialField, p: StepParams) -> SwarmState:
    """Advance every particle of a state by one mean-field step."""
    return s._with_fields(
        {pid: meanfield_update(f, V, s.spec, p) for pid, f in s.fields.items()}
    )


def _diffuse_counts(counts: np.ndarray, spec: LatticeSpec, rng) -> np.ndarray:
    """Stochastic nearest-neighbor hop of integer per-cell counts.

    Every count moves to one of its 2d axis neighbors with probability
    1/(2d) each.  The trailing axes of ``counts`` are the lattice; leading
    axes (types, stacked cohorts) are moved independently.  Cells are drawn
    in C order, so one call on a stack draws what per-slice calls would.
    """
    nd = spec.ndim
    lead = counts.ndim - nd
    draws = rng.multinomial(_exact(counts).astype(np.int64).ravel(), [1.0 / (2 * nd)] * (2 * nd))
    out = np.zeros(counts.shape)
    k = 0
    for axis in range(nd):
        for step in (+1, -1):
            moved = draws[:, k].reshape(counts.shape).astype(float)
            _add_inflow(out, moved, lead + axis, step, spec.boundary)
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
    emit_rate = calibrated_emission_rate(spec, p)
    out = s.copy()
    vvals = V.grid.values

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
                if cohort.age + 1 >= p.n_age:
                    # photons of type j convert into particle samples of type j+1
                    f += counts[_PREV] + cohort.pending
                else:
                    kept.append(PhotonCohort(counts, cohort.pending, cohort.age + 1))

        # (a) emission of a fresh cohort
        lam = f * (emit_rate * p.dt)
        emitted = _stochastic_round(lam, rng)
        if emitted.any():
            # each type-j photon is paired with a type j-1 anti-sample
            kept.append(PhotonCohort(emitted, emitted[_NEXT], 0))
        out.photons[pid] = kept

        # (d) potential events: type j spawns j-1 where V > 0, its negation
        # (shift by two) where V < 0
        if vvals.any():
            spawn = _stochastic_round(f * (np.abs(vvals) * p.dt), rng)
            f += np.where(vvals > 0, spawn[_NEXT], spawn[_PREV])
        _exact(f)

    # (e) normalization: cancel mutually canceling parts, hold the budget
    # (resample cancels pairs itself)
    if normalize:
        out = cancel_pairs(out) if p.A is None else resample(out, p.A, rng)

    if p.max_population is not None and out.population() > p.max_population:
        raise MemoryBudgetError(
            f"population {out.population():.3g} exceeds budget {p.max_population:.3g}"
        )
    return out
