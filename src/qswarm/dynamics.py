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
time, which cancels that term in expectation so the expected stochastic
update equals the mean-field update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, MemoryBudgetError
from .lattice import FieldGrid, LatticeSpec, _inflow, field_laplacian
from .swarm import PhotonCohort, SwarmState, _split, _stochastic_round, cancel_pairs, resample

# Cyclic type shifts of a (4, *dims) field: row j of f[_PREV] is f[j-1],
# row j of f[_NEXT] is f[j+1].
_PREV = np.array([3, 0, 1, 2])
_NEXT = np.array([1, 2, 3, 0])


@dataclass
class PotentialField:
    """Per-cell creation/annihilation rate (the potential V, signed)."""

    grid: FieldGrid

    def __post_init__(self):
        if not np.all(np.isfinite(self.grid.values)):
            raise DomainError("potential must be finite")

    @classmethod
    def zero(cls, spec: LatticeSpec) -> "PotentialField":
        return cls(FieldGrid(spec))


@dataclass
class StepParams:
    """All tunable rates of one evolution step.

    ``p_phot`` is the per-step photon hop rate (complement of the stay
    probability); particle samples do not move by themselves.  ``r_emit``
    is the connected-photon emission rate per particle sample per unit
    time; if None it is calibrated so the expected conversion flux
    reproduces the unit kinetic coefficient (see
    :func:`calibrated_emission_rate`).  ``dt_phot`` is the photon lifetime
    before conversion.  ``A`` is the resampling memory constant (None
    disables resampling).  ``max_population`` bounds the stored samples.
    """

    dt: float
    p_phot: float = 1.0
    r_emit: float | None = None
    dt_phot: float | None = None
    A: float | None = None
    max_population: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not 0.0 <= self.p_phot <= 1.0:
            raise ConfigError("photon hop rate must be in [0, 1]")
        if self.dt_phot is None:
            self.dt_phot = self.dt
        if self.dt_phot < self.dt - 1e-12:
            raise ConfigError("photon lifetime dt_phot must be >= dt")
        if self.r_emit is not None and self.r_emit < 0:
            raise ConfigError("emission rate must be >= 0")
        if self.A is not None and not self.A > 0:
            raise ConfigError("memory constant A must be positive")

    @property
    def n_age(self) -> int:
        """Photon lifetime in whole steps."""
        return max(1, int(round(self.dt_phot / self.dt)))


def calibrated_emission_rate(spec: LatticeSpec, p: StepParams) -> float:
    """Emission rate making the expected conversion flux equal Lap with unit
    coefficient.

    A photon cohort diffusing for n_age steps acts as I + c*Lap with
    c = n_age * p_phot * h^2 / (2d); with emission rate r the expected
    deposit per step is r*dt*c*Lap, so r = 1/c.
    """
    if p.r_emit is not None:
        return p.r_emit
    c = p.n_age * p.p_phot * spec.h**2 / (2 * spec.ndim)
    if c <= 0:
        raise ConfigError(
            "cannot calibrate emission rate with zero photon hop rate; set r_emit"
        )
    return 1.0 / c


def check_meanfield_stability(spec: LatticeSpec, V: PotentialField, p: StepParams) -> None:
    """Explicit staggered scheme is stable for dt*(4d/h^2 + max|V|) <= 2."""
    vmax = float(np.max(np.abs(V.grid.values))) if V is not None else 0.0
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

    def lap(x):
        return field_laplacian(FieldGrid(spec, x)).values

    re = fields[0] - fields[2]
    im = fields[1] - fields[3]
    re -= dt * (lap(im) - v * im)
    im += dt * (lap(re) - v * re)
    return _split(re, im)


def step_meanfield(s: SwarmState, V: PotentialField, p: StepParams) -> SwarmState:
    """Advance every particle of a state by one mean-field step."""
    out = s._with_fields(
        {pid: meanfield_update(f, V, s.spec, p) for pid, f in s.fields.items()}
    )
    out.time += p.dt
    return out


def _diffuse_counts(counts: np.ndarray, spec: LatticeSpec, hop: float, rng) -> np.ndarray:
    """Stochastic nearest-neighbor hop of integer per-cell counts.

    The trailing axes of ``counts`` are the lattice; leading axes (the four
    types of a cohort) are moved independently.  Cells are drawn in C order,
    so one call on a stack draws what per-slice calls would, in turn.
    """
    if hop <= 0.0:
        return counts.copy()
    nd = spec.ndim
    lead = counts.ndim - nd
    pvals = np.array([1.0 - hop] + [hop / (2 * nd)] * (2 * nd))
    draws = rng.multinomial(counts.astype(np.int64).ravel(), pvals)
    out = draws[:, 0].reshape(counts.shape).astype(float)
    k = 1
    for axis in range(nd):
        for step in (+1, -1):
            moved = draws[:, k].reshape(counts.shape).astype(float)
            out += _inflow(moved, lead + axis, step, spec.boundary)
            k += 1
    return out


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
    """
    spec = s.spec
    r_emit = calibrated_emission_rate(spec, p) if (p.r_emit is None) else p.r_emit
    out = s.copy()
    out.time += p.dt
    vvals = V.grid.values

    for pid in out.particles():
        f = out.fields[pid]

        # (b) photon transport + (c) conversion of expired cohorts
        kept = []
        for cohort in out.photons[pid]:
            counts = _diffuse_counts(cohort.counts, spec, p.p_phot, rng)
            cohort = PhotonCohort(counts, cohort.pending, cohort.age + 1)
            if cohort.age >= p.n_age:
                # photons of type j convert into particle samples of type j+1
                f += cohort.counts[_PREV] + cohort.pending
            else:
                kept.append(cohort)

        # (a) emission of a fresh cohort
        lam = f * (r_emit * p.dt)
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

    # (e) normalization: cancel mutually canceling parts, hold the budget
    # (resample cancels pairs itself)
    if normalize:
        out = cancel_pairs(out) if p.A is None else resample(out, p.A, rng)

    if p.max_population is not None and out.population() > p.max_population:
        raise MemoryBudgetError(
            f"population {out.population():.3g} exceeds budget {p.max_population:.3g}"
        )
    return out
