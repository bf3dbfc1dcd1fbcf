"""Discrete-sample (swarm) representation of a quantum particle.

A particle is represented by four per-cell count fields, one per sample
type.  Types are numbered 1..4 = (+,r), (+,i), (-,r), (-,i); type arithmetic
is cyclic mod 4.  The complex wave function encoded by a swarm is

    psi = (s1 - s3) + i*(s2 - s4),

up to the stored samples-per-unit-amplitude scale and a global L2
normalization.  Samples are stored in aggregated (per-cell count) form.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, EmptySwarmError, MemoryBudgetError
from .lattice import LatticeSpec


@dataclass(frozen=True)
class PhotonCohort:
    """Connected-photon samples emitted in one step, tracked until conversion.

    ``counts`` holds per-type per-cell photon counts.  ``pending`` holds the
    paired anti-samples created together with the photons (rule-1 pair
    creation); they are deposited into the particle fields at conversion
    time so that the expected net deposit is purely the diffusive part of
    the photon transport.

    A cohort is never written after it is built, so states share cohorts.
    """

    counts: np.ndarray  # (4, *dims)
    pending: np.ndarray  # (4, *dims)
    age: int = 0

    def population(self) -> float:
        return float(self.counts.sum())


@dataclass
class SwarmState:
    """Full simulation state: per-particle four-type fields plus photons.

    ``internal`` maps each composite particle's id to its record
    (:class:`qswarm.composite.Composite`); elementary particles have none.
    """

    spec: LatticeSpec
    fields: dict[str, np.ndarray] = dc_field(default_factory=dict)
    photons: dict[str, list[PhotonCohort]] = dc_field(default_factory=dict)
    scale: dict[str, float] = dc_field(default_factory=dict)
    internal: dict[str, object] = dc_field(default_factory=dict)

    def particles(self) -> list[str]:
        return list(self.fields)

    def add_particle(self, pid: str, counts: np.ndarray, scale: float) -> None:
        """Add a particle under a new id: its (4, *dims) counts and its
        samples-per-unit-amplitude scale.  An id in use, bad counts or a
        non-positive scale raise DomainError and leave the state untouched."""
        if pid in self.fields:
            raise DomainError(f"particle id {pid!r} is in use")
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (4, *self.spec.dims):
            raise DomainError(
                f"counts shape {counts.shape} does not match (4, {self.spec.dims})"
            )
        if not (counts.min() >= 0 and counts.max() < np.inf):  # NaN fails too
            raise DomainError("count fields must be finite and non-negative")
        if not scale > 0:
            raise DomainError("scale must be positive")
        self.fields[pid] = counts
        self.scale[pid] = float(scale)
        self.photons.setdefault(pid, [])

    def remove_particle(self, pid: str) -> None:
        for d in (self.fields, self.photons, self.scale, self.internal):
            d.pop(pid, None)

    def population(self, pid: str | None = None) -> float:
        """Total sample count (particles plus photons)."""
        pids = [pid] if pid is not None else self.particles()
        tot = 0.0
        for p in pids:
            tot += float(self.fields[p].sum())
            tot += sum(c.population() for c in self.photons.get(p, []))
        return tot

    def copy(self) -> "SwarmState":
        """A state with copied fields; the (frozen) photon cohorts are shared."""
        return self._with_fields({k: v.copy() for k, v in self.fields.items()})

    def _with_fields(self, fields: dict[str, np.ndarray]) -> "SwarmState":
        """This state around ``fields``, with fresh containers for the rest."""
        return SwarmState(
            self.spec,
            fields,
            {k: list(v) for k, v in self.photons.items()},
            dict(self.scale),
            dict(self.internal),
        )


def reconstruct_wavefunction(s: SwarmState, pid: str = "p0"):
    """Complex wave function encoded by a swarm, globally L2-normalized.

    Returns (psi, norm) where ``norm`` is the L2 norm of the raw
    (scale-divided) field before normalization.
    """
    f = s.fields[pid]
    raw = ((f[0] - f[2]) + 1j * (f[1] - f[3])) / s.scale[pid]
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise EmptySwarmError(f"particle {pid!r}: empty swarm")
    return raw / norm, norm


def _split(f: np.ndarray) -> np.ndarray:
    """Fill a (4, *dims) array whose rows 0, 1 hold re, im with the four
    non-negative type fields encoding re + i*im, at most one of each (+, -)
    pair non-zero per cell; in place."""
    np.negative(f[:2], out=f[2:])
    return np.maximum(f, 0.0, out=f)


def cancel_pairs(s: SwarmState) -> SwarmState:
    """Annihilate opposite-sign pairs per cell and per (r/i) part.

    Leaves the reconstructed wave function exactly unchanged; afterwards
    min(s1,s3) = min(s2,s4) = 0 in every cell.
    """
    fields = {}
    for pid, f in s.fields.items():
        out = np.empty(f.shape)
        np.subtract(f[:2], f[2:], out=out[:2])
        fields[pid] = _split(out)
    return s._with_fields(fields)


def _exact(counts: np.ndarray) -> np.ndarray:
    """``counts``, checked to lie below 2**53, where float64 counts are exact."""
    if not counts.max() < 2.0**53:  # NaN fails too
        raise MemoryBudgetError(f"sample count {counts.max():.3g} is past 2**53, "
                                "where float64 counts stop being exact")
    return counts


def _stochastic_round(x: np.ndarray, rng) -> np.ndarray:
    """Integer counts with expectation ``x``, which must lie below 2**53."""
    lo = np.floor(_exact(x))
    return lo + (rng.random(x.shape) < (x - lo))


def swarm_budget(s: SwarmState, pid: str, A: float) -> float:
    """Target population A * sum_cells |psi| for the normalized wave function."""
    psi, _ = reconstruct_wavefunction(s, pid)
    return A * float(np.abs(psi).sum())


def resample(s: SwarmState, A: float, rng) -> SwarmState:
    """Rescale sample populations to the A*|psi| memory budget.

    Cancels pairs, then multiplies every surviving count by one global
    factor (stochastic rounding) so the total population matches the
    budget; the expected reconstructed wave function is unchanged and the
    scale is updated consistently.
    """
    if not 0 < A < np.inf:
        raise DomainError(f"memory constant A must be positive and finite, got {A}")
    out = cancel_pairs(s)
    for pid in out.particles():
        f = out.fields[pid]
        current = f.sum()
        if current == 0:
            continue
        target = swarm_budget(out, pid, A)
        factor = target / current
        with np.errstate(over="ignore", invalid="ignore"):  # _exact fails an inf or NaN count
            out.fields[pid] = _stochastic_round(f * factor, rng)
        out.scale[pid] *= factor
    return out


def sample_from_wavefunction(
    psi: np.ndarray,
    spec: LatticeSpec,
    K: int,
    rng,
    pid: str = "p0",
    deterministic: bool = False,
) -> SwarmState:
    """Draw a K-sample swarm whose expected reconstruction is ``psi``.

    Samples are multinomially distributed over (cell, real/imaginary
    channel) proportionally to |Re psi| + |Im psi|; the channel sign picks
    the sample type.  ``deterministic`` stores the exact expected
    (fractional) counts instead of drawing.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != spec.dims:
        raise DomainError(f"psi shape {psi.shape} does not match lattice {spec.dims}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-6:
        raise DomainError(f"psi must be L2-normalized, got norm {nrm}")
    if K < 1:
        raise DomainError("sample count K must be >= 1")
    if not deterministic and K > np.iinfo(np.int64).max:
        raise DomainError(f"a drawn sample count K must fit in int64, got {K:.3g}")

    # rows 0, 1 hold the weights |Re psi|, |Im psi|, then the counts, then
    # the signed counts, which _split sorts into the four types
    f = np.empty((4, *spec.dims))
    np.abs(psi.real, out=f[0])
    np.abs(psi.imag, out=f[1])
    counts = f[:2].reshape(-1)
    W = counts.sum()
    if deterministic:
        counts *= K
        counts /= W
    else:
        counts[:] = rng.multinomial(K, counts / W)
    np.copysign(f[0], psi.real, out=f[0])
    np.copysign(f[1], psi.imag, out=f[1])
    out = SwarmState(spec)
    out.add_particle(pid, _split(f), scale=K / W)
    return out
