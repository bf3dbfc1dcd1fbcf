"""Amplitude quantum, state reduction and Born-rule sampling.

A discrete state is a 1-D label array of one dtype, one label per
amplitude.  It is truncated ("reduced") by dropping every amplitude whose
modulus is below the amplitude quantum epsilon and renormalizing.  Born
draws index the labels from an urn of elementary events, one per epsilon^2
of squared amplitude, which reproduces the probabilities |lambda_j|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DomainError, TotalReductionError
from .swarm import SwarmState, reconstruct_wavefunction
from .lattice import cell_coords


@dataclass(frozen=True)
class AmplitudeQuantum:
    """Minimal representable amplitude magnitude."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must be in (0, 1], got {self.epsilon}")

    @classmethod
    def for_lattice(cls, ncells: int) -> "AmplitudeQuantum":
        """Default epsilon = 1/sqrt(N) for N one-particle basis states."""
        return cls(1.0 / np.sqrt(ncells))


@dataclass
class DiscreteState:
    """Basis labels, one 1-D array of a single dtype, with complex amplitudes, unit norm."""

    labels: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.labels.ndim != 1 or self.labels.size != self.amplitudes.size:
            raise DomainError(f"labels must be 1-D, one per amplitude, got {self.labels.shape}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def reduce_state(s: DiscreteState, q: AmplitudeQuantum) -> DiscreteState:
    """Drop every |amplitude| < epsilon (strictly) and renormalize.

    Amplitudes exactly at epsilon survive, so a uniform superposition over
    N labels is a fixed point of the default epsilon = 1/sqrt(N).  The
    result has at most 1/epsilon^2 terms.
    """
    keep = np.abs(s.amplitudes) >= q.epsilon
    if not keep.any():
        raise TotalReductionError(
            "all amplitudes below the amplitude quantum; state annihilated"
        )
    amps = s.amplitudes[keep]
    n = np.linalg.norm(amps)
    if abs(n - 1.0) > 1e-12:  # skip the no-op division so reduction is idempotent
        amps = amps / n
    return DiscreteState(s.labels[keep], amps)


def elementary_event_counts(s: DiscreteState, q: AmplitudeQuantum) -> np.ndarray:
    """Per-label elementary event counts l_j = round(|lambda_j|^2 / eps^2).

    Rounding is to nearest, ties to even.  l_j / sum(l) approaches
    |lambda_j|^2 as epsilon shrinks.
    """
    return np.rint(np.abs(s.amplitudes) ** 2 / q.epsilon**2).astype(np.int64)


def born_measure(s: DiscreteState, q: AmplitudeQuantum, rng, size=None):
    """Draw one elementary event uniformly from the urn; return its label.

    With ``size``, return the array of labels of ``size`` successive single
    draws, and leave ``rng`` where those draws leave it.
    """
    counts = elementary_event_counts(s, q)
    total = counts.sum()
    if total <= 0:
        raise DegenerateStateError("no elementary events: degenerate state")
    idx = np.searchsorted(np.cumsum(counts), rng.integers(total, size=size), side="right")
    return s.labels[idx]


def swarm_discrete_state(s: SwarmState, pid: str = "p0") -> DiscreteState:
    """The swarm-reconstructed wave function as a discrete state over cell ids."""
    psi, _ = reconstruct_wavefunction(s, pid)
    return DiscreteState(np.arange(psi.size), psi.ravel())


def measure_swarm(s: SwarmState, q: AmplitudeQuantum, rng, pid: str = "p0"):
    """Position measurement of a swarm: Born draw over cells, then collapse.

    The state is reduced before measuring.  Collapse replaces the swarm by
    its full population concentrated in the outcome cell (type 1, encoding
    psi = 1 there); repeated measurement returns the same cell.

    Returns (cell coordinates, collapsed SwarmState).
    """
    state = reduce_state(swarm_discrete_state(s, pid), q)
    cell = born_measure(state, q, rng)
    coords = cell_coords(cell, s.spec)

    population = max(s.fields[pid].sum(), 1.0)
    f = np.zeros_like(s.fields[pid])
    f[(0, *coords)] = population
    out = s._with_fields({**s.fields, pid: f})
    out.scale[pid] = population
    out.photons[pid] = []
    return coords, out
