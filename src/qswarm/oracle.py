"""Ground-truth machinery, independent of the swarm code paths.

A conventional complex-valued Crank-Nicolson integrator for
i dpsi/dt = -Lap psi + V psi (hbar = 1, unit kinetic coefficient), a
discrete eigensolver for initial states, and density comparison metrics.
No stepping code is shared with the swarm integrators, so equivalence
tests between the two are meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError
from .lattice import Boundary, FieldGrid, LatticeSpec, PotentialField


@dataclass
class ComplexField:
    """Complex amplitude per cell."""

    spec: LatticeSpec
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != self.spec.dims:
            raise DomainError(
                f"psi shape {self.psi.shape} does not match lattice {self.spec.dims}"
            )
        if not np.all(np.isfinite(self.psi)):
            raise DomainError("psi must be finite")

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _laplacian_1d(n: int, boundary: Boundary) -> sp.spmatrix:
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    L = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    # boundary terms are added: on a 2-cell axis both neighbors are one cell
    if boundary is Boundary.PERIODIC:
        L[0, -1] += 1.0
        L[-1, 0] += 1.0
    elif boundary is Boundary.REFLECTING:
        # mirrored neighbor: zero-gradient ends
        L[0, 0] += 1.0
        L[-1, -1] += 1.0
    return L.tocsr()


def laplacian_matrix(spec: LatticeSpec) -> sp.csr_matrix:
    """Sparse discrete Laplacian on the lattice, boundary handling as in
    :func:`qswarm.lattice.field_laplacian`.

    The 1-D operators fold by Kronecker sums, last axis innermost, so cell
    ids are row-major as in the lattice.
    """
    mats = [_laplacian_1d(n, spec.boundary) for n in spec.dims]
    L = functools.reduce(lambda inner, outer: sp.kronsum(inner, outer, format="csr"),
                         reversed(mats))
    return L / spec.h**2


def hamiltonian(spec: LatticeSpec, V: PotentialField) -> sp.spmatrix:
    """H = -Lap + diag(V)."""
    return -laplacian_matrix(spec) + sp.diags(V.grid.values.ravel())


def reference_evolve(
    psi0: ComplexField, V: PotentialField, T: float, dt: float
) -> ComplexField:
    """Norm-preserving Crank-Nicolson evolution over duration T.

    (I + i dt/2 H) psi' = (I - i dt/2 H) psi each step; the scheme is
    unitary for the discretized Hamiltonian and second-order in dt.
    Negative T runs the conjugate (time-reversed) evolution.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    spec = psi0.spec
    steps = int(round(abs(T) / dt))
    if steps == 0:
        return ComplexField(spec, psi0.psi.copy())
    sgn = 1.0 if T >= 0 else -1.0
    H = hamiltonian(spec, V).astype(complex)
    I = sp.identity(spec.ncells, format="csr", dtype=complex)
    A = (I + 0.5j * sgn * dt * H).tocsc()
    B = (I - 0.5j * sgn * dt * H).tocsr()
    solver = spla.splu(A)
    psi = psi0.psi.ravel().astype(complex)
    for _ in range(steps):
        psi = solver.solve(B @ psi)
    return ComplexField(spec, psi.reshape(spec.dims))


def ground_state(spec: LatticeSpec, V: PotentialField) -> tuple[float, ComplexField]:
    """Lowest eigenpair of -Lap + V; residual below 1e-8."""
    H = hamiltonian(spec, V)
    n = spec.ncells
    if n <= 400:
        w, v = np.linalg.eigh(H.toarray())
        E, vec = float(w[0]), v[:, 0]
    else:
        w, v = spla.eigsh(H, k=1, which="SA", tol=1e-12, maxiter=20000)
        E, vec = float(w[0]), v[:, 0]
    vec = vec / np.linalg.norm(vec)
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    resid = np.linalg.norm(H @ vec - E * vec)
    if resid > 1e-8:
        raise RuntimeError(f"eigensolver residual {resid:.3g} above 1e-8")
    return E, ComplexField(spec, vec.astype(complex).reshape(spec.dims))


def energy_levels(spec: LatticeSpec, V: PotentialField, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the discrete Hamiltonian."""
    H = hamiltonian(spec, V)
    if spec.ncells <= 400:
        return np.sort(np.linalg.eigvalsh(H.toarray()))[:k]
    w = spla.eigsh(H, k=k, which="SA", return_eigenvectors=False, tol=1e-10)
    return np.sort(w)


def _as_density(x) -> np.ndarray:
    if isinstance(x, ComplexField):
        return x.density()
    if isinstance(x, FieldGrid):
        return np.asarray(x.values, dtype=float)
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.abs(x) ** 2
    return x.astype(float)


def density_error(a, b) -> float:
    """L2 distance of the unit-mass-normalized densities of a and b.

    Complex inputs contribute |psi|^2; real fields are taken as densities.
    Symmetric, zero iff the densities agree.
    """
    da, db = _as_density(a), _as_density(b)
    if da.shape != db.shape:
        raise DomainError(f"shape mismatch: {da.shape} vs {db.shape}")
    sa, sb = da.sum(), db.sum()
    if sa <= 0 or sb <= 0:
        raise DomainError("densities must have positive mass")
    return float(np.linalg.norm(da / sa - db / sb))


def free_gaussian_1d(spec: LatticeSpec, center: float, sigma0: float, t: float,
                     momentum: float = 0.0) -> ComplexField:
    """Closed-form free evolution of a 1D Gaussian packet.

    Initial psi ~ exp(-(x-c)^2/(4 sigma0^2) + i p x); under
    i dpsi/dt = -d2psi/dx2 the complex variance parameter grows as
    a(t) = sigma0^2 + i t and the center drifts with velocity 2p.
    """
    if spec.ndim != 1:
        raise DomainError("free_gaussian_1d needs a 1D lattice")
    x = spec.coordinates(0)
    a = sigma0**2 + 1j * t
    xc = x - center - 2.0 * momentum * t
    psi = (sigma0**2 / a) ** 0.5 * np.exp(
        -(xc**2) / (4.0 * a) + 1j * momentum * (x - center) - 1j * momentum**2 * t
    )
    psi /= np.linalg.norm(psi)
    return ComplexField(spec, psi)
