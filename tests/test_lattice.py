"""Lattice geometry, diffusion and Green-function relaxation."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from qswarm import (
    Boundary,
    DomainError,
    FieldGrid,
    LatticeSpec,
    cell_coords,
    cell_index,
    diffuse_field,
    diffusion_coefficient,
    field_laplacian,
    laplacian_matrix,
    relax_to_green,
)


def test_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec((1,))
    with pytest.raises(DomainError):
        LatticeSpec((4, 4, 4, 4))
    with pytest.raises(DomainError):
        LatticeSpec((8,), h=0.0)
    with pytest.raises(ValueError):
        LatticeSpec((8,), boundary="open")
    spec = LatticeSpec((4, 6))
    assert spec.ndim == 2 and spec.ncells == 24


def test_cell_index_origin():
    assert cell_index((0, 0), LatticeSpec((4, 4))) == 0


def test_cell_index_row_major():
    assert cell_index((1, 2), LatticeSpec((4, 4))) == 6


def test_cell_index_periodic_wrap():
    spec = LatticeSpec((4, 4), boundary=Boundary.PERIODIC)
    assert cell_index((5, 1), spec) == cell_index((1, 1), spec) == 5


def test_cell_index_out_of_range():
    spec = LatticeSpec((4, 4), boundary=Boundary.ABSORBING)
    with pytest.raises(DomainError):
        cell_index((5, 1), spec)


def test_cell_coords_roundtrip():
    spec = LatticeSpec((3, 4, 5))
    for idx in range(spec.ncells):
        assert cell_index(cell_coords(idx, spec), spec) == idx


def test_diffuse_delta_no_motion():
    spec = LatticeSpec((5,))
    f = spec.zeros()
    f[2] = 1.0
    out = diffuse_field(FieldGrid(spec, f), stay_prob=1.0)
    assert np.array_equal(out.values, f)


def test_diffuse_uniform_fixed_point():
    spec = LatticeSpec((6, 6))
    f = np.full(spec.dims, 3.5)
    for p in (0.0, 0.3, 1.0):
        out = diffuse_field(FieldGrid(spec, f), p)
        assert np.allclose(out.values, f)


def test_diffuse_delta_split():
    spec = LatticeSpec((5,))
    f = spec.zeros()
    f[2] = 12.0
    out = diffuse_field(FieldGrid(spec, f), stay_prob=0.5)
    assert np.array_equal(out.values, [0, 3, 6, 3, 0])


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_diffuse_mass_conservation(boundary, p):
    rng = np.random.default_rng(0)
    spec = LatticeSpec((7, 9), boundary=boundary)
    f = FieldGrid(spec, rng.random(spec.dims))
    out = diffuse_field(f, p)
    assert out.total() == pytest.approx(f.total(), rel=1e-9)
    assert np.all(out.values >= 0)


def test_diffuse_absorbing_loses_edge_mass():
    spec = LatticeSpec((4,), boundary=Boundary.ABSORBING)
    f = FieldGrid(spec, np.array([1.0, 0, 0, 0]))
    out = diffuse_field(f, 0.0)
    assert out.total() < f.total()


def test_laplacian_constant_zero():
    spec = LatticeSpec((8, 8))
    out = field_laplacian(FieldGrid(spec, np.full(spec.dims, 2.0)))
    assert np.allclose(out.values, 0.0)


def test_laplacian_stencil_by_hand():
    spec = LatticeSpec((3,))
    out = field_laplacian(FieldGrid(spec, np.array([0.0, 1.0, 0.0])))
    assert np.array_equal(out.values, [1.0, -2.0, 1.0])


def test_laplacian_quadratic_interior():
    spec = LatticeSpec((32,), boundary=Boundary.ABSORBING)
    x = np.arange(32, dtype=float)
    out = field_laplacian(FieldGrid(spec, x**2))
    assert np.allclose(out.values[1:-1], 2.0)


def _stencil_cases():
    """Every (shape, boundary) pair over 1-3 axes; 2D cases are named by the
    boundary alone."""
    for shape in ((5,), (5, 7), (4, 5, 6)):
        for boundary in Boundary:
            name = boundary.value if len(shape) == 2 else f"{len(shape)}d-{boundary.value}"
            yield pytest.param(shape, boundary, id=name)


@pytest.mark.parametrize("shape, boundary", _stencil_cases())
def test_laplacian_matches_sparse_matrix(shape, boundary):
    """field_laplacian agrees with the independent kron-built operator."""
    rng = np.random.default_rng(3)
    spec = LatticeSpec(shape, h=0.5, boundary=boundary)
    f = rng.standard_normal(spec.dims)
    via_field = field_laplacian(FieldGrid(spec, f)).values
    via_matrix = (laplacian_matrix(spec) @ f.ravel()).reshape(spec.dims)
    assert np.allclose(via_field, via_matrix, atol=1e-12)


@pytest.mark.parametrize("shape, boundary", _stencil_cases())
def test_diffusion_is_identity_plus_laplacian(shape, boundary):
    """One diffusion step equals I + c*Lap on every boundary: the mass a
    reflecting edge bounces back is the mirrored neighbor, the mass an
    absorbing edge drops is the zero neighbor."""
    rng = np.random.default_rng(4)
    spec = LatticeSpec(shape, h=0.5, boundary=boundary)
    f = FieldGrid(spec, rng.random(spec.dims))
    moved = diffuse_field(f, 0.3).values - f.values
    c = diffusion_coefficient(spec, 0.3)
    assert np.allclose(moved, c * field_laplacian(f).values, rtol=0, atol=1e-12)


def test_green_zero_source():
    spec = LatticeSpec((9,), boundary=Boundary.ABSORBING)
    res = relax_to_green(FieldGrid(spec), FieldGrid(spec), 0.5, 100)
    assert res.converged and np.all(res.field.values == 0.0)


def test_green_1d_tent_profile():
    """Point source with absorbing ends: compare with the tridiagonal solve."""
    spec = LatticeSpec((17,), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[8] = 1.0
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, 50000, tol=1e-10)
    assert res.converged
    c = diffusion_coefficient(spec, 0.5)
    direct = spla.spsolve((-c * laplacian_matrix(spec)).tocsc(), src)
    assert np.allclose(res.field.values, direct, rtol=1e-6)
    # tent: linear on both sides of the source
    left = res.field.values[:9]
    assert np.allclose(np.diff(left, 2), 0.0, atol=1e-6 * left.max())


def test_green_fixed_point_relation():
    """c*Lap(F) = absorption*F - source at the converged field."""
    rng = np.random.default_rng(1)
    spec = LatticeSpec((11,), boundary=Boundary.ABSORBING)
    src = FieldGrid(spec, rng.random(spec.dims))
    absorb = FieldGrid(spec, 0.1 * rng.random(spec.dims))
    res = relax_to_green(src, absorb, 0.4, 50000, tol=1e-12)
    assert res.converged
    F = res.field.values
    c = diffusion_coefficient(spec, 0.4)
    lhs = c * field_laplacian(res.field).values
    rhs = absorb.values * F - src.values
    assert np.allclose(lhs, rhs, atol=1e-8 * np.abs(F).max())


def test_green_nonconvergence_flag():
    spec = LatticeSpec((17,), boundary=Boundary.ABSORBING)
    src = spec.zeros()
    src[8] = 1.0
    res = relax_to_green(FieldGrid(spec, src), FieldGrid(spec), 0.5, 3)
    assert not res.converged and res.iterations == 3


def test_green_rejects_negative_source():
    spec = LatticeSpec((9,))
    with pytest.raises(DomainError):
        relax_to_green(FieldGrid(spec, -np.ones(9)), FieldGrid(spec), 0.5, 10)
