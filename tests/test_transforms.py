import math

import numpy as np
import pytest

from chemopattern import (
    DomainGeometry,
    GridField,
    SpectralField,
    helmholtz_inverse,
    transform_inverse,
)
from chemopattern.core import rho_table
from chemopattern.transforms import _cosine_matrices, coeffs_to_grid, grid_to_coeffs

from oracles import _dct_analysis, _dct_synthesis, l2_norm

GEOM = DomainGeometry(2.0 * math.sqrt(2.0) * math.pi / math.sqrt(3.0),
                      2.0 * math.sqrt(2.0) * math.pi)


def mode_samples(k1, k2, g, n1, n2):
    # the midpoint grid x_i = (i + 1/2) * ell / n
    x = (np.arange(n1) + 0.5) * g.ell1 / n1
    y = (np.arange(n2) + 0.5) * g.ell2 / n2
    return np.outer(np.cos(k1 * np.pi * x / g.ell1), np.cos(k2 * np.pi * y / g.ell2))


class TestRoundTrip:
    def test_constant_field(self):
        v = np.ones((32, 32))
        c = grid_to_coeffs(v)
        assert c[0, 0] == pytest.approx(1.0, abs=1e-14)
        c[0, 0] = 0.0
        assert np.max(np.abs(c)) <= 1e-14

    def test_single_mode(self):
        v = mode_samples(1, 1, GEOM, 32, 32)
        c = grid_to_coeffs(v)
        assert c[1, 1] == pytest.approx(1.0, abs=1e-13)
        c[1, 1] = 0.0
        assert np.max(np.abs(c)) <= 1e-12

    def test_random_round_trip_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            c = rng.normal(size=(32, 32))
            back = grid_to_coeffs(coeffs_to_grid(c))
            assert np.max(np.abs(back - c)) <= 1e-12

    def test_field_level_transforms(self):
        rng = np.random.default_rng(0)
        u = SpectralField(rng.normal(size=(32, 32)), GEOM)
        v = transform_inverse(u)
        assert isinstance(v, GridField)
        back = grid_to_coeffs(v.values)
        assert np.max(np.abs(back - u.coeffs)) <= 1e-12


class TestDerivatives:
    def test_padded_evaluation_consistent(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(16, 16))
        fine = coeffs_to_grid(c, (32, 32))
        back = grid_to_coeffs(fine)[:16, :16]
        assert np.max(np.abs(back - c)) <= 1e-12

    def test_rejects_shrinking_grid(self):
        with pytest.raises(ValueError, match="smaller"):
            coeffs_to_grid(np.zeros((16, 16)), (8, 16))


class TestPrunedTransforms:
    # the dealiasing truncation is the shape of the analysis matrices
    def test_rejects_growing_truncation(self):
        with pytest.raises(ValueError, match="larger"):
            grid_to_coeffs(np.zeros((16, 16)), (32, 16))


class TestBatchedTransforms:
    # a leading batch axis and reused workspaces must not change a single bit
    # against one plain call per field
    @pytest.mark.parametrize("base, grid", [((32, 32), (64, 64)), ((64, 64), (128, 128)),
                                            ((32, 64), (64, 128))])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_bitwise_equal_to_per_field(self, base, grid, batch):
        rng = np.random.default_rng(100 * batch + grid[1])
        c = rng.normal(size=(batch, *base))
        expected = np.stack([coeffs_to_grid(ci, grid) for ci in c])
        assert np.array_equal(coeffs_to_grid(c, grid), expected)
        # stale workspaces: every entry must be overwritten
        out = np.full((batch, *grid), np.nan)
        rows = np.full((batch, base[0], grid[1]), np.nan)
        assert coeffs_to_grid(c, grid, out, rows) is out
        assert np.array_equal(out, expected)

        values = rng.normal(size=(batch, *grid))
        kept = values.copy()
        expected = np.stack([grid_to_coeffs(v.copy(), base) for v in kept])
        assert np.array_equal(grid_to_coeffs(values, base), expected)
        # the analysis works in its input: each field has its (0, 0) value
        # subtracted
        assert np.array_equal(values, kept - kept[:, :1, :1])
        out = np.full((batch, *base), np.nan)
        rows = np.full((batch, grid[0], base[1]), np.nan)
        assert grid_to_coeffs(kept.copy(), base, rows, out) is out
        assert np.array_equal(out, expected)


class TestOperandLayout:
    # a padded transform takes the right factor of its first product
    # C-contiguous; its bytes must stay those of the products written with the
    # transposed views, as must an unpadded one's (the snapshots), which keeps
    # the views
    @pytest.mark.parametrize("base, grid", [((32, 32), (64, 64)), ((64, 64), (128, 128)),
                                            ((32, 64), (64, 128)), ((32, 32), (32, 32))])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_bitwise_equal_to_the_products_with_transposed_views(self, base, grid, batch):
        (n1, n2), (m1, m2) = base, grid
        C1, A1 = _cosine_matrices(n1, m1)[:2]
        C2, A2 = _cosine_matrices(n2, m2)[:2]
        rng = np.random.default_rng(300 * batch + grid[1])
        c = rng.normal(size=(batch, n1, n2))
        expected = C1 @ (c.reshape(-1, n2) @ C2.T).reshape(batch, n1, m2)
        assert np.array_equal(coeffs_to_grid(c, grid), expected)

        values = rng.normal(size=(batch, m1, m2))
        offsets = values[:, 0, 0].copy()
        shifted = np.stack([v - o for v, o in zip(values, offsets)])
        expected = A1 @ (shifted.reshape(-1, m2) @ A2.T).reshape(batch, m1, n2)
        expected[:, 0, 0] += offsets
        assert np.array_equal(grid_to_coeffs(values, base), expected)

        right = _cosine_matrices(n2, m2)[2:]
        assert all(f.flags.c_contiguous == (m2 > n2) for f in right)


def assert_rel_close(got, expected, rtol):
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


class TestDenseRhsTransforms:
    # the dense matrices agree with the plain two-pass dct transforms to
    # rounding, unpadded, on the padded grids of the right-hand sides, and on
    # a grid past every workload's size
    @pytest.mark.parametrize("base, grid", [((32, 32), (64, 64)), ((64, 64), (128, 128)),
                                            ((32, 64), (64, 128)), ((32, 32), (32, 32)),
                                            ((128, 128), (256, 256))])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_agrees_with_dct_below_the_cutoff(self, base, grid, batch):
        rng = np.random.default_rng(200 * batch + grid[1])
        c = rng.normal(size=(batch, *base))
        assert_rel_close(coeffs_to_grid(c, grid),
                         np.stack([_dct_synthesis(ci, *grid) for ci in c]), 1e-13)
        values = rng.normal(size=(batch, *grid))
        expected = np.stack([_dct_analysis(v, *base) for v in values])
        assert_rel_close(grid_to_coeffs(values, base), expected, 1e-13)

    # The analysis is not held to 1e-13 at 512: on white noise, subtracting
    # a (0, 0) value far from the field's mean leaves rounding up to about
    # 1e-13 of the largest coefficient in the k2 = 0 column.
    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    def test_synthesis_agrees_with_dct_at_512(self, batch):
        base, grid = (256, 256), (512, 512)
        c = np.random.default_rng(200 * batch + grid[1]).normal(size=(batch, *base))
        assert_rel_close(coeffs_to_grid(c, grid),
                         np.stack([_dct_synthesis(ci, *grid) for ci in c]), 1e-13)

    def test_cached_matrices_are_read_only(self):
        for matrix in _cosine_matrices(32, 64):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0


class TestHelmholtz:
    def test_mean_mode_fixed(self):
        c = np.zeros((8, 8))
        c[0, 0] = 1.0
        v = helmholtz_inverse(SpectralField(c, GEOM), 1.0)
        assert v.coeffs[0, 0] == 1.0

    def test_critical_mode_gain(self):
        c = np.zeros((8, 8))
        c[0, 2] = 1.0
        v = helmholtz_inverse(SpectralField(c, GEOM), 1.0)
        assert v.coeffs[0, 2] == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_zero(self):
        v = helmholtz_inverse(SpectralField(np.zeros((8, 8)), GEOM), 3.0)
        assert np.all(v.coeffs == 0.0)

    def test_linear_and_inverse_of_operator(self):
        rng = np.random.default_rng(1)
        a = SpectralField(rng.normal(size=(16, 16)), GEOM)
        b = SpectralField(rng.normal(size=(16, 16)), GEOM)
        coupling = 18.0
        va = helmholtz_inverse(a, coupling)
        vb = helmholtz_inverse(b, coupling)
        vab = helmholtz_inverse(SpectralField(2.0 * a.coeffs - 3.0 * b.coeffs, GEOM), coupling)
        assert np.allclose(vab.coeffs, 2.0 * va.coeffs - 3.0 * vb.coeffs, atol=1e-13)
        # (-Lap + 1) applied spectrally recovers coupling * u
        recovered = rho_table(16, 16, GEOM) * va.coeffs + va.coeffs
        assert np.max(np.abs(recovered - coupling * a.coeffs)) <= 1e-12 * coupling * np.max(np.abs(a.coeffs))


class TestFieldProperties:
    def test_l2_norm_matches_grid_quadrature(self):
        rng = np.random.default_rng(5)
        u = SpectralField(rng.normal(size=(32, 32)) * 0.1, GEOM)
        grid = transform_inverse(u).values
        quad = math.sqrt(np.mean(grid**2))
        assert l2_norm(u) == pytest.approx(quad, rel=1e-12)

    def test_neumann_boundary_derivative_shrinks_with_resolution(self):
        # one-sided normal differences at the wall decay ~ h for a fixed
        # smooth field, consistent with the basis satisfying the condition
        # identically
        rng = np.random.default_rng(6)
        c = np.zeros((16, 16))
        c[:5, :5] = rng.normal(size=(5, 5))
        slopes = []
        for n in (64, 128):
            vals = coeffs_to_grid(c, (n, n))
            h = GEOM.ell1 / n
            slopes.append(np.max(np.abs(vals[1, :] - vals[0, :])) / h)
        assert slopes[1] <= 0.6 * slopes[0]

    def test_rejects_non_finite(self):
        c = np.zeros((8, 8))
        c[1, 1] = np.inf
        with pytest.raises(ValueError):
            SpectralField(c, GEOM)
