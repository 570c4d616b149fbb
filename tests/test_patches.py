"""Patchification, masking counts and uniformity, positional encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmim.patches import (
    Mask,
    MaskingConfig,
    PatchGrid,
    patchify,
    positional_encoding,
    sample_mask,
    unpatchify,
)
from vmim.rng import Rng
from vmim.volume import Volume


class TestPatchify:
    def test_96_cube_gives_216_tokens_of_4096(self):
        v = Volume(np.zeros((1, 96, 96, 96)))
        batch = patchify(v, 16)
        assert batch.tokens.shape == (216, 4096)
        assert batch.grid.grid == (6, 6, 6)

    def test_single_patch_is_flat_volume(self):
        rng = np.random.default_rng(0)
        v = Volume(rng.uniform(size=(1, 16, 16, 16)))
        batch = patchify(v, 16)
        assert batch.tokens.shape == (1, 4096)
        assert np.array_equal(batch.tokens[0], v.data.ravel())

    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(1)
        for shape, p in [((1, 32, 32, 32), 8), ((2, 16, 24, 8), 8), ((3, 18, 12, 6), 6)]:
            v = Volume(rng.uniform(size=shape))
            batch = patchify(v, p)
            assert np.array_equal(unpatchify(batch.tokens, batch.grid), v.data)

    def test_single_token_index_arithmetic(self):
        # Token holding 0..4095 for p=16: voxel (d,h,w) = d*256 + h*16 + w.
        grid = PatchGrid(16, (1, 1, 1), 1)
        tokens = np.arange(4096.0).reshape(1, 4096)
        data = unpatchify(tokens, grid)
        for d, h, w in [(0, 0, 0), (3, 7, 11), (15, 15, 15), (9, 0, 4)]:
            assert data[0, d, h, w] == d * 256 + h * 16 + w

    def test_zero_tokens_give_zero_volume(self):
        grid = PatchGrid(4, (2, 2, 2), 1)
        assert not unpatchify(np.zeros((8, 64)), grid).any()

    def test_divisibility_error_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            PatchGrid.for_shape((1, 16, 17, 16), 8)


class TestMaskCounts:
    def test_spec_grid_arithmetic(self):
        grid = PatchGrid.for_shape((1, 96, 96, 96), 16)
        assert grid.num_tokens == 216
        mask = sample_mask(grid, MaskingConfig(16, 0.75), Rng(0))
        assert mask.num_masked == 162
        assert len(mask.visible_token_ids()) == 54

    def test_zero_ratio_empty_mask(self):
        grid = PatchGrid.for_shape((1, 32, 32, 32), 8)
        mask = sample_mask(grid, MaskingConfig(8, 0.0), Rng(0))
        assert mask.num_masked == 0

    def test_supercell_arithmetic_for_32_cell(self):
        # 6^3 token grid with q/p = 2 -> 27 super-cells; floor(.15*27)=4 cells
        # of 8 tokens each.
        grid = PatchGrid.for_shape((1, 96, 96, 96), 16)
        mask = sample_mask(grid, MaskingConfig(32, 0.15), Rng(3))
        assert mask.num_masked == 4 * 8

    def test_masked_cells_are_contiguous_blocks(self):
        grid = PatchGrid.for_shape((1, 64, 64, 64), 8)  # 8^3 tokens
        mask = sample_mask(grid, MaskingConfig(16, 0.25), Rng(5))
        ids = set(mask.masked_token_ids.tolist())
        # every masked token's 2^3 super-cell must be fully masked
        for token_id in ids:
            d, rem = divmod(token_id, 64)
            h, w = divmod(rem, 8)
            cd, ch, cw = d // 2 * 2, h // 2 * 2, w // 2 * 2
            for od in range(2):
                for oh in range(2):
                    for ow in range(2):
                        assert ((cd + od) * 8 + ch + oh) * 8 + cw + ow in ids

    @settings(max_examples=120, deadline=None)
    @given(
        g=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        factor=st.integers(1, 3),
        ratio=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**32),
    )
    def test_count_exactness_property(self, g, factor, ratio, seed):
        p = 4
        grid = PatchGrid(p, tuple(x * factor for x in g), 1)
        mask = sample_mask(grid, MaskingConfig(p * factor, ratio), Rng(seed))
        n_cells = g[0] * g[1] * g[2]
        assert mask.num_masked == int(np.floor(ratio * n_cells)) * factor**3

    def test_determinism_in_seed(self):
        grid = PatchGrid.for_shape((1, 48, 48, 48), 8)
        cfg = MaskingConfig(16, 0.6)
        a = sample_mask(grid, cfg, Rng(11)).masked_token_ids
        b = sample_mask(grid, cfg, Rng(11)).masked_token_ids
        assert np.array_equal(a, b)
        c = sample_mask(grid, cfg, Rng(12)).masked_token_ids
        assert not np.array_equal(a, c)

    def test_non_multiple_masked_patch_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            MaskingConfig(12, 0.5).cell_factor(8)

    def test_grid_not_divisible_by_cell_rejected(self):
        grid = PatchGrid(8, (3, 3, 3), 1)
        with pytest.raises(ValueError, match="divisible"):
            sample_mask(grid, MaskingConfig(16, 0.5), Rng(0))

    def test_mask_invariants(self):
        with pytest.raises(ValueError, match="sorted"):
            Mask(np.array([3, 1]), 10)
        with pytest.raises(ValueError, match="range"):
            Mask(np.array([3, 11]), 10)


class TestMaskUniformity:
    def test_frequencies_and_centroid(self):
        # 6^3 grid, r=0.5: each cell is masked in a draw with prob 1/2.
        grid = PatchGrid.for_shape((1, 48, 48, 48), 8)
        cfg = MaskingConfig(8, 0.5)
        rng = Rng(2024)
        trials = 2000
        counts = np.zeros(216)
        coord_sum = np.zeros(3)
        coords = grid.coordinates()
        for _ in range(trials):
            mask = sample_mask(grid, cfg, rng)
            counts[mask.masked_token_ids] += 1
            coord_sum += coords[mask.masked_token_ids].mean(axis=0)
        expected = trials * 0.5
        sigma = np.sqrt(trials * 0.25)
        assert np.abs(counts - expected).max() <= 4 * sigma
        centroid = coord_sum / trials
        assert np.abs(centroid - 2.5).max() <= 0.02 * 6


class TestPositionalEncoding:
    def test_origin_row(self):
        grid = PatchGrid(1, (3, 3, 3), 1)
        table = positional_encoding(grid, 12)
        # per axis: first half sin (0), second half cos (1)
        assert np.array_equal(table[0], [0, 0, 1, 1] * 3)

    def test_deterministic(self):
        grid = PatchGrid(1, (4, 5, 6), 1)
        a = positional_encoding(grid, 24)
        b = positional_encoding(grid, 24)
        assert np.array_equal(a, b)

    def test_no_collisions_up_to_16_cube(self):
        grid = PatchGrid(1, (16, 16, 16), 1)
        table = positional_encoding(grid, 12)
        assert np.unique(table, axis=0).shape[0] == grid.num_tokens

    @pytest.mark.parametrize("dim", [1, 5, 16])
    def test_channels_past_a_multiple_of_6_are_zero(self, dim):
        table = positional_encoding(PatchGrid(1, (2, 2, 2), 1), dim)
        assert table.shape == (8, dim)
        assert not table[:, dim // 6 * 6 :].any()
        assert table[:, : dim // 6 * 6].any(axis=0).all()

    def test_padded_table_extends_strict_encoding(self):
        grid = PatchGrid(1, (3, 3, 3), 1)
        table = positional_encoding(grid, 64)
        strict = positional_encoding(grid, 60)
        assert np.array_equal(table[:, :60], strict)
        assert not table[:, 60:].any()
