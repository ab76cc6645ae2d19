"""Tests for the EDM U-Net architecture (repro.nn.unet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.unet import BLOCK_CONV, BLOCK_EMBEDDING, BLOCK_SKIP, EDMUNet, UNetConfig


class TestUNetConfig:
    def test_default_valid(self):
        UNetConfig()

    def test_resolution_divisibility_enforced(self):
        with pytest.raises(ValueError):
            UNetConfig(img_resolution=12, channel_mult=(1, 2, 2, 2))

    def test_too_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            UNetConfig(img_resolution=2)

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError):
            UNetConfig(activation="gelu")

    def test_resolutions_list(self):
        cfg = UNetConfig(img_resolution=16, channel_mult=(1, 2, 2))
        assert cfg.resolutions == [16, 8, 4]

    def test_emb_dim(self):
        cfg = UNetConfig(model_channels=16, emb_dim_mult=4)
        assert cfg.emb_dim == 64


class TestUNetStructure:
    def test_block_count(self, tiny_unet):
        # 2 resolution levels x 1 block each, encoder + decoder.
        assert len(tiny_unet.block_infos()) == 4

    def test_block_names_follow_paper_convention(self, tiny_unet):
        names = tiny_unet.block_names()
        assert "enc.8x8_block0" in names
        assert "dec.8x8_block0" in names
        assert all(name.startswith(("enc.", "dec.")) for name in names)

    def test_get_block_by_name(self, tiny_unet):
        block = tiny_unet.get_block("enc.8x8_block0")
        assert block.name == "enc.8x8_block0"

    def test_get_block_unknown_raises(self, tiny_unet):
        with pytest.raises(KeyError):
            tiny_unet.get_block("enc.64x64_block9")

    def test_attention_placed_at_requested_resolution(self, tiny_unet):
        for info in tiny_unet.block_infos():
            has_attn = info.block.attention is not None
            assert has_attn == (info.resolution == 4)

    def test_execution_order_increasing(self, tiny_unet):
        orders = [info.order for info in tiny_unet.block_infos()]
        assert orders == sorted(orders)

    def test_embedding_layers_nonempty(self, tiny_unet):
        embedding = [layer for layer in tiny_unet.layers() if layer.category == BLOCK_EMBEDDING]
        assert len(embedding) >= 2 + len(tiny_unet.block_infos())

    def test_skip_layers_include_stems(self, tiny_unet):
        skips = [layer.module for layer in tiny_unet.layers() if layer.category == BLOCK_SKIP]
        assert tiny_unet.conv_in in skips and tiny_unet.conv_out in skips

    def test_parameter_count_positive(self, tiny_unet):
        assert sum(p.size for p in tiny_unet.parameters().values()) > 1000


class TestUNetForward:
    def test_output_shape_matches_input(self, tiny_unet, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        out = tiny_unet(x, np.full(2, 0.1))
        assert out.shape == x.shape

    def test_deterministic(self, tiny_unet, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        a = tiny_unet(x, np.array([0.2]))
        b = tiny_unet(x, np.array([0.2]))
        assert np.array_equal(a, b)

    def test_noise_conditioning_changes_output(self, tiny_unet, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        a = tiny_unet(x, np.array([-1.0]))
        b = tiny_unet(x, np.array([1.0]))
        assert not np.allclose(a, b)

    def test_finite_output(self, tiny_unet, rng):
        out = tiny_unet(rng.normal(size=(1, 3, 8, 8)) * 10, np.array([0.5]))
        assert np.all(np.isfinite(out))

    def test_conditional_model_uses_labels(self, rng):
        cfg = UNetConfig(
            img_resolution=8, model_channels=8, channel_mult=(1, 2), label_dim=4, seed=1
        )
        unet = EDMUNet(cfg)
        x = rng.normal(size=(1, 3, 8, 8))
        labels_a = np.eye(4)[[0]]
        labels_b = np.eye(4)[[2]]
        out_a = unet(x, np.array([0.1]), labels_a)
        out_b = unet(x, np.array([0.1]), labels_b)
        assert not np.allclose(out_a, out_b)

    def test_set_activation_switches_every_block(self, tiny_unet):
        tiny_unet.set_activation("relu")
        assert tiny_unet.config.activation == "relu"
        for info in tiny_unet.block_infos():
            assert info.block.act0.kind == "relu"
            assert info.block.act1.kind == "relu"

    def test_relu_swap_changes_output(self, tiny_unet, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        silu_out = tiny_unet(x, np.array([0.1]))
        tiny_unet.set_activation("relu")
        relu_out = tiny_unet(x, np.array([0.1]))
        assert not np.allclose(silu_out, relu_out)

    def test_three_level_unet_runs(self, rng):
        cfg = UNetConfig(img_resolution=16, model_channels=8, channel_mult=(1, 2, 2), seed=2)
        unet = EDMUNet(cfg)
        out = unet(rng.normal(size=(1, 3, 16, 16)), np.array([0.3]))
        assert out.shape == (1, 3, 16, 16)

    def test_multiple_blocks_per_resolution(self, rng):
        cfg = UNetConfig(
            img_resolution=8, model_channels=8, channel_mult=(1, 2), num_blocks_per_res=2, seed=4
        )
        unet = EDMUNet(cfg)
        assert len(unet.block_infos()) == 8
        out = unet(rng.normal(size=(1, 3, 8, 8)), np.array([0.1]))
        assert out.shape == (1, 3, 8, 8)


class TestUNetCosts:
    def test_cost_breakdown_categories(self, tiny_unet):
        categories = {layer.category for layer in tiny_unet.layers()}
        assert categories == {"Conv+Act", "Skip", "Embedding", "Attention"}

    def test_conv_dominates_compute(self, tiny_unet):
        layers = tiny_unet.layers()
        conv = sum(layer.macs for layer in layers if layer.category == BLOCK_CONV)
        total = sum(layer.macs for layer in layers)
        assert conv / total > 0.5

    def test_total_macs_positive_and_scale_with_resolution(self):
        def total_macs(resolution):
            unet = EDMUNet(UNetConfig(img_resolution=resolution, model_channels=8, seed=0))
            return sum(layer.macs for layer in unet.layers())

        assert 0 < total_macs(8) < total_macs(16)

    def test_block_layers_cover_its_convolutions(self, tiny_unet):
        info = tiny_unet.block_infos()[0]
        layers = info.block.layers(tiny_unet.name, info.spatial)
        assert [layer.module for layer in layers[:2]] == [info.block.conv0, info.block.conv1]
        assert {layer.category for layer in layers} >= {"Conv+Act", "Embedding"}
        assert all(layer.block == info.name and layer.macs > 0 for layer in layers)
