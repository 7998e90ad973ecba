"""Tests of DeepMVIConfig validation and helpers."""

import pytest

from repro.core.config import DeepMVIConfig
from repro.exceptions import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = DeepMVIConfig()
        assert config.window == 10
        assert config.n_heads == 4
        assert config.fast_path is True

    @pytest.mark.parametrize("field,value", [
        ("n_filters", 0),
        ("window", 1),
        ("n_heads", 0),
        ("embedding_dim", 0),
        ("validation_fraction", 0.0),
        ("validation_fraction", 0.95),
        ("max_context_windows", 2),
        ("batch_size", 0),
        ("samples_per_epoch", 0),
        ("kernel_gamma", 0.0),
        ("fast_path", "lazy"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DeepMVIConfig(**{field: value})


class TestHelpers:
    def test_window_rule_for_large_blocks(self):
        config = DeepMVIConfig()
        assert config.with_window_for_block_size(150.0).window == 20
        assert config.with_window_for_block_size(50.0).window == 10

    def test_window_rule_returns_copy(self):
        config = DeepMVIConfig()
        changed = config.with_window_for_block_size(150.0)
        assert config.window == 10
        assert changed is not config

    def test_ablated_flags(self):
        config = DeepMVIConfig().ablated(use_kernel_regression=False,
                                         use_fine_grained=False)
        assert not config.use_kernel_regression
        assert not config.use_fine_grained
        assert config.use_temporal_transformer

    def test_paper_scale_uses_paper_hyperparameters(self):
        config = DeepMVIConfig.paper_scale()
        assert config.n_filters == 32
        assert config.embedding_dim == 10
        assert config.n_heads == 4

    def test_fast_is_small(self):
        config = DeepMVIConfig.fast()
        assert config.n_filters <= 8
        assert config.max_epochs <= 5

    def test_fast_accepts_overrides(self):
        config = DeepMVIConfig.fast(max_epochs=7)
        assert config.max_epochs == 7
