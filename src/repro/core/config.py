"""Configuration of the DeepMVI model and its training procedure."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigError


@dataclass
class DeepMVIConfig:
    """Hyper-parameters of DeepMVI (Section 4.3 of the paper).

    The paper's defaults are ``n_filters=32``, ``window=10`` (20 for large
    missing blocks), ``n_heads=4`` and ``embedding_dim=10``.  This
    reproduction keeps those semantics but defaults to a slightly smaller
    network (``n_filters=16``) and bounded temporal context so that the full
    benchmark grid runs on a laptop; set ``paper_scale()`` for the original
    sizes.

    Ablation flags (Section 5.5):

    ``use_temporal_transformer``
        Disable to reproduce the "No Temporal Transformer" ablation.
    ``use_context_window``
        Disable to replace the left/right window-context keys with plain
        positional-encoding keys ("No Context Window").
    ``use_kernel_regression``
        Disable to reproduce "No Kernel Regression".
    ``use_fine_grained``
        Disable to reproduce "No FineGrained".
    ``flatten_dimensions``
        Treat a multidimensional index as a single flat dimension
        (the DeepMVI1D variant of Section 5.5.4).
    """

    # -- architecture --------------------------------------------------- #
    n_filters: int = 16
    window: int = 10
    n_heads: int = 4
    embedding_dim: int = 10
    max_context_windows: int = 64
    kernel_gamma: float = 1.0
    top_l_siblings: int = 50

    # -- ablation switches ---------------------------------------------- #
    use_temporal_transformer: bool = True
    use_context_window: bool = True
    use_kernel_regression: bool = True
    use_fine_grained: bool = True
    flatten_dimensions: bool = False

    # -- training -------------------------------------------------------- #
    #: the paper uses 1e-3; this reproduction trains for far fewer gradient
    #: steps (laptop budgets), so the default is raised to compensate.
    learning_rate: float = 3e-3
    batch_size: int = 32
    max_epochs: int = 20
    samples_per_epoch: int = 512
    validation_fraction: float = 0.15
    patience: int = 3
    grad_clip: float = 5.0
    min_epochs: int = 2
    seed: int = 0
    verbose: bool = False

    # -- inference -------------------------------------------------------- #
    #: rows per chunk of every serving stage (contexts and windows of the
    #: per-window stages, cells of the per-cell one) and of the table build
    impute_batch_size: int = 256
    #: fast-path lookup tables (:mod:`repro.core.fast_path`): built with
    #: the model at fit time and exact for it; ``False`` serves every
    #: request through the full forward.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.n_filters < 1:
            raise ConfigError("n_filters must be positive")
        if self.window < 2:
            raise ConfigError("window must be at least 2")
        if self.n_heads < 1:
            raise ConfigError("n_heads must be positive")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")
        if not 0.0 < self.validation_fraction < 0.9:
            raise ConfigError("validation_fraction must be in (0, 0.9)")
        if self.max_context_windows < 4:
            raise ConfigError("max_context_windows must be at least 4")
        if self.batch_size < 1 or self.samples_per_epoch < 1:
            raise ConfigError("batch_size and samples_per_epoch must be positive")
        if self.kernel_gamma <= 0:
            raise ConfigError("kernel_gamma must be positive")
        if not isinstance(self.fast_path, bool):
            raise ConfigError(
                f"fast_path must be True or False, got {self.fast_path!r}")

    # ------------------------------------------------------------------ #
    def with_window_for_block_size(self, average_block_size: float) -> "DeepMVIConfig":
        """Return a copy applying the paper's rule: use ``window=20`` when the
        average missing-block length exceeds 100, else keep the default."""
        window = 20 if average_block_size > 100 else self.window
        return replace(self, window=window)

    def ablated(self, **flags: bool) -> "DeepMVIConfig":
        """Return a copy with the given ablation flags applied."""
        return replace(self, **flags)

    @classmethod
    def paper_scale(cls, **overrides) -> "DeepMVIConfig":
        """The paper's default hyper-parameters (n_filters=32, etc.)."""
        params = dict(n_filters=32, window=10, n_heads=4, embedding_dim=10,
                      max_context_windows=256)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def fast(cls, **overrides) -> "DeepMVIConfig":
        """A small configuration for unit tests and quick smoke runs."""
        params = dict(n_filters=8, window=5, n_heads=2, embedding_dim=4,
                      max_context_windows=16, max_epochs=3,
                      samples_per_epoch=64, batch_size=16, patience=2)
        params.update(overrides)
        return cls(**params)
