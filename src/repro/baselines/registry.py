"""Capability-aware plugin registry for imputation methods.

Every method is described by a :class:`MethodInfo` record — its factory plus
serving-relevant capabilities (``kind``, ``tags``, ``supports_multidim``) —
held in an :class:`ImputerRegistry`.  New methods plug in with the
:func:`register_imputer` decorator::

    from repro.baselines.registry import register_imputer

    @register_imputer("my-method", kind="conventional", tags=("example",))
    class MyImputer(BaseImputer):
        ...

and are then creatable by name everywhere (service API, CLI, experiment
engine, benchmarks)::

    from repro.baselines.registry import get_registry

    imputer = get_registry().create("my-method")

Capability queries answer "what can serve this workload":
``list_method_infos(kind="deep")``, ``list_method_infos(tags=("ablation",))``
or ``list_method_infos(supports_multidim=True)``.  Unknown names fail with a
"did you mean" suggestion instead of a bare list dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.base import BaseImputer
from repro.baselines.brits import BRITSImputer
from repro.baselines.cdrec import CDRecImputer
from repro.baselines.dynammo import DynaMMoImputer
from repro.baselines.gpvae import GPVAEImputer
from repro.baselines.mrnn import MRNNImputer
from repro.baselines.simple import (
    FittedMeanImputer,
    LinearInterpolationImputer,
    LOCFImputer,
    MeanImputer,
)
from repro.baselines.stmvl import STMVLImputer
from repro.baselines.svd import SoftImputeImputer, SVDImputer, SVTImputer
from repro.baselines.tkcm import TKCMImputer
from repro.baselines.transformer import TransformerImputer
from repro.baselines.trmf import TRMFImputer
from repro.exceptions import ConfigError, did_you_mean

#: the two method kinds the paper's evaluation distinguishes
KINDS = ("conventional", "deep")


@dataclass(frozen=True)
class MethodInfo:
    """Registry record: how to build a method and what it is capable of.

    Parameters
    ----------
    name:
        Lower-case registry key (what users type).
    factory:
        Callable returning a fresh unfitted :class:`BaseImputer`.
    kind:
        ``"conventional"`` (matrix/statistical methods) or ``"deep"``
        (gradient-trained networks).
    tags:
        Free-form capability markers, e.g. ``("matrix-completion",)`` or
        ``("ablation", "paper")``.
    supports_multidim:
        True when the method *exploits* a multidimensional index
        (store × product) rather than flattening it to anonymous series.
    display_name:
        Name reported in result tables; defaults to ``name``.
    summary:
        One-line human description for ``cli list``.
    variant_of:
        Base method name when this entry is an ablation/variant.
    """

    name: str
    factory: Callable[..., BaseImputer]
    kind: str = "conventional"
    tags: Tuple[str, ...] = ()
    supports_multidim: bool = False
    display_name: Optional[str] = None
    summary: str = ""
    variant_of: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(
                f"method {self.name!r}: kind must be one of {KINDS}, "
                f"got {self.kind!r}")
        object.__setattr__(self, "name", self.name.lower())
        # A bare string would explode into per-character tags.
        object.__setattr__(self, "tags",
                           (self.tags,) if isinstance(self.tags, str)
                           else tuple(self.tags))
        if self.display_name is None:
            object.__setattr__(self, "display_name", self.name)

    def create(self, **kwargs) -> BaseImputer:
        """Instantiate a fresh imputer for this method."""
        return self.factory(**kwargs)

    def matches(self, kind: Optional[str] = None,
                tags: Optional[Iterable[str]] = None,
                supports_multidim: Optional[bool] = None) -> bool:
        """True when this method satisfies every given capability filter."""
        if kind is not None and self.kind != kind:
            return False
        if tags is not None:
            # A bare string would be iterated character-wise and silently
            # match nothing; treat it as a single tag.
            wanted = {tags} if isinstance(tags, str) else set(tags)
            if not wanted.issubset(self.tags):
                return False
        if supports_multidim is not None and \
                self.supports_multidim != supports_multidim:
            return False
        return True


class ImputerRegistry:
    """Name → :class:`MethodInfo` store with capability queries."""

    def __init__(self) -> None:
        self._methods: Dict[str, MethodInfo] = {}

    # -- registration --------------------------------------------------- #
    def register(self, info: MethodInfo, overwrite: bool = False) -> MethodInfo:
        """Add ``info``; duplicate names are rejected unless ``overwrite``."""
        if not overwrite and info.name in self._methods:
            raise ConfigError(
                f"method {info.name!r} is already registered; pass "
                "overwrite=True to replace it")
        self._methods[info.name] = info
        return info

    def register_imputer(self, name: str, *, kind: str = "conventional",
                         tags: Sequence[str] = (),
                         supports_multidim: bool = False,
                         display_name: Optional[str] = None,
                         summary: str = "",
                         variant_of: Optional[str] = None,
                         overwrite: bool = False) -> Callable:
        """Decorator registering a factory (class or function) under ``name``.

        Returns the factory unchanged, so it works directly on imputer
        classes::

            @registry.register_imputer("noop", kind="conventional")
            class NoopImputer(BaseImputer): ...
        """
        def decorator(factory: Callable[..., BaseImputer]):
            self.register(MethodInfo(
                name=name, factory=factory, kind=kind, tags=tuple(tags),
                supports_multidim=supports_multidim,
                display_name=display_name, summary=summary,
                variant_of=variant_of), overwrite=overwrite)
            return factory
        return decorator

    # -- lookup --------------------------------------------------------- #
    def __contains__(self, name: str) -> bool:
        return str(name).lower() in self._methods

    def info(self, name: str) -> MethodInfo:
        """The :class:`MethodInfo` for ``name``, or a "did you mean" error."""
        key = str(name).lower()
        try:
            return self._methods[key]
        except KeyError:
            raise ConfigError(self._unknown_message(key)) from None

    def create(self, name: str, **kwargs) -> BaseImputer:
        """Instantiate a method by registry name."""
        return self.info(name).create(**kwargs)

    def _unknown_message(self, key: str) -> str:
        return did_you_mean(key, self._methods, noun="method")

    # -- capability queries --------------------------------------------- #
    def list_infos(self, kind: Optional[str] = None,
                   tags: Optional[Iterable[str]] = None,
                   supports_multidim: Optional[bool] = None) -> List[MethodInfo]:
        """All matching :class:`MethodInfo` records, sorted by name."""
        return [self._methods[name] for name in sorted(self._methods)
                if self._methods[name].matches(kind, tags, supports_multidim)]

    def list_names(self, **filters) -> List[str]:
        """Names of all matching methods, sorted."""
        return [info.name for info in self.list_infos(**filters)]


# ---------------------------------------------------------------------- #
# the default registry and its built-in methods
# ---------------------------------------------------------------------- #
_REGISTRY = ImputerRegistry()


def get_registry() -> ImputerRegistry:
    """The process-wide default registry used by the service API and CLI."""
    return _REGISTRY


def register_imputer(name: str, **capabilities) -> Callable:
    """Decorator registering a method on the default registry.

    See :meth:`ImputerRegistry.register_imputer` for the keyword options
    (``kind``, ``tags``, ``supports_multidim``, ``display_name``,
    ``summary``, ``variant_of``, ``overwrite``).
    """
    return _REGISTRY.register_imputer(name, **capabilities)


_CONVENTIONAL = [
    MethodInfo("mean", MeanImputer, tags=("streaming", "simple",),
               display_name="Mean", summary="per-series mean fill"),
    MethodInfo("fitted-mean", FittedMeanImputer,
               tags=("streaming", "simple", "online"),
               display_name="FittedMean", variant_of="mean",
               summary="per-series mean learned at fit time "
                       "(drift-sensitive)"),
    MethodInfo("interpolation", LinearInterpolationImputer, tags=("streaming", "simple",),
               display_name="LinearInterp",
               summary="linear interpolation along time"),
    MethodInfo("locf", LOCFImputer, tags=("streaming", "simple",),
               display_name="LOCF", summary="last observation carried forward"),
    MethodInfo("svdimp", SVDImputer, tags=("streaming", "matrix-completion",),
               display_name="SVDImp", summary="iterative truncated-SVD completion"),
    MethodInfo("softimpute", SoftImputeImputer, tags=("streaming", "matrix-completion",),
               display_name="SoftImpute",
               summary="soft-thresholded SVD completion"),
    MethodInfo("svt", SVTImputer, tags=("streaming", "matrix-completion",),
               display_name="SVT", summary="singular value thresholding"),
    MethodInfo("cdrec", CDRecImputer, tags=("streaming", "matrix-completion", "paper"),
               display_name="CDRec", summary="centroid decomposition recovery"),
    MethodInfo("trmf", TRMFImputer, tags=("matrix-factorisation", "paper"),
               display_name="TRMF", summary="temporal-regularised matrix factorisation"),
    MethodInfo("stmvl", STMVLImputer, tags=("paper",),
               display_name="ST-MVL", summary="spatio-temporal multi-view learning"),
    MethodInfo("dynammo", DynaMMoImputer, tags=("state-space", "paper"),
               display_name="DynaMMo", summary="linear dynamical system EM"),
    MethodInfo("tkcm", TKCMImputer, tags=("pattern-matching", "paper"),
               display_name="TKCM", summary="top-k case matching"),
]

_DEEP_BASELINES = [
    MethodInfo("brits", BRITSImputer, kind="deep", tags=("rnn", "paper"),
               display_name="BRITS", summary="bidirectional recurrent imputation"),
    MethodInfo("mrnn", MRNNImputer, kind="deep", tags=("rnn", "paper"),
               display_name="MRNN", summary="multi-directional recurrent network"),
    MethodInfo("gpvae", GPVAEImputer, kind="deep", tags=("vae", "paper"),
               display_name="GP-VAE", summary="Gaussian-process prior VAE"),
    MethodInfo("transformer", TransformerImputer, kind="deep",
               tags=("attention", "paper"),
               display_name="Transformer", summary="self-attention imputation"),
]

for _info in _CONVENTIONAL + _DEEP_BASELINES:
    _REGISTRY.register(_info)
del _info


# ---------------------------------------------------------------------- #
# DeepMVI and its ablation variants (Section 5.5)
# ---------------------------------------------------------------------- #
#: one row per variant: (ablation flags, display name, summary)
_DEEPMVI_VARIANT_TABLE: Dict[str, Tuple[Dict[str, bool], str, str]] = {
    "deepmvi": (
        {}, "DeepMVI",
        "the paper's model: transformer + kernel regression"),
    "deepmvi1d": (
        {"flatten_dimensions": True}, "DeepMVI1D",
        "index flattened to anonymous series (Section 5.5.4)"),
    "deepmvi-no-tt": (
        {"use_temporal_transformer": False}, "DeepMVI-NoTT",
        "ablation: temporal transformer disabled"),
    "deepmvi-no-context": (
        {"use_context_window": False}, "DeepMVI-NoContext",
        "ablation: window context keys disabled"),
    "deepmvi-no-kr": (
        {"use_kernel_regression": False}, "DeepMVI-NoKR",
        "ablation: kernel regression disabled"),
    "deepmvi-no-fg": (
        {"use_fine_grained": False}, "DeepMVI-NoFG",
        "ablation: fine-grained signal disabled"),
}

#: ablation flags per variant name (public, kept for callers of PR 1 vintage)
DEEPMVI_VARIANTS: Dict[str, Dict[str, bool]] = {
    name: flags for name, (flags, _, _) in _DEEPMVI_VARIANT_TABLE.items()}

_DEEPMVI_DISPLAY_NAMES: Dict[str, str] = {
    name: display for name, (_, display, _) in _DEEPMVI_VARIANT_TABLE.items()}


def _deepmvi_factory(variant: str) -> Callable[..., BaseImputer]:
    """Factory for one DeepMVI variant.

    Resolution is lazy to avoid a circular import between the baselines and
    the core package.
    """
    def factory(**kwargs) -> BaseImputer:
        from repro.core.config import DeepMVIConfig
        from repro.core.imputer import DeepMVIImputer

        config = kwargs.pop("config", None) or DeepMVIConfig(**kwargs)
        flags = DEEPMVI_VARIANTS[variant]
        if flags:
            config = config.ablated(**flags)
        imputer = DeepMVIImputer(config=config)
        imputer.name = _DEEPMVI_DISPLAY_NAMES[variant]
        return imputer

    factory.__name__ = f"make_{variant.replace('-', '_')}"
    return factory


for _variant, (_, _display, _summary) in _DEEPMVI_VARIANT_TABLE.items():
    _REGISTRY.register(MethodInfo(
        name=_variant,
        factory=_deepmvi_factory(_variant),
        kind="deep",
        # The base model is streaming-capable through warm-start serving
        # (fit once offline, impute windows without refit); the ablation
        # variants exist for the paper's Section 5.5 grids only.
        tags=("paper", "streaming") if _variant == "deepmvi"
        else ("paper", "ablation"),
        # DeepMVI1D deliberately flattens the index, so it does not *exploit*
        # multidimensional structure even though it accepts such tensors.
        supports_multidim=_variant != "deepmvi1d",
        display_name=_display,
        summary=_summary,
        variant_of=None if _variant == "deepmvi" else "deepmvi",
    ))
del _variant, _display, _summary


# ---------------------------------------------------------------------- #
# public module-level queries
# ---------------------------------------------------------------------- #
def method_info(name: str) -> MethodInfo:
    """The :class:`MethodInfo` registered under ``name``."""
    return _REGISTRY.info(name)


def list_method_infos(kind: Optional[str] = None,
                      tags: Optional[Iterable[str]] = None,
                      supports_multidim: Optional[bool] = None) -> List[MethodInfo]:
    """Capability query over the default registry, sorted by name."""
    return _REGISTRY.list_infos(kind=kind, tags=tags,
                                supports_multidim=supports_multidim)


def list_methods(kind: Optional[str] = None,
                 tags: Optional[Iterable[str]] = None,
                 supports_multidim: Optional[bool] = None) -> List[str]:
    """All registered method names matching the capability filters."""
    return _REGISTRY.list_names(kind=kind, tags=tags,
                                supports_multidim=supports_multidim)
