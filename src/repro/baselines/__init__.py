"""Comparison methods: conventional and deep-learning imputation baselines.

Every method implements the :class:`repro.baselines.base.BaseImputer`
protocol (``fit``, ``impute``, ``fit_impute``) over a
:class:`repro.data.tensor.TimeSeriesTensor`, so the evaluation harness can
treat them uniformly.  Methods are described by
:class:`repro.baselines.registry.MethodInfo` records in a capability-aware
plugin registry; instantiate by name via
``repro.baselines.registry.get_registry().create(name, ...)`` (or the
service-layer :func:`repro.api.make_imputer`) and plug in new methods with
the :func:`repro.baselines.registry.register_imputer` decorator.
"""

from repro.baselines.base import BaseImputer, MatrixImputer
from repro.baselines.simple import MeanImputer, LinearInterpolationImputer, LOCFImputer
from repro.baselines.svd import SVDImputer, SoftImputeImputer, SVTImputer
from repro.baselines.cdrec import CDRecImputer
from repro.baselines.trmf import TRMFImputer
from repro.baselines.stmvl import STMVLImputer
from repro.baselines.dynammo import DynaMMoImputer
from repro.baselines.tkcm import TKCMImputer
from repro.baselines.brits import BRITSImputer
from repro.baselines.mrnn import MRNNImputer
from repro.baselines.gpvae import GPVAEImputer
from repro.baselines.transformer import TransformerImputer
from repro.baselines.registry import (
    ImputerRegistry,
    MethodInfo,
    get_registry,
    list_method_infos,
    list_methods,
    method_info,
    register_imputer,
)

__all__ = [
    "ImputerRegistry",
    "MethodInfo",
    "get_registry",
    "list_method_infos",
    "method_info",
    "register_imputer",
    "BaseImputer",
    "MatrixImputer",
    "MeanImputer",
    "LinearInterpolationImputer",
    "LOCFImputer",
    "SVDImputer",
    "SoftImputeImputer",
    "SVTImputer",
    "CDRecImputer",
    "TRMFImputer",
    "STMVLImputer",
    "DynaMMoImputer",
    "TKCMImputer",
    "BRITSImputer",
    "MRNNImputer",
    "GPVAEImputer",
    "TransformerImputer",
    "list_methods",
]
