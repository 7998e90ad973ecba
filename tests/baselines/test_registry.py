"""Tests of the capability-aware plugin registry."""

import pytest

from repro.baselines.registry import (
    DEEPMVI_VARIANTS,
    ImputerRegistry,
    MethodInfo,
    get_registry,
    list_methods,
    method_info,
    register_imputer,
)
from repro.baselines.simple import MeanImputer
from repro.exceptions import ConfigError


class TestRegisterImputerDecorator:
    def test_round_trip(self):
        registry = ImputerRegistry()

        @registry.register_imputer("noop", kind="conventional",
                                   tags=("test",), summary="does nothing")
        class NoopImputer(MeanImputer):
            name = "Noop"

        info = registry.info("noop")
        assert info.factory is NoopImputer
        assert info.kind == "conventional"
        assert info.tags == ("test",)
        assert info.display_name == "noop"
        assert isinstance(registry.create("noop"), NoopImputer)

    def test_decorator_returns_factory_unchanged(self):
        registry = ImputerRegistry()

        @registry.register_imputer("noop2")
        class NoopImputer(MeanImputer):
            pass

        assert NoopImputer.__name__ == "NoopImputer"
        assert isinstance(NoopImputer(), MeanImputer)

    def test_module_level_decorator_targets_default_registry(self):
        name = "test-registry-probe"

        @register_imputer(name, kind="conventional", tags=("test",),
                          overwrite=True)
        class ProbeImputer(MeanImputer):
            pass

        assert name in get_registry()
        assert isinstance(get_registry().create(name), ProbeImputer)

    def test_duplicate_name_rejected(self):
        registry = ImputerRegistry()
        registry.register(MethodInfo("dup", MeanImputer))
        with pytest.raises(ConfigError, match="already registered"):
            registry.register(MethodInfo("dup", MeanImputer))

    def test_duplicate_allowed_with_overwrite(self):
        registry = ImputerRegistry()
        registry.register(MethodInfo("dup", MeanImputer))
        registry.register(MethodInfo("dup", MeanImputer, kind="deep"),
                          overwrite=True)
        assert registry.info("dup").kind == "deep"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            MethodInfo("bad", MeanImputer, kind="quantum")


class TestCapabilityQueries:
    def test_kind_filter_partitions_registry(self):
        deep = set(list_methods(kind="deep"))
        conventional = set(list_methods(kind="conventional"))
        assert not deep & conventional
        assert deep | conventional == set(list_methods())
        assert "deepmvi" in deep
        assert "cdrec" in conventional

    def test_tag_filter(self):
        ablations = list_methods(tags=("ablation",))
        assert set(ablations) == set(DEEPMVI_VARIANTS) - {"deepmvi"}

    def test_bare_string_tag_treated_as_single_tag(self):
        # A plain string must not be iterated character-wise (which would
        # silently match nothing).
        assert list_methods(tags="ablation") == list_methods(tags=("ablation",))
        assert list_methods(tags="paper")

    def test_bare_string_tag_accepted_at_registration(self):
        info = MethodInfo("string-tag-probe", MeanImputer, tags="custom")
        assert info.tags == ("custom",)

    def test_multidim_filter(self):
        multidim = list_methods(supports_multidim=True)
        assert "deepmvi" in multidim
        assert "deepmvi1d" not in multidim
        assert "mean" not in multidim

    def test_infos_carry_display_names_and_variants(self):
        info = method_info("deepmvi-no-tt")
        assert info.display_name == "DeepMVI-NoTT"
        assert info.variant_of == "deepmvi"
        assert method_info("deepmvi").variant_of is None

    BUILTINS = ["mean", "interpolation", "locf", "svdimp", "softimpute",
                "svt", "cdrec", "trmf", "stmvl", "dynammo", "tkcm", "brits",
                "mrnn", "gpvae", "transformer"] + sorted(DEEPMVI_VARIANTS)

    def test_every_builtin_has_a_summary(self):
        # Other tests may register probe methods without summaries, so only
        # the built-in entries are held to the documentation bar.
        for name in self.BUILTINS:
            assert method_info(name).summary, f"{name} has no summary"


class TestFuzzyErrors:
    def test_close_misspelling_gets_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean.*deepmvi"):
            get_registry().create("deepmv")

    def test_far_off_name_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            get_registry().create("zzzzzzzz")


class TestDeepMVIVariants:
    @pytest.mark.parametrize("variant", sorted(DEEPMVI_VARIANTS))
    def test_variant_resolves_with_ablation_flags(self, variant):
        imputer = get_registry().create(variant)
        for flag, value in DEEPMVI_VARIANTS[variant].items():
            assert getattr(imputer.config, flag) == value

    def test_variant_display_name_used_in_reports(self):
        assert get_registry().create("deepmvi1d").name == "DeepMVI1D"
