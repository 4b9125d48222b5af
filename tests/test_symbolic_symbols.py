"""Symbol factories and the version-variable convention."""

import pytest

from repro.symbolic.symbols import (
    S_SYM,
    is_tile,
    is_version_var,
    param,
    tile,
    tile_name,
    version_components,
    version_var_name,
)


class TestFactories:
    def test_param_is_cached(self):
        assert param("N") is param("N")

    def test_param_reserved_names(self):
        with pytest.raises(ValueError):
            param("S")
        with pytest.raises(ValueError):
            param("X")

    def test_param_positive(self):
        assert param("N").is_positive

    def test_tile_naming_round_trip(self):
        assert tile_name(tile("i")) == "i"

    def test_tile_name_rejects_non_tile(self):
        with pytest.raises(ValueError):
            tile_name(param("N"))

    def test_is_tile(self):
        assert is_tile(tile("i"))
        assert not is_tile(param("N"))
        assert not is_tile(S_SYM)


class TestVersionVars:
    def test_name_round_trip(self):
        name = version_var_name(["k"])
        assert is_version_var(name)
        assert version_components(name) == ("k",)

    def test_multi_component(self):
        name = version_var_name(["c", "r", "s"])
        assert version_components(name) == ("c", "r", "s")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            version_var_name([])

    def test_components_of_plain_name_rejected(self):
        with pytest.raises(ValueError):
            version_components("k")
