"""Utility helpers: unique_in_order, UnionFind, error hierarchy."""

import pytest

from repro.util import unique_in_order
from repro.util.errors import (
    FrontendError,
    NotSoapError,
    PebblingError,
    SoapError,
    SolverError,
)
from repro.util.unionfind import UnionFind


class TestOrderedSet:
    """``repro.util.orderedsets``: deterministic first-occurrence order."""

    def test_unique_in_order(self):
        assert unique_in_order("abcabd") == ["a", "b", "c", "d"]


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        assert not uf.same("a", "b")

    def test_union_and_find(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")

    def test_representative_is_earliest(self):
        uf = UnionFind()
        for item in "abcd":
            uf.add(item)
        uf.union("d", "b")
        uf.union("c", "d")
        assert uf.find("c") == "b"

    def test_groups_deterministic(self):
        uf = UnionFind()
        for item in "abcde":
            uf.add(item)
        uf.union("a", "c")
        uf.union("d", "e")
        assert uf.groups() == [["a", "c"], ["b"], ["d", "e"]]

    def test_find_adds_implicitly(self):
        uf = UnionFind()
        assert uf.find("x") == "x"


class TestErrors:
    @pytest.mark.parametrize(
        "err", [NotSoapError, FrontendError, SolverError, PebblingError]
    )
    def test_hierarchy(self, err):
        assert issubclass(err, SoapError)

    def test_catchable_as_base(self):
        with pytest.raises(SoapError):
            raise FrontendError("nope")
