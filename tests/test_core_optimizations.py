"""The Section III-C optimization catalog."""

from repro.core import CATALOG, OptimizationKind, info


class TestCatalogCompleteness:
    def test_every_kind_has_an_entry(self):
        assert set(CATALOG) == set(OptimizationKind)

    def test_every_entry_has_guidance(self):
        for entry in CATALOG.values():
            assert entry.guidance

    def test_info_lookup(self):
        assert info(OptimizationKind.SMT).name == "smt"
