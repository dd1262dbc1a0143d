"""Access-pattern classification and the binding MSHR level."""

import pytest

from repro.core import (
    AccessPattern,
    classify_from_prefetch_fraction,
)
from repro.errors import ConfigurationError


class TestPrefetchFractionClassifier:
    def test_random_below_threshold(self):
        c = classify_from_prefetch_fraction(0.05)
        assert c.pattern is AccessPattern.RANDOM
        assert c.binding_level == 1

    def test_streaming_above_threshold(self):
        c = classify_from_prefetch_fraction(0.8)
        assert c.pattern is AccessPattern.STREAMING
        assert c.binding_level == 2

    def test_mixed_in_between(self):
        c = classify_from_prefetch_fraction(0.35)
        assert c.pattern is AccessPattern.MIXED
        assert c.binding_level == 2

    def test_rationale_mentions_coverage(self):
        assert "5%" in classify_from_prefetch_fraction(0.05).rationale

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            classify_from_prefetch_fraction(bad)
