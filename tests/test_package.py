"""Tests for the package's public surface."""

import gmcfar


def test_every_export_resolves():
    missing = [name for name in gmcfar.__all__ if not hasattr(gmcfar, name)]
    assert missing == []
