"""The package's public names: every export resolves, none is listed twice."""

import multiscale_markowitz


def test_every_export_resolves():
    missing = [name for name in multiscale_markowitz.__all__
               if not hasattr(multiscale_markowitz, name)]
    assert missing == []


def test_exports_are_unique():
    names = multiscale_markowitz.__all__
    assert len(names) == len(set(names))
