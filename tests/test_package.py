"""The package's public names."""

import finsler


def test_every_exported_name_resolves():
    # a deleted definition must not leave its name behind in __all__
    assert len(set(finsler.__all__)) == len(finsler.__all__)
    assert [name for name in finsler.__all__ if not hasattr(finsler, name)] == []
