import staircase


def test_every_exported_name_resolves():
    assert [name for name in staircase.__all__ if not hasattr(staircase, name)] == []
