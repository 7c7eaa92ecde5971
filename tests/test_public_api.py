"""The package's public surface: every exported name exists, once."""
import symdef


def test_all_names_resolve():
    missing = [name for name in symdef.__all__ if not hasattr(symdef, name)]
    assert missing == []


def test_all_names_unique():
    assert len(symdef.__all__) == len(set(symdef.__all__))
