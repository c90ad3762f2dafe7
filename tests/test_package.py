import hyperflow


def test_every_exported_name_resolves():
    missing = [name for name in hyperflow.__all__ if not hasattr(hyperflow, name)]
    assert missing == []
