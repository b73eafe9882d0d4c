import arcschemes


def test_every_export_resolves_once():
    names = arcschemes.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(arcschemes, name)] == []
