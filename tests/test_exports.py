import pezzo


def test_every_export_resolves():
    missing = [name for name in pezzo.__all__ if not hasattr(pezzo, name)]
    assert missing == []
    assert len(set(pezzo.__all__)) == len(pezzo.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pezzo import *", namespace)
    assert set(pezzo.__all__) <= set(namespace)

