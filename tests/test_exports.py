"""The package's export list names each public object once."""

import tancat


def test_every_export_resolves_once():
    names = tancat.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(tancat, n)]
    assert not missing, missing
