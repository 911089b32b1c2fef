"""The package's lazy export table."""

import vdelab


def test_public_names_resolve():
    for name in vdelab.__all__:
        assert getattr(vdelab, name) is not None, name
    assert dir(vdelab) == sorted(vdelab.__all__)
