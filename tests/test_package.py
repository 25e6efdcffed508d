import msrom
from msrom import bounds, cli, problems, solvers, spaces, spectral


def test_package_names_are_unique_and_resolve():
    names = msrom.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(msrom, name), name
    for module in (spaces, problems, spectral, solvers, bounds, cli):
        for name in module.__all__:
            assert getattr(msrom, name) is getattr(module, name), name
