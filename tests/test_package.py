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


def test_validation_error_is_the_only_exception_class():
    # the library refuses with ValueError and a config with ValidationError;
    # no other exception class is public
    exceptions = [
        name
        for name in msrom.__all__
        if isinstance(getattr(msrom, name), type) and issubclass(getattr(msrom, name), Exception)
    ]
    assert exceptions == ["ValidationError"]
