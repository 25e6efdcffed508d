import subprocess
import sys

from helpers import package_env

import msrom
from msrom import bounds, cli, config, problems, solvers, spaces, spectral


def test_package_names_are_unique_and_resolve():
    names = msrom.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(msrom, name), name
    for module in (config, spaces, problems, spectral, solvers, bounds, cli):
        for name in module.__all__:
            assert getattr(msrom, name) is getattr(module, name), name
    # bound in the package namespace, so no lookup reaches __getattr__ again
    assert set(names) <= set(vars(msrom))


def test_validation_error_is_the_only_exception_class():
    # the library refuses with ValueError and a config with ValidationError;
    # no other exception class is public
    exceptions = [
        name
        for name in msrom.__all__
        if isinstance(getattr(msrom, name), type) and issubclass(getattr(msrom, name), Exception)
    ]
    assert exceptions == ["ValidationError"]


def run_fresh(code):
    """stdout of ``code`` in a new interpreter that imports the tested msrom."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_star_import_binds_every_public_name():
    out = run_fresh(
        "from msrom import *\n"
        "import msrom\n"
        "print(all(globals()[name] is getattr(msrom, name) for name in msrom.__all__))\n"
    )
    assert out == "True\n"


def test_dir_lists_every_public_name():
    out = run_fresh(
        "import msrom\n"
        "names = dir(msrom)\n"
        "print(set(msrom.__all__) <= set(names), names == sorted(names), 'config' in names)\n"
    )
    assert out == "True True True\n"


def test_unknown_name_raises_attribute_error_before_and_after_loading():
    out = run_fresh(
        "import msrom\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        msrom.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "print(hasattr(msrom, 'run_instance'), hasattr(msrom, 'no_such_name'))\n"
    )
    assert out == "module 'msrom' has no attribute 'no_such_name'\n" * 2 + "True False\n"
