"""Package-level contracts: imports, exports, and the documented quickstarts."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_public_imports():
    from repro import (  # noqa: F401
        broadcast,
        compete,
        elect_leader,
        Compete,
        CompeteParameters,
        CompeteResult,
        BroadcastResult,
        LeaderElectionResult,
        ProtocolRunner,
        RunResult,
        StopReason,
        RadioNetwork,
        CollisionModel,
        Graph,
    )


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ names missing symbol {name}"


def test_package_docstring_quickstart():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


#: Every module of the package except the ``__main__`` entry points.
MODULES = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    # Attribute access like ``repro.core.compete`` resolves to the
    # convenience *function* re-exported by the package, so fetch the
    # module via importlib.
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"doctest failure in {name}"


def test_readme_quickstart():
    readme = REPO_ROOT / "README.md"
    assert readme.exists(), "README.md missing"
    results = doctest.testfile(
        str(readme), module_relative=False, verbose=False
    )
    assert results.attempted > 0, "README.md contains no doctest examples"
    assert results.failed == 0
