"""Package-level contracts: imports, exports, and the documented quickstarts."""

import ast
import doctest
import importlib
import pathlib
import pkgutil

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every module of the package except the ``__main__`` entry points.
MODULES = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
]


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
    # The package and every subpackage: a name deleted from its module
    # but left in an export list fails here.
    for module_name in ["repro", *MODULES]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (
                f"{module_name}.__all__ names missing symbol {name}"
            )


def _unused_imports(source):
    """Names a module imports and never reads; ``__all__`` reads its own."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        str(path.relative_to(REPO_ROOT)): found
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _default_executor_calls(source):
    """Lines that hand ``run_in_executor`` the loop's default executor."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_in_executor"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value is None
    ]


def test_service_cpu_work_never_runs_on_the_default_executor():
    # The service runs CPU work on its one CPU thread.  The default
    # executor serves asyncio's own blocking calls (getaddrinfo), so work
    # put there would contend with the batches and delay binds.
    assert _default_executor_calls(
        "loop.run_in_executor(None, work)\nloop.run_in_executor(pool, work)"
    ) == [1]
    offenders = {
        str(path.relative_to(REPO_ROOT)): lines
        for path in sorted(
            (REPO_ROOT / "src" / "repro" / "service").rglob("*.py")
        )
        if (lines := _default_executor_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_package_docstring_quickstart():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


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
