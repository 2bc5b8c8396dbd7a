"""Which modules may reach scipy.

scipy's LAPACK wrappers run in its own multi-threaded BLAS, where each
call on an idle machine can stall for milliseconds, and importing
scipy.linalg dominates the start-up of a fresh process.  Only
slgp.banded, the solver's banded Cholesky, calls them; every other module
of the package, the Laplace elimination, its readers and the per-step
controller among them, uses numpy alone.
"""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import slgp

NUMPY_ONLY = ["slgp", *(f"slgp.{info.name}"
                        for info in pkgutil.iter_modules(slgp.__path__)
                        if info.name != "banded")]


@pytest.mark.parametrize("name", NUMPY_ONLY)
def test_module_holds_no_reference_to_scipy(name):
    module = importlib.import_module(name)
    for attr, value in vars(module).items():
        owner = (value.__name__ if isinstance(value, types.ModuleType)
                 else getattr(value, "__module__", None) or "")
        assert not owner.startswith("scipy"), f"{name}.{attr} comes from {owner}"
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "scipy" for n in names), \
            f"{name} imports {names} at line {node.lineno}"
