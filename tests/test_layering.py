"""No module of slgp reaches scipy.

Importing scipy.linalg costs a fresh `slgp` process about 0.3 s of
start-up.  The solver's banded Cholesky (slgp.banded) calls LAPACK from
numpy's own OpenBLAS, so every module of the package uses numpy alone,
and a fresh process that plans must never load scipy.
"""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import slgp

NUMPY_ONLY = ["slgp", *(f"slgp.{info.name}"
                        for info in pkgutil.iter_modules(slgp.__path__))]


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


def test_a_fresh_process_plans_without_loading_scipy(tmp_path, fresh_python):
    script = f"""
import sys
import slgp
from slgp.cli import main
slgp.build_scenario(slgp.ScenarioParams(name="elbow"))
code = main(["plan", "--scenario", "elbow", "--out", {str(tmp_path)!r}])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    done = fresh_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
