"""The package's modules reach each other only through imports of public
names, with a short list of exceptions, and the run's generated code has one
home, neurofl.generated."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "neurofl"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# (importing module, imported module, private name). The first entry is bound
# where bench/child.py patches it; the rest are rules on a run's inputs,
# which the config layer applies at load (and run_closed_loop the leakage
# rule again).
PRIVATE_IMPORTS = {
    ("controller", "rbf", "_adapt_with_phi"),
    ("simulation", "rbf", "_check_leakage_step"),
    ("config", "rbf", "_check_leakage_step"),
    ("config", "simulation", "_control_steps"),
    ("config", "simulation", "_disturbance_horizon"),
    ("config", "simulation", "_initial_state"),
    ("config", "plants", "_check_sinusoid_angle"),
    ("config", "plants", "_noise_sample_count"),
}


def tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(module, top_level_only=False):
    """(imported module, name) of each `from .module import name`."""
    nodes = tree(module).body if top_level_only else ast.walk(tree(module))
    return [
        (node.module, alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


def test_every_private_import_is_allowed():
    found = {(module, source, name) for module in MODULES for source, name in relative_imports(module) if name[0] == "_"}
    assert found == PRIVATE_IMPORTS


def test_no_allowed_private_import_is_a_generation_name():
    generated = set()
    for node in tree("generated").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            generated.add(node.name)
        elif isinstance(node, ast.Assign):
            generated.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert {"_as_fault", "_end", "_GLOBALS", "_loop_code", "_function_code"} <= generated
    assert not generated & {name for _, _, name in PRIVATE_IMPORTS}


def test_only_the_generated_module_writes_linecache():
    def writes_linecache(module):
        return any(
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and ast.unparse(node.value) == "linecache.cache"
            for node in ast.walk(tree(module))
        )

    assert [module for module in MODULES if writes_linecache(module)] == ["generated"]


def test_module_imports_form_no_cycle():
    edges = {module: {source for source, _ in relative_imports(module, top_level_only=True)} for module in MODULES}
    done = set()
    while len(done) < len(edges):
        ready = {module for module, needs in edges.items() if module not in done and needs <= done}
        assert ready, {module: needs - done for module, needs in edges.items() if module not in done}
        done |= ready
    assert edges["generated"] == {"errors", "plants"}


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_module_finds_another_at_run_time(module):
    # a module reaches another through an import, which the tests above
    # see, never through sys.modules or a module path in a string
    others = [other for other in MODULES if other != module]
    named = re.compile(rf"(?:^|\bneurofl)\.(?:{'|'.join(others)})\b")
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Attribute):
            assert ast.unparse(node) != "sys.modules", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            assert "modules" not in {alias.name for alias in node.names}, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not named.search(node.value), (node.lineno, node.value)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(module):
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import neurofl.{module}"
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_the_library_import_leaves_argparse_to_the_cli():
    # nor does it, or building a config (whose GainVector runs the Routh
    # check on integers), load fractions or decimal
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import neurofl, neurofl.cli; "
        "assert 'argparse' not in sys.modules, 'argparse'; "
        "neurofl.config.config_from_dict({'plant': {'name': 'pendulum'}}); "
        "loaded = {'fractions', 'decimal'} & set(sys.modules); assert not loaded, loaded; "
        "sys.exit(neurofl.cli.main(['--version']))"
    )
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("neurofl ")


def test_only_three_classes_are_dataclasses():
    # a dataclass compiles its generated methods at import; the three kept
    # are those whose dataclass API callers use (dataclasses.replace on a
    # plant or a network, the config schema on ExperimentConfig's fields)
    import dataclasses
    import importlib

    found = {
        f"{obj.__module__}.{obj.__qualname__}"
        for module in MODULES
        for obj in vars(importlib.import_module(f"neurofl.{module}")).values()
        if isinstance(obj, type) and obj.__module__.startswith("neurofl.") and dataclasses.is_dataclass(obj)
    }
    assert found == {"neurofl.plants.PlantModel", "neurofl.rbf.RbfNetwork", "neurofl.config.ExperimentConfig"}
