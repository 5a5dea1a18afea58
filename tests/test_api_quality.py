"""Meta-tests on the public API surface: documentation and exports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.rmath",
    "repro.geometry",
    "repro.materials",
    "repro.lighting",
    "repro.scene",
    "repro.accel",
    "repro.render",
    "repro.coherence",
    "repro.cluster",
    "repro.parallel",
    "repro.runtime",
    "repro.imageio",
    "repro.scenes",
    "repro.bench",
    "repro.cli",
]


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_module_has_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a module docstring"


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_all_exports_resolve_and_are_documented(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        assert hasattr(mod, name), f"{modname}.__all__ lists missing name {name!r}"
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert (
                obj.__doc__ and obj.__doc__.strip()
            ), f"{modname}.{name} is public but undocumented"


def test_every_source_module_has_docstring():
    undocumented = []
    for mod_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if mod_info.name == "repro.__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(mod_info.name)
        if not (mod.__doc__ and mod.__doc__.strip()):
            undocumented.append(mod_info.name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_public_classes_have_documented_public_methods():
    """Spot-check the flagship classes' public methods."""
    from repro.coherence import CoherentRenderer, VoxelPixelMap
    from repro.cluster import VirtualPVM
    from repro.render import RayTracer

    for cls in (CoherentRenderer, VoxelPixelMap, VirtualPVM, RayTracer):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} is undocumented"


def test_one_atomic_write_site():
    """Every file renamed into place under ``src/`` goes through
    ``repro.durable.atomic_write``: ``os.replace`` (or ``os.rename``) is
    called in that one function and nowhere else."""
    renames = ("replace", "rename")
    sites = []

    class Sites(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in renames
                    and isinstance(f.value, ast.Name) and f.value.id == "os"):
                sites.append(".".join(self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "os" and any(a.name in renames for a in node.names):
                sites.append(".".join(self.scope) + " (from os import)")

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        Sites(module).visit(ast.parse(path.read_text(), filename=str(path)))
    assert sites == ["repro.durable.atomic_write"]


def test_version_string():
    assert repro.__version__ == "1.0.0"
