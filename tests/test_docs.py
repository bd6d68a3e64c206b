"""Docstring cross-references of the package resolve.

Every :func:, :class: and :mod: target in a docstring under
``src/jgreens`` must name an object that exists: written in full
(``jgreens.jacobi.tail_ratio``), relative to the package
(``jacobi.tail_ratio``) or in the module that holds the docstring
(``tail_ratio``). numpy targets are not checked.
"""

import ast
import importlib
import pathlib
import re

import pytest

import jgreens

_ROLE = re.compile(r":(?:func|class|mod):`~?([^`]+)`")
_PACKAGE = pathlib.Path(jgreens.__file__).parent


def _references():
    for path in sorted(_PACKAGE.glob("*.py")):
        module = "jgreens" if path.stem == "__init__" \
            else f"jgreens.{path.stem}"
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for target in _ROLE.findall(ast.get_docstring(node) or ""):
                target = re.sub(r"\s+", "", target).removesuffix("()")
                if target.split(".")[0] not in ("numpy", "np"):
                    yield module, target


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docstring_references_resolve():
    references = sorted(set(_references()))
    assert len(references) > 40  # the scan finds the references at all
    stale = [f"{module}: {target}" for module, target in references
             if not any(_resolves(name) for name in
                        (target, f"jgreens.{target}", f"{module}.{target}"))]
    assert stale == []
