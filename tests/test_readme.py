"""The Python snippets in README.md name only API that exists.

Each ```python block is parsed and compiled, and every attribute it reads
from a ``moclab`` module (or from a class of one) is looked up, without
running the snippet.  Deleting or renaming an API the README still shows
fails here.
"""
import ast
import importlib
import pathlib
import re
import types

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def _imported(tree):
    """Local name -> object for each ``from moclab... import name``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "moclab":
            for alias in node.names:
                try:
                    obj = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module),
                                  alias.name)
                bound[alias.asname or alias.name] = obj
    return bound


def _missing(node, bound, out):
    """Resolve an attribute chain rooted at an imported name; collect the
    names a module or class lacks."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    owner = _missing(node.value, bound, out)
    if not isinstance(owner, (types.ModuleType, type)):
        return None
    fields = getattr(owner, "__dataclass_fields__", {})
    if not hasattr(owner, node.attr) and node.attr not in fields:
        out.append(f"{owner.__name__}.{node.attr}")
    return getattr(owner, node.attr, None)


def test_readme_has_python_snippets():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_snippet_names_existing_api(block):
    tree = ast.parse(block)
    compile(tree, str(README), "exec")
    bound = _imported(tree)
    assert bound, "snippet imports nothing from moclab"
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _missing(node, bound, missing)
    assert not missing, missing
