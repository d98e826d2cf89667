"""hkforge has no runtime dependency: every absolute import in its source is
from the Python standard library."""

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hkforge")


def absolute_imports(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_absolute_import_is_from_the_standard_library():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    foreign = [
        f"{os.path.basename(path)}:{line}: {name}"
        for path in paths
        for line, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"__future__"}
    ]
    assert foreign == []
