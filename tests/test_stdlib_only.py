"""hkforge has no runtime dependency: every absolute import in its source is
from the Python standard library.  Nor does it read its environment: every
limit is a module constant, read at call time and changed at run time only by
a CLI flag, never frozen into a parameter or argparse default.  And its
arithmetic is exact: no float literal, no `float` or `math` name and no true
division, so every length it prints is an int or a Fraction."""

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "hkforge")


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def source_paths():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    return paths


def absolute_imports(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def environment_reads(path):
    """Lines that name os.environ or os.getenv, as an attribute of the
    module or imported from it."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield node.lineno, f"from os import {alias.name}"


def inexact_uses(path):
    """Lines with a float literal, the name `float` or `math`, or a true
    division `/` (a Fraction is divided by calling Fraction)."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "math"):
            yield node.lineno, node.id
        elif isinstance(getattr(node, "op", None), ast.Div):
            yield node.lineno, "/"


def module_constants():
    """Upper-case names bound at the top level of some hkforge module."""
    return {
        target.id
        for path in source_paths()
        for node in parse(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }


def frozen_limits(path, constants):
    """Lines where a parameter default or an argparse ``default=`` names a
    module constant: such a value is captured once, at import or when the
    parser is built, so rebinding the constant would not change it."""
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            defaults = [k.value for k in node.keywords if k.arg == "default"]
        else:
            continue
        for default in defaults:
            for sub in ast.walk(default):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in constants:
                    yield sub.lineno, name


def test_every_absolute_import_is_from_the_standard_library():
    foreign = [
        f"{os.path.basename(path)}:{line}: {name}"
        for path in source_paths()
        for line, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"__future__"}
    ]
    assert foreign == []


def test_no_module_reads_the_environment():
    reads = [
        f"{os.path.basename(path)}:{line}: {name}"
        for path in source_paths()
        for line, name in environment_reads(path)
    ]
    assert reads == []


def test_no_module_leaves_exact_arithmetic():
    uses = [
        f"{os.path.basename(path)}:{line}: {name}"
        for path in source_paths()
        for line, name in inexact_uses(path)
    ]
    assert uses == []


def test_every_limit_is_read_at_call_time():
    constants = module_constants()
    assert {"MAX_PAIRS", "MAX_TERMS", "MAX_GROUP", "MAX_DEGREE", "MAX_COLUMNS"} <= constants
    frozen = [
        f"{os.path.basename(path)}:{line}: {name}"
        for path in source_paths()
        for line, name in frozen_limits(path, constants)
    ]
    assert frozen == []
