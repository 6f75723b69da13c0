"""The package is layered: each module imports only modules below it.

Imports are read from the source with ``ast``, those inside functions
included, so a local import cannot hide an upward edge.  The same
reading finds every error class that nothing raises."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "siot"

LAYERS = ("errors", "util", "field", "curve", "isogeny", "pairing", "sidh",
          "siot", "baseline_ot", "wire", "transport", "runner", "analysis",
          "cli", "__init__")


def _siot_imports(tree):
    """Names of the package modules imported anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:      # from . import x
                yield from (alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("siot."):
                yield node.module.split(".")[-1]
            elif node.module == "siot":                      # the package
                yield "__init__"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("siot."):
                    yield alias.name.split(".")[1]


def test_modules_import_only_lower_layers():
    upward = []
    for path in sorted(SRC.glob("*.py")):
        rank = LAYERS.index(path.stem)      # a new module needs a layer
        for name in _siot_imports(ast.parse(path.read_text(), str(path))):
            if name not in LAYERS[:rank]:
                upward.append(f"{path.stem} -> {name}")
    assert upward == []


def _raised_names(tree):
    """Names of the classes a module raises, called or bare."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body
               if isinstance(node, ast.ClassDef)} - {"SiotError"}
    raised = set()
    for path in SRC.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(), str(path))))
    assert sorted(defined - raised) == []
