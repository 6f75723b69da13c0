"""The package is layered: each module imports only modules below it.

Imports are read from the source with ``ast``, those inside functions
included, so a local import cannot hide an upward edge."""

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
