"""The package is layered: each module imports only modules below it.

Imports are read from the source with ``ast``, those inside functions
included, so a local import cannot hide an upward edge.  The same
reading finds every error class that nothing raises, and every name
the benchmark's tracer patches or its scripts read from the package
that the package no longer defines.  A fresh interpreter shows what
``import siot`` loads."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siot"

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


def _bench_tables():
    """The name tables of ``bench/spans.py``, read without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPAN_FUNCTIONS", "PHASE_METHODS",
                                       "COUNTED")}


BENCH_SCRIPTS = ("test_bench.py", "workloads.py", "run.py", "setup_probe.py")


def _package_chains(tree):
    """The attribute chains a bench script reads from the package, as
    name tuples: ``siot.a.b`` and ``self.siot.a.b`` give ("a", "b")."""
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" \
                and names and names[-1] == "siot":
            names.pop()
        elif not (isinstance(node, ast.Name) and node.id == "siot"):
            continue
        if names:
            yield tuple(reversed(names))


def test_bench_hooks_name_package_attributes():
    """The tracer wraps functions by module and name and methods on
    their class, and the bench scripts read names off the package, so a
    rename or a move would break only the benchmark's run."""
    tables = _bench_tables()
    missing = []
    package = importlib.import_module("siot")
    for script in BENCH_SCRIPTS:
        path = ROOT / "bench" / script
        for chain in set(_package_chains(ast.parse(path.read_text()))):
            owner = package
            for attr in chain:
                if not hasattr(owner, attr):
                    missing.append(f"{script}: siot.{'.'.join(chain)}")
                    break
                owner = getattr(owner, attr)
    for modname, attr, _ in tables["SPAN_FUNCTIONS"]:
        if not hasattr(importlib.import_module(modname), attr):
            missing.append(f"{modname}.{attr}")
    session = importlib.import_module("siot.siot").SiotSession
    for attr, _ in tables["PHASE_METHODS"]:
        if attr not in vars(session):
            missing.append(f"siot.siot.SiotSession.{attr}")
    for modname, clsname, attr, _ in tables["COUNTED"]:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname, None)
        if owner is None or attr not in vars(owner):
            missing.append(".".join(filter(None, (modname, clsname, attr))))
    assert missing == []


COLD_START_EXCLUDED = ("dataclasses", "inspect", "socket", "selectors",
                       "siot.analysis", "siot.cli")


def test_import_loads_only_what_a_session_runs():
    """Each CLI command starts a fresh interpreter, so what ``import
    siot`` loads is paid per command: no record machinery, no sockets,
    no probes and no CLI."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import siot; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code,
                          str(ROOT / "src")], capture_output=True,
                         text=True, check=True).stdout.split()
    assert "siot" in out
    assert [m for m in COLD_START_EXCLUDED if m in out] == []
