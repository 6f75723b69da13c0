"""The package is layered: each module imports only modules below it.

Imports are read from the source with ``ast``, those inside functions
included, so a local import cannot hide an upward edge.  The same
reading finds every error class that nothing raises, every function,
class or method that nothing in the package calls, and every name the
benchmark's tracer patches or its scripts read from the package that
the package no longer defines.  A fresh interpreter shows what
``import siot`` and ``import siot.cli`` load."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siot"

LAYERS = ("errors", "util", "field", "curve", "isogeny", "pairing", "sidh",
          "siot", "wire", "transport", "baseline_ot", "runner", "analysis",
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


def _defined_names():
    """(module, class or None, name) of every top-level function and
    class, and of every method but the dunders, in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, None, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        yield path.stem, node.name, item.name


def _referenced_names():
    """Names the package reads by a name, an import or an attribute,
    and, apart, the names it reads as attributes."""
    names, attrs = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names | attrs, attrs


def test_every_definition_is_used():
    """A function, class or method the package never calls is dead
    weight in it; a test that needs one keeps it in ``oracles``.  Used
    means referenced in the package (a method by an attribute access,
    a session phase by its ``SCHEDULE`` row), exported in ``__all__``,
    a CLI handler, hooked by the benchmark's tracer, or an argparse
    override."""
    package = importlib.import_module("siot")
    schedule = importlib.import_module("siot.siot").SCHEDULE
    phases = {m.produce for m in schedule} | {m.consume for m in schedule}
    tables = _bench_tables()
    hooked = {(mod.split(".")[-1], None, attr)
              for mod, attr, _ in tables["SPAN_FUNCTIONS"]}
    hooked |= {(mod.split(".")[-1], cls, attr)
               for mod, cls, attr, _ in tables["COUNTED"]}
    hooked |= {("siot", "SiotSession", attr)
               for attr, _ in tables["PHASE_METHODS"]}
    referenced, read_as_attribute = _referenced_names()
    unused = []
    for module, cls, name in _defined_names():
        used = ((module, cls, name) in hooked
                or name in package.__all__ or name.startswith("_cmd_")
                or (cls, name) == ("_Parser", "error"))
        if cls is None:
            used = used or name in referenced
        else:
            used = used or name in read_as_attribute or (
                cls == "SiotSession" and name in phases)
        if not used:
            unused.append(".".join(filter(None, (module, cls, name))))
    assert unused == []


def _fresh_import_modules(module):
    """The modules a fresh interpreter, without site, holds after
    importing ``module`` from the source tree."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            f"import {module}; print(' '.join(sorted(sys.modules)))")
    return subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")], capture_output=True,
                          text=True, check=True).stdout.split()


COLD_START_EXCLUDED = ("dataclasses", "inspect", "socket", "selectors",
                       "siot.analysis", "siot.baseline_ot", "siot.cli")


def test_import_loads_only_what_a_session_runs():
    """Each CLI command starts a fresh interpreter, so what ``import
    siot`` loads is paid per command: no record machinery, no sockets,
    no probes, no baseline OT and no CLI."""
    out = _fresh_import_modules("siot")
    assert "siot" in out
    assert [m for m in COLD_START_EXCLUDED if m in out] == []


def test_cli_import_loads_no_command_extras():
    """The CLI imports the probes, the baseline OT and the sockets in
    the commands that run them, so the others do not pay for them."""
    out = _fresh_import_modules("siot.cli")
    assert "siot.cli" in out
    assert [m for m in ("siot.analysis", "siot.baseline_ot", "socket",
                        "selectors") if m in out] == []
