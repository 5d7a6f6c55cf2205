"""Every module-level function and class in the package is used.

A name defined at the top of a module in ``src/stefansim`` passes if code
in ``src/`` refers to it outside its own definition, if the package
exports it, or if the benchmark tracer wraps it by name
(``perfbench/tracing.py``, ``WRAPS``).  Anything else is dead code: move
it into the tests that use it, or delete it.  Likewise every dataclass
field in the package must be read as an attribute somewhere in ``src/``,
``tests/`` or ``perfbench/``, and every name a module imports at its top
level must be read in that module, re-exported from it by the package or
wrapped in it by the tracer.
"""
import ast
import importlib.util
from pathlib import Path

import stefansim

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "stefansim"


def _wraps() -> set:
    """(module file, top-level name) of each name the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(f"{owner.rsplit('.', 1)[1]}.py", attr.split(".")[0])
            for owner, attr, *_ in module.WRAPS}


def _used_names(node) -> set:
    """Names read under ``node``, as bare names or as attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_module_level_definition_is_used():
    # (module, statement index) -> names that top-level statement reads
    reads, defined = {}, []
    for path in sorted(SRC.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            reads[path.name, i] = _used_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, i, stmt.name))
    kept = set(vars(stefansim)) | {name for _, name in _wraps()}
    unused = [f"{module}: {name}" for module, i, name in defined
              if name not in kept
              and not any(name in names for key, names in reads.items() if key != (module, i))]
    assert unused == []


def _imported(stmt) -> list:
    """Names a top-level import binds, except ``from __future__`` features."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def test_every_module_level_import_is_used():
    # the package's own imports are its exports; other modules' imports
    # must be read there, re-exported from there or wrapped there
    exported = {(f"{stmt.module}.py", alias.name)
                for stmt in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                for alias in stmt.names}
    kept = exported | _wraps()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        read = set().union(*(_used_names(stmt) for stmt in body if not _imported(stmt)))
        unused += [f"{path.name}: {name}" for stmt in body for name in _imported(stmt)
                   if name not in read and (path.name, name) not in kept]
    assert unused == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    # a field that is set but never read as an attribute states nothing
    fields = [(path.name, cls.name, stmt.target.id)
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    read = {node.attr
            for root in ("src", "tests", "perfbench")
            for path in sorted((REPO / root).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}: {cls}.{name}" for module, cls, name in fields if name not in read]
    assert unread == []
