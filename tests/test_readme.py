"""The README's module map names only what the package defines.

Each row of the ``## Module map`` table is one module and what it holds.
A backticked identifier in a row must resolve in that row's module or in
the ``stefansim`` package, so a rename or deletion in ``src/`` that the
README still mentions fails here.
"""
import importlib
import re
from pathlib import Path

import stefansim

README = Path(__file__).resolve().parents[1] / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.\w+)*")


def _module_map_rows():
    text = README.read_text()
    section = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if re.fullmatch(r"`\w+`", cells[0]):
            assert len(cells) == 2, f"a '|' splits the row of {cells[0]}"
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_module_map_names_resolve():
    rows = dict(_module_map_rows())
    assert {"grids", "spde", "boundary", "obstacle"} <= rows.keys()
    stale = [f"{name}: {ident}" for name, idents in rows.items() for ident in idents
             if IDENTIFIER.fullmatch(ident)
             and not _resolves(importlib.import_module(f"stefansim.{name}"), ident)
             and not _resolves(stefansim, ident)]
    assert stale == []
