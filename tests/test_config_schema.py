"""One config schema: ``config.FIELDS``, the README's schema block and the fields read agree."""
import ast
import re
from pathlib import Path

import yaml

from stefansim.config import FIELDS

REPO = Path(__file__).resolve().parents[1]

#: functions whose second positional argument is the dotted field they read
_READERS = {"get_field"}


def _schema_keys() -> set:
    text = (REPO / "README.md").read_text()
    block = re.search(r"### Config schema\s*```yaml\n(.*?)```", text, re.S).group(1)
    keys = set()

    def walk(node, prefix):
        for key, value in node.items():
            if isinstance(value, dict):
                walk(value, f"{prefix}{key}.")
            else:
                keys.add(f"{prefix}{key}")

    walk(yaml.safe_load(block), "")
    return keys


def _fields_read() -> set:
    fields = set()
    for path in (REPO / "src" / "stefansim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = list(node.args[1:2]) if name in _READERS else []
            # partial(get_field, path=...) and get_field(cfg, path=...)
            args += [kw.value for kw in node.keywords if kw.arg == "path"]
            fields |= {arg.value for arg in args
                       if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return fields


def test_readme_schema_lists_every_field_read():
    read = _fields_read()
    assert "coefficients.decay" in read and "output.dir" in read
    assert read == _schema_keys() == FIELDS
