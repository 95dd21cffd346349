"""README's code references resolve: module attributes by name, test classes by file, configs by building."""

import ast
import importlib
import re
from pathlib import Path

from gldn.model import ModelConfig, build_model

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("tensor", "layers", "spt", "model", "errors")


def spans():
    return re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())


def test_module_names_resolve():
    # only gldn's own modules: `math.erf` and `scipy.special.erf` name other packages
    refs = [m.groups() for m in map(re.compile(rf"({'|'.join(MODULES)})\.(\w+)$").match, spans()) if m]
    assert len(refs) >= 6, refs
    for module, name in refs:
        assert hasattr(importlib.import_module(f"gldn.{module}"), name), f"{module}.{name}"


def test_test_classes_resolve():
    refs = [m.groups() for m in map(re.compile(r"(tests/\w+\.py)::(\w+)$").match, spans()) if m]
    assert len(refs) >= 2, refs
    for path, cls in refs:
        tree = ast.parse((ROOT / path).read_text())
        assert cls in {n.name for n in tree.body if isinstance(n, ast.ClassDef)}, f"{path}::{cls}"


def test_configs_build():
    # a `ModelConfig(field=literal, ...)` in README is a config the code accepts
    calls = [ast.parse(span, mode="eval").body for span in spans() if span.startswith("ModelConfig(")]
    assert len(calls) >= 2, calls
    for call in calls:
        assert not call.args, ast.unparse(call)
        build_model(ModelConfig(**{kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}))
