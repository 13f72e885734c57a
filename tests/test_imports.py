"""Every name a filebasis module imports is used in that module, and a
query loads only the modules it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "filebasis"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as "decision.Budget" name their imports too
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {
                    sub.id
                    for sub in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(sub, ast.Name)
                }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "from typing import Optional, Sequence\nimport json\n\ndef f(x: Sequence): ...\n"
    assert unused_imports(source) == ["Optional (line 1)", "json (line 2)"]


QUERY_MODULES = """
import sys
from filebasis.cli import main
code = main(["eq", "x1^5 x2^5 x3^5", "x2 x1", "--presentation", sys.argv[1], "--max-states", "50"])
print(code, "filebasis.diagram" in sys.modules)
"""


def test_eq_does_not_load_the_diagram_layer(tmp_path, toy_presentation):
    pres = tmp_path / "pres.json"
    pres.write_text(toy_presentation.dumps())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", QUERY_MODULES, str(pres)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    # a yes (the toy relator r1 equates the two words), with no diagram module loaded
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_package_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
