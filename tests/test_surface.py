"""The package's public surface is the code its users run.

Every public top-level function and class in src/diqpv must be used by
the package itself (by name, or as an attribute of its own module,
outside its own definition), by the benchmark (perfbench/*.py: imported
from diqpv, or named in a string, as the tracer's sites are), or by the
README's Python example.  A function only the tests call belongs in
tests/helpers.py or tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diqpv"


def _references(node) -> set:
    """Every (module, name) pair node uses: a bare name has module None."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add((None, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            refs.add((sub.value.id, sub.attr))
    return refs


def _benchmark_uses() -> set:
    """Names perfbench imports from diqpv or spells out as a string."""
    uses = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("diqpv"):
                uses.update(alias.name for alias in sub.names)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                uses.add(sub.value)
    return uses


def test_every_public_definition_has_a_user():
    # Each top-level statement of the package with its module and the names it uses.
    statements = [(path.stem, node, _references(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    example = "\n".join(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S))
    benchmark = _benchmark_uses()
    unused = [
        f"{module}:{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any({(None, node.name), (module, node.name)} & refs
                    for _, other, refs in statements if other is not node)
        and node.name not in benchmark and not re.search(rf"\b{node.name}\b", example)
    ]
    assert unused == []
