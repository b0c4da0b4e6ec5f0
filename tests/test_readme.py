"""The README's library examples run as written, the package exports only what is used,
and no public name in the package is reached only from tests."""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import textopt
from textopt.data import synthetic_corpus, write_tsv

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    write_tsv(synthetic_corpus(80, vocab_size=30, seed=0), tmp_path / "train.tsv")
    write_tsv(synthetic_corpus(40, vocab_size=30, seed=1), tmp_path / "test.tsv")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert 0.0 <= float(printed[-1]) <= 1.0


def names_taken_from_textopt(path: Path) -> set[str]:
    """Names a module imports from textopt (or, inside it, relatively) or reads as ``textopt.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "textopt"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "textopt":
            names.add(node.attr)
    return names


def test_package_exports_only_names_the_cli_benchmark_readme_or_acceptance_tests_use():
    used = set(re.findall(r"\btextopt\.(\w+)", README.read_text(encoding="utf-8")))
    users = [ROOT / "src" / "textopt" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    for path in users + sorted((ROOT / "benchmark").glob("*.py")):
        used |= names_taken_from_textopt(path)
    exported = {
        name
        for name, value in vars(textopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - used) == []



def references(tree: ast.AST) -> list[tuple[str, bool, int]]:
    """(name, whether it is an attribute, line) for each name a module reads, imports or looks up."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, False, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, False, node.lineno) for alias in node.names)
    return refs


def test_every_public_definition_is_reached_from_outside_the_tests():
    """Each public module-level function and class, and each public method, of ``src/textopt``
    is named outside its own body: elsewhere in the package, in ``benchmark/``, in the
    acceptance tests or in the README's Python blocks.  A method counts only attribute references."""
    sources = {path: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "textopt").glob("*.py")}
    users = [path.read_text(encoding="utf-8") for path in (ROOT / "benchmark").glob("*.py")]
    users.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    users += re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    refs = [(path, *ref) for path, tree in sources.items() for ref in references(tree)]
    refs += [(None, *ref) for text in users for ref in references(ast.parse(text))]

    def reached(path: Path, definition: ast.FunctionDef | ast.ClassDef, method: bool) -> bool:
        return any(
            name == definition.name
            and (is_attribute or not method)
            and (where != path or not definition.lineno <= line <= definition.end_lineno)
            for where, name, is_attribute, line in refs
        )

    unreached = []
    for path, tree in sorted(sources.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not reached(path, node, method=False):
                unreached.append(f"{path.stem}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    if not reached(path, member, method=True):
                        unreached.append(f"{path.stem}.{node.name}.{member.name}")
    assert unreached == []
