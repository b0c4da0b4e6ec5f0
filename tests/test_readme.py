"""The README's library examples run as written, and the package exports only what is used."""

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
