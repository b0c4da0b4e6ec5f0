"""The README's library examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from textopt.data import synthetic_corpus, write_tsv

README = Path(__file__).resolve().parent.parent / "README.md"


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
