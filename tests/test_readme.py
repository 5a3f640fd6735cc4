"""The README's Python examples run as written."""

import re
from pathlib import Path

from tsmote.data import write_long_csv
from tsmote.oscillator import generate_two_class_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    write_long_csv(generate_two_class_experiment(0).train, tmp_path / "observations.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["tensor"].shape == (450, 50, 2)
