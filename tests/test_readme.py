"""The README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_in_order(tmp_path, monkeypatch, capsys):
    # later blocks use the names earlier ones define, so they run as one script
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    monkeypatch.chdir(tmp_path)
    exec(compile("\n".join(blocks), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
