import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    simulated, closed = (float(x) for x in capsys.readouterr().out.split())
    assert simulated == pytest.approx(closed, abs=1e-6)
