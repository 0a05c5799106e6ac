"""The README's Python API block runs as written."""

import re
import time
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1, f"expected one python block in the README, found {len(blocks)}"
    return blocks[0]


def test_python_api_block_names_the_entry_points():
    code = python_block()
    for name in ("cloning_experiment_classical_client", "hybrid_enc", "hybrid_dec", "cp_accept_probability"):
        assert f".{name}(" in code, name


def test_python_api_block_runs():
    code = python_block()
    start = time.perf_counter()
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert time.perf_counter() - start < 2.0
