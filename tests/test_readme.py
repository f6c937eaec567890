import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_only_attributes_that_exist():
    # the README once named `kuniform.oracle.DIM_CAP` after it was gone
    names = set(re.findall(r"\bkuniform\.(\w+)\.(\w+)", README.read_text(encoding="utf-8")))
    assert len(names) >= 5
    missing = [
        f"kuniform.{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"kuniform.{module}"), name)
    ]
    assert missing == []
