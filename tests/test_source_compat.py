"""The package imports on every Python that ``pyproject.toml`` accepts.

``requires-python`` is ``>=3.9``, but ``dataclass(slots=...)`` and
``dataclass(kw_only=...)`` need 3.10: on 3.9 the decorator raises
``TypeError`` when the module is imported.  Hot classes that want slots
spell ``__slots__`` out by hand (see ``MemRequest``).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: dataclass() keywords that Python 3.9 rejects.
NEWER_KEYWORDS = {"slots", "kw_only"}


def _dataclass_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            yield node


def test_no_dataclass_keywords_newer_than_python_39():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call in _dataclass_calls(tree):
            for keyword in call.keywords:
                if keyword.arg in NEWER_KEYWORDS:
                    offenders.append(
                        f"{path.relative_to(SRC.parent)}:{call.lineno} "
                        f"dataclass({keyword.arg}=...)"
                    )
    assert offenders == []
