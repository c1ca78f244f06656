"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The python block under the "Library quick start" heading: from the
    first ```python line after the heading to the first bare ``` line after
    it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("## Library quick start"))
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```python"))
    end = next(i for i in range(start, len(lines)) if lines[i] == "```")
    return "\n".join(lines[fence + 1 : end]) + "\n"


def test_readme_library_quick_start_runs():
    code = quick_start_code()
    assert "import mtlopt" in code
    exec(compile(code, f"{README}:Library quick start", "exec"), {"__name__": "__main__"})
