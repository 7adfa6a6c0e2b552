"""Source line counts of src/shelyap, per module and in total.

    python tools/loc.py

For each module it prints all lines and the lines that are neither blank nor
comment-only (a line whose first non-blank character is #). Docstrings count
as code. These are the two counts a change reports for its net line count.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shelyap"


def counts(path: Path) -> tuple[int, int]:
    """(all lines, lines neither blank nor comment-only) of one file."""
    lines = path.read_text().splitlines()
    code = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
    return len(lines), len(code)


def main() -> None:
    total = code_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = counts(path)
        total += lines
        code_total += code
        print(f"{path.name:16} {lines:5} {code:5}")
    print(f"{'total':16} {total:5} {code_total:5}")


if __name__ == "__main__":
    main()
