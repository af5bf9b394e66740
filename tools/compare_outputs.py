"""Compare two folders written by ``tools/golden_outputs.py``:

    python tools/compare_outputs.py DIR_A DIR_B

For each file of either folder it prints one line: ``identical`` when
the bytes agree; the largest relative difference |a - b| / max(|a|, |b|)
over the file's numeric tokens when only numbers differ, followed by the
text on its line just before the worst number (as ``at "n_hat": ``);
and ``STRUCTURE DIFFERS`` when the text between the numbers, the count
of numbers (then both counts are printed) or the file's presence
differs. A number is a decimal or
exponent literal, or inf, Infinity or nan, standing apart from letters
and digits, so the 800 of ``gen-800`` is a number and the 12 of ``r12``
is text. The exit status is 1 when some file's structure differs and 0
otherwise, whatever the numbers.
"""
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|Infinity|nan)(?![\w.])")


def split(text: str) -> tuple[list[str], list[str]]:
    """(the text between the numeric tokens, the tokens)."""
    return NUMBER.split(text), NUMBER.findall(text)


def before(text: str, index: int) -> str:
    """The text on the line of the index-th number, up to that number."""
    start = [match.start() for match in NUMBER.finditer(text)][index]
    line = text.count("\n", 0, start) + 1
    return text[:start].rsplit("\n", 1)[-1].lstrip() or f"the start of line {line}"


def relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if a == b or x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(a: Path, b: Path) -> tuple[str, bool]:
    """(the line for one file, whether its structure differs)."""
    if not (a.is_file() and b.is_file()):
        return "STRUCTURE DIFFERS (in one folder only)", True
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return "identical", False
    try:
        decoded = raw_a.decode("utf-8"), raw_b.decode("utf-8")
    except UnicodeDecodeError:
        return "STRUCTURE DIFFERS (not text)", True
    (text_a, num_a), (text_b, num_b) = (split(text) for text in decoded)
    if len(num_a) != len(num_b):
        return f"STRUCTURE DIFFERS ({len(num_a)} numbers against {len(num_b)})", True
    if text_a != text_b:
        return "STRUCTURE DIFFERS", True
    diffs = [relative(x, y) for x, y in zip(num_a, num_b)]
    worst = max(range(len(diffs)), key=diffs.__getitem__)
    return (f"max relative difference {diffs[worst]:.3g} over {len(num_a)} numbers "
            f"at {before(decoded[0], worst)}"), False


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv]
    names = sorted({p.relative_to(root) for root in roots for p in root.rglob("*") if p.is_file()})
    differs = False
    for name in names:
        line, structural = compare(roots[0] / name, roots[1] / name)
        differs |= structural
        print(f"{name}: {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
