"""Print the size of the package source: ``wc -l src/tlbt/*.py``, then
its code lines, in total and under it module by module.

A code line holds at least one token that is not a comment or a line
break; lines of a docstring (the leading string of a module, class or
function body) do not count. Run from the repository root:

    python tools/count_lines.py
"""
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(root: Path) -> int:
    files = sorted((root / "src" / "tlbt").glob("*.py"))
    subprocess.run(["wc", "-l", *map(str, files)], check=True)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in files}
    print(f"{sum(counts.values())} code lines")
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")))
