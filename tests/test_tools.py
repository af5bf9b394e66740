import importlib.util
import subprocess
import sys
from pathlib import Path

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def compare(a, b):
    done = subprocess.run([sys.executable, str(COMPARE), str(a), str(b)], capture_output=True, text=True)
    return done.returncode, dict(line.split(": ", 1) for line in done.stdout.splitlines())


def folders(tmp_path, files_a, files_b):
    for name, files in (("a", files_a), ("b", files_b)):
        for rel, text in files.items():
            path = tmp_path / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return tmp_path / "a", tmp_path / "b"


def test_compare_outputs_reports_numbers_and_passes_them(tmp_path):
    a, b = folders(tmp_path,
                   {"status.txt": "$ tlbt reduce --model gen:800,7,6\nexit 0\n",
                    "gen-800/bound.json": '{"epsilon": 1.0e-10, "r": 9, "horizon": Infinity}',
                    "gen-800/r12.csv": "r12, -0.5, 2",
                    "sigma.csv": "i, sigma\n1, 0.5\n2, 0.25\n", "column.csv": "1\n2\n"},
                   {"status.txt": "$ tlbt reduce --model gen:800,7,6\nexit 0\n",
                    "gen-800/bound.json": '{"epsilon": 1.1e-10, "r": 9, "horizon": Infinity}',
                    "gen-800/r12.csv": "r12, -0.5, 2",
                    "sigma.csv": "i, sigma\n1, 0.5\n2, 0.2\n", "column.csv": "1\n4\n"})
    code, lines = compare(a, b)
    assert code == 0
    assert lines["status.txt"] == "identical" and lines["gen-800/r12.csv"] == "identical"
    assert lines["gen-800/bound.json"] == 'max relative difference 0.0909 over 3 numbers at {"epsilon": '
    # the text on the worst number's line, or its line number when none precedes it
    assert lines["sigma.csv"] == "max relative difference 0.2 over 4 numbers at 2, "
    assert lines["column.csv"] == "max relative difference 0.5 over 2 numbers at the start of line 2"


def test_compare_outputs_fails_on_structure(tmp_path):
    a, b = folders(tmp_path,
                   {"text.txt": "n_hat 41", "count.csv": "1, 2", "only.txt": "x", "name.txt": "gen-800"},
                   {"text.txt": "m_hat 41", "count.csv": "1, 2, 3", "name.txt": "gen-400"})
    code, lines = compare(a, b)
    assert code == 1
    assert lines["text.txt"] == "STRUCTURE DIFFERS"
    assert lines["count.csv"] == "STRUCTURE DIFFERS (2 numbers against 3)"
    assert lines["only.txt"].startswith("STRUCTURE DIFFERS")
    # the 800 of gen-800 is a number, so a model of another order is not a structural change
    assert lines["name.txt"] == "max relative difference 0.5 over 1 numbers at gen-"


def _count_lines_module():
    spec = importlib.util.spec_from_file_location("count_lines", COMPARE.parent / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks_and_count_continuations():
    snippet = ('"""Module docstring,\n'
               'two lines."""\n'
               "# a comment\n"
               "\n"
               "def f(x):\n"
               '    """f\'s docstring."""\n'
               "    total = (x +\n"
               "             1)  # a comment after code\n"
               "    return total \\\n"
               "        * 2\n")
    # def, the two lines of the parenthesized sum and the two of the return
    assert _count_lines_module().code_lines(snippet) == 5


def test_count_lines_prints_each_module_under_the_total():
    done = subprocess.run([sys.executable, str(COMPARE.parent / "count_lines.py"), str(COMPARE.parents[1])],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.endswith(" code lines"))
    modules = {name: int(count) for count, name in (line.split() for line in lines[at + 1:])}
    assert set(modules) == {p.name for p in (COMPARE.parents[1] / "src" / "tlbt").glob("*.py")}
    assert sum(modules.values()) == int(lines[at].split()[0])
