"""README is checked against the package: the "Library" section's code block
runs, every commented expression evaluates to the literal its comment starts
with, and every name the section cites in backticks exists; each shown
``monoalg`` shell session prints what README says it prints."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import monoalg
from conftest import SEC3_GENS
from monoalg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
HOMES = [monoalg] + [importlib.import_module(f"monoalg.{m.name}")
                     for m in pkgutil.iter_modules(monoalg.__path__)
                     if not m.name.startswith("_")]


def library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def leading_literal(comment: str):
    """The longest run of leading words of ``comment`` that is a literal."""
    words = comment.split()
    for k in range(len(words), 0, -1):
        try:
            return ast.literal_eval(" ".join(words[:k]))
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"comment {comment!r} starts with no Python literal")


def test_library_example_matches_comments():
    code = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not tail:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"line {stmt.lineno}: only an " \
            "expression's comment can be checked"
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                     namespace)
        expected = leading_literal(tail.removeprefix("#"))
        assert (value, type(value)) == (expected, type(expected)), \
            f"line {stmt.lineno}: {value!r}, README says {expected!r}"
        checked += 1
    assert checked == code.count("#")


def resolve(name: str):
    first, *rest = name.split(".")
    if first == "monoalg":
        return importlib.import_module(name)
    obj = next(getattr(h, first) for h in HOMES if hasattr(h, first))
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_library_names_exist():
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.S)
    names = re.findall(r"`([A-Za-z_][\w.]*)`", prose)
    assert "quotient_group" in names
    for name in names:
        try:
            resolve(name)
        except (StopIteration, AttributeError, ImportError):
            raise AssertionError(f"README names `{name}`, which the package "
                                 "does not have") from None


def shell_sessions() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) of every README ``sh`` block that runs
    ``monoalg``."""
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        command, *shown = block.splitlines()
        if command.startswith("$ monoalg "):
            sessions.append((shlex.split(command)[2:], shown))
    return sessions


def matches(shown: list[str], out: list[str]) -> bool:
    """Whether ``out`` is ``shown`` where a ``...`` line skips any number of
    lines and ``...`` inside a line stands for any text."""
    pos, skip = 0, False
    for line in shown:
        if line.strip() == "...":
            skip = True
            continue
        pattern = ".*".join(map(re.escape, line.split("...")))
        while pos < len(out) and not re.fullmatch(pattern, out[pos]):
            if not skip:
                return False
            pos += 1
        if pos == len(out):
            return False
        pos, skip = pos + 1, False
    return skip or pos == len(out)


SESSIONS = shell_sessions()


def test_shell_sessions_are_found():
    assert [argv[0] for argv, _ in SESSIONS] == ["analyze", "sweep"]


@pytest.mark.parametrize("argv, shown", SESSIONS,
                         ids=[argv[0] for argv, _ in SESSIONS])
def test_shell_session_output(argv, shown, tmp_path, monkeypatch, capsys):
    # example.txt holds the section-3 semigroup the README reports on
    (tmp_path / "example.txt").write_text(
        "".join(" ".join(map(str, g)) + "\n" for g in SEC3_GENS))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert matches(shown, out), "\n".join(out)
