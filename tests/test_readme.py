"""The README's examples run and print what the README shows."""
import argparse
import contextlib
import importlib
import io
import re
from pathlib import Path

from pulsesched import cli
from pulsesched.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def test_schedule_example_prints_the_lines_shown(tmp_path):
    [block] = [text for _, text in BLOCKS if text.startswith("pulsesched schedule ")]
    command, *shown = block.splitlines()
    argv = command.split()[1:]
    argv[1] = str(ROOT / argv[1])
    argv[argv.index("--out") + 1] = str(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert stdout.getvalue().splitlines() == [line.removeprefix("# ") for line in shown]


def test_synopsis_lists_each_commands_options():
    [block] = [text for _, text in BLOCKS if text.startswith("pulsesched simulate ")]
    [commands] = [a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    shown = {line.split()[1]: set(re.findall(r"\[(-[-\w]+)", line)) for line in block.splitlines()}
    accepted = {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert shown == accepted


def test_library_snippet_runs():
    [snippet] = [text for lang, text in BLOCKS if lang == "python"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(snippet, "README.md", "exec"), {})
    assert stdout.getvalue().startswith("Metrics(")


def test_named_constants_have_the_values_shown():
    """Every `module.NAME` = value in the README names a constant of that value, so a
    constant that moves or changes cannot leave a stale name or number behind."""
    shown = re.findall(r"`(\w+)\.([A-Z][A-Z_]*)` =\s+(\d+)(?:\^(\d+))?", README)
    assert len(shown) >= 4
    for module, name, base, exponent in shown:
        value = getattr(importlib.import_module(f"pulsesched.{module}"), name)
        assert value == int(base) ** int(exponent or 1), f"{module}.{name}"
