"""The command line's surface, pinned: each command's ``--help`` text at a
fixed terminal width, and each option's dest, required flag, default,
choices, type and action. ``fixtures/cli_surface.json`` holds what the
parser declared before its subcommands were built from one table, so a
change to how the parser is built cannot change what a user sees."""

import argparse
import json

import pytest

from companysim.cli import build_parser, main
from conftest import FIXTURES

PINNED = json.loads((FIXTURES / "cli_surface.json").read_text(encoding="utf-8"))


def _options(parser: argparse.ArgumentParser) -> list[dict]:
    return [{
        "flags": action.option_strings,
        "dest": action.dest,
        "required": action.required,
        "default": action.default,
        "choices": (sorted(action.choices) if isinstance(action.choices, dict)
                    else action.choices),
        "type": getattr(action.type, "__name__", action.type),
        "action": type(action).__name__,
    } for action in parser._actions]


def _surface() -> dict:
    """``command -> options`` for the top-level parser (command ``""``) and
    each subcommand, as JSON reads them back."""
    parser = build_parser()
    [commands] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    surface = {"": _options(parser)}
    surface.update((name, _options(sub)) for name, sub in commands.choices.items())
    return json.loads(json.dumps(surface))


def test_every_option_keeps_its_declaration():
    assert _surface() == PINNED["options"]


@pytest.mark.parametrize("command", sorted(PINNED["help"]))
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out == PINNED["help"][command]
