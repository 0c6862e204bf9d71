"""README.md names every config key and only options the CLI has, each of
its config examples reads, and its bridge table has every frame type."""

import argparse
import re
from pathlib import Path

import pytest

from pnpdm import bridge
from pnpdm.cli import RECONSTRUCT_SCHEMA, SIMULATE_SCHEMA, _build_parser
from pnpdm.config import read_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SCHEMAS = {"simulate": SIMULATE_SCHEMA, "reconstruct": RECONSTRUCT_SCHEMA}


def _ini_blocks():
    """(subcommand, text) of every ```ini block: the first word of the
    nearest heading above it names the subcommand."""
    command = None
    for part in re.split(r"^(#{2,3} .*)$", README, flags=re.M):
        if part.startswith("#"):
            command = part.split()[1]
        else:
            for block in re.findall(r"^```ini\n(.*?)^```", part, flags=re.M | re.S):
                yield command, block


BLOCKS = list(_ini_blocks())


@pytest.mark.parametrize("command", SCHEMAS)
def test_readme_names_every_config_key(command):
    """A key counts as named in an example line ``key = ...`` or in backticks,
    as `key` or `section.key`."""
    missing = [f"{section}.{key}" for section, keys in SCHEMAS[command].items()
               for key in keys
               if not re.search(rf"^{key} =|`({section}\.)?{key}`", README, flags=re.M)]
    assert not missing, f"README.md does not name {missing}"


@pytest.mark.parametrize("command,block", BLOCKS,
                         ids=[f"{command}-{i}" for i, (command, _) in enumerate(BLOCKS)])
def test_readme_config_examples_read(tmp_path, command, block):
    assert command in SCHEMAS, f"ini block under a '{command}' heading:\n{block}"
    path = tmp_path / "example.cfg"
    path.write_text(block, encoding="utf-8")
    read_config(path, SCHEMAS[command])


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
    return options


def test_readme_names_only_cli_options():
    """An option counts as named on a ``pnpdm ...`` command line (its comment
    included) or in backticks; the pip, pytest and bridge_helper options the
    README shows are not the CLI's."""
    named = set(re.findall(r"`(--[\w-]+)", README))
    for line in re.findall(r"^pnpdm .*$", README, flags=re.M):
        named.update(re.findall(r"(?<![\w-])--[\w-]+", line))
    assert "--threads" in named
    unknown = sorted(named - _parser_options(_build_parser()))
    assert not unknown, f"README.md names options the CLI does not have: {unknown}"


def test_readme_protocol_table_names_every_frame_type():
    """The bridge section's table has one row for each ``FRAME_*`` type that
    ``pnpdm.bridge`` defines, and no other row."""
    section = README.split("## Bridge protocol", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|.*\btype=(\d+)", section, flags=re.M)
    defined = [value for name, value in vars(bridge).items() if name.startswith("FRAME_")]
    assert sorted(map(int, rows)) == sorted(defined)
