"""README.md against the code: its caps table, the subcommands and flags it
names, its command-line examples and its Layout block."""

import argparse
import importlib
import json
import pathlib
import re
import shlex

import pytest

import groupoid_card
from groupoid_card import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(groupoid_card.__file__).resolve().parent
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
NUMBERS = "zero one two three four five six seven eight nine ten eleven twelve".split()


def readme_section(title: str) -> str:
    """The text of README's "## title" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def fenced_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def table_cells(line: str) -> list[str]:
    """The cells of a Markdown table row; "\\|" is a pipe inside a cell."""
    return [cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip())[1:-1]]


def cap_rows() -> list[list[str]]:
    return [table_cells(line) for line in readme_section("Caps").splitlines() if line.startswith("| `")]


def readme_value(text: str) -> int:
    """A cap value as README writes it: "4 000 000" or "10^8"."""
    base, _, exponent = text.replace(" ", "").partition("^")
    return int(base) ** int(exponent) if exponent else int(base)


def resolve(dotted: str):
    """The object a dotted name "module.attr[.attr]" names in the package."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"groupoid_card.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings if option.startswith("--") and option != "--help"}


def defined_caps() -> set[str]:
    """Every module constant named *_CAP or MONTE_CARLO_*, as module.NAME,
    counted in the module that assigns it."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for name in re.findall(r"^([A-Z][A-Z0-9_]*)\s*(?::[^=\n]*)?=", path.read_text(encoding="utf-8"), re.MULTILINE):
            if name.endswith("_CAP") or name.startswith("MONTE_CARLO_"):
                names.add(f"{path.stem}.{name}")
    return names


def readme_examples() -> list[str]:
    """The groupoid-card lines of the Command line section's sh block."""
    block = fenced_blocks(readme_section("Command line"), "sh")[0]
    return [line for line in block.splitlines() if line.startswith("groupoid-card ")]


def test_every_cap_row_states_its_constant_value():
    rows = cap_rows()
    assert rows
    for cap, value, *_ in rows:
        name = cap.strip("`")
        assert readme_value(value) == resolve(name), f"README gives {name} as {value}"


def test_every_cap_constant_has_one_row():
    named = [cap.strip("`") for cap, *_ in cap_rows()]
    assert sorted(named) == sorted(defined_caps())
    assert f"{NUMBERS[len(named)].capitalize()} desk-scale caps" in readme_section("Caps")


def test_every_read_by_name_is_an_attribute_of_its_module():
    for cap, _, _, read_by in cap_rows():
        library = read_by.split("; CLI")[0]
        names = re.findall(r"`([a-z_]+(?:\.[A-Za-z_]+)+)`", library)
        assert names, f"no reader named for {cap}"
        for name in names:
            resolve(name)


def test_subcommands_named_in_readme_are_the_parsers():
    named = {shlex.split(line)[1] for line in readme_examples()}
    assert named == set(subparsers())
    assert f"exposes {NUMBERS[len(named)]} subcommands" in readme_section("Command line")


def test_flags_named_in_readme_are_the_parsers():
    """Every --flag README names outside its install section is a flag of
    the parser, and every flag of the parser is named in the Command line
    section."""
    text = README.read_text(encoding="utf-8").replace(readme_section("Install and test"), "")
    known = set().union(*map(parser_flags, subparsers().values()))
    assert set(FLAG.findall(text)) <= known
    assert known <= set(FLAG.findall(readme_section("Command line")))


def test_each_command_in_readme_takes_the_flags_it_is_given():
    """A command README writes out, in a code block or a code span, gives
    only flags that its subcommand takes."""
    text = README.read_text(encoding="utf-8")
    commands = re.findall(r"^\s*groupoid-card (.*)$", text, re.MULTILINE) + re.findall(r"`([a-z-]+ --[^`]*)`", text)
    parsers = subparsers()
    checked = 0
    for command in commands:
        subcommand = command.split()[0]
        if subcommand in parsers:
            assert set(FLAG.findall(command)) <= parser_flags(parsers[subcommand]), command
            checked += 1
    assert checked >= len(readme_examples())


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_exits_0(line, tmp_path, capsys):
    functor = tmp_path / "my_functor.json"
    functor.write_text(json.dumps({
        "group": "S2",
        "fibers": {"0": 1, "1": 1},
        "transports": {"0": {"0": [0], "1": [0]}, "1": {"0": [0], "1": [0]}},
    }))
    argv = [str(functor) if arg == "my_functor.json" else arg for arg in shlex.split(line)[1:]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), line
    assert captured.out


def test_library_quickstart_runs():
    (block,) = fenced_blocks(readme_section("Library quickstart"), "python")
    exec(compile(block, "README.md", "exec"), {})


def test_layout_names_every_module():
    (block,) = fenced_blocks(readme_section("Layout"), "")
    listed = re.findall(r"^  (\S+\.py)\s", block, re.MULTILINE)
    assert sorted(listed) == sorted(path.name for path in PACKAGE.glob("*.py"))
