"""The README's config example and CLI examples stay in step with the code."""

import re
import shlex
from pathlib import Path

import pytest

import vmfourier as vf
from vmfourier import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang):
    """The bodies of the README's fenced blocks tagged ``lang``."""
    blocks, current, tag = [], None, None
    for line in README.read_text().splitlines(keepends=True):
        if line.startswith("```") and current is None:
            current, tag = [], line[3:].strip()
        elif line.startswith("```"):
            if tag == lang:
                blocks.append("".join(current))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


def section(title):
    """The text of the README section under the ``## title`` heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def cli_examples():
    text = "\n".join(code_blocks("sh")).replace("\\\n", " ")
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line.startswith("vmfourier ")]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 4


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_parses(line):
    args = cli._build_parser().parse_args(shlex.split(line)[1:])
    for suite in getattr(args, "suite", None) or []:
        assert suite in vf.suite_names()


def test_config_example_loads(tmp_path):
    (block,) = [b for b in code_blocks("") if re.search(r"^groups\s*=", b, re.M)]
    path = tmp_path / "cfg.txt"
    path.write_text(block)
    cfg = vf.load_config(path)
    assert cfg.suites and cfg.groups and cfg.spaces
    for spec in cfg.groups:
        vf.harness.group_with_dual(spec)
    for spec in cfg.spaces:
        vf.space_from_spec(spec)


def test_file_format_functions_exist():
    # each format the README documents names a reader and writer that exist
    names = re.findall(r"`((?:load|dump)_\w+)`", section("File formats"))
    assert len(names) >= 4
    assert [n for n in names if not hasattr(vf, n)] == []
