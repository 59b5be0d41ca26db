"""The package's public names, its error classes and the README's commands."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import multiscale_markowitz
from multiscale_markowitz import cli, errors

_PACKAGE = Path(multiscale_markowitz.__file__).parent
_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in multiscale_markowitz.__all__
               if not hasattr(multiscale_markowitz, name)]
    assert missing == []


def test_exports_are_unique():
    names = multiscale_markowitz.__all__
    assert len(names) == len(set(names))


def test_every_error_class_is_rooted_and_used():
    sources = "\n".join(p.read_text() for p in _PACKAGE.glob("*.py")
                        if p.name != "errors.py")
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert classes
    for cls in classes:
        assert issubclass(cls, (errors.MultiscaleError, errors.MultiscaleWarning)), cls
        assert re.search(rf"\b{cls.__name__}\b", sources), f"{cls.__name__} is never used"


def _readme_commands():
    text = _README.read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.S | re.M)
    return [line[len("$ msmark "):] for block in blocks
            for line in block.splitlines() if line.startswith("$ msmark ")]


def test_readme_has_commands():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    args = cli.build_parser().parse_args(shlex.split(command))
    cli._merge_options(args)
