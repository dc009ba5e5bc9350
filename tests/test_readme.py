"""The README's examples run as written."""

import re
from pathlib import Path

from degen_blowup import cli
from degen_blowup.config import parse_config_text, resolve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    """The bodies of the README's fenced blocks of language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def test_library_quick_start_runs(capsys):
    (code,) = _blocks("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("True True ")
    assert abs(namespace["fit"].beta_hat - 1.0) < 0.01


def test_every_ini_example_resolves_against_its_commands_schema():
    blocks = _blocks("ini")
    assert blocks
    for text in blocks:
        raw = parse_config_text(text, "README.md")
        command = raw["run.command"][0]
        resolve(raw, cli.SCHEMAS[command], "README.md")
