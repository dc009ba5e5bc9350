"""The README's examples run as written."""

import re
from pathlib import Path

from degen_blowup import cli
from degen_blowup.config import REQUIRED, _convert, parse_config_text, resolve

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


def _default(text, kind):
    """A default cell of the keys table as the schema holds it."""
    if text == "—":
        return None
    if text == "required":
        return REQUIRED
    return _convert("README.md", text.strip("`"), 0, kind, "README.md")


def test_keys_table_is_the_clis_schemas():
    # a key lands in the CLI only together with its row here
    header = "| Key | Commands | Kind | Default | Meaning |\n|---|---|---|---|---|\n"
    body = README.split(header, 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in body.splitlines()]
    keys = [key.strip("`") for key, *_ in rows]
    assert len(keys) == len(set(keys))
    table = {
        (command, key.strip("`")): (kind, _default(default, kind))
        for key, commands, kind, default, _ in rows
        for command in commands.split(", ")
    }
    schemas = cli.SCHEMAS.items()
    assert table == {(command, key): spec[:2] for command, schema in schemas for key, spec in schema.items()}
    assert len(table) == 73 and len(keys) == 33
