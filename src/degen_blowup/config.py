"""Flat key-value run configurations.

Files hold one ``block.key = value`` assignment per line, with ``#``
comments; the format is deliberately trivial to parse and diff.  Every
command validates its keys against a whitelist, so typos and misplaced
keys fail loudly with the offending key and line number before any solve
starts.
"""

from __future__ import annotations

import math

from .errors import ConfigError

def parse_config_text(text: str, source: str = "<config>") -> dict[str, tuple[str, int]]:
    """Raw key -> (value, line number) mapping with duplicate detection."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def parse_config_file(path) -> dict[str, tuple[str, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def finite_float(text: str) -> float:
    """float(text), refusing nan and +-inf with ValueError."""
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(text)
    return number


# what a kind's error message says the key expects, where "a <kind>" would not do
_EXPECTS = {
    "float-list": "comma-separated finite numbers",
    "coefficient": "a finite number or poly:c0,c1,... with finite c_i",
}


def _convert(key: str, value: str, lineno: int, kind: str, source: str):
    try:
        if kind == "float":
            return finite_float(value)
        if kind == "int":
            return int(value)
        if kind == "float-or-auto":
            if value.lower() == "auto":
                return None
            return finite_float(value)
        if kind == "float-list":
            return tuple(finite_float(c) for c in value.split(","))
        if kind == "coefficient":
            return parse_coefficient(value)
        return value  # str
    except ValueError:
        raise ConfigError(
            f"{source}:{lineno}: key {key!r} expects {_EXPECTS.get(kind, 'a ' + kind)}, got {value!r}"
            + (" (numbers must be finite)" if kind in ("float", "float-or-auto") else "")
        ) from None


class Config(dict):
    """A resolved config: key -> value, remembering the file and each set key's line."""

    def __init__(self, values, source: str, lines: dict[str, int]):
        super().__init__(values)
        self.source = source
        self.lines = lines

    def where(self, key: str) -> str:
        """Where key is set, "file:line: key 'k'", or "file: key 'k' (default)"."""
        if key in self.lines:
            return f"{self.source}:{self.lines[key]}: key {key!r}"
        return f"{self.source}: key {key!r} (default)"


def resolve(
    raw: dict[str, tuple[str, int]],
    schema: dict[str, tuple[str, object]],
    source: str = "<config>",
) -> Config:
    """Apply a {key: (type, default)} schema; unknown keys are rejected."""
    for key, (_, lineno) in raw.items():
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} for this command")
    resolved: dict[str, object] = {}
    for key, (kind, default) in schema.items():
        if key in raw:
            value, lineno = raw[key]
            resolved[key] = _convert(key, value, lineno, kind, source)
        else:
            if default is REQUIRED:
                raise ConfigError(f"{source}: missing required key {key!r}")
            resolved[key] = default
    return Config(resolved, source, {key: lineno for key, (_, lineno) in raw.items()})


REQUIRED = object()


def parse_coefficient(spec: str) -> tuple[float, ...]:
    """Coefficients c0, c1, ... in r of a spec: a plain finite number, or
    ``poly:c0,c1,...`` with finite c_i.

    Raises ValueError on anything else.
    """
    spec = spec.strip()
    if not spec.lower().startswith("poly:"):
        return (finite_float(spec),)
    return tuple(finite_float(c) for c in spec[5:].split(","))
