"""Minimal sectioned key=value config files, read against a typed schema.

UTF-8 text, one ``key = value`` per line, ``[section]`` headers and ``#``
comments: a ``#`` at the start of a line or after whitespace starts one, so
``a#1`` is a value.  A schema maps each section to ``{key: parser}``; a key
is a regular expression matched against the whole name, so plain names match
only themselves and ``layer\\d+`` matches every ``layerN``.  Reading is
fail-closed: unknown sections, unknown keys and values their parser rejects
raise ``ConfigError`` naming ``section.key``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path


class ConfigError(ValueError):
    pass


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_COMMENT_RE = re.compile(r"(^|\s)#.*")


def parse_config(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw, count=1).strip()
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            current_name = match.group(1)
            current = sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: invalid key {key!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key {key!r} outside any [section]")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = value
    return sections


def load_config(path) -> dict[str, dict[str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def float_list(text: str) -> list[float]:
    """Comma-separated finite numbers; empty items are skipped."""
    return [finite_float(part) for part in text.split(",") if part.strip()]


def boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def read_config(path, schema: dict[str, dict[str, object]]) -> dict[str, dict[str, object]]:
    """Every schema section, holding the parsed values of the keys the file sets."""
    typed: dict[str, dict[str, object]] = {name: {} for name in schema}
    for name, values in load_config(path).items():
        if name not in schema:
            raise ConfigError(f"unknown section [{name}]")
        for key, text in values.items():
            parser = next((p for pattern, p in schema[name].items()
                           if re.fullmatch(pattern, key)), None)
            if parser is None:
                raise ConfigError(f"unknown key {name}.{key}")
            try:
                typed[name][key] = parser(text)
            except ValueError as exc:
                raise ConfigError(f"{name}.{key} = {text!r}: {exc}") from None
    return typed
