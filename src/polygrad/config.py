"""Flat key=value config/plan files: parsing, validation, hashing.

Grammar (one statement per line):

    # full-line comment
    key.with.dots = value

Keys are dotted lowercase identifiers, values are free text up to end
of line (stripped). Blank lines are ignored. Every file must declare
``format_version``. The canonical text of a parsed config (sorted
``key = value`` lines) feeds a blake2b hash used as provenance.
"""

from __future__ import annotations

import hashlib
import re

from .errors import ConfigError

__all__ = ["Config", "parse_config", "load_config", "canonical_text", "config_hash"]

FORMAT_VERSION = 1

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


class Config:
    """Parsed key-value mapping with typed, error-reporting accessors."""

    def __init__(self, values: dict[str, str], source: str = "<memory>"):
        self.values = values
        self.source = source

    def get_str(self, key: str, default: str | None = None):
        return self.values.get(key, default)

    def get_int(self, key: str, default: int | None = None):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects an integer, got {raw!r}", key=key) from None

    def get_float(self, key: str, default: float | None = None):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects a number, got {raw!r}", key=key) from None

    def get_bool(self, key: str, default: bool | None = None):
        raw = self.values.get(key)
        if raw is None:
            return default
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{self.source}: key {key!r} expects a boolean, got {raw!r}", key=key)

    def get_list(self, key: str, default: list[str] | None = None):
        raw = self.values.get(key)
        if raw is None:
            return default if default is not None else []
        return [part.strip() for part in raw.split(",") if part.strip()]

    def get_float_list(self, key: str, default: list[float] | None = None):
        if key not in self.values:
            return default if default is not None else []
        try:
            return [float(p) for p in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects numbers", key=key) from None

    def get_int_list(self, key: str, default: list[int] | None = None):
        if key not in self.values:
            return default if default is not None else []
        try:
            return [int(p) for p in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects integers", key=key) from None

def parse_config(text: str, source: str = "<memory>") -> Config:
    values: dict[str, str] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {line_num}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}: line {line_num}: malformed key {key!r}", key=key)
        if key in values:
            raise ConfigError(f"{source}: line {line_num}: duplicate key {key!r}", key=key)
        values[key] = value
    if "format_version" not in values:
        raise ConfigError(f"{source}: missing required key 'format_version'", key="format_version")
    cfg = Config(values, source)
    version = cfg.get_int("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(
            f"{source}: unsupported format_version {version} (expected {FORMAT_VERSION})",
            key="format_version",
        )
    return cfg


def load_config(path) -> Config:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def canonical_text(cfg: Config) -> str:
    return "".join(f"{k} = {cfg.values[k]}\n" for k in sorted(cfg.values))


def config_hash(cfg: Config) -> str:
    return hashlib.blake2b(canonical_text(cfg).encode("utf-8"), digest_size=16).hexdigest()
