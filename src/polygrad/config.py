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
import math
import re

from .errors import ConfigError

__all__ = ["Config", "parse_config", "load_config", "canonical_text", "config_hash"]

FORMAT_VERSION = 1

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class Config:
    """Parsed key-value mapping with typed, error-reporting accessors of the keys it sets."""

    def __init__(self, values: dict[str, str], source: str = "<memory>"):
        self.values = values
        self.source = source

    def get_str(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        raw = self.values[key]
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects an integer, got {raw!r}", key=key) from None

    def get_float(self, key: str) -> float:
        raw = self.values[key]
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects a number, got {raw!r}", key=key) from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.source}: key {key!r} expects a finite number, got {raw!r}", key=key)
        return value

    def get_list(self, key: str) -> list[str]:
        return [part.strip() for part in self.values[key].split(",") if part.strip()]

    def get_float_list(self, key: str) -> list[float]:
        raw = self.values[key]
        try:
            values = [float(p) for p in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects numbers, got {raw!r}", key=key) from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{self.source}: key {key!r} expects finite numbers, got {raw!r}", key=key)
        return values

    def get_int_list(self, key: str) -> list[int]:
        raw = self.values[key]
        try:
            return [int(p) for p in self.get_list(key)]
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r} expects integers, got {raw!r}", key=key) from None


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
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config(fh.read(), source=str(path))


def canonical_text(cfg: Config) -> str:
    return "".join(f"{k} = {cfg.values[k]}\n" for k in sorted(cfg.values))


def config_hash(cfg: Config) -> str:
    return hashlib.blake2b(canonical_text(cfg).encode("utf-8"), digest_size=16).hexdigest()
