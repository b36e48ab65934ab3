"""Key-value configuration files for benchmark specs.

Format: one ``section.key = value`` per line, ``#`` starts a comment. Lists
are comma-separated. Every key names one field of ``ExperimentSpec`` or of a
config object nested in it. :func:`schema` derives that key table from the
dataclass fields, and the table alone drives parsing
(:func:`spec_from_config`, which rejects every key outside it), the
``spec.cfg`` snapshot (:func:`spec_to_config`), the output config hash and
the key table in the README (:func:`key_table`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .scenario import Rect


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat string map."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_kv(fh.read())


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


@dataclass(frozen=True)
class SchemaKey:
    """One file key: where its value sits on the spec and how it is spelled."""

    path: tuple  # attribute names and tuple indices, starting at the spec
    item: type  # int, float, bool or str: the type of each listed value
    count: int | None = 1  # comma-separated values; None means one or more
    pack: type | None = None  # tuple or a value type for lists, None for scalars

    def parse(self, key: str, raw: str):
        parts = [part.strip() for part in raw.split(",")] if self.pack else [raw]
        if self.count is not None and len(parts) != self.count:
            raise ConfigError(f"{key} expects {self.count} comma-separated values, got {raw!r}")
        try:
            values = [_bool(p) if self.item is bool else self.item(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{key} expects {self.describe()}, got {raw!r}") from None
        if self.item is float and not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} expects finite values, got {raw!r}")
        if self.pack is None:
            return values[0]
        return tuple(values) if self.pack is tuple else self.pack(*values)

    def format(self, value) -> str:
        if self.pack is None:
            return _text(value)
        if self.pack is not tuple:
            value = [getattr(value, f.name) for f in fields(value)]
        return ",".join(_text(v) for v in value)

    def describe(self) -> str:
        name = self.item.__name__
        if self.pack is None:
            return name
        if self.pack is not tuple:
            return ",".join(f.name for f in fields(self.pack))
        return f"{name} list" if self.count is None else f"{self.count} {name}s"


# Written as their comma-separated fields, not as a section of their own.
_VALUE_TYPES = (Rect,)
# Spec fields whose keys depart from ``experiment.<field>``.
_RENAMED = {"experiment.population": "cma.population"}
_ITEM_KEYS = {"experiment.weights": ("weights.detection", "weights.latency", "weights.power")}
# Fields that no file sets and no snapshot records. ``jobs`` only says how
# many processes run the repetitions, which never changes an output byte.
_UNFILED = {"experiment.jobs"}


@cache
def schema(spec_type: type) -> dict[str, SchemaKey]:
    """Every file key of ``spec_type`` (an ``ExperimentSpec``), sorted by key.

    A config object on the spec is the section named after its field, with
    config objects nested inside it flattened into that section. Every other
    spec field is an ``experiment.*`` key. Value types come from the field
    annotations: ``tuple[float, ...]`` is a list of any length, while
    ``tuple[float, float]`` and ``Rect`` take exactly as many values as they
    have entries.
    """
    keys: dict[str, SchemaKey] = {}

    def walk(cls: type, path: tuple, section: str) -> None:
        hints = get_type_hints(cls)
        for f in fields(cls):
            hint, at = hints[f.name], path + (f.name,)
            if is_dataclass(hint) and hint not in _VALUE_TYPES:
                walk(hint, at, section or f.name)
                continue
            key = f"{section or 'experiment'}.{f.name}"
            if key in _ITEM_KEYS:
                for i, (item_key, item) in enumerate(zip(_ITEM_KEYS[key], get_args(hint))):
                    keys[item_key] = SchemaKey(at + (i,), item)
            elif key not in _UNFILED:
                keys[_RENAMED.get(key, key)] = _schema_key(at, hint)

    walk(spec_type, (), "")
    return dict(sorted(keys.items()))


def _schema_key(path: tuple, hint) -> SchemaKey:
    if hint in _VALUE_TYPES:
        (item,) = set(get_type_hints(hint).values())
        return SchemaKey(path, item, len(fields(hint)), hint)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args[-1] is Ellipsis:
            return SchemaKey(path, args[0], None, tuple)
        (item,) = set(args)
        return SchemaKey(path, item, len(args), tuple)
    return SchemaKey(path, hint)


def _get(obj, path: tuple):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _apply(obj, updates: dict[tuple, object]):
    """``obj`` with the value at each path of ``updates`` replaced.

    Each object on the way is rebuilt once, with all of its updates at
    once, so its checks see the final combination of values.
    """
    if () in updates:
        return updates[()]
    by_head: dict = {}
    for path, value in updates.items():
        by_head.setdefault(path[0], {})[path[1:]] = value
    new = {head: _apply(_get(obj, (head,)), sub) for head, sub in by_head.items()}
    if isinstance(obj, tuple):
        return tuple(new.get(i, v) for i, v in enumerate(obj))
    return replace(obj, **new)


def spec_from_config(cfg: dict[str, str], base):
    """``base`` (an ``ExperimentSpec``) with every key of ``cfg`` applied.

    Keys outside the schema raise :class:`ConfigError`, as do values of the
    wrong type or count; the spec's own checks raise ``ValueError``.
    """
    table = schema(type(base))
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return _apply(base, {table[k].path: table[k].parse(k, raw) for k, raw in cfg.items()})


def spec_to_config(spec) -> dict[str, str]:
    """Flat key-value snapshot of a spec (drives the output config hash)."""
    return {key: entry.format(_get(spec, entry.path)) for key, entry in schema(type(spec)).items()}


def key_table(spec) -> str:
    """Markdown table of every file key, its value type and its value in ``spec``."""
    values = spec_to_config(spec)
    rows = ["| key | type | default |", "| --- | --- | --- |"]
    for key, entry in schema(type(spec)).items():
        rows.append(f"| `{key}` | {entry.describe()} | `{values[key]}` |")
    return "\n".join(rows)


def config_hash(cfg: dict[str, str]) -> str:
    """Short stable digest of a config map, for output provenance lines."""
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
