"""Key-value configuration files for benchmark specs.

Format: one ``section.key = value`` per line, ``#`` starts a comment. Lists
are comma-separated. Every key names one field of ``ExperimentSpec`` or of a
config object nested in it. :func:`schema` derives that key table from the
dataclass fields, and the table alone drives parsing
(:func:`spec_from_config`, which rejects every key outside it), the
``spec.cfg`` snapshot (:func:`spec_to_config`), the output config hash and
the key table in the README (:func:`key_table`). It reads each field's kind
and range from the same table the constructors check every value against
(``scenario.field_items`` and ``scenario.check_fields``), so the README
states each key's range as the code checks it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache

from .scenario import Bound, Rect, field_items


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
    bound: Bound | None = None  # the range of each value, None for none

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
            return self._spell(value)
        if self.pack is not tuple:
            value = [getattr(value, f.name) for f in fields(value)]
        return ",".join(self._spell(v) for v in value)

    def _spell(self, value) -> str:
        # Cast first, so that equal specs spell alike: 3 and 3.0 in a float
        # field both read "3.0", and 1 in a bool field reads "true". A value
        # the cast would change (20.5 in an int field) keeps its own spelling,
        # so that unequal specs do not spell alike either.
        cast = self.item(value)
        return _text(cast if cast == value else value)

    def describe(self) -> str:
        if self.pack not in (None, tuple):
            return ",".join(f.name for f in fields(self.pack))
        kind = self.item.__name__
        if self.pack is tuple:
            kind = f"{kind} list" if self.count is None else f"{self.count} {kind}s"
        return kind if self.bound is None else f"{kind} {self.bound}"


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
    spec field is an ``experiment.*`` key. Value types and ranges come from
    ``scenario.field_items``: ``tuple[float, ...]`` is a list of any length,
    while ``tuple[float, float]`` and ``Rect`` take exactly as many values as
    they have entries.
    """
    keys: dict[str, SchemaKey] = {}

    def walk(cls: type, path: tuple, section: str) -> None:
        for name, item, count, is_tuple, bound in field_items(cls):
            at = path + (name,)
            if is_dataclass(item) and item not in _VALUE_TYPES:
                walk(item, at, section or name)
                continue
            key = f"{section or 'experiment'}.{name}"
            if key in _ITEM_KEYS:
                for i, item_key in enumerate(_ITEM_KEYS[key]):
                    keys[item_key] = SchemaKey(at + (i,), item, bound=bound)
            elif key not in _UNFILED:
                pack = item if item in _VALUE_TYPES else tuple if is_tuple else None
                if pack not in (None, tuple):  # a value type's fields share one type
                    (item,) = {entry for _, entry, *_ in field_items(pack)}
                    count = len(fields(pack))
                keys[_RENAMED.get(key, key)] = SchemaKey(at, item, count, pack, bound)

    walk(spec_type, (), "")
    return dict(sorted(keys.items()))


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
