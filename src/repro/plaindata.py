"""Plain-dict deserialization shared by the frozen spec dataclasses.

The declarative specs round-trip through plain dicts, so JSON sidecars
and shard payloads rebuild the same object.  :func:`from_plain_dict`
is the one ``from_dict`` body they share.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Type, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def from_plain_dict(cls: Type[T], data: Any, label: str) -> T:
    """``cls(**data)``, rejecting a non-dict ``data`` and unknown keys.

    ``label`` names the spec in error messages (``"fleet spec"``).
    Nested specs are coerced by ``cls.__post_init__``, not here.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{label} must be an object, got {type(data).__name__}"
        )
    unknown = set(data) - {spec_field.name for spec_field in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown {label} keys: {sorted(unknown)}")
    return cls(**data)
