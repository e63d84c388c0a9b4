"""Deterministic JSON rendering shared by the exporters and the CLI.

Keys are emitted in the insertion order each producer fixes, and every
non-integer rational is rendered as a decimal string with 12 significant
digits, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

RATIONAL_SPEC = ".12g"


def rational_str(value: Fraction | float | int) -> str:
    """Render a rational as a decimal string with 12 significant digits."""
    return format(float(value), RATIONAL_SPEC)


def count_value(value: int | float) -> int | str:
    """Counts stay JSON integers; perturbed non-integer counts become strings."""
    if isinstance(value, int):
        return value
    return rational_str(value)


def dump_json(obj: object) -> str:
    """Serialize with a fixed, newline-terminated layout."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"
