"""Field rules shared by the network, scenario and CSV readers.

Every rule raises InputError, which the command line reports as exit 1
with one `error: ...` line.  A field is named like `pits[0].arc`,
`vehicles[0].waypoints[1]` or, at the top level, `seed`.  The readers pass
a field's place as `where`: a name as it is (`"scenario"`, `""` for the
top level) or the parts of one (`("vehicles", 0, "waypoints")`), which
`field_name` joins.  Each rule tests the accepting case first and returns
at once; only a value that fails goes on to the diagnostic tail, which
builds the field name, the key sets or the message, so that a field's name
is built only when a rule refuses it.  The readers pass their key sets as
module-level frozensets.
JSON values and CSV text share each rule and differ only in the parse
step: a JSON number is an int or float (never a bool or a string), while
CSV text is read by `float()` or matched as a decimal integer.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from typing import NoReturn


class InputError(ValueError):
    """An input file, or one of its fields, breaks the rules."""


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file at `path`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an int
        # literal past Python's digit limit; RecursionError, deep nesting
        raise InputError(f"{path}: invalid JSON: {exc}") from None


NO_KEYS: frozenset[str] = frozenset()  # for `keys`: a record with no optional key

# a field's place: a name as it is, or the parts of one (a key or an index each)
Where = str | tuple[str | int, ...]


def field_name(where: Where, *parts: str | int) -> str:
    """The name of the field at `where`, then `parts`: `("arcs", 12)` and
    `"tail"` give `arcs[12].tail`."""
    name = ""
    for part in ((where,) if isinstance(where, str) else where) + parts:
        if isinstance(part, int):
            name = f"{name}[{part}]"
        else:
            name = f"{name}.{part}" if name else part
    return name


def keys(obj, required: frozenset[str], optional: frozenset[str], where: Where) -> None:
    """Refuse `obj` unless it is an object with every required key and no
    key outside `required | optional`."""
    if not isinstance(obj, dict):
        raise InputError(f"{field_name(where)} must be an object, got {obj!r}")
    present = obj.keys()
    if present == required or (present >= required and present - required <= optional):
        return
    unknown = present - required - optional
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {field_name(where)}")
    raise InputError(f"missing keys {sorted(required - present)} in {field_name(where)}")


def section(raw: dict, name: str) -> list:
    """The list `raw[name]`, empty when absent; each item then goes through
    `keys`, which refuses one that is not an object."""
    items = raw.get(name, [])
    if not isinstance(items, list):
        raise InputError(f"{name!r} must be a list, got {items!r}")
    return items


def fail(item, key: str | int, where: Where, rule: str) -> NoReturn:
    """Raise InputError: the field `item[key]` of `where` must be `rule`."""
    raise InputError(f"{field_name(where, key)} must be {rule}, got {item[key]!r}")


def finite(item, key: str | int, where: Where) -> float:
    """`item[key]`, a JSON number, as a finite float."""
    value = item[key]
    if type(value) is float and math.isfinite(value):
        return value
    return _finite(value if type(value) is int else None, item, key, where)


def finite_text(row: dict[str, str], key: str) -> float:
    """`row[key]`, CSV text that `float()` reads, as a finite float."""
    try:
        number = float(row[key])
    except ValueError:
        number = None
    return _finite(number, row, key, "")


def _finite(number: float | int | None, item, key: str | int, where: Where) -> float:
    try:
        if number is not None and math.isfinite(number):
            return float(number)
    except OverflowError:  # an int too large for a float
        pass
    fail(item, key, where, "a finite number")


def integer(item, key: str | int, where: Where) -> int:
    """`item[key]`, a JSON integer."""
    value = item[key]
    if type(value) is int:
        return value
    fail(item, key, where, "an integer")


def integer_text(row: dict[str, str], key: str) -> int:
    """`row[key]`, CSV text of a decimal integer."""
    if not re.fullmatch(r"-?[0-9]+", row[key]):
        fail(row, key, "", "an integer")
    try:
        return int(row[key])
    except ValueError:  # more digits than Python converts
        fail(row, key, "", f"an integer of at most {sys.get_int_max_str_digits()} digits")


def string(item, key: str | int, where: Where) -> str:
    """`item[key]`, a non-empty string of printable characters.  The output
    files cannot hold a lone surrogate (a JSON escape can make one), a line
    break would split a trace line, and the CSV writers leave a carriage
    return unquoted, so that a reader would end the row there."""
    value = item[key]
    if isinstance(value, str) and value and value.isprintable():
        return value
    if not isinstance(value, str) or not value:
        fail(item, key, where, "a non-empty string")
    fail(item, key, where, "printable text")


def lookup(find, item, key: str | int, where: Where, what: str):
    """`find(item[key])`, where `item[key]` is the id of a `what` (an arc,
    a node ...) and `find` raises LookupError for an unknown id."""
    value = string(item, key, where)
    try:
        return find(value)
    except LookupError:
        raise InputError(f"{field_name(where, key)}: unknown {what} {value!r}") from None
