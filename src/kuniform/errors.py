"""Shared exception types and the input rules.

These mark the two failure modes the library distinguishes from plain
programming errors: a computation that does not apply to the given input,
and an input exceeding a fixed capacity cap.

`MAX_PARTIES` caps the party count a command accepts from outside the
program, so that a huge request fails at once with a `CapacityError`
instead of running without end or exhausting memory.  It sits well above
every size in use (the published tables reach N = 276).  `MAX_DIM_BITS`
caps the summed bit lengths of a profile's dimensions in the same way.

Every value from outside the program (an argument, a JSON document, a
command-line count) passes one input rule below, once, where it enters;
each raises ValueError naming the value it refuses.
"""

import json
import re

MAX_PARTIES = 4096
# The bit lengths of a profile's dimensions, summed over its parties, bound
# the size of every integer the subset search and the Schmidt test handle.
# The widest searches run on 4095 parties of a few near-equal dimensions,
# such as (2^16-1)x2047,(2^16-2)x2048: `ame` takes 0.18-0.26 s there at
# this cap, and 0.42-0.52 s at twice it (2-core VM, Python 3.11).
MAX_DIM_BITS = 65536

# an integer as the command line and the profile grammar write it
_INT_TEXT = re.compile(r"-?[0-9]+")


class NotApplicableError(RuntimeError):
    """The requested computation is not defined for this input."""


class CapacityError(RuntimeError):
    """The input exceeds a fixed size cap of the exact computations."""


def check_party_count(n_parties: int) -> None:
    """Raise CapacityError when a party count exceeds `MAX_PARTIES`."""
    if n_parties > MAX_PARTIES:
        raise CapacityError(
            f"party count {n_parties} exceeds the cap of {MAX_PARTIES} parties"
        )


def read_int(text: str, what: str, least: int) -> int:
    """The integer `text` writes in ASCII digits with an optional "-", by `exact_int`.

    Any other text, such as "1_0", "+3", " 3" or a non-ASCII digit, which
    Python's `int()` would read, raises ValueError naming `text`.
    """
    if _INT_TEXT.fullmatch(text) is None:
        raise ValueError(f"{what} must be an integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:  # above the interpreter's limit on digits converted
        raise ValueError(f"{what} has {len(text)} digits, more than Python converts") from None
    return exact_int(value, what, least)


def exact_int(value, what: str, least: int) -> int:
    """`value` itself when it is an exact int >= `least`, else ValueError."""
    # an exact type test, since bool is a subclass of int
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def exact_ints(values, what: str, least: int) -> tuple[int, ...]:
    """`values` as a tuple of exact ints >= `least`; a bad entry is named as `what[i]`."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be an array of integers, got {values!r}")
    for index, value in enumerate(values):
        if type(value) is not int or value < least:  # the label is formatted only here
            exact_int(value, f"{what}[{index}]", least)
    return tuple(values)


def party_subset(subset, n_parties: int) -> tuple[int, ...]:
    """`subset` as distinct exact ints in 0..n_parties-1: each range first, then distinctness."""
    members = tuple(subset)
    for i in members:
        if exact_int(i, "party index", 0) >= n_parties:
            raise ValueError(f"party index {i} out of range")
    if len(set(members)) != len(members):
        raise ValueError("subset indices must be distinct")
    return members


def read_json(text: str, what: str):
    """The document in `text`; nesting too deep to parse raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{what} is nested too deeply") from exc


def required(doc, key: str, what: str):
    """`doc[key]`; ValueError naming `what` if `doc` is no JSON object or lacks `key`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} is missing key {key!r}") from None
