"""JSON-ready serialization of result objects.

Experiment results are frozen dataclasses whose fields mix nested
dataclasses, tuples, numpy scalars and dicts keyed by tuples.
:func:`jsonable` lowers any such object to plain JSON types so every
result's ``to_dict()`` can be a one-liner and ``json.dumps`` always
succeeds on the payload.

Lowering rules:

* objects exposing their own ``to_dict()`` delegate to it;
* dataclasses become ``{field: value}`` dicts;
* mappings keep string keys; tuple keys are joined with ``"/"`` (so a
  cell index like ``("Q4", "GRD", 1)`` serializes as ``"Q4/GRD/1"``);
* sequences and sets become lists;
* numpy scalars and arrays become their Python equivalents.

numpy is not imported here: a numpy value cannot exist unless numpy is
already in ``sys.modules``, so the numpy cases are tested only then, and
importing this module (the experiment registry and the CLI do) costs no
numpy import.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Mapping, Sequence


def _key(key: Any) -> str:
    """A JSON object key for an arbitrary dict key."""
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def jsonable(obj: Any) -> Any:
    """Recursively lower ``obj`` to JSON-serializable Python types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return [jsonable(value) for value in obj.tolist()]
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict) and not dataclasses.is_dataclass(obj):
        return jsonable(to_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {_key(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(value) for value in obj)
    if isinstance(obj, Sequence):
        return [jsonable(value) for value in obj]
    return str(obj)
