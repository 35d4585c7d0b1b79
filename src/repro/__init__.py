"""repro — a reproduction of "3GOL: Power-boosting ADSL using 3G OnLoading".

3GOL (Rossi et al., CoNEXT 2013) speeds up constrained residential ADSL
lines by "OnLoading" part of a transfer onto the 3G connections of phones
present in the home. This package reimplements the complete system —
multipath scheduler, HLS-aware proxy, multipart uploader, discovery,
cap/permit machinery — on top of a flow-level network simulator standing
in for the paper's hardware testbed, plus synthetic equivalents of its
proprietary traces and a benchmark harness regenerating every table and
figure of the evaluation.

Quickstart::

    from repro import OnloadSession, EVALUATION_LOCATIONS

    session = OnloadSession.for_location(EVALUATION_LOCATIONS[3], n_phones=2)
    session.host_bipbop()
    assisted = session.download_video("bipbop", "Q4")
    print(f"downloaded in {assisted.total_time:.1f}s")

The quickstart names load on first access (PEP 562), so ``import repro``
loads no other module of the package; the ``__init__``s of ``core``,
``netsim``, ``util``, ``web``, ``traces``, ``fleet`` and ``service``
re-export nothing, so an entry point loads only the modules it imports.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"

__all__ = [
    "Direction",
    "OnloadSession",
    "OperatingMode",
    "Transaction",
    "TransferItem",
    "make_policy",
    "EVALUATION_LOCATIONS",
    "MEASUREMENT_LOCATIONS",
    "Household",
    "HouseholdConfig",
    "LocationProfile",
    "location_by_name",
    "BIPBOP_QUALITIES",
    "make_bipbop_video",
    "Photo",
    "__version__",
]


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__``/``__dir__`` for ``package``.

    ``table`` maps each exported name to its defining module, which is
    imported on the name's first access; the value is then cached in
    the package namespace. Importing the package itself stays free.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Direction": "repro.core.items",
        "Transaction": "repro.core.items",
        "TransferItem": "repro.core.items",
        "make_policy": "repro.core.scheduler",
        "OperatingMode": "repro.core.mobile",
        "OnloadSession": "repro.core.session",
        "EVALUATION_LOCATIONS": "repro.netsim.topology",
        "MEASUREMENT_LOCATIONS": "repro.netsim.topology",
        "Household": "repro.netsim.topology",
        "HouseholdConfig": "repro.netsim.topology",
        "LocationProfile": "repro.netsim.topology",
        "location_by_name": "repro.netsim.topology",
        "BIPBOP_QUALITIES": "repro.web.hls",
        "make_bipbop_video": "repro.web.hls",
        "Photo": "repro.web.upload",
    },
)
