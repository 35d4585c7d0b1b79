"""Set-up probe: a fresh interpreter sets an in-process workload up.

Run as ``python3 probe.py <src dir> <workload> <seed>``. Prints
``ready`` once the workload's ``setup`` returned; the runner times the
process from launch to that line, which is what a user pays before the
first operation: interpreter start, imports, shared fixtures.
"""

from __future__ import annotations

import sys
from typing import Any


def make_workload(name: str) -> Any:
    """The in-process workload called ``name``."""
    if name == "engine":
        from engine_workload import Engine

        return Engine()
    from fleet_workload import Fleet

    return Fleet()


def main(argv: list) -> int:
    src, name, seed = argv
    sys.path.insert(0, src)
    make_workload(name).setup(int(seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
