"""Import closures: a fresh interpreter loads only the modules it uses.

Subpackage ``__init__``s re-export nothing and the top-level quickstart
names load on first access, so each entry point's ``repro`` closure is
what its own imports need. Each case imports in a new interpreter and
reads ``sys.modules``; nothing here is timed.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, json, sys
sys.path.insert(0, {src!r})
for name in {modules!r}:
    importlib.import_module(name)
{extra}
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "repro" or name.startswith("repro.")
)))
"""


def loaded_after(*modules, extra=""):
    """The ``repro`` modules a fresh interpreter holds after importing."""
    code = _PROBE.format(src=str(SRC), modules=list(modules), extra=extra)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(json.loads(completed.stdout))


def under(loaded, *packages):
    """The modules of ``loaded`` inside any of ``packages``."""
    return sorted(
        name
        for name in loaded
        for package in packages
        if name == package or name.startswith(package + ".")
    )


def test_bare_package_loads_nothing_else():
    assert loaded_after("repro") == {"repro"}


def test_engine_setup_closure():
    loaded = loaded_after(
        "repro.netsim.fluid",
        "repro.netsim.link",
        "repro.netsim.stochastic",
        "repro.util.units",
    )
    assert loaded == {
        "repro",
        "repro.netsim",
        "repro.netsim.engine",
        "repro.netsim.fluid",
        "repro.netsim.link",
        "repro.netsim.stochastic",
        "repro.util",
        "repro.util.units",
        "repro.util.validate",
    }


def test_fleet_setup_skips_the_detailed_simulator():
    loaded = loaded_after("repro.fleet.dispatcher", "repro.fleet.population")
    assert not under(
        loaded,
        "repro.core.scheduler",
        "repro.experiments",
        "repro.web",
        "repro.netsim.fluid",
    )


def test_service_host_skips_the_harnesses():
    # The five imports of the service benchmark's host process.
    loaded = loaded_after(
        "repro.core.captracker",
        "repro.core.permits",
        "repro.core.resilience",
        "repro.service.server",
        extra="from repro.proto import LoopbackOrigin, MobileProxy",
    )
    assert not under(
        loaded,
        "repro.experiments",
        "repro.fleet",
        "repro.service.chaos",
        "repro.service.loadgen",
    )


def test_quickstart_names_resolve_on_access():
    loaded = loaded_after(
        "repro",
        extra=(
            "from repro import OnloadSession, EVALUATION_LOCATIONS\n"
            "assert OnloadSession.__module__ == 'repro.core.session'\n"
            "assert EVALUATION_LOCATIONS\n"
        ),
    )
    assert "repro.core.session" in loaded


def test_dir_lists_the_quickstart_names():
    import repro

    names = dir(repro)
    for name in repro.__all__:
        assert name in names
    assert "OnloadSession" in names and "EVALUATION_LOCATIONS" in names
