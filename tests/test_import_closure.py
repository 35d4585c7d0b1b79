"""Import closures: a fresh interpreter loads only the modules it uses.

Subpackage ``__init__``s re-export nothing and the top-level quickstart
names load on first access, so each entry point's ``repro`` closure is
what its own imports need. Each case imports in a new interpreter and
reads ``sys.modules``; nothing here is timed. One case serves an upload
with numpy blocked, which also catches imports made lazily on the way.
The re-export convention itself is checked on each ``__init__``'s AST.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The two packages whose inits export names lazily, by design.
LAZY_EXPORTERS = ("repro", "repro.proto")

SUBPACKAGE_INITS = {
    ".".join(init.parent.relative_to(SRC).parts): init
    for init in sorted((SRC / "repro").rglob("__init__.py"))
}
for _package in LAZY_EXPORTERS:
    del SUBPACKAGE_INITS[_package]


@pytest.mark.parametrize("package", sorted(SUBPACKAGE_INITS))
def test_subpackage_init_reexports_nothing(package):
    # Every imported name is used by the init itself, and ``__all__``
    # names only what the init defines: one import path per name.
    tree = ast.parse(SUBPACKAGE_INITS[package].read_text(encoding="utf-8"))
    imported = set()
    used = set()
    defined = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            defined.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = set(ast.literal_eval(node.value))
    assert sorted(imported - used) == []
    assert sorted(exported - defined) == []

_PROBE = """
import importlib, json, sys
sys.path.insert(0, {src!r})
for name in {modules!r}:
    importlib.import_module(name)
{extra}
print(json.dumps(sorted(sys.modules)))
"""


def run_fresh(code):
    """Run ``code`` in a new interpreter; returns its last output line."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout.strip().splitlines()[-1]


def modules_after(*modules, extra=""):
    """Every module a fresh interpreter holds after importing."""
    code = _PROBE.format(src=str(SRC), modules=list(modules), extra=extra)
    return set(json.loads(run_fresh(code)))


def loaded_after(*modules, extra=""):
    """The ``repro`` modules a fresh interpreter holds after importing."""
    return set(under(modules_after(*modules, extra=extra), "repro"))


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
    everything = modules_after(
        "repro.core.captracker",
        "repro.core.permits",
        "repro.core.resilience",
        "repro.service.server",
        extra="from repro.proto import LoopbackOrigin, MobileProxy",
    )
    assert not under(
        everything,
        "numpy",
        "repro.netsim",
        "repro.core.scheduler",
        "repro.core.mobile",
    )
    assert set(under(everything, "repro")) == {
        "repro",
        "repro.core",
        "repro.core.captracker",
        "repro.core.permits",
        "repro.core.resilience",
        "repro.obs",
        "repro.obs.capture",
        "repro.obs.metrics",
        "repro.obs.schema",
        "repro.obs.tracer",
        "repro.proto",
        "repro.proto.errors",
        "repro.proto.httpwire",
        "repro.proto.mobileproxy",
        "repro.proto.origin",
        "repro.proto.server",
        "repro.proto.shaping",
        "repro.service",
        "repro.service.admission",
        "repro.service.lifecycle",
        "repro.service.server",
        "repro.util",
        "repro.util.units",
        "repro.util.validate",
        "repro.web",
        "repro.web.hls",
    }


_SERVE_WITHOUT_NUMPY = """
import json, socket, sys
sys.modules["numpy"] = None  # any import of numpy now raises
sys.path.insert(0, {src!r})
from repro.core.captracker import CapTracker
from repro.core.permits import PermitServer
from repro.core.resilience import FlowLedger, RetryBudget
from repro.proto import LoopbackOrigin, MobileProxy, httpwire
from repro.service.server import OnloadService, ServiceLeg

origin = LoopbackOrigin()
origin.start()
proxy = MobileProxy(origin.address, name="ph1", recv_timeout=5.0).start()
ledger = FlowLedger(
    {{"ph1": CapTracker(daily_budget_bytes=1e15)}},
    permit_server=PermitServer(utilization_fn=lambda cell, now: 0.3),
)
service = OnloadService(
    legs=[
        ServiceLeg("adsl", origin.address),
        ServiceLeg("ph1", proxy.address, device="ph1", cell="c0"),
    ],
    recv_timeout=5.0,
    retry_budget=RetryBudget(seed=7),
    ledger=ledger,
)
service.start()
with socket.create_connection(service.address, timeout=5.0) as sock:
    sock.sendall(httpwire.render_request(
        "POST", "/photo.jpg", "origin", body=b"u" * 4096
    ))
    status, _, _ = httpwire.read_response(sock, timeout=5.0)
drain = service.stop()
proxy.stop()
origin.stop()
print(json.dumps({{
    "status": status,
    "uploads": dict(origin.uploads),
    "stranded": service.report().stranded(),
    "drained": drain.met_deadline,
}}))
"""


def test_service_serves_an_upload_without_numpy():
    # A closure test only sees module-level imports; this one fails on
    # any numpy import the serving path makes lazily.
    outcome = json.loads(run_fresh(_SERVE_WITHOUT_NUMPY.format(src=str(SRC))))
    assert outcome == {
        "status": 200,
        "uploads": {"/photo.jpg": 4096},
        "stranded": 0,
        "drained": True,
    }


def test_analysis_stats_loads_no_other_analysis_module():
    # fig05, fig08 and fig10 need only the statistics helpers.
    loaded = loaded_after("repro.analysis.stats")
    assert under(loaded, "repro.analysis") == [
        "repro.analysis",
        "repro.analysis.stats",
    ]


def test_cli_imports_topology_only_for_locations():
    assert "repro.netsim.topology" not in loaded_after("repro.cli")


def test_cli_loads_no_numpy():
    # ``repro-3gol --help`` pays for what ``repro.cli`` imports; the
    # registry's serializer tests numpy types only once numpy is loaded.
    assert not under(modules_after("repro.cli"), "numpy")


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


def test_wire_campaign_loads_no_numpy_or_scenario_executor():
    # The campaign table imports a target's module only when that
    # target is selected, so a wire campaign stays off the simulator.
    loaded = modules_after(
        "repro.hunt.cli",
        extra=(
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = sys.modules['repro.hunt.cli'].main(\n"
            "        ['run', '--target', 'm3u8', '--budget', '20'])\n"
            "assert code == 0, code"
        ),
    )
    assert not under(loaded, "numpy", "repro.hunt.run", "repro.netsim")
