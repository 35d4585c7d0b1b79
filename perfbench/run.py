"""Layered benchmark of the 3GOL reproduction: engine, fleet and service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each exists); an *operation*
is the unit each one times:

``engine``      one fluid-network scenario of 120 staggered flows,
                stepped until it drains;
``fleet``       one simulated city day, 10 000 households in 96
                15-minute rounds, in-process;
``service``     one photo upload through the live onload service, from
                a sequential client in another process.

Inputs come from ``--seed`` alone. Operations run back to back for
``--seconds``; each one's output is checked, untimed, against
invariants the program must keep. Set-up — launching a fresh
interpreter (or service host) and getting it ready for the first
operation — is timed ``SETUP_REPEATS`` times and reported as the
median.

``--trace 0`` reports the end-to-end metrics: ``op_p50_ms``, the median
operation time, and ``setup_s``, both at a reference host speed: each
operation and each set-up is paired with a fixed spin timed just
before it, and medians are scaled by how much slower or faster than
the reference the spin ran (``hostspeed.py``). The operation median is
taken per slice of the window, then the median over slices. No tail
percentile is reported: a shared cloud host runs up to 1.5x slower for
seconds to minutes while its other tenants are busy, and a tail
percentile flips between the host's fast and slow states from run to
run.

``--trace 1`` wraps the layer boundaries listed in ``layers.py`` in
spans (``spans.py``) and reports each layer's self time and call count
per operation, plus ``traced_op_p50_ms``, whose distance from the
untraced ``op_p50_ms`` is the tracing overhead. A layer boundary the
program no longer has makes the traced run not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status is 0
when the run completed (correct or not) and 2 when the program's
source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from hostspeed import scaled, sliced, spin
from layers import per_op_metrics

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("engine", "fleet", "service")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Spins timed before each set-up; their median is its pair.
SETUP_SPINS = 5

#: The measured window is cut into this many equal slices
#: (``hostspeed.sliced``).
SLICES = 5


@dataclass
class Outcome:
    """What one run measured."""

    #: (end, seconds) of every operation that completed. ``end`` is on
    #: the window's clock: program-busy seconds for back-to-back
    #: in-process operations, wall seconds for the service's uploads.
    ops: List[Tuple[float, float]]
    #: (end, seconds) of the host-speed spins paired with them.
    spins: List[Tuple[float, float]]
    #: Length of the window on that clock.
    window_s: float
    attempted: int
    failed: int
    problems: List[str]
    #: Set-up samples and the spin paired with each, seconds.
    setups: List[float]
    setup_spins: List[float]
    #: Span totals over the measured window (traced runs).
    spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _op_p50_ms(out: Outcome) -> Dict[str, Any]:
    """Median operation time at the reference host speed."""
    seconds = sliced(out.ops, out.spins, out.window_s, SLICES)
    return _metric(seconds * 1000.0, "ms")


def _probe_setup(src: Path, name: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to its ``ready`` line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(src), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
        if proc.stdout is not None:
            proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{name} set-up probe failed")
    return elapsed


def _missing(boundaries: List[str]) -> List[str]:
    return [
        f"layer boundary {name} not found; its layer cannot be measured"
        for name in boundaries
    ]


def run_in_process(
    src: Path, name: str, seed: int, seconds: float, traced: bool
) -> Outcome:
    """An in-process workload: operations back to back, in this process."""
    from layers import LAYERS, difference
    from probe import make_workload
    from spans import Spans

    setups: List[float] = []
    setup_spins: List[float] = []
    for _ in range(SETUP_REPEATS):
        setup_spins.append(spin(SETUP_SPINS))
        setups.append(_probe_setup(src, name, seed))
    workload = make_workload(name)
    workload.setup(seed)
    problems: List[str] = []
    spans = Spans(LAYERS) if traced else None
    if spans is not None:
        workload.trace(spans)
        problems += _missing(spans.missing)

    # One untimed operation first, so lazy imports and first-touch
    # allocations are not charged to the measured window.
    warm = workload.make_input(seed, -1)
    problems += workload.check(warm, workload.op(warm))

    ops: List[Tuple[float, float]] = []
    spins: List[Tuple[float, float]] = []
    busy = 0.0
    failed = 0
    before = spans.totals() if spans is not None else {}
    window = time.perf_counter()
    index = 0
    while time.perf_counter() - window < seconds:
        inputs = workload.make_input(seed, index)
        index += 1
        paired = spin()
        started = time.perf_counter()
        try:
            output = workload.op(inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(f"operation {index - 1} raised {exc!r}")
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        ops.append((busy, elapsed))
        spins.append((busy, paired))
        issues = workload.check(inputs, output)
        if issues:
            failed += 1
            problems += issues
    totals = (
        difference(spans.totals(), before) if spans is not None else {}
    )
    problems += workload.final_check()
    return Outcome(
        ops, spins, busy, index, failed, problems, setups, setup_spins, totals
    )


def run_service(src: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    """The service workload: one upload after another."""
    from layers import difference
    from service_client import Uploader, start_host

    setups: List[float] = []
    setup_spins: List[float] = []
    for attempt in range(SETUP_REPEATS):
        last = attempt == SETUP_REPEATS - 1
        setup_spins.append(spin(SETUP_SPINS))
        started = time.perf_counter()
        host = start_host(src, seed, traced and last)
        setups.append(time.perf_counter() - started)
        if not last:
            host.stop()
    try:
        loop = Uploader(host, seed)
        before = host.command("snapshot") if traced else {"spans": {}}
        window = loop.run(seconds)
        after = host.command("snapshot") if traced else {"spans": {}}
    finally:
        report = host.stop()
    totals = difference(
        {k: tuple(v) for k, v in after["spans"].items()},
        {k: tuple(v) for k, v in before["spans"].items()},
    )
    problems = _missing(after.get("missing", []))
    problems += loop.problems + loop.check_report(report)
    return Outcome(
        loop.completed,
        loop.spins,
        window,
        loop.attempted,
        loop.failed,
        problems,
        setups,
        setup_spins,
        totals,
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    traced = args.trace == 1
    if args.workload == "service":
        out = run_service(src, args.seed, args.seconds, traced)
    else:
        out = run_in_process(
            src, args.workload, args.seed, args.seconds, traced
        )
    for problem in out.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    done = len(out.ops)
    metrics: Dict[str, Dict[str, Any]] = {}
    if done and traced:
        metrics = per_op_metrics(out.spans, done)
        metrics["traced_op_p50_ms"] = _op_p50_ms(out)
        spin_ms = statistics.median(s for _, s in out.spins) * 1000.0
        metrics["host_spin_ms"] = _metric(spin_ms, "ms")
    elif done:
        metrics = {
            "op_p50_ms": _op_p50_ms(out),
            "setup_s": _metric(scaled(out.setups, out.setup_spins), "s"),
        }
    result = {
        "correct": done > 0 and out.failed == 0 and not out.problems,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if done else max(out.attempted, 1),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
