"""The fleet workload: one simulated city day per operation.

Each operation runs ``run_policy`` over a fresh city sampled from
``(seed, index)``, in-process (``jobs=1``, the program's default), and
its output is checked, untimed, against invariants the program must
keep. ``setup`` is what a fresh process must do before its first
operation; the runner times it in fresh interpreters (``probe.py``).
"""

from __future__ import annotations

import inspect
import random
from typing import Any, List, Optional, Tuple

from spans import Spans

#: Households per city. Rounds keep the program's default length (15
#: minutes, 96 per day), so the day has the program's own mix of
#: per-round and per-household work; the city is small enough that an
#: in-process day stays well under a second: on a host whose speed
#: drifts, a median of many short operations holds steadier than a few
#: long ones.
HOUSEHOLDS = 10_000
#: The heavier of the two onload policies (every sector grants, so caps
#: burn), half the city adopting — the repository's committed fleet
#: scenario.
POLICY = "multi-provider"
ADOPTION = 0.5
#: Oversubscribed DSLAM backhaul (Mbps), so peak-hour contention — what
#: the per-round shard exchange resolves — is exercised.
BACKHAUL_MBPS = 16.0


def trace_fleet(spans: Spans) -> None:
    """Spans on sampling, the exchange legs, the verdict and the merge.

    The dispatcher runs each round as a timer of its
    ``SimulationEngine``; that timer's self time is what of a round no
    other span covers: the merge of shard aggregates. An exchange's self
    time is the dispatch loop around the legs it runs.
    """
    import repro.fleet.dispatcher as dispatcher
    from repro.netsim.engine import SimulationEngine

    spans.patch_method(SimulationEngine, "run_due_timers", "fleet_merge")
    exchange = getattr(dispatcher, "_Exchange", None)
    if exchange is None:
        spans.missing.append("repro.fleet.dispatcher._Exchange")
    else:
        spans.patch_method(exchange, "map", "fleet_exchange")
    spans.patch_function(
        "repro.fleet.population", "sample_population", "fleet_sample"
    )
    spans.patch_function("repro.fleet.shard", "offer", "fleet_offer")
    spans.patch_function(
        "repro.fleet.shard", "settle_onload", "fleet_settle"
    )
    spans.patch_function("repro.fleet.shard", "finish_round", "fleet_finish")
    spans.patch_function(
        "repro.fleet.dispatcher", "_onload_verdict", "fleet_verdict"
    )
    spans.patch_function(
        "repro.fleet.dispatcher", "_background_bytes", "fleet_verdict"
    )


class Fleet:
    """``run_policy`` over a fresh seeded city, in-process."""

    trace = staticmethod(trace_fleet)

    def __init__(self) -> None:
        self._first: Optional[Tuple[Any, Any]] = None

    def setup(self, seed: int) -> None:
        """Import the program and resolve what ``run_policy`` accepts."""
        from repro.fleet.dispatcher import run_policy
        from repro.fleet.population import FleetParameters
        from repro.util.units import mbps

        self.run_policy = run_policy
        self.params_cls = FleetParameters
        self.backhaul_bps = mbps(BACKHAUL_MBPS)
        accepted = inspect.signature(run_policy).parameters
        self.can_reshard = "n_shards" in accepted

    def make_input(self, seed: int, index: int) -> Any:
        """City parameters of operation ``index`` under run ``seed``."""
        city_seed = random.Random(seed * 1_000_003 + index).randrange(2**31)
        return self.params_cls(
            n_households=HOUSEHOLDS,
            seed=city_seed,
            dslam_backhaul_bps=self.backhaul_bps,
        )

    def op(self, inputs: Any) -> Any:
        """One city day."""
        return self.run_policy(inputs, POLICY, ADOPTION)

    def check(self, inputs: Any, output: Any) -> List[str]:
        """Problems with one day's output (empty: correct)."""
        import numpy as np

        if self._first is None:
            self._first = (inputs, output)
        run = output
        problems: List[str] = []
        if len(run.round_arrivals) != inputs.n_rounds:
            problems.append(
                f"{len(run.round_arrivals)} rounds, want {inputs.n_rounds}"
            )
            return problems
        arrivals = np.asarray(run.round_arrivals, dtype=np.int64)
        adsl = np.asarray(run.round_adsl, dtype=np.int64)
        onload = np.asarray(run.round_onload, dtype=np.int64)
        backlog = np.asarray(run.round_backlog, dtype=np.int64)
        # Exact byte conservation each round: what arrived so far is
        # delivered over ADSL, delivered over 3G, or still queued.
        if not np.array_equal(np.cumsum(arrivals - adsl - onload), backlog):
            problems.append("round ledger does not conserve bytes")
        if int(run.served_adsl.sum()) != int(adsl.sum()):
            problems.append("per-household ADSL bytes disagree with ledger")
        if int(run.served_3g.sum()) != int(onload.sum()):
            problems.append("per-household 3G bytes disagree with ledger")
        if int(run.backlog.sum()) != int(backlog[-1]):
            problems.append("per-household backlog disagrees with ledger")
        if int(run.cap_used.max()) > inputs.daily_cap_bytes:
            problems.append("a household exceeded its daily onload cap")
        if int(onload.sum()) <= 0:
            problems.append("no bytes were onloaded")
        return problems

    def final_check(self) -> List[str]:
        """The first city again, on one shard: the same ledger.

        The program promises a byte-identical day at any shard count
        (``docs/FLEET.md``).
        """
        if self._first is None or not self.can_reshard:
            return []
        params, run = self._first
        again = self.run_policy(params, POLICY, ADOPTION, n_shards=1)
        fields = (
            "round_arrivals",
            "round_adsl",
            "round_onload",
            "round_waste",
            "round_backlog",
        )
        if any(getattr(run, f) != getattr(again, f) for f in fields):
            return ["city day differs between shard/process layouts"]
        if run.cap_exhaustions != again.cap_exhaustions:
            return ["cap exhaustions differ between shard/process layouts"]
        return []
