"""The 3GOL multipath scheduler (§2.4, §4.1.1, §5.1).

Three policies, matching the paper's comparison:

* :class:`~repro.core.scheduler.greedy.GreedyPolicy` (**GRD**) — the
  paper's contribution: work-conserving pull scheduling with endgame
  duplication of the oldest in-flight item;
* :class:`~repro.core.scheduler.roundrobin.RoundRobinPolicy` (**RR**) —
  cyclic static assignment;
* :class:`~repro.core.scheduler.mintime.MinTimePolicy` (**MIN**) —
  assignment by estimated transfer time with an EWMA bandwidth estimator
  (smoothing 0.75).

:class:`~repro.core.scheduler.runner.TransactionRunner` executes a
transaction under a policy on the fluid simulator and reports timings,
per-path byte usage and duplication waste — plus the churn-tolerance
layer: dynamic path membership, bounded retries with exponential
backoff (:class:`~repro.core.resilience.RetryPolicy`), a
per-flow stall watchdog, and structured
:class:`~repro.core.resilience.DegradationEvent` logging.
"""

from typing import Any, Dict, Type

from repro.core.scheduler.base import SchedulingPolicy
from repro.core.scheduler.deadline import DeadlinePolicy
from repro.core.scheduler.greedy import GreedyPolicy
from repro.core.scheduler.roundrobin import RoundRobinPolicy
from repro.core.scheduler.mintime import MinTimePolicy

POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    "GRD": GreedyPolicy,
    "RR": RoundRobinPolicy,
    "MIN": MinTimePolicy,
    # The paper's future-work extension (playout-phase coverage).
    "DLN": DeadlinePolicy,
}


def make_policy(name: str, **kwargs: Any) -> SchedulingPolicy:
    """Build a policy by its paper abbreviation (GRD, RR, MIN)."""
    try:
        cls = POLICIES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)

