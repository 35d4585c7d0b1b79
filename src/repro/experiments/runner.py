"""Parallel, cache-aware execution engine for registered experiments.

:func:`run_experiments` executes any subset of the registry, serially or
on a :class:`~concurrent.futures.ProcessPoolExecutor`, with

* per-experiment wall-time accounting,
* the verdicts of the experiment's paper checks
  (:meth:`~repro.experiments.registry.ExperimentSpec.verdicts`),
  evaluated in the worker right after ``run()`` and kept with the
  result, so a cached outcome carries the verdicts of its fresh run,
* failure isolation — one crashing experiment becomes an ``error``
  outcome instead of killing the batch, and
* an optional on-disk result cache keyed by (experiment id, parameter
  set, source digest), so re-runs skip experiments whose code and
  parameters have not changed.

The cache lives in ``.repro_cache/`` under the working directory
(override with the ``REPRO_CACHE_DIR`` environment variable). The source
digest hashes every ``*.py`` file of the installed :mod:`repro` package,
so *any* source change invalidates *all* cached results — coarse, but it
can never serve a stale result.

Outcomes come back in request order regardless of completion order,
which is what lets ``repro report --jobs N`` write byte-identical output
for every N.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments import registry
from repro.obs.capture import capture
from repro.util.serialize import jsonable

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ExperimentOutcome",
    "ResultCache",
    "run_experiments",
    "source_digest",
]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_ERROR = "error"

_source_digest: Optional[str] = None


def source_digest() -> str:
    """Digest of every ``repro/**/*.py`` source file (cached)."""
    global _source_digest
    if _source_digest is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _source_digest = digest.hexdigest()
    return _source_digest


@dataclass
class ExperimentOutcome:
    """What one experiment produced (or how it failed)."""

    experiment_id: str
    #: ``"ok"`` (freshly run), ``"cached"`` (served from disk) or
    #: ``"error"`` (crashed; see :attr:`error`).
    status: str
    #: Wall-clock seconds the experiment took. Zero when cached.
    elapsed_s: float
    #: The parameter set ``run()`` was called with.
    params: Dict[str, Any] = field(default_factory=dict)
    #: ``result.render()`` output; empty on error.
    rendered: str = ""
    #: ``result.to_dict()`` payload; ``None`` on error.
    payload: Optional[Dict[str, Any]] = None
    #: Check name -> verdict: ``True``/``False``, or ``None`` where the
    #: parameters were not the profile the check is declared for.
    checks: Dict[str, Optional[bool]] = field(default_factory=dict)
    #: Formatted traceback when :attr:`status` is ``"error"``.
    error: str = ""
    #: Deterministic trace export (JSONL lines) when the experiment ran
    #: under ``trace=True``; ``None`` otherwise. Deliberately *not* part
    #: of :meth:`to_dict` — the ``repro run --json`` contract is stable.
    trace_lines: Optional[List[str]] = None
    #: Wall-clock phase timings (``run_s``, ``render_s``,
    #: ``serialize_s``) of a fresh run, surfaced by ``repro run
    #: --profile`` and the bench CLI. Nondeterministic, so also excluded
    #: from :meth:`to_dict`.
    profile: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        """Whether a result is available (fresh or cached)."""
        return self.status in (STATUS_OK, STATUS_CACHED)

    @property
    def failed_checks(self) -> List[str]:
        """Names of the evaluated checks that did not hold."""
        return [name for name, ok in self.checks.items() if ok is False]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record, the unit of ``repro run --json`` output."""
        return {
            "experiment": self.experiment_id,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "params": jsonable(self.params),
            "result": self.payload,
            "checks": dict(self.checks),
            "error": self.error or None,
        }


class ResultCache:
    """On-disk JSON cache of experiment outcomes.

    One file per (experiment id, parameter set, source digest) triple;
    the digest is part of the key, so stale entries are simply never
    read again and old files can be deleted at will.
    """

    def __init__(self, root: Optional[os.PathLike[str]] = None) -> None:
        self.root = Path(
            root
            if root is not None
            else os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        )

    def key(self, experiment_id: str, params: Mapping[str, Any]) -> str:
        """Cache key for one experiment invocation."""
        record = json.dumps(
            {
                "experiment": experiment_id,
                "params": jsonable(dict(params)),
                "source": source_digest(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(record.encode()).hexdigest()

    def _path(self, experiment_id: str, key: str) -> Path:
        return self.root / f"{experiment_id}-{key[:16]}.json"

    def get(
        self, experiment_id: str, params: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The cached entry, or ``None`` on miss/corruption."""
        path = self._path(experiment_id, self.key(experiment_id, params))
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "rendered" not in entry:
            return None
        return entry

    def put(
        self,
        experiment_id: str,
        params: Mapping[str, Any],
        entry: Mapping[str, Any],
    ) -> None:
        """Store ``entry``; cache failures are non-fatal."""
        path = self._path(experiment_id, self.key(experiment_id, params))
        with contextlib.suppress(OSError):
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(dict(entry)), encoding="utf-8")
            tmp.replace(path)


def _reset_entity_ids() -> None:
    """Restart the process-global entity id streams.

    Transaction/flow/device ids leak into trace exports (``txn-N`` is a
    trace field), so an experiment's bytes must not depend on what else
    ran earlier in this process: every execution starts its id streams
    at 1, exactly like a fresh interpreter.
    """
    from repro.core.items import Transaction
    from repro.netsim.cellular import CellularDevice
    from repro.netsim.fluid import Flow

    Transaction._reset_ids()
    Flow._reset_ids()
    CellularDevice._reset_ids()


def _execute(
    experiment_id: str, params: Dict[str, Any], trace: bool = False
) -> Dict[str, Any]:
    """Run one experiment; returns the cache-entry-shaped record.

    With ``trace=True`` the experiment body runs under an
    :func:`~repro.obs.capture.capture` scope, and the record carries the
    deterministic JSONL export in ``"trace"``. Traces travel in-band
    through the worker record, so parallel runs see the same bytes as
    serial ones.
    """
    spec = registry.get(experiment_id)
    _reset_entity_ids()
    started = time.perf_counter()
    if trace:
        with capture() as instrumentation:
            result = spec.func(**params)
        trace_export = instrumentation.export_lines(
            experiment_id=experiment_id, params=jsonable(params)
        )
    else:
        result = spec.func(**params)
        trace_export = None
    ran = time.perf_counter()
    rendered = result.render()
    payload = result.to_dict()
    rendered_at = time.perf_counter()
    # Fail here, inside the isolation boundary, if a result's payload is
    # not actually JSON-serializable.
    json.dumps(payload)
    finished = time.perf_counter()
    record: Dict[str, Any] = {
        "rendered": rendered,
        "payload": payload,
        "checks": spec.verdicts(result, params),
        "elapsed_s": ran - started,
        "profile": {
            "run_s": ran - started,
            "render_s": rendered_at - ran,
            "serialize_s": finished - rendered_at,
        },
    }
    if trace_export is not None:
        record["trace"] = trace_export
    return record


def _worker(
    experiment_id: str, params: Dict[str, Any], trace: bool = False
) -> Dict[str, Any]:
    """Pool entry point: never raises, reports crashes in-band."""
    try:
        return _execute(experiment_id, params, trace=trace)
    except BaseException:  # noqa: BLE001 — isolation boundary
        return {"error": traceback.format_exc()}


def _outcome(
    experiment_id: str,
    params: Dict[str, Any],
    record: Mapping[str, Any],
    status_ok: str = STATUS_OK,
) -> ExperimentOutcome:
    """Build the outcome for one worker/cache record."""
    if record.get("error"):
        return ExperimentOutcome(
            experiment_id=experiment_id,
            status=STATUS_ERROR,
            elapsed_s=float(record.get("elapsed_s", 0.0)),
            params=params,
            error=str(record["error"]),
        )
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status=status_ok,
        elapsed_s=float(record.get("elapsed_s", 0.0)),
        params=params,
        rendered=str(record.get("rendered", "")),
        payload=record.get("payload"),
        checks=dict(record.get("checks", {})),
        trace_lines=record.get("trace"),
        profile=record.get("profile"),
    )


def _pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """Fork when available, so dynamically registered experiments (and
    monkeypatched modules, in tests) are visible to the workers."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return None


def run_experiments(
    ids: Sequence[str],
    jobs: int = 1,
    quick: bool = False,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    cache: Optional[ResultCache] = None,
    on_complete: Optional[Callable[[ExperimentOutcome], None]] = None,
    trace: bool = False,
) -> List[ExperimentOutcome]:
    """Execute ``ids`` and return their outcomes in request order.

    ``jobs`` > 1 fans the experiments out over a process pool.
    ``quick`` selects each spec's reduced-size parameter set.
    ``overrides`` maps experiment id to extra keyword arguments layered
    on top of the spec's parameters. ``cache``, when given, is consulted
    before running and updated after. ``on_complete`` fires once per
    experiment, in completion order. ``trace`` runs every experiment
    under an instrumentation capture and attaches the deterministic
    JSONL export to each outcome (``trace_lines``); trace runs bypass
    the cache entirely — a cached entry has no trace, and a traced
    entry must never be served as a plain one.
    """
    if trace:
        cache = None
    params_by_id: Dict[str, Dict[str, Any]] = {}
    for experiment_id in ids:
        spec = registry.get(experiment_id)  # raises on unknown ids
        params = spec.params(quick=quick)
        params.update((overrides or {}).get(experiment_id, {}))
        params_by_id[experiment_id] = params

    outcomes: Dict[str, ExperimentOutcome] = {}

    def finish(outcome: ExperimentOutcome) -> None:
        outcomes[outcome.experiment_id] = outcome
        if outcome.ok and outcome.status == STATUS_OK and cache is not None:
            cache.put(
                outcome.experiment_id,
                outcome.params,
                {
                    "rendered": outcome.rendered,
                    "payload": outcome.payload,
                    "checks": outcome.checks,
                    "elapsed_s": outcome.elapsed_s,
                },
            )
        if on_complete is not None:
            on_complete(outcome)

    pending: List[str] = []
    for experiment_id in ids:
        params = params_by_id[experiment_id]
        entry = cache.get(experiment_id, params) if cache else None
        if entry is not None:
            cached = {**entry, "elapsed_s": 0.0}
            finish(_outcome(experiment_id, params, cached, STATUS_CACHED))
        else:
            pending.append(experiment_id)

    if pending and jobs <= 1:
        for experiment_id in pending:
            params = params_by_id[experiment_id]
            finish(
                _outcome(
                    experiment_id,
                    params,
                    _worker(experiment_id, params, trace=trace),
                )
            )
    elif pending:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=_pool_context(),
        ) as pool:
            futures = {
                pool.submit(
                    _worker,
                    experiment_id,
                    params_by_id[experiment_id],
                    trace,
                ): experiment_id
                for experiment_id in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    experiment_id = futures[future]
                    params = params_by_id[experiment_id]
                    try:
                        record = future.result()
                    except BaseException:  # pool/pickling failure
                        record = {"error": traceback.format_exc()}
                    finish(_outcome(experiment_id, params, record))

    return [outcomes[experiment_id] for experiment_id in ids]
