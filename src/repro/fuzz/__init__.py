"""Seeded, deterministic fuzzing for the 3GOL wire parsers.

Every byte of the prototype's data path flows through four fuzz
targets: ``http-head`` (header-block parsing) and ``wire-stream`` (whole
HTTP responses read off a byte stream), both over
:mod:`repro.proto.httpwire`; ``m3u8``, the playlist parser in
:mod:`repro.web.hls`; and ``multipart``, the upload body decoder in
:mod:`repro.web.upload`. This package hammers them the way FuzzBench
hammers real-world parsers — structured mutations that know the grammar
plus blind byte-level mutations — under one hard contract: a parser
given arbitrary bytes either succeeds or raises a typed
:class:`~repro.proto.errors.ProtocolError`; anything else is a crash.

* :mod:`repro.fuzz.mutators` — seeded byte-level mutators (truncate,
  bit-flip, splice, repeat, delete, token insertion);
* :mod:`repro.fuzz.structured` — grammar-aware mutators for HTTP heads,
  m3u8 playlists, multipart bodies and HTTP message streams;
* :mod:`repro.fuzz.targets` — the four fuzz targets and the in-memory
  :class:`~repro.fuzz.targets.FakeSocket` that feeds wire parsers
  without real I/O;
* :mod:`repro.fuzz.session` — the :class:`~repro.fuzz.session.FuzzSession`
  target of the shared search core (:mod:`repro.util.search`): seeded
  scheduling, crash triage by (exception type, raise site), payload
  minimisation; and the checked-in regression corpus under
  ``tests/corpus/``, each case pinned to the bug it caught;
* :mod:`repro.fuzz.cli` — the ``repro-fuzz`` console entry point,
  mirroring ``repro-lint``.

Everything is deterministic given ``--seed``: the same seed, iteration
budget and target list reproduce byte-identical mutation streams and
therefore identical crash sets.
"""

from repro.fuzz.mutators import MUTATORS, mutate_bytes
from repro.fuzz.session import CorpusCase, load_corpus, replay_case, save_case
from repro.fuzz.session import FuzzReport, FuzzSession
from repro.fuzz.targets import FakeSocket, FuzzTarget, all_targets, get_target

__all__ = [
    "CorpusCase",
    "FakeSocket",
    "FuzzReport",
    "FuzzSession",
    "FuzzTarget",
    "MUTATORS",
    "all_targets",
    "get_target",
    "load_corpus",
    "mutate_bytes",
    "replay_case",
    "save_case",
]
