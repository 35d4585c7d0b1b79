"""Shared utilities for the 3GOL reproduction.

This package holds the small building blocks every other subpackage relies
on: unit conversions between bits, bytes and rates (:mod:`repro.util.units`),
seeded random-number helpers (:mod:`repro.util.rng`), light-weight argument
validation (:mod:`repro.util.validate`), streaming statistics
(:mod:`repro.util.stats`), the shared console-script exit-code contract
(:mod:`repro.util.clitools`) and the seeded search core every
``repro-hunt`` target shares — one campaign loop, finding record, corpus
records and exception triage (:mod:`repro.util.search`).
"""
