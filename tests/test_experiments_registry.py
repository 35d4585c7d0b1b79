"""The experiment registry: registration, lookup, result contract."""

import ast
import json
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    DuplicateExperimentError,
    ExperimentSpec,
    UnknownExperimentError,
)
from repro.experiments.runner import run_experiments


def _spec(experiment_id, func, **kwargs):
    defaults = dict(
        title="t",
        description="d",
        paper_ref="",
        claims="",
        bench_params={},
        quick_params={},
        order=0,
    )
    defaults.update(kwargs)
    return ExperimentSpec(id=experiment_id, func=func, **defaults)


class TestRegistration:
    def test_catalogue_is_discovered(self):
        ids = registry.experiment_ids()
        assert len(ids) >= 27
        # Report order: figures first, extensions last.
        assert ids[0] == "fig01"
        assert ids[-1] == "ext-fleet"

    def test_duplicate_id_raises(self):
        with pytest.raises(DuplicateExperimentError, match="fig06"):
            registry.register(_spec("fig06", lambda: None))

    def test_unknown_id_lists_available(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            registry.get("fig99")
        assert "fig06" in str(excinfo.value)
        assert excinfo.value.available == registry.experiment_ids()

    def test_temporary_registration_is_undone(self):
        spec = _spec("tmp-exp", lambda: None)
        with registry.temporary_experiment(spec):
            assert registry.get("tmp-exp") is spec
        with pytest.raises(UnknownExperimentError):
            registry.get("tmp-exp")

    def test_no_experiment_imports_another(self):
        # Each number has one computation path: an experiment never
        # re-runs or borrows from another. Shared setup lives in the
        # helper modules (wild, formatting, registry), which register
        # nothing.
        registered = {spec.module for spec in registry.all_experiments()}
        package = Path(registry.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            module = f"repro.experiments.{path.stem}"
            if module not in registered:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                offenders += [
                    (module, name)
                    for name in names
                    if name in registered and name != module
                ]
        assert offenders == []

    def test_decorator_attaches_spec(self):
        spec = registry.get("fig06")
        assert spec.func.experiment_spec is spec
        assert spec.module == "repro.experiments.fig06_scheduler"


class TestSpec:
    def test_params_quick_overrides_bench(self):
        spec = registry.get("fig06")
        assert spec.params() == {"repetitions": 10}
        assert spec.params(quick=True) == {"repetitions": 2}

    def test_params_returns_copies(self):
        spec = registry.get("fig06")
        spec.params()["repetitions"] = 99
        assert spec.params() == {"repetitions": 10}

    def test_accepts(self):
        assert registry.get("fig10").accepts("seed")
        assert not registry.get("sec21").accepts("seed")
        assert registry.get("ext-lte").accepts("seeds")

    def test_every_spec_has_catalogue_metadata(self):
        for spec in registry.all_experiments():
            assert spec.title
            assert spec.description
            assert spec.claims
            # Bench params only name parameters run() accepts.
            accepted = set(spec.accepted_params())
            assert set(spec.bench_params) <= accepted, spec.id
            assert set(spec.quick_params) <= accepted, spec.id


class TestResultContract:
    # Five representative result shapes: plain scalars (sec21), nested
    # dataclass + Ecdf (fig10), tuple-keyed cell dict (fig06), tuple of
    # dataclasses (fig11c), list-of-rows table (table04).
    CASES = ("sec21", "fig10", "fig06", "fig11c", "table04")

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for experiment_id in self.CASES:
            spec = registry.get(experiment_id)
            out[experiment_id] = spec.func(**spec.params(quick=True))
        return out

    @pytest.mark.parametrize("experiment_id", CASES)
    def test_to_dict_json_round_trips(self, results, experiment_id):
        payload = results[experiment_id].to_dict()
        assert isinstance(payload, dict)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload

    @pytest.mark.parametrize("experiment_id", CASES)
    def test_render_still_works(self, results, experiment_id):
        assert results[experiment_id].render().strip()

    def test_tuple_keys_flatten(self, results):
        payload = results["fig06"].to_dict()
        assert any("/" in key for key in payload["cells"])


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
def test_quick_checks_hold(experiment_id):
    """Every experiment runs at quick size and its quick checks hold."""
    spec = registry.get(experiment_id)
    outcome = run_experiments([experiment_id], quick=True)[0]
    assert outcome.ok, outcome.error
    assert outcome.failed_checks == []
    assert all(outcome.checks[c.name] for c in spec.checks if c.quick)
