"""Unit tests for the run-manifest writer and schema validation."""

import json
from dataclasses import dataclass

import pytest

from repro import obs
from repro.obs.manifest import (
    BENCH_DESIGN_KEYS,
    BENCH_HISTORY_SCHEMA,
    BENCH_SCHEMA,
    MANIFEST_REQUIRED_KEYS,
    MANIFEST_SCHEMA,
    build_manifest,
    validate_bench,
    validate_bench_history,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@dataclass
class _Cfg:
    passes: int = 2
    solver: str = "exact"


class TestBuildManifest:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("ilp.setpart.solves").inc(4)
        tracer = Tracer()
        with tracer.span("stage.solve", cat="stage"):
            pass
        return build_manifest(
            {"name": "D1"},
            config=_Cfg(),
            flow={"runtime_seconds": 1.5},
            registry=reg,
            tracer=tracer,
        )

    def test_has_required_keys_and_validates(self):
        manifest = self._populated()
        assert set(MANIFEST_REQUIRED_KEYS) <= set(manifest)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert validate_manifest(manifest) == []

    def test_sections_carry_the_payloads(self):
        manifest = self._populated()
        assert manifest["design"] == {"name": "D1"}
        assert manifest["config"]["passes"] == 2
        assert manifest["metrics"]["counters"]["ilp.setpart.solves"] == 4
        assert manifest["spans"]["stage.solve"]["count"] == 1
        assert manifest["flow"]["runtime_seconds"] == 1.5
        json.dumps(manifest)  # JSON-ready

    def test_defaults_to_process_registry(self):
        obs.get_registry().counter("manifest.test.marker").inc()
        manifest = build_manifest({"name": "x"}, tracer=Tracer())
        assert "manifest.test.marker" in manifest["metrics"]["counters"]


class TestValidateManifest:
    def test_reports_missing_keys(self):
        errors = validate_manifest({"schema": MANIFEST_SCHEMA})
        missing = {k for k in MANIFEST_REQUIRED_KEYS if k != "schema"}
        assert len(errors) >= len(missing)
        assert any("metrics" in e for e in errors)

    def test_rejects_wrong_schema_and_non_dict(self):
        assert validate_manifest([]) != []
        errors = validate_manifest({"schema": "other/9"})
        assert any("schema mismatch" in e for e in errors)


class TestWriteManifest:
    def test_writes_valid_and_refuses_invalid(self, tmp_path):
        manifest = build_manifest(
            {"name": "D1"}, registry=MetricsRegistry(), tracer=Tracer()
        )
        path = tmp_path / "m.json"
        write_manifest(str(path), manifest)
        assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA
        with pytest.raises(ValueError, match="invalid manifest"):
            write_manifest(str(tmp_path / "bad.json"), {"schema": MANIFEST_SCHEMA})
        assert not (tmp_path / "bad.json").exists()


class TestManifestRoundTrip:
    def test_write_then_load_is_lossless_and_valid(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("compose.components_reused").inc(3)
        reg.gauge("check.violations_total").set(0.0)
        tracer = Tracer()
        with tracer.span("stage.solve", cat="stage"):
            with tracer.span("ilp.solve", cat="ilp"):
                pass
        manifest = build_manifest(
            {"name": "D1", "scale": 0.25},
            config=_Cfg(passes=3),
            flow={"runtime_seconds": 2.25, "wns": -0.125},
            registry=reg,
            tracer=tracer,
        )
        path = tmp_path / "manifest.json"
        write_manifest(str(path), manifest)

        loaded = json.loads(path.read_text())
        assert validate_manifest(loaded) == []
        # JSON round-trip must not lose or reshape anything: every value
        # the builder put in is a plain JSON value already.
        assert loaded == manifest

    def test_round_trip_survives_a_second_write(self, tmp_path):
        manifest = build_manifest(
            {"name": "x"}, registry=MetricsRegistry(), tracer=Tracer()
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_manifest(str(first), manifest)
        write_manifest(str(second), json.loads(first.read_text()))
        assert json.loads(second.read_text()) == json.loads(first.read_text())


class TestValidateBench:
    def _entry(self):
        return {
            "runtime_seconds": 1.25,
            "stage_seconds": {"solve": 0.5},
            "registers_before": 100,
            "registers_after": 60,
            "register_reduction": 0.4,
            "wns": -0.1,
            "tns": -1.0,
            "eco": {"prime_seconds": 0.4, "recompose_seconds": 0.1},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def _payload(self, **overrides):
        data = {
            "schema": BENCH_SCHEMA,
            "generated_unix": 0,
            "git_sha": "abc123",
            "scale": 0.25,
            "designs": {"D1": self._entry()},
        }
        data.update(overrides)
        return data

    def test_good_payload(self):
        assert validate_bench(self._payload()) == []

    def test_missing_design_key_reported_by_name(self):
        entry = self._entry()
        del entry["wns"]
        errors = validate_bench(self._payload(designs={"D1": entry}))
        assert any("'wns'" in e and "D1" in e for e in errors)

    def test_missing_eco_block_rejected(self):
        entry = self._entry()
        del entry["eco"]
        errors = validate_bench(self._payload(designs={"D1": entry}))
        assert any("'eco'" in e and "D1" in e for e in errors)

    def test_missing_git_sha_rejected(self):
        data = self._payload()
        del data["git_sha"]
        assert any("'git_sha'" in e for e in validate_bench(data))

    def test_old_schema_version_rejected(self):
        errors = validate_bench(self._payload(schema="repro.bench.flow/1"))
        assert any("schema mismatch" in e for e in errors)

    def test_empty_designs_rejected(self):
        errors = validate_bench(self._payload(designs={}))
        assert any("non-empty" in e for e in errors)

    def test_wrong_typed_design_values_rejected(self):
        entry = self._entry()
        entry["runtime_seconds"] = "1.25"  # stringified number
        entry["registers_before"] = 99.5  # float where an int belongs
        entry["metrics"] = []  # list where the snapshot object belongs
        errors = validate_bench(self._payload(designs={"D1": entry}))
        assert any("'runtime_seconds'" in e and "number" in e for e in errors)
        assert any("'registers_before'" in e and "integer" in e for e in errors)
        assert any("'metrics'" in e and "object" in e for e in errors)

    def test_wrong_typed_top_level_values_rejected(self):
        errors = validate_bench(
            self._payload(generated_unix="now", scale="quarter")
        )
        assert any("'generated_unix'" in e for e in errors)
        assert any("'scale'" in e for e in errors)

    def test_non_object_design_entry_rejected(self):
        errors = validate_bench(self._payload(designs={"D1": [1, 2, 3]}))
        assert any("must be an object" in e for e in errors)


class TestValidateBenchHistory:
    def _record(self, **overrides):
        record = {
            "schema": BENCH_HISTORY_SCHEMA,
            "generated_unix": 0,
            "git_sha": "abc123",
            "scale": 0.25,
            "designs": {
                "D1": {
                    "runtime_seconds": 0.5,
                    "compose_seconds": 0.4,
                    "registers_after": 97,
                    "tns": -4.7,
                }
            },
        }
        record.update(overrides)
        return record

    def test_good_record(self):
        assert validate_bench_history(self._record()) == []

    def test_missing_keys_reported(self):
        record = self._record()
        del record["git_sha"]
        assert any("'git_sha'" in e for e in validate_bench_history(record))

    def test_schema_mismatch_reported(self):
        errors = validate_bench_history(self._record(schema="repro.bench.flow/2"))
        assert any("schema mismatch" in e for e in errors)

    def test_non_numeric_design_values_rejected(self):
        record = self._record()
        record["designs"]["D1"]["tns"] = "bad"
        errors = validate_bench_history(record)
        assert any("'tns'" in e and "number" in e for e in errors)

    def test_missing_design_summary_key_rejected(self):
        record = self._record()
        del record["designs"]["D1"]["compose_seconds"]
        errors = validate_bench_history(record)
        assert any("'compose_seconds'" in e and "D1" in e for e in errors)

    def test_non_object_record_rejected(self):
        assert validate_bench_history([1, 2]) != []
