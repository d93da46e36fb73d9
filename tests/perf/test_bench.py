"""Tests of the benchmark regression harness (``repro bench``)."""

import copy
import json

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    SUITES,
    compare_bench,
    dtype_suffix,
    load_bench,
    machine_fingerprint,
    render_bench,
    render_compare,
    run_suite,
)


def make_doc(throughputs: dict[str, float], n_dofs: int = 1000) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "suite": "ops",
        "smoke": True,
        "degree": 3,
        "fingerprint": {"numpy": "test"},
        "cases": [
            {"name": name, "n_dofs": n_dofs, "throughput": tp,
             "throughput_units": "dofs/s", "meta": {}, "metrics": {}}
            for name, tp in throughputs.items()
        ],
    }


class TestFingerprint:
    def test_identifies_stack(self):
        import numpy as np

        fp = machine_fingerprint()
        assert fp["numpy"] == np.__version__
        assert fp["cpu_count"] >= 1
        assert fp["python"].count(".") == 2
        assert fp["blas"]
        assert fp["timestamp"]
        # in this checkout the git SHA must resolve
        assert fp["git_sha"] and len(fp["git_sha"]) == 40


class TestCompare:
    def test_regression_detected(self):
        base = make_doc({"a": 100.0, "b": 50.0})
        cur = make_doc({"a": 100.0, "b": 40.0})  # b dropped 20%
        rep = compare_bench(cur, base, max_regression=0.15)
        assert not rep["ok"]
        assert [r["name"] for r in rep["regressions"]] == ["b"]
        assert rep["regressions"][0]["ratio"] == pytest.approx(0.8)
        assert [r["name"] for r in rep["unchanged"]] == ["a"]

    def test_within_threshold_passes(self):
        base = make_doc({"a": 100.0})
        cur = make_doc({"a": 90.0})  # -10% < 15% threshold
        rep = compare_bench(cur, base, max_regression=0.15)
        assert rep["ok"] and not rep["regressions"]

    def test_improvement_reported(self):
        rep = compare_bench(make_doc({"a": 200.0}), make_doc({"a": 100.0}))
        assert rep["ok"]
        assert [r["name"] for r in rep["improvements"]] == ["a"]

    def test_artificially_inflated_baseline_fails(self):
        cur = make_doc({"a": 100.0, "b": 50.0})
        base = copy.deepcopy(cur)
        for c in base["cases"]:
            c["throughput"] *= 2.0
        rep = compare_bench(cur, base)
        assert not rep["ok"]
        assert len(rep["regressions"]) == 2

    def test_mismatched_cases_skip_with_reason(self):
        base = make_doc({"a": 100.0, "gone": 10.0})
        cur = make_doc({"a": 100.0, "new": 5.0})
        rep = compare_bench(cur, base)
        reasons = {s["name"]: s["reason"] for s in rep["skipped"]}
        assert reasons["new"] == "not in baseline"
        assert reasons["gone"] == "not in current run"
        assert rep["ok"]

    def test_size_mismatch_never_compared(self):
        base = make_doc({"a": 100.0}, n_dofs=1000)
        cur = make_doc({"a": 10.0}, n_dofs=8000)  # refined mesh, not slower
        rep = compare_bench(cur, base)
        assert rep["ok"]
        assert "n_dofs mismatch" in rep["skipped"][0]["reason"]

    def test_render_compare(self):
        rep = compare_bench(make_doc({"a": 80.0}), make_doc({"a": 100.0}),
                            max_regression=0.1)
        out = render_compare(rep)
        assert "FAIL" in out and "! a" in out and "-20.0%" in out
        ok = render_compare(compare_bench(make_doc({"a": 100.0}),
                                          make_doc({"a": 100.0})))
        assert "PASS" in ok


class TestDtypeAxis:
    def test_dtype_suffix(self):
        import numpy as np

        assert dtype_suffix("float64") == ""
        assert dtype_suffix("float32") == "@float32"
        assert dtype_suffix(np.float32) == "@float32"

    def test_compare_joins_pre_dtype_baseline_as_float64(self):
        # baselines written before the dtype axis carry no "dtype" field;
        # they must still join current float64 cases by name
        base = make_doc({"a": 100.0})
        cur = make_doc({"a": 100.0})
        for c in cur["cases"]:
            c["dtype"] = "float64"
        rep = compare_bench(cur, base)
        assert rep["ok"]
        assert [r["name"] for r in rep["unchanged"]] == ["a"]

    def test_fp32_case_never_compared_to_fp64_baseline(self):
        # a float32 run against a float64 baseline must skip, not
        # report the dtype speedup as a spurious regression/improvement
        base = make_doc({"a": 100.0})
        cur = make_doc({"a": 30.0})
        for c in cur["cases"]:
            c["dtype"] = "float32"
        rep = compare_bench(cur, base)
        assert rep["ok"]
        assert not rep["regressions"] and not rep["improvements"]
        reasons = {s["reason"] for s in rep["skipped"]}
        assert reasons == {"not in baseline", "not in current run"}

    def test_vmult_suite_float32_names_and_fields(self):
        doc = run_suite("vmult", smoke=True, degree=2, dtype="float32",
                        case_filter="box_r1/dg_laplace")
        assert doc["dtype"] == "float32"
        assert [c["name"] for c in doc["cases"]] == [
            "box_r1/dg_laplace/planned@float32",
            "box_r1/dg_laplace/ensemble_e1@float32",
            "box_r1/dg_laplace/ensemble_e2@float32",
            "box_r1/dg_laplace/ensemble_e4@float32",
            "box_r1/dg_laplace/ensemble_e8@float32",
            "box_r1/dg_laplace/sequential_e8@float32",
        ]
        for c in doc["cases"]:
            assert c["dtype"] == "float32"
            assert c["throughput"] > 0
        members = [c["meta"]["members"] for c in doc["cases"]
                   if c["meta"].get("mode") == "ensemble"]
        assert members == [1, 2, 4, 8]
        # aggregate DoF accounting: an E-member batch moves E*n DoF
        e8 = next(c for c in doc["cases"]
                  if c["name"].startswith("box_r1/dg_laplace/ensemble_e8"))
        e1 = next(c for c in doc["cases"]
                  if c["name"].startswith("box_r1/dg_laplace/ensemble_e1"))
        assert e8["n_dofs"] == 8 * e1["n_dofs"]


class TestMigration:
    """There is none: a document of any other schema is rejected."""

    def test_unknown_schema_rejected(self, tmp_path):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({"schema": "repro/bench-vmult/1", "cases": []}))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_bench(p)

    def test_current_schema_passes_through(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(make_doc({"a": 1.0})))
        assert load_bench(p) == make_doc({"a": 1.0})

    def test_committed_baseline_is_current_schema(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        doc = json.loads((root / "BENCH_vmult.json").read_text())
        assert doc["schema"] == BENCH_SCHEMA
        smoke = json.loads(
            (root / "benchmarks/baselines/BENCH_ops_smoke.json").read_text()
        )
        assert smoke["schema"] == BENCH_SCHEMA
        assert smoke["suite"] == "ops"


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_declared_suites(self):
        assert set(SUITES) == {"ops", "vmult", "ensemble", "scaling"}

    def test_smoke_filtered_case_runs(self):
        doc = run_suite("ops", smoke=True, degree=2,
                        case_filter="dg_laplace_vmult")
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["smoke"] is True
        assert [c["name"] for c in doc["cases"]] == ["box_r1/dg_laplace_vmult"]
        c = doc["cases"][0]
        assert c["throughput"] > 0
        assert c["throughput_units"] == "dofs/s"
        assert c["metrics"]["best_seconds"] > 0
        assert doc["fingerprint"]["numpy"]
        out = render_bench(doc)
        assert "dg_laplace_vmult" in out and "dofs/s" in out

    def test_vmult_suite_modes(self):
        doc = run_suite("vmult", smoke=True, degree=2,
                        case_filter="box_r1/dg_laplace")
        names = [c["name"] for c in doc["cases"]]
        assert names == [
            "box_r1/dg_laplace/planned",
            "box_r1/dg_laplace/ensemble_e1",
            "box_r1/dg_laplace/ensemble_e2",
            "box_r1/dg_laplace/ensemble_e4",
            "box_r1/dg_laplace/ensemble_e8",
            "box_r1/dg_laplace/sequential_e8",
        ]
        modes = {c["meta"]["mode"] for c in doc["cases"]}
        assert modes == {"planned", "ensemble", "sequential"}
