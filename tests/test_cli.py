"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestThreadsFlag:
    def test_threads_flag_scopes_a_run_context(self):
        from repro.runtime import resolve_num_threads

        before = resolve_num_threads()
        code, text = run_cli("--threads", "3", "runtime-info", "--json")
        assert code == 0
        info = json.loads(text)
        assert info["resolved"]["num_threads"] == 3
        assert info["sources"]["num_threads"] == "context"
        # The context is scoped to the command: nothing leaks into the
        # caller's process-global configuration.
        assert resolve_num_threads() == before

    def test_threads_rejects_nonpositive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--threads", "0", "list-models"])

    def test_threads_parses_in_either_position(self):
        args = build_parser().parse_args(["--threads", "3", "list-models"])
        assert args.threads == 3
        args = build_parser().parse_args(
            ["sweep", "--models", "HBOS", "--datasets", "glass",
             "--threads", "2"])
        assert args.threads == 2
        args = build_parser().parse_args(["list-models"])
        assert args.threads is None


class TestListCommands:
    def test_list_models(self):
        code, text = run_cli("list-models")
        assert code == 0
        assert "IForest" in text
        assert "DeepSVDD" in text
        assert "ABOD" in text  # extra baselines listed too

    def test_list_datasets(self):
        code, text = run_cli("list-datasets")
        assert code == 0
        assert "84 datasets" in text
        assert "abalone" in text

    def test_list_datasets_category(self):
        code, text = run_cli("list-datasets", "--category", "Web")
        assert code == 0
        assert "http" in text and "smtp" in text
        assert "abalone" not in text


class TestBoost:
    def test_boost_runs(self):
        code, text = run_cli(
            "boost", "HBOS", "glass", "--iterations", "2",
            "--max-samples", "150", "--max-features", "6")
        assert code == 0
        assert "AUCROC" in text
        assert "UADB" in text

    def test_unknown_detector_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("boost", "NotAModel", "glass")


class TestSweep:
    def test_sweep_runs(self):
        code, text = run_cli(
            "sweep", "--models", "HBOS", "--datasets", "glass",
            "--iterations", "2", "--max-samples", "150",
            "--max-features", "6")
        assert code == 0
        assert "[Table IV]" in text

    def test_sweep_reports_cells_and_progress(self):
        code, text = run_cli(
            "sweep", "--models", "HBOS", "--datasets", "glass",
            "--iterations", "2", "--max-samples", "150",
            "--max-features", "6", "--seeds", "0", "1")
        assert code == 0
        assert "= 2 cells" in text
        assert "[1/2]" in text and "[2/2]" in text

    def test_sweep_parallel_with_cache(self, tmp_path):
        argv = ["sweep", "--models", "HBOS", "--datasets", "glass",
                "--iterations", "2", "--max-samples", "150",
                "--max-features", "6", "--jobs", "2", "--seeds", "0", "1",
                "--cache-dir", str(tmp_path)]
        code, text = run_cli(*argv)
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 2
        code, text = run_cli(*argv)
        assert code == 0
        assert text.count("[cached]") == 2


class TestVariance:
    def test_variance_runs(self):
        code, text = run_cli("variance", "--datasets", "glass", "wine",
                             "--max-samples", "150")
        assert code == 0
        assert "[Fig 2]" in text


class TestExport:
    def test_export_npz(self, tmp_path):
        target = tmp_path / "glass"
        code, text = run_cli("export", "glass", str(target),
                             "--max-samples", "120", "--max-features", "6")
        assert code == 0
        assert (tmp_path / "glass.npz").exists()

    def test_export_csv(self, tmp_path):
        target = tmp_path / "glass.csv"
        code, text = run_cli("export", "glass", str(target),
                             "--format", "csv", "--max-samples", "120",
                             "--max-features", "6")
        assert code == 0
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert header.endswith("label")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        from repro import __version__
        assert f"repro {__version__}" in capsys.readouterr().out


class TestSaveAndLoadScore:
    def test_save_then_load_score(self, tmp_path):
        target = tmp_path / "hbos-glass"
        code, text = run_cli("save", "HBOS", "glass", str(target),
                             "--max-samples", "150", "--max-features", "6")
        assert code == 0
        assert (target / "manifest.json").exists()
        assert (target / "payload.npz").exists()

        code, text = run_cli("load-score", str(target), "glass",
                             "--max-samples", "150", "--max-features", "6")
        assert code == 0
        assert "data fingerprint: match" in text
        assert "HBOS" in text and "AUCROC" in text

    def test_manifest_records_version(self, tmp_path):
        from repro import __version__
        from repro.serving import read_manifest

        target = tmp_path / "m"
        code, _ = run_cli("save", "HBOS", "glass", str(target),
                          "--max-samples", "120", "--max-features", "6")
        assert code == 0
        assert read_manifest(target)["repro_version"] == __version__

    def test_load_score_fingerprint_mismatch_warns(self, tmp_path):
        target = tmp_path / "m"
        run_cli("save", "HBOS", "glass", str(target),
                "--max-samples", "150", "--max-features", "6")
        # Score a different slice of the dataset than the model saw.
        code, text = run_cli("load-score", str(target), "glass",
                             "--max-samples", "140", "--max-features", "6")
        assert code == 0
        assert "MISMATCH" in text

    def test_load_score_missing_artifact(self, tmp_path):
        code, text = run_cli("load-score", str(tmp_path / "ghost"), "glass")
        assert code == 2
        assert "error:" in text


class TestBoostSave:
    def test_boost_save_roundtrip_scores_exactly(self, tmp_path):
        import numpy as np

        from repro.data.preprocessing import StandardScaler
        from repro.data.registry import load_dataset
        from repro.serving import load_model, read_manifest

        target = tmp_path / "booster"
        code, text = run_cli(
            "boost", "HBOS", "glass", "--iterations", "2",
            "--max-samples", "150", "--max-features", "6",
            "--save", str(target))
        assert code == 0
        assert "saved" in text
        manifest = read_manifest(target)
        assert manifest["kind"] == "UADBooster"
        assert manifest["extra"]["detector"] == "HBOS"

        dataset = load_dataset("glass", max_samples=150, max_features=6)
        X = StandardScaler().fit_transform(dataset.X)
        booster = load_model(target)
        # The persisted scores_ must equal a fresh scoring pass on X.
        np.testing.assert_allclose(booster.score_samples(X),
                                   np.clip(booster.scores_, 0, 1))


class TestServe:
    def test_serve_answers_health_and_score(self, tmp_path):
        import json
        import threading
        import time
        import urllib.request

        from repro.serving.server import shutdown_all

        target = tmp_path / "m"
        run_cli("save", "HBOS", "glass", str(target),
                "--max-samples", "150", "--max-features", "6")

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(["serve", str(target), "--port", "0"],),
            kwargs={"out": out}, daemon=True)
        thread.start()
        url = None
        for _ in range(100):
            text = out.getvalue()
            if "http://" in text:
                url = text.split("http://", 1)[1].split()[0]
                break
            time.sleep(0.05)
        assert url, f"server never reported its address: {out.getvalue()!r}"
        try:
            response = urllib.request.urlopen(
                f"http://{url}/healthz", timeout=10)
            assert response.status == 200
            body = json.dumps({"X": [[0.0] * 6]}).encode()
            request = urllib.request.Request(
                f"http://{url}/score", data=body,
                headers={"Content-Type": "application/json"})
            response = urllib.request.urlopen(request, timeout=10)
            payload = json.load(response)
            assert response.status == 200
            assert payload["n"] == 1
        finally:
            shutdown_all()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_serve_missing_store(self, tmp_path):
        code, text = run_cli("serve", str(tmp_path / "nothing"))
        assert code == 2
        assert "error:" in text

    def test_serve_fleet_mode_scores_over_http(self, tmp_path):
        import json
        import threading
        import time
        import urllib.request

        from repro.serving.server import shutdown_all

        target = tmp_path / "m"
        run_cli("save", "HBOS", "glass", str(target),
                "--max-samples", "150", "--max-features", "6")

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(["serve", str(target), "--port", "0",
                   "--workers", "2"],),
            kwargs={"out": out}, daemon=True)
        thread.start()
        url = None
        for _ in range(600):  # fleet boot includes worker handshakes
            text = out.getvalue()
            if "http://" in text:
                url = text.split("http://", 1)[1].split()[0]
                break
            time.sleep(0.05)
        assert url, f"server never reported its address: {out.getvalue()!r}"
        assert "fleet of 2 workers" in out.getvalue()
        try:
            response = urllib.request.urlopen(
                f"http://{url}/stats", timeout=10)
            stats = json.load(response)
            assert stats["n_workers"] == 2
            body = json.dumps({"X": [[0.0] * 6]}).encode()
            request = urllib.request.Request(
                f"http://{url}/score", data=body,
                headers={"Content-Type": "application/json"})
            response = urllib.request.urlopen(request, timeout=10)
            assert response.status == 200
            assert json.load(response)["n"] == 1
        finally:
            shutdown_all()
            thread.join(timeout=15.0)
        assert not thread.is_alive()

    def test_serve_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", str(tmp_path), "--workers", "0"])

    def test_serve_parses_worker_count(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", str(tmp_path), "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["serve", str(tmp_path)])
        assert args.workers is None

    def test_serve_parses_request_timeout(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", str(tmp_path), "--workers", "2",
             "--request-timeout", "2.5"])
        assert args.request_timeout == 2.5
        args = build_parser().parse_args(["serve", str(tmp_path)])
        assert args.request_timeout is None

    def test_serve_request_timeout_requires_fleet_mode(self, tmp_path):
        target = tmp_path / "m"
        run_cli("save", "HBOS", "glass", str(target),
                "--max-samples", "150", "--max-features", "6")
        code, text = run_cli("serve", str(target),
                             "--request-timeout", "2")
        assert code == 2
        assert "--workers" in text


class TestJsonListings:
    def test_list_models_json(self):
        code, text = run_cli("list-models", "--json")
        assert code == 0
        payload = json.loads(text)
        assert len(payload["paper"]) == 14
        assert len(payload["extra"]) == 6
        assert "IForest" in payload["paper"]
        assert "ABOD" in payload["extra"]

    def test_list_datasets_json(self):
        code, text = run_cli("list-datasets", "--json")
        assert code == 0
        payload = json.loads(text)
        assert len(payload) == 84
        assert {"name", "anomaly_rate", "n_samples", "n_features",
                "category"} <= set(payload[0])

    def test_list_datasets_json_category_filter(self):
        code, text = run_cli("list-datasets", "--json",
                             "--category", "Web")
        assert code == 0
        payload = json.loads(text)
        assert payload and all(d["category"] == "Web" for d in payload)


PIPELINE_SPEC = {"type": "Pipeline", "params": {"steps": [
    ["scaler", {"type": "StandardScaler", "params": {}}],
    ["detector", {"type": "IForest", "params": {}}],
    ["booster", {"type": "UADBooster",
                 "params": {"n_iterations": 2, "hidden": 16,
                            "epochs_per_iteration": 2}}],
]}}


class TestSpecFlag:
    def _write(self, tmp_path, spec, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    def test_boost_detector_spec(self, tmp_path):
        spec = self._write(tmp_path, {"type": "HBOS",
                                      "params": {"n_bins": 5}})
        code, text = run_cli("boost", "glass", "--spec", spec,
                             "--iterations", "2", "--max-samples", "150",
                             "--max-features", "6")
        assert code == 0
        assert "detector  : HBOS" in text
        assert "UADB" in text

    def test_boost_pipeline_spec_saves_and_scores(self, tmp_path):
        spec = self._write(tmp_path, PIPELINE_SPEC)
        target = tmp_path / "model"
        code, text = run_cli("boost", "glass", "--spec", spec,
                             "--max-samples", "150", "--max-features", "6",
                             "--save", str(target))
        assert code == 0
        assert "pipeline  : Pipeline" in text
        assert "scaler -> detector -> booster" in text

        from repro.serving import load_model
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["kind"] == "Pipeline"
        assert manifest["spec"]["type"] == "Pipeline"
        assert load_model(target).scores_ is not None

    def test_boost_iterations_routes_to_pipeline_booster(self, tmp_path):
        spec = self._write(tmp_path, PIPELINE_SPEC)
        target = tmp_path / "model"
        code, _ = run_cli("boost", "glass", "--spec", spec,
                          "--iterations", "3", "--max-samples", "150",
                          "--max-features", "6", "--save", str(target))
        assert code == 0
        manifest = json.loads((target / "manifest.json").read_text())
        steps = dict((name, s) for name, s in
                     manifest["spec"]["params"]["steps"])
        assert steps["booster"]["params"]["n_iterations"] == 3

    def test_boost_iterations_noted_without_booster_step(self, tmp_path):
        spec = self._write(tmp_path, {"type": "Pipeline", "params": {
            "steps": [["det", {"type": "HBOS", "params": {}}]]}})
        code, text = run_cli("boost", "glass", "--spec", spec,
                             "--iterations", "3", "--max-samples", "150",
                             "--max-features", "6")
        assert code == 0
        assert "--iterations ignored" in text

    def test_load_score_pipeline_uses_raw_features(self, tmp_path):
        # Pipelines were fitted (and fingerprinted) on raw features;
        # load-score must not standardise on top of the pipeline's own
        # scaler (that double-scaling silently corrupted scores).
        spec = self._write(tmp_path, PIPELINE_SPEC)
        target = tmp_path / "model"
        code, boost_text = run_cli(
            "boost", "glass", "--spec", spec, "--max-samples", "150",
            "--max-features", "6", "--save", str(target))
        assert code == 0
        code, text = run_cli("load-score", str(target), "glass",
                             "--max-samples", "150", "--max-features", "6")
        assert code == 0
        assert "data fingerprint: match" in text
        boosted = boost_text.split("AUCROC=")[1].split()[0]
        assert f"AUCROC={boosted}" in text

    def test_boost_requires_exactly_one_source(self, tmp_path):
        code, text = run_cli("boost", "glass")
        assert code == 2 and "exactly one" in text
        spec = self._write(tmp_path, {"type": "HBOS", "params": {}})
        code, text = run_cli("boost", "HBOS", "glass", "--spec", spec)
        assert code == 2 and "exactly one" in text

    def test_boost_rejects_non_source_spec(self, tmp_path):
        spec = self._write(tmp_path, {"type": "UADBooster", "params": {}})
        code, text = run_cli("boost", "glass", "--spec", spec,
                             "--max-samples", "150", "--max-features", "6")
        assert code == 2
        assert "source-detector contract" in text

    def test_boost_bad_spec_file(self, tmp_path):
        code, text = run_cli("boost", "glass", "--spec",
                             str(tmp_path / "missing.json"))
        assert code == 2
        assert "error:" in text

    def test_save_with_spec(self, tmp_path):
        spec = self._write(tmp_path, {"type": "HBOS",
                                      "params": {"n_bins": 5}})
        target = tmp_path / "model"
        code, text = run_cli("save", "glass", str(target), "--spec", spec,
                             "--max-samples", "150", "--max-features", "6")
        assert code == 0
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["kind"] == "HBOS"
        assert manifest["spec"]["params"]["n_bins"] == 5

    def test_sweep_with_spec_column(self, tmp_path):
        spec = self._write(tmp_path, {"type": "HBOS",
                                      "params": {"n_bins": 4}})
        code, text = run_cli("sweep", "--models", "HBOS",
                             "--spec", spec, "--datasets", "glass",
                             "--iterations", "2", "--max-samples", "150",
                             "--max-features", "6")
        assert code == 0
        assert "= 2 cells" in text
        assert "HBOS@" in text

    def test_sweep_spec_only(self, tmp_path):
        spec = self._write(tmp_path, {"type": "HBOS", "params": {}})
        code, text = run_cli("sweep", "--spec", spec,
                             "--datasets", "glass", "--iterations", "2",
                             "--max-samples", "150", "--max-features", "6")
        assert code == 0
        assert "1 models" in text
