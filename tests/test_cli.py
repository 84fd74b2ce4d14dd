import json
import re
from pathlib import Path

import numpy as np
import pytest

from andnmf import harness
from andnmf.cli import main
from andnmf.config import PRESET_NAMES, ConfigError, preset_config, validate_config
from andnmf.linalg import SvdConvergenceError
from andnmf.matio import read_matrix, read_trace, write_matrix
from andnmf.weights import WeightSpec, sample_weights


def tiny_config(**overrides):
    raw = {
        "dataset": {
            "preset": "DIR", "W": 40, "D": 5, "n": 80, "seed": 3,
        },
        "init": {"r_l": 1.0},
        "solvers": [
            {"name": "and", "stages": 2, "iters_per_stage": 3},
        ],
    }
    raw.update(overrides)
    return raw


def every_kind_config(weights):
    """A config that sets every key, with one `and` solver per schedule kind."""
    return {
        "dataset": {"W": 40, "D": 5, "n": 80, "kind": "signed", "gamma": 0.02, "seed": 7,
                    "weights": weights},
        "init": {"r_l": 0.5, "r_n": 1},
        "solvers": [
            {"name": "and", "label": "constant", "stages": 2, "iters_per_stage": 3,
             "eta": 0.01, "batch": 20, "schedule": {"kind": "constant", "value": 0.1}},
            {"name": "and", "label": "geometric",
             "schedule": {"kind": "geometric", "start": 0.2, "ratio": 0.8}},
            {"name": "and", "label": "theory",
             "schedule": {"kind": "theory", "lambda": 1, "r": 2, "q": 1}},
            {"name": "hals", "outer_iters": 3},
            {"name": "anls"},
            {"name": "mu"},
        ],
        "eval_every": 2,
        "out_dir": "runs/every-kind",
    }


WEIGHTS = {
    "sparse_binary": {"family": "sparse_binary", "s": 2},
    "dirichlet": {"family": "dirichlet", "concentration": 0.4},
    "logistic_normal": {"family": "logistic_normal", "rho": 0.3, "cov_scale": 4},
    "sparse_uniform": {"family": "sparse_uniform", "s": 2, "low": 0.2, "high": 0.9},
}


def readme_config():
    """The JSON example of README's "Config format" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Config format"):]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            validate_config(tiny_config(bogus=1))

    def test_unknown_dataset_key(self):
        raw = tiny_config()
        raw["dataset"]["columns"] = 7
        with pytest.raises(ConfigError, match="config.dataset.columns"):
            validate_config(raw)

    def test_unknown_solver_key(self):
        raw = tiny_config()
        raw["solvers"][0]["step"] = 0.1
        with pytest.raises(ConfigError, match=r"config.solvers\[0\].step"):
            validate_config(raw)

    def test_and_solver_takes_no_seed(self):
        # the staged solver draws no random numbers, so a seed would be unread
        raw = tiny_config()
        raw["solvers"][0]["seed"] = 5
        with pytest.raises(ConfigError, match=r"config\.solvers\[0\]\.seed: unknown key"):
            validate_config(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("and", "pinv_rel_tol", 1e-12),
        ("and", "eta_scale", 0.5),
        ("hals", "inner_iters", 10),
        ("hals", "epsilon_floor", 1e-12),
        ("hals", "seed", 4),
        ("init", "seed", 11),
        ("init", "zero_diag", False),
    ])
    def test_constant_is_not_a_key(self, tmp_path, capsys, section, key, value):
        # each of these is a constant, or a seed derived from dataset.seed;
        # setting even its value is an unknown key
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        target = {"and": raw["solvers"][0], "hals": raw["solvers"][1], "init": raw["init"]}
        target[section][key] = value
        path = {"and": "config.solvers[0]", "hals": "config.solvers[1]",
                "init": "config.init"}[section]
        cfg_path = write_config(tmp_path, raw)
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}.{key}: unknown key" in capsys.readouterr().err

    def test_unknown_preset(self):
        raw = tiny_config()
        raw["dataset"]["preset"] = "TOPICS"
        with pytest.raises(ConfigError, match="TOPICS"):
            validate_config(raw)

    def test_duplicate_labels(self):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and"}, {"name": "and"}]
        with pytest.raises(ConfigError, match="duplicate label"):
            validate_config(raw)

    def test_w_less_than_d(self):
        raw = tiny_config()
        raw["dataset"]["W"] = 3
        with pytest.raises(ConfigError, match="W >= D"):
            validate_config(raw)

    def test_weights_required_without_preset(self):
        raw = tiny_config()
        del raw["dataset"]["preset"]
        with pytest.raises(ConfigError, match="weights"):
            validate_config(raw)

    def test_logistic_normal_rho_outside_unit_interval(self):
        # rho^|i-j| is not a covariance for |rho| >= 1
        raw = tiny_config()
        raw["dataset"]["weights"] = {"family": "logistic_normal", "rho": 1.5}
        with pytest.raises(ConfigError, match=r"config\.dataset\.weights: rho"):
            validate_config(raw)

    def test_explicit_keys_override_preset(self):
        raw = tiny_config()
        raw["dataset"]["weights"] = {"family": "sparse_binary", "s": 2}
        cfg = validate_config(raw)
        assert cfg.dataset.weights.family == "sparse_binary"

    def test_seed_override_rederives_children(self):
        cfg_a = validate_config(tiny_config(), seed_override=99)
        cfg_b = validate_config(tiny_config())
        assert cfg_a.dataset.seed == 99
        assert cfg_a.children != cfg_b.children

    def test_preset_defaults(self):
        cfg = validate_config(preset_config("CTM"))
        assert cfg.dataset.weights.family == "logistic_normal"
        assert cfg.dataset.weights.cov_scale == 25.0
        cfg = validate_config(preset_config("NEG"))
        assert cfg.dataset.kind == "signed"
        cfg = validate_config(preset_config("NOISE"))
        assert cfg.dataset.noise.gamma == 0.01
        assert cfg.solvers[0].config.iters_per_stage == 100
        cfg = validate_config(preset_config("BINARY"))
        assert cfg.solvers[0].config.schedule.kind == "constant"
        cfg = validate_config(preset_config("paper-scale"))
        assert (cfg.dataset.w, cfg.dataset.d, cfg.dataset.n) == (1000, 100, 5000)

    @pytest.mark.parametrize(
        "raw",
        [preset_config(p) for p in PRESET_NAMES]
        + [every_kind_config(w) for w in WEIGHTS.values()]
        + [readme_config()],
        ids=[*PRESET_NAMES, *(f"every-kind-{f}" for f in WEIGHTS), "README"],
    )
    def test_resolved_config_loads_back(self, raw):
        cfg = validate_config(raw)
        back = validate_config(json.loads(json.dumps(cfg.raw)))
        assert back.raw == cfg.raw
        assert back.config_hash() == cfg.config_hash()

    def test_null_means_absent(self):
        raw = tiny_config(eval_every=None, out_dir=None)
        raw["dataset"]["weights"] = None
        raw["solvers"][0].update(label=None, eta=None, schedule=None)
        assert validate_config(raw).raw == validate_config(tiny_config()).raw

    @pytest.mark.parametrize("section, value, key", [
        ("weights", {"family": "dirichlet", "concentration": 0.4, "rho": 0.5},
         "config.dataset.weights.rho"),
        ("weights", {"family": "logistic_normal", "s": 2}, "config.dataset.weights.s"),
        ("schedule", {"kind": "constant", "value": 0.1, "start": 0.1},
         "config.solvers[0].schedule.start"),
        ("schedule", {"kind": "geometric", "lambda": 1.0}, "config.solvers[0].schedule.lambda"),
    ], ids=["rho-on-dirichlet", "s-on-logistic_normal", "start-on-constant",
            "lambda-on-geometric"])
    def test_other_family_or_kind_key_is_error(self, section, value, key):
        raw = tiny_config()
        if section == "weights":
            raw["dataset"]["weights"] = value
        else:
            raw["solvers"][0]["schedule"] = value
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown key")):
            validate_config(raw)

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "dataset": {,}\n}')
        rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("command, edit, key", [
        ("generate", lambda raw: raw["dataset"].update(D=0), "config.dataset.D"),
        ("generate", lambda raw: raw["dataset"].update(gamma=float("nan")),
         "config.dataset.gamma"),
        ("generate",
         lambda raw: raw["solvers"][0].update(schedule={"kind": "geometric", "start": float("nan")}),
         "config.solvers[0].schedule.start"),
        ("run", lambda raw: raw["solvers"][0].update(eta=float("nan")),
         "config.solvers[0].eta"),
    ], ids=["D-zero", "gamma-nan", "start-nan", "eta-nan"])
    def test_zero_size_or_nonfinite_value_is_validation_error(self, tmp_path, capsys,
                                                             command, edit, key):
        # JSON as Python reads it accepts NaN and Infinity literals
        out = tmp_path / "out"
        assert main(["generate", "--config", str(write_config(tmp_path, tiny_config())),
                     "--out", str(out)]) == 0
        raw = tiny_config()
        edit(raw)
        path = write_config(tmp_path, raw, "bad.json")
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err


class TestGenerate:
    def test_writes_all_files_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert manifest["seeds"]["dataset"] == 3
        assert manifest["gcc_closed_form"] is not None  # dirichlet has one
        x = read_matrix(out / "X.mat")
        assert x.sum(axis=0) == pytest.approx(np.ones(80), abs=1e-12)

    def test_manifest_solver_seeds_list_baselines_only(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # every seed is derived from dataset.seed, so the config records none
        assert list(manifest["seeds"]["solvers"]) == ["hals"]
        assert all("seed" not in entry for entry in manifest["config"]["solvers"])

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg_path), "--out", str(out1)])
        main(["generate", "--config", str(cfg_path), "--out", str(out2)])
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_config_regenerates_same_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["generate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg_path = write_config(tmp_path, manifest["config"], "manifest_config.json")
        assert main(["generate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_runtime_error_outside_a_solver_exits_2(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SvdConvergenceError("SVD did not converge")

        monkeypatch.setattr(harness, "generate_ground_truth", fail)
        cfg_path = write_config(tmp_path, tiny_config())
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "SVD did not converge" in capsys.readouterr().err

    def test_neg_preset_ranges(self, tmp_path):
        raw = tiny_config()
        raw["dataset"]["preset"] = "NEG"
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out)])
        a_star = read_matrix(out / "A_star.mat")
        assert np.all(a_star >= -0.5) and np.all(a_star < 0.5)

    def test_preset_flag_without_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--preset", "BINARY", "--out", str(out), "--seed", "5"]) == 0
        x = read_matrix(out / "X.mat")
        assert set(np.unique(x)) == {0.0, 1.0}

    def test_missing_config_and_preset(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "o")]) == 1


class TestRun:
    def run_tiny(self, tmp_path, raw=None):
        raw = raw or tiny_config()
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        return rc, out

    def test_produces_trace_final_summary(self, tmp_path):
        rc, out = self.run_tiny(tmp_path)
        assert rc == 0
        assert (out / "and_trace.csv").exists()
        assert (out / "and_A_final.mat").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "ok"
        rows = read_trace(out / "and_trace.csv")
        assert rows[0].e_norm is not None  # ground truth available

    def test_run_requires_generated_files(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config())
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "empty")])
        assert rc == 3

    def test_determinism_modulo_seconds(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 4})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out)])
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        first = {
            name: [
                (r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                 r.e_norm, r.n_norm)
                for r in read_trace(out / f"{name}_trace.csv")
            ]
            for name in ("and", "hals")
        }
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        for name, rows in first.items():
            again = [
                (r.stage, r.iteration, r.alpha, r.total_error, r.log10_error,
                 r.e_norm, r.n_norm)
                for r in read_trace(out / f"{name}_trace.csv")
            ]
            assert again == rows

    def test_two_solvers_same_schema(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "anls", "outer_iters": 3})
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 0
        header_and = (out / "and_trace.csv").read_text().splitlines()[0]
        header_anls = (out / "anls_trace.csv").read_text().splitlines()[0]
        assert header_and == header_anls

    def test_jobs_flag(self, tmp_path):
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg_path), "--out", str(out)])
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 0
        assert (out / "hals_trace.csv").exists()

    def test_mu_on_negative_data_documented_refusal(self, tmp_path):
        raw = tiny_config()
        raw["dataset"]["preset"] = "NEG"
        raw["solvers"] = [{"name": "mu", "outer_iters": 3}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "refused"
        assert "negative" in summary["solvers"][0]["detail"]

    def test_theory_schedule_without_truth_refused(self, tmp_path):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "schedule": {"kind": "theory", "lambda": 1,
                                                        "r": 2, "q": 1}}]
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "A_star.mat").unlink()
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        status = json.loads((out / "summary.json").read_text())["solvers"][0]
        assert status["status"] == "refused"
        assert "ground truth" in status["detail"]

    def test_divergence_recorded_with_partial_trace(self, tmp_path):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 1, "iters_per_stage": 500, "eta": 1e8}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "diverged"
        assert read_trace(out / "and_trace.csv")  # partial rows retained

    def test_overflow_divergence_row_is_not_evaluated(self, tmp_path):
        raw = tiny_config()
        raw["solvers"] = [{"name": "and", "stages": 1, "iters_per_stage": 5, "eta": 1e308}]
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "diverged"
        last = read_trace(out / "and_trace.csv")[-1]
        assert last.total_error == float("inf")
        assert last.e_norm is None and last.n_norm is None

    def test_solver_runtime_error_recorded(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise SvdConvergenceError("SVD did not converge")

        monkeypatch.setattr(harness, "run_and", fail)
        raw = tiny_config()
        raw["solvers"].append({"name": "hals", "outer_iters": 3})
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 2
        statuses = json.loads((out / "summary.json").read_text())["solvers"]
        assert statuses[0]["status"] == "error"
        assert "SvdConvergenceError" in statuses[0]["detail"]
        assert statuses[1]["status"] == "ok"
        assert (out / "hals_A_final.mat").exists()

    def test_paper_scale_short_run(self, tmp_path):
        # D = 100 > 50, so the default evaluates every 10th iteration plus
        # the last of each stage: iterations 0 and 4 of both stages
        raw = preset_config("paper-scale")
        raw["solvers"] = [{"name": "and", "stages": 2, "iters_per_stage": 5}]
        rc, out = self.run_tiny(tmp_path, raw)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solvers"][0]["status"] == "ok"
        rows = read_trace(out / "and_trace.csv")
        assert [(r.stage, r.iteration) for r in rows] == [(0, 0), (0, 4), (1, 0), (1, 4)]


class TestEvalAndGcc:
    def test_eval_self_is_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.random((12, 4))
        p = tmp_path / "a.mat"
        write_matrix(p, a)
        report_path = tmp_path / "report.json"
        assert main(["eval", str(p), str(p), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["total"] <= 1e-7

    def test_eval_permuted_scaled_copy_zero(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.random((12, 4))
        est = a[:, [2, 0, 3, 1]] * np.array([2.0, -1.5, 0.25, 3.0])
        pa, pe = tmp_path / "a.mat", tmp_path / "e.mat"
        write_matrix(pa, a)
        write_matrix(pe, est)
        out = tmp_path / "r.json"
        assert main(["eval", str(pe), str(pa), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] <= 1e-7

    @pytest.mark.parametrize("scale", [1e160, 1e170])
    def test_eval_huge_estimate_keeps_its_winners(self, tmp_path, scale):
        rng = np.random.default_rng(2)
        a = rng.random((12, 4))
        est = (a @ (np.eye(4) + 0.1 * rng.standard_normal((4, 4))))[:, [2, 0, 3, 1]]
        paths = {name: tmp_path / f"{name}.mat" for name in ("a", "est", "big")}
        for name, m in (("a", a), ("est", est), ("big", scale * est)):
            write_matrix(paths[name], m)
        reports = {}
        for name in ("est", "big"):
            out = tmp_path / f"{name}.json"
            assert main(["eval", str(paths[name]), str(paths["a"]), "--out", str(out)]) == 0
            reports[name] = json.loads(out.read_text())
        assert reports["est"]["matches"] == [1, 3, 0, 2]
        assert reports["big"]["matches"] == reports["est"]["matches"]
        assert reports["big"]["total"] == pytest.approx(reports["est"]["total"], rel=1e-12, abs=0)

    def test_eval_shape_mismatch_is_validation_error(self, tmp_path):
        pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
        write_matrix(pa, np.ones((4, 2)))
        write_matrix(pb, np.ones((5, 2)))
        assert main(["eval", str(pa), str(pb)]) == 1

    def test_eval_malformed_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"JUNKJUNKJUNK")
        good = tmp_path / "good.mat"
        write_matrix(good, np.ones((2, 2)))
        assert main(["eval", str(bad), str(good)]) == 3
        assert "offset" in capsys.readouterr().err

    def test_gcc_dirichlet_simplex_r(self, tmp_path):
        x = sample_weights(WeightSpec.dirichlet(5, 0.4, seed=2), 400)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        assert main(["gcc", str(p), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"]["r"] <= 1.0 + 1e-9

    def test_gcc_binary_exact_r(self, tmp_path):
        x = sample_weights(WeightSpec.sparse_binary(6, 3, seed=3), 500)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        main(["gcc", str(p), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["params"]["r"] == 3.0
        assert report["decay"]["q_hat"] == "inf"

    def test_gcc_enumeration_m_estimate(self, tmp_path):
        x = sample_weights(WeightSpec.sparse_binary(4, 2, seed=4), 100000)
        p = tmp_path / "w.mat"
        write_matrix(p, x)
        out = tmp_path / "g.json"
        main(["gcc", str(p), "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["params"]["m"] == pytest.approx(8.0 / 3.0, rel=0.10)

    def test_gcc_rejects_out_of_range(self, tmp_path):
        p = tmp_path / "w.mat"
        write_matrix(p, np.array([[1.5, 0.2], [0.1, 0.3]]))
        assert main(["gcc", str(p)]) == 1
