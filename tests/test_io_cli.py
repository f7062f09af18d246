import json
import math
import os
import re

import numpy as np
import pytest

from bklv import (
    FormatError,
    InputError,
    ModelConfig,
    PlanParams,
    build_plan,
    init_model,
    model_checksum,
    profile_model,
    rank_correlation,
    uniform_plan,
)
from bklv import io
from bklv.cli import main
from bklv.search import CorrelationReport, GridPoint, SearchReport, SweepReport

from .conftest import SMALL


def _load(path):
    with open(path, "rb") as fh:
        return json.loads(fh.read())


class TestTokenizer:
    def test_encode_prefixes_bos(self):
        assert io.encode_bytes(b"ab") == [256, 97, 98]

    def test_decode_drops_bos(self):
        assert io.decode_ids([256, 104, 105]) == b"hi"

    def test_roundtrip(self):
        data = bytes(range(256))
        assert io.decode_ids(io.encode_bytes(data)) == data


class TestCorpus:
    def test_one_document_per_file(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"aaa")
        (tmp_path / "b.txt").write_bytes(b"bb")
        corpus = io.load_corpus([str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
        assert corpus.token_ids.tolist() == [256, 97, 97, 97, 256, 98, 98]
        assert corpus.boundaries == [0, 4]

    def test_directory_expands_sorted(self, tmp_path):
        (tmp_path / "z.txt").write_bytes(b"z")
        (tmp_path / "a.txt").write_bytes(b"a")
        corpus = io.load_corpus([str(tmp_path)])
        assert [os.path.basename(p) for p in corpus.sources] == ["a.txt", "z.txt"]

    def test_vocab_floor(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"a")
        with pytest.raises(InputError):
            io.load_corpus([str(tmp_path)], vocab_size=100)

    def test_ids_below_vocab(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(bytes(range(256)))
        corpus = io.load_corpus([str(tmp_path)])
        assert corpus.token_ids.max() == 256


@pytest.fixture(scope="module")
def profile(small_model):
    rng = np.random.default_rng(5)
    return profile_model(
        small_model,
        [rng.integers(0, 257, size=40).tolist(), rng.integers(0, 257, size=36).tolist()],
        keep_per_token=True,
    )


class TestRoundTrips:
    def test_model_file(self, small_model, tmp_path):
        path = str(tmp_path / "m.bklv")
        io.write_model_file(small_model, path)
        again = io.read_model_file(path)
        assert model_checksum(again) == model_checksum(small_model)

    def test_profile(self, profile, tmp_path):
        path = str(tmp_path / "p.json")
        io.write_profile(profile, path)
        again = io.read_profile(path)
        assert again.model_id == profile.model_id
        assert again.prompt_ids == profile.prompt_ids
        np.testing.assert_array_equal(again.head_similarity, profile.head_similarity)
        np.testing.assert_array_equal(again.kv_importance, profile.kv_importance)
        np.testing.assert_array_equal(again.layer_importance, profile.layer_importance)
        assert again.config == profile.config
        for a, b in zip(again.per_token_similarity, profile.per_token_similarity):
            np.testing.assert_array_equal(a, b)

    def test_profile_write_deterministic(self, profile, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        io.write_profile(profile, a)
        io.write_profile(profile, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_plan(self, profile, tmp_path):
        plan = build_plan(profile, SMALL, "baklava", 0.5, PlanParams(t=0.7, r=0.3), 4)
        path = str(tmp_path / "plan.json")
        io.write_plan(plan, SMALL, path)
        again = io.read_plan(path)
        assert np.array_equal(again.budgets, plan.budgets)
        assert again.strategy == plan.strategy
        assert again.params == plan.params
        assert again.sinks == plan.sinks
        assert again.compression_ratio == plan.compression_ratio

    def test_plan_records_achieved_compression(self, profile, tmp_path):
        plan = uniform_plan(SMALL, 0.3)
        path = str(tmp_path / "plan.json")
        io.write_plan(plan, SMALL, path)
        doc = io.read_json(path)
        assert doc["requested_compression"] == 0.3
        assert abs(doc["achieved_compression"] - plan.achieved_compression(SMALL)) == 0

    def test_search_report(self, tmp_path):
        report = SearchReport(
            compression=0.5,
            grid=[GridPoint(0.5, 0.1, 3.25, True), GridPoint(0.9, 0.9, math.nan, False)],
            best=(0.5, 0.1),
            best_loss=3.25,
            uniform_loss=3.5,
            chunks_evaluated=4,
            tokens_per_chunk=64,
        )
        path = str(tmp_path / "search.json")
        io.write_search_report(report, path)
        doc = _load(path)
        assert doc == io.search_report_to_dict(report)
        assert doc["grid"][1] == {"t": 0.9, "r": 0.9, "loss": None, "feasible": False}

    def test_sweep_report(self, tmp_path):
        report = SweepReport(window=3, compression=0.4, scores=[1.5, 2.5], bounds=[(0, 1), (0, 1)])
        corr = CorrelationReport(0.5, False, 0.0, True, 1)
        path = str(tmp_path / "sweep.json")
        io.write_sweep_report(report, path, corr)
        assert _load(path) == io.sweep_report_to_dict(report, corr)

    def test_bad_format_version(self, tmp_path):
        path = str(tmp_path / "bad.json")
        io.write_json(path, {"format_version": "bklv-profile-v9"})
        with pytest.raises(FormatError, match="format_version"):
            io.read_profile(path)

    def test_not_json(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as fh:
            fh.write("{broken")
        with pytest.raises(FormatError):
            io.read_json(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budgets", "fraction"),
            ("budgets", "bool"),
            ("budgets", "ragged"),
            ("sinks", 4.7),
            ("sinks", True),
            ("sinks", [4]),
        ],
    )
    def test_plan_non_integer_values_rejected(self, field, value):
        doc = io.plan_to_dict(uniform_plan(SMALL, 0.5), SMALL)
        if field == "budgets":
            budgets = doc["budgets"]
            if value == "fraction":
                budgets[0][1] += 0.9  # would truncate back to the original budget
            elif value == "bool":
                budgets[0][1] = True
            else:
                budgets[1] = budgets[1][:1]
        else:
            doc["sinks"] = value
        with pytest.raises(FormatError, match=field):
            io.plan_from_dict(doc)

    @pytest.mark.parametrize(
        "field", ["head_similarity", "kv_importance", "layer_importance", "per_token_similarity"]
    )
    def test_profile_non_finite_values_rejected(self, profile, field, tmp_path):
        path = str(tmp_path / "p.json")
        io.write_profile(profile, path)
        doc = io.read_json(path)
        if field == "per_token_similarity":
            doc[field][0][0][0][0] = float("nan")
        elif field == "layer_importance":
            doc[field][0] = float("nan")
        else:
            doc[field][0][0] = float("nan")
        io.write_json(path, doc)  # json writes NaN as a bare token, which json reads back
        with pytest.raises(FormatError, match=field):
            io.read_profile(path)


def _write_text(path, n_bytes, seed=0):
    rng = np.random.default_rng(seed)
    path.write_bytes(bytes(rng.integers(32, 127, size=n_bytes).tolist()))
    return str(path)


@pytest.fixture()
def cli_env(tmp_path):
    model_path = str(tmp_path / "model.bklv")
    assert (
        main(
            [
                "init-model",
                "--out",
                model_path,
                "--seed",
                "7",
                "--num-layers",
                "2",
                "--num-q-heads",
                "4",
                "--num-kv-heads",
                "2",
                "--head-dim",
                "8",
                "--d-ff",
                "64",
                "--max-context",
                "64",
            ]
        )
        == 0
    )
    prompt = _write_text(tmp_path / "prompt.txt", 48, seed=1)
    corpus = _write_text(tmp_path / "corpus.txt", 200, seed=2)
    return {"dir": tmp_path, "model": model_path, "prompt": prompt, "corpus": corpus}


class TestCli:
    def test_init_model_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.bklv"), str(tmp_path / "b.bklv")
        args = ["--seed", "3", "--num-layers", "2", "--num-q-heads", "4",
                "--num-kv-heads", "2", "--head-dim", "8", "--d-ff", "64",
                "--max-context", "64"]
        assert main(["init-model", "--out", a] + args) == 0
        assert main(["init-model", "--out", b] + args) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_init_model_header_roundtrip(self, cli_env):
        model = io.read_model_file(cli_env["model"])
        assert model.config.num_layers == 2
        assert model.config.d_model == 32

    def test_init_model_invalid_config(self, tmp_path, capsys):
        rc = main(
            ["init-model", "--out", str(tmp_path / "x.bklv"), "--num-q-heads", "6", "--num-kv-heads", "4"]
        )
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "num_q_heads" in err["error"]

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf", "0"])
    def test_init_model_non_finite_rope_theta(self, tmp_path, capsys, theta):
        out = tmp_path / "x.bklv"
        assert main(["init-model", "--out", str(out), f"--rope-theta={theta}"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "rope_theta must be finite and positive" in json.loads(lines[0])["error"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_model_header(self, cli_env, tmp_path, capsys):
        data = open(cli_env["model"], "rb").read()
        bad = str(tmp_path / "bad.bklv")
        with open(bad, "wb") as fh:
            fh.write(b"bklv0" + data[5:])
        rc = main(["profile", "--model", bad, "--prompt", cli_env["prompt"], "--out", str(tmp_path / "p.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "format version" in err["error"]

    def test_profile_byte_identical_reruns(self, cli_env, capsys):
        p1 = str(cli_env["dir"] / "p1.json")
        p2 = str(cli_env["dir"] / "p2.json")
        for out in (p1, p2):
            assert main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", out]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_profile_missing_model(self, cli_env, capsys):
        rc = main(["profile", "--model", "/nonexistent", "--prompt", cli_env["prompt"], "--out", "/tmp/x.json"])
        assert rc != 0
        assert "error" in json.loads(capsys.readouterr().err.strip())

    def test_profile_short_prompt(self, cli_env, tmp_path, capsys):
        short = _write_text(tmp_path / "short.txt", 5)
        rc = main(["profile", "--model", cli_env["model"], "--prompt", short, "--out", str(tmp_path / "p.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "minimum" in err["error"]

    def test_profile_heatmap_rows(self, cli_env, capsys):
        out = str(cli_env["dir"] / "heat.json")
        assert main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", out, "--heatmap"]) == 0
        doc = io.read_json(out)
        # one matrix per prompt; token axis equals prompt length (+1 for BOS)
        assert len(doc["per_token_similarity"]) == 1
        assert len(doc["per_token_similarity"][0][0]) == 49

    def test_plan_uniform_full(self, cli_env, capsys):
        prof = str(cli_env["dir"] / "prof.json")
        assert main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof]) == 0
        plan_path = str(cli_env["dir"] / "plan.json")
        assert main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path]) == 0
        plan = io.read_plan(plan_path)
        assert np.all(plan.budgets == 64)

    def test_plan_noop_baklava_equals_uniform(self, cli_env):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        u, b = str(cli_env["dir"] / "u.json"), str(cli_env["dir"] / "b.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", u])
        main(["plan", "--profile", prof, "--strategy", "baklava", "--compression", "0.5", "--t", "0", "--r", "0", "--out", b])
        assert io.read_plan(u).budgets.tolist() == io.read_plan(b).budgets.tolist()

    def test_plan_floor_violation_exit(self, cli_env, capsys):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        rc = main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.01", "--out", str(cli_env["dir"] / "x.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["violations"]

    def test_search_eval_consistency(self, cli_env, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        search_out = str(d / "search.json")
        rc = main(
            [
                "search",
                "--model", cli_env["model"],
                "--profile", prof,
                "--corpus", cli_env["corpus"],
                "--compression", "0.4",
                "--context-len", "48",
                "--t-grid", "0,0.7",
                "--r-grid", "0,0.5",
                "--out", search_out,
                "--heatmap",
            ]
        )
        assert rc == 0
        report = _load(search_out)
        assert len(report["grid"]) == 4

        # anchor grid point equals a separate uniform eval, bit-for-bit
        plan_path = str(d / "uplan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.4", "--out", plan_path])
        eval_out = str(d / "eval.json")
        assert main(
            ["eval", "--model", cli_env["model"], "--plan", plan_path,
             "--corpus", cli_env["corpus"], "--context-len", "48", "--out", eval_out]
        ) == 0
        doc = _load(eval_out)
        assert doc["format_version"] == io.EVAL_VERSION
        anchor = [p for p in report["grid"] if p["t"] == 0.0 and p["r"] == 0.0][0]
        assert doc["loss"] == anchor["loss"]
        assert anchor["loss"] == report["uniform_loss"]

    def test_search_corpus_too_short(self, cli_env, tmp_path, capsys):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        tiny = _write_text(tmp_path / "tiny.txt", 10)
        rc = main(
            ["search", "--model", cli_env["model"], "--profile", prof, "--corpus", tiny,
             "--compression", "0.5", "--context-len", "48", "--out", str(tmp_path / "s.json")]
        )
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "context length" in err["error"]

    def test_search_rerun_identical_report(self, cli_env):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        outs = []
        for name in ("s1.json", "s2.json"):
            out = str(d / name)
            main(
                ["search", "--model", cli_env["model"], "--profile", prof, "--corpus", cli_env["corpus"],
                 "--compression", "0.4", "--context-len", "48", "--t-grid", "0.6", "--r-grid", "0.4", "--out", out]
            )
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_eval_memory_matches_closed_form(self, cli_env, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        capsys.readouterr()
        assert main(["eval", "--model", cli_env["model"], "--plan", plan_path, "--corpus", cli_env["corpus"], "--context-len", "48"]) == 0
        out = capsys.readouterr().out
        total = int([l for l in out.splitlines() if l.startswith("total_bytes:")][0].split()[1])
        assert total == 2 * 64 * 8 * 2 * (2 * 2)

    def test_sweep_report_and_correlation_flag(self, cli_env):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        no_prof = str(d / "sweep1.json")
        assert main(
            ["sweep", "--model", cli_env["model"], "--corpus", cli_env["corpus"],
             "--window", "1", "--compression", "0.5", "--context-len", "48", "--out", no_prof]
        ) == 0
        report = _load(no_prof)
        assert len(report["scores"]) == 2
        assert report["correlation"] is None

        with_prof = str(d / "sweep2.json")
        assert main(
            ["sweep", "--model", cli_env["model"], "--corpus", cli_env["corpus"],
             "--window", "1", "--compression", "0.5", "--context-len", "48",
             "--profile", prof, "--out", with_prof]
        ) == 0
        assert _load(with_prof)["correlation"] is not None

    def test_sweep_flat_at_full_compression(self, cli_env):
        d = cli_env["dir"]
        out = str(d / "sweepflat.json")
        main(["sweep", "--model", cli_env["model"], "--corpus", cli_env["corpus"],
              "--window", "1", "--compression", "1.0", "--context-len", "48", "--out", out])
        assert len(set(_load(out)["scores"])) == 1

    def test_generate_zero_steps(self, cli_env, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        capsys.readouterr()
        assert main(["generate", "--model", cli_env["model"], "--plan", plan_path, "--text", "hello", "--steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "generated_tokens: 0" in out

    def test_generate_deterministic(self, cli_env, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        outs = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["generate", "--model", cli_env["model"], "--plan", plan_path, "--text", "abc", "--steps", "8"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_manifest_checksums_match(self, cli_env):
        manifest = _load(cli_env["model"] + ".manifest")
        assert manifest["format_version"] == io.MANIFEST_VERSION
        entry = manifest["files"]["model"]
        assert entry["sha256"] == io.sha256_file(cli_env["model"])

    def test_manifest_records_the_argv_given_to_main(self, cli_env):
        out = str(cli_env["dir"] / "argv.json")
        argv = ["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", out]
        assert main(argv) == 0
        assert _load(out + ".manifest")["command"] == argv

    def test_profile_consistency_matches_single_prompt_profiles(self, cli_env, tmp_path):
        second = _write_text(tmp_path / "second.txt", 40, seed=9)
        out = str(cli_env["dir"] / "two.json")
        argv = ["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"],
                "--prompt", second, "--out", out]
        assert main(argv) == 0
        model = io.read_model_file(cli_env["model"])
        singles = []
        for path in (cli_env["prompt"], second):
            with open(path, "rb") as fh:
                singles.append(profile_model(model, [io.encode_bytes(fh.read())]))
        [pair] = io.read_json(out)["prompt_consistency"]
        assert (pair["a"], pair["b"]) == (singles[0].prompt_ids[0], singles[1].prompt_ids[0])
        expected = rank_correlation(singles[0].head_similarity, singles[1].head_similarity)
        assert pair["per_layer_spearman"] == expected.tolist()

    @pytest.mark.parametrize("command", ["eval", "search", "sweep"])
    def test_context_len_zero_rejected(self, cli_env, command, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan_path])
        out = str(d / "out.json")
        common = ["--model", cli_env["model"], "--corpus", cli_env["corpus"], "--context-len", "0",
                  "--out", out]
        extra = {
            "eval": ["--plan", plan_path],
            "search": ["--profile", prof, "--compression", "0.5", "--t-grid", "0.7", "--r-grid", "0.3"],
            "sweep": ["--window", "1", "--compression", "0.5"],
        }[command]
        capsys.readouterr()
        assert main([command] + common + extra) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "context_len must be >= 2, got 0" in err["error"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["search", "eval", "sweep"])
    def test_corpus_shorter_than_context_rejected(self, cli_env, command, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan_path])
        short = _write_text(d / "short.txt", 20, seed=4)
        out = str(d / "out.json")
        extra = {
            "search": ["--profile", prof, "--compression", "0.5", "--t-grid", "0.7", "--r-grid", "0.3"],
            "eval": ["--plan", plan_path],
            "sweep": ["--window", "1", "--compression", "0.5"],
        }[command]
        capsys.readouterr()
        rc = main([command, "--model", cli_env["model"], "--corpus", short, "--context-len", "48",
                   "--out", out] + extra)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"].startswith("corpus has")
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest")

    @pytest.mark.parametrize("grid", [["--t-grid", "0.7,5"], ["--r-grid", "0.3,1"]])
    def test_out_of_range_grid_value_rejected_before_search(self, cli_env, grid, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(d / "s.json")
        capsys.readouterr()
        rc = main(
            ["search", "--model", cli_env["model"], "--profile", prof, "--corpus", cli_env["corpus"],
             "--compression", "0.4", "--context-len", "48", "--out", out] + grid
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        name = grid[0][2]  # "t" or "r"
        assert err["error"].startswith(f"{name} must be in [0, 1")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["plan", "search"])
    def test_nan_compression_rejected(self, cli_env, command, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(d / "nan.json")
        argv = {
            "plan": ["plan", "--profile", prof, "--strategy", "baklava", "--t", "0.7", "--r", "0.3"],
            "search": ["search", "--model", cli_env["model"], "--profile", prof,
                       "--corpus", cli_env["corpus"], "--context-len", "48"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--compression", "nan", "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "compression must be in (0, 1], got nan"
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest")

    def test_eval_plan_with_nan_compression_rejected(self, cli_env, capsys):
        d = cli_env["dir"]
        prof, plan, out = (str(d / name) for name in ("prof.json", "plan.json", "eval.json"))
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan])
        with open(plan) as fh:
            doc = json.load(fh)
        doc["requested_compression"] = float("nan")
        with open(plan, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["eval", "--model", cli_env["model"], "--plan", plan, "--corpus", cli_env["corpus"],
                   "--context-len", "48", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert doc["error"] == "plan does not match this model"
        assert doc["violations"] == ["compression must be in (0, 1], got nan"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_profile_from_another_model_rejected(self, cli_env, tmp_path, command, capsys):
        other = str(tmp_path / "seed8.bklv")
        shape = ["--num-layers", "2", "--num-q-heads", "4", "--num-kv-heads", "2",
                 "--head-dim", "8", "--d-ff", "64", "--max-context", "64"]
        assert main(["init-model", "--out", other, "--seed", "8"] + shape) == 0
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(tmp_path / "r.json")
        extra = {
            "search": ["--compression", "0.4", "--t-grid", "0.7", "--r-grid", "0.3"],
            "sweep": ["--window", "1", "--compression", "0.5"],
        }[command]
        capsys.readouterr()
        rc = main(
            [command, "--model", other, "--profile", prof, "--corpus", cli_env["corpus"],
             "--context-len", "48", "--out", out] + extra
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "different model" in err["error"]
        assert not os.path.exists(out)

    def test_success_is_silent_on_stderr(self, cli_env, capsys):
        prof = str(cli_env["dir"] / "quiet.json")
        assert main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof]) == 0
        assert capsys.readouterr().err == ""

    def test_eval_plan_model_mismatch(self, cli_env, tmp_path, capsys):
        other_model = str(tmp_path / "other.bklv")
        main(["init-model", "--out", other_model, "--seed", "1"])  # default 4-layer config
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(cli_env["dir"] / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        capsys.readouterr()
        rc = main(["eval", "--model", other_model, "--plan", plan_path, "--corpus", cli_env["corpus"]])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["violations"]

    def test_generate_full_budget_matches_cache_free_oracle(self, cli_env, capsys):
        from .reference import reference_generate

        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        capsys.readouterr()
        assert main(["generate", "--model", cli_env["model"], "--plan", plan_path, "--text", "abc", "--steps", "10"]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        model = io.read_model_file(cli_env["model"])
        expected_ids = reference_generate(model, io.encode_bytes(b"abc"), 10)
        expected = io.decode_ids(expected_ids).decode("utf-8", errors="replace")
        assert printed == expected

    def test_plan_negative_sinks_rejected(self, cli_env, capsys):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(cli_env["dir"] / "x.json")
        for strategy in ("uniform", "baklava"):
            capsys.readouterr()
            rc = main(["plan", "--profile", prof, "--strategy", strategy, "--compression", "0.5",
                       "--t", "0.7", "--r", "0.3", "--sinks", "-1", "--out", out])
            assert rc == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert "sinks must be >= 0, got -1" in err["violations"]
            assert not os.path.exists(out)

    @pytest.mark.parametrize("command, width", [("eval", "-2"), ("generate", "0")])
    def test_non_positive_bytes_per_element_rejected(self, cli_env, command, width, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        plan_path = str(d / "plan.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan_path])
        extra = {
            "eval": ["--corpus", cli_env["corpus"], "--context-len", "48"],
            "generate": ["--text", "abc", "--steps", "2"],
        }[command]
        capsys.readouterr()
        rc = main([command, "--model", cli_env["model"], "--plan", plan_path,
                   "--bytes-per-element", width] + extra)
        assert rc == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err.strip())
        assert err["error"] == f"bytes_per_element must be >= 1, got {width}"
        assert "total_bytes" not in captured.out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["init-model", "--out", "{dir}/x.bklv", "--rope-theta", "-inf"],
             "argument --rope-theta: expected one argument"),
            (["generate", "--model", "{model}", "--plan", "{dir}/p.json", "--text", "a", "--steps", "abc"],
             "argument --steps: invalid int value: 'abc'"),
            (["init-model", "--out", "{dir}/x.bklv", "--no-such-flag"],
             "unrecognized arguments: --no-such-flag"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-value", "bad-int", "unknown-flag", "no-subcommand"],
    )
    def test_usage_errors_follow_the_json_contract(self, cli_env, argv, message, capsys):
        before = sorted(os.listdir(cli_env["dir"]))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([a.format(dir=cli_env["dir"], model=cli_env["model"]) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": message, "violations": []}) + "\n"
        assert sorted(os.listdir(cli_env["dir"])) == before

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: bklv plan [-h]")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_context", "512", "max_context must be an integer, got '512'"),
            ("num_q_heads", 0, "num_q_heads must be in [1, 2147483647], got 0"),
        ],
        ids=["max_context-str", "num_q_heads-0"],
    )
    def test_plan_rejects_a_profile_with_a_bad_config(self, cli_env, field, value, message, capsys):
        prof, out = str(cli_env["dir"] / "prof.json"), str(cli_env["dir"] / "plan.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        doc = io.read_json(prof)
        doc["config"][field] = value
        io.write_json(prof, doc)
        capsys.readouterr()
        rc = main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.3", "--out", out])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{prof}: malformed profile: {message}"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("requested_compression", "0.3", "requested_compression must be a number, got '0.3'"),
            ("strategy", 7, "strategy must be one of ('uniform', 'layerwise', 'baklava', 'window'), got 7"),
            ("params", {"t": "abc", "r": 0.0, "layer_t": 0.0, "layer_r": 0.0},
             "t must be in [0, 1], got 'abc'"),
        ],
        ids=["compression-str", "strategy-int", "params-t-str"],
    )
    def test_eval_rejects_a_retyped_plan_field(self, cli_env, field, value, message, capsys):
        d = cli_env["dir"]
        prof, plan, out = (str(d / name) for name in ("prof.json", "plan.json", "eval.json"))
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan])
        doc = io.read_json(plan)
        doc[field] = value
        io.write_json(plan, doc)
        with pytest.raises(FormatError, match=re.escape(message)):
            io.read_plan(plan)
        capsys.readouterr()
        rc = main(["eval", "--model", cli_env["model"], "--plan", plan, "--corpus", cli_env["corpus"],
                   "--context-len", "48", "--out", out])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{plan}: malformed plan: {message}"
        assert not os.path.exists(out)
