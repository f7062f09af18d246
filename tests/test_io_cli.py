import argparse
import hashlib
import json
import math
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from bklv import (
    ConfigError,
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
from bklv.allocation import STRATEGIES
from bklv.cli import build_parser, main
from bklv import cli as cli_module
from bklv.model import check_tokens, serialize_model
from bklv.search import heuristic_vs_empirical, layer_sweep, parameter_search

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
        ids = io.load_corpus([str(tmp_path / "a.txt"), str(tmp_path / "b.txt")])
        assert ids.dtype == np.int64
        assert ids.tolist() == [256, 97, 97, 97, 256, 98, 98]

    def test_directory_expands_sorted(self, tmp_path):
        (tmp_path / "z.txt").write_bytes(b"z")
        (tmp_path / "a.txt").write_bytes(b"a")
        assert io.load_corpus([str(tmp_path)]).tolist() == [256, 97, 256, 122]

    def test_vocab_floor(self, tmp_path):
        # the id-range rule is check_tokens', which every evaluation applies
        (tmp_path / "a.txt").write_bytes(b"a")
        with pytest.raises(InputError, match=r"token id out of range \[0, 100\): 256"):
            check_tokens(io.load_corpus([str(tmp_path)]), 100)

    def test_ids_below_vocab(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(bytes(range(256)))
        assert io.load_corpus([str(tmp_path)]).max() == 256


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

    def test_sha256_file_hashes_a_file_longer_than_one_block(self, tmp_path):
        data = np.random.default_rng(0).bytes(3 << 19)  # 1.5 MiB: one whole 1 MiB block, then half of one
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        assert io.sha256_file(str(path)) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize(
        "model_name, edit", [("small_model", False), ("toy_model", False), ("small_model", True)],
        ids=["small", "seed-7", "replaced"],
    )
    def test_checksum_and_file_are_the_serialized_bytes(self, request, model_name, edit, tmp_path):
        # streamed chunk by chunk, both equal the one joined serialize_model copy
        model = request.getfixturevalue(model_name)
        if edit:  # tensors that are not row-major <f4 arrays: Fortran order, float64, a reversed view
            layer = replace(model.layers[1], mlp_in=model.layers[1].mlp_in.astype(np.float64) * 3)
            model = replace(model, embedding=np.asfortranarray(model.embedding), layers=[model.layers[0], layer],
                            final_norm=np.linspace(0.5, 2, model.config.d_model, dtype=np.float32)[::-1])
        data = serialize_model(model)
        assert model_checksum(model) == hashlib.sha256(data).hexdigest()
        io.write_model_file(model, str(tmp_path / "m.bklv"))
        assert (tmp_path / "m.bklv").read_bytes() == data

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
        again = io.read_plan(path, SMALL)
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

    def test_search_report(self, small_model, profile, rng, tmp_path):
        # (0.5, 0.1) selects every cache and keeps the uniform plan; (0.64, 0.9)
        # moves tokens and scores lower, so the argmin is not the first point
        grid = [(0.5, 0.1), (0.64, 0.9)]
        report = parameter_search(small_model, rng.integers(0, 256, 100), 48, 0.5, grid, profile)
        path = str(tmp_path / "search.json")
        io.write_json(path, {"format_version": io.SEARCH_VERSION, **report})
        doc = _load(path)
        assert doc == {"format_version": "bklv-search-v1", **report}
        assert [(p["t"], p["r"]) for p in doc["grid"]] == grid
        assert all(p["feasible"] is True and math.isfinite(p["loss"]) for p in doc["grid"])
        losses = [p["loss"] for p in doc["grid"]]
        first_best = doc["grid"][losses.index(min(losses))]
        assert doc["best"] == {"t": first_best["t"], "r": first_best["r"]}
        assert doc["best_loss"] == first_best["loss"]
        assert (doc["chunks_evaluated"], doc["tokens_per_chunk"], doc["sinks"]) == (2, 48, 4)
        assert (doc["compression"], doc["layer_t"], doc["layer_r"]) == (0.5, 0.0, 0.0)
        assert math.isfinite(doc["uniform_loss"])

    def test_sweep_report(self, small_model, profile, rng, tmp_path):
        report = layer_sweep(small_model, rng.integers(0, 256, 100), 48, 1, 0.4)
        assert report["correlation"] is None
        report["correlation"] = heuristic_vs_empirical(profile, report)
        path = str(tmp_path / "sweep.json")
        io.write_json(path, {"format_version": io.SWEEP_VERSION, **report})
        doc = _load(path)
        assert doc == {"format_version": "bklv-sweep-v1", **report}
        assert (doc["window"], doc["compression"], doc["bounds"]) == (1, 0.4, [[0, 0], [1, 1]])
        assert set(doc["correlation"]) == {
            "full", "full_degenerate", "trimmed", "trimmed_degenerate", "trim"
        }

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
            io.plan_from_dict(doc, SMALL)

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

    def test_init_model_past_the_weight_bound(self, tmp_path, monkeypatch, capsys):
        # about 2.6e12 weights: refused by ModelConfig.validate before any
        # tensor is drawn. The guard fails the test instead of allocating, were the bound lost.
        init_model = cli_module.init_model

        def guarded(cfg):
            assert cfg.weight_count() > 2**28
            with pytest.raises(ConfigError):
                cfg.validate()
            return init_model(cfg)

        monkeypatch.setattr(cli_module, "init_model", guarded)
        out = tmp_path / "x.bklv"
        assert main(["init-model", "--out", str(out), "--num-layers", "100000", "--d-ff", "100000"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert re.fullmatch(r"the model has \d+ weights, above MAX_WEIGHTS 268435456", error), error
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_init_model_out_of_memory(self, tmp_path, monkeypatch, capsys):
        # a vocabulary inside the config bounds whose weights cannot be allocated;
        # the allocation failure is simulated
        def allocating(cfg):
            raise MemoryError("Unable to allocate 2.00 TiB for an array")

        monkeypatch.setattr(cli_module, "init_model", allocating)
        out = tmp_path / "x.bklv"
        assert main(["init-model", "--out", str(out), "--vocab-size", "2147483647"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "out of memory: Unable to allocate 2.00 TiB for an array", "violations": []
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "strategy, params",
        [
            ("uniform", ["--t", "0.9", "--r", "0.8", "--layer-t", "0.5", "--layer-r", "0.5"]),
            ("layerwise", ["--t", "0.9", "--r", "0.8"]),
        ],
    )
    def test_plan_params_the_strategy_ignores_rejected(self, cli_env, capsys, strategy, params):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(cli_env["dir"] / "x.json")
        capsys.readouterr()
        rc = main(["plan", "--profile", prof, "--strategy", strategy, "--compression", "0.5",
                   *params, "--out", out])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"strategy '{strategy}' does not use t, r")
        assert not os.path.exists(out) and not os.path.exists(out + ".manifest")

    @pytest.mark.parametrize("strategy, field", [("uniform", "t"), ("layerwise", "r")])
    def test_plan_file_with_params_the_strategy_ignores_rejected(self, strategy, field):
        doc = io.plan_to_dict(uniform_plan(SMALL, 0.5), SMALL)
        doc["strategy"] = strategy
        doc["params"][field] = 0.5
        message = f"malformed plan: strategy '{strategy}' does not use {field};"
        with pytest.raises(FormatError, match=message):
            io.plan_from_dict(doc, SMALL)

    def test_corrupt_model_header(self, cli_env, tmp_path, capsys):
        data = open(cli_env["model"], "rb").read()
        bad = str(tmp_path / "bad.bklv")
        with open(bad, "wb") as fh:
            fh.write(b"bklv0" + data[5:])
        rc = main(["profile", "--model", bad, "--prompt", cli_env["prompt"], "--out", str(tmp_path / "p.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert "format version" in err["error"]
        assert err["error"] == f"{bad}: format version: expected 'bklv1', got 'bklv0'"

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
        plan = io.read_plan(plan_path, io.read_model_file(cli_env["model"]).config)
        assert np.all(plan.budgets == 64)

    def test_plan_noop_baklava_equals_uniform(self, cli_env):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        u, b = str(cli_env["dir"] / "u.json"), str(cli_env["dir"] / "b.json")
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", u])
        main(["plan", "--profile", prof, "--strategy", "baklava", "--compression", "0.5", "--t", "0", "--r", "0", "--out", b])
        cfg = io.read_model_file(cli_env["model"]).config
        assert io.read_plan(u, cfg).budgets.tolist() == io.read_plan(b, cfg).budgets.tolist()

    def test_plan_floor_violation_exit(self, cli_env, capsys):
        prof = str(cli_env["dir"] / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        rc = main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.01", "--out", str(cli_env["dir"] / "x.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err.strip())
        assert err["violations"]

    def test_plan_layerwise_below_the_floor_fails_as_uniform(self, cli_env, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        errors = []
        for strategy in (["uniform"], ["layerwise", "--layer-t", "0.5", "--layer-r", "0.3"]):
            capsys.readouterr()
            out = str(d / f"{strategy[0]}.json")
            rc = main(["plan", "--profile", prof, "--compression", "0.005", "--out", out,
                       "--strategy", *strategy])
            assert rc == 1 and not os.path.exists(out)
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert json.loads(errors[0])["error"] == "plan does not match this model"

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
        assert set(doc) == {
            "format_version", "loss", "perplexity", "strategy", "requested_compression",
            "achieved_compression", "memory",
        }
        assert doc["perplexity"] == math.exp(doc["loss"])
        assert doc["achieved_compression"] == doc["memory"]["achieved_compression"]
        plan = _load(plan_path)
        assert (doc["strategy"], doc["requested_compression"]) == (
            plan["strategy"], plan["requested_compression"]
        )
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

    @pytest.mark.parametrize("layer_params", [[], ["--layer-t", "0.5", "--layer-r", "0.5"]])
    def test_search_compression_below_the_floor_fails_with_the_uniform_plans_violations(
        self, cli_env, layer_params, capsys
    ):
        d = cli_env["dir"]
        prof, out = str(d / "prof.json"), str(d / "s.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        capsys.readouterr()
        assert main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.005",
                     "--out", str(d / "u.json")]) == 1
        uniform_err = capsys.readouterr().err
        rc = main(
            ["search", "--model", cli_env["model"], "--profile", prof, "--corpus", cli_env["corpus"],
             "--compression", "0.005", "--context-len", "48", "--out", out] + layer_params
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == uniform_err
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "plan does not match this model"
        assert doc["violations"] == [
            f"budget {budget} below floor 5 at layer {layer} group {group}"
            for layer, group, budget in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
        ]
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest")

    def test_search_heatmap(self, cli_env, capsys):
        d = cli_env["dir"]
        prof, out = str(d / "prof.json"), str(d / "s.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        capsys.readouterr()
        rc = main(
            ["search", "--model", cli_env["model"], "--profile", prof, "--corpus", cli_env["corpus"],
             "--compression", "0.4", "--context-len", "48", "--t-grid", "0.63,0.63,0.655",
             "--r-grid", "0.3,0.6", "--heatmap", "--out", out]
        )
        assert rc == 0
        report = _load(out)
        assert len(report["grid"]) == 6  # the duplicate t keeps its points
        loss = {(p["t"], p["r"]): p["loss"] for p in report["grid"]}
        assert len({f"{v:7.4f}" for v in loss.values()}) == 4  # a misplaced cell shows
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            f"report: {out}", f"best_t: {report['best']['t']}", f"best_r: {report['best']['r']}",
            f"best_loss: {report['best_loss']:.6f}", f"uniform_loss: {report['uniform_loss']:.6f}",
        ]
        assert lines[5:] == [
            "r\\t     0.630    0.655",
            f" 0.30  {loss[0.63, 0.3]:7.4f}  {loss[0.655, 0.3]:7.4f}",
            f" 0.60  {loss[0.63, 0.6]:7.4f}  {loss[0.655, 0.6]:7.4f}",
        ]

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

    def test_generate_prompt_file_prints_what_the_same_text_prints(
        self, cli_env, tmp_path, capsys, monkeypatch
    ):
        d = cli_env["dir"]
        prof, plan_path = str(d / "prof.json"), str(d / "plan.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan_path])
        # this model's output does not show a lost BOS, so record the prompt ids too
        prompts, generate = [], cli_module.greedy_generate
        monkeypatch.setattr(
            cli_module, "greedy_generate",
            lambda model, ids, *rest: prompts.append(list(ids)) or generate(model, ids, *rest),
        )
        # valid UTF-8, and bytes that are not, which argv holds as surrogate escapes
        for data in ("caché holds ünïcode".encode("utf-8"), b"caf\xff"):
            prompt = tmp_path / "prompt.txt"
            prompt.write_bytes(data)
            outs, prompts[:] = [], []
            for source in (["--text", os.fsdecode(data)], ["--prompt", str(prompt)]):
                capsys.readouterr()
                assert main(["generate", "--model", cli_env["model"], "--plan", plan_path, *source,
                             "--steps", "12"]) == 0
                outs.append(capsys.readouterr())
            assert outs[0] == outs[1]
            assert "generated_tokens: 12" in outs[1].out and outs[1].err == ""
            assert prompts == [[io.BOS_ID, *data]] * 2

    def test_generate_prompt_directory_is_an_io_error(self, cli_env, tmp_path, capsys):
        d = cli_env["dir"]
        prof, plan_path = str(d / "prof.json"), str(d / "plan.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "1.0", "--out", plan_path])
        capsys.readouterr()
        rc = main(["generate", "--model", cli_env["model"], "--plan", plan_path,
                   "--prompt", str(tmp_path), "--steps", "2"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err)["error"].startswith("i/o error")

    def test_manifest_checksums_match(self, cli_env):
        manifest = _load(cli_env["model"] + ".manifest")
        assert manifest["format_version"] == io.MANIFEST_VERSION
        entry = manifest["files"]["model"]
        assert entry["sha256"] == io.sha256_file(cli_env["model"])

    def test_manifest_hashes_an_input_that_out_overwrites_as_it_was_read(self, cli_env):
        # bklv plan --profile p.json --out p.json: the plan replaces the profile it read
        path = str(cli_env["dir"] / "p.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", path])
        read = io.sha256_file(path)
        assert main(["plan", "--profile", path, "--strategy", "uniform", "--compression", "0.5",
                     "--out", path]) == 0
        written = io.sha256_file(path)
        assert written != read
        assert _load(path + ".manifest")["files"] == {
            "profile": {"path": path, "sha256": read},
            "plan": {"path": path, "sha256": written},
        }

    def test_eval_manifest_lists_a_corpus_directory_in_reading_order(
        self, cli_env, tmp_path, monkeypatch
    ):
        d = cli_env["dir"]
        prof, plan_path = str(d / "prof.json"), str(d / "plan.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        main(["plan", "--profile", prof, "--strategy", "uniform", "--compression", "0.5", "--out", plan_path])
        corpus_dir = tmp_path / "corpus_dir"
        (corpus_dir / "nested").mkdir(parents=True)  # not a file: not read, not listed
        for name, seed in (("b.txt", 5), ("a.txt", 6), ("c.txt", 7)):
            _write_text(corpus_dir / name, 60, seed=seed)
        read, read_document = [], io.read_document
        monkeypatch.setattr(io, "read_document", lambda path: read.append(path) or read_document(path))
        out = str(d / "evaldir.json")
        assert main(["eval", "--model", cli_env["model"], "--plan", plan_path,
                     "--corpus", str(corpus_dir), "--corpus", cli_env["corpus"],
                     "--context-len", "48", "--out", out]) == 0
        listed = _load(out + ".manifest")["files"]["corpus"]
        assert [entry["path"] for entry in listed] == read == [
            str(corpus_dir / "a.txt"), str(corpus_dir / "b.txt"), str(corpus_dir / "c.txt"),
            cli_env["corpus"],
        ]
        assert [entry["sha256"] for entry in listed] == [io.sha256_file(path) for path in read]

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

    @pytest.mark.parametrize("grid", [["--t-grid", ""], ["--r-grid", ""]])
    def test_empty_grid_flag_is_an_empty_grid_not_the_default(self, cli_env, grid, capsys):
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
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "parameter grid is empty", "violations": []}
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest")

    @pytest.mark.parametrize(
        "grid", [["--t-grid", "0.5,,0.6"], ["--t-grid", "0.5,"], ["--t-grid", ","], ["--r-grid", ",0.3"]]
    )
    def test_an_empty_grid_entry_is_a_bad_grid_not_dropped(self, cli_env, grid, capsys):
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
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        name = grid[0][2]  # "t" or "r"
        assert json.loads(err[0]) == {
            "error": f"bad {name} grid {grid[1]!r}: could not convert string to float: ''", "violations": []
        }
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest")

    @pytest.mark.parametrize(
        "command, compression",
        [("plan", "nan"), ("search", "nan"), *(("sweep", c) for c in ("0", "-0.2", "1.5", "nan"))],
        ids=["plan", "search", "sweep-0", "sweep--0.2", "sweep-1.5", "sweep-nan"],
    )
    def test_nan_compression_rejected(self, cli_env, command, compression, capsys):
        d = cli_env["dir"]
        prof = str(d / "prof.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        out = str(d / "nan.json")
        argv = {
            "plan": ["plan", "--profile", prof, "--strategy", "baklava", "--t", "0.7", "--r", "0.3"],
            "search": ["search", "--model", cli_env["model"], "--profile", prof,
                       "--corpus", cli_env["corpus"], "--context-len", "48"],
            "sweep": ["sweep", "--model", cli_env["model"], "--corpus", cli_env["corpus"],
                      "--context-len", "48", "--window", "1"],
        }[command]
        capsys.readouterr()
        assert main(argv + [f"--compression={compression}", "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == f"compression must be in (0, 1], got {float(compression)}"
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

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_profile_with_another_config_rejected(self, cli_env, command, capsys):
        # the model's own profile, its recorded rope_theta and seed changed
        d = cli_env["dir"]
        prof, out = str(d / "prof.json"), str(d / "r.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        doc = io.read_json(prof)
        doc["config"].update(rope_theta=123.0, seed=99)
        io.write_json(prof, doc)
        extra = {
            "search": ["--compression", "0.4", "--t-grid", "0.7", "--r-grid", "0.3"],
            "sweep": ["--window", "1", "--compression", "0.5"],
        }[command]
        capsys.readouterr()
        rc = main([command, "--model", cli_env["model"], "--profile", prof, "--corpus", cli_env["corpus"],
                   "--context-len", "48", "--out", out] + extra)
        assert rc == 1
        assert capsys.readouterr().err == json.dumps({
            "error": f"{prof}: profile config differs from the model's in rope_theta, seed", "violations": []
        }) + "\n"
        assert not os.path.exists(out)

    def test_sweep_below_the_floor_fails_with_the_plan_fit_violations(self, cli_env, capsys):
        # window 3 of the default 4-layer model compresses layers 0-1 first, all 8 caches below the floor
        model = str(cli_env["dir"] / "default.bklv")
        assert main(["init-model", "--out", model, "--seed", "7"]) == 0
        out = str(cli_env["dir"] / "sweep.json")
        capsys.readouterr()
        rc = main(["sweep", "--model", model, "--corpus", cli_env["corpus"], "--context-len", "48",
                   "--window", "3", "--compression", "0.001", "--out", out])
        assert rc == 1
        violations = [
            f"budget {budget} below floor 5 at layer {layer} group {group}"
            for layer, budget in ((0, 1), (1, 0)) for group in range(4)
        ]
        assert capsys.readouterr().err == json.dumps({"error": violations[0], "violations": violations}) + "\n"
        assert not os.path.exists(out) and not os.path.exists(out + ".manifest")

    def test_sweep_without_a_window_takes_the_widest_that_fits(self, cli_env, capsys):
        # the default 4-layer model fits no window of 5, the widest default; 3 is the widest odd one that fits
        model = str(cli_env["dir"] / "default.bklv")
        assert main(["init-model", "--out", model, "--seed", "7"]) == 0
        reports = [str(cli_env["dir"] / name) for name in ("bare.json", "three.json")]
        for out, window in zip(reports, ([], ["--window", "3"])):
            assert main(["sweep", "--model", model, "--corpus", cli_env["corpus"], "--context-len", "48",
                         "--compression", "0.2", "--out", out, *window]) == 0
        assert capsys.readouterr().err == ""
        assert _load(reports[0])["window"] == 3
        assert open(reports[0], "rb").read() == open(reports[1], "rb").read()

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
        assert err["error"] == "plan does not match this model"
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
        for strategy, params in (("uniform", []), ("baklava", ["--t", "0.7", "--r", "0.3"])):
            capsys.readouterr()
            rc = main(["plan", "--profile", prof, "--strategy", strategy, "--compression", "0.5",
                       *params, "--sinks", "-1", "--out", out])
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
            ("requested_compression", "0.3", "requested_compression must be a 0-D array of JSON floats"),
            ("strategy", 7, "unknown strategy 7, expected one of ('uniform', 'layerwise', 'baklava')"),
            ("strategy", "window", "unknown strategy 'window', expected one of ('uniform', 'layerwise', 'baklava')"),
            ("params", {"t": "abc", "r": 0.0, "layer_t": 0.0, "layer_r": 0.0},
             "t must be in [0, 1], got 'abc'"),
            ("params", {"t": 0, "r": 0.0, "layer_t": 0.0, "layer_r": 0.0},
             "keys params differ from what bklv writes"),
            ("achieved_compression", 0.99, "keys achieved_compression differ from what bklv writes"),
            ("budget", 5, "keys budget differ from what bklv writes"),
        ],
        ids=["compression-str", "strategy-int", "strategy-window", "params-t-str", "params-t-int",
             "achieved-compression", "unknown-key"],
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
            io.read_plan(plan, io.read_model_file(cli_env["model"]).config)
        capsys.readouterr()
        rc = main(["eval", "--model", cli_env["model"], "--plan", plan, "--corpus", cli_env["corpus"],
                   "--context-len", "48", "--out", out])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{plan}: malformed plan: {message}"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["eval", "generate"])
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("sinks",), 2**70, f"sinks must fit int64, in [{-(2**63)}, {2**63 - 1}]"),
            (("budgets", 1, 0), -(2**70), f"budgets must fit int64, in [{-(2**63)}, {2**63 - 1}]"),
            (("requested_compression",), 10**400,
             "requested_compression must fit float64, in [-1.7976931348623157e+308, 1.7976931348623157e+308]"),
        ],
        ids=["sinks", "budget", "compression"],
    )
    def test_a_plan_number_past_its_type_names_the_field(self, cli_env, command, path, value, message, capsys):
        plan = self._uniform_plan_file(cli_env)
        doc = io.read_json(plan)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        io.write_json(plan, doc)
        extra = {
            "eval": ["--corpus", cli_env["corpus"], "--context-len", "48"],
            "generate": ["--text", "abc", "--steps", "2"],
        }[command]
        capsys.readouterr()
        assert main([command, "--model", cli_env["model"], "--plan", plan] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"{plan}: malformed plan: {message}", "violations": []}

    def test_a_json_integer_past_the_digit_limit_is_not_valid_json(self, cli_env, capsys):
        # Python's json refuses integers of more than 4300 digits with a bare ValueError
        plan = self._uniform_plan_file(cli_env)
        with open(plan) as fh:
            text = fh.read()
        with open(plan, "w") as fh:
            fh.write(text.replace('"sinks": 4', '"sinks": 1' + "0" * 5000))
        capsys.readouterr()
        rc = main(["eval", "--model", cli_env["model"], "--plan", plan, "--corpus", cli_env["corpus"],
                   "--context-len", "48"])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{plan}: not valid JSON: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("command", ["plan", "search"])
    def test_a_profile_number_past_float64_names_the_field(self, cli_env, command, capsys):
        d = cli_env["dir"]
        prof, out = str(d / "prof.json"), str(d / "out.json")
        main(["profile", "--model", cli_env["model"], "--prompt", cli_env["prompt"], "--out", prof])
        doc = io.read_json(prof)
        doc["kv_importance"][0][1] = 10**400
        io.write_json(prof, doc)
        argv = {
            "plan": ["plan", "--profile", prof, "--strategy", "uniform"],
            "search": ["search", "--model", cli_env["model"], "--profile", prof,
                       "--corpus", cli_env["corpus"], "--context-len", "48"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--compression", "0.5", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not os.path.exists(out)
        message = "kv_importance must fit float64, in [-1.7976931348623157e+308, 1.7976931348623157e+308]"
        assert json.loads(captured.err) == {"error": f"{prof}: malformed profile: {message}", "violations": []}

    def _uniform_plan_file(self, cli_env):
        """cli_env's uniform plan at 0.5: 2 layers x 2 groups x 32 = 128 tokens."""
        cfg = io.read_model_file(cli_env["model"]).config
        path = str(cli_env["dir"] / "plan.json")
        io.write_plan(uniform_plan(cfg, 0.5), cfg, path)
        return path

    @pytest.mark.parametrize(
        "command, argv, n",
        [
            ("profile", ["--prompt", "{dir}/long.txt", "--out", "{out}"], 101),
            ("generate", ["--plan", "{plan}", "--text", "abc", "--steps", "61"], 65),
            ("eval", ["--plan", "{plan}", "--corpus", "{corpus}", "--context-len", "65", "--out", "{out}"], 65),
        ],
        ids=["profile", "generate", "eval"],
    )
    def test_every_command_states_the_one_context_rule(self, cli_env, command, argv, n, capsys):
        # max_context 64: a 100-byte prompt is 101 tokens, "abc" and 61 steps are 65
        d = cli_env["dir"]
        _write_text(d / "long.txt", 100)
        names = {"dir": d, "out": d / "out.json", "plan": self._uniform_plan_file(cli_env),
                 "corpus": cli_env["corpus"]}
        capsys.readouterr()
        rc = main([command, "--model", cli_env["model"]] + [a.format(**names) for a in argv])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"context length exceeded: 0 + {n} > max_context 64", "violations": []
        }
        assert not os.path.exists(names["out"])

    @pytest.mark.parametrize("command", ["eval", "generate"])
    @pytest.mark.parametrize("width", [2**50, 2**53, 10**30])
    def test_memory_totals_are_exact(self, cli_env, command, width, capsys):
        # 2**11 bytes per element in all: in int64, 2**53 wraps to 0 and 10**30 overflows
        extra = {
            "eval": ["--corpus", cli_env["corpus"], "--context-len", "48"],
            "generate": ["--text", "abc", "--steps", "2"],
        }[command]
        plan = self._uniform_plan_file(cli_env)
        capsys.readouterr()
        rc = main([command, "--model", cli_env["model"], "--plan", plan,
                   "--bytes-per-element", str(width)] + extra)
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"total_bytes: {2 * 128 * 8 * width}" in captured.out.splitlines()

    def test_a_plan_total_that_wraps_int64_is_not_conserved(self, tmp_path, capsys):
        # 4 budgets of 2**62 + 32 sum to 2**64 + 128: int64 wraps to the conserved 256
        model = str(tmp_path / "m.bklv")
        main(["init-model", "--out", model, "--num-layers", "2", "--num-q-heads", "4",
              "--num-kv-heads", "4", "--head-dim", "8", "--d-ff", "64", "--max-context", "64"])
        cfg = io.read_model_file(model).config
        plan = str(tmp_path / "plan.json")
        io.write_plan(uniform_plan(cfg, 0.5), cfg, plan)
        doc = io.read_json(plan)
        doc["budgets"][0] = [2**62 + 32] * 4
        io.write_json(plan, doc)
        capsys.readouterr()
        rc = main(["eval", "--model", model, "--plan", plan, "--corpus", _write_text(tmp_path / "c.txt", 200)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "plan does not match this model",
            "violations": [f"budget total {2**64 + 256} does not conserve the global total 256"],
        }


@pytest.fixture(scope="module")
def scaled_files(tmp_path_factory, toy_model):
    """The seed-7 model with its embedding times 1e20, and inputs made for it.
    Every weight is finite, so the reader accepts the file, but a hidden
    state's sum of squares overflows float32 in the first RMS norm."""
    d = tmp_path_factory.mktemp("scaled")
    scaled = replace(toy_model, embedding=toy_model.embedding * np.float32(1e20))
    io.write_model_file(scaled, str(d / "model.bklv"))
    profile = profile_model(toy_model, [io.encode_bytes(b"the cache holds keys and values")])
    io.write_profile(replace(profile, model_id=model_checksum(scaled)), str(d / "profile.json"))
    io.write_plan(uniform_plan(toy_model.config, 0.3), toy_model.config, str(d / "plan.json"))
    _write_text(d / "corpus.txt", 200, seed=2)
    return d


# the flags after --model of each command that reads a model; {d} is scaled_files
_SCALED_ARGS = {
    "profile": ["--prompt", "{d}/corpus.txt", "--out", "{out}"],
    "search": ["--profile", "{d}/profile.json", "--corpus", "{d}/corpus.txt", "--compression", "0.3",
               "--context-len", "64", "--t-grid", "0.7", "--r-grid", "0.3", "--out", "{out}"],
    "eval": ["--plan", "{d}/plan.json", "--corpus", "{d}/corpus.txt", "--context-len", "64", "--out", "{out}"],
    "sweep": ["--corpus", "{d}/corpus.txt", "--window", "1", "--compression", "0.3", "--context-len", "64",
              "--profile", "{d}/profile.json", "--out", "{out}"],
    "generate": ["--plan", "{d}/plan.json", "--text", "the cache", "--steps", "3"],
}


class TestNonFiniteArithmetic:
    """Overflow or invalid arithmetic in a command is a JSON error, not a
    report of zeros with a RuntimeWarning on stderr."""

    @pytest.mark.parametrize("command", list(_SCALED_ARGS))
    def test_overflow_exits_1_with_one_json_error_and_writes_nothing(self, scaled_files, command, tmp_path, capsys):
        out = tmp_path / "out.json"
        flags = [arg.format(d=scaled_files, out=out) for arg in _SCALED_ARGS[command]]
        assert main([command, "--model", str(scaled_files / "model.bklv"), *flags]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        error = json.loads(lines[0])
        assert error["error"].startswith("non-finite arithmetic: overflow encountered") and error["violations"] == []
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # no --out file and no manifest


def _subparsers():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestInitModelFlags:
    """init-model's flags are ModelConfig's fields: its defaults are stated once."""

    def test_every_field_but_d_model_is_a_flag_with_its_type_and_default(self):
        actions = {a.dest: a for a in _subparsers()["init-model"]._actions}
        config_fields = [f for f in fields(ModelConfig) if f.name != "d_model"]
        assert sorted(actions) == sorted(["help", "out"] + [f.name for f in config_fields])
        for f in config_fields:
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert (action.type, action.default) == (f.type, f.default)

    def test_no_flags_write_the_default_model(self, tmp_path, capsys):
        out = str(tmp_path / "m.bklv")
        assert main(["init-model", "--out", out]) == 0
        checksum = model_checksum(init_model(ModelConfig()))
        assert model_checksum(io.read_model_file(out)) == checksum
        assert f"checksum: {checksum}" in capsys.readouterr().out.splitlines()

    def test_plan_strategy_choices_are_the_strategies(self):
        strategy = next(a for a in _subparsers()["plan"]._actions if a.dest == "strategy")
        assert tuple(strategy.choices) == STRATEGIES


def test_a_flag_several_commands_take_is_the_same_flag_in_each():
    """--out, --profile, --prompt and --heatmap mean different things in
    different commands; every other flag more than one command accepts has
    one type, default, requiredness, help and action in all of them."""
    per_command = {"--out", "--profile", "--prompt", "--heatmap"}
    taken = {}
    for command, parser in _subparsers().items():
        for action in parser._actions:
            for flag in set(action.option_strings) - per_command:
                taken.setdefault(flag, {})[command] = action
    shared = {flag: actions for flag, actions in taken.items() if len(actions) > 1}
    assert {
        "--model", "--corpus", "--context-len", "--plan", "--bytes-per-element",
        "--compression", "--sinks", "--layer-t", "--layer-r",
    } <= set(shared)
    for flag, actions in shared.items():
        described = {(type(a), a.type, a.default, a.required, a.help) for a in actions.values()}
        assert len(described) == 1, (flag, sorted(actions))
