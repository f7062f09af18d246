"""The README's CLI walkthrough, run in-process through `cli.main` on the
files it generates: the comparison table, the point `search` selects, the
sweep's correlations and both plans' budget matrices, as the commands
print and write them. The bytes of search.json and sweep.json are not
pinned: a change of float32 rounding may move their losses' last bits.
Every manifest the walkthrough writes is checked against the files its
command's flags name and the bytes on disk."""

import hashlib
import json
from unittest import mock

import numpy as np

from bklv import ModelConfig, build_cache_set, chunked_perplexity, cli, forward_chunk, init_model, io, reset
from bklv import cache as cache_module
from bklv.allocation import AllocationPlan, PlanParams
from bklv.cli import main

from .reference import readme_text, reference_budgeted_logits

UNIFORM_BUDGETS = [[154, 154, 154, 153], [154, 154, 154, 153], [154, 154, 153, 153], [154, 154, 153, 153]]
# t=0.7, r=0.6 moves 92 tokens from group 1 to group 0 of layer 0 only
BAKLAVA_BUDGETS = [[246, 62, 154, 153], *UNIFORM_BUDGETS[1:]]
# each --out's manifest: role -> the path its flag names, a list for the
# repeatable --corpus and --prompt (the eval commands have no --out)
MANIFEST_FILES = {
    "model.bklv": {"model": "model.bklv"},
    "profile.json": {"model": "model.bklv", "prompt": ["prompt_a.txt", "prompt_b.txt"],
                     "profile": "profile.json"},
    "uniform.json": {"profile": "profile.json", "plan": "uniform.json"},
    "search.json": {"model": "model.bklv", "profile": "profile.json", "corpus": ["corpus.txt"],
                    "report": "search.json"},
    "baklava.json": {"profile": "profile.json", "plan": "baklava.json"},
    "sweep.json": {"model": "model.bklv", "corpus": ["corpus.txt"], "profile": "profile.json",
                   "report": "sweep.json"},
}


def _run(capsys, *argv) -> dict:
    """Run one command; its stdout's `key: value` lines, which it must print
    with nothing on stderr."""
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return dict(line.split(": ", 1) for line in captured.out.splitlines() if ": " in line)


def test_the_walkthrough_prints_the_readme_numbers(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, (size, seed) in {
        "prompt_a.txt": (260, 1), "prompt_b.txt": (200, 2), "corpus.txt": (1100, 3),
    }.items():
        (tmp_path / name).write_bytes(readme_text(size, seed))
    model, corpus = ["--model", "model.bklv"], ["--corpus", "corpus.txt", "--context-len", "256"]

    _run(capsys, "init-model", "--out", "model.bklv", "--seed", "7")
    _run(capsys, "profile", *model, "--prompt", "prompt_a.txt", "--prompt", "prompt_b.txt",
         "--out", "profile.json")
    _run(capsys, "plan", "--profile", "profile.json", "--strategy", "uniform",
         "--compression", "0.3", "--out", "uniform.json")
    search = _run(capsys, "search", *model, "--profile", "profile.json", *corpus,
                  "--compression", "0.3", "--t-grid", "0,0.5,0.7,0.9", "--r-grid", "0,0.3,0.6",
                  "--out", "search.json", "--heatmap")
    assert (search["best_t"], search["best_r"]) == ("0.7", "0.6")
    assert (search["best_loss"], search["uniform_loss"]) == ("5.600353", "5.601348")
    _run(capsys, "plan", "--profile", "profile.json", "--strategy", "baklava",
         "--compression", "0.3", "--t", "0.7", "--r", "0.6", "--out", "baklava.json")

    # the README's table, in its row order: uniform, then baklava
    table = []
    for plan in ("uniform.json", "baklava.json"):
        report = _run(capsys, "eval", *model, "--plan", plan, *corpus)
        table.append((report["loss"], f"{float(report['perplexity']):.3f}"))
    assert table == [("5.601348", "270.791"), ("5.600353", "270.522")]

    sweep = _run(capsys, "sweep", *model, *corpus, "--window", "3", "--compression", "0.2",
                 "--profile", "profile.json", "--out", "sweep.json")
    assert (sweep["correlation_full"], sweep["correlation_trimmed"]) == ("0.8000", "1.0000")
    # stdout need not show a lost BOS or byte, so check the ids the model is given
    prompts, generate = [], cli.greedy_generate
    monkeypatch.setattr(
        cli, "greedy_generate",
        lambda model, ids, *rest: prompts.append(list(ids)) or generate(model, ids, *rest),
    )
    generated = _run(capsys, "generate", *model, "--plan", "uniform.json",
                     "--text", "the cache holds", "--steps", "16")
    assert generated["generated_tokens"] == "16"
    assert prompts == [[256, *b"the cache holds"]]

    for name, budgets in (("uniform.json", UNIFORM_BUDGETS), ("baklava.json", BAKLAVA_BUDGETS)):
        plan = json.loads((tmp_path / name).read_bytes())
        assert (plan["budgets"], plan["sinks"]) == (budgets, 4), name

    def entry(path):
        return {"path": path, "sha256": hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()}

    assert sorted(p.name for p in tmp_path.glob("*.manifest")) == sorted(
        out + ".manifest" for out in MANIFEST_FILES
    )
    for out, files in MANIFEST_FILES.items():
        manifest = json.loads((tmp_path / (out + ".manifest")).read_bytes())
        assert manifest["files"] == {
            role: [entry(p) for p in path] if isinstance(path, list) else entry(path)
            for role, path in files.items()
        }, out
    # the profile is bound to the model file: its model_id is the file's sha256
    model_file = json.loads((tmp_path / "model.bklv.manifest").read_bytes())["files"]["model"]
    assert json.loads((tmp_path / "profile.json").read_bytes())["model_id"] == model_file["sha256"]


def test_chunked_losses_equal_one_token_per_forward_chunk_call():
    """perfbench's stepped-loss check in tier 1: on the README corpus at
    model seed 7, chunked_perplexity under the README's uniform and
    baklava (t=0.7, r=0.6) plans is within 1e-6 of the loss from one token
    per forward_chunk call, from empty caches for each chunk of 256. The
    oracle's loss is its own: float64 log-sum-exp by np.logaddexp, sharing
    no code with the evaluator."""
    model = init_model(ModelConfig(seed=7))
    corpus = np.asarray(io.encode_bytes(readme_text(1100, 3)))
    for budgets in (UNIFORM_BUDGETS, BAKLAVA_BUDGETS):
        plan = AllocationPlan(0.3, 4, np.array(budgets), "custom", PlanParams())
        caches, losses = build_cache_set(plan, model.config), []
        for start in range(0, corpus.size - 255, 256):
            chunk = corpus[start : start + 256]
            reset(caches)
            logits = np.concatenate([forward_chunk(model, chunk[j : j + 1], caches)[0] for j in range(255)])
            x = logits.astype(np.float64)
            losses.append(np.mean(np.logaddexp.reduce(x, axis=1) - x[np.arange(255), chunk[1:]]))
        assert abs(chunked_perplexity(model, corpus, 256, plan) - np.mean(losses)) <= 1e-6


def test_readme_chunks_take_the_bounded_softmax_and_decode_steps_never_ask():
    """On the README corpus at model seed 7, every (layer call, KV group)
    of chunked_perplexity's banded pass is within SCORE_BOUND under both
    README plans, so perfbench's chunked-eval measures the bounded path.
    A prefill asks once per layer; single-token steps never ask."""
    model = init_model(ModelConfig(seed=7))
    corpus = np.asarray(io.encode_bytes(readme_text(1100, 3)))
    decisions, bounded = [], cache_module._bounded

    def recorded(*args):
        decisions.append(bounded(*args))
        return decisions[-1]

    with mock.patch.object(cache_module, "_bounded", recorded):
        for budgets in (UNIFORM_BUDGETS, BAKLAVA_BUDGETS):
            plan = AllocationPlan(0.3, 4, np.array(budgets), "custom", PlanParams())
            chunked_perplexity(model, corpus, 256, plan)
            caches = build_cache_set(plan, model.config)
            forward_chunk(model, corpus[:128], caches)
            for token in corpus[128:160]:
                forward_chunk(model, [token], caches)
    # per plan, one batched call per layer for the 4 chunks (4 x 4 groups), then the prefill's
    assert [d.shape for d in decisions] == ([(16,)] * 4 + [(4,)] * 4) * 2
    assert all(d.all() for d in decisions)


def test_the_readme_model_decodes_the_budgeted_oracles_logits():
    """The walkthrough model decodes the same byte on every step, so
    generate's stdout cannot show a decode fault; its logits can. At model
    seed 7 under the README baklava plan (budgets 62 to 246, 4 sinks), a
    160-token prefill of prompt_a.txt, then 40 greedy steps: every logit is
    within 1e-5 of the stepping oracle's. By the 200th token every cache
    but the budget-246 one has evicted."""
    model = init_model(ModelConfig(seed=7))
    plan = AllocationPlan(0.3, 4, np.array(BAKLAVA_BUDGETS), "custom", PlanParams())
    caches = build_cache_set(plan, model.config)
    tokens = io.encode_bytes(readme_text(260, 1))[:160]
    logits = [forward_chunk(model, tokens, caches)[0]]
    for _ in range(40):
        tokens.append(int(np.argmax(logits[-1][-1])))
        logits.append(forward_chunk(model, tokens[-1:], caches)[0])
    expected, _ = reference_budgeted_logits(model, tokens, BAKLAVA_BUDGETS, 4)
    np.testing.assert_allclose(np.concatenate(logits), expected, rtol=0, atol=1e-5)
