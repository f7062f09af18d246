"""The in-process workloads: `chunked-eval` and `decode`.

Both are closed loops with one client, the model is ModelConfig(seed=7),
and both run the uniform plan and the baklava t=0.7 r=0.6 plan, each at
compression 0.3, built during set-up from a profile of the README prompts.

- chunked-eval: one op is one `chunked_perplexity` call at context 256 on
  a seeded corpus the size of the README's. A pass evaluates one fresh
  corpus under both plans, so no op repeats an earlier (plan, corpus).
- decode: one op is one request, a seeded 128-token prompt and 384 greedy
  steps, which fills max_context 512. The steps go through the public
  `forward_chunk` exactly as `greedy_generate` does, so the prefill and
  each step are timed from outside. A pass is one request per plan.
"""

import math
import time

import numpy as np

from perfbench import tracer
from perfbench.common import (
    BAKLAVA_R, BAKLAVA_T, COMPRESSION, CONTEXT_LEN, DEFAULT_SEED, MODEL_SEED,
    Speed, fresh_import, median, op_text_seed, percentile, readme_texts, self_peak_rss_mb,
    supported_percentile, text,
)

PLANS = ("uniform", "baklava")
PROMPT_TOKENS, DECODE_STEPS = 128, 384
README_LOSSES = {"uniform": "5.601348", "baklava": "5.600353"}  # default seed, README corpus
STEPPING_TOL = 1e-5  # float32 logits, batched versus single-token segments

EXPECTED_TARGETS = {
    "chunked-eval": ["cache.append_and_evict", "cache.attend_with_cache", "model.forward_chunk",
                     "model.rope_rotate", "model.rms_norm", "search.chunked_perplexity"],
    "decode": ["cache.append_and_evict", "cache.attend_with_cache", "model.forward_chunk",
               "model.rope_rotate", "model.rms_norm"],
}


class Lab:
    """Model, plans and inputs of one in-process run."""

    def __init__(self, bklv, seed: int):
        self.bklv, self.seed = bklv, seed
        self.model = bklv.init_model(bklv.ModelConfig(seed=MODEL_SEED))
        cfg = self.model.config
        texts = readme_texts(seed)
        prompts = [bklv.io.encode_bytes(texts["prompt_a.txt"]),
                   bklv.io.encode_bytes(texts["prompt_b.txt"])]
        profile = bklv.profile_model(self.model, prompts)
        self.plans = {
            "uniform": bklv.uniform_plan(cfg, COMPRESSION),
            "baklava": bklv.build_plan(profile, cfg, "baklava", COMPRESSION,
                                       bklv.PlanParams(t=BAKLAVA_T, r=BAKLAVA_R)),
        }
        self.num_caches = cfg.num_layers * cfg.num_kv_heads
        self.first_corpus = self.corpus(0)
        self.first_prompt = self.prompt(0)

    def corpus(self, i: int) -> np.ndarray:
        """Pass 0 uses the walkthrough's corpus file; later passes fresh ones."""
        data = readme_texts(self.seed)["corpus.txt"] if i == 0 else text(1100, op_text_seed(self.seed, i, 0))
        return np.asarray(self.bklv.io.encode_bytes(data), dtype=np.int64)

    def prompt(self, i: int) -> np.ndarray:
        data = text(PROMPT_TOKENS - 1, op_text_seed(self.seed, i, 1))[: PROMPT_TOKENS - 1]
        return np.asarray(self.bklv.io.encode_bytes(data), dtype=np.int64)


def setup(bklv, seed: int, reps: int) -> tuple[Lab, float, list[float]]:
    """Median set-up over `reps`: a fresh interpreter's import plus the lab."""
    imports, inner, labs = [], [], []
    for _ in range(reps):
        wall, import_s = fresh_import()
        imports.append(wall)
        inner.append(import_s)
        t0 = time.perf_counter()
        lab = Lab(bklv, seed)
        labs.append(time.perf_counter() - t0)
    return lab, median(imports) + median(labs), inner


# --- chunked-eval -----------------------------------------------------------

def _eval_pass(lab: Lab, corpus: np.ndarray, speed: Speed) -> list[tuple[str, float, float, float]]:
    """(plan, loss, seconds, speed factor) per op."""
    ops = []
    for name in PLANS:
        t0 = time.perf_counter()
        loss = lab.bklv.chunked_perplexity(lab.model, corpus, CONTEXT_LEN, lab.plans[name])
        seconds = time.perf_counter() - t0
        ops.append((name, loss, seconds, speed.factor()))
    return ops


def _stepped_loss(lab: Lab, corpus: np.ndarray, plan) -> float:
    """Teacher-forced loss with every token its own forward_chunk call."""
    bklv = lab.bklv
    caches = bklv.build_cache_set(plan, lab.model.config)
    losses = []
    for start in range(0, corpus.size - CONTEXT_LEN + 1, CONTEXT_LEN):
        chunk = corpus[start : start + CONTEXT_LEN]
        bklv.reset(caches)
        logits = np.concatenate(
            [bklv.forward_chunk(lab.model, chunk[j : j + 1], caches)[0] for j in range(chunk.size - 1)]
        ).astype(np.float64)
        peak = logits.max(axis=1, keepdims=True)
        log_probs = logits - peak - np.log(np.exp(logits - peak).sum(axis=1, keepdims=True))
        losses.append(-log_probs[np.arange(chunk.size - 1), chunk[1:]].mean())
    return float(np.mean(losses))


def _eval_tokens(corpus_size: int) -> int:
    return (corpus_size // CONTEXT_LEN) * (CONTEXT_LEN - 1)


def chunked_eval(lab: Lab, seconds: float, problems: list, speed: Speed) -> dict:
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        i = len(passes)
        corpus = lab.corpus(i)
        ops = _eval_pass(lab, corpus, speed)
        attempted += len(ops)
        for name, loss, _, _ in ops:
            if not math.isfinite(loss):
                failed += 1
                problems.append(f"pass {i} {name}: loss {loss}")
        passes.append((corpus.size, ops))

    if lab.seed == DEFAULT_SEED:
        for name, loss, _, _ in passes[0][1]:
            if f"{loss:.6f}" != README_LOSSES[name]:
                failed += 1
                problems.append(f"README corpus {name}: loss {loss:.6f} != {README_LOSSES[name]}")
    last = len(passes) - 1
    corpus = lab.corpus(last)
    for name, loss, _, _ in passes[last][1]:
        stepped = _stepped_loss(lab, corpus, lab.plans[name])
        if not abs(stepped - loss) <= STEPPING_TOL:
            failed += 1
            problems.append(f"pass {last} {name}: chunked {loss!r} vs stepped {stepped!r}")

    tokens = [len(PLANS) * _eval_tokens(size) for size, _ in passes]
    raw = [sum(t for _, _, t, _ in ops) for _, ops in passes]
    scaled = [sum(t * f for _, _, t, f in ops) for _, ops in passes]
    return {
        "attempted": attempted, "failed": failed,
        "session_s": median(scaled),
        "tok_s": median(n / s for n, s in zip(tokens, scaled)),
        "unscaled": {"session_s": median(raw), "tok_s": median(n / s for n, s in zip(tokens, raw))},
        "samples": {"passes": len(passes), "ops": attempted},
    }


# --- decode -----------------------------------------------------------------

def _request(lab: Lab, prompt: np.ndarray, plan) -> tuple[list[int], float, list[float], object]:
    """Prefill then DECODE_STEPS greedy steps, mirroring greedy_generate."""
    bklv = lab.bklv
    caches = bklv.build_cache_set(plan, lab.model.config)
    t0 = time.perf_counter()
    logits, _ = bklv.forward_chunk(lab.model, prompt, caches)
    next_id = int(np.argmax(logits[-1]))
    ttft = time.perf_counter() - t0
    ids, steps = [next_id], []
    for k in range(DECODE_STEPS):
        t0 = time.perf_counter()
        logits, _ = bklv.forward_chunk(lab.model, [next_id], caches)
        if k + 1 < DECODE_STEPS:
            next_id = int(np.argmax(logits[-1]))
            ids.append(next_id)
        steps.append(time.perf_counter() - t0)
    return ids, ttft, steps, caches


def _cache_problems(caches) -> list[str]:
    bad = []
    for cache in caches.all_caches():
        if cache.retained > cache.budget:
            bad.append(f"retained {cache.retained} > budget {cache.budget}")
        if not np.array_equal(cache.positions[: cache.sinks], np.arange(cache.sinks)):
            bad.append(f"sink positions lost: {cache.positions[: cache.sinks].tolist()}")
    return bad


def decode(lab: Lab, seconds: float, problems: list, speed: Speed) -> dict:
    passes, failed = [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        i, ops = len(passes), []
        prompt = lab.prompt(i)
        for name in PLANS:
            ids, ttft, steps, caches = _request(lab, prompt, lab.plans[name])
            factor = speed.factor()
            bad = _cache_problems(caches)
            if bad:
                failed += 1
                problems.append(f"pass {i} {name}: {bad[:3]}")
            ops.append((name, ttft, steps, ids, factor))
        passes.append(ops)
    # The first and last passes' ids must equal greedy_generate's, checked untimed.
    for i in sorted({0, len(passes) - 1}):
        for name, _, _, ids, _ in passes[i]:
            caches = lab.bklv.build_cache_set(lab.plans[name], lab.model.config)
            if lab.bklv.greedy_generate(lab.model, lab.prompt(i), DECODE_STEPS, caches) != ids:
                failed += 1
                problems.append(f"pass {i} {name}: ids differ from greedy_generate")

    steps = [s for ops in passes for _, _, st, _, _ in ops for s in st]
    ttft = {name: [t for ops in passes for n, t, _, _, _ in ops if n == name] for name in PLANS}
    generated = len(PLANS) * DECODE_STEPS

    def summary(scaled: bool) -> dict:
        """Pass seconds and step rate, each request at nominal speed if `scaled`."""
        def k(factor):
            return factor if scaled else 1.0
        pass_s = [sum((t + sum(st)) * k(f) for _, t, st, _, f in ops) for ops in passes]
        step_s = [sum(sum(st) * k(f) for _, _, st, _, f in ops) for ops in passes]
        return {"session_s": median(pass_s), "tok_s": median(generated / s for s in step_s)}

    return {
        "attempted": len(PLANS) * len(passes), "failed": failed,
        **summary(scaled=True), "unscaled": summary(scaled=False),
        "layers": {
            "model.decode_step_ms.p50": 1e3 * median(steps),
            "model.decode_step_ms.p99": 1e3 * percentile(steps, 99.0),
            "model.ttft_ms.uniform.p50": 1e3 * median(ttft["uniform"]),
            "model.ttft_ms.baklava.p50": 1e3 * median(ttft["baklava"]),
        },
        "samples": {"passes": len(passes), "requests": len(PLANS) * len(passes),
                    "steps": len(steps), "ttft_per_plan": len(passes),
                    "highest_supported_step_percentile": supported_percentile(len(steps))},
    }


# --- traced passes ------------------------------------------------------------

def _fixed_pass(lab: Lab, workload: str, t) -> float:
    """Both plans on pass-0 inputs; returns the summed op wall time."""
    total = 0.0
    for op, name in enumerate(PLANS):
        if t is not None:
            t.op_id = op
        t0 = time.perf_counter()
        if workload == "chunked-eval":
            lab.bklv.chunked_perplexity(lab.model, lab.first_corpus, CONTEXT_LEN, lab.plans[name])
        else:
            _request(lab, lab.first_prompt, lab.plans[name])
        total += time.perf_counter() - t0
    return total


def traced(lab: Lab, workload: str, out: dict) -> dict:
    """Two traced passes on pass-0 inputs, each after an untraced one.

    Layer metrics come from the first traced pass, the overhead from the
    first pair, and the deterministic counters of the two traced passes
    must be equal.
    """
    summaries, walls = [], []
    for _ in range(2):
        plain = _fixed_pass(lab, workload, None)
        t = tracer.Tracer()
        t.install()
        try:
            wall = _fixed_pass(lab, workload, t)
        finally:
            t.uninstall()
        summaries.append(tracer.summarize([t.export()], lab.num_caches))
        walls.append((plain, wall))

    first, second = summaries
    drift = [k for k in tracer.DETERMINISTIC if first.metrics[k] != second.metrics[k]]
    if drift:
        out["failed"] += 1
        out["problems"].append(f"deterministic counters differ between traced passes: {drift}")
    plain, wall = walls[0]
    layers = dict(first.metrics)
    layers["trace.overhead_frac"] = wall / plain - 1.0
    layers["trace.unattributed_frac"] = 1.0 - first.covered_s / wall
    unused = tracer.unused_targets(first, EXPECTED_TARGETS[workload])
    layers["trace.targets_missing"] = len(unused)
    out["unused_targets"] = unused
    return layers


def run(bklv, workload: str, seed: int, seconds: float, trace: bool, setup_reps: int) -> dict:
    lab, setup_s, import_s = setup(bklv, seed, setup_reps)
    speed = Speed()
    problems: list[str] = []
    body = (chunked_eval if workload == "chunked-eval" else decode)(lab, seconds, problems, speed)
    out = {
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": self_peak_rss_mb(),
            "session_s": body["session_s"],
            "tok_s": body["tok_s"],
        },
        "unscaled": body["unscaled"], "speed": speed.info(),
        "attempted": body["attempted"], "failed": body["failed"], "problems": problems,
        "samples": dict(body["samples"], setup_reps=setup_reps),
    }
    if trace:
        layers = traced(lab, workload, out)
        layers.update(body.get("layers", {}))
        layers["cli.import_s"] = median(import_s)
        out["layers"] = layers
    return out
