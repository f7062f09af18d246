"""The `cli-session` workload: the README walkthrough, command by command.

Each command runs as `python -m bklv` in a fresh interpreter, one after
another (a closed loop with one client). One op is one command; a pass is
the nine commands. This is the only workload that pays interpreter
start-up, `import bklv`, file io and profiling on every command.
"""

import json
import shutil
import sys
import time

from perfbench import tracer
from perfbench.common import (
    BAKLAVA_R, BAKLAVA_T, COMPRESSION, CONTEXT_LEN, DEFAULT_SEED, MODEL_SEED, ROOT, WORK,
    fresh_import, median, readme_texts, run_child,
)

BOOTSTRAP = ROOT / "perfbench" / "bootstrap.py"
T_GRID, R_GRID = "0,0.5,0.7,0.9", "0,0.3,0.6"
GRID_POINTS = 12

STEPS = [
    ("init-model", ["init-model", "--out", "model.bklv", "--seed", str(MODEL_SEED)]),
    ("profile", ["profile", "--model", "model.bklv", "--prompt", "prompt_a.txt",
                 "--prompt", "prompt_b.txt", "--out", "profile.json"]),
    ("plan-uniform", ["plan", "--profile", "profile.json", "--strategy", "uniform",
                      "--compression", str(COMPRESSION), "--out", "uniform.json"]),
    ("search", ["search", "--model", "model.bklv", "--profile", "profile.json",
                "--corpus", "corpus.txt", "--compression", str(COMPRESSION),
                "--context-len", str(CONTEXT_LEN), "--t-grid", T_GRID, "--r-grid", R_GRID,
                "--out", "search.json", "--heatmap"]),
    ("plan-baklava", ["plan", "--profile", "profile.json", "--strategy", "baklava",
                      "--compression", str(COMPRESSION), "--t", str(BAKLAVA_T),
                      "--r", str(BAKLAVA_R), "--out", "baklava.json"]),
    ("eval-baklava", ["eval", "--model", "model.bklv", "--plan", "baklava.json",
                      "--corpus", "corpus.txt", "--context-len", str(CONTEXT_LEN)]),
    ("eval-uniform", ["eval", "--model", "model.bklv", "--plan", "uniform.json",
                      "--corpus", "corpus.txt", "--context-len", str(CONTEXT_LEN)]),
    ("sweep", ["sweep", "--model", "model.bklv", "--corpus", "corpus.txt", "--window", "3",
               "--compression", "0.2", "--context-len", str(CONTEXT_LEN),
               "--profile", "profile.json", "--out", "sweep.json"]),
    ("generate", ["generate", "--model", "model.bklv", "--plan", "uniform.json",
                  "--text", "the cache holds", "--steps", "16"]),
]
STEP_NAMES = [name for name, _ in STEPS]

# The steps that score the corpus, with how many chunked evaluations each
# asks for: the search grid plus its uniform reference, one per eval, and
# one per sweep center (one per layer of the default 4-layer model).
SCORING = {"search": GRID_POINTS + 1, "eval-baklava": 1, "eval-uniform": 1, "sweep": 4}

# README values at the default seed.
README_UNIFORM, README_BAKLAVA = "5.601348", "5.600353"
README_CORRELATIONS = ("0.8000", "1.0000")

EXPECTED_TARGETS = [f"{layer}.{f}" for layer, fs in tracer.TARGETS.items() for f in fs] + ["io"]


def _write_inputs(work, seed) -> None:
    for name, data in readme_texts(seed).items():
        (work / name).write_bytes(data)


def _fresh_dir(name):
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _run_pass(work, traced: bool) -> list[dict]:
    results = []
    for step, args in STEPS:
        spans_file = work / f"{step}.spans.json"
        if traced:
            argv = [sys.executable, str(BOOTSTRAP), str(spans_file), "--", *args]
        else:
            argv = [sys.executable, "-m", "bklv", *args]
        wall, code, out, err, rss = run_child(argv, work)
        results.append({"step": step, "wall": wall, "code": code, "stdout": out,
                        "stderr": err, "rss": rss, "spans": spans_file if traced else None})
    return results


def _field(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line.split(": ", 1)[1].strip()
    return None


def _check_pass(results, work, seed, model_checksum) -> dict[str, str]:
    """Step name -> reason, for every command whose output is wrong."""
    bad = {}
    by_step = {r["step"]: r for r in results}
    for r in results:
        if r["code"] != 0 or r["stderr"]:
            bad[r["step"]] = f"exit {r['code']}, stderr {r['stderr'][:200]!r}"
    default = seed == DEFAULT_SEED

    def expect(step, ok, why):
        if not ok and step not in bad:
            bad[step] = why

    expect("init-model", _field(by_step["init-model"]["stdout"], "checksum") == model_checksum,
           "model checksum differs from init_model(ModelConfig(seed=7))")
    try:
        report = json.loads((work / "search.json").read_text())
        grid = {(p["t"], p["r"]): p["loss"] for p in report["grid"]}
        uniform, chosen = report["uniform_loss"], grid[(BAKLAVA_T, BAKLAVA_R)]
    except (OSError, ValueError, KeyError) as exc:
        bad.setdefault("search", f"unreadable search report: {exc}")
        return bad
    expect("search", grid.get((0.0, 0.0)) == uniform, "grid point (0, 0) != uniform_loss bit for bit")
    if default:
        best = report["best"] or {}
        expect("search", (best.get("t"), best.get("r")) == (BAKLAVA_T, BAKLAVA_R),
               f"best {best} is not the README's (0.7, 0.6)")
    for step, loss, readme in (("eval-baklava", chosen, README_BAKLAVA),
                               ("eval-uniform", uniform, README_UNIFORM)):
        printed = _field(by_step[step]["stdout"], "loss")
        expect(step, printed == f"{loss:.6f}", f"loss {printed} != search's {loss:.6f}")
        if default:
            expect(step, printed == readme, f"loss {printed} != README {readme}")
    if default:
        sweep = by_step["sweep"]["stdout"]
        got = (_field(sweep, "correlation_full"), _field(sweep, "correlation_trimmed"))
        expect("sweep", got == README_CORRELATIONS, f"correlations {got} != README {README_CORRELATIONS}")
    expect("generate", _field(by_step["generate"]["stdout"], "generated_tokens") == "16",
           "generate did not report 16 tokens")
    return bad


def _scored_tokens(seed) -> int:
    corpus_tokens = len(readme_texts(seed)["corpus.txt"]) + 1  # BOS
    return (corpus_tokens // CONTEXT_LEN) * (CONTEXT_LEN - 1) * sum(SCORING.values())


def run(bklv, seed: int, seconds: float, trace: bool, setup_reps: int, log) -> dict:
    cfg = bklv.ModelConfig(seed=MODEL_SEED)
    model_checksum = bklv.model_checksum(bklv.init_model(cfg))
    num_caches = cfg.num_layers * cfg.num_kv_heads

    # Set-up: a fresh interpreter that imports the checkout's bklv (the pin
    # check), then writing the walkthrough's input files.
    setup, import_s = [], []
    for _ in range(setup_reps):
        wall, inner = fresh_import()
        work = _fresh_dir("cli-session-setup")
        t0 = time.perf_counter()
        _write_inputs(work, seed)
        setup.append(wall + time.perf_counter() - t0)
        import_s.append(inner)

    passes, failed_msgs, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        work = _fresh_dir(f"cli-session-{len(passes)}")
        _write_inputs(work, seed)
        t0 = time.perf_counter()
        results = _run_pass(work, traced=False)
        pass_wall = time.perf_counter() - t0
        bad = _check_pass(results, work, seed, model_checksum)
        attempted += len(results)
        failed += len(bad)
        failed_msgs += [f"pass {len(passes)} {k}: {v}" for k, v in bad.items()]
        passes.append((pass_wall, results))

    walls = {step: [] for step in STEP_NAMES}
    for _, results in passes:
        for r in results:
            walls[r["step"]].append(r["wall"])
    scored = _scored_tokens(seed)
    metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": max(r["rss"] for _, results in passes for r in results),
        "session_s": median(w for w, _ in passes),
        "tok_s": median(
            scored / sum(r["wall"] for r in results if r["step"] in SCORING)
            for _, results in passes
        ),
    }
    out = {"metrics": metrics, "attempted": attempted, "failed": failed,
           "problems": failed_msgs, "samples": {"passes": len(passes), "setup_reps": setup_reps}}
    if trace:
        out["layers"] = _traced(seed, model_checksum, num_caches, passes, walls, import_s, out, log)
    return out


def _traced(seed, model_checksum, num_caches, passes, walls, import_s, out, log) -> dict:
    """Two traced passes: layer metrics from the first, counters compared with the second."""
    summaries, traced_walls, uncovered, traced_total = [], [], 0.0, 0.0
    for k in range(2):
        work = _fresh_dir(f"cli-session-traced{k}")
        _write_inputs(work, seed)
        t0 = time.perf_counter()
        results = _run_pass(work, traced=True)
        traced_walls.append(time.perf_counter() - t0)
        bad = _check_pass(results, work, seed, model_checksum)
        out["attempted"] += len(results)
        out["failed"] += len(bad)
        out["problems"] += [f"traced pass {k} {s}: {v}" for s, v in bad.items()]
        dumps = {}

        def load(results=results, dumps=dumps):
            for r in results:
                if not r["spans"].is_file():
                    continue
                lines = r["spans"].read_text().splitlines()
                dumps[r["step"]] = json.loads(lines[1])["dump_s"]
                yield json.loads(lines[0])

        summary = tracer.summarize(load(), num_caches)
        summaries.append(summary)
        if k == 0:
            traced_total = sum(r["wall"] - dumps.get(r["step"], 0.0) for r in results)
            uncovered = traced_total - summary.covered_s
        log(f"cli-session traced pass {k}: {traced_walls[-1]:.2f} s")

    first, second = summaries
    drift = [k for k in tracer.DETERMINISTIC if first.metrics[k] != second.metrics[k]]
    if drift:
        out["failed"] += 1
        out["problems"].append(f"deterministic counters differ between traced passes: {drift}")
    layers = dict(first.metrics)
    for step in STEP_NAMES:
        layers[f"cli.{step}.wall_s"] = median(walls[step])
    layers["cli.import_s"] = median(import_s)
    layers["search.points_s"] = GRID_POINTS / median(walls["search"])
    layers["trace.overhead_frac"] = traced_walls[0] / median(w for w, _ in passes) - 1.0
    layers["trace.unattributed_frac"] = uncovered / traced_total
    unused = tracer.unused_targets(first, EXPECTED_TARGETS)
    layers["trace.targets_missing"] = len(unused)
    out["unused_targets"] = unused
    return layers
