"""Mutation gate: every mutant of the program must fail the tier-1 suite.

A mutant is (name, file, old text, new text). For each one the runner copies
the repository into a temporary directory, replaces the one occurrence of the
old text in the copy's file, and runs

    python -m pytest -x -q -p no:cacheprovider tests perfbench

in the copy, one mutant at a time. The suite failing kills the mutant. A
mutant that passes survives; the runner then exits 1, as it does when
pytest stops with an error of its own. A mutant named in EQUIVALENT, with
the written reason it cannot change what the program computes, must
survive instead: killing it exits 1 too, as the reason is then wrong. A
mutant whose old text does not occur exactly once raises ValueError. The
working tree is only read.

Run from anywhere: python mutants/run.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests", "perfbench"]
_LEFT_OUT = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work", "*.egg-info")

MUTANTS = [
    (  # the token step rotates q and k by the previous position's rows
        "rope-previous-position",
        "src/bklv/model.py",
        "store.caches, position))",
        "store.caches, max(position - 1, 0)))",
    ),
    (  # the token attends over its layer's store as it stood before its own row
        "attend-before-append",
        "src/bklv/model.py",
        "attend_with_cache(store, _token_qkv(",
        "attend_with_cache(__import__('copy').deepcopy(store), _token_qkv(",
    ),
    (  # both steps' heads reach attn_out leading axis reversed: KV groups for a token, query heads for a chunk
        "heads-in-the-wrong-order",
        "src/bklv/model.py",
        "heads.swapaxes(-3, -2)",
        "heads[::-1].swapaxes(-3, -2)",
    ),
    (  # the token step writes each layer's output into a copy of its row, so every layer's output is lost
        "token-row-not-updated",
        "src/bklv/model.py",
        "store.caches, position)), h)",
        "store.caches, position)), h.copy())",
    ),
    (  # forward_layer runs one token, or a chunk into stores that hold tokens
        "layer-guard-deleted",
        "src/bklv/model.py",
        "    if n < 2 or any(store.seen):\n        raise InputError(",
        "    if False:\n        raise InputError(",
    ),
    (  # the check before any append compares only the cache count, so a narrow store fails after earlier layers append
        "cache-check-without-head-width",
        "src/bklv/model.py",
        " or store.keys.shape[1] != cfg.head_dim:",
        ":",
    ),
    (  # both steps' MLP reads the layer's input, not the residual stream after attention
        "mlp-skips-the-residual",
        "src/bklv/model.py",
        "out += _silu(rms_norm(out, layer.norm2)",
        "out += _silu(rms_norm(x, layer.norm2)",
    ),
    (  # rms_norm drops its epsilon, on the one-row path and the array path alike
        "rms-norm-without-epsilon",
        "src/bklv/model.py",
        "np.float32(x.shape[-1]) + _EPS32)",
        "np.float32(x.shape[-1]))",
    ),
    (  # SiLU clamps its input at -80, not at the largest float32 whose exp is finite
        "silu-clamped-at-80",
        "src/bklv/model.py",
        "_EXP_MAX = np.float32(88.72283)",
        "_EXP_MAX = np.float32(80.0)",
    ),
    (  # a budget clamped to the tokens a cache will see may fall to the sinks, or below
        "clamp-without-sink-floor",
        "src/bklv/cache.py",
        "min(b, max(tokens, sinks + 1))",
        "min(b, tokens)",
    ),
    (  # a one-row append past the sinks writes one ring slot too far
        "ring-slot-off-by-one",
        "src/bklv/cache.py",
        "else sinks + (seen - sinks) % (budget - sinks)",
        "else sinks + (seen - sinks + 1) % (budget - sinks)",
    ),
    (  # the banded pass takes exp without the row max wherever the scores are bounded, however long the rows
        "bounded-without-growth-test",
        "src/bklv/cache.py",
        "return (bound <= SCORE_BOUND) & (growth < float(np.finfo(np.float32).max) / 2)",
        "return bound <= SCORE_BOUND",
    ),
    (  # the last sink reaches only as far back as a window token
        "sink-reach-off-by-one",
        "src/bklv/cache.py",
        "np.where(positions < sinks, _NO_REACH",
        "np.where(positions < sinks - 1, _NO_REACH",
    ),
    (  # the score bound's exp skips the row max where e**-bound is no longer a normal float32
        "score-bound-88",
        "src/bklv/cache.py",
        "SCORE_BOUND = 80.0",
        "SCORE_BOUND = 88.0",
    ),
    (  # a score bound of exactly SCORE_BOUND takes the shifted softmax
        "score-bound-strict",
        "src/bklv/cache.py",
        "(bound <= SCORE_BOUND)",
        "(bound < SCORE_BOUND)",
    ),
    (  # search's best is the last grid point with the minimum loss, not the first
        "best-takes-the-last-tie",
        "src/bklv/search.py",
        "best = min(points, key=",
        "best = min(points[::-1], key=",
    ),
    (  # the report counts a corpus's partial last chunk, which no loss scores
        "chunks-evaluated-counts-the-partial-chunk",
        "src/bklv/search.py",
        '"chunks_evaluated": len(corpus_tokens) // context_len,',
        '"chunks_evaluated": -(-len(corpus_tokens) // context_len),',
    ),
]

# mutants that must survive, each with the reason it cannot change what the program computes
EQUIVALENT = {
    "score-bound-strict": (
        "the two exp paths part only where a group's score bound, a float64 product of norms, equals 80.0 "
        "exactly; both are correct there (e**80 times the rows stays finite and e**-80 is a normal float32), "
        "so the choice of path is free, and the suite's own exact cases all sit on one side of it"
    ),
}


def mutate(root: Path, file: str, old: str, new: str) -> None:
    """Replace the one occurrence of `old` in root/file with `new`."""
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file}: the old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def run_mutant(file: str, old: str, new: str) -> int:
    """pytest's exit code over a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="bklv-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_LEFT_OUT)
        mutate(copy, file, old, new)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        return subprocess.run([sys.executable, *SUITE], cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    wrong = []
    for name, file, old, new in MUTANTS:
        start = time.perf_counter()
        code = run_mutant(file, old, new)
        verdict = {0: "survived", 1: "killed"}.get(code, f"pytest error, exit code {code}")
        expected = "survived" if name in EQUIVALENT else "killed"
        note = "" if verdict == expected else f", expected {expected}"
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s{note})", flush=True)
        if note:
            wrong.append(name)
    if wrong:
        print(f"not as expected: {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
