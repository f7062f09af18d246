"""Mutation gate: every mutant of the program must fail the tier-1 suite.

A mutant is (name, file, old text, new text). For each one the runner copies
the repository into a temporary directory, replaces the one occurrence of the
old text in the copy's file, and runs

    python -m pytest -x -q -p no:cacheprovider tests perfbench

in the copy, one mutant at a time. The suite failing kills the mutant. A
mutant that passes survives; the runner then exits 1, as it does when
pytest stops with an error of its own. A mutant whose old text does not
occur exactly once raises ValueError. The working tree is only read.

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
        "_rope_rows(cfg.rope_theta, cfg.head_dim, position, 1)",
        "_rope_rows(cfg.rope_theta, cfg.head_dim, max(position - 1, 0), 1)",
    ),
    (  # the token attends over its layer's store as it stood before its own row
        "attend-before-append",
        "src/bklv/model.py",
        "attend_with_cache(store, _token_qkv(",
        "attend_with_cache(__import__('copy').deepcopy(store), _token_qkv(",
    ),
    (  # the token's heads reach attn_out group-major
        "heads-in-the-wrong-order",
        "src/bklv/model.py",
        "x = x + heads.reshape(-1) @ layer.attn_out",
        "x = x + heads.swapaxes(0, 1).reshape(-1) @ layer.attn_out",
    ),
    (  # forward_layer runs one token, or a chunk into stores that hold tokens
        "layer-guard-deleted",
        "src/bklv/model.py",
        "    if n < 2 or any(store.seen):\n        raise InputError(",
        "    if False:\n        raise InputError(",
    ),
]


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
    not_killed = []
    for name, file, old, new in MUTANTS:
        start = time.perf_counter()
        code = run_mutant(file, old, new)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest error, exit code {code}")
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        if code != 1:
            not_killed.append(name)
    if not_killed:
        print(f"not killed: {', '.join(not_killed)}", file=sys.stderr)
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
