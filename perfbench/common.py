"""Inputs, environment pinning and small statistics shared by the workloads."""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
MODEL_SEED = 7
COMPRESSION = 0.3
CONTEXT_LEN = 256
BAKLAVA_T, BAKLAVA_R = 0.7, 0.6

# The README's seeded word sampler, verbatim.
WORDS = [b'the', b'cache', b'holds', b'keys', b'and', b'values', b'for', b'each',
         b'head', b'token', b'budget', b'memory', b'long', b'context', b'model', b'layer']


def text(n, seed):
    r = np.random.default_rng(seed)
    out, size = [], 0
    while size < n:
        w = WORDS[int(r.integers(0, len(WORDS)))]
        out.append(w); size += len(w) + 1
    return b' '.join(out)


def readme_texts(seed: int) -> dict[str, bytes]:
    """The walkthrough's three files; seed 0 gives the README's own seeds 1, 2, 3."""
    return {
        "prompt_a.txt": text(260, 3 * seed + 1),
        "prompt_b.txt": text(200, 3 * seed + 2),
        "corpus.txt": text(1100, 3 * seed + 3),
    }


def op_text_seed(seed: int, op: int, stream: int) -> int:
    """A text seed per (workload seed, op, stream) that no README file uses."""
    return 1_000_000 * (stream + 1) + 1_000 * seed + op


def median(values) -> float:
    return float(statistics.median(values))


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile p among n samples, in exact integer arithmetic."""
    permille = round(p * 10)
    return max(1, -(-permille * n // 1000))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def supported_percentile(n: int, candidates=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """Highest candidate percentile that leaves at least ten samples beyond it."""
    for p in candidates:
        if n - _rank(p, n) >= 10:
            return p
    return None


# --- machine speed ------------------------------------------------------------
# The shared host under the benchmark changes speed by up to a third within
# seconds and over minutes, on identical work and with no CPU steal, which
# no run length averages away. The in-process workloads therefore time a
# fixed probe of small numpy ops (the kind a decode step is made of, none of
# them from bklv) right after every op, and report op times at the probe's
# nominal speed: each op's seconds times nominal / its probe's seconds.

PROBE_NOMINAL_S = 0.075  # the probe's median on the VM of the README's results
PROBE_ITERS = 2500
_probe_rng = np.random.default_rng(12345)
_PROBE_W = _probe_rng.standard_normal((64, 64)).astype(np.float32)
_PROBE_Q = _probe_rng.standard_normal((8, 64)).astype(np.float32)
_PROBE_K = _probe_rng.standard_normal((200, 64)).astype(np.float32)


def speed_probe() -> float:
    """Seconds the fixed probe takes now."""
    keys, acc = _PROBE_K, 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        q = _PROBE_Q @ _PROBE_W
        scores = q @ keys.T
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        keys = np.concatenate([keys[1:], q[:1]])
        acc += float(scores[0, 0])
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise SystemExit("perfbench: the speed probe computed a non-finite value")
    return seconds


class Speed:
    """The probe times of one run."""

    def __init__(self):
        self.probes: list[float] = []

    def factor(self) -> float:
        """Probe now, right after an op; the factor that brings the op to nominal speed."""
        self.probes.append(speed_probe())
        return PROBE_NOMINAL_S / self.probes[-1]

    def info(self) -> dict:
        return {"probe_median_s": median(self.probes), "probes": len(self.probes),
                "nominal_s": PROBE_NOMINAL_S}


def require_checkout() -> None:
    """Fail before measuring when the checkout holds no program to run."""
    if not (SRC / "bklv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bklv package under {SRC}; run from a full checkout")


# One BLAS thread in children. With two, a command's wall time also waits
# on the host's second vCPU: on a 2-vCPU VM, ten sessions spread 0.09 to
# 0.15 across runs, against 0.06 with one thread, at the same median. The
# in-process workloads keep numpy's default, so a BLAS-thread gain shows.
CHILD_BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    """Environment for `python -m bklv` children: the checkout's source, no fan-out."""
    env = dict(os.environ)
    env.pop("BKLV_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = CHILD_BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def import_bklv():
    """Import the checkout's bklv in this process and check which file it came from."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("BKLV_THREADS", None)
    import bklv
    import bklv.io  # noqa: F401  (the byte tokenizer; the package does not import it)

    check_bklv_file(bklv.__file__)
    return bklv


def check_bklv_file(path: str) -> None:
    expected = (SRC / "bklv" / "__init__.py").resolve()
    if Path(path).resolve() != expected:
        raise SystemExit(f"perfbench: imported bklv from {path}, expected {expected}")


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bklv; "
    "print(repr(time.perf_counter() - t)); print(bklv.__file__)"
)


def fresh_import() -> tuple[float, float]:
    """(wall seconds of a fresh interpreter importing bklv, import seconds inside it)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stderr:
        raise SystemExit(f"perfbench: importing bklv failed: {proc.stderr.strip()}")
    import_s, path = proc.stdout.split("\n")[:2]
    check_bklv_file(path)
    return wall, float(import_s)


def run_child(argv: list[str], cwd: Path) -> tuple[float, int, str, str, float]:
    """Run one child to completion: (wall s, exit code, stdout, stderr, peak RSS MB)."""
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(seed: int) -> dict:
    """What the numbers were measured on; printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "text_seeds": [3 * seed + 1, 3 * seed + 2, 3 * seed + 3],
        "bklv_threads_env": "removed",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "child_openblas_num_threads": CHILD_BLAS_THREADS,
    }


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)
