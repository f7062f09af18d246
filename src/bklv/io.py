"""File formats, corpus ingestion, and run manifests.

All structured artifacts are JSON with sorted keys and two-space indent,
written atomically (temp file then rename), so identical inputs produce
byte-identical files. Each document carries a format_version field.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .allocation import STRATEGIES, AllocationPlan, PlanParams
from .config import ModelConfig
from .errors import FormatError, InputError
from .model import Model, deserialize_model, serialize_model
from .profiling import ImportanceProfile
from .search import CorrelationReport, SearchReport, SweepReport

BOS_ID = 256

PROFILE_VERSION = "bklv-profile-v1"
PLAN_VERSION = "bklv-plan-v1"
SEARCH_VERSION = "bklv-search-v1"
SWEEP_VERSION = "bklv-sweep-v1"
EVAL_VERSION = "bklv-eval-v1"
MANIFEST_VERSION = "bklv-manifest-v1"
PLAN_STRATEGIES = (*STRATEGIES, "window")  # build_plan's strategies and window_plan's


# ---------------------------------------------------------------------------
# byte-level tokenizer: ids 0..255 are raw bytes, 256 is BOS

def encode_bytes(data: bytes) -> list[int]:
    return [BOS_ID, *data]


def decode_ids(ids) -> bytes:
    return bytes(int(i) for i in ids if int(i) < 256)


@dataclass
class Corpus:
    sources: list[str]
    token_ids: np.ndarray  # int64, BOS-prefixed per document
    boundaries: list[int]  # start offset of each document


def load_corpus(paths: list[str], vocab_size: int = 257) -> Corpus:
    """Read plain files as raw bytes, one document per file, BOS-prefixed.

    Directories expand to their files in sorted name order.
    """
    if vocab_size < BOS_ID + 1:
        raise InputError(
            f"byte-level corpus needs vocab_size >= {BOS_ID + 1}, got {vocab_size}"
        )
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if os.path.isfile(os.path.join(path, name))
            )
        else:
            files.append(path)
    if not files:
        raise InputError("corpus is empty: no files found")
    ids: list[int] = []
    boundaries: list[int] = []
    for fname in files:
        with open(fname, "rb") as fh:
            data = fh.read()
        boundaries.append(len(ids))
        ids.extend(encode_bytes(data))
    return Corpus(files, np.asarray(ids, dtype=np.int64), boundaries)


# ---------------------------------------------------------------------------
# low-level helpers

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def dump_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path: str, obj) -> None:
    atomic_write_bytes(path, dump_json(obj))


def read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _require(doc, path: str, version: str) -> None:
    got = doc.get("format_version") if isinstance(doc, dict) else None
    if got != version:
        raise FormatError(f"{path}: format_version {got!r}, expected {version!r}")


# Field readers raise ValueError; the document readers add the file name.

def _finite(value, name: str, shape: tuple) -> np.ndarray:
    """Finite JSON numbers in an array of `shape` (None: any length);
    booleans are rejected."""
    arr = np.asarray(value, dtype=object)
    fits = arr.ndim == len(shape) and all(n in (None, m) for n, m in zip(shape, arr.shape))
    if not fits or not all(type(v) in (int, float) for v in arr.flat):
        raise ValueError(f"{name} must be a {shape} array of numbers")
    arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite values")
    return arr


def _integers(value, name: str, ndim: int) -> np.ndarray:
    """ndim-D JSON integers: floats such as 154.9 and booleans are rejected."""
    arr = np.asarray(value, dtype=object)
    if arr.ndim != ndim or not all(type(v) is int for v in arr.flat):
        raise ValueError(f"{name} must be a {ndim}-D array of integers")
    return arr.astype(np.int64)


def _fields(cls, value, name: str):
    """A cls dataclass from a JSON object that gives each of its fields."""
    obj = cls(**value)
    if value.keys() != asdict(obj).keys():
        raise ValueError(f"{name} must give every field of {cls.__name__}")
    return obj


# ---------------------------------------------------------------------------
# weight file

def write_model_file(model: Model, path: str) -> None:
    atomic_write_bytes(path, serialize_model(model))


def read_model_file(path: str) -> Model:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


# ---------------------------------------------------------------------------
# importance profile

def profile_to_dict(profile: ImportanceProfile, extra: dict | None = None) -> dict:
    doc = {
        "format_version": PROFILE_VERSION,
        "model_id": profile.model_id,
        "prompt_ids": profile.prompt_ids,
        "config": asdict(profile.config),
        "head_similarity": profile.head_similarity.tolist(),
        "kv_importance": profile.kv_importance.tolist(),
        "layer_importance": profile.layer_importance.tolist(),
        "per_token_similarity": (
            None
            if profile.per_token_similarity is None
            else [m.tolist() for m in profile.per_token_similarity]
        ),
    }
    if extra:
        doc.update(extra)
    return doc


def profile_from_dict(doc: dict, path: str = "<memory>") -> ImportanceProfile:
    _require(doc, path, PROFILE_VERSION)
    try:
        config = _fields(ModelConfig, doc["config"], "config")
        config.validate()
        model_id, ids, per_token = doc["model_id"], doc["prompt_ids"], doc["per_token_similarity"]
        strings = type(ids) is list and all(type(i) is str for i in ids)
        if type(model_id) is not str or not strings:
            raise ValueError("model_id must be a string and prompt_ids a list of strings")
        layers, q, kv = config.num_layers, config.num_q_heads, config.num_kv_heads
        return ImportanceProfile(
            model_id=model_id,
            prompt_ids=ids,
            head_similarity=_finite(doc["head_similarity"], "head_similarity", (layers, q)),
            kv_importance=_finite(doc["kv_importance"], "kv_importance", (layers, kv)),
            layer_importance=_finite(doc["layer_importance"], "layer_importance", (layers,)),
            config=config,
            per_token_similarity=None if per_token is None else [
                _finite(m, "per_token_similarity", (layers, None, q)) for m in per_token
            ],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed profile: {exc}") from exc


def write_profile(profile: ImportanceProfile, path: str, extra: dict | None = None) -> None:
    write_json(path, profile_to_dict(profile, extra))


def read_profile(path: str) -> ImportanceProfile:
    return profile_from_dict(read_json(path), path)


# ---------------------------------------------------------------------------
# allocation plan

def plan_to_dict(plan: AllocationPlan, config: ModelConfig) -> dict:
    return {
        "format_version": PLAN_VERSION,
        "strategy": plan.strategy,
        "requested_compression": plan.compression_ratio,
        "achieved_compression": plan.achieved_compression(config),
        "sinks": plan.sinks,
        "params": asdict(plan.params),
        "budgets": plan.budgets.tolist(),
    }


def plan_from_dict(doc: dict, path: str = "<memory>") -> AllocationPlan:
    _require(doc, path, PLAN_VERSION)
    try:
        strategy = doc["strategy"]
        if strategy not in PLAN_STRATEGIES:
            raise ValueError(f"strategy must be one of {PLAN_STRATEGIES}, got {strategy!r}")
        params = _fields(PlanParams, doc["params"], "params")
        params.validate()
        compression = doc["requested_compression"]
        if type(compression) not in (int, float):  # bool and str are not numbers
            raise ValueError(f"requested_compression must be a number, got {compression!r}")
        return AllocationPlan(
            compression_ratio=float(compression),
            sinks=int(_integers(doc["sinks"], "sinks", 0)),
            budgets=_integers(doc["budgets"], "budgets", 2),
            strategy=strategy,
            params=params,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed plan: {exc}") from exc


def write_plan(plan: AllocationPlan, config: ModelConfig, path: str) -> None:
    write_json(path, plan_to_dict(plan, config))


def read_plan(path: str) -> AllocationPlan:
    return plan_from_dict(read_json(path), path)


# ---------------------------------------------------------------------------
# search report

def search_report_to_dict(report: SearchReport) -> dict:
    return {
        "format_version": SEARCH_VERSION,
        "compression": report.compression,
        "grid": [
            {
                "t": p.t,
                "r": p.r,
                "loss": None if not p.feasible else p.loss,
                "feasible": p.feasible,
            }
            for p in report.grid
        ],
        "best": None if report.best is None else {"t": report.best[0], "r": report.best[1]},
        "best_loss": report.best_loss,
        "uniform_loss": report.uniform_loss,
        "chunks_evaluated": report.chunks_evaluated,
        "tokens_per_chunk": report.tokens_per_chunk,
        "sinks": report.sinks,
        "layer_t": report.layer_t,
        "layer_r": report.layer_r,
    }


def write_search_report(report: SearchReport, path: str) -> None:
    write_json(path, search_report_to_dict(report))


# ---------------------------------------------------------------------------
# sweep report

def sweep_report_to_dict(report: SweepReport, correlation: CorrelationReport | None = None) -> dict:
    doc = {
        "format_version": SWEEP_VERSION,
        "window": report.window,
        "compression": report.compression,
        "scores": report.scores,
        "bounds": [list(b) for b in report.bounds],
        "correlation": None,
    }
    if correlation is not None:
        doc["correlation"] = asdict(correlation)
    return doc


def write_sweep_report(
    report: SweepReport, path: str, correlation: CorrelationReport | None = None
) -> None:
    write_json(path, sweep_report_to_dict(report, correlation))


# ---------------------------------------------------------------------------
# eval report

def eval_report_to_dict(
    loss: float, memory: dict, plan: AllocationPlan, config: ModelConfig
) -> dict:
    """`memory` is the plan's memory_report."""
    return {
        "format_version": EVAL_VERSION,
        "loss": loss,
        "perplexity": math.exp(loss),
        "strategy": plan.strategy,
        "requested_compression": plan.compression_ratio,
        "achieved_compression": plan.achieved_compression(config),
        "memory": memory,
    }


# ---------------------------------------------------------------------------
# run manifest

def write_manifest(path: str, command: list[str], files: dict[str, str]) -> None:
    """Record what a command produced: every referenced file's checksum at
    write time plus a timestamp."""
    doc = {
        "format_version": MANIFEST_VERSION,
        "command": list(command),
        "created_unix": time.time(),
        "files": {
            role: {"path": fpath, "sha256": sha256_file(fpath)}
            for role, fpath in files.items()
        },
    }
    write_json(path, doc)
