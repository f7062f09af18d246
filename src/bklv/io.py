"""File formats, corpus ingestion, and run manifests.

All structured artifacts are JSON with sorted keys and two-space indent,
written atomically (temp file then rename), so identical inputs produce
byte-identical files. Each document carries a format_version field.
"""

import json
import os
import time
from dataclasses import asdict, fields

import numpy as np

from .allocation import AllocationPlan, PlanParams, require_valid
from .config import ModelConfig
from .errors import FormatError, InputError
from .model import Model, canonical_chunks, deserialize_model, sha256_hex
from .profiling import ImportanceProfile

BOS_ID = 256

PROFILE_VERSION = "bklv-profile-v1"
PLAN_VERSION = "bklv-plan-v1"
SEARCH_VERSION = "bklv-search-v1"
SWEEP_VERSION = "bklv-sweep-v1"
EVAL_VERSION = "bklv-eval-v1"
MANIFEST_VERSION = "bklv-manifest-v1"


# ---------------------------------------------------------------------------
# byte-level tokenizer: ids 0..255 are raw bytes, 256 is BOS

def encode_bytes(data: bytes) -> list[int]:
    return [BOS_ID, *data]


def decode_ids(ids) -> bytes:
    return bytes(int(i) for i in ids if int(i) < 256)


def read_document(path: str) -> list[int]:
    """One file's raw bytes as a BOS-prefixed document of token ids. Every
    input file (corpus, prompt) is read here; an unreadable path raises OSError."""
    with open(path, "rb") as fh:
        return encode_bytes(fh.read())


def corpus_files(paths: list[str]) -> list[str]:
    """The files that `paths` name, in reading order: a directory expands to
    the files directly in it, in sorted name order; any other path stays."""
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
    return files


def load_corpus(paths: list[str]) -> np.ndarray:
    """corpus_files(paths), one document per file (read_document), as one int64
    array of token ids. Nothing found raises InputError; an unreadable path, OSError."""
    files = corpus_files(paths)
    if not files:
        raise InputError("corpus is empty: no files found")
    return np.asarray([i for fname in files for i in read_document(fname)], dtype=np.int64)


# ---------------------------------------------------------------------------
# low-level helpers

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(iter(lambda: fh.read(1 << 20), b""))  # 1 MiB blocks: no input is held whole


def atomic_write_bytes(path: str, data) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.writelines([data] if isinstance(data, bytes) else data)  # bytes, or bytes-like chunks
    os.replace(tmp, path)


def dump_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path: str, obj) -> None:
    atomic_write_bytes(path, dump_json(obj))


def read_json(path: str) -> dict:
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _require(doc, path: str, version: str) -> None:
    got = doc.get("format_version") if isinstance(doc, dict) else None
    if got != version:
        raise FormatError(f"{path}: format_version {got!r}, expected {version!r}")


# Field readers raise ValueError; the document readers add the file name.

def _convert(value, dtype, name: str, ndim: int) -> np.ndarray:
    """`value` as an ndim-D dtype array, if that array writes back the same JSON:
    154.9, true, "0.3" or [4] for an integer, or 1 for a float, name the field;
    a number past the dtype's range names the field and the range."""
    try:
        arr = np.asarray(value, dtype=object).astype(dtype)
        same = arr.ndim == ndim and dump_json(arr.tolist()) == dump_json(value)
    except OverflowError:
        info = np.iinfo(dtype) if dtype is np.int64 else np.finfo(dtype)
        raise ValueError(f"{name} must fit {dtype.__name__}, in [{info.min}, {info.max}]") from None
    except (TypeError, ValueError):
        same = False
    if not same:
        kind = "integer" if dtype is np.int64 else "float"
        raise ValueError(f"{name} must be a {ndim}-D array of JSON {kind}s")
    return arr


def _finite(value, name: str, shape: tuple) -> np.ndarray:
    """Finite JSON floats in an array of `shape` (None: any length)."""
    arr = _convert(value, np.float64, name, len(shape))
    if any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{name} must be a {shape} array, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite values")
    return arr


def _as_written(doc: dict, written: dict, path: str, what: str) -> None:
    """FormatError naming every top-level key, unknown or missing ones included,
    where `doc` is not `written` (what the writer writes for what it holds)."""
    differ = [
        key for key in sorted(doc.keys() | written.keys())
        if key not in doc or key not in written or dump_json(doc[key]) != dump_json(written[key])
    ]
    if differ:
        raise FormatError(f"{path}: malformed {what}: keys {', '.join(differ)} differ from what bklv writes")


# ---------------------------------------------------------------------------
# weight file

def write_model_file(model: Model, path: str) -> None:
    atomic_write_bytes(path, canonical_chunks(model))  # serialize_model's bytes, never joined


def read_model_file(path: str) -> Model:
    """The model in a weight file; each FormatError names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return deserialize_model(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# importance profile

def profile_to_dict(profile: ImportanceProfile) -> dict:
    doc = {
        "format_version": PROFILE_VERSION,
        "model_id": profile.model_id,
        "prompt_ids": profile.prompt_ids,
        "config": {f.name: f.type(getattr(profile.config, f.name)) for f in fields(ModelConfig)},
        "head_similarity": profile.head_similarity.tolist(),
        "kv_importance": profile.kv_importance.tolist(),
        "layer_importance": profile.layer_importance.tolist(),
        "per_token_similarity": (
            None
            if profile.per_token_similarity is None
            else [m.tolist() for m in profile.per_token_similarity]
        ),
    }
    if profile.prompt_consistency is not None:  # carried, never read
        doc["prompt_consistency"] = profile.prompt_consistency
    return doc


def profile_from_dict(doc: dict, path: str = "<memory>") -> ImportanceProfile:
    """The profile `doc` holds, if `doc` is what profile_to_dict writes for it."""
    _require(doc, path, PROFILE_VERSION)
    try:
        config = ModelConfig(**doc["config"])
        config.validate()
        layers, q, kv = config.num_layers, config.num_q_heads, config.num_kv_heads
        per_token = doc["per_token_similarity"]
        profile = ImportanceProfile(
            model_id=str(doc["model_id"]),
            prompt_ids=[str(i) for i in doc["prompt_ids"]],
            head_similarity=_finite(doc["head_similarity"], "head_similarity", (layers, q)),
            kv_importance=_finite(doc["kv_importance"], "kv_importance", (layers, kv)),
            layer_importance=_finite(doc["layer_importance"], "layer_importance", (layers,)),
            config=config,
            per_token_similarity=None if per_token is None else [
                _finite(m, "per_token_similarity", (layers, None, q)) for m in per_token
            ],
            prompt_consistency=doc.get("prompt_consistency"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed profile: {exc}") from exc
    _as_written(doc, profile_to_dict(profile), path, "profile")
    return profile


def write_profile(profile: ImportanceProfile, path: str) -> None:
    write_json(path, profile_to_dict(profile))


def read_profile(path: str) -> ImportanceProfile:
    return profile_from_dict(read_json(path), path)


# ---------------------------------------------------------------------------
# allocation plan

def plan_to_dict(plan: AllocationPlan, config: ModelConfig) -> dict:
    return {
        "format_version": PLAN_VERSION,
        "strategy": plan.strategy,
        "requested_compression": float(plan.compression_ratio),
        "achieved_compression": plan.achieved_compression(config),
        "sinks": plan.sinks,
        "params": {name: float(v) for name, v in asdict(plan.params).items()},
        "budgets": plan.budgets.tolist(),
    }


def plan_from_dict(doc: dict, config: ModelConfig, path: str = "<memory>") -> AllocationPlan:
    """The plan `doc` holds, if it fits `config` (require_valid) and is what plan_to_dict writes."""
    _require(doc, path, PLAN_VERSION)
    try:
        strategy, params = doc["strategy"], PlanParams(**doc["params"])
        params.check_for(strategy)
        compression = _convert(doc["requested_compression"], np.float64, "requested_compression", 0)
        sinks = _convert(doc["sinks"], np.int64, "sinks", 0)
        budgets = _convert(doc["budgets"], np.int64, "budgets", 2)
        plan = AllocationPlan(float(compression), int(sinks), budgets, strategy, params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed plan: {exc}") from exc
    require_valid(plan, config)
    _as_written(doc, plan_to_dict(plan, config), path, "plan")
    return plan


def write_plan(plan: AllocationPlan, config: ModelConfig, path: str) -> None:
    write_json(path, plan_to_dict(plan, config))


def read_plan(path: str, config: ModelConfig) -> AllocationPlan:
    return plan_from_dict(read_json(path), config, path)


# ---------------------------------------------------------------------------
# run manifest

def file_entries(files: dict[str, str | list[str]]) -> dict:
    """Each file's path and checksum by role, taken now. A role given a list
    of paths (the repeatable corpus and prompt) gets one entry per file,
    with directories expanded as load_corpus expands them (corpus_files)."""

    def entry(fpath: str) -> dict:
        return {"path": fpath, "sha256": sha256_file(fpath)}

    return {
        role: entry(p) if isinstance(p, str) else [entry(f) for f in corpus_files(p)]
        for role, p in files.items()
    }


def write_manifest(path: str, command: list[str], files: dict) -> None:
    """Record what a command read and wrote, file_entries taken by the
    caller (inputs before the command runs, outputs after), plus a timestamp."""
    doc = {"format_version": MANIFEST_VERSION, "command": list(command), "created_unix": time.time()}
    write_json(path, {**doc, "files": files})
