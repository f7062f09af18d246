"""Deterministic decoder-only transformer with grouped-query attention
and rotary positions.

Architecture per layer (pre-norm): RMS norm -> GQA attention -> residual,
RMS norm -> SiLU MLP -> residual; a final RMS norm feeds an output
projection tied to the token embedding. All computation is float32.

Weight initialization scheme (fixed; same seed gives bit-identical
weights): a single numpy default_rng(seed) stream draws every projection
matrix and the embedding as normal(mean 0, std 0.02) float64 values in
C order, cast to float32. Draw order: embedding, then per layer
attn_q, attn_k, attn_v, attn_out, mlp_in, mlp_out. Normalization gains
are ones and are not drawn from the stream. In memory, attn_q, attn_k and
attn_v are column views of one packed [q | k | v] array, LayerWeights.qkv.

Rotary convention: head vectors are split in halves (x1, x2); position p
rotates pair j by angle p * theta**(-2j/head_dim). Rotation is applied to
Q and K before caching; evicted stores keep original absolute positions
(no re-rotation).
"""

import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .cache import CacheSet, LayerStore, append_and_evict, attend_with_cache, banded_attention
from .config import ModelConfig
from .errors import ConfigError, FormatError, InputError, ShapeError

RMS_EPS = 1e-5
_EPS32 = np.float32(RMS_EPS)
_EXP_MAX = np.float32(88.72283)  # the largest float32 whose exp is finite
WEIGHT_STD = 0.02
WEIGHT_FORMAT_VERSION = "bklv1"


@dataclass
class LayerWeights:
    attn_q: np.ndarray  # (d_model, num_q_heads * head_dim)
    attn_k: np.ndarray  # (d_model, num_kv_heads * head_dim)
    attn_v: np.ndarray  # (d_model, num_kv_heads * head_dim)
    attn_out: np.ndarray  # (num_q_heads * head_dim, d_model)
    mlp_in: np.ndarray  # (d_model, d_ff)
    mlp_out: np.ndarray  # (d_ff, d_model)
    norm1: np.ndarray  # (d_model,)
    norm2: np.ndarray  # (d_model,)

    def __post_init__(self):
        q, k, v = self.attn_q, self.attn_k, self.attn_v
        self.qkv = np.concatenate([q, k, v], axis=1, dtype=np.float32)  # no field: fields() are the file's tensors
        self.attn_q, self.attn_k, self.attn_v = np.split(self.qkv, [q.shape[1], -v.shape[1]], axis=1)


@dataclass
class Model:
    """Immutable after construction; safe to share across readers."""

    config: ModelConfig
    embedding: np.ndarray  # (vocab_size, d_model); output projection is its transpose
    layers: list[LayerWeights]
    final_norm: np.ndarray  # (d_model,)


def _canonical_shapes(cfg: ModelConfig) -> list[tuple[int, ...]]:
    """Every tensor's shape, in the order of _canonical_tensors."""
    return [(cfg.vocab_size, cfg.d_model), *cfg.layer_shapes() * cfg.num_layers, (cfg.d_model,)]


def _assemble(cfg: ModelConfig, tensors) -> Model:
    """The model of the canonical tensors (_canonical_tensors) that `tensors` yields, one layer at a time."""
    tensors, n = iter(tensors), len(fields(LayerWeights))
    embedding, layers = next(tensors), [LayerWeights(*islice(tensors, n)) for _ in range(cfg.num_layers)]
    return Model(cfg, embedding, layers, next(tensors))


def init_model(config: ModelConfig) -> Model:
    """Build a model with weights generated by the documented scheme: one
    default_rng(seed) stream draws every matrix (2-D tensor) in canonical
    order, and the gains (1-D) are ones."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    return _assemble(config, (
        rng.normal(0.0, WEIGHT_STD, size=shape).astype(np.float32)
        if len(shape) == 2 else np.ones(shape, dtype=np.float32)
        for shape in _canonical_shapes(config)
    ))


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """x * gain / sqrt(mean(x**2) + RMS_EPS) over the last axis, in float32;
    the mean is np.mean's own sum reduction, then division by the count.
    One row, (width,) as the token step passes or (1, width) as output_logits
    passes one token's, takes the same float32 steps on a np.float32 scalar."""
    if x.size == x.shape[-1]:
        total = np.add.reduce(np.square(x), None)
    else:
        total = np.add.reduce(np.square(x), -1, keepdims=True)
    return x * (1.0 / np.sqrt(total / np.float32(x.shape[-1]) + _EPS32)) * gain


def _silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), in one temporary, after clamping x, a temporary of
    the caller's, in place from below at -_EXP_MAX, so exp(-x) stays finite
    and warns nothing: a value below that (-inf too) gives -2.6e-37, NaN
    stays NaN, and every other value is the unclamped formula's bit for bit."""
    np.maximum(x, -_EXP_MAX, out=x)
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t)


_ROPE_TABLES: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}


def _rope_rows(
    theta: float, head_dim: int, start: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """float32 factor rows [cos, cos] and [-sin, sin], (n, 1, head_dim), of
    positions start..start+n-1: slices of tables memoized per (theta,
    head_dim) and grown by doubling when the range is past their end."""
    key = (theta, head_dim)
    tables = _ROPE_TABLES.get(key)
    if tables is None or start + n > len(tables[0]):
        size = start + n if tables is None else max(start + n, 2 * len(tables[0]))
        half = head_dim // 2
        inv_freq = theta ** (-2.0 * np.arange(half, dtype=np.float64) / head_dim)
        angles = np.arange(size, dtype=np.float64)[:, None] * inv_freq[None, :]
        cos, sin = (f(angles).astype(np.float32)[:, None] for f in (np.cos, np.sin))
        tables = np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)
        _ROPE_TABLES[key] = tables
    return tables[0][start : start + n], tables[1][start : start + n]


def rope_rotate(x: np.ndarray, start: int, theta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate per-head vectors by their absolute positions, into `out` if given.

    x: (tokens, heads, head_dim), or (1, ..., head_dim) for one token, the
    tokens at positions start, start + 1, ... (start >= 0); both steps rotate
    here. Angles are computed in float64 and the rotation applied in float32,
    as x * [cos, cos] + [x2, x1] * [-sin, sin] for halves (x1, x2): bit for
    bit (x1 cos - x2 sin, x1 sin + x2 cos), as negation is exact and +
    commutes.
    """
    cos, sin = _rope_rows(theta, x.shape[-1], start, len(x))
    half = x.shape[-1] // 2
    swapped = np.concatenate([x[..., half:], x[..., :half]], axis=-1)
    out = np.multiply(x, cos, out=out)
    swapped *= sin
    out += swapped
    return out


def check_tokens(tokens, vocab_size: int) -> np.ndarray:
    """Integer ids, none coerced from float, bool or str, as a non-empty 1-D int64 array in [0, vocab_size)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise InputError("tokens must be a non-empty 1-D sequence")
    if tokens.dtype.kind not in "iu":
        raise InputError(f"token ids must be integers within int64, got {tokens.dtype} ids")
    low, high = int(tokens.min()), int(tokens.max())
    if low < 0 or high >= vocab_size:
        raise InputError(f"token id out of range [0, {vocab_size}): {low if low < 0 else high}")
    return tokens.astype(np.int64, copy=False)


def check_context(start: int, n: int, config: ModelConfig) -> None:
    """The context-length rule: n tokens from stream position `start` fit in
    max_context. Every entry point checks it here, before any work."""
    if start + n > config.max_context:
        raise InputError(f"context length exceeded: {start} + {n} > max_context {config.max_context}")


def output_logits(model: Model, x: np.ndarray) -> np.ndarray:
    return rms_norm(x, model.final_norm) @ model.embedding.T


def forward_layer(model: Model, li: int, x: np.ndarray, store: LayerStore) -> tuple[np.ndarray, np.ndarray]:
    """Run a chunk of hidden states x (batch, tokens >= 2, d_model), stream positions 0.., through layer li's empty
    stores, in one pass.

    Returns (out, heads): the new hidden states, shaped like x, and the
    attention output of every query head, (batch, q_heads, tokens, head_dim).

    `store` is the layer's: store.caches[b * kv_groups + g] is sequence b's
    group g (batch-major), and every one must hold no token. One token, or a
    chunk into stores that hold tokens, raises InputError before any append:
    forward_chunk steps those token by token. Each sequence's qkv product is
    scattered into qk[i] (cache i's query heads, key) and v[i] (values, ones),
    qk rotated; a segment no cache evicts is appended, then single tokens cache
    by cache, and attention runs over the chunk's own rows, in place. Then
    _layer_out. The dense ops run one product per sequence, so each sequence's
    result depends on its x only, and temporaries stay one sequence's size.
    """
    cfg, layer, (batch, n, _) = model.config, model.layers[li], x.shape
    _check_caches(store, batch, cfg)  # again under forward_chunk; search and profiling call this directly
    if n < 2 or any(store.seen):
        raise InputError(f"forward_layer takes 2+ tokens into empty stores, got {n} at position {max(store.seen)}")
    kv, g, d = cfg.num_kv_heads, cfg.group_size, cfg.head_dim
    k_col, v_col = cfg.num_q_heads * d, (cfg.num_q_heads + kv) * d  # where k and v start in qkv
    qk = np.empty((batch * kv, g + 1, n, d), np.float32)
    v = np.empty((batch * kv, n, d + 1), np.float32)
    v[..., d] = 1  # the ones column banded_attention reads
    for b in range(batch):
        p, caches = rms_norm(x[b], layer.norm1) @ layer.qkv, slice(b * kv, (b + 1) * kv)
        qk[caches, :g] = p[:, :k_col].reshape(n, kv, g, d).transpose(1, 2, 0, 3)
        qk[caches, g] = p[:, k_col:v_col].reshape(n, kv, d).transpose(1, 0, 2)
        v[caches, :, :d] = p[:, v_col:].reshape(n, kv, d).transpose(1, 0, 2)
        qk_b = qk[caches].reshape(-1, n, d).transpose(1, 0, 2)  # (n, kv * (g + 1), d), rotated in place
        rope_rotate(qk_b, 0, cfg.rope_theta, out=qk_b)
        del p  # one product alive at a time, and none through the appends and attention
    q, k = qk[:, :g], qk[:, g]  # (batch * kv, g, n, d) and (batch * kv, n, d)
    m = min(n, min(store.budgets))  # a segment no cache overflows
    for cache, k_new, v_new in zip(store.caches, k[:, :m], v[:, :m, :d]):
        append_and_evict(cache, k_new, v_new)
    for cache, k_new, v_new in zip(store.caches, k[:, m:, None], v[:, m:, None, :d]):
        for k_row, v_row in zip(k_new, v_new):  # then single tokens, cache by cache
            append_and_evict(cache, k_row, v_row)
    heads = banded_attention(q, k, v, store.budgets, store.sinks).reshape(batch, cfg.num_q_heads, n, d)
    qk = q = k = v = k_new = v_new = k_row = v_row = None  # no view of the projections alive through the MLP
    out = np.empty(x.shape, np.float32)
    for b in range(batch):
        _layer_out(layer, x[b], heads[b], out[b])
    return out, heads


def _check_caches(store: LayerStore, batch: int, cfg: ModelConfig) -> None:
    if len(store.caches) != batch * cfg.num_kv_heads or store.keys.shape[1] != cfg.head_dim:
        raise ShapeError(f"{len(store.caches)} caches for a batch of {batch} with {cfg.num_kv_heads} KV groups; "
                         f"store head_dim {store.keys.shape[1]}, model head_dim {cfg.head_dim}")


def _token_qkv(cfg: ModelConfig, layer: LayerWeights, x: np.ndarray, caches, position: int) -> np.ndarray:
    """forward_chunk's token step in one layer, hidden row x at stream `position`: its product with layer.qkv, q and
    k rotated in place (rope_rotate), one row appended to each of `caches`. Returns the query heads (kv, g, 1, d)."""
    kv, d, k_col = cfg.num_kv_heads, cfg.head_dim, cfg.num_q_heads * cfg.head_dim  # where k starts in qkv
    p = rms_norm(x, layer.norm1) @ layer.qkv
    qk = p[: -kv * d].reshape(1, -1, d)
    rope_rotate(qk, position, cfg.rope_theta, out=qk)
    for cache, k_new, v_new in zip(caches, *p[k_col:].reshape(2, kv, 1, d)):
        append_and_evict(cache, k_new, v_new)
    return p[:k_col].reshape(kv, -1, 1, d)


def _layer_out(layer: LayerWeights, x: np.ndarray, heads: np.ndarray, out: np.ndarray) -> None:
    """Rows x through the residual and the MLP, into `out` of x's shape (the token step's row is both). heads are as
    the kernels return them, (q_heads, rows, head_dim) or (kv, g, 1, head_dim), flat only inside attn_out's product."""
    np.add(x, heads.swapaxes(-3, -2).reshape(*x.shape[:-1], -1) @ layer.attn_out, out=out)
    out += _silu(rms_norm(out, layer.norm2) @ layer.mlp_in) @ layer.mlp_out


def forward_chunk(model: Model, tokens, caches: CacheSet) -> tuple[np.ndarray, None]:
    """Run new tokens through the model under budgeted caches.

    K/V projections of the new tokens are appended to the caches (evicting
    as the budgets require), then every query attends over exactly what
    token-by-token generation retains: a chunk into empty caches layer by
    layer (forward_layer), else token by token, each token through every
    layer (_token_qkv, attend_with_cache, _layer_out), the only caller of
    _token_qkv and attend_with_cache. Logits, from one output_logits over
    the final rows, agree with generation up to float32 rounding.

    Returns (logits, None), with logits (len(tokens), vocab_size).
    """
    cfg = model.config
    tokens = check_tokens(tokens, cfg.vocab_size)
    if caches.config != cfg:
        raise ConfigError("cache set was built for a different model configuration")
    if len(caches.stores) != cfg.num_layers:
        raise ConfigError(
            f"cache layer count {len(caches.stores)} != num_layers {cfg.num_layers}"
        )
    check_context(start := caches.total_seen, tokens.size, cfg)
    for store in caches.stores:  # every layer's check, before any append
        _check_caches(store, 1, cfg)
    x = model.embedding[tokens[None]].astype(np.float32, copy=False)  # the gather copies
    if tokens.size > 1 and not start:
        for li, store in enumerate(caches.stores):
            x, _ = forward_layer(model, li, x, store)
    else:  # each token's row h, a view of x, through every layer, updated in place
        for position, h in enumerate(x[0], start):
            for layer, store in zip(model.layers, caches.stores):
                _layer_out(layer, h, attend_with_cache(store, _token_qkv(cfg, layer, h, store.caches, position)), h)
    return output_logits(model, x[0]), None


def greedy_generate(model: Model, prompt, steps: int, caches: CacheSet) -> list[int]:
    """Generate `steps` tokens greedily, feeding each one back in.

    Ties in the argmax resolve to the lowest token id. The prompt and all
    generated tokens must fit in max_context positions (check_context).
    """
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    prompt = check_tokens(prompt, model.config.vocab_size)
    check_context(caches.total_seen, prompt.size + steps, model.config)
    logits, _ = forward_chunk(model, prompt, caches)
    out: list[int] = []
    for _ in range(steps):
        next_id = int(np.argmax(logits[-1]))
        out.append(next_id)
        logits, _ = forward_chunk(model, [next_id], caches)
    return out


# Weight file format: one newline-terminated ASCII header line, _header,
# followed by the raw little-endian float32 tensors of _canonical_tensors,
# each row-major.

def _header(cfg: ModelConfig) -> str:
    """The weight file's first line: the version, then every config field as
    key=value, keys sorted, each value converted to its field's type first."""
    pairs = sorted((f.name, f.type(getattr(cfg, f.name))) for f in fields(ModelConfig))
    return " ".join([WEIGHT_FORMAT_VERSION] + [f"{k}={v}" for k, v in pairs]) + "\n"


def canonical_chunks(model: Model):
    """The weight file in bytes-like chunks: the header line, then each _canonical_tensors tensor as row-major <f4."""
    yield _header(model.config).encode("ascii")
    for tensor in _canonical_tensors(model):
        yield np.ascontiguousarray(tensor, dtype="<f4")


def serialize_model(model: Model) -> bytes:
    return b"".join(canonical_chunks(model))


def _canonical_tensors(model: Model):
    """The embedding, each layer's tensors in LayerWeights field order, then final_norm."""
    yield model.embedding
    for layer in model.layers:
        yield from (getattr(layer, f.name) for f in fields(LayerWeights))
    yield model.final_norm


def deserialize_model(data: bytes) -> Model:
    """The model `data` holds; bytes that serialize_model would not write for it raise FormatError."""
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError("missing header line")
    try:
        header = data[: newline + 1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("header is not ASCII") from exc
    parts = header.split()
    if not parts or parts[0] != WEIGHT_FORMAT_VERSION:
        raise FormatError(
            f"format version: expected {WEIGHT_FORMAT_VERSION!r}, got {parts[0] if parts else ''!r}"
        )
    # an item without "=" reads as a key with an empty value, which a check below rejects
    given = dict(item.partition("=")[::2] for item in parts[1:])

    kwargs = {}
    for f in fields(ModelConfig):  # each is an int, or rope_theta a float
        if f.name not in given:
            raise FormatError(f"header missing field {f.name!r}")
        try:
            kwargs[f.name] = f.type(given[f.name])
        except ValueError as exc:
            kind = "an integer" if f.type is int else "a number"
            raise FormatError(f"header field {f.name!r} is not {kind}") from exc

    cfg = ModelConfig(**kwargs)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise FormatError(f"header describes an invalid config: {exc}") from exc
    if header != _header(cfg):
        raise FormatError(f"header is not the canonical line {_header(cfg)!r}")

    body = memoryview(data)[newline + 1 :]  # a view: the tensors below are the only copies
    expected = 4 * cfg.weight_count()
    if len(body) != expected:
        raise FormatError(f"weight payload is {len(body)} bytes, expected {expected}")

    flat = np.frombuffer(body, dtype="<f4")
    if not np.all(np.isfinite(flat)):
        raise FormatError("weight payload contains non-finite values")
    shapes = _canonical_shapes(cfg)
    pieces = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return _assemble(cfg, (piece.reshape(shape).copy() for piece, shape in zip(pieces, shapes)))


def sha256_hex(chunks) -> str:
    """The hex sha256 of bytes-like chunks, fed to one digest in order: bklv's one hash (model, prompt and file ids)."""
    import hashlib  # here, not at the top: a command that never hashes never starts OpenSSL

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def model_checksum(model: Model) -> str:
    """sha256 of the canonical weight-file bytes, fed chunk by chunk (canonical_chunks), never joined."""
    return sha256_hex(canonical_chunks(model))
