"""The trainable classifier and its checkpoint format.

Architecture: token-embedding table, mean pooling over the document, one
tanh hidden layer, then two linear heads (4-class harm level, 5 independent
target-identity logits). The contrastive objective reads the tanh hidden
vector ``z``; it L2-normalizes the rows itself (``losses.normalize_rows``),
so the forward pass, shared with inference, never computes them.

The forward pass is ``mean_pool`` (documents to pooled rows) followed by
``forward_pooled`` (pooled rows to activations); ``forward_batch`` runs the
two on one batch, and ``predict`` is the only rule that turns activations
into scores and decisions. Training, validation and the tests call
``forward_batch``; the CLI's ``predict`` pools its input chunk by chunk and
runs ``forward_pooled`` once over every row. Training hands them a compact
table of the rows its documents reach, with the ids remapped to it.

Parameters are float64 in memory, except the full embedding table that
``load_params`` and ``train`` hold: that is the float32 array the checkpoint
stores, half the bytes of a float64 copy. Pooling widens the rows it reads
to float64, which is exact, so a float32 table and its float64 copy give
bit-identical activations.

Checkpoint layout (little-endian throughout):
  magic ``HPC1`` | version u8 (=1) | header_len u32 | header | parameter
  matrices in declaration order as row-major float32 | crc32 u32 of all
  preceding bytes.
Header: u32 fields max_tokens, hash_bits, ngram, vocab_size, embed_dim,
hidden_dim, num_classes (=4), num_targets (=5), then the model seed as u64.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import NUM_CLASSES, NUM_TARGETS
from .featurizer import EncodedDoc, FeatureConfig
from .metrics import check_eta

_MAGIC = b"HPC1"
_VERSION = 1
_HEADER_FMT = "<8IQ"  # 8 u32 config ints + u64 seed
_HEADER_LEN = struct.calcsize(_HEADER_FMT)
_PAYLOAD_OFFSET = 9 + _HEADER_LEN  # magic, version, header_len, header
_ALIGN = 16  # byte boundary of the parameter payload in a loaded file
_CHUNK_ROWS = 1024  # rows per block when drawing or writing a parameter array


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        # The checkpoint header stores each of them as a u32.
        for name in ("vocab_size", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) >= 2**32:
                raise ValueError(f"{name} must be < 2**32, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class ModelParams:
    """All trainable arrays, float32 in checkpoints. In memory they are
    float64, except that ``load_params`` and ``train`` keep ``embed`` as
    float32."""

    embed: np.ndarray  # (vocab_size, embed_dim)
    w1: np.ndarray     # (embed_dim, hidden_dim)
    b1: np.ndarray     # (hidden_dim,)
    wc: np.ndarray     # (hidden_dim, num_classes)
    bc: np.ndarray     # (num_classes,)
    wt: np.ndarray     # (hidden_dim, num_targets)
    bt: np.ndarray     # (num_targets,)

    FIELDS = ("embed", "w1", "b1", "wc", "bc", "wt", "bt")

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.FIELDS]

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.arrays()})


@dataclass
class BatchActivations:
    """Every intermediate the backward pass needs, batched row-wise."""

    h0: np.ndarray             # (B, embed_dim) mean-pooled embeddings
    z: np.ndarray              # (B, hidden_dim)
    class_logits: np.ndarray   # (B, num_classes)
    target_logits: np.ndarray  # (B, num_targets)


def init_params(cfg: ModelConfig, embed_dtype=np.float64) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic for a fixed seed.

    Values are passed through float32 once so that freshly initialized
    parameters survive the float32 checkpoint format bit-for-bit. Rows are
    drawn in chunks straight into a result of the given dtype, which gives
    the same values as one whole draw without holding the table in three
    dtypes. ``embed`` is of ``embed_dtype``; ``train`` asks for the float32
    table it saves.
    """
    rng = np.random.default_rng(cfg.seed)

    def glorot(fan_in: int, fan_out: int, dtype=np.float64) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        out = np.empty((fan_in, fan_out), dtype)
        for start in range(0, fan_in, _CHUNK_ROWS):
            rows = out[start : start + _CHUNK_ROWS]
            rows[...] = rng.uniform(-bound, bound, size=rows.shape).astype(np.float32)
        return out

    return ModelParams(
        embed=glorot(cfg.vocab_size, cfg.embed_dim, embed_dtype),
        w1=glorot(cfg.embed_dim, cfg.hidden_dim),
        b1=np.zeros(cfg.hidden_dim),
        wc=glorot(cfg.hidden_dim, NUM_CLASSES),
        bc=np.zeros(NUM_CLASSES),
        wt=glorot(cfg.hidden_dim, NUM_TARGETS),
        bt=np.zeros(NUM_TARGETS),
    )


def forward_batch(params: ModelParams, docs: list[EncodedDoc]) -> BatchActivations:
    """The full forward pass of a batch of encoded documents: ``mean_pool``,
    then ``forward_pooled`` over its rows."""
    return forward_pooled(params, mean_pool(params, docs))


def mean_pool(params: ModelParams, docs: list[EncodedDoc]) -> np.ndarray:
    """The (len(docs), embed_dim) float64 mean of each document's embedding
    rows; an empty document pools to zeros.

    Rows are summed in float64 whatever the table's dtype. float32 widens to
    float64 exactly, so a float32 table pools to the same bits as its float64
    copy.
    """
    vocab_size, embed_dim = params.embed.shape
    ids = [doc.ids for doc in docs if doc.ids.size]
    # As unsigned, a negative id is larger than any valid one.
    if ids and np.asarray(np.concatenate(ids), np.int64).view(np.uint64).max() >= vocab_size:
        raise ValueError(f"token id out of range for vocab size {vocab_size}")
    h0 = np.zeros((len(docs), embed_dim))
    lengths = np.array([doc.ids.size for doc in docs], dtype=np.int64)[:, None]
    for i, doc in enumerate(docs):
        if doc.ids.size:
            # The same float64 row sum as ``mean(axis=0)``, bit for bit.
            np.add.reduce(params.embed.take(doc.ids, axis=0), axis=0, dtype=np.float64, out=h0[i])
    # And the same division.
    return np.divide(h0, lengths, out=h0, where=lengths > 0)


def forward_pooled(params: ModelParams, h0: np.ndarray) -> BatchActivations:
    """The tanh layer and both heads over pooled rows ``h0``.

    Callers run it once over all their rows: computed over row blocks, the
    matrix products may round differently.
    """
    # In place, so only one (N, hidden_dim) array is held; the operations,
    # and so the bits, are those of ``np.tanh(h0 @ w1 + b1)``.
    z = h0 @ params.w1
    z += params.b1
    np.tanh(z, out=z)
    return BatchActivations(h0, z, z @ params.wc + params.bc, z @ params.wt + params.bt)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; stable for arbitrarily large finite logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe elementwise logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def predict(acts: BatchActivations, task: str, eta: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """The scores and decisions of a batch, row-aligned with its documents.

    harm: softmax probabilities and their argmax, ties going to the smallest
    class index. targets: sigmoids and 0/1 flags ``sigma >= eta``, the rule
    validation and ``evaluate`` score; a row may flag no target at all.
    """
    check_eta(eta)
    if task == "harm":
        probs = softmax(acts.class_logits)
        return probs, np.argmax(probs, axis=1)
    if task != "targets":
        raise ValueError(f"unknown task {task!r}")
    sigmas = sigmoid(acts.target_logits)
    return sigmas, (sigmas >= eta).astype(np.int64)


def _shapes(model_cfg: ModelConfig) -> list[tuple[int, ...]]:
    return [
        (model_cfg.vocab_size, model_cfg.embed_dim),
        (model_cfg.embed_dim, model_cfg.hidden_dim),
        (model_cfg.hidden_dim,),
        (model_cfg.hidden_dim, NUM_CLASSES),
        (NUM_CLASSES,),
        (model_cfg.hidden_dim, NUM_TARGETS),
        (NUM_TARGETS,),
    ]


def save_params(
    params: ModelParams,
    model_cfg: ModelConfig,
    feature_cfg: FeatureConfig,
    path: str | Path,
) -> None:
    """Write a self-describing versioned checkpoint (see module docstring)."""
    if model_cfg.vocab_size != feature_cfg.vocab_size:
        raise ValueError(
            f"model vocab_size {model_cfg.vocab_size} != 2**hash_bits {feature_cfg.vocab_size}"
        )
    for (name, arr), shape in zip(params.arrays(), _shapes(model_cfg)):
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, config implies {shape}")

    header = struct.pack(
        _HEADER_FMT,
        feature_cfg.max_tokens,
        feature_cfg.hash_bits,
        feature_cfg.ngram,
        model_cfg.vocab_size,
        model_cfg.embed_dim,
        model_cfg.hidden_dim,
        NUM_CLASSES,
        NUM_TARGETS,
        model_cfg.seed,
    )
    crc = 0
    with open(path, "wb") as f:
        for chunk in _checkpoint_chunks(header, params):
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def _checkpoint_chunks(header: bytes, params: ModelParams):
    """The buffers of the checkpoint bytes that precede the crc, each array
    at most ``_CHUNK_ROWS`` rows at a time: a float32 array's row blocks are
    views of its own buffer, any other array's are converted block by block."""
    yield _MAGIC + struct.pack("<BI", _VERSION, len(header)) + header
    for _, arr in params.arrays():
        for start in range(0, arr.shape[0], _CHUNK_ROWS):
            yield np.ascontiguousarray(arr[start : start + _CHUNK_ROWS], dtype="<f4")


def _read_aligned(path: str | Path) -> memoryview:
    """The bytes of the file at ``path``, placed so that its byte
    ``_PAYLOAD_OFFSET`` lies on an ``_ALIGN``-byte boundary.

    The embedding table is then an aligned float32 view of the buffer, with
    no copy; ``take`` on an unaligned view is several times slower.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = np.empty(size + _ALIGN, dtype=np.uint8)
        start = -(buf.ctypes.data + _PAYLOAD_OFFSET) % _ALIGN
        blob = memoryview(buf)[start : start + size]
        n = f.readinto(blob)
    return blob[:n]


def load_params(path: str | Path) -> tuple[ModelParams, ModelConfig, FeatureConfig]:
    """Inverse of save_params; fails closed on any corruption.

    ``embed`` is a writable float32 view of the file's bytes; the other
    arrays are float64 copies.
    """
    blob = _read_aligned(path)
    if len(blob) < 9:
        raise ValueError(f"{path}: truncated at offset {len(blob)} (no header)")
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {bytes(blob[:4])!r}, expected {_MAGIC!r}")
    version = blob[4]
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}, expected {_VERSION}")
    (header_len,) = struct.unpack_from("<I", blob, 5)
    if header_len != _HEADER_LEN:
        raise ValueError(f"{path}: header length {header_len}, expected {_HEADER_LEN}")
    if len(blob) < _PAYLOAD_OFFSET:
        raise ValueError(f"{path}: truncated at offset {len(blob)} (header incomplete)")
    fields = struct.unpack_from(_HEADER_FMT, blob, 9)
    if fields[6:8] != (NUM_CLASSES, NUM_TARGETS):
        raise ValueError(f"{path}: {fields[6]} classes, {fields[7]} targets; expected {NUM_CLASSES}, {NUM_TARGETS}")
    try:
        feature_cfg = FeatureConfig(max_tokens=fields[0], hash_bits=fields[1], ngram=fields[2])
        model_cfg = ModelConfig(
            vocab_size=fields[3],
            embed_dim=fields[4],
            hidden_dim=fields[5],
            seed=fields[8],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if model_cfg.vocab_size != feature_cfg.vocab_size:
        raise ValueError(f"{path}: header vocab_size {model_cfg.vocab_size} inconsistent with hash_bits")

    shapes = _shapes(model_cfg)
    # math.prod: header dims up to 2**32 - 1 overflow numpy's int64 product.
    n_payload = sum(math.prod(s) for s in shapes) * 4
    expected = _PAYLOAD_OFFSET + n_payload + 4
    if len(blob) != expected:
        raise ValueError(f"{path}: file is {len(blob)} bytes, expected {expected} (truncated or padded)")
    (stored_crc,) = struct.unpack_from("<I", blob, expected - 4)
    actual_crc = zlib.crc32(blob[: expected - 4])
    if stored_crc != actual_crc:
        raise ValueError(f"{path}: CRC mismatch at offset {expected - 4} (stored {stored_crc:#x}, computed {actual_crc:#x})")

    offset = _PAYLOAD_OFFSET
    arrays = []
    for name, shape in zip(ModelParams.FIELDS, shapes):
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
        # The CRC guards the bytes, not the values: a NaN saved is a NaN loaded.
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: non-finite values in {name}")
        arrays.append(arr if name == "embed" else arr.astype(np.float64))
        offset += count * 4
    return ModelParams(*arrays), model_cfg, feature_cfg
