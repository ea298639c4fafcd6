"""The trainable classifier and its checkpoint format.

Architecture: token-embedding table, mean pooling over the document, one
tanh hidden layer, then two linear heads (4-class harm level, 5 independent
target-identity logits). The contrastive objective reads the tanh hidden
vector ``z``; it L2-normalizes the rows itself (``losses.normalize_rows``),
so the forward pass, shared with inference, never computes them.

The forward pass is ``mean_pool`` (documents to pooled rows) followed by
``forward_pooled`` (pooled rows to activations); ``forward_batch`` runs the
two on one batch, and ``predict`` is the only rule that turns activations
into scores and decisions. A document is the int64 array of its token ids.
Training, validation and the tests call ``forward_batch``; the CLI's
``predict`` pools its input chunk by chunk and runs ``forward_pooled`` once
over every row. Training hands them a compact table of the rows its
documents reach, with the ids remapped to it.

``ModelParams.rows`` names the table rows that ``embed`` holds: ``None``
for the whole table, or the sorted ids of a compact table, as ``train``
draws and returns it. Parameters are float64 in memory, except the float32
``embed`` that ``load_params`` and ``train`` return. Pooling widens the rows
it reads to float64, which is exact, so a float32 table and its float64 copy
give bit-identical activations.

The initial embedding table is never stored: ``_draw_initial`` replays any
of its rows from the seed. It draws the spans of ``_spans`` that cover the
wanted rows, in pieces of at most 1024 rows, and skips the rows between
them; the whole table is one span. ``init_params``, ``save_params`` and
``load_params`` all draw it that way.

Checkpoint layout (little-endian throughout):
  magic ``HPC1`` | version u8 (=2) | header_len u32 | header | row count
  u32 | the sorted u32 ids of the embedding rows whose float32 bits differ
  from the seed's initial table | those rows as row-major float32 | w1, b1,
  wc, bc, wt, bt as row-major float32 | crc32 u32 of all preceding bytes.
Header: u32 fields max_tokens, hash_bits, ngram, vocab_size, embed_dim,
hidden_dim, num_classes (=4), num_targets (=5), then the model seed as u64.
``ModelConfig`` carries its ``FeatureConfig``, and its ``vocab_size`` is
always 2**hash_bits; the header still stores it, and ``load_params``
refuses a header whose ``vocab_size`` is anything else.
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
from .featurizer import FeatureConfig
from .metrics import check_eta

_MAGIC = b"HPC1"
_VERSION = 2
_HEADER_FMT = "<8IQ"  # 8 u32 config ints + u64 seed
_HEADER_LEN = struct.calcsize(_HEADER_FMT)
_PAYLOAD_OFFSET = 9 + _HEADER_LEN  # magic, version, header_len, header
_CHUNK_ROWS = 1024  # rows per block when drawing, reading or writing embedding rows
# The initial-table replay skips a run of at least this many unwanted rows
# with ``advance`` and draws a shorter one: each span it draws costs a few
# microseconds of calls, about what drawing 16 to 32 rows of 64 values does.
_SPAN_GAP = 16


@dataclass(frozen=True)
class ModelConfig:
    features: FeatureConfig = FeatureConfig()
    embed_dim: int = 64
    hidden_dim: int = 64
    seed: int = 0

    @property
    def vocab_size(self) -> int:
        return self.features.vocab_size

    def __post_init__(self) -> None:
        # The checkpoint header stores each of them as a u32.
        for name in ("embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) >= 2**32:
                raise ValueError(f"{name} must be < 2**32, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class ModelParams:
    """All trainable arrays, float32 in checkpoints. In memory they are
    float64, except that ``load_params`` and ``train`` return ``embed`` as
    float32. ``layer_shapes`` gives the shapes of w1 to bt. ``rows`` is not
    trained: it names the table rows ``embed`` holds (see the module
    docstring)."""

    embed: np.ndarray  # (vocab_size, embed_dim), or (len(rows), embed_dim)
    w1: np.ndarray
    b1: np.ndarray
    wc: np.ndarray
    bc: np.ndarray
    wt: np.ndarray
    bt: np.ndarray
    rows: np.ndarray | None = None  # sorted distinct table ids, or None for the whole table

    FIELDS = ("embed", "w1", "b1", "wc", "bc", "wt", "bt")

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.FIELDS]

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.arrays()}, rows=self.rows)


@dataclass
class BatchActivations:
    """Every intermediate the backward pass needs, batched row-wise."""

    h0: np.ndarray             # (B, embed_dim) mean-pooled embeddings
    z: np.ndarray              # (B, hidden_dim)
    class_logits: np.ndarray   # (B, num_classes)
    target_logits: np.ndarray  # (B, num_targets)


def init_params(cfg: ModelConfig, rows: np.ndarray | None = None) -> ModelParams:
    """Glorot-uniform weights (Glorot & Bengio 2010), zero biases,
    deterministic for a fixed seed: the embedding table, then each array of
    ``layer_shapes`` in ``FIELDS`` order, a matrix drawn and a bias zeroed.

    Values are passed through float32 once so that freshly initialized
    parameters survive the float32 checkpoint format bit-for-bit; the arrays
    are float64. With ``rows``, sorted distinct table ids, ``embed`` holds
    only those rows of the initial table, and the other rows are never drawn.
    """
    if rows is not None:
        _check_rows(rows, cfg.vocab_size, "rows")
    rng = np.random.default_rng(cfg.seed)
    embed = np.empty((cfg.vocab_size if rows is None else rows.size, cfg.embed_dim))
    _draw_initial(cfg, rng, embed, rows)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32).astype(np.float64)

    return ModelParams(embed, *(glorot(*s) if len(s) == 2 else np.zeros(s) for s in layer_shapes(cfg)), rows=rows)


def _draw_initial(cfg: ModelConfig, rng: np.random.Generator, out: np.ndarray,
                  rows: np.ndarray | None = None) -> None:
    """Write the seed's initial float32 embedding values of the table
    ``rows`` (sorted distinct ids; every row when None) into the rows of
    ``out``, and leave ``rng`` just past the table.

    ``rng`` is ``default_rng(cfg.seed)`` as created. ``uniform`` turns each
    PCG64 output into one value, so table row ``r`` starts at output
    ``r * embed_dim``. Only the spans of ``_spans(rows)`` are drawn, each in
    pieces of at most ``_CHUNK_ROWS`` rows, and ``advance`` skips the rows
    between them; the whole table is one span.
    """
    bound = np.sqrt(6.0 / (cfg.vocab_size + cfg.embed_dim))
    if rows is None:
        spans = [(0, cfg.vocab_size, cfg.vocab_size)]
    else:
        starts, stops = _spans(rows)
        # Each span with the index in rows just past its last row.
        spans = zip(starts.tolist(), stops.tolist(), np.searchsorted(rows, stops).tolist())
    drawn = first = 0  # table rows the generator has passed; rows of out written
    for start, stop, end in spans:
        rng.bit_generator.advance((start - drawn) * cfg.embed_dim)
        for lo in range(start, stop, _CHUNK_ROWS):
            hi, last = min(lo + _CHUNK_ROWS, stop), end
            if hi < stop:  # the span goes on past this piece
                last = hi if rows is None else int(np.searchsorted(rows, hi))
            at = slice(None) if rows is None else rows[first:last] - lo
            # Unnamed, so that no piece is alive while the next one is drawn.
            out[first:last] = rng.uniform(-bound, bound, size=(hi - lo, cfg.embed_dim))[at].astype(np.float32)
            first = last
        drawn = stop
    rng.bit_generator.advance((cfg.vocab_size - drawn) * cfg.embed_dim)


def _spans(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``[starts, stops)`` table ranges that ``_draw_initial`` draws to
    cover the sorted distinct ids ``rows``: consecutive ids fall in one span
    while fewer than ``_SPAN_GAP`` unwanted rows lie between them."""
    if not rows.size:
        return rows, rows
    breaks = np.flatnonzero(np.diff(rows) > _SPAN_GAP) + 1
    return rows[np.r_[0, breaks]], rows[np.r_[breaks - 1, rows.size - 1]] + 1


def _check_rows(rows: np.ndarray, vocab_size: int, noun: str) -> None:
    """Refuse ``rows`` unless its ids are sorted, distinct and in [0, vocab_size)."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and (rows[0] < 0 or rows[-1] >= vocab_size or np.any(rows[1:] <= rows[:-1]))):
        raise ValueError(f"{noun} must be sorted distinct ids below vocab_size {vocab_size}")


def forward_batch(params: ModelParams, docs: list[np.ndarray]) -> BatchActivations:
    """The full forward pass of a batch of documents' id arrays: ``mean_pool``,
    then ``forward_pooled`` over its rows."""
    return forward_pooled(params, mean_pool(params, docs))


def mean_pool(params: ModelParams, docs: list[np.ndarray]) -> np.ndarray:
    """The (len(docs), embed_dim) float64 mean of each document's embedding
    rows; an empty document pools to zeros.

    Rows are summed in float64 whatever the table's dtype. float32 widens to
    float64 exactly, so a float32 table pools to the same bits as its float64
    copy.
    """
    vocab_size, embed_dim = params.embed.shape
    # As unsigned, a negative id is larger than any valid one.
    if docs and np.asarray(np.concatenate(docs), np.int64).view(np.uint64).max(initial=0) >= vocab_size:
        raise ValueError(f"token id out of range for vocab size {vocab_size}")
    h0 = np.zeros((len(docs), embed_dim))
    lengths = np.array([doc.size for doc in docs], dtype=np.int64)[:, None]
    for i, doc in enumerate(docs):
        if doc.size:
            # The same float64 row sum as ``mean(axis=0)``, bit for bit.
            np.add.reduce(params.embed.take(doc, axis=0), axis=0, dtype=np.float64, out=h0[i])
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


def layer_shapes(model_cfg: ModelConfig) -> list[tuple[int, ...]]:
    """The shapes of w1, b1, wc, bc, wt and bt, the arrays stored whole, in
    ``FIELDS`` order; the only place that states them."""
    return [
        (model_cfg.embed_dim, model_cfg.hidden_dim),
        (model_cfg.hidden_dim,),
        (model_cfg.hidden_dim, NUM_CLASSES),
        (NUM_CLASSES,),
        (model_cfg.hidden_dim, NUM_TARGETS),
        (NUM_TARGETS,),
    ]


def save_params(params: ModelParams, model_cfg: ModelConfig, path: str | Path) -> None:
    """Write a self-describing versioned checkpoint (see module docstring):
    the rows of ``params.embed`` whose float32 bits differ from the seed's
    initial table, and every other array whole."""
    rows = params.rows
    if rows is not None:
        _check_rows(rows, model_cfg.vocab_size, "params.rows")
    embed_shape = (model_cfg.vocab_size if rows is None else rows.size, model_cfg.embed_dim)
    for (name, arr), shape in zip(params.arrays(), [embed_shape, *layer_shapes(model_cfg)]):
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, config implies {shape}")

    changed = _changed_rows(params.embed, model_cfg, rows)
    header = struct.pack(
        _HEADER_FMT,
        model_cfg.features.max_tokens,
        model_cfg.features.hash_bits,
        model_cfg.features.ngram,
        model_cfg.vocab_size,
        model_cfg.embed_dim,
        model_cfg.hidden_dim,
        NUM_CLASSES,
        NUM_TARGETS,
        model_cfg.seed,
    )
    ids = changed if rows is None else rows[changed]
    crc = 0
    with open(path, "wb") as f:
        for chunk in _checkpoint_chunks(header, ids, params, changed):
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def _changed_rows(embed: np.ndarray, cfg: ModelConfig, rows: np.ndarray | None) -> np.ndarray:
    """The indices of the rows of ``embed`` (table ``rows``, or the whole
    table) whose float32 bits differ from the seed's initial values."""
    initial = np.empty(embed.shape, np.float32)
    _draw_initial(cfg, np.random.default_rng(cfg.seed), initial, rows)
    stored = np.ascontiguousarray(embed, dtype=np.float32)
    return np.flatnonzero(np.any(stored.view(np.uint32) != initial.view(np.uint32), axis=1))


def _checkpoint_chunks(header: bytes, ids: np.ndarray, params: ModelParams, changed: np.ndarray):
    """The buffers of the checkpoint bytes that precede the crc, each array
    at most ``_CHUNK_ROWS`` rows at a time."""
    yield _MAGIC + struct.pack("<BI", _VERSION, len(header)) + header + struct.pack("<I", ids.size)
    yield ids.astype("<u4")
    for start in range(0, changed.size, _CHUNK_ROWS):
        yield np.ascontiguousarray(params.embed[changed[start : start + _CHUNK_ROWS]], dtype="<f4")
    for name, arr in params.arrays()[1:]:
        for start in range(0, arr.shape[0], _CHUNK_ROWS):
            yield np.ascontiguousarray(arr[start : start + _CHUNK_ROWS], dtype="<f4")


def load_params(path: str | Path) -> tuple[ModelParams, ModelConfig]:
    """Inverse of save_params; fails closed on any corruption.

    ``embed`` is a float32 table: the seed's initial table, replayed block
    by block, with the stored rows read into it block by block, so the file
    and the table are never both whole in memory. The other arrays are
    float64. The CRC is accumulated while reading and checked before
    anything is returned.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_PAYLOAD_OFFSET + 4)
        model_cfg, count = _parse_head(head, path)
        small = sum(math.prod(shape) for shape in layer_shapes(model_cfg))
        # math.prod and Python ints: header dims up to 2**32 - 1 overflow int64.
        expected = len(head) + 4 * count * (1 + model_cfg.embed_dim) + 4 * small + 4
        if size != expected:
            raise ValueError(f"{path}: file is {size} bytes, expected {expected} (truncated or padded)")
        crc = zlib.crc32(head)

        def read(shape: tuple[int, ...], dtype: str = "<f4") -> np.ndarray:
            nonlocal crc
            arr = np.empty(shape, dtype)
            if f.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: truncated at offset {f.tell()}")
            crc = zlib.crc32(arr, crc)
            return arr

        ids = read((count,), "<u4")
        _check_rows(ids, model_cfg.vocab_size, f"{path}: stored row ids")
        # A few bytes of header can name a table of terabytes.
        try:
            embed = np.empty((model_cfg.vocab_size, model_cfg.embed_dim), np.float32)
            _draw_initial(model_cfg, np.random.default_rng(model_cfg.seed), embed)
        except MemoryError as exc:
            raise ValueError(f"{path}: the embedding table does not fit in memory ({exc})") from exc
        # The CRC guards the bytes, not the values: a NaN saved is a NaN loaded.
        non_finite = []
        for start in range(0, count, _CHUNK_ROWS):
            rows = read((min(_CHUNK_ROWS, count - start), model_cfg.embed_dim))
            if not np.all(np.isfinite(rows)) and not non_finite:
                non_finite.append("embed")
            embed[ids[start : start + _CHUNK_ROWS]] = rows
        arrays = [embed]
        for name, shape in zip(ModelParams.FIELDS[1:], layer_shapes(model_cfg)):
            arr = read(shape)
            if not np.all(np.isfinite(arr)):
                non_finite.append(name)
            # Nothing is returned once a value is non-finite, and widening a NaN can warn.
            arrays.append(arr if non_finite else arr.astype(np.float64))
        (stored_crc,) = struct.unpack("<I", f.read(4))
    if stored_crc != crc:
        raise ValueError(f"{path}: CRC mismatch at offset {size - 4} (stored {stored_crc:#x}, computed {crc:#x})")
    if non_finite:
        raise ValueError(f"{path}: non-finite values in {non_finite[0]}")
    return ModelParams(*arrays), model_cfg


def _parse_head(head: bytes, path: str | Path) -> tuple[ModelConfig, int]:
    """The config and the stored row count that a checkpoint's first bytes
    give, checked against each other."""
    if len(head) < 9:
        raise ValueError(f"{path}: truncated at offset {len(head)} (no header)")
    if head[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
    version = head[4]
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}, expected {_VERSION}")
    (header_len,) = struct.unpack_from("<I", head, 5)
    if header_len != _HEADER_LEN:
        raise ValueError(f"{path}: header length {header_len}, expected {_HEADER_LEN}")
    if len(head) < _PAYLOAD_OFFSET:
        raise ValueError(f"{path}: truncated at offset {len(head)} (header incomplete)")
    fields = struct.unpack_from(_HEADER_FMT, head, 9)
    if fields[6:8] != (NUM_CLASSES, NUM_TARGETS):
        raise ValueError(f"{path}: {fields[6]} classes, {fields[7]} targets; expected {NUM_CLASSES}, {NUM_TARGETS}")
    try:
        features = FeatureConfig(max_tokens=fields[0], hash_bits=fields[1], ngram=fields[2])
        model_cfg = ModelConfig(features, embed_dim=fields[4], hidden_dim=fields[5], seed=fields[8])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if fields[3] != model_cfg.vocab_size:
        raise ValueError(f"{path}: header vocab_size {fields[3]} inconsistent with hash_bits")
    if len(head) < _PAYLOAD_OFFSET + 4:
        raise ValueError(f"{path}: truncated at offset {len(head)} (no row count)")
    (count,) = struct.unpack_from("<I", head, _PAYLOAD_OFFSET)
    if count > model_cfg.vocab_size:
        raise ValueError(f"{path}: {count} stored rows, more than vocab_size {model_cfg.vocab_size}")
    return model_cfg, count
