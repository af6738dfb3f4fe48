"""LSTM ending classifiers built directly on numpy.

A single LSTM (shared weights) reads the story, and its final state seeds
the encoding of each candidate ending. Three representation variants feed
the softmax head; `_REPRESENTATION` defines each variant's o:

* raw      -- o = [e1; e2]                 (final ending hidden states)
* att      -- o = [h*1; h*2]               (attention over story outputs)
* combined -- o = [e1; h*1; e2; h*2]

Attention over story outputs H_1..H_L conditioned on an ending state h_e:
M_t = tanh(W_y H_t + W_h h_e), alpha = softmax_t(w . M_t), r = sum alpha_t H_t,
h* = tanh(W_p r + W_x h_e).

The LSTM's gates are fused: W_x (4h x d), W_h (4h x h) and b (4h) stack the
rows of the input, forget, cell and output gates, in that order. One cell
runs a whole minibatch. Its sequences are sorted by length; their inputs,
gate activations and cells are packed time-major with no padding, and only
the outputs h form a padded (T x B x h) block. The input projection is one
matrix product, each time step is one (B x h)(h x 4h) product over the
rows still running, and each weight gradient is one product over the
stacked gate deltas.
Single-instance calls are batches of one.

Everything is float64 and hand-differentiated; `backward` returns exact
cross-entropy gradients for every tensor, including paths through the
story-to-ending state seeding and the attention readout. Training uses Adam
with bias correction and is bitwise reproducible under a fixed seed.
"""
from __future__ import annotations

import copy
import enum
import itertools
import json
import math
import random
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .annotate import tokenize
from .corpus import ClozeInstance, gold_labels
from .embeddings import EmbeddingTable, _row, gather
from .errors import ParseError
from .linear import sigmoid

MAX_SEQUENCE_TOKENS = 128
# Instances per evaluation chunk; bounds a forward pass's or feature matrix's memory.
EVAL_BATCH_SIZE = 16

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

GATES = "ifgo"


class Variant(enum.Enum):
    RAW = "raw"
    ATTENTION = "att"
    COMBINED = "combined"


@dataclass
class LstmParams:
    """Fused gates: rows k*h .. (k+1)*h - 1 of each tensor belong to GATES[k]."""
    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass
class AttentionParams:
    w_y: np.ndarray
    w_h: np.ndarray
    w: np.ndarray
    w_p: np.ndarray
    w_x: np.ndarray


@dataclass
class ClassifierHead:
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass
class ModelParams:
    lstm: LstmParams
    attention: AttentionParams | None
    head: ClassifierHead
    variant: Variant


# Each variant's o as (part, ending) blocks of h columns, in order: part "e"
# is an ending's final state, "a" its attention readout h*.
_REPRESENTATION: dict[Variant, tuple[tuple[str, int], ...]] = {
    Variant.RAW: (("e", 0), ("e", 1)),
    Variant.ATTENTION: (("a", 0), ("a", 1)),
    Variant.COMBINED: (("e", 0), ("a", 0), ("e", 1), ("a", 1)),
}


def tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Stable name -> array view of every trainable tensor."""
    out: dict[str, np.ndarray] = {}
    for name in ("w_x", "w_h", "b"):
        out[f"lstm.{name}"] = getattr(params.lstm, name)
    if params.attention is not None:
        for name in ("w_y", "w_h", "w", "w_p", "w_x"):
            out[f"att.{name}"] = getattr(params.attention, name)
    out["head.w_out"] = params.head.w_out
    out["head.b_out"] = params.head.b_out
    return out


def _xavier(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(seed: int, d: int, h: int, variant: Variant) -> ModelParams:
    """Xavier-uniform weights, zero biases; draw order is fixed for determinism.

    Each gate's W_x and W_h blocks are drawn in turn with that gate's own
    Xavier bound, then stacked.
    """
    rng = np.random.default_rng(seed)
    w_x, w_h = [], []
    for _ in GATES:
        w_x.append(_xavier(rng, (h, d)))
        w_h.append(_xavier(rng, (h, h)))
    lstm = LstmParams(np.concatenate(w_x), np.concatenate(w_h),
                      np.zeros(len(GATES) * h))
    blocks = _REPRESENTATION[variant]
    attention = None
    if ("a", 0) in blocks:
        attention = AttentionParams(
            w_y=_xavier(rng, (h, h)),
            w_h=_xavier(rng, (h, h)),
            w=_xavier(rng, (h,)),
            w_p=_xavier(rng, (h, h)),
            w_x=_xavier(rng, (h, h)),
        )
    head = ClassifierHead(w_out=_xavier(rng, (2, len(blocks) * h)),
                          b_out=np.zeros(2))
    return ModelParams(lstm=lstm, attention=attention, head=head, variant=variant)


def _split_gates(z: np.ndarray, h: int) -> list[np.ndarray]:
    """Views of the i, f, g, o column blocks of a (rows x 4h) array."""
    return [z[:, k * h:(k + 1) * h] for k in range(len(GATES))]


@dataclass
class _Encoded:
    """One LSTM pass over a batch of sequences.

    Columns are the batch's rows sorted by length, longest first (column j
    is row order[j]), so the rows still running at step t are the first
    active[t] columns. xs, gates and c are packed time-major with no
    padding: step t owns rows start[t] .. start[t] + active[t] - 1. The
    outputs h are a padded (T x B x h) block, zero past a column's length.
    """
    order: np.ndarray
    active: np.ndarray
    start: np.ndarray
    xs: np.ndarray          # (tokens, d)
    h0: np.ndarray          # (B, h), column order
    c0: np.ndarray
    gates: np.ndarray       # (tokens, 4h), activated i, f, g, o
    c: np.ndarray           # (tokens, h)
    h: np.ndarray           # (T, B, h)
    h_last: np.ndarray      # (B, h), batch-row order
    c_last: np.ndarray


def _encode(params: LstmParams, seqs: Sequence[np.ndarray], h0: np.ndarray,
            c0: np.ndarray) -> _Encoded:
    """Run the cell over a batch of sequences from per-row states (B x h)."""
    d, h_size = params.input_size, params.hidden_size
    lengths = np.array([len(seq) for seq in seqs])
    if lengths.min() == 0:
        raise ValueError("cannot encode an empty sequence")
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    steps, batch = int(sorted_lengths[0]), len(seqs)
    active = (sorted_lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
    start = np.cumsum(active) - active
    xs = np.empty((int(active.sum()), d))
    for col, row in enumerate(order):
        xs[start[:len(seqs[row])] + col] = seqs[row]

    gates = xs @ params.w_x.T
    gates += params.b
    c = np.empty((len(xs), h_size))
    h = np.zeros((steps, batch, h_size))
    h0, c0 = h0[order], c0[order]
    h_prev, c_prev = h0, c0
    for t in range(steps):
        n, s = active[t], start[t]
        z = gates[s:s + n]
        z += h_prev[:n] @ params.w_h.T
        z[:, :2 * h_size] = sigmoid(z[:, :2 * h_size])
        z[:, 2 * h_size:3 * h_size] = np.tanh(z[:, 2 * h_size:3 * h_size])
        z[:, 3 * h_size:] = sigmoid(z[:, 3 * h_size:])
        i, f, g, o = _split_gates(z, h_size)
        c_t = c[s:s + n]
        c_t[...] = f * c_prev[:n] + i * g
        h[t, :n] = o * np.tanh(c_t)
        h_prev, c_prev = h[t], c_t

    cols = np.arange(batch)
    h_last = np.empty((batch, h_size))
    c_last = np.empty((batch, h_size))
    h_last[order] = h[sorted_lengths - 1, cols]
    c_last[order] = c[start[sorted_lengths - 1] + cols]
    return _Encoded(order=order, active=active, start=start, xs=xs, h0=h0,
                    c0=c0, gates=gates, c=c, h=h, h_last=h_last, c_last=c_last)


def encode(params: LstmParams, xs: np.ndarray, h0: np.ndarray,
           c0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the cell over one sequence; returns (all outputs, h_last, c_last)."""
    if xs.ndim != 2 or xs.shape[1] != params.input_size:
        raise ValueError(f"input width {xs.shape[-1]} does not match "
                         f"the LSTM's input_size {params.input_size}")
    enc = _encode(params, [xs], h0[None], c0[None])
    return enc.h[:, 0], enc.h_last[0], enc.c_last[0]


@dataclass
class _Attended:
    h_e: np.ndarray         # (B, h)
    alpha: np.ndarray       # (T, B), zero past each story's length
    r: np.ndarray           # (B, h)
    h_star: np.ndarray      # (B, h)


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    exp = np.exp(z - z.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def _project(outputs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """outputs (T x B x h) @ w as one product, not one per time step."""
    return (outputs.reshape(-1, outputs.shape[2]) @ w).reshape(outputs.shape)


def _attention_m(ap: AttentionParams, projected: np.ndarray,
                 h_e: np.ndarray) -> np.ndarray:
    m = projected + h_e @ ap.w_h.T
    return np.tanh(m, out=m)


def _attend(ap: AttentionParams, outputs: np.ndarray, projected: np.ndarray,
            valid: np.ndarray, h_e: np.ndarray) -> _Attended:
    """Batched readout over time-major story outputs (T x B x h).

    projected is outputs @ W_y^T, shared by the readouts of both endings;
    valid (T x B) marks the steps within each story's length.
    """
    scores = np.where(valid, _attention_m(ap, projected, h_e) @ ap.w, -np.inf)
    alpha = _softmax(scores, axis=0)
    r = np.einsum("tb,tbh->bh", alpha, outputs)
    h_star = np.tanh(r @ ap.w_p.T + h_e @ ap.w_x.T)
    return _Attended(h_e=h_e, alpha=alpha, r=r, h_star=h_star)


def attend(ap: AttentionParams, outputs: np.ndarray,
           h_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention readout over story outputs; returns (h_star, alpha)."""
    column = outputs[:, None]
    att = _attend(ap, column, _project(column, ap.w_y.T),
                  np.ones((len(outputs), 1), dtype=bool), h_e[None])
    return att.h_star[0], att.alpha[:, 0]


@dataclass(frozen=True)
class EmbeddedInstance:
    """An instance mapped to embedding matrices; OOV tokens become zero rows."""
    id: str
    story: np.ndarray
    ending1: np.ndarray
    ending2: np.ndarray
    gold: int | None


def embed_tokens(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """A float64 row per token, at most MAX_SEQUENCE_TOKENS, widened from the
    table's rows; none reads as one OOV row."""
    tokens = tokens[:MAX_SEQUENCE_TOKENS]
    rows = np.zeros((max(len(tokens), 1), table.dim))
    found = [(at, row) for at, row in enumerate(_row(table, t) for t in tokens)
             if row is not None]
    if found:
        at, stored = zip(*found)
        rows[list(at)] = gather(table, stored)
    return rows


def embed_instance(instance: ClozeInstance,
                   table: EmbeddingTable) -> EmbeddedInstance:
    story_tokens = [tok for s in instance.context for tok in tokenize(s)]
    return EmbeddedInstance(
        id=instance.id,
        story=embed_tokens(story_tokens, table),
        ending1=embed_tokens(tokenize(instance.ending1), table),
        ending2=embed_tokens(tokenize(instance.ending2), table),
        gold=instance.gold,
    )


@dataclass
class ForwardCache:
    """What `backward_batch` needs from one batched forward pass.

    Rows are the batch's instances sorted by story length, longest first, so
    the story pass keeps them in row order; order[k] is the caller's index
    of row k. The ending pass holds every first ending, then every second.
    """
    params: ModelParams
    order: np.ndarray
    story: _Encoded
    endings: _Encoded
    projected: np.ndarray | None     # story outputs @ W_y^T, for attention
    attends: tuple[_Attended, _Attended] | None
    o_vec: np.ndarray       # (B, h * blocks of the variant)
    probs: np.ndarray       # (B, 2)
    spent: bool = False     # backward has overwritten the gate activations


def forward_batch(insts: Sequence[EmbeddedInstance],
                  params: ModelParams) -> tuple[np.ndarray, ForwardCache]:
    """Class probabilities (B x 2, in the order given) for a batch."""
    if not insts:
        raise ValueError("cannot run an empty batch")
    d, h_size = params.lstm.input_size, params.lstm.hidden_size
    for inst in insts:
        for seq in (inst.story, inst.ending1, inst.ending2):
            if seq.ndim != 2 or seq.shape[1] != d:
                raise ValueError(f"instance {inst.id}: input width "
                                 f"{seq.shape[-1]} does not match the model's "
                                 f"input_size {d}")
    order = np.argsort([-len(inst.story) for inst in insts], kind="stable")
    rows = [insts[k] for k in order]
    batch = len(rows)
    zeros = np.zeros((batch, h_size))
    story = _encode(params.lstm, [r.story for r in rows], zeros, zeros)
    endings = _encode(params.lstm,
                      [r.ending1 for r in rows] + [r.ending2 for r in rows],
                      np.concatenate([story.h_last, story.h_last]),
                      np.concatenate([story.c_last, story.c_last]))
    e1, e2 = endings.h_last[:batch], endings.h_last[batch:]

    parts = {"e": (e1, e2)}
    projected = attends = None
    if (ap := params.attention) is not None:
        valid = np.arange(batch)[None, :] < story.active[:, None]
        projected = _project(story.h, ap.w_y.T)
        attends = (_attend(ap, story.h, projected, valid, e1),
                   _attend(ap, story.h, projected, valid, e2))
        parts["a"] = (attends[0].h_star, attends[1].h_star)
    o_vec = np.concatenate([parts[part][ending] for part, ending
                            in _REPRESENTATION[params.variant]], axis=1)
    probs = _softmax(o_vec @ params.head.w_out.T + params.head.b_out, axis=1)
    cache = ForwardCache(params=params, order=order, story=story,
                         endings=endings, projected=projected,
                         attends=attends, o_vec=o_vec, probs=probs)
    out = np.empty_like(probs)
    out[order] = probs
    return out, cache


def forward(inst: EmbeddedInstance, params: ModelParams) -> tuple[np.ndarray, ForwardCache]:
    probs, cache = forward_batch([inst], params)
    return probs[0], cache


def cross_entropy(probs: np.ndarray, gold: int) -> float:
    return float(-np.log(probs[gold - 1]))


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in tensors(params).items()}


def _encode_backward(params: LstmParams, enc: _Encoded,
                     d_outputs: np.ndarray | None, d_h_last: np.ndarray,
                     d_c_last: np.ndarray,
                     grads: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Backprop one batched pass; returns gradients w.r.t. (h0, c0) by row.

    d_outputs (T x B x h, column order) carries gradient into every output
    h_t (attention); d_h_last / d_c_last (B x h, row order) carry gradient
    into each row's final state (state seeding, raw ending representation).
    The gate deltas overwrite enc.gates, so a pass is backpropagated once.
    """
    h_size = params.hidden_size
    dh = d_h_last[enc.order]
    dc = d_c_last[enc.order]
    for t in range(len(enc.active) - 1, -1, -1):
        n, s = enc.active[t], enc.start[t]
        dh_t = dh[:n] if d_outputs is None else dh[:n] + d_outputs[t, :n]
        i, f, g, o = _split_gates(enc.gates[s:s + n], h_size)
        tanh_c = np.tanh(enc.c[s:s + n])
        if t > 0:
            prev = enc.start[t - 1]
            prev_c = enc.c[prev:prev + n]
        else:
            prev_c = enc.c0
        dc_t = dc[:n] + dh_t * o * (1.0 - tanh_c ** 2)
        delta = np.empty((n, len(GATES) * h_size))
        da_i, da_f, da_g, da_o = _split_gates(delta, h_size)
        da_i[...] = dc_t * g * i * (1.0 - i)
        da_f[...] = dc_t * prev_c * f * (1.0 - f)
        da_g[...] = dc_t * i * (1.0 - g ** 2)
        da_o[...] = dh_t * tanh_c * o * (1.0 - o)
        dc[:n] = dc_t * f
        dh[:n] = delta @ params.w_h
        enc.gates[s:s + n] = delta
    deltas = enc.gates
    # each token's previous output: h0 for step 0, else the step before's
    steps = np.repeat(np.arange(len(enc.active)), enc.active)
    h_prev = enc.h[steps - 1, np.arange(len(steps)) - enc.start[steps]]
    h_prev[:len(enc.h0)] = enc.h0
    grads["lstm.w_x"] += deltas.T @ enc.xs
    grads["lstm.w_h"] += deltas.T @ h_prev
    grads["lstm.b"] += deltas.sum(axis=0)
    d_h0 = np.empty_like(dh)
    d_c0 = np.empty_like(dc)
    d_h0[enc.order] = dh
    d_c0[enc.order] = dc
    return d_h0, d_c0


def _attend_backward(ap: AttentionParams, outputs: np.ndarray,
                     projected: np.ndarray, attends: Sequence[_Attended],
                     d_h_stars: Sequence[np.ndarray],
                     grads: Mapping[str, np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Backprop readouts over one story batch; returns (d_outputs, [d_h_e])."""
    h_size = outputs.shape[2]
    d_outputs = np.zeros_like(outputs)
    da_total = np.zeros_like(outputs)
    d_h_es = []
    for att, d_h_star in zip(attends, d_h_stars):
        dz = d_h_star * (1.0 - att.h_star ** 2)
        grads["att.w_p"] += dz.T @ att.r
        grads["att.w_x"] += dz.T @ att.h_e
        dr = dz @ ap.w_p
        d_alpha = np.einsum("tbh,bh->tb", outputs, dr)
        d_outputs += att.alpha[:, :, None] * dr
        ds = att.alpha * (d_alpha - (att.alpha * d_alpha).sum(axis=0))
        m = _attention_m(ap, projected, att.h_e)
        grads["att.w"] += m.reshape(-1, h_size).T @ ds.reshape(-1)
        one_minus_m2 = np.subtract(1.0, np.square(m, out=m), out=m)
        da = ds[:, :, None] * ap.w
        da *= one_minus_m2
        del m, one_minus_m2
        da_sum = da.sum(axis=0)
        grads["att.w_h"] += da_sum.T @ att.h_e
        d_h_es.append(dz @ ap.w_x + da_sum @ ap.w_h)
        da_total += da
        del da
    grads["att.w_y"] += da_total.reshape(-1, h_size).T @ outputs.reshape(-1, h_size)
    d_outputs += _project(da_total, ap.w_y)
    return d_outputs, d_h_es


def backward_batch(cache: ForwardCache,
                   golds: Sequence[int]) -> dict[str, np.ndarray]:
    """Exact gradients of the batch's summed cross-entropy for every tensor.

    golds follow the order the instances were given to `forward_batch`. The
    cache is used up: a second call on it raises.
    """
    batch = len(cache.order)
    if len(golds) != batch:
        raise ValueError(f"{len(golds)} gold labels for a batch of {batch}")
    for gold in golds:
        if gold not in (1, 2):
            raise ValueError(f"gold label must be 1 or 2, got {gold!r}")
    if cache.spent:
        raise ValueError("backward already ran on this forward cache")
    cache.spent = True
    params = cache.params
    h_size = params.lstm.hidden_size
    grads = zero_grads(params)

    d_logits = cache.probs.copy()
    d_logits[np.arange(batch), np.asarray(golds)[cache.order] - 1] -= 1.0
    grads["head.w_out"] += d_logits.T @ cache.o_vec
    grads["head.b_out"] += d_logits.sum(axis=0)
    d_o = d_logits @ params.head.w_out
    zero = np.zeros((batch, h_size))
    d_parts = {"e": [zero, zero], "a": [zero, zero]}
    for k, (part, ending) in enumerate(_REPRESENTATION[params.variant]):
        d_parts[part][ending] = d_o[:, k * h_size:(k + 1) * h_size]

    d_last = np.concatenate(d_parts["e"])
    d_story_outputs = None
    if cache.attends is not None:
        d_story_outputs, d_h_es = _attend_backward(
            params.attention, cache.story.h, cache.projected, cache.attends,
            d_parts["a"], grads)
        d_last += np.concatenate(d_h_es)
    d_h0, d_c0 = _encode_backward(params.lstm, cache.endings, None, d_last,
                                  np.zeros_like(d_last), grads)
    _encode_backward(params.lstm, cache.story, d_story_outputs,
                     d_h0[:batch] + d_h0[batch:], d_c0[:batch] + d_c0[batch:],
                     grads)
    return grads


def backward(cache: ForwardCache, gold: int) -> dict[str, np.ndarray]:
    """Exact cross-entropy gradients for every tensor of the model."""
    return backward_batch(cache, [gold])


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: ModelParams) -> AdamState:
    return AdamState(m=zero_grads(params), v=zero_grads(params))


def adam_update(params: ModelParams, state: AdamState,
                grads: Mapping[str, np.ndarray], lr: float) -> None:
    """One in-place Adam step with bias correction."""
    state.step += 1
    t = state.step
    for name, arr in tensors(params).items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        # in place, with the same operations in the same order as
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat *= lr
        m_hat /= v_hat
        arr -= m_hat


@dataclass(frozen=True)
class TrainConfig:
    hidden_size: int
    batch_size: int
    epochs: int
    learning_rate: float
    seed: int
    variant: Variant
    restarts: int = 1       # runs per `harness.train_lstm_cell`

    def __post_init__(self) -> None:
        for name in ("hidden_size", "batch_size", "epochs",
                     "learning_rate", "restarts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")


@dataclass
class TrainResult:
    params: ModelParams
    best_epoch: int
    best_dev_accuracy: float
    epoch_dev_accuracies: tuple[float, ...]
    epoch_train_losses: tuple[float, ...]


def _labels(probs: np.ndarray, insts: Sequence[EmbeddedInstance]) -> np.ndarray:
    """The label in {1, 2} of each instance's row of class probabilities;
    an instance whose probabilities are NaN is refused by its id."""
    bad = np.flatnonzero(np.isnan(probs).any(axis=1))
    if bad.size:
        raise ValueError(f"instance {insts[bad[0]].id}: probabilities are NaN")
    return np.argmax(probs, axis=1) + 1


def predict_neural(inst: EmbeddedInstance, params: ModelParams) -> tuple[int, np.ndarray]:
    probs, _ = forward(inst, params)
    return int(_labels(probs[None], [inst])[0]), probs


def chunked_labels(instances: Iterable,
                   label: Callable[[list], Iterable[int]]) -> list[int]:
    """`label` over chunks of EVAL_BATCH_SIZE, reading one chunk at a time."""
    stream = iter(instances)
    chunks = iter(lambda: list(itertools.islice(stream, EVAL_BATCH_SIZE)), [])
    return [int(k) for chunk in chunks for k in label(chunk)]


def predict_labels(instances: Iterable[EmbeddedInstance],
                   params: ModelParams) -> list[int]:
    """Labels in chunks of EVAL_BATCH_SIZE, reading one chunk at a time."""
    return chunked_labels(instances, lambda chunk: _labels(
        forward_batch(chunk, params)[0], chunk))


def evaluate_model(instances: Sequence[EmbeddedInstance],
                   params: ModelParams) -> float:
    if not instances:
        raise ValueError("nothing to evaluate")
    pairs = zip(predict_labels(instances, params), gold_labels(instances))
    return sum(p == g for p, g in pairs) / len(instances)


def check_split(train: Sequence, dev: Sequence) -> None:
    if not train or not dev:
        raise ValueError("train and dev sets must be nonempty")


def train_model(train: Sequence[EmbeddedInstance],
                dev: Sequence[EmbeddedInstance],
                config: TrainConfig) -> TrainResult:
    """One training run: per-epoch dev eval, best epoch kept (ties -> earlier).

    Each minibatch is one `forward_batch`/`backward_batch` pass; a loss or
    gradient that is not finite stops the run with a ValueError.
    """
    check_split(train, dev)
    golds = gold_labels(train)
    d = train[0].story.shape[1]
    params = init_params(config.seed, d, config.hidden_size, config.variant)
    state = adam_init(params)
    shuffler = random.Random(f"train:{config.seed}")
    order = list(range(len(train)))

    # epoch 1's accuracy (>= 0) beats -1.0, so best_params is always set
    best_epoch = 0
    best_acc = -1.0
    accuracies: list[float] = []
    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        shuffler.shuffle(order)
        epoch_loss = 0.0
        for number, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = order[start:start + config.batch_size]
            batch_golds = [golds[idx] for idx in batch]
            probs, cache = forward_batch([train[idx] for idx in batch], params)
            loss = sum(cross_entropy(p, g) for p, g in zip(probs, batch_golds))
            grads = backward_batch(cache, batch_golds)
            del cache           # free it before the next batch's forward pass
            for g in grads.values():
                g /= len(batch)
            if not (np.isfinite(loss)
                    and all(np.isfinite(g).all() for g in grads.values())):
                raise ValueError(f"epoch {epoch}, batch {number}: loss or "
                                 f"gradient is not finite (loss {loss})")
            adam_update(params, state, grads, config.learning_rate)
            del grads           # likewise: one gradient set alive at a time
            epoch_loss += loss
        losses.append(epoch_loss / len(train))
        acc = evaluate_model(dev, params)
        accuracies.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_params = copy.deepcopy(params)
    return TrainResult(params=best_params, best_epoch=best_epoch,
                       best_dev_accuracy=best_acc,
                       epoch_dev_accuracies=tuple(accuracies),
                       epoch_train_losses=tuple(losses))


CHECKPOINT_VERSION = 2
# Version 1 stored each gate's LSTM tensors apart, under these names.
_V1_GATE_TENSORS = {"lstm.w_x": "lstm.w_x{}", "lstm.w_h": "lstm.w_h{}",
                    "lstm.b": "lstm.b_{}"}


def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "variant": params.variant.value,
        "input_size": params.lstm.input_size,
        "hidden_size": params.lstm.hidden_size,
    }
    arrays = dict(tensors(params))
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    with open(path, "wb") as handle:   # keep the exact path (no .npz appended)
        np.savez(handle, **arrays)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint; version 1 gate tensors are stacked in gate order.
    Every tensor's dtype and shape are checked from its .npy header before
    any tensor is decompressed; a tensor that is not real numbers, has the
    wrong shape, or holds a NaN or an infinity, is a ParseError naming it."""
    path = Path(path)
    # np.load of a path leaves the file open when it raises: hold the handle
    # here, so every way out closes it
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ParseError(f"{path}: not an LSTM checkpoint "
                             f"(no .npz archive)")
        with archive as data:
            if "__meta__" not in data:
                raise ParseError(f"{path}: not an LSTM checkpoint "
                                 f"(no metadata)")
            try:
                meta = json.loads(str(data["__meta__"]))
            except ValueError as exc:   # JSONDecodeError, or an object array
                raise ParseError(f"{path}: bad checkpoint metadata "
                                 f"(not JSON: {exc})") from None
            if not isinstance(meta, dict):
                raise ParseError(f"{path}: bad checkpoint metadata "
                                 f"(not a JSON object)")
            version = meta.get("version")
            if version not in (1, CHECKPOINT_VERSION):
                raise ParseError(f"{path}: unsupported checkpoint version "
                                 f"{version!r}")
            try:
                d, h = int(meta["input_size"]), int(meta["hidden_size"])
                variant = Variant(meta["variant"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad checkpoint metadata "
                                 f"({type(exc).__name__}: {exc})") from None
            if min(d, h) <= 0:
                raise ParseError(f"{path}: bad checkpoint metadata "
                                 f"(input_size {d} and hidden_size {h} "
                                 f"must be positive)")

            names = set(data.zip.namelist())

            def check(part: str, shape: tuple[int, ...]) -> None:
                """Check a tensor's dtype and shape from its .npy header."""
                if f"{part}.npy" not in names:
                    raise ParseError(f"{path}: checkpoint missing tensor "
                                     f"{part!r}")
                with data.zip.open(f"{part}.npy") as member:
                    try:
                        npy_version = np.lib.format.read_magic(member)
                        read_header = (np.lib.format.read_array_header_1_0
                                       if npy_version == (1, 0) else
                                       np.lib.format.read_array_header_2_0)
                        stored_shape, _, dtype = read_header(member)
                    except (ValueError, zipfile.BadZipFile) as exc:
                        raise ParseError(f"{path}: tensor {part!r} is "
                                         f"unreadable ({exc})") from None
                    room = (data.zip.getinfo(member.name).file_size
                            - member.tell())
                if dtype.kind not in "biuf":
                    raise ParseError(f"{path}: tensor {part!r} holds {dtype} "
                                     f"values, not real numbers")
                if stored_shape != shape:
                    raise ParseError(f"{path}: tensor {part!r} has shape "
                                     f"{stored_shape}, expected {shape}")
                if math.prod(shape) * dtype.itemsize > room:
                    raise ParseError(f"{path}: tensor {part!r} is unreadable "
                                     f"(its header needs more than the "
                                     f"{room} bytes stored)")

            # init_params allocates from the sizes: check them against the
            # stored input and recurrent weights first
            gates, suffix = (1, GATES[0]) if version == 1 else (len(GATES), "")
            check(f"lstm.w_x{suffix}", (gates * h, d))
            check(f"lstm.w_h{suffix}", (gates * h, h))
            params = init_params(0, d, h, variant)
            slots = []
            for name, arr in tensors(params).items():
                parts = [name]
                if version == 1 and name in _V1_GATE_TENSORS:
                    parts = [_V1_GATE_TENSORS[name].format(g) for g in GATES]
                rows = arr.shape[0] // len(parts)
                for k, part in enumerate(parts):
                    check(part, (rows,) + arr.shape[1:])
                    slots.append((part, arr[k * rows:(k + 1) * rows]))
            for part, slot in slots:
                try:
                    slot[...] = data[part]
                except (ValueError, zipfile.BadZipFile) as exc:  # a bad CRC
                    raise ParseError(f"{path}: tensor {part!r} is unreadable "
                                     f"({exc})") from None
                if not np.isfinite(slot).all():
                    raise ParseError(f"{path}: tensor {part!r} has "
                                     f"non-finite values")
    return params
