"""Attention BiLSTM text classifier in plain numpy, with exact gradients.

The network embeds a token sequence, runs an LSTM in both directions,
pools the per-token states with a learned attention (a softmax over
v_att . tanh(W_att h_t + b_att)) and maps the pooled vector through a
linear output head: one sigmoid unit for binary prediction, or a softmax
layer for multi-class. The backward pass is written by hand and verified
against central finite differences in the test suite, so everything runs
in float64.

One code path runs a stack of M independent models, each over its own
minibatch of B sequences. Stacked parameters carry a leading model axis
(``emb`` (M,V,E), ``W_f`` (M,4H,E+H), ...; see :func:`stack`); the
models share no weights, and every matmul is batched over the model
axis (and over the two LSTM directions). :func:`pad` pads all the
minibatches on the right with id 0 to one length T and returns (M, B, T)
ids, a mask of the real positions and a per-sequence reversal index. The
only Python loop is over time: the LSTM works on time-major arrays
(T, 2, M, B, d), so each step updates every sequence of every model in
both directions at once, and attention and the output head work on
(M, B, T, 2H) and (M, B, 2H). Masking makes each sequence's outputs and
gradients those of the sequence run alone:

- the backward-direction LSTM reads each sequence reversed within its
  own length, so in both directions the padding comes after every real
  position and never reaches a real position's state;
- attention scores at padded positions are -inf, so their weights are 0;
- the gradient reaching the LSTM states is zero at padded positions;
- the embedding gradient is taken from real tokens only (the pad id 0 is
  also the id of ``<entity>``).

The single-model functions (``init_params``, ``forward_batch``,
``forward``, ``backward``, ``loss_from_cache``, ``batch_loss`` and
``batch_loss_and_grads``) take unstacked parameters and are the M = 1
case of the stacked ones; ``forward`` and ``backward`` on one sequence
are calls with a batch of one.

Parameter names of one model (H = hidden units per direction, E =
embedding size):
  emb (V,E);  W_f,W_b (4H,E+H);  b_f,b_b (4H,)   gate order i,f,o,g
  W_att (2H,2H); b_att,v_att (2H,);  W_out (n_out,2H); b_out (n_out,)
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    overflows."""
    ex = np.exp(-np.abs(x))
    # max(ex, 1) is 1 where x >= 0, and max(ex, 0) is ex elsewhere
    return np.maximum(ex, (x >= 0).astype(float)) / (1.0 + ex)


def softmax(x):
    """Softmax over the last axis."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def init_params(vocab_size: int, d_e: int, d_h: int, n_out: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    def glorot(shape):
        bound = np.sqrt(6.0 / (shape[0] + shape[-1]))
        return rng.uniform(-bound, bound, size=shape)

    params = {
        "emb": rng.normal(0.0, 0.1, size=(vocab_size, d_e)),
        "W_f": glorot((4 * d_h, d_e + d_h)),
        "b_f": np.zeros(4 * d_h),
        "W_b": glorot((4 * d_h, d_e + d_h)),
        "b_b": np.zeros(4 * d_h),
        "W_att": glorot((2 * d_h, 2 * d_h)),
        "b_att": np.zeros(2 * d_h),
        "v_att": glorot((2 * d_h,)),
        "W_out": glorot((n_out, 2 * d_h)),
        "b_out": np.zeros(n_out),
    }
    # start with an open forget gate
    params["b_f"][d_h:2 * d_h] = 1.0
    params["b_b"][d_h:2 * d_h] = 1.0
    return params


def zeros_like_params(params):
    return {name: np.zeros_like(p) for name, p in params.items()}


def stack(models: list[dict]) -> dict[str, np.ndarray]:
    """The parameters of several models, stacked along a new leading
    model axis."""
    return {name: np.stack([p[name] for p in models]) for name in models[0]}


def _one(params: dict) -> dict:
    """One model's parameters as a stack of one (views)."""
    return {name: p[None] for name, p in params.items()}


def pad(batches):
    """Padded ids (M, B, T) of one minibatch per model, the mask of real
    positions (M, B, T), and the index (M, B, T) that reverses each
    sequence within its own length (and maps every padded position to
    itself). Every minibatch holds B sequences; T is the longest
    sequence."""
    seqs = [np.asarray(s, dtype=int) for batch in batches for s in batch]
    lengths = np.array([len(s) for s in seqs])
    if not seqs or lengths.min() == 0:
        raise ValueError("empty token sequence")
    if any(len(b) != len(batches[0]) for b in batches):
        raise ValueError("stacked minibatches differ in size")
    lengths = lengths.reshape(len(batches), -1, 1)
    steps = np.arange(lengths.max())
    mask = steps < lengths
    ids = np.zeros(mask.shape, dtype=int)
    ids[mask] = np.concatenate(seqs)
    rev = np.where(mask, lengths - 1 - steps, steps)
    return ids, mask, rev


def _lstm_forward(X, W, b, d_h):
    """Both LSTM directions of every model over time-major inputs X
    (T, 2, M, B, E), with weights W (2, M, 4H, E+H) and biases b (2, M, 4H):
    the states (T, 2, M, B, d_h) and what ``_lstm_backward`` needs."""
    T, D, M, B, d_e = X.shape
    zcat = np.empty((T, D, M, B, d_e + d_h))  # [x_t, h_{t-1}] of every step
    zcat[..., :d_e] = X
    ifo = np.empty((T, D, M, B, 3 * d_h))
    g = np.empty((T, D, M, B, d_h))
    c = np.zeros((T + 1, D, M, B, d_h))       # c[t] is the cell state before step t
    tc = np.empty((T, D, M, B, d_h))
    H = np.empty((T, D, M, B, d_h))
    h = np.zeros((D, M, B, d_h))
    Wt = W.transpose(0, 1, 3, 2)
    b = b[:, :, None, :]
    for t in range(T):
        zcat[t, ..., d_e:] = h
        z = zcat[t] @ Wt + b
        ifo[t] = sigmoid(z[..., :3 * d_h])
        g[t] = np.tanh(z[..., 3 * d_h:])
        c[t + 1] = ifo[t, ..., d_h:2 * d_h] * c[t] + ifo[t, ..., :d_h] * g[t]
        tc[t] = np.tanh(c[t + 1])
        h = H[t] = ifo[t, ..., 2 * d_h:] * tc[t]
    return H, (zcat, ifo, g, c, tc)


def _lstm_backward(dH, W, cache, d_e):
    """Gradients of both LSTM directions of every model from dL/dH
    (T, 2, M, B, d_h): the input gradient (T, 2, M, B, E), dW and db."""
    zcat, ifo, g, c, tc = cache
    T, D, M, B, d_h = dH.shape
    dz = np.empty((T, D, M, B, 4 * d_h))
    dX = np.empty((T, D, M, B, d_e))
    dh_next = np.zeros((D, M, B, d_h))
    dc_next = np.zeros((D, M, B, d_h))
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh_next
        dc = dh * ifo[t, ..., 2 * d_h:] * (1.0 - tc[t] * tc[t]) + dc_next
        d = dz[t]
        d[..., :d_h] = dc * g[t]                 # di
        d[..., d_h:2 * d_h] = dc * c[t]          # df
        d[..., 2 * d_h:3 * d_h] = dh * tc[t]     # do
        d[..., :3 * d_h] *= ifo[t]
        d[..., :3 * d_h] *= 1.0 - ifo[t]
        d[..., 3 * d_h:] = dc * ifo[t, ..., :d_h] * (1.0 - g[t] * g[t])
        dzcat = d @ W
        dX[t] = dzcat[..., :d_e]
        dh_next = dzcat[..., d_e:]
        dc_next = dc * ifo[t, ..., d_h:2 * d_h]
    dz = dz.transpose(1, 2, 0, 3, 4).reshape(D, M, T * B, -1)
    zs = zcat.transpose(1, 2, 0, 3, 4).reshape(D, M, T * B, -1)
    return dX, dz.transpose(0, 1, 3, 2) @ zs, dz.sum(axis=2)


def forward_stack(params: dict, padded, d_h: int) -> dict:
    """Run a stack of models (stacked ``params``), each over its own
    minibatch of the :func:`pad` output ``padded``.

    Returns a cache holding every intermediate needed by
    :func:`backward_stack`, plus ``prob`` (M, B) for a binary head or
    ``class_probs`` (M, B, n_out) for a softmax head, and the attention
    weights ``attention`` (M, B, T), zero at padded positions.
    """
    ids, mask, rev = padded
    M, B, _T = ids.shape
    m, b = np.arange(M)[:, None, None], np.arange(B)[None, :, None]
    W = np.stack([params["W_f"], params["W_b"]])
    bias = np.stack([params["b_f"], params["b_b"]])
    time_ids = np.stack([ids.transpose(2, 0, 1), ids[m, b, rev].transpose(2, 0, 1)], axis=1)
    H, cache_lstm = _lstm_forward(params["emb"][m[:, :, 0], time_ids], W, bias, d_h)
    H2 = np.concatenate([H[:, 0].transpose(1, 2, 0, 3), H[:, 1][rev, m, b]], axis=3)
    U = np.tanh(H2 @ params["W_att"].transpose(0, 2, 1)[:, None]
                + params["b_att"][:, None, None])
    scores = (U @ params["v_att"][:, None, :, None])[..., 0]
    attention = softmax(np.where(mask, scores, -np.inf))
    q = (attention[..., None, :] @ H2)[..., 0, :]
    logits = q @ params["W_out"].transpose(0, 2, 1) + params["b_out"][:, None]

    cache = {
        "ids": ids, "mask": mask, "rev": rev, "d_h": d_h, "W": W,
        "cache_lstm": cache_lstm, "H2": H2,
        "U": U, "attention": attention, "q": q, "logits": logits,
    }
    if logits.shape[-1] == 1:
        cache["prob"] = sigmoid(logits[..., 0])
    else:
        cache["class_probs"] = softmax(logits)
    return cache


def stack_losses(cache: dict, y) -> np.ndarray:
    """Each model's stable loss summed over its minibatch (M,): binary
    cross-entropy on the logit, or multi-class cross-entropy. ``y`` (M, B)
    holds one label per sequence."""
    logits = cache["logits"]
    y = np.asarray(y)
    if logits.shape[-1] == 1:
        l = logits[..., 0]
        losses = np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))
    else:
        mx = logits.max(axis=-1)
        lse = mx + np.log(np.exp(logits - mx[..., None]).sum(axis=-1))
        losses = lse - np.take_along_axis(logits, y.astype(int)[..., None], -1)[..., 0]
    return losses.sum(axis=-1)


def backward_stack(params: dict, cache: dict, y) -> dict:
    """Gradients of :func:`stack_losses` for every stacked parameter
    tensor: model j's gradient is that of its own loss."""
    d_h = cache["d_h"]
    d_e = params["emb"].shape[-1]
    mask, rev, H2, U = cache["mask"], cache["rev"], cache["H2"], cache["U"]
    alpha = cache["attention"]
    logits = cache["logits"]
    M, B, T = mask.shape
    m, b = np.arange(M)[:, None, None], np.arange(B)[None, :, None]
    y = np.asarray(y)

    if logits.shape[-1] == 1:
        dlogits = sigmoid(logits) - y[..., None]
    else:
        dlogits = softmax(logits)
        dlogits[m[..., 0], b[..., 0], y.astype(int)] -= 1.0

    grads = {"W_out": dlogits.transpose(0, 2, 1) @ cache["q"], "b_out": dlogits.sum(axis=1)}
    dq = dlogits @ params["W_out"]

    dalpha = (H2 @ dq[..., None])[..., 0]
    dH2 = alpha[..., None] * dq[:, :, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=-1, keepdims=True))
    width = 2 * d_h
    grads["v_att"] = (dscores.reshape(M, 1, B * T) @ U.reshape(M, B * T, width))[:, 0]
    dpre = dscores[..., None] * params["v_att"][:, None, None] * (1.0 - U * U)
    grads["W_att"] = dpre.reshape(M, -1, width).transpose(0, 2, 1) @ H2.reshape(M, -1, width)
    grads["b_att"] = dpre.sum(axis=(1, 2))
    dH2 += dpre @ params["W_att"][:, None]
    dH2[~mask] = 0.0

    dH = np.stack([dH2[..., :d_h].transpose(2, 0, 1, 3),
                   dH2[m, b, rev, d_h:].transpose(2, 0, 1, 3)], axis=1)
    dXs, dW, db = _lstm_backward(dH, cache["W"], cache["cache_lstm"], d_e)
    grads["W_f"], grads["W_b"] = dW
    grads["b_f"], grads["b_b"] = db
    dX = dXs[:, 0].transpose(1, 2, 0, 3) + dXs[:, 1][rev, m, b]

    grads["emb"] = np.zeros_like(params["emb"])
    np.add.at(grads["emb"], (np.broadcast_to(m, mask.shape)[mask], cache["ids"][mask]),
              dX[mask])
    return {name: grads[name] for name in params}


# ---------------------------------------------------------------------------
# one model: the M = 1 case


def forward_batch(params: dict, sequences, d_h: int) -> dict:
    """Run one model over a batch of token-id sequences.

    Returns a cache for :func:`backward` and :func:`loss_from_cache`, with
    ``prob`` (B,) for a binary head or ``class_probs`` (B, n_out) for a
    softmax head, and the attention weights ``attention`` (B, T), zero at
    padded positions.
    """
    stacked = forward_stack(_one(params), pad([sequences]), d_h)
    cache = {name: stacked[name][0]
             for name in ("logits", "attention", "prob", "class_probs") if name in stacked}
    cache["stack"] = stacked
    return cache


def forward(params: dict, token_ids, d_h: int) -> dict:
    """Run the network over one token-id sequence: the cache of a batch
    of one, with ``prob`` (binary head) a float, ``class_probs`` (softmax
    head) a vector, and the sequence's attention weights ``alpha``."""
    cache = forward_batch(params, [token_ids], d_h)
    cache["alpha"] = cache["attention"][0]
    if "prob" in cache:
        cache["prob"] = float(cache["prob"][0])
    else:
        cache["class_probs"] = cache["class_probs"][0]
    return cache


def loss_from_cache(cache: dict, y) -> float:
    """Stable loss summed over the batch (see :func:`stack_losses`). ``y``
    holds one label per sequence, or is a single label for a batch of
    one."""
    return float(stack_losses(cache["stack"], np.atleast_1d(y)[None])[0])


def backward(params: dict, cache: dict, y) -> dict:
    """Gradients of :func:`loss_from_cache` for every parameter tensor,
    summed over the batch."""
    grads = backward_stack(_one(params), cache["stack"], np.atleast_1d(y)[None])
    return {name: g[0] for name, g in grads.items()}


def batch_loss_and_grads(params: dict, sequences, labels, d_h: int):
    """Summed loss and summed gradients over a batch of sequences."""
    cache = forward_batch(params, sequences, d_h)
    return loss_from_cache(cache, labels), backward(params, cache, labels)


def batch_loss(params: dict, sequences, labels, d_h: int) -> float:
    return loss_from_cache(forward_batch(params, sequences, d_h), labels)


class Adam:
    """Adam optimizer over a named-parameter dict, updating in place.

    The parameters and both moment estimates each live in one flat
    float64 buffer, and ``params`` is rebound to views of the parameter
    buffer, so a step is one fused update over every tensor. For stacked
    parameters :meth:`take` keeps some models of the stack and drops the
    rest; the step count is shared, which is exact because every model of
    the stack started at the same step.
    """

    def __init__(self, params: dict, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        flat = np.concatenate([np.ravel(p) for p in params.values()], dtype=float)
        self._bind({name: np.shape(p) for name, p in params.items()},
                   flat, np.zeros_like(flat), np.zeros_like(flat))

    def _bind(self, shapes: dict, flat, m, v) -> None:
        self.shapes = shapes
        self.flat, self.m, self.v = flat, m, v
        self._g = np.empty_like(flat)
        self._tmp = np.empty_like(flat)
        self.params.update(self._views(flat))

    def _views(self, buf) -> dict[str, np.ndarray]:
        views, offset = {}, 0
        for name, shape in self.shapes.items():
            size = int(np.prod(shape))
            views[name] = buf[offset:offset + size].reshape(shape)
            offset += size
        return views

    def take(self, index) -> None:
        """Keep the models at ``index`` of the leading (model) axis, with
        their moment estimates, and drop the others."""
        bufs = [np.concatenate([view[index].ravel() for view in self._views(buf).values()])
                for buf in (self.flat, self.m, self.v)]
        shapes = {name: (len(index),) + shape[1:] for name, shape in self.shapes.items()}
        self._bind(shapes, *bufs)

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        np.concatenate([np.ravel(grads[name]) for name in self.shapes], out=g)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.sqrt(np.divide(v, 1.0 - b2 ** self.t, out=tmp), out=tmp)
        tmp += self.eps
        np.divide(m, 1.0 - b1 ** self.t, out=g)
        g *= self.lr
        self.flat -= np.divide(g, tmp, out=g)
