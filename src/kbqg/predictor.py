"""Per-substructure probability predictors.

For every frequent query substructure we train an independent binary
classifier that estimates the probability that a question's (unknown)
query contains that substructure. Questions are lowercased, stripped of
punctuation, and entity mentions are replaced by the special token
``<entity>`` before prediction.

Two interchangeable predictor families are provided: the attention
BiLSTM (default) and a deterministic bag-of-words logistic baseline.
Training a substructure with only positive or only negative examples
falls back to a constant predictor at the clamped label prevalence.

The rank-without-substructures ablation instead trains one softmax
classifier over whole structures. It and the per-substructure BiLSTMs
share one example builder (``_examples``) and one training loop
(``_fit``: minibatch Adam with early stopping on the dev loss). ``_fit``
trains a stack of models at once (``nn.forward_stack``); the classifier
is a stack of one. The per-substructure BiLSTMs of a catalog are dealt
out in turn into one stack per available CPU, and the stacks are fitted
in parallel threads (numpy releases the GIL in its loops and BLAS
calls). The models keep their own weights, random streams and early
stopping, so each comes out as it would if trained alone, up to float64
rounding; a step runs every active model of a stack over its own
minibatch in one batched pass with one Adam update.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from . import nn
from .canon import StructureKey, canonical_key
from .io import located, read_json, write_json
from .mining import (
    SubstructureCatalog,
    contained_frequent_keys,
    key_from_json,
    key_to_json,
)
from .ranking import EXISTING, ScoredStructure

ENTITY_TOKEN = "<entity>"
UNK_TOKEN = "<unk>"

_WORD_RE = re.compile(r"[a-z0-9']+")

DEV_FRACTION = 0.1  # share of the training pairs held out when no dev set is given
UNK_RATE = 0.3      # chance that a training occurrence of a singleton word reads <unk>


class DegenerateLabelWarning(UserWarning):
    pass


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty token sequence")


def preprocess(question: str, mention_spans=()) -> TokenSequence:
    """Tokenize a question, collapsing each mention span to one
    ``<entity>`` token. Spans are (start, end) character offsets and must
    not overlap."""
    spans = sorted((int(s), int(e)) for s, e in mention_spans)
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ValueError("overlapping mention spans")
    tokens: list[str] = []
    pos = 0
    for s, e in spans:
        tokens.extend(_WORD_RE.findall(question[pos:s].lower()))
        tokens.append(ENTITY_TOKEN)
        pos = e
    tokens.extend(_WORD_RE.findall(question[pos:].lower()))
    if not tokens:
        tokens = [UNK_TOKEN]
    return TokenSequence(tuple(tokens))


def mention_spans_of(pair) -> list[tuple[int, int]]:
    return [(m.start, m.end) for m in pair.mentions]


@dataclass
class TrainConfig:
    d_e: int = 100
    d_h: int = 128
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    patience: int = 5
    seed: int = 13

    def __post_init__(self):
        if self.d_e <= 0 or self.d_h <= 0:
            raise ValueError("dimensions must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be >= 0")
        if not self.learning_rate >= 0:  # also rejects nan
            raise ValueError("learning_rate must be >= 0")


def build_vocab(sequences) -> dict[str, int]:
    counts: dict[str, int] = {}
    for seq in sequences:
        for tok in seq.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    vocab = {ENTITY_TOKEN: 0, UNK_TOKEN: 1}
    for tok in sorted(counts):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return vocab


def encode(seq: TokenSequence, vocab: dict[str, int]) -> list[int]:
    unk = vocab[UNK_TOKEN]
    return [vocab.get(tok, unk) for tok in seq.tokens]


def _model_seed(base_seed: int, key: StructureKey) -> np.random.Generator:
    digest = hashlib.sha256(key.canonical.encode()).digest()
    return np.random.default_rng([base_seed, int.from_bytes(digest[:8], "big")])


# ---------------------------------------------------------------------------
# predictor implementations


@dataclass
class PredictorModel:
    """Learned parameters of one substructure's attention-BiLSTM predictor."""

    vocab: dict[str, int]
    params: dict[str, np.ndarray]
    d_e: int
    d_h: int
    dev_accuracy: float = float("nan")

    def forward(self, seq: TokenSequence):
        """Probability that the substructure is contained, plus the
        attention weights over the tokens."""
        cache = nn.forward(self.params, encode(seq, self.vocab), self.d_h)
        return cache["prob"], cache["alpha"].copy()

    def predict_proba(self, seq: TokenSequence) -> float:
        return self.forward(seq)[0]


@dataclass
class BowLogisticModel:
    """Bag-of-words logistic regression over the same vocabulary."""

    vocab: dict[str, int]
    weights: np.ndarray  # (|vocab| + 1,), last entry is the bias
    dev_accuracy: float = float("nan")

    def _features(self, seq: TokenSequence) -> np.ndarray:
        x = np.zeros(len(self.vocab) + 1)
        for i in encode(seq, self.vocab):
            x[i] = 1.0
        x[-1] = 1.0
        return x

    def forward(self, seq: TokenSequence):
        p = self.predict_proba(seq)
        n = len(seq.tokens)
        return p, np.full(n, 1.0 / n)

    def predict_proba(self, seq: TokenSequence) -> float:
        z = float(self._features(seq) @ self.weights)
        # keep strictly inside (0, 1)
        return float(np.clip(nn.sigmoid(np.array([z]))[0], 1e-12, 1.0 - 1e-12))


@dataclass
class ConstantModel:
    """Fallback when a substructure has a degenerate label set."""

    probability: float
    dev_accuracy: float = float("nan")

    def forward(self, seq: TokenSequence):
        n = len(seq.tokens)
        return self.probability, np.full(n, 1.0 / n)

    def predict_proba(self, seq: TokenSequence) -> float:
        return self.probability


# ---------------------------------------------------------------------------
# training


def _split_dev(items, rng: np.random.Generator):
    idx = rng.permutation(len(items))
    n_dev = max(1, int(round(len(items) * DEV_FRACTION))) if len(items) > 4 else 0
    dev_idx = set(idx[:n_dev].tolist())
    train = [items[i] for i in range(len(items)) if i not in dev_idx]
    dev = [items[i] for i in sorted(dev_idx)]
    return train, dev


def _examples(pairs, dev_pairs, cfg: TrainConfig, label):
    """Train examples, dev examples and the training vocabulary; the
    examples of each set are ``(TokenSequences, [label(query)])``.
    Without ``dev_pairs`` a seeded slice of ``pairs`` is held out as the
    dev set."""
    if dev_pairs is None:
        pairs, dev_pairs = _split_dev(list(pairs), np.random.default_rng(cfg.seed))

    def examples(some_pairs):
        return ([preprocess(p.question, mention_spans_of(p)) for p in some_pairs],
                [label(p.query) for p in some_pairs])

    train_ex = examples(pairs)
    return train_ex, examples(dev_pairs), build_vocab(train_ex[0])


def _accuracy(predicted, labels) -> float:
    """Share of positions where ``predicted`` equals ``labels``."""
    if not len(labels):
        return float("nan")
    return float(np.mean(np.asarray(predicted) == np.asarray(labels)))


def _fit(params, seqs, labels, dev_seqs, dev_labels, vocab, cfg: TrainConfig, rngs,
         drop_ids=()):
    """Train a stack of models at once: minibatch Adam on each model's
    mean example loss, with early stopping on its summed dev loss.

    ``params`` is stacked (``nn.stack``) over the M models; the models
    share the examples ``seqs`` and ``dev_seqs`` and read their own labels
    ``labels`` (M, N) and ``dev_labels`` (M, N_dev). Each epoch model j
    visits the examples in an order drawn from ``rngs[j]``, and during
    training every token id in ``drop_ids`` becomes ``<unk>`` with
    probability ``UNK_RATE``, also drawn from ``rngs[j]``. Each step runs
    every active model over its own minibatch, padded to the longest
    example among the stack's minibatches, in one stacked pass and one
    Adam update; each epoch's dev losses and the final accuracies are one
    stacked pass each.
    A model whose dev loss has not improved for more than ``cfg.patience``
    epochs leaves the stack: it makes no more draws and gets no more
    updates. Returns the stacked parameters of each model's best dev epoch
    (the last ones without a dev set) and each model's accuracy on the dev
    examples (the training examples without a dev set): ``prob >= 0.5``
    for a binary head, the argmax class for a softmax head."""
    encoded = [encode(seq, vocab) for seq in seqs]
    dev_ids = [encode(seq, vocab) for seq in dev_seqs]
    # the training examples padded once; each step cuts its minibatches from
    # them and trims the padding to the longest example it holds
    padded = [a[0] for a in nn.pad([encoded])] if encoded else None
    lengths = padded[1].sum(axis=1) if encoded else None
    dev_padded = nn.pad([dev_ids]) if dev_ids else None
    drop_ids = np.asarray(drop_ids, dtype=int)
    droppable = np.zeros(len(vocab), dtype=bool)
    droppable[drop_ids] = True
    unk = vocab[UNK_TOKEN]

    opt = nn.Adam(params, lr=cfg.learning_rate)
    best = {k: v.copy() for k, v in params.items()}
    best_loss = np.full(len(rngs), np.inf)
    stale = np.zeros(len(rngs), dtype=int)
    active = np.arange(len(rngs))
    for _epoch in range(cfg.epochs):
        orders = np.array([rngs[j].permutation(len(encoded)) for j in active])
        # at learning rate 0 no step would move the parameters
        for start in range(0, len(encoded) if cfg.learning_rate else 0, cfg.batch_size):
            batch = orders[:, start:start + cfg.batch_size]
            steps = lengths[batch].max()
            ids, mask, rev = (a[batch, :steps] for a in padded)
            if drop_ids.size:
                # each model draws for its examples in batch order, token by token
                tokens = ids[mask]
                draws = np.concatenate([rngs[j].random(n)
                                        for j, n in zip(active, mask.sum(axis=(1, 2)))])
                ids[mask] = np.where((draws < UNK_RATE) & droppable[tokens], unk, tokens)
            cache = nn.forward_stack(params, (ids, mask, rev), cfg.d_h)
            grads = nn.backward_stack(params, cache,
                                      np.take_along_axis(labels[active], batch, axis=1))
            for g in grads.values():
                g /= batch.shape[1]
            opt.step(grads)
        if dev_padded is None:
            continue
        dev_loss = nn.stack_losses(
            nn.forward_stack(params, [a.repeat(len(active), axis=0) for a in dev_padded],
                             cfg.d_h),
            dev_labels[active])
        improved = dev_loss < best_loss[active] - 1e-9
        for name, p in params.items():
            best[name][active[improved]] = p[improved]
        best_loss[active[improved]] = dev_loss[improved]
        stale[active] = np.where(improved, 0, stale[active] + 1)
        keep = stale[active] <= cfg.patience
        if not keep.all():
            active = active[keep]
            if not active.size:
                break
            opt.take(np.flatnonzero(keep))
    if dev_padded is None:
        best = params
        dev_padded = [a[None] for a in padded] if encoded else None
        dev_labels = labels
    accuracies = [float("nan")] * len(rngs)
    if dev_padded is not None:
        out = nn.forward_stack(best, [a.repeat(len(rngs), axis=0) for a in dev_padded],
                               cfg.d_h)
        predicted = out["prob"] >= 0.5 if "prob" in out else out["class_probs"].argmax(axis=-1)
        accuracies = [_accuracy(p, y) for p, y in zip(predicted, dev_labels)]
    return best, accuracies


def _train_bow(seqs, y, vocab):
    X = np.zeros((len(seqs), len(vocab) + 1))
    for row, seq in enumerate(seqs):
        for i in encode(seq, vocab):
            X[row, i] = 1.0
        X[row, -1] = 1.0
    lam = 1e-3

    def objective(w):
        z = X @ w
        loss = np.sum(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        loss += 0.5 * lam * float(w @ w)
        grad = X.T @ (nn.sigmoid(z) - y) + lam * w
        return loss, grad

    res = minimize(objective, np.zeros(len(vocab) + 1), jac=True, method="L-BFGS-B",
                   options={"maxiter": 200})
    return BowLogisticModel(vocab, res.x)


def train(pairs, catalog: SubstructureCatalog, cfg: TrainConfig,
          dev_pairs=None, predictor: str = "bilstm") -> dict[StructureKey, object]:
    """Train one independent predictor per frequent substructure, of the
    ``predictor`` family (``bilstm`` or ``bow``).

    Labels come from substructure containment in each pair's gold query.
    When ``dev_pairs`` is omitted a deterministic slice of the training
    pairs is held out for early stopping.
    """
    if predictor not in ("bilstm", "bow"):
        raise ValueError(f"unknown predictor family {predictor!r}")
    if not catalog.substructures:
        raise ValueError("catalog has no frequent substructures")
    (seqs, contained), (dev_seqs, dev_contained), vocab = _examples(
        pairs, dev_pairs, cfg, lambda query: contained_frequent_keys(query, catalog))
    counts: dict[str, int] = {}
    for seq in seqs:
        for tok in seq.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    singleton_ids = np.array(sorted(vocab[t] for t, c in counts.items() if c == 1),
                             dtype=int)
    keys = catalog.frequent_keys
    labels = np.array([[float(key in c) for c in contained] for key in keys])
    dev_labels = np.array([[float(key in c) for c in dev_contained] for key in keys])

    models: dict[StructureKey, object] = {}
    stacked = []
    for i, (key, y, dev_y) in enumerate(zip(keys, labels, dev_labels)):
        if len(set(y)) < 2:
            prob = float(np.clip(y[0] if len(y) else 0.5, 0.05, 0.95))
            warnings.warn(
                f"substructure {key.canonical!r} has a degenerate label set; "
                f"using constant probability {prob}", DegenerateLabelWarning)
            models[key] = ConstantModel(prob)
        elif predictor == "bow":
            model = _train_bow(seqs, y, vocab)
            scored, scored_y = (dev_seqs, dev_y) if dev_seqs else (seqs, y)
            model.dev_accuracy = _accuracy(
                [model.predict_proba(seq) >= 0.5 for seq in scored], scored_y)
            models[key] = model
        else:
            stacked.append(i)
    if stacked:
        # the BiLSTM predictors share no weights: deal them out into one
        # stack per CPU and fit the stacks in parallel threads
        n = min(len(stacked), _cpu_count())
        shards = [stacked[k::n] for k in range(n)]
        rngs = [[_model_seed(cfg.seed, keys[i]) for i in shard] for shard in shards]
        inits = [nn.stack([nn.init_params(len(vocab), cfg.d_e, cfg.d_h, 1, rng)
                           for rng in shard_rngs]) for shard_rngs in rngs]

        def fit(shard, params, shard_rngs):
            return _fit(params, seqs, labels[shard], dev_seqs, dev_labels[shard], vocab,
                        cfg, shard_rngs, singleton_ids)

        with ThreadPoolExecutor(n) as pool:
            fitted = list(pool.map(fit, shards, inits, rngs))
        for shard, (params, accuracies) in zip(shards, fitted):
            for j, (i, accuracy) in enumerate(zip(shard, accuracies)):
                models[keys[i]] = PredictorModel(
                    vocab, {name: p[j].copy() for name, p in params.items()},
                    cfg.d_e, cfg.d_h, accuracy)
    return {key: models[key] for key in keys}


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def predict_all(models: dict[StructureKey, object],
                seq: TokenSequence) -> dict[StructureKey, float]:
    """One probability per frequent substructure."""
    return {key: model.predict_proba(seq) for key, model in models.items()}


# ---------------------------------------------------------------------------
# whole-structure multi-class classifier (the rank-without-substructures
# ablation): one softmax over all mined structures instead of independent
# per-substructure predictors


@dataclass
class StructureClassifier:
    vocab: dict[str, int]
    params: dict[str, np.ndarray]
    d_h: int
    keys: list[StructureKey]
    dev_accuracy: float = float("nan")

    def probabilities(self, seq: TokenSequence) -> np.ndarray:
        cache = nn.forward(self.params, encode(seq, self.vocab), self.d_h)
        return cache["class_probs"]

    def rank(self, seq: TokenSequence, catalog: SubstructureCatalog):
        probs = self.probabilities(seq)
        scored = []
        for i, key in enumerate(self.keys):
            entry = catalog.structures[key]
            scored.append(ScoredStructure(key, entry.representative, float(probs[i]),
                                          EXISTING, entry.count))
        scored.sort(key=ScoredStructure.rank_key)
        return scored


def train_structure_classifier(pairs, catalog: SubstructureCatalog,
                               cfg: TrainConfig, dev_pairs=None) -> StructureClassifier:
    keys = list(catalog.structures)
    index = {k: i for i, k in enumerate(keys)}
    (seqs, labels), (dev_seqs, dev_labels), vocab = _examples(
        pairs, dev_pairs, cfg, lambda query: index[canonical_key(query)])
    rng = np.random.default_rng([cfg.seed, len(keys)])
    params = nn.stack([nn.init_params(len(vocab), cfg.d_e, cfg.d_h, len(keys), rng)])
    params, (accuracy,) = _fit(params, seqs, np.array([labels], dtype=int), dev_seqs,
                               np.array([dev_labels], dtype=int), vocab, cfg, [rng])
    return StructureClassifier(vocab, {name: p[0].copy() for name, p in params.items()},
                               cfg.d_h, keys, accuracy)


# ---------------------------------------------------------------------------
# persistence

MODEL_VERSION = 1


def save_models(models: dict[StructureKey, object], directory,
                cfg: TrainConfig | None = None) -> None:
    """One .npz file per substructure plus a manifest.json index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": MODEL_VERSION,
                "train_config": asdict(cfg) if cfg else None,
                "models": []}
    for i, key in enumerate(sorted(models, key=StructureKey.sort_key)):
        model = models[key]
        fname = f"model_{i:04d}.npz"
        meta = {"key": key_to_json(key), "dev_accuracy": model.dev_accuracy}
        arrays = {}
        if isinstance(model, PredictorModel):
            meta.update(kind="bilstm", d_e=model.d_e, d_h=model.d_h,
                        vocab=model.vocab)
            arrays = model.params
        elif isinstance(model, BowLogisticModel):
            meta.update(kind="bow", vocab=model.vocab)
            arrays = {"weights": model.weights}
        elif isinstance(model, ConstantModel):
            meta.update(kind="constant", probability=model.probability)
        else:
            raise TypeError(f"cannot save {type(model).__name__}")
        np.savez(directory / fname, __meta__=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        manifest["models"].append({"file": fname, "key": key_to_json(key),
                                   "dev_accuracy": model.dev_accuracy,
                                   "kind": meta["kind"]})
    write_json(directory / "manifest.json", manifest)


def load_models(directory) -> dict[StructureKey, object]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json(manifest_path, MODEL_VERSION)
    models: dict[StructureKey, object] = {}
    with located(manifest_path, "models"):
        for i, item in enumerate(manifest["models"]):
            with located(manifest_path, f"models[{i}]"):
                path = directory / item["file"]
            with located(path, 1), np.load(path) as data, located(path, "__meta__"):
                meta = json.loads(bytes(data["__meta__"]).decode())
                key = key_from_json(meta["key"])
                if meta["kind"] == "bilstm":
                    params = {k: data[k] for k in data.files if k != "__meta__"}
                    model = PredictorModel(meta["vocab"], params, meta["d_e"],
                                           meta["d_h"], meta["dev_accuracy"])
                elif meta["kind"] == "bow":
                    model = BowLogisticModel(meta["vocab"], data["weights"],
                                             meta["dev_accuracy"])
                elif meta["kind"] == "constant":
                    model = ConstantModel(meta["probability"], meta["dev_accuracy"])
                else:
                    raise ValueError(f"unknown model kind {meta['kind']!r}")
                models[key] = model
    return models
