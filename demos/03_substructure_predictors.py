#!/usr/bin/env python3
"""Per-substructure probability predictors.

One independent binary classifier per frequent substructure estimates
the probability that a question's query contains it. Questions are
lowercased, punctuation-stripped, and entity mentions collapse to an
<entity> token. The default model is an attention BiLSTM written in
numpy; a bag-of-words logistic baseline sits behind the same interface.
"""

from kbqg.evaluation import make_folds, split_fold
from kbqg.mining import SubstructureCatalog, contained_frequent_keys, mine
from kbqg.predictor import TrainConfig, predict_all, preprocess, train
from kbqg.toydata import build_dataset

pairs = build_dataset()
folds = make_folds(pairs, 5, seed=13)
train_pairs, dev_pairs, test_pairs = split_fold(pairs, folds, 0, 13, "stratified")
catalog = mine(train_pairs, gamma=2)

# the fast baseline for all substructures
bow = train(train_pairs, catalog, TrainConfig(seed=13), dev_pairs, predictor="bow")
print(f"trained {len(bow)} bag-of-words predictors "
      f"(dev accuracy min={min(m.dev_accuracy for m in bow.values()):.2f})")

question = "how many films did Tim Burton direct?"
start = question.index("Tim Burton")
seq = preprocess(question, [(start, start + len("Tim Burton"))])
print(f"\nquestion: {question}")
print(f"tokens:   {' '.join(seq.tokens)}")

probs = predict_all(bow, seq)
print("\nsubstructure probabilities (top 6):")
for key, p in sorted(probs.items(), key=lambda kv: -kv[1])[:6]:
    print(f"  {p:.3f}  {catalog.substructures[key].representative}")

# held-out containment accuracy over every predictor
total = errors = 0
for pair in test_pairs:
    s = preprocess(pair.question, [(m.start, m.end) for m in pair.mentions])
    pattern = contained_frequent_keys(pair.query, catalog)
    for key, p in predict_all(bow, s).items():
        total += 1
        errors += (p >= 0.5) != (key in pattern)
print(f"\nheld-out containment errors: {errors} / {total}")

# the neural model learns its own attention; train just the counting
# fragment's predictor to keep the demo quick
count_key = next(k for k in catalog.substructures
                 if k.agg_count == 1 and k.triple_count == 1
                 and "COUNT" in k.canonical)
one = SubstructureCatalog(
    catalog.gamma, catalog.structures, {count_key: catalog.substructures[count_key]})
neural = train(train_pairs, one,
               TrainConfig(d_e=24, d_h=24, learning_rate=5e-3, epochs=60,
                           batch_size=8, patience=1000, seed=13), dev_pairs)
model = neural[count_key]
p, alpha = model.forward(seq)
print(f"\nattention of the neural counting predictor (p={p:.3f}):")
for token, weight in zip(seq.tokens, alpha):
    print(f"  {'#' * int(weight * 40):10s} {weight:.3f}  {token}")
