"""
Ablation: what the user evidence and the mapper each buy
========================================================

Runs the three pipeline variants on one synthetic corpus and compares
them per overlap bucket:

  full      - cold users resolved through the retrieval heuristics
  no-mapper - cold users get the global mean user vector
  no-user   - text features only

The user-signal gap shows up as no-mapper beating no-user overall; the
mapper's contribution concentrates in the zero bucket, where every user
in the cascade is unseen. Takes about 10 s.
"""

from uen.coldmap import ColdMapConfig
from uen.evaluation import sign_test
from uen.experiment import PipelineConfig, run_ablation
from uen.gnn import GnnConfig
from uen.node2vec import Node2VecConfig
from uen.synth import SynthConfig, generate

# 1. One seed of the default benchmark corpus (2000 cascades, 300 users,
#    30% cold test users). Shrink n_samples for a faster look.
corpus = generate(SynthConfig(seed=0))
cfg = PipelineConfig(
    gnn=GnnConfig(arch="gcn", lam=0.62, epochs=20, seed=0),
    node2vec=Node2VecConfig(walk_length=15, walks_per_node=4, window=4,
                            epochs=2, seed=0),
    coldmap=ColdMapConfig(k1=7, k2=40),
)

# 2. run_ablation shares the split and the user embeddings across
#    variants, so differences come from the resolver alone.
results = run_ablation(corpus, cfg)

# 3. Accuracy table per bucket.
print("%-10s %8s %8s %8s %8s" % ("variant", "overall", "high", "low", "zero"))
for variant, res in results.items():
    row = [res.report.overall.accuracy]
    for name in ("high", "low", "zero"):
        b = res.report.buckets[name]
        row.append(b.accuracy if b.n else float("nan"))
    print("%-10s %8.4f %8.4f %8.4f %8.4f" % (variant, *row))

# 4. Zero-bucket macro-F1 is the headline number for the mapper.
for variant in ("full", "no-mapper"):
    b = results[variant].report.buckets["zero"]
    print("%s zero-bucket macro-F1: %.4f (n=%d)"
          % (variant, b.macro_f1, b.n))

# 5. Both variants classify the same test cascades, so compare them pair
#    by pair: where they disagree, count who was right, and ask with an
#    exact sign test (McNemar's) whether a split that lopsided could be luck.
labels = results["full"].labels
disagree = [(f, b, y) for f, b, y in zip(results["full"].preds,
                                         results["no-mapper"].preds, labels)
            if f != b]
full_right = sum(1 for f, _, y in disagree if f == y)
print("\ndisagreements: %d, full variant right on %d (%.0f%%)"
      % (len(disagree), full_right,
         100.0 * full_right / max(1, len(disagree))))
print("sign test p=%.2g (full vs no-mapper, paired per-sample hits)"
      % sign_test(full_right, len(disagree) - full_right))
