"""
Cold users: retrieval heuristics in slow motion
===============================================

Shows what the cold-user mapper actually does. A user with no training
history has no learned embedding, so the mapper borrows vectors from
behaviorally similar training users found through text: similar posts
(H1), similar comments under those posts (H2), and reply-chain prefix
sums instead of raw comment text (H3).
"""

import numpy as np

from uen.coldmap import ColdMapConfig, build_train_side, make_resolver, topk_rows
from uen.corpus import temporal_split
from uen.experiment import prepare_user_embeddings
from uen.node2vec import Node2VecConfig
from uen.synth import SynthConfig, generate
from uen.text import make_hash_provider

# 1. Corpus, split, and real user embeddings learned from the train graph.
corpus = generate(SynthConfig(n_samples=200, n_users=60, seed=3))
split = temporal_split(corpus)
users = prepare_user_embeddings(
    split.train, Node2VecConfig(d1=16, walk_length=10, walks_per_node=4, window=4,
                                epochs=2, seed=0), corpus.common_author)
texts = make_hash_provider()
side = build_train_side(list(split.train), texts, corpus.common_author)

# 2. Find a test cascade whose author and one of whose commenters the table
#    has never seen.
cold_sample = next(
    s for s in split.test
    if s.resolved_author(corpus.common_author) not in users
    and any(c.author not in users for c in s.comments))
cold_author = cold_sample.resolved_author(corpus.common_author)
print("cold author:", cold_author)
print("post text:  ", cold_sample.text_key[:60], "...")

# 3. H1: which training posts look like this one?
post_vec = np.asarray(texts(cold_sample.text_key), dtype=np.float64)
rows, scores = topk_rows(side.post_index, post_vec, 5)
print("\nnearest training posts (key, author, cosine):")
for row, score in zip(rows, scores):
    print("  %-8s %-10s %.3f"
          % (side.post_index.keys[row], side.post_index.owners[row], score))

# 4. The resolver maps the cold author to the mean of those authors'
#    embeddings (H1 with k1=5).
resolver = make_resolver("cold-mapper", users, side, texts, ColdMapConfig(k1=5, k2=8))
mapped = resolver(cold_author, ("post", cold_sample))
nearest_owner = side.post_index.owners[rows[0]]
print("\nmapped vector norm %.3f; cosine to top hit's author %.3f"
      % (np.linalg.norm(mapped),
         float(mapped @ users.vector(nearest_owner)
               / (np.linalg.norm(mapped)
                  * np.linalg.norm(users.vector(nearest_owner))))))

# 5. H2+H3 for a cold commenter: candidate comments come from the k1
#    most similar posts and are compared by chain prefix sums, so a
#    deep reply inherits the context it was written under.
cold_comment = next(c for c in cold_sample.comments if c.author not in users)
occurrence = ("comment", cold_sample, cold_comment.id)
commenter_vec = resolver(cold_comment.author, occurrence)
print("\ncold commenter %s mapped; norm %.3f"
      % (cold_comment.author, np.linalg.norm(commenter_vec)))

# 6. H3 off for contrast: raw comment text instead of chain sums.
side_flat = build_train_side(list(split.train), texts, corpus.common_author,
                             use_chains=False)
flat_resolver = make_resolver(
    "cold-mapper", users, side_flat, texts,
    ColdMapConfig(k1=5, k2=8, heuristics=frozenset({"h1", "h2"})))
flat_vec = flat_resolver(cold_comment.author, occurrence)
delta = np.linalg.norm(commenter_vec - flat_vec)
print("difference between chain-sum and raw-text mapping: %.4f" % delta)

# 7. Both mappings live inside the convex hull of training embeddings,
#    so they can never be wilder than any real user.
max_norm = float(np.linalg.norm(users.matrix, axis=1).max())
print("max training-user norm %.3f >= mapped norms %.3f / %.3f"
      % (max_norm, np.linalg.norm(commenter_vec), np.linalg.norm(flat_vec)))
