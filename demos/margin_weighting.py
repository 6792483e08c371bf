"""
Margin weighting: finding the shared classes without target labels
==================================================================

The weighting mechanism rests on one observation: a classifier trained on
the sources is confident on target samples from classes it has seen, and
hesitant on everything else. Confidence is measured as the margin, the
gap between the top two softmax probabilities. Per-class running means of
those margins then tell shared classes from source-only ones, and those
means become the sample weights of the adversarial loss.
"""

import numpy as np

from uman import SyntheticSpec, UmdaMatrix, generate, partition_from_matrix, train
from uman.core import Hyperparams, batch_margins, extract_features, predict_classes, softmax

# A small world is enough to watch the mechanism work: 4 shared classes,
# 2 private per source, 2 target-only classes.
partition = partition_from_matrix(UmdaMatrix((3, 3), (2, 2), 4, 2))
spec = SyntheticSpec(feature_dim=12, samples_per_class=100, class_center_scale=0.8,
                     noise_sigma=0.35, seed=0)
data = generate(spec, partition)

hp = Hyperparams(max_steps=1500, batch_size=32, feature_hidden=(48,), feature_dim=12,
                 disc_hidden=(48,), grl_max_lambda=0.15, lr_classifier=0.15,
                 lr_discriminator=0.7, weight_decay=0.003, seed=0)
result = train(data, partition, hp)
print(f"trained {hp.max_steps} steps; register updated on {result.register.step} of them")
print()

# The register holds one running mean margin per source class. Classes
# the target actually contains accumulate high margins; classes only the
# sources know stay low. No target label ever enters this bookkeeping,
# and the separation only has to hold on average: one hard shared class
# can sit near the private range and the loss still tilts the right way.
common = sorted(partition.common_union)
private = sorted(partition.source_private_union)
values = result.register.values
print("class  kind         mean margin")
for c in common + private:
    kind = "shared" if c in common else "source-only"
    print(f"{c:>5}  {kind:<12} {values[c]:.3f}")
print(f"\nshared mean {values[common].mean():.3f} vs source-only mean {values[private].mean():.3f}")
print()

# Per-sample weights multiply the sample's own margin with the register
# value of its pseudo label, so a confident sample of a clearly shared
# class dominates the domain loss, while the target-only samples at the
# bottom of the list barely count.
target = data[-1]
show = [
    np.flatnonzero(target.eval_labels == c)[0]
    for c in common[:3] + sorted(partition.target_private)[:2]
]
probs = softmax(
    extract_features(result.feature_net, target.features[show])
    @ result.classifier.layers[0].w + result.classifier.layers[0].b
)
for i, pseudo, margin in zip(show, *batch_margins(probs)):
    true = target.eval_labels[i]
    kind = "shared" if true in common else "target-only"
    print(
        f"target sample of class {true} ({kind:<11}): pseudo label {pseudo}, "
        f"margin {margin:.3f}, weight {margin * values[pseudo]:.3f}"
    )
print()

# At inference the margin doubles as the rejection score: below the
# threshold w0 the sample is declared unknown. Target-only classes should
# land there far more often than shared ones.
preds = predict_classes(result.feature_net, result.classifier, target.features, hp.w0)
is_private = np.isin(target.eval_labels, sorted(partition.target_private))
print(f"rejection rate on target-only classes: {np.mean(preds[is_private] == -1):.2f}")
print(f"rejection rate on shared classes:      {np.mean(preds[~is_private] == -1):.2f}")

# The threshold trades those two rates off against each other.
_, margins = batch_margins(
    softmax(extract_features(result.feature_net, target.features)
            @ result.classifier.layers[0].w + result.classifier.layers[0].b)
)
for w0 in (0.3, 0.5, 0.7):
    print(f"w0={w0}: rejects {np.mean(margins < w0):.2f} of all target samples")
