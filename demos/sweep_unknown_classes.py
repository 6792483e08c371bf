"""
Sweeping the number of unknown classes
======================================

Open-set behavior should not be a special case: whether the target
contains zero, a few, or many classes nobody annotated, adapting must not
do worse than training on the sources alone. This script sweeps the count
of target-only classes at reduced sizes and reports the transfer gain at
each point. The CLI runs the same experiment from a config file:

    python3 -m uman sweep demos/configs/standard.json --axis target_private_size --values 0,3,6
"""

import numpy as np

from uman import SyntheticSpec, UmdaMatrix, generate, partition_from_matrix
from uman.core import Hyperparams, train
from uman.evaluate import evaluate, transfer_gain

spec = SyntheticSpec(feature_dim=12, samples_per_class=100, class_center_scale=0.8,
                     noise_sigma=0.35, seed=0)
hp = Hyperparams(max_steps=1500, batch_size=32, feature_hidden=(48,), feature_dim=12,
                 disc_hidden=(48,), grl_max_lambda=0.15, lr_classifier=0.15,
                 lr_discriminator=0.7, weight_decay=0.003, seed=0)


def score(result, test, partition):
    return evaluate(result.feature_net, result.classifier, test, partition, hp.w0)


# The source-only baseline never reads the target, and adding target-only
# classes leaves every source as it is, so it trains once and is scored
# against each k's own test set; uman adapts to each target, so it trains
# once per k.
baseline = sources = None
print("target-only classes | source-only | uman  | transfer gain")
for k in (0, 3, 6):
    partition = partition_from_matrix(UmdaMatrix((5, 5), (3, 3), 6, k))
    data = generate(spec, partition)
    test = generate(spec, partition, draw=1)[-1]
    if baseline is None:
        baseline, sources = train(data, partition, hp, method="source_only"), data[:-1]
    assert all(
        np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
        for a, b in zip(sources, data[:-1], strict=True)
    ), f"the sources at k={k} differ from those the baseline trained on"
    base = score(baseline, test, partition)
    full = score(train(data, partition, hp, method="uman"), test, partition)
    print(
        f"{k:>19} | {base.mean_per_class_accuracy:>11.3f} "
        f"| {full.mean_per_class_accuracy:.3f} | {transfer_gain(full, base):+.3f}"
    )

# With no unknown classes the rejection threshold can only cost accuracy,
# so the gain there is the acid test: the weighting has to earn back what
# rejection gives up. More unknowns make rejection itself valuable and
# the gap widens. Single-seed numbers at these reduced sizes move around
# a few points between seeds; the committed configuration averages three.
