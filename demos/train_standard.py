"""
The standard benchmark, end to end
==================================

Loads the committed standard configuration, trains the full method and
its two ablations on one seed, scores them on a held-out target draw, and
reads out the feature geometry with linear probes. This is the library
view of what `python3 -m uman run demos/configs/standard.json` does for
every (method, seed) pair.
"""

from pathlib import Path

from uman import generate, partition_from_matrix, train
from uman.config import config_hash, load_config
from uman.evaluate import alignment_probe, evaluate

here = Path(__file__).parent
config, problems = load_config(here / "configs" / "standard.json")
assert config is not None, problems
print(f"config {config_hash(config)}: matrix {config.matrix.common_sizes} common, "
      f"{config.matrix.private_sizes} private, {config.matrix.target_private} target-only")
print()

partition = partition_from_matrix(config.matrix)
data = generate(config.synthetic, partition)
test = generate(config.synthetic, partition, draw=1)[-1]

# Three methods, identical data and initialization. source_only drops the
# domain loss, unweighted_adv keeps it but forces every weight to 1, uman
# is the full weighted scheme.
results, reports = {}, {}
print("method          mean per-class accuracy")
for method in config.methods:
    results[method] = result = train(data, partition, config.hyperparams, method=method)
    reports[method] = evaluate(result.feature_net, result.classifier, test, partition, config.hyperparams.w0)
    print(f"{method:<15} {reports[method].mean_per_class_accuracy:.3f}")
print()

# Per-class view of the winner: the 6 shared classes plus the pooled
# unknown entry (target-only samples count as correct when rejected).
for name, acc in sorted(reports["uman"].per_class_accuracy.items()):
    print(f"  class {name:>8}: {acc:.3f}")
print()

# Linear probes on the frozen features tell how the geometry came out:
# sources and target should be hard to tell apart on shared classes and
# easy on private ones, and the two sources should merge on the classes
# they both carry.
fnet = results["uman"].feature_net
for kind in ("source-vs-target-common", "source-vs-target-private", "source-vs-source-shared"):
    probe = alignment_probe(fnet, data, partition, kind, seed=config.synthetic.seed)
    print(f"{kind:<28} balanced accuracy {probe.balanced_accuracy:.3f}")
print("\n(0.5 is indistinguishable, 1.0 is perfectly separated)")
