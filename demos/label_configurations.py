"""
Label configurations: who knows which classes
=============================================

Multi-source adaptation starts from a bookkeeping question: which class
indices does each source annotate, which does the target contain, and how
much do those sets overlap. This script builds a few configurations from
block sizes, inspects the realized index sets, and reads off the overlap
coefficients that summarize how related the domains are.
"""

from uman import LabelConfigError, UmdaMatrix, jaccard_source_source, jaccard_source_target, partition_from_matrix

# A configuration is four numbers per layout (plus one pair of sizes per
# source): how many classes each source shares with the target, how many
# it keeps private, how large the union of shared classes is, and how
# many classes only the target contains.
matrix = UmdaMatrix(
    common_sizes=(5, 5),    # each source shares 5 classes with the target
    private_sizes=(3, 3),   # and annotates 3 classes the target never shows
    target_common=6,        # the shared blocks cover a 6-class union
    target_private=3,       # the target adds 3 classes nobody annotated
)
partition = partition_from_matrix(matrix)

print("source 1 labels:", partition.source_labels[0])
print("source 2 labels:", partition.source_labels[1])
print("target labels:  ", partition.target_labels)
print("common union:   ", partition.common_union)
print("target-only:    ", partition.target_private)
print()

# With 5 + 5 shared classes covering a union of 6, the two sources must
# overlap on exactly 4 of them; the remaining 2 are each carried by a
# single source. The Jaccard coefficients make that quantitative.
for i in (1, 2):
    print(f"overlap(source {i}, target) = {jaccard_source_target(partition, i):.4f}")
print(f"overlap(source 1, source 2) = {jaccard_source_source(partition, 1, 2):.4f}")
print()

# The same machinery covers the classical special cases. Identical label
# sets everywhere is plain multi-source adaptation:
closed = partition_from_matrix(UmdaMatrix((4, 4), (0, 0), 4, 0))
print("closed world: sources", closed.source_labels, "target", closed.target_labels)

# Sources with extra classes but no target surprises is partial
# adaptation; target surprises with full source coverage is open-set.
partial = partition_from_matrix(UmdaMatrix((3, 3), (2, 2), 3, 0))
open_set = partition_from_matrix(UmdaMatrix((4, 4), (0, 0), 4, 2))
print("partial:      sources", partial.source_labels, "target", partial.target_labels)
print("open set:     sources", open_set.source_labels, "target", open_set.target_labels)
print()

# Infeasible size combinations are refused when the matrix is built, all
# at once rather than one error at a time: the error holds one problem per
# argument.
try:
    UmdaMatrix((2, 2), (1, 1), 6, 0)
except LabelConfigError as error:
    for problem in error.args:
        print("violation:", problem)
