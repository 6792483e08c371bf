"""Experiment configuration: JSON parsing, validation, canonical hashing.

A config file describes one experiment: the label-set size matrix (two
rows, last column = target), optional pinned overlaps of sources 1 and 2
(``overrides``), the synthetic data spec, training hyperparameters, the
methods to run, the seeds, and the output directory. Validation is
collect-everything: a bad file reports all of its problems at once.
Building ``Hyperparams``, ``SyntheticSpec``, ``UmdaMatrix`` or
``ExperimentConfig`` in Python applies the file's rules at construction,
both the type of each field and its range; a matrix is also laid out
there, once, and every later stage reads ``matrix.partition``. The
planner costs a config's runs (``run_layout``) by ``core.cost_problems``.
The canonical hash is computed over a normalized dict with sorted keys,
so formatting, key order, spelled-out defaults and output_dir leave it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from .core import METHODS, Hyperparams, batch_layout
from .labelspace import MAX_CLASSES, ConfigError, LabelConfigError, UmdaMatrix, typed_value
from .synth import SyntheticSpec, domain_rows

__all__ = [
    "ExperimentConfig",
    "SWEEP_AXES",
    "parse_config",
    "load_config",
    "config_hash",
    "canonical_dict",
    "derive_sweep_cell",
    "run_layout",
]

SWEEP_AXES = ("num_sources", "common_overlap", "target_private_size", "source_private_overlap")

_TOP_KEYS = {"umda_matrix", "overrides", "synthetic", "hyperparams", "methods", "seeds", "output_dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every (method, seed) run of one setup. Building it checks that each
    section is of its class, which was built only if its fields are of their
    types and in range, and applies the config file's rule
    (:func:`_experiment_problems`) to the last three fields."""

    matrix: UmdaMatrix
    synthetic: SyntheticSpec
    hyperparams: Hyperparams
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    output_dir: str

    def __post_init__(self):
        for name, cls in (("matrix", UmdaMatrix), ("synthetic", SyntheticSpec), ("hyperparams", Hyperparams)):
            if not isinstance(section := getattr(self, name), cls):
                raise TypeError(f"{name} must be a {cls.__name__}, got {type(section).__name__}")
        if problems := _experiment_problems(self.methods, self.seeds, self.output_dir):
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", typed_value("seeds", "tuple[int, ...]", self.seeds))


def _experiment_problems(methods, seeds, output_dir) -> list[str]:
    """Why these make no experiment: ``methods`` must be a nonempty list or tuple of
    distinct :data:`~uman.core.METHODS`, ``seeds`` nonempty and distinct integers >= 0 as
    :func:`~uman.labelspace.typed_value` reads a tuple, ``output_dir`` a nonempty string."""
    problems = []
    # every entry is a known name before set() hashes any of them
    if (
        not isinstance(methods, (list, tuple))
        or not methods
        or any(not isinstance(m, str) or m not in METHODS for m in methods)
        or len(set(methods)) != len(methods)
    ):
        problems.append(f"methods must be a nonempty list of distinct names from {METHODS}")
    try:
        seeds = typed_value("seeds", "tuple[int, ...]", seeds)
    except TypeError:
        seeds = ()
    if not seeds or len(set(seeds)) != len(seeds):
        problems.append("seeds must be a nonempty list of distinct integers")
    elif min(seeds) < 0:
        # a seed starts numpy's SeedSequence, which takes no negative integer
        problems.append(f"seeds must be >= 0, got {[s for s in seeds if s < 0]}")
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("output_dir is required and must be a nonempty string")
    return problems


def _parse_matrix(obj, problems):
    # the overrides are read first: building the matrix checks the pins
    # against the rows, and a pin's own problems show beside bad rows
    def overlap(section, label):
        block = overrides.get(section)
        if block is None:
            return None
        if not isinstance(block, dict):
            problems.append(f"overrides.{section} must be an object of 'i-j' keys, got {block!r}")
            return None
        pairs = []
        for key, v in block.items():
            try:
                i, j = sorted(int(p) for p in str(key).split("-"))
            except ValueError:
                problems.append(f"overrides.{section} key {key!r} must look like 'i-j'")
                return None
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                problems.append(f"overrides.{section}[{key}] must be a nonnegative integer, got {v!r}")
                return None
            pairs.append((i, j))
        if set(pairs) - {(1, 2)}:
            problems.append(f"{label} overrides are only supported for the pair (1, 2) of a 2-source setup")
        elif len(pairs) > 1:
            problems.append(f"overrides.{section} names the pair 1-2 more than once: {list(block)}")
        elif pairs:
            return next(iter(block.values()))
        return None

    overrides, pins = obj.get("overrides", {}), None
    if not isinstance(overrides, dict) or set(overrides) - {"common", "source_private"}:
        problems.append("overrides must be an object with keys from {common, source_private}")
    else:
        sections = (("common", "common_overlap"), ("source_private", "private_overlap"))
        pins = {label: overlap(section, label) for section, label in sections}

    raw = obj.get("umda_matrix")
    if raw is None:
        problems.append("umda_matrix is required")
        return None
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(not isinstance(row, list) or len(row) < 2 for row in raw)
        or len(raw[0]) != len(raw[1])
    ):
        problems.append(
            "umda_matrix must be two equal-length integer rows of M+1 entries "
            "(per-source sizes, then the target column)"
        )
        return None
    for r, row in enumerate(raw):
        for c, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                problems.append(f"umda_matrix[{r}][{c}] must be a nonnegative integer, got {v!r}")
                return None
    if pins is None:
        return None
    (*common, target_common), (*private, target_private) = raw
    try:
        return UmdaMatrix(common, private, target_common, target_private, **pins)
    except LabelConfigError as exc:  # out of range, or no layout realizes it
        problems.extend(exc.args)
        return None


def _parse_section(obj, key, cls, problems):
    raw = obj.get(key, {})
    if not isinstance(raw, dict):
        problems.append(f"{key} must be an object")
        return None
    known = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        problems.append(f"{key} has unknown fields: {sorted(unknown)}")
    kwargs = {}
    for name, v in raw.items():
        if name not in known:
            continue
        try:
            kwargs[name] = typed_value(name, known[name].type, v)
        except TypeError:
            problems.append(f"{key}.{name} has the wrong type: {v!r}")
        except ValueError as exc:  # not finite
            problems.append(f"{key}.{exc}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        problems.extend(f"{key}: {p}" for p in exc.args)
        return None


def parse_config(obj) -> tuple[ExperimentConfig | None, list[str]]:
    """Validate a parsed JSON object; returns (config, problems).

    The config is None whenever problems is nonempty, and problems lists
    every violation found, not just the first. The memory bound is checked
    on the batches :func:`uman.cli._plan` packs.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return None, ["the config must be a JSON object"]
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")

    matrix = _parse_matrix(obj, problems)
    synthetic = _parse_section(obj, "synthetic", SyntheticSpec, problems)
    hyperparams = _parse_section(obj, "hyperparams", Hyperparams, problems)

    methods, seeds, output_dir = obj.get("methods", ["uman"]), obj.get("seeds", [0]), obj.get("output_dir")
    problems += _experiment_problems(methods, seeds, output_dir)

    if problems:
        return None, problems
    return ExperimentConfig(matrix, synthetic, hyperparams, methods, seeds, output_dir), []


def run_layout(config: ExperimentConfig):
    """The training layout (:func:`~uman.core.batch_layout`) of a config's runs."""
    partition = config.matrix.partition
    return batch_layout(partition, config.hyperparams, domain_rows(config.synthetic, partition), config.synthetic.feature_dim)


def load_config(path) -> tuple[ExperimentConfig | None, list[str]]:
    """The config in the UTF-8 JSON file at ``path`` and its problems
    (:func:`parse_config`), or why the file cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    # a UnicodeDecodeError is a ValueError, and so is a JSONDecodeError; too deep a nesting is a RecursionError
    except (ValueError, RecursionError) as exc:
        return None, [f"{path} is not valid JSON: {exc}"]
    return parse_config(obj)


def canonical_dict(config: ExperimentConfig) -> dict:
    """Fully normalized plain-dict form, as a config file holds it."""
    m = config.matrix

    return {
        "umda_matrix": [
            list(m.common_sizes) + [m.target_common],
            list(m.private_sizes) + [m.target_private],
        ],
        "overrides": {
            section: {} if pin is None else {"1-2": pin}
            for section, pin in (("common", m.common_overlap), ("source_private", m.private_overlap))
        },
        "synthetic": asdict(config.synthetic),
        "hyperparams": {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(config.hyperparams).items()},
        "methods": list(config.methods),
        "seeds": list(config.seeds),
        "output_dir": config.output_dir,
    }


def config_hash(config: ExperimentConfig) -> str:
    """A run's identity: :func:`canonical_dict` hashed without ``output_dir``."""
    identity = {key: v for key, v in canonical_dict(config).items() if key != "output_dir"}
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def derive_sweep_cell(config: ExperimentConfig, axis: str, value: int) -> tuple[ExperimentConfig | None, list[str]]:
    """Build the config of one sweep cell; returns (config, problems).

    Axes mirror the usual experiment grids: the number of sources (each a
    copy of source 1's block sizes), the intersection size of the two
    shared blocks (per-source shared sizes grow to keep the union fixed),
    the number of target-private classes, and the intersection size of the
    two private blocks (per-source private sizes grow to keep their union
    fixed). A value that is not an integer (Python or numpy) raises
    TypeError naming it, before any bound.
    """
    m = config.matrix
    if axis not in SWEEP_AXES:
        return None, [f"unknown axis {axis!r}; expected one of {SWEEP_AXES}"]
    value = typed_value(f"{axis} value", "int", value)
    if value < 0:
        return None, [f"{axis} value must be >= 0, got {value}"]
    if value > MAX_CLASSES:
        # every axis value counts classes or sources, and the cell's blocks
        # and label sets are built from it before any other bound applies
        return None, [f"{axis} value must be <= {MAX_CLASSES}, got {value}"]

    if axis == "num_sources":
        if value < 1:
            return None, ["num_sources must be >= 1"]
        changes = dict(
            common_sizes=(m.common_sizes[0],) * value,
            private_sizes=(m.private_sizes[0],) * value,
            common_overlap=None,
            private_overlap=None,
        )
    elif axis == "target_private_size":
        changes = dict(target_private=value)
    elif axis == "common_overlap":
        if m.n_sources != 2:
            return None, ["common_overlap sweeps need a 2-source base config"]
        n1 = (m.target_common + value) // 2
        changes = dict(common_sizes=(n1, m.target_common + value - n1), common_overlap=value)
    else:  # source_private_overlap
        if m.n_sources != 2:
            return None, ["source_private_overlap sweeps need a 2-source base config"]
        union = sum(m.private_sizes) - (m.private_overlap or 0)
        p1 = (union + value) // 2
        changes = dict(private_sizes=(p1, union + value - p1), private_overlap=value)

    try:
        matrix = replace(m, **changes)
    except LabelConfigError as exc:
        return None, list(exc.args)
    return replace(config, matrix=matrix), []
