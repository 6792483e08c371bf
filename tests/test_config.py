"""Config parsing, canonical hashing, and sweep-cell derivation."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uman.config
from uman.config import (
    BATCH_RUNS,
    MAX_RUN_FLOATS,
    SWEEP_AXES,
    batch_runs,
    canonical_dict,
    config_hash,
    cost_problems,
    derive_sweep_cell,
    load_config,
    parse_config,
)
from uman.core import METHODS, Hyperparams
from uman.labelspace import MAX_CLASSES, partition_from_matrix
from uman.synth import SyntheticSpec

STANDARD = Path(__file__).resolve().parents[1] / "demos" / "configs" / "standard.json"


def minimal(**kw):
    obj = {
        "umda_matrix": [[4, 4, 6], [3, 3, 3]],
        "output_dir": "out",
    }
    obj.update(kw)
    return obj


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config, problems = parse_config(minimal())
        assert problems == []
        assert config.matrix.common_sizes == (4, 4)
        assert config.matrix.target_private == 3
        assert config.methods == ("uman",)
        assert config.seeds == (0,)
        assert config.synthetic.feature_dim == 16
        assert config.hyperparams.w0 == 0.5

    def test_sections_override_defaults(self):
        config, problems = parse_config(
            minimal(
                synthetic={"feature_dim": 8, "noise_sigma": 0.25},
                hyperparams={"max_steps": 10, "feature_hidden": [8, 8]},
                methods=["uman", "source_only"],
                seeds=[3, 4],
            )
        )
        assert problems == []
        assert config.synthetic.feature_dim == 8
        assert config.synthetic.noise_sigma == 0.25
        assert config.hyperparams.max_steps == 10
        assert config.hyperparams.feature_hidden == (8, 8)
        assert config.methods == ("uman", "source_only")
        assert config.seeds == (3, 4)

    def test_collects_all_problems_at_once(self):
        _, problems = parse_config(
            {
                "umda_matrix": [[4, 4, 6], [3, 3, 3]],
                "synthetic": {"feature_dim": 0},
                "hyperparams": {"w0": 3.0},
                "methods": ["uman", "uman"],
                "seeds": [1, 1],
                "typo_key": 1,
            }
        )
        assert len(problems) >= 6
        joined = "\n".join(problems)
        assert "typo_key" in joined
        assert "feature_dim" in joined
        assert "w0" in joined
        assert "methods" in joined
        assert "seeds" in joined
        assert "output_dir" in joined

    def test_rejects_malformed_matrix(self):
        for bad in (
            None,
            [[1, 2, 3]],
            [[1, 2], [3, 4], [5, 6]],
            [[1, 2, 3], [4, 5]],
            [[1, -2, 3], [0, 0, 0]],
            [[1, True, 3], [0, 0, 0]],
        ):
            _, problems = parse_config(minimal(umda_matrix=bad))
            assert problems, bad

    def test_rejects_wrong_section_types(self):
        _, problems = parse_config(minimal(synthetic={"feature_dim": "wide"}))
        assert any("feature_dim" in p for p in problems)
        _, problems = parse_config(minimal(hyperparams={"feature_hidden": [8, "x"]}))
        assert any("feature_hidden" in p for p in problems)
        _, problems = parse_config(minimal(synthetic={"domain_rotation": 1}))
        assert any("domain_rotation" in p for p in problems)
        _, problems = parse_config(minimal(synthetic=[1, 2]))
        assert any("must be an object" in p for p in problems)

    def test_rejects_unknown_section_fields(self):
        _, problems = parse_config(minimal(hyperparams={"momentum": 0.9}))
        assert any("momentum" in p for p in problems)

    def test_methods_must_be_known(self):
        _, problems = parse_config(minimal(methods=["dann"]))
        assert any(str(METHODS) in p for p in problems)

    def test_overrides_parse_and_validate(self):
        config, problems = parse_config(
            minimal(umda_matrix=[[4, 4, 6], [3, 3, 3]], overrides={"common": {"1-2": 2}})
        )
        assert problems == []
        p = partition_from_matrix(config.matrix)
        c1, c2 = (set(c) for c in p.common_per_source)
        assert len(c1 & c2) == 2

        _, problems = parse_config(minimal(overrides={"common": {"one:two": 2}}))
        assert any("i-j" in p for p in problems)
        _, problems = parse_config(minimal(overrides={"bogus": {}}))
        assert any("overrides" in p for p in problems)

    def test_non_object_overrides_are_problems(self):
        for section in ("common", "source_private"):
            for bad in (5, [1, 2], "1-2"):
                _, problems = parse_config(minimal(overrides={section: bad}))
                assert any(f"overrides.{section} must be an object" in p for p in problems)

    def test_infeasible_layout_is_a_problem(self):
        _, problems = parse_config(minimal(umda_matrix=[[2, 2, 6], [0, 0, 0]]))
        assert any("cover" in p for p in problems)

    def test_matrix_violations_are_reported_once(self):
        _, problems = parse_config(minimal(umda_matrix=[[9, 4, 6], [3, 3, 3]]))
        assert problems == ["common_sizes[0]=9 exceeds target_common=6"]

    def test_non_object_config(self):
        _, problems = parse_config([1, 2, 3])
        assert problems == ["the config must be a JSON object"]

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("hyperparams", "lr_features", float("nan")),
            ("hyperparams", "grl_max_lambda", float("inf")),
            ("hyperparams", "weight_decay", float("nan")),
            ("hyperparams", "w0", float("-inf")),
            ("synthetic", "noise_sigma", float("nan")),
        ],
    )
    def test_non_finite_numbers_are_problems(self, section, name, value):
        # json.loads reads the NaN and Infinity literals into these floats
        obj = json.loads(json.dumps(minimal(**{section: {name: value}})))
        config, problems = parse_config(obj)
        assert config is None
        assert problems == [f"{section}.{name} must be a finite number, got {value!r}"]

    def test_integer_beyond_every_float_is_a_problem(self):
        # json.loads reads an integer literal of any length exactly
        for value, shown in ((2**1100, "inf"), (-(2**1100), "-inf")):
            config, problems = parse_config(minimal(hyperparams={"lr_features": value}))
            assert config is None
            assert problems == [f"hyperparams.lr_features must be a finite number, got {shown}"]

    def test_class_count_is_capped(self):
        # the label sets are built in memory: a matrix naming 10**30
        # classes is a problem, not an allocation
        _, problems = parse_config(minimal(umda_matrix=[[4, 4, 6], [10**30, 3, 3]]))
        assert problems == [f"block sizes sum to {10**30 + 20}, above the limit of {MAX_CLASSES} classes"]
        config, problems = parse_config(minimal(umda_matrix=[[4, 4, 6], [MAX_CLASSES - 20, 3, 3]]))
        assert problems == []
        for axis in SWEEP_AXES:
            assert derive_sweep_cell(config, axis, 10**30)[1] == [f"{axis} value must be <= {MAX_CLASSES}, got {10**30}"]


    def test_negative_seeds_are_problems(self):
        # numpy seeds its streams from non-negative integers only, so each
        # of these would end a run before it wrote anything
        for obj, problem in (
            (minimal(seeds=[2, -1, -3]), "seeds must be >= 0, got [-1, -3]"),
            (minimal(synthetic={"seed": -1}), "synthetic: seed must be >= 0, got -1"),
            (minimal(hyperparams={"seed": -2}), "hyperparams: seed must be >= 0, got -2"),
        ):
            config, problems = parse_config(obj)
            assert config is None
            assert problems == [problem]
        config, problems = parse_config(minimal(seeds=[0], synthetic={"seed": 0}, hyperparams={"seed": 0}))
        assert problems == []


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        _, problems = load_config(tmp_path / "nope.json")
        assert any("cannot read" in p for p in problems)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        _, problems = load_config(path)
        assert any("not valid JSON" in p for p in problems)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal()))
        config, problems = load_config(path)
        assert problems == []
        assert config.output_dir == "out"


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        a, _ = parse_config(minimal(seeds=[0, 1], methods=["uman", "source_only"]))
        reordered = {
            "output_dir": "out",
            "methods": ["uman", "source_only"],
            "seeds": [0, 1],
            "umda_matrix": [[4, 4, 6], [3, 3, 3]],
        }
        b, _ = parse_config(reordered)
        assert config_hash(a) == config_hash(b)

    def test_changes_with_any_field(self):
        base, _ = parse_config(minimal())
        for change in (
            minimal(seeds=[1]),
            minimal(umda_matrix=[[4, 4, 6], [3, 3, 4]]),
            minimal(synthetic={"noise_sigma": 0.51}),
            minimal(hyperparams={"w0": 0.4}),
            minimal(output_dir="elsewhere"),
        ):
            other, problems = parse_config(change)
            assert problems == []
            assert config_hash(other) != config_hash(base)

    def test_canonical_dict_is_json_stable(self):
        config, _ = parse_config(minimal(overrides={"common": {"2-1": 2}}))
        blob = json.dumps(canonical_dict(config), sort_keys=True)
        again, problems = parse_config(json.loads(blob))
        assert problems == []
        assert config_hash(again) == config_hash(config)


class TestCostBound:
    """One bound on what a method batch holds: every run's dataset rows
    times columns, its parameters and its trace's steps times columns."""

    def test_committed_and_battery_configs_pass(self):
        config, problems = load_config(STANDARD)
        assert problems == []
        assert cost_problems(config) == []
        # the battery's largest cell: the standard layout at 6 target-only classes
        cell, problems = derive_sweep_cell(config, "target_private_size", 6)
        assert problems == []
        assert cost_problems(cell) == []
        # the largest batch of a sweep of the standard config's cells
        assert cost_problems(config, [cell] * BATCH_RUNS) == []

    def test_count_is_rows_times_columns_plus_parameters(self, monkeypatch):
        obj = minimal(
            synthetic={"feature_dim": 3, "samples_per_class": 10},
            hyperparams={"feature_hidden": [5], "feature_dim": 2, "disc_hidden": [4], "max_steps": 7},
            seeds=[0, 1],
        )
        config, problems = parse_config(obj)
        assert problems == []
        rows = 10 * (2 * (4 + 3) + 6 + 3)  # each source's label set, then the target's
        # F 3-5-2, G 2-12 (the source classes), D 2-4-1, each layer with biases
        params = (3 + 1) * 5 + (5 + 1) * 2 + (2 + 1) * 12 + (2 + 1) * 4 + (4 + 1) * 1
        # a trace row per step: step, 2 losses, 2 error rates, 3 weight means, the gate
        want = 2 * (rows * 3 + params + 7 * 9)
        monkeypatch.setattr(uman.config, "MAX_RUN_FLOATS", want)
        assert cost_problems(config) == []
        monkeypatch.setattr(uman.config, "MAX_RUN_FLOATS", want - 1)
        assert cost_problems(config) == [
            f"a method batch would hold {want:,} floats (2 runs x ({rows:,} dataset rows x 3 columns"
            f" + {params:,} parameters + 7 trace rows x 9 columns)), above the limit of {want - 1:,}"
        ]

    def test_trace_counts(self):
        """A run of 10^9 steps holds a trace row per step; without the
        trace it would fit."""
        config, problems = parse_config(minimal(hyperparams={"max_steps": 10**9}))
        assert config is None and len(problems) == 1
        assert "(1 run x (" in problems[0]
        assert " + 1,000,000,000 trace rows x 9 columns)), above the limit of 100,000,000" in problems[0]

    def test_a_batch_holds_at_most_batch_runs_seeds(self, monkeypatch):
        """The seeds of a config train in the fewest near-equal batches of
        at most BATCH_RUNS runs, and the largest one is costed."""
        for n in range(1, 40):
            sizes = batch_runs(n)
            assert sum(sizes) == n and len(sizes) == -(-n // BATCH_RUNS)
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        assert batch_runs(14) == [5, 5, 4]  # a 7-cell sweep of 2 seeds
        config, problems = parse_config(minimal(seeds=list(range(9))))
        assert problems == []
        monkeypatch.setattr(uman.config, "MAX_RUN_FLOATS", 0)
        [problem] = cost_problems(config)
        assert problem.startswith("a method batch would hold ") and "(5 runs x (" in problem

    def test_cells_of_one_batch_are_costed_together(self, monkeypatch):
        config, problems = parse_config(minimal())
        assert problems == []
        cells = [derive_sweep_cell(config, "target_private_size", v)[0] for v in (0, 0, 2)]
        monkeypatch.setattr(uman.config, "MAX_RUN_FLOATS", 0)
        [problem] = cost_problems(config, cells)
        assert "(2 runs x (4,000 dataset rows" in problem and " + 1 run x (4,400 dataset rows" in problem

    def test_huge_dataset_is_a_problem_with_the_limit(self):
        config, problems = parse_config(minimal(synthetic={"samples_per_class": 10**12}))
        assert config is None
        assert len(problems) == 1
        assert f"above the limit of {MAX_RUN_FLOATS:,}" in problems[0]
        assert "dataset rows" in problems[0]

    def test_huge_width_is_a_problem(self):
        config, problems = parse_config(minimal(hyperparams={"feature_hidden": [10**9]}))
        assert config is None and "parameters" in problems[0]

    def test_sweep_cell_is_costed_on_its_own(self):
        config, problems = parse_config(minimal(synthetic={"samples_per_class": 10**5}))
        assert problems == []
        cell, problems = derive_sweep_cell(config, "num_sources", 50)
        assert problems == []
        assert "above the limit" in cost_problems(cell)[0]


class TestSweepCells:
    def base(self):
        config, problems = parse_config(minimal(umda_matrix=[[4, 4, 6], [3, 3, 3]]))
        assert problems == []
        return config

    def test_num_sources_replicates_first_source(self):
        cell, problems = derive_sweep_cell(self.base(), "num_sources", 3)
        assert problems == []
        assert cell.matrix.common_sizes == (4, 4, 4)
        assert cell.matrix.private_sizes == (3, 3, 3)

    def test_target_private_size_replaces(self):
        for v in (0, 6):
            cell, problems = derive_sweep_cell(self.base(), "target_private_size", v)
            assert problems == []
            assert cell.matrix.target_private == v
            assert partition_from_matrix(cell.matrix).total_classes == 12 + v

    def test_common_overlap_keeps_union_fixed(self):
        for o in (0, 2, 4):
            cell, problems = derive_sweep_cell(self.base(), "common_overlap", o)
            assert problems == [], (o, problems)
            p = partition_from_matrix(cell.matrix)
            c1, c2 = (set(c) for c in p.common_per_source)
            assert len(c1 & c2) == o
            assert len(c1 | c2) == 6

    def test_source_private_overlap_keeps_union_fixed(self):
        for o in (0, 2):
            cell, problems = derive_sweep_cell(self.base(), "source_private_overlap", o)
            assert problems == [], (o, problems)
            p = partition_from_matrix(cell.matrix)
            p1, p2 = (set(q) for q in p.private_per_source)
            assert len(p1 & p2) == o
            assert len(p1 | p2) == 6

    def test_infeasible_values_reported(self):
        _, problems = derive_sweep_cell(self.base(), "common_overlap", 7)
        assert problems
        _, problems = derive_sweep_cell(self.base(), "num_sources", 0)
        assert problems
        _, problems = derive_sweep_cell(self.base(), "target_private_size", -1)
        assert problems

    def test_unknown_axis_rejected(self):
        _, problems = derive_sweep_cell(self.base(), "learning_rate", 1)
        assert any("unknown axis" in p for p in problems)
        assert "learning_rate" not in SWEEP_AXES

    def test_overlap_axes_need_two_sources(self):
        three, problems = derive_sweep_cell(self.base(), "num_sources", 3)
        assert problems == []
        _, problems = derive_sweep_cell(three, "common_overlap", 1)
        assert any("2-source" in p for p in problems)


# ---- property tests: values the schema does not expect never break the parser

# beyond int64, beyond every float, beyond MAX_CLASSES
_HUGE = st.sampled_from([2**63, -(2**63) - 1, 10**30, -(10**30), MAX_CLASSES + 1, 2**1100, -(2**1100)])
# anything JSON can hold, non-finite floats and huge integers included
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | _HUGE | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_VALID = {
    "int": st.integers(1, 40),
    "float": st.floats(0.01, 1.0),
    "bool": st.booleans(),
    "tuple[int, ...]": st.lists(st.integers(1, 16), max_size=2),
}


def _section(cls, junk):
    """An object of some of ``cls``'s fields, each a value of the field's
    type or, with ``junk``, possibly anything, a field the schema does not
    know included."""
    values = {f.name: _VALID[f.type] | _HUGE | _JUNK if junk else _VALID[f.type] for f in fields(cls)}
    if junk:
        values["bogus"] = _JUNK
    return st.fixed_dictionaries({}, optional=values)


def _configs(junk):
    """Config objects near the schema; with ``junk`` any part, or the whole
    object, may be anything instead."""
    entry = st.integers(0, 6) | (_HUGE | st.integers(-3, -1) | _JUNK if junk else st.nothing())
    pair = st.dictionaries(st.sampled_from(["1-2", "2-1", "1-3", "x"] if junk else ["1-2"]), entry, max_size=1)

    def part(valid):
        return valid | _JUNK if junk else valid

    if junk:
        matrices = st.integers(1, 3).flatmap(
            lambda m: st.lists(st.lists(entry, min_size=m + 1, max_size=m + 1), min_size=2, max_size=2)
        )
    else:  # mostly feasible: every shared block fits the target's
        matrices = st.tuples(st.integers(1, 3), st.integers(1, 6)).flatmap(lambda mw: st.tuples(
            st.lists(st.integers(1, mw[1]), min_size=mw[0], max_size=mw[0]).map(lambda c: c + [mw[1]]),
            st.lists(st.integers(0, 3), min_size=mw[0] + 1, max_size=mw[0] + 1),
        ).map(list))
    configs = st.fixed_dictionaries(
        {"umda_matrix": part(matrices), "output_dir": part(st.just("out"))},
        optional={
            "overrides": part(st.fixed_dictionaries({}, optional={"common": part(pair), "source_private": part(pair)})),
            "synthetic": part(_section(SyntheticSpec, junk)),
            "hyperparams": part(_section(Hyperparams, junk)),
            "methods": part(st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True)),
            "seeds": part(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)),
            **({"extra": _JUNK} if junk else {}),
        },
    )
    return configs | _JUNK if junk else configs


_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _parsed(obj):
    config, problems = parse_config(obj)
    assert (config is None) == bool(problems)
    assert all(isinstance(p, str) for p in problems)
    if config is not None:
        # every effective seed of an accepted config can seed numpy
        for seed in config.seeds:
            np.random.SeedSequence(config.synthetic.seed + seed)
            np.random.SeedSequence(config.hyperparams.seed + seed)
    return config


class TestParserProperties:
    """Seeded: every run draws the same examples."""

    @given(_configs(junk=True))
    @_PROPERTY
    def test_parse_config_returns_config_or_problems(self, obj):
        _parsed(obj)

    @given(
        st.sampled_from(
            [("synthetic", f.name) for f in fields(SyntheticSpec)]
            + [("hyperparams", f.name) for f in fields(Hyperparams)]
        ),
        _HUGE | _JUNK,
    )
    @_PROPERTY
    def test_any_field_value_gives_config_or_problems(self, field, value):
        section, name = field
        _parsed(minimal(**{section: {name: value}}))

    @given(_configs(junk=False), st.sampled_from(["seeds", "synthetic", "hyperparams"]), st.integers(-3, 3))
    @_PROPERTY
    def test_any_seed_gives_config_or_problems(self, obj, where, seed):
        if where == "seeds":
            obj = dict(obj, seeds=[seed])
        else:
            obj = dict(obj, **{where: dict(obj.get(where, {}), seed=seed)})
        _parsed(obj)

    @given(_configs(junk=False))
    @_PROPERTY
    def test_valid_config_round_trips_with_its_hash(self, obj):
        config = _parsed(obj)
        assume(config is not None)
        again, problems = parse_config(json.loads(json.dumps(canonical_dict(config), allow_nan=False)))
        assert problems == []
        assert again == config
        assert config_hash(again) == config_hash(config)

    @given(_configs(junk=False), st.sampled_from(SWEEP_AXES), st.integers(-2, 12) | _HUGE)
    @_PROPERTY
    def test_sweep_cell_is_valid_or_rejected(self, obj, axis, value):
        config = _parsed(obj)
        assume(config is not None)
        cell, problems = derive_sweep_cell(config, axis, value)
        assert (cell is None) == bool(problems)
        if cell is not None:
            again, problems = parse_config(json.loads(json.dumps(canonical_dict(cell), allow_nan=False)))
            assert problems == []
            assert config_hash(again) == config_hash(cell)
