"""Config parsing, canonical hashing, and sweep-cell derivation."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from helpers import PROPERTY, held_nbytes, plan_arrays, run_cost

import uman.cli
import uman.core
from uman.cli import BATCH_RUNS, batch_runs
from uman.config import (
    SWEEP_AXES,
    ExperimentConfig,
    canonical_dict,
    config_hash,
    derive_sweep_cell,
    load_config,
    parse_config,
    run_layout,
)
from uman.core import (
    MAX_RUN_FLOATS,
    METHODS,
    Hyperparams,
    _Batch,
    _build_nets,
    cost_problems,
    net_shapes,
    run_floats,
    step_floats,
    trace_columns,
    train,
)
from uman.labelspace import MAX_CLASSES, LabelConfigError, partition_from_matrix
from uman.synth import SyntheticSpec, generate

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

    @pytest.mark.parametrize("value", [{}, "", [64.0], [True], [[64]], 64, None], ids=repr)
    @pytest.mark.parametrize("name", ["feature_hidden", "disc_hidden"])
    def test_widths_must_be_a_list_of_integers(self, name, value):
        _, problems = parse_config(minimal(hyperparams={name: value}))
        assert problems == [f"hyperparams.{name} has the wrong type: {value!r}"]

    def test_section_problems_come_in_key_order_then_ranges(self):
        # json.loads reads the NaN literal into this float
        obj = json.loads(json.dumps(minimal(hyperparams={
            "w0": 2.0, "batch_size": 8.5, "lr_features": float("nan"), "feature_hidden": {},
        })))
        _, problems = parse_config(obj)
        assert problems == [
            "hyperparams.batch_size has the wrong type: 8.5",
            "hyperparams.lr_features must be a finite number, got nan",
            "hyperparams.feature_hidden has the wrong type: {}",
            "hyperparams: w0 must lie in [0, 1], got 2.0",
        ]

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

    def test_override_problems_show_beside_malformed_rows(self):
        for rows, row_problem in (
            ([[5, 5, 6]], "umda_matrix must be two equal-length integer rows of M+1 entries "
                          "(per-source sizes, then the target column)"),
            ([[5, -1, 6], [3, 3, 3]], "umda_matrix[0][1] must be a nonnegative integer, got -1"),
        ):
            overrides = {"common": {"one:two": 2}, "source_private": 7}
            _, problems = parse_config(minimal(umda_matrix=rows, overrides=overrides, seeds=[-1]))
            assert problems == [
                "overrides.common key 'one:two' must look like 'i-j'",
                "overrides.source_private must be an object of 'i-j' keys, got 7",
                row_problem,
                "seeds must be >= 0, got [-1]",
            ]

    def test_pair_in_either_order_is_one_pin(self):
        (one, problems), (two, again) = (
            parse_config(minimal(overrides={"source_private": {key: 2}})) for key in ("1-2", "2-1")
        )
        assert problems == again == []
        assert config_hash(two) == config_hash(one)
        assert canonical_dict(two)["overrides"] == {"common": {}, "source_private": {"1-2": 2}}
        cells = [derive_sweep_cell(config, "source_private_overlap", 1)[0] for config in (one, two)]
        assert cells[1] == cells[0]
        assert cells[0].matrix.private_sizes == (2, 3)
        base_union = partition_from_matrix(one.matrix).source_private_union
        assert partition_from_matrix(cells[1].matrix).source_private_union == base_union
        assert len(base_union) == 4
        assert two.matrix == one.matrix and one.matrix.private_overlap == 2

    @pytest.mark.parametrize("section", ["common", "source_private"])
    def test_pair_named_twice_is_a_problem(self, section):
        _, problems = parse_config(minimal(overrides={section: {"1-2": 1, "2-1": 2}}))
        assert problems == [f"overrides.{section} names the pair 1-2 more than once: ['1-2', '2-1']"]

    @pytest.mark.parametrize("section, label", [("common", "common_overlap"), ("source_private", "private_overlap")])
    def test_other_pair_is_a_problem_of_the_parser(self, section, label):
        wrong_pair = f"{label} overrides are only supported for the pair (1, 2) of a 2-source setup"
        for key in ("1-3", "3-1", "1-1"):
            _, problems = parse_config(minimal(overrides={section: {key: 1}}))
            assert problems == [wrong_pair], key
        # the key is read with the overrides, before and beside the rows
        _, problems = parse_config(minimal(umda_matrix=[[9, 4, 6], [3, 3, 3]], overrides={section: {"1-3": 1}}))
        assert problems == [wrong_pair, "common_sizes[0]=9 exceeds target_common=6"]
        _, problems = parse_config(minimal(umda_matrix=[[4, 4, 6]], overrides={section: {"1-2": 1, "1-3": 1}}))
        assert problems[0] == wrong_pair and problems[1].startswith("umda_matrix must be")

    def test_non_object_overrides_are_problems(self):
        for section in ("common", "source_private"):
            for bad in (5, [1, 2], "1-2"):
                _, problems = parse_config(minimal(overrides={section: bad}))
                assert any(f"overrides.{section} must be an object" in p for p in problems)

    def test_infeasible_layout_is_a_problem(self):
        _, problems = parse_config(minimal(umda_matrix=[[2, 2, 6], [0, 0, 0]]))
        assert any("cover" in p for p in problems)

    @pytest.mark.parametrize(
        "changes, problem",
        [
            (dict(overrides={"common": {"1-2": 2.5}}), "overrides.common[1-2] must be a nonnegative integer, got 2.5"),
            (dict(umda_matrix=[[4, 3, 1, 5], [0, 0, 1, 0]]), "common blocks: sizes (4, 3, 1) admit no deterministic layout over window 5"),
        ],
        ids=["fractional pin", "no layout"],
    )
    def test_problem_text(self, changes, problem):
        _, problems = parse_config(minimal(**changes))
        assert problems == [problem]

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

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"[" * 200_000, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ],
        ids=["not_utf8", "nested_past_the_recursion_limit"],
    )
    def test_undecodable_file_is_a_problem(self, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert load_config(path) == (None, [f"{path} is not valid JSON: {reason}"])

    def test_file_is_read_as_utf8_in_any_locale(self, tmp_path):
        """Under the C locale without UTF-8 mode the locale's encoding is
        ASCII; the config is still read as UTF-8."""
        path = tmp_path / "accented.json"
        path.write_bytes(json.dumps(minimal(output_dir="rés"), ensure_ascii=False).encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(Path(uman.cli.__file__).parents[1])}
        script = "import sys; from uman.config import load_config; c, p = load_config(sys.argv[1]); print(ascii((c.output_dir, p)))"
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "('r\\xe9s', [])\n"), proc.stderr

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
        ):
            other, problems = parse_config(change)
            assert problems == []
            assert config_hash(other) != config_hash(base)
        # a run's identity leaves out where it writes; the file form keeps it
        elsewhere, problems = parse_config(minimal(output_dir="elsewhere"))
        assert problems == []
        assert config_hash(elsewhere) == config_hash(base)
        assert canonical_dict(elsewhere)["output_dir"] == "elsewhere"

    def test_canonical_dict_is_json_stable(self):
        config, _ = parse_config(minimal(overrides={"common": {"2-1": 2}}))
        blob = json.dumps(canonical_dict(config), sort_keys=True)
        again, problems = parse_config(json.loads(blob))
        assert problems == []
        assert config_hash(again) == config_hash(config)


def refused(tmp_path, capsys, obj) -> list[str]:
    """The problems ``uman validate`` prints for the config ``obj``, which
    the parser accepts and the planner refuses, with nothing written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**obj, "output_dir": str(tmp_path / "out")}))
    assert load_config(path)[1] == []
    assert uman.cli.main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("invalid: ") for line in lines)
    assert not (tmp_path / "out").exists()
    return [line.removeprefix("invalid: ") for line in lines]


class TestCostBound:
    """One bound on what a method batch holds: every run's dataset rows
    times columns, its parameters, its step buffers and its trace's steps
    times columns, checked on the batches the planner packs."""

    def test_committed_and_battery_configs_pass(self):
        config, problems = load_config(STANDARD)
        assert problems == []
        assert cost_problems([run_cost(config)] * 3) == [] and uman.cli._plan(config, 0)[2] == []
        # the battery's largest cell: the standard layout at 6 target-only classes
        cell, problems = derive_sweep_cell(config, "target_private_size", 6)
        assert problems == []
        assert cost_problems([run_cost(cell)] * 3) == []
        # the largest batch of a sweep of the standard config's cells
        assert cost_problems([run_cost(cell)] * BATCH_RUNS) == []
        # the benchmark's 5-source cell, and its short sweep's batches
        cell, problems = derive_sweep_cell(config, "num_sources", 5)
        assert problems == [] and cost_problems([run_cost(cell)]) == []
        short = replace(config, seeds=(0, 1), hyperparams=replace(config.hyperparams, max_steps=250))
        assert uman.cli._plan(short, 0, "target_private_size", range(7))[2] == []

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
        # the step buffers of uman: 16 steps' draws of 96 rows (3 sub-batches
        # of 32) x 3 columns, and each net's plan over the 96 rows: its
        # activations, then per layer, last first, its dz (but for a hidden
        # linear layer), a sigmoid's scratch, its input gradient, and a
        # weight and bias gradient per block it passes back (G passes back
        # only the 2 source blocks)
        draws = 16 * 96 * 3
        f = 96 * (3 + 5 + 2) + (96 * 2 + 96 * 5 + 3 * 6 * 2) + (96 * 5 + 96 * 3 + 3 * 4 * 5)
        g = 96 * (2 + 12) + (64 * 12 + 64 * 2 + 2 * 3 * 12)
        d = 96 * (2 + 4 + 1) + (96 + 96 + 96 * 4 + 3 * 5 * 1) + (96 * 4 + 96 * 2 + 3 * 3 * 4)
        buffers = draws + f + g + d
        # a trace row per step: step, 2 losses, 2 error rates, 3 weight means, the gate
        want = 2 * (rows * 3 + params + buffers + 7 * 9)
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", want)
        assert cost_problems([run_cost(config)] * 2) == []
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", want - 1)
        assert cost_problems([run_cost(config)] * 2) == [
            f"a method batch would hold {want:,} floats (2 runs x ({rows:,} dataset rows x 3 columns"
            f" + {params:,} parameters + {buffers:,} step buffer floats + 7 trace rows x 9 columns)),"
            f" above the limit of {want - 1:,}"
        ]
        # the ablations also hold a chunk of G's outputs: 16 steps x 96 rows
        # x 12 classes in unweighted_adv, which holds D's plan too
        assert run_floats(*run_cost(replace(config, methods=("uman", "unweighted_adv"))))[2] == buffers + 16 * 96 * 12

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("hidden", [[5], [], [6, 3]])
    def test_step_buffers_are_what_a_batch_allocates(self, method, hidden):
        """The step buffers counted per run equal the buffers a batch of
        two runs holds once it has drawn a chunk and passed back, its first
        or any later one: its plans' activations and backward buffers, its
        draws and, in the ablations, its chunk of G outputs."""
        config, problems = parse_config(minimal(
            synthetic={"feature_dim": 3, "samples_per_class": 10},
            hyperparams={"feature_hidden": hidden, "feature_dim": 2, "disc_hidden": hidden, "batch_size": 8},
            methods=[method],
        ))
        assert problems == []
        partition = partition_from_matrix(config.matrix)
        runs = [(generate(config.synthetic, partition), replace(config.hyperparams, seed=seed)) for seed in (0, 1)]
        batch = _Batch(runs, run_layout(config), method)
        plans = [a for plan in batch.plans if plan for a in plan_arrays(plan)]
        for first in (0, 16):
            batch.draw(first)
            nbytes = held_nbytes(*plans, batch.x, batch.logits)
            assert step_floats(run_layout(config), method) == -(-nbytes // 2 // 8)
        assert run_floats(*run_cost(config))[2] == step_floats(run_layout(config), method)

    def test_rotation_counts(self, tmp_path, capsys):
        """Generating a rotated domain holds numpy's QR of a d x d draw,
        4.25 d**2 floats: the committed config at 5,000 columns and one
        sample per class is over the bound with rotation, and fits without.
        ``generate`` refuses its data before it draws."""
        obj = json.loads(STANDARD.read_text())
        obj["synthetic"].update(feature_dim=5000, samples_per_class=1, domain_rotation=True)
        assert refused(tmp_path, capsys, obj) == [
            "a method batch would hold 329,896,839 floats (3 runs x (25 dataset rows x 5000 columns + 322,461 parameters"
            " + 3,234,402 step buffer floats + 3,750 trace rows x 9 columns + 106,250,000 rotation floats)),"
            " above the limit of 100,000,000"
        ]
        config, problems = parse_config({**obj, "output_dir": str(tmp_path / "out")})
        assert problems == []
        with pytest.raises(ValueError) as refusal:
            generate(config.synthetic, config.matrix.partition)
        assert str(refusal.value) == (
            "the datasets would hold 25 rows x 5000 columns + 106,250,000 rotation floats, above the limit of 100,000,000"
        )
        unrotated = replace(config, synthetic=replace(config.synthetic, domain_rotation=False))
        assert uman.cli._plan(unrotated, 0)[2] == []

    def test_wide_hidden_layer_is_over_the_bound(self, tmp_path, capsys):
        """A feature net 200,000 wide on the committed config: the three
        runs' datasets, parameters and traces fit, but not with F's hidden
        activations and their gradient buffers (3 x 96 x 200,000 floats
        each)."""
        obj = json.loads(STANDARD.read_text())
        obj["hyperparams"]["feature_hidden"] = [200000]
        problems = refused(tmp_path, capsys, obj)
        assert len(problems) == 1
        assert problems[0].startswith("a method batch would hold ") and "(3 runs x (" in problems[0]
        standard, _ = load_config(STANDARD)
        wide = replace(standard, hyperparams=replace(standard.hyperparams, feature_hidden=(200000,)))
        rows, params, buffers, steps, columns = run_floats(*run_cost(wide))
        assert 3 * (rows * 16 + params + steps * columns) <= MAX_RUN_FLOATS
        assert buffers > 3 * 96 * 200000
        assert f" + {buffers:,} step buffer floats + " in problems[0]

    def test_trace_counts(self, tmp_path, capsys):
        """A run of 10^9 steps holds a trace row per step; without the
        trace it would fit."""
        problems = refused(tmp_path, capsys, minimal(hyperparams={"max_steps": 10**9}))
        assert len(problems) == 1
        assert "(1 run x (" in problems[0]
        assert " + 1,000,000,000 trace rows x 9 columns)), above the limit of 100,000,000" in problems[0]

    @pytest.mark.parametrize("n_sources", [2, 5])
    def test_trace_columns_are_those_of_trace_csv(self, n_sources):
        config, problems = parse_config(minimal())
        assert problems == []
        cell, problems = derive_sweep_cell(config, "num_sources", n_sources)
        assert problems == []
        assert run_floats(*run_cost(cell))[-1] == len(trace_columns(n_sources))

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_count_is_what_a_trained_run_holds(self, method):
        config, problems = parse_config(minimal(
            synthetic={"feature_dim": 3, "samples_per_class": 10},
            hyperparams={"feature_hidden": [5], "feature_dim": 2, "disc_hidden": [4], "max_steps": 20, "batch_size": 8},
        ))
        assert problems == []
        partition = partition_from_matrix(config.matrix)
        result = train(generate(config.synthetic, partition), partition, config.hyperparams, method=method)
        *_, steps, columns = run_floats(*run_cost(config))
        assert result.trace.dtype == np.float64
        assert result.trace.nbytes == 8 * steps * columns

    def test_a_batch_holds_at_most_batch_runs_seeds(self, monkeypatch):
        """The seeds of a config train in the fewest near-equal batches of
        at most BATCH_RUNS runs, and each one is costed."""
        for n in range(1, 40):
            sizes = batch_runs(n)
            assert sum(sizes) == n and len(sizes) == -(-n // BATCH_RUNS)
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        assert batch_runs(14) == [5, 5, 4]  # a 7-cell sweep of 2 seeds
        config, problems = parse_config(minimal(seeds=list(range(9))))
        assert problems == []
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", 0)
        problems = uman.cli._plan(config, 0)[2]
        assert [p.startswith("a method batch would hold ") for p in problems] == [True, True]
        assert "(5 runs x (" in problems[0] and "(4 runs x (" in problems[1]

    def test_cells_of_one_batch_are_costed_together(self, monkeypatch):
        config, problems = parse_config(minimal())
        assert problems == []
        cells = [derive_sweep_cell(config, "target_private_size", v)[0] for v in (0, 0, 2)]
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", 0)
        [problem] = cost_problems(map(run_cost, cells))
        assert "(2 runs x (4,000 dataset rows" in problem and " + 1 run x (4,400 dataset rows" in problem

    def test_huge_dataset_is_a_problem_with_the_limit(self, tmp_path, capsys):
        problems = refused(tmp_path, capsys, minimal(synthetic={"samples_per_class": 10**12}))
        assert len(problems) == 1
        assert f"above the limit of {MAX_RUN_FLOATS:,}" in problems[0]
        assert "dataset rows" in problems[0]

    def test_huge_width_is_a_problem(self, tmp_path, capsys):
        assert "parameters" in refused(tmp_path, capsys, minimal(hyperparams={"feature_hidden": [10**9]}))[0]

    def test_sweep_cell_is_costed_on_its_own(self):
        config, problems = parse_config(minimal(synthetic={"samples_per_class": 10**5}))
        assert problems == []
        cell, problems = derive_sweep_cell(config, "num_sources", 50)
        assert problems == []
        assert "above the limit" in cost_problems([run_cost(cell)])[0]


class TestScalability:
    """The paper keeps one F, G and D at any number of sources."""

    def test_f_and_d_do_not_grow_with_the_sources(self):
        """At 2, 5 and 10 sources of the committed config, F and D hold the
        same parameters, and G (feature_dim + 1) per source class: counted
        from the nets' shapes and in the nets training builds, and the
        cost bound counts the same."""
        config, problems = load_config(STANDARD)
        assert problems == []
        hp, in_dim = config.hyperparams, config.synthetic.feature_dim
        f_and_d, classes = set(), set()
        for n_sources in (2, 5, 10):
            cell, problems = derive_sweep_cell(config, "num_sources", n_sources)
            assert problems == []
            n_classes = partition_from_matrix(cell.matrix).n_source_classes
            shaped = [sum((i + 1) * o for i, o in zip(w, w[1:])) for w, _ in net_shapes(hp, in_dim, n_classes)]
            built = [net.params.size for net in _build_nets(hp, in_dim, n_classes)]
            assert built == shaped
            assert shaped[1] == (hp.feature_dim + 1) * n_classes
            assert run_floats(*run_cost(cell))[1] == sum(built)
            f_and_d.add((shaped[0], shaped[2]))
            classes.add(n_classes)
        assert len(f_and_d) == 1 and len(classes) == 3


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

    def test_base_with_no_layout_is_not_built(self):
        # the parser's refusal, raised when the matrix is built: no config,
        # and so no sweep cell, can hold common blocks no layout realizes
        with pytest.raises(LabelConfigError, match=r"^common blocks: sizes \(4, 3, 1\) admit no deterministic layout over window 5$"):
            replace(self.base().matrix, common_sizes=(4, 3, 1), private_sizes=(0, 0, 1), target_common=5)

    def test_unknown_axis_rejected(self):
        _, problems = derive_sweep_cell(self.base(), "learning_rate", 1)
        assert any("unknown axis" in p for p in problems)
        assert "learning_rate" not in SWEEP_AXES

    def test_overlap_axes_need_two_sources(self):
        three, problems = derive_sweep_cell(self.base(), "num_sources", 3)
        assert problems == []
        _, problems = derive_sweep_cell(three, "common_overlap", 1)
        assert any("2-source" in p for p in problems)

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_non_integer_value_is_named_before_any_bound(self, axis):
        for value in ("3", 1.5, True, None, [2]):
            with pytest.raises(TypeError, match=f"^{axis} value must be integral, got {re.escape(repr(value))}$"):
                derive_sweep_cell(self.base(), axis, value)
        # a numpy integer is the int it holds, and a bound still makes a problem
        assert derive_sweep_cell(self.base(), axis, np.int64(2)) == derive_sweep_cell(self.base(), axis, 2)
        for value in (np.int64(-1), 2**70):
            cell, problems = derive_sweep_cell(self.base(), axis, value)
            assert cell is None and problems == [f"{axis} value must be {'>= 0' if value < 0 else f'<= {MAX_CLASSES}'}, got {value}"]


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
    @PROPERTY
    def test_parse_config_returns_config_or_problems(self, obj):
        _parsed(obj)

    @given(
        st.sampled_from(
            [("synthetic", f.name) for f in fields(SyntheticSpec)]
            + [("hyperparams", f.name) for f in fields(Hyperparams)]
        ),
        _HUGE | _JUNK,
    )
    @PROPERTY
    def test_any_field_value_gives_config_or_problems(self, field, value):
        section, name = field
        _parsed(minimal(**{section: {name: value}}))

    @given(_configs(junk=False), st.sampled_from(["seeds", "synthetic", "hyperparams"]), st.integers(-3, 3))
    @PROPERTY
    def test_any_seed_gives_config_or_problems(self, obj, where, seed):
        if where == "seeds":
            obj = dict(obj, seeds=[seed])
        else:
            obj = dict(obj, **{where: dict(obj.get(where, {}), seed=seed)})
        _parsed(obj)

    @given(_configs(junk=False))
    @PROPERTY
    def test_valid_config_round_trips_with_its_hash(self, obj):
        config = _parsed(obj)
        assume(config is not None)
        again, problems = parse_config(json.loads(json.dumps(canonical_dict(config), allow_nan=False)))
        assert problems == []
        assert again == config
        assert config_hash(again) == config_hash(config)

    @given(_configs(junk=False), st.sampled_from(SWEEP_AXES), st.integers(-2, 12) | _HUGE)
    @PROPERTY
    def test_sweep_cell_is_valid_or_rejected(self, obj, axis, value):
        config = _parsed(obj)
        assume(config is not None)
        cell, problems = derive_sweep_cell(config, axis, value)
        assert (cell is None) == bool(problems)
        if cell is not None:
            again, problems = parse_config(json.loads(json.dumps(canonical_dict(cell), allow_nan=False)))
            assert problems == []
            assert config_hash(again) == config_hash(cell)


# ---- one rule for methods, seeds and output_dir: the parser's and the constructor's

# entries a methods or seeds list may hold: valid ones, wrong types, bools,
# floats, numpy integers, an integer beyond int64, and unhashable entries
_RULE_ENTRY = (
    st.sampled_from(METHODS)
    | st.integers(-2, 4)
    | st.integers(0, 4).map(np.int64)
    | st.sampled_from([True, False, 0.0, 1.5, float("nan"), 2**70, "0", "", None, [0], ["uman"], {}])
)
# empty, repeated and negative lists among them; a tuple as Python may pass it
_RULE_ANY = st.lists(_RULE_ENTRY, max_size=4) | st.lists(_RULE_ENTRY, max_size=4).map(tuple) | _RULE_ENTRY
_RULE_METHODS = st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True) | _RULE_ANY
_RULE_SEEDS = (
    st.lists(st.integers(0, 5) | st.integers(0, 5).map(np.int64), min_size=1, max_size=4, unique_by=int)
    | st.lists(st.integers(-1, 5), min_size=1, max_size=4)
    | _RULE_ANY
)
_RULE_OUTPUT_DIRS = st.sampled_from(["out", "runs/a"]) | st.sampled_from(["", None, 0, True, Path("out"), b"out", ["out"]])


class TestExperimentRule:
    def test_parser_messages_in_order(self):
        _, problems = parse_config(minimal(methods=["uman", "uman"], seeds=[3, -1, -2], output_dir=""))
        assert problems == [
            f"methods must be a nonempty list of distinct names from {METHODS}",
            "seeds must be >= 0, got [-1, -2]",
            "output_dir is required and must be a nonempty string",
        ]
        _, problems = parse_config({"umda_matrix": [[4, 4, 6], [3, 3, 3]], "seeds": [1, True]})
        assert problems == [
            "seeds must be a nonempty list of distinct integers",
            "output_dir is required and must be a nonempty string",
        ]

    def test_built_config_holds_tuples_of_ints(self):
        config, _ = load_config(STANDARD)
        built = ExperimentConfig(
            config.matrix, config.synthetic, config.hyperparams, ["uman"], [np.int64(4), np.uint8(2)], "out"
        )
        assert built.methods == ("uman",) and built.seeds == (4, 2)
        assert [type(s) for s in built.seeds] == [int, int]
        assert config_hash(built) == config_hash(replace(built, seeds=(4, 2)))

    @given(_RULE_METHODS, _RULE_SEEDS, _RULE_OUTPUT_DIRS)
    @PROPERTY
    def test_parser_and_constructor_agree(self, methods, seeds, output_dir):
        """The committed file with these values gives exactly the problems
        building the config with them raises, or both accept and give one
        config."""
        obj = json.loads(STANDARD.read_text())
        base, problems = parse_config(obj)
        assert problems == []
        config, problems = parse_config(dict(obj, methods=methods, seeds=seeds, output_dir=output_dir))
        try:
            built = ExperimentConfig(base.matrix, base.synthetic, base.hyperparams, methods, seeds, output_dir)
        except ValueError as exc:
            assert config is None and str(exc) == "; ".join(problems)
        else:
            assert problems == [] and built == config
            assert config_hash(built) == config_hash(config)
