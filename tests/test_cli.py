"""Command-line interface: validate/run/sweep, artifacts, and determinism."""

import csv
import itertools
import json
import re
import shutil
import subprocess
import sys
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import run_cost

import uman.cli
import uman.core
import uman.labelspace
from uman.cli import BATCH_RUNS, batch_runs, execute_run, execute_sweep, main
from uman.config import canonical_dict, config_hash, derive_sweep_cell, load_config
from uman.core import MAX_RUN_FLOATS, TrainingDiverged, run_floats, train
from uman.evaluate import evaluate
from uman.labelspace import LabelConfigError, UmdaMatrix, partition_from_matrix
from uman.nn import NonFiniteGradientError
from uman.synth import generate


STANDARD = Path(__file__).resolve().parents[1] / "demos" / "configs" / "standard.json"


def tiny_config(tmp_path, **kw):
    obj = {
        "umda_matrix": [[2, 2, 3], [1, 1, 1]],
        "synthetic": {"feature_dim": 4, "samples_per_class": 8},
        "hyperparams": {
            "max_steps": 6,
            "batch_size": 8,
            "feature_hidden": [8],
            "feature_dim": 4,
            "disc_hidden": [4],
        },
        "methods": ["uman"],
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    obj.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def three_by_three(tmp_path, lr, steps=8):
    """All three methods over seeds 0-2 for ``steps`` steps at learning
    rate ``lr``: in 8 steps at 0.1 every run converges, at 5e103 seed 0
    converges and the others diverge."""
    return tiny_config(
        tmp_path,
        methods=["uman", "source_only", "unweighted_adv"],
        seeds=[0, 1, 2],
        hyperparams={
            "max_steps": steps,
            "batch_size": 8,
            "feature_hidden": [8],
            "feature_dim": 4,
            "disc_hidden": [4],
            "lr_features": lr,
            "lr_classifier": lr,
            "lr_discriminator": lr,
        },
    )


def files_under(root):
    """Every file below ``root`` by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def sleep_then_log(task):
    """Pool task of the scheduling tests: sleep, then raise if named
    "fail", else log its start and end time into a file of its name."""
    name, seconds, log_dir = task
    start = time.time()
    time.sleep(seconds)
    if name == "fail":
        raise ValueError(name)
    (log_dir / name).write_text(f"{start} {time.time()}")
    return name


def fail_writes_to(monkeypatch, name):
    """Make the CSV writer raise "disk full" after the header and first
    row of every file written to ``name`` (its temporary file)."""
    writer = csv.writer

    class RowThenError:
        def __init__(self, fh):
            self.fh, self.rows = fh, writer(fh)

        def writerows(self, rows):
            rows = iter(rows)
            self.rows.writerows(itertools.islice(rows, 2))  # the header and the first row
            if Path(self.fh.name).name == f"{name}.tmp":
                raise OSError("disk full")
            self.rows.writerows(rows)

    monkeypatch.setattr(uman.cli.csv, "writer", RowThenError)


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace ``cli``'s process pool by one that runs each task in this
    process when it is submitted; returns the size of every pool
    requested."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(uman.cli, "ProcessPoolExecutor", FakePool)
    return sizes


@pytest.fixture
def one_worker(monkeypatch):
    """Run the method batches in this process. A test that patches code
    reached by training needs it: a worker process started by ``forkserver``
    or ``spawn`` imports the package afresh, without the patch."""
    monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 1)


class TestValidate:
    def test_valid_config_prints_layout_and_jaccard(self, tmp_path, capsys):
        rc = main(["validate", str(tiny_config(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "is valid" in out
        assert "2 sources" in out
        assert "source 1: shared" in out
        assert "target: shared" in out
        # first source: 2 shared + 1 private of 7 total classes; target 3 + 1
        assert "xi_1 = " in out and "xi_12 = " in out

    def test_invalid_config_lists_every_problem(self, tmp_path, capsys):
        path = tiny_config(tmp_path, methods=["dann"], seeds=[1, 1], overrides={"common": 5})
        rc = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.count("invalid:") >= 3
        assert "invalid: overrides.common must be an object" in out

    def test_pair_named_twice_exits_one(self, tmp_path, capsys):
        path = tiny_config(tmp_path, overrides={"common": {"1-2": 1, "2-1": 1}})
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == "invalid: overrides.common names the pair 1-2 more than once: ['1-2', '2-1']\n"

    def test_matrix_with_no_layout_exits_one(self, tmp_path, capsys):
        path = tiny_config(tmp_path, umda_matrix=[[4, 3, 1, 5], [0, 0, 1, 0]])
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == "invalid: common blocks: sizes (4, 3, 1) admit no deterministic layout over window 5\n"

    def test_non_finite_values_exit_one(self, tmp_path, capsys):
        path = tiny_config(
            tmp_path,
            synthetic={"feature_dim": 4, "noise_sigma": float("nan")},
            hyperparams={
                "lr_features": float("nan"),
                "grl_max_lambda": float("inf"),
                "weight_decay": float("-inf"),
            },
        )
        assert "NaN" in path.read_text() and "Infinity" in path.read_text()
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        for field in ("synthetic.noise_sigma", "hyperparams.lr_features",
                      "hyperparams.grl_max_lambda", "hyperparams.weight_decay"):
            assert f"invalid: {field} must be a finite number" in out

    def test_negative_seeds_exit_one(self, tmp_path, capsys):
        path = tiny_config(tmp_path, seeds=[-1], synthetic={"seed": -2}, hyperparams={"seed": -3})
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "invalid: seeds must be >= 0, got [-1]" in out
        assert "invalid: synthetic: seed must be >= 0, got -2" in out
        assert "invalid: hyperparams: seed must be >= 0, got -3" in out

    def test_jaccard_values_are_fractions(self, tmp_path, capsys):
        main(["validate", str(tiny_config(tmp_path))])
        out = capsys.readouterr().out
        # source 1 labels {0,1,3}, target {0,1,2,5}: intersection 2, union 5
        assert "xi_1 = 2/5 = 0.4000" in out


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        path = tiny_config(tmp_path, methods=["uman", "source_only"], seeds=[0, 1])
        rc = main(["run", str(path)])
        assert rc == 0
        out_dir = tmp_path / "out"
        rows = read_rows(out_dir / "summary.csv")
        header = rows[0]
        assert header[:5] == ["config_hash", "method", "seed", "status", "mean_per_class_accuracy"]
        assert header[5:] == ["acc_0", "acc_1", "acc_2", "acc_unknown"]
        assert len(rows) == 1 + 4  # 2 methods x 2 seeds
        for method in ("uman", "source_only"):
            for seed in (0, 1):
                run_dir = out_dir / "runs" / f"{method}_{seed}"
                assert (run_dir / "trace.csv").exists()
                assert (run_dir / "tmr.csv").exists()
                report = json.loads((run_dir / "report.json").read_text())
                assert report["method"] == method
                assert report["seed"] == seed
        printed = capsys.readouterr().out
        assert "mean accuracy" in printed
        assert str(out_dir / "summary.csv") in printed

    def test_summary_rows_match_reports(self, tmp_path):
        path = tiny_config(tmp_path)
        main(["run", str(path)])
        out_dir = tmp_path / "out"
        rows = read_rows(out_dir / "summary.csv")
        report = json.loads((out_dir / "runs" / "uman_0" / "report.json").read_text())
        row = rows[1]
        assert row[1] == "uman" and row[2] == "0" and row[3] == "ok"
        assert float(row[4]) == report["mean_per_class_accuracy"]
        assert report["config_hash"] == row[0]

    def test_trace_has_one_row_per_step(self, tmp_path):
        path = tiny_config(tmp_path, methods=["uman", "source_only"])
        main(["run", str(path)])
        rows = read_rows(tmp_path / "out" / "runs" / "uman_0" / "trace.csv")
        assert rows[0][:3] == ["step", "class_loss", "domain_loss"]
        assert "err_source_1" in rows[0] and "err_source_2" in rows[0]
        assert rows[0][-1] == "tmr_updated"
        assert {r[-1] for r in rows[1:]} <= {"0", "1"}
        assert len(rows) == 1 + 6
        baseline = read_rows(tmp_path / "out" / "runs" / "source_only_0" / "trace.csv")
        assert baseline[0][-1] == "tmr_updated"
        assert [r[-1] for r in baseline[1:]] == ["0"] * 6
        tmr = read_rows(tmp_path / "out" / "runs" / "uman_0" / "tmr.csv")
        assert tmr[0] == ["class_index", "value"]
        assert len(tmr) == 1 + 5  # one row per source class

    def test_zero_step_trace_names_every_source(self, tmp_path):
        """A run of no steps writes the header a run of some steps writes."""
        headers = []
        for steps in (0, 3):
            path = tiny_config(tmp_path, hyperparams={"max_steps": steps, "batch_size": 8})
            assert main(["run", str(path)]) == 0
            rows = read_rows(tmp_path / "out" / "runs" / "uman_0" / "trace.csv")
            assert len(rows) == 1 + steps
            headers.append(rows[0])
        assert headers[0] == headers[1]
        assert headers[0][3:5] == ["err_source_1", "err_source_2"]

    def test_rerun_is_byte_identical(self, tmp_path):
        path = tiny_config(tmp_path)
        main(["run", str(path)])
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        main(["run", str(path)])
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first

    def test_failed_summary_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tiny_config(tmp_path, seeds=[0, 1])
        main(["run", str(path)])
        out_dir = tmp_path / "out"
        before = (out_dir / "summary.csv").read_bytes()
        fail_writes_to(monkeypatch, "summary.csv")
        with pytest.raises(OSError, match="disk full"):
            main(["run", str(path)])
        assert (out_dir / "summary.csv").read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["runs", "summary.csv"]

    def test_failed_trace_write_keeps_previous_file(self, tmp_path, monkeypatch, one_worker):
        path = tiny_config(tmp_path)
        main(["run", str(path)])
        run_dir = tmp_path / "out" / "runs" / "uman_0"
        before = (run_dir / "trace.csv").read_bytes()
        fail_writes_to(monkeypatch, "trace.csv")
        with pytest.raises(OSError, match="disk full"):
            main(["run", str(path)])
        assert (run_dir / "trace.csv").read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == ["report.json", "tmr.csv", "trace.csv"]
        assert not list((tmp_path / "out").rglob("*.tmp"))

    def test_gradient_failure_report_holds_the_step(self, tmp_path, monkeypatch, one_worker):
        """An infinity planted in the middle run's feature gradient at step
        40 ends that run there; its outcome and its report say so."""
        config, _ = load_config(tiny_config(
            tmp_path, methods=["unweighted_adv"], seeds=[0, 1, 2],
            hyperparams={"max_steps": 50, "batch_size": 8, "feature_hidden": [8],
                         "feature_dim": 4, "disc_hidden": [4]},
        ))
        backward, train_runs = uman.core.l2_normalize_backward, uman.cli.train_runs
        calls, outcomes = [], []

        def planted(x, grad, *norms):
            out = backward(x, grad, *norms)
            calls.append(None)
            if len(calls) == 41:
                out[1, 0, 0] = np.inf
            return out

        def recording(*args, **kwargs):
            got = train_runs(*args, **kwargs)
            outcomes.extend(got)
            return got

        monkeypatch.setattr(uman.core, "l2_normalize_backward", planted)
        monkeypatch.setattr(uman.cli, "train_runs", recording)
        rows = uman.cli.execute_run(config, quiet=True)
        assert [r[3] for r in rows] == ["ok", "failed", "ok"]
        assert type(outcomes[1]) is NonFiniteGradientError and outcomes[1].step == 40
        report = json.loads((tmp_path / "out" / "runs" / "unweighted_adv_1" / "report.json").read_text())
        assert report["status"] == "failed" and report["step"] == 40
        assert report["error"] == str(outcomes[1])

    def test_failed_rerun_removes_stale_artifacts(self, tmp_path):
        """A run that fails where an earlier run succeeded leaves only its
        own report, not the earlier run's trace and register."""
        path = tiny_config(tmp_path, hyperparams={
            "max_steps": 4, "batch_size": 8, "feature_hidden": [8],
            "feature_dim": 4, "disc_hidden": [4],
        })
        assert main(["run", str(path)]) == 0
        run_dir = tmp_path / "out" / "runs" / "uman_0"
        assert sorted(p.name for p in run_dir.iterdir()) == ["report.json", "tmr.csv", "trace.csv"]
        path = tiny_config(tmp_path, hyperparams={
            "max_steps": 4, "batch_size": 8, "feature_hidden": [8],
            "feature_dim": 4, "disc_hidden": [4],
            "lr_features": 1e300, "lr_classifier": 1e300, "lr_discriminator": 1e300,
        })
        assert main(["run", str(path)]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == ["report.json"]
        assert json.loads((run_dir / "report.json").read_text())["status"] == "failed"

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tiny_config(tmp_path, umda_matrix=[[9, 9, 3], [1, 1, 1]])
        assert main(["run", str(path)]) == 2
        assert "invalid:" in capsys.readouterr().out

    def test_config_over_the_cost_bound_exits_before_any_write(self, tmp_path, capsys):
        path = tiny_config(tmp_path, synthetic={"feature_dim": 4, "samples_per_class": 10**12})
        assert main(["validate", str(path)]) == 1
        assert f"above the limit of {MAX_RUN_FLOATS:,}" in capsys.readouterr().out
        assert main(["run", str(path)]) == 2
        assert f"above the limit of {MAX_RUN_FLOATS:,}" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_api_run_over_the_cost_bound_raises_before_any_write(self, tmp_path, monkeypatch):
        """``execute_run`` checks the batches it would train, as ``uman
        run`` does."""
        config, _ = load_config(tiny_config(tmp_path, seeds=[0, 1]))
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", 1000)
        with pytest.raises(ValueError, match="^a method batch would hold .* above the limit of 1,000$"):
            execute_run(config, quiet=True)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "matrix, problems",
        [
            ([[2, 0, 2], [1, 0, 1]], ["source 2 has no classes"]),
            ([[0, 0, 0], [2, 2, 0]], ["the target has no classes"]),
            ([[0, 0], [0, 0]], ["source 1 has no classes", "the target has no classes"]),
        ],
    )
    def test_domain_without_classes_exits_before_any_write(self, tmp_path, capsys, matrix, problems):
        path = tiny_config(tmp_path, umda_matrix=matrix)
        want = "".join(f"invalid: {p}\n" for p in problems)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == want
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().out == want
        assert not (tmp_path / "out").exists()

    def test_trace_over_the_cost_bound_exits_before_any_write(self, tmp_path, capsys):
        """10^9 steps hold 10^9 trace rows per run: over the bound."""
        obj = json.loads(STANDARD.read_text())
        obj["hyperparams"]["max_steps"] = 10**9
        obj["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 1
        assert "1,000,000,000 trace rows x 9 columns" in capsys.readouterr().out
        for argv in (["run", str(path)], ["sweep", str(path), "--axis", "target_private_size", "--values", "0"]):
            assert main(argv) == 2
            assert f"above the limit of {MAX_RUN_FLOATS:,}" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_failed_run_band_keeps_going(self, tmp_path):
        # a NaN-producing setup cannot be injected via config, so force a
        # divergence through an absurd learning rate on a separable problem
        path = tiny_config(
            tmp_path,
            hyperparams={
                "max_steps": 4,
                "batch_size": 8,
                "feature_hidden": [8],
                "feature_dim": 4,
                "disc_hidden": [4],
                "lr_features": 1e300,
                "lr_classifier": 1e300,
                "lr_discriminator": 1e300,
            },
            methods=["uman", "source_only"],
        )
        rc = main(["run", str(path)])
        assert rc == 0
        rows = read_rows(tmp_path / "out" / "summary.csv")
        statuses = {(r[1], r[3]) for r in rows[1:]}
        assert len(rows) == 3
        assert ("uman", "failed") in statuses or ("uman", "ok") in statuses
        # both methods produce a row either way
        assert {r[1] for r in rows[1:]} == {"uman", "source_only"}

    def test_failed_run_writes_its_report(self, tmp_path):
        path = tiny_config(
            tmp_path,
            hyperparams={
                "max_steps": 4,
                "batch_size": 8,
                "feature_hidden": [8],
                "feature_dim": 4,
                "disc_hidden": [4],
                "lr_features": 1e300,
                "lr_classifier": 1e300,
                "lr_discriminator": 1e300,
            },
            methods=["uman", "source_only"],
        )
        assert main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "summary.csv")
        assert [r[3] for r in rows[1:]] == ["failed", "failed"]
        for r in rows[1:]:
            run_dir = tmp_path / "out" / "runs" / f"{r[1]}_{r[2]}"
            assert sorted(p.name for p in run_dir.iterdir()) == ["report.json"]
            report = json.loads((run_dir / "report.json").read_text())
            assert report["status"] == "failed"
            assert report["method"] == r[1] and report["seed"] == int(r[2])
            assert report["config_hash"] == r[0]
            assert report["error"].startswith("non-finite loss at step ")
            assert report["error"].endswith(str(report["step"]))


def one_run_at_a_time(config, out_dir):
    """What ``execute_run`` writes, from one training call per (method,
    seed) in turn; returns the summary rows."""
    partition = partition_from_matrix(config.matrix)
    chash = config_hash(config)
    rows = []
    for method in config.methods:
        for seed in config.seeds:
            spec = replace(config.synthetic, seed=config.synthetic.seed + seed)
            hp = replace(config.hyperparams, seed=config.hyperparams.seed + seed)
            train_sets = generate(spec, partition)
            test = generate(spec, partition, draw=1)[-1]
            run_dir = out_dir / "runs" / f"{method}_{seed}"
            run_dir.mkdir(parents=True)
            # the run's identity, which its evaluation report does not hold
            identity = {
                "config_hash": chash, "method": method, "seed": seed,
                "data_seed": spec.seed, "seed_offset": 0, "training_seed": hp.seed,
            }
            try:
                result = train(train_sets, partition, hp, method=method)
            except (TrainingDiverged, NonFiniteGradientError) as exc:
                uman.cli._write_json(run_dir / "report.json", {
                    **identity, "error": str(exc), "status": "failed", "step": exc.step,
                })
                rows.append(uman.cli._summary_row(partition, chash, method, seed))
                continue
            report = evaluate(result.feature_net, result.classifier, test, partition, hp.w0)
            uman.cli._write_trace(run_dir / "trace.csv", result.trace, partition.n_sources)
            uman.cli._write_register(run_dir / "tmr.csv", result.register)
            uman.cli._write_json(run_dir / "report.json", {**asdict(report), **identity})
            rows.append(uman.cli._summary_row(partition, chash, method, seed, report))
    return rows


class TestBatchedRunMatchesRunByRun:
    """``execute_run`` trains a method's seeds as one batch; every row and
    file must be what training one run at a time writes."""

    @pytest.mark.parametrize("lr", [0.1, 5e103], ids=["converging", "partly_diverging"])
    def test_same_rows_and_files(self, tmp_path, lr):
        path = three_by_three(tmp_path, lr)
        assert main(["run", str(path)]) == 0
        config, _ = load_config(path)
        batched, alone = tmp_path / "out", tmp_path / "alone"
        want = one_run_at_a_time(config, alone)
        rows = read_rows(batched / "summary.csv")[1:]
        assert rows == [[str(v) for v in row] for row in want]
        # at this rate seed 0 converges and the others diverge, in one batch
        statuses = {r[3] for r in rows}
        assert statuses == ({"ok"} if lr == 0.1 else {"ok", "failed"})

        files = sorted(p.relative_to(alone) for p in alone.rglob("*") if p.is_file())
        assert len(files) > 9
        assert files == sorted(
            p.relative_to(batched) for p in (batched / "runs").rglob("*") if p.is_file()
        )
        for name in files:
            assert (batched / name).read_bytes() == (alone / name).read_bytes(), name

    def test_same_warnings(self, tmp_path, one_worker):
        """A batch in which runs diverge prints no numpy warning, as those
        runs alone print none: each failure is reported in its row and
        report, and an overflow warning would only repeat it."""
        config, _ = load_config(three_by_three(tmp_path, 5e103))

        def warned(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fn()
            return {(w.category, str(w.message), w.filename, w.lineno) for w in caught}

        rows = []
        batched = warned(lambda: rows.extend(uman.cli.execute_run(config, quiet=True)))
        assert "failed" in [row[3] for row in rows]  # the diverging runs do overflow
        assert batched == warned(lambda: one_run_at_a_time(config, tmp_path / "alone")) == set()


class TestMethodPool:
    """``execute_run`` trains its method batches in a process pool, one
    worker per method and CPU; rows, files and printed lines must be those
    of one worker, whatever the machine's CPU count."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The size of every real process pool ``cli`` starts."""
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(uman.cli, "ProcessPoolExecutor", Recording)
        return sizes

    def run_on(self, cpus, path, monkeypatch, capsys):
        """``uman run`` into a fresh output directory with ``cpus`` CPUs;
        returns the exit code, every file written and the printed text."""
        out_dir = path.parent / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: cpus)
        rc = main(["run", str(path)])
        return rc, files_under(out_dir), capsys.readouterr().out

    @pytest.mark.parametrize("lr", [0.1, 5e103], ids=["converging", "partly_diverging"])
    def test_two_workers_match_one(self, tmp_path, monkeypatch, capsys, pools, lr):
        path = three_by_three(tmp_path, lr)
        rc, serial, printed = self.run_on(1, path, monkeypatch, capsys)
        assert rc == 0 and pools == []
        assert len(serial) == 1 + 9 + (18 if lr == 0.1 else 6)
        assert printed.count("\n") == 9 + 1
        assert self.run_on(2, path, monkeypatch, capsys) == (0, serial, printed)
        assert pools == [2]

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys, pools):
        path = three_by_three(tmp_path, 0.1)

        def blocked_run(method, cpus):
            # a plain file where the method's first run directory belongs
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            blocked = tmp_path / "out" / "runs" / f"{method}_0"
            blocked.parent.mkdir(parents=True)
            blocked.write_text("")
            monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: cpus)
            with pytest.raises(FileExistsError) as info:
                main(["run", str(path)])
            assert str(blocked) in str(info.value)
            assert not (tmp_path / "out" / "summary.csv").exists()
            return sorted(p.name for p in blocked.parent.iterdir())

        # batches go out as uman, unweighted_adv, source_only, and none
        # after one raises: source_only never runs
        runs = ["uman_0", "uman_1", "uman_2", "unweighted_adv_0"]
        assert blocked_run("unweighted_adv", 1) == runs
        assert pools == []
        # the last batch fails in a worker; the two before it ran to the end
        serial = blocked_run("source_only", 1)
        assert serial == ["source_only_0"] + runs + ["unweighted_adv_1", "unweighted_adv_2"]
        assert blocked_run("source_only", 2) == serial
        assert pools == [2]

    def test_free_worker_takes_the_next_task(self, tmp_path, monkeypatch):
        """The third task starts while the first, due earlier, still runs."""
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 2)
        tasks = [("slow", 0.6, tmp_path), ("fast", 0.0, tmp_path), ("next", 0.0, tmp_path)]
        assert list(uman.cli._map_in_pool(sleep_then_log, tasks, 2)) == ["slow", "fast", "next"]
        times = {t.name: [float(v) for v in t.read_text().split()] for t in tmp_path.iterdir()}
        assert times["next"][0] < times["slow"][1]

    def test_no_task_after_one_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 2)
        tasks = [("slow", 0.6, tmp_path), ("fail", 0.0, tmp_path), ("after", 0.0, tmp_path)]
        results = uman.cli._map_in_pool(sleep_then_log, tasks, 2)
        assert next(results) == "slow"
        with pytest.raises(ValueError, match="fail"):
            next(results)
        assert sorted(t.name for t in tmp_path.iterdir()) == ["slow"]

    def test_pool_size_capped_by_methods_and_cpus(self, tmp_path, monkeypatch, fake_pools):
        sizes = fake_pools
        three, _ = load_config(three_by_three(tmp_path, 0.1))
        for cpus, want in ((64, [3]), (2, [2]), (1, []), (None, [])):
            monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: cpus)
            sizes.clear()
            uman.cli.execute_run(three, quiet=True)
            assert sizes == want, cpus
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 64)
        sizes.clear()
        uman.cli.execute_run(replace(three, methods=("uman",)), quiet=True)
        assert sizes == []  # one method runs in this process


class TestSeedOffset:
    def test_garbage_is_invalid_input_before_any_write(self, tmp_path, monkeypatch, capsys):
        path = tiny_config(tmp_path)
        monkeypatch.setenv("UMAN_SEED_OFFSET", "abc")
        for argv in (["run", str(path)], ["sweep", str(path), "--axis", "target_private_size", "--values", "0"]):
            assert main(argv) == 2
            assert capsys.readouterr().out == "invalid: UMAN_SEED_OFFSET must be an integer, got 'abc'\n"
        assert not (tmp_path / "out").exists()

    def test_negative_effective_seed_is_rejected_before_any_write(self, tmp_path, monkeypatch, capsys):
        # seeds 1 and 2 with offset -2 give the effective seeds -1 and 0
        path = tiny_config(tmp_path, seeds=[2, 1], synthetic={"seed": 0}, hyperparams={"seed": 3})
        monkeypatch.setenv("UMAN_SEED_OFFSET", "-2")
        want = "seed offset -2 makes the effective seed -1; every seed must be >= 0"
        for argv in (["run", str(path)], ["sweep", str(path), "--axis", "target_private_size", "--values", "0"]):
            assert main(argv) == 2
            assert capsys.readouterr().out == f"invalid: {want}\n"
        config, _ = load_config(path)
        with pytest.raises(ValueError, match=want):
            uman.cli.execute_run(config, offset=-2)
        with pytest.raises(ValueError, match=want):
            execute_sweep(config, "target_private_size", [0], offset=-2)
        assert not (tmp_path / "out").exists()
        # the lowest effective seed at 0 runs
        monkeypatch.setenv("UMAN_SEED_OFFSET", "-1")
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("offset", [1.5, True, "1", None], ids=repr)
    def test_non_integer_offset_is_refused_by_name_before_any_write(self, tmp_path, offset):
        config, _ = load_config(tiny_config(tmp_path))
        want = f"^offset must be integral, got {re.escape(repr(offset))}$"
        with pytest.raises(TypeError, match=want):
            execute_run(config, offset=offset)
        with pytest.raises(TypeError, match=want):
            execute_sweep(config, "target_private_size", [0], offset=offset)
        assert not (tmp_path / "out").exists()

    def test_numpy_integer_offset_is_an_int_offset(self, tmp_path):
        config, _ = load_config(tiny_config(tmp_path))
        execute_run(config, offset=np.int64(3), quiet=True)
        report = json.loads((tmp_path / "out" / "runs" / "uman_0" / "report.json").read_text())
        assert (report["seed_offset"], report["data_seed"], report["training_seed"]) == (3, 3, 3)

    def test_reports_name_their_seeds(self, tmp_path, monkeypatch):
        """Every report.json, a failed run's too, names the seed offset and
        the run's effective data and training seeds: each a section seed
        plus the offset plus the run's seed."""
        path = three_by_three(tmp_path, 5e103)
        config, _ = load_config(path)
        config = replace(
            config, synthetic=replace(config.synthetic, seed=3), hyperparams=replace(config.hyperparams, seed=5)
        )
        path.write_text(json.dumps(canonical_dict(config)))
        monkeypatch.setenv("UMAN_SEED_OFFSET", "7")
        assert main(["run", str(path)]) == 0
        statuses = set()
        for method in config.methods:
            for seed in config.seeds:
                report = json.loads((tmp_path / "out" / "runs" / f"{method}_{seed}" / "report.json").read_text())
                statuses.add(report.get("status", "ok"))
                assert (report["seed_offset"], report["data_seed"], report["training_seed"]) == (
                    7, 3 + 7 + seed, 5 + 7 + seed
                )
        assert statuses == {"ok", "failed"}

    def test_offset_relocates_results(self, tmp_path, monkeypatch):
        # the trace is the sensitive artifact: a shifted seed changes the
        # training data, so losses differ from the first step
        trace = tmp_path / "out" / "runs" / "uman_0" / "trace.csv"
        path = tiny_config(tmp_path)
        monkeypatch.setenv("UMAN_SEED_OFFSET", "0")
        main(["run", str(path)])
        base = trace.read_bytes()
        monkeypatch.setenv("UMAN_SEED_OFFSET", "1000")
        main(["run", str(path)])
        moved = trace.read_bytes()
        assert moved != base
        main(["run", str(path)])
        assert trace.read_bytes() == moved


class TestOneGate:
    """``uman validate`` refuses exactly what ``uman run`` refuses before
    writing, with the same lines: the file's problems, then the seed
    offset's, then the cost bound's."""

    @pytest.mark.parametrize(
        "offset, change, cap, refused",
        [
            (None, {}, False, False),
            ("", {}, False, False),
            (" 3 ", {}, False, False),
            ("-1", {}, False, True),
            ("-100", {}, False, True),
            ("abc", {}, False, True),
            ("1.5", {}, False, True),
            (None, {"seeds": [-1]}, False, True),
            (None, {"synthetic": {"feature_dim": 4, "samples_per_class": 8, "seed": -2}}, False, True),
            (None, {}, True, True),
        ],
        ids=["unset", "blank", "padded", "minus_1", "minus_100", "abc", "1.5", "negative_seed",
             "negative_section_seed", "over_the_cost_bound"],
    )
    def test_validate_refuses_what_run_refuses(self, tmp_path, monkeypatch, capsys, offset, change, cap, refused):
        hyperparams = {"max_steps": 3, "batch_size": 8, "feature_hidden": [8], "feature_dim": 4, "disc_hidden": [4]}
        path = tiny_config(tmp_path, hyperparams=hyperparams, **change)
        if offset is None:
            monkeypatch.delenv("UMAN_SEED_OFFSET", raising=False)
        else:
            monkeypatch.setenv("UMAN_SEED_OFFSET", offset)
        if cap:
            monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", 1000)
        validated = main(["validate", str(path)]), capsys.readouterr().out.splitlines()
        assert not (tmp_path / "out").exists()
        ran = main(["run", str(path)]), capsys.readouterr().out.splitlines()
        assert (validated[0], ran[0], (tmp_path / "out").exists()) == ((1, 2, False) if refused else (0, 0, True))
        invalid = [line for line in ran[1] if line.startswith("invalid: ")]
        assert [line for line in validated[1] if line.startswith("invalid: ")] == invalid
        assert (validated[1] == ran[1] == invalid != []) if refused else invalid == []


class TestSweep:
    def sweep_config(self, tmp_path):
        return tiny_config(
            tmp_path,
            umda_matrix=[[2, 2, 3], [1, 1, 1]],
            methods=["uman", "source_only"],
            seeds=[0, 1],
        )

    def test_cell_over_the_cost_bound_exits_before_any_write(self, tmp_path, capsys):
        path = tiny_config(tmp_path, synthetic={"feature_dim": 4, "samples_per_class": 10**5})
        args = ["sweep", str(path), "--axis", "num_sources", "--values", "2,500"]
        assert main(args) == 2
        assert "invalid: num_sources 500: a method batch would hold" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()
        config, _ = load_config(path)
        with pytest.raises(ValueError, match="num_sources 500: "):
            execute_sweep(config, "num_sources", [2, 500])
        assert not (tmp_path / "out").exists()

    def test_batch_over_the_cost_bound_exits_before_any_write(self, tmp_path, monkeypatch, capsys):
        """Each cell fits on its own, but the batch that trains the runs of
        all three together does not."""
        path = self.sweep_config(tmp_path)
        config, _ = load_config(path)
        cell, _ = derive_sweep_cell(config, "target_private_size", 2)
        rows, params, buffers, steps, columns = run_floats(*run_cost(cell))
        limit = 2 * (rows * 4 + params + buffers + steps * columns)
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", limit)
        assert main(["validate", str(path)]) == 0
        args = ["sweep", str(path), "--axis", "target_private_size", "--values"]
        assert main(args + ["2"]) == 0  # one cell's two runs fit
        capsys.readouterr()
        shutil.rmtree(tmp_path / "out")
        assert main(args + ["0,1,2"]) == 2
        assert capsys.readouterr().out.startswith("invalid: target_private_size 0,1,2: a method batch would hold ")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="target_private_size 0,1,2: "):
            execute_sweep(config, "target_private_size", [0, 1, 2])
        assert not (tmp_path / "out").exists()

    def test_base_batch_over_the_bound_sweeps_a_cell_that_fits(self, tmp_path, monkeypatch, capsys):
        """The bound is checked on the batches a verb trains: the base
        config's own batch is over it, so ``validate`` and ``run`` refuse
        it, also beside a bad seed offset, while a sweep of one smaller
        cell runs."""
        monkeypatch.delenv("UMAN_SEED_OFFSET", raising=False)
        path = self.sweep_config(tmp_path)
        config, _ = load_config(path)
        cell, _ = derive_sweep_cell(config, "target_private_size", 0)
        rows, params, buffers, steps, columns = run_floats(*run_cost(cell))
        limit = 2 * (rows * 4 + params + buffers + steps * columns)
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", limit)
        assert load_config(path) == (config, [])
        rows, params, buffers, steps, columns = run_floats(*run_cost(config))
        problem = (
            f"a method batch would hold {2 * (rows * 4 + params + buffers + steps * columns):,} floats"
            f" (2 runs x ({rows:,} dataset rows x 4 columns + {params:,} parameters"
            f" + {buffers:,} step buffer floats + {steps:,} trace rows x {columns} columns)),"
            f" above the limit of {limit:,}"
        )
        for verb, code in (("validate", 1), ("run", 2)):
            assert main([verb, str(path)]) == code
            assert capsys.readouterr().out == f"invalid: {problem}\n"
        monkeypatch.setenv("UMAN_SEED_OFFSET", "abc")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"invalid: UMAN_SEED_OFFSET must be an integer, got 'abc'\ninvalid: {problem}\n"
        monkeypatch.delenv("UMAN_SEED_OFFSET")
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            execute_run(config, quiet=True)
        assert not (tmp_path / "out").exists()
        assert main(["sweep", str(path), "--axis", "target_private_size", "--values", "0"]) == 0
        assert (tmp_path / "out" / "sweep_target_private_size.csv").exists()

    def test_failed_aggregate_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = self.sweep_config(tmp_path)
        argv = ["sweep", str(path), "--axis", "target_private_size", "--values", "0,2"]
        assert main(argv) == 0
        out_dir = tmp_path / "out"
        before = (out_dir / "sweep_target_private_size.csv").read_bytes()
        fail_writes_to(monkeypatch, "sweep_target_private_size.csv")
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert (out_dir / "sweep_target_private_size.csv").read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep", "sweep_target_private_size.csv"]
        assert not list(out_dir.rglob("*.tmp"))

    def test_axis_sweep_writes_aggregate(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        rc = main(["sweep", str(path), "--axis", "target_private_size", "--values", "0,2"])
        assert rc == 0
        out = tmp_path / "out" / "sweep_target_private_size.csv"
        rows = read_rows(out)
        assert rows[0] == [
            "axis", "value", "method", "status",
            "acc_seed_0", "acc_seed_1", "acc_mean", "transfer_gain",
        ]
        assert len(rows) == 1 + 2 * 2  # 2 values x 2 methods
        for value in (0, 2):
            cell = tmp_path / "out" / "sweep" / f"target_private_size_{value}"
            assert (cell / "summary.csv").exists()

    def test_pool_sweep_prints_the_same_each_time(self, tmp_path):
        """A sweep in a pool of two workers prints the same stdout on every
        run and nothing on stderr, whichever worker scores the cell that
        has no target-only class."""
        path = tiny_config(tmp_path, output_dir="out")
        argv = ["-m", "uman", "sweep", str(path), "--axis", "target_private_size", "--values", "0,1,2", "--jobs", "2"]
        streams = []
        for attempt in range(3):
            (tmp_path / str(attempt)).mkdir()
            proc = subprocess.run([sys.executable, *argv], cwd=tmp_path / str(attempt), capture_output=True, text=True)
            assert proc.returncode == 0
            streams.append((proc.stdout, proc.stderr))
        assert streams == [("wrote out/sweep_target_private_size.csv\n", "")] * 3

    def test_gain_recomputable_from_file(self, tmp_path):
        path = self.sweep_config(tmp_path)
        main(["sweep", str(path), "--axis", "target_private_size", "--values", "2"])
        rows = read_rows(tmp_path / "out" / "sweep_target_private_size.csv")
        by_method = {r[2]: r for r in rows[1:]}
        uman, source = by_method["uman"], by_method["source_only"]
        assert source[7] == ""  # the baseline has no gain over itself
        if uman[3] == "ok" and source[3] == "ok":
            want = float(uman[6]) - float(source[6])
            assert float(uman[7]) == pytest.approx(want, abs=1e-12)
            per_seed = [float(v) for v in uman[4:6]]
            assert float(uman[6]) == pytest.approx(sum(per_seed) / 2, abs=1e-12)

    def test_infeasible_value_is_marked(self, tmp_path):
        path = self.sweep_config(tmp_path)
        main(["sweep", str(path), "--axis", "common_overlap", "--values", "1,5"])
        rows = read_rows(tmp_path / "out" / "sweep_common_overlap.csv")
        status = {(r[1], r[2]): r[3] for r in rows[1:]}
        assert status[("5", "uman")] == "infeasible"
        assert status[("1", "uman")] in ("ok", "partial")
        assert not (tmp_path / "out" / "sweep" / "common_overlap_5").exists()

    def test_parallel_jobs_match_serial(self, tmp_path, monkeypatch, capsys):
        path = self.sweep_config(tmp_path)
        out_dir = tmp_path / "out"
        # 5 is infeasible: its rows come first, and it gets no cell directory
        argv = ["sweep", str(path), "--axis", "common_overlap", "--values", "5,1,0"]
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 2)

        def sweep(jobs):
            shutil.rmtree(out_dir, ignore_errors=True)
            rc = main(argv + ["--jobs", jobs])
            return rc, files_under(out_dir), capsys.readouterr().out

        serial = sweep("1")
        assert serial[0] == 0
        names = {str(name) for name in serial[1]}
        # the aggregate, and per feasible cell a summary and 4 runs of 3 files
        assert len(names) == 1 + 2 * (1 + 2 * 2 * 3)
        assert not any(name.startswith("sweep/common_overlap_5/") for name in names)
        assert sweep("2") == serial

    @pytest.mark.parametrize("lr", [0.1, 5e103], ids=["converging", "partly_diverging"])
    def test_cells_write_what_their_runs_write(self, tmp_path, monkeypatch, capsys, lr):
        """The runs of a sweep's cells train in shared batches, and every
        cell writes the bytes ``uman run`` of that cell alone writes into
        the same paths."""
        path = three_by_three(tmp_path, lr)
        config, _ = load_config(path)
        config = replace(config, seeds=(0, 1))
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 2)
        out_dir = tmp_path / "out"
        path.write_text(json.dumps(canonical_dict(config)))
        assert main(["sweep", str(path), "--axis", "target_private_size", "--values", "0,1,2", "--jobs", "2"]) == 0
        swept = files_under(out_dir / "sweep")
        shutil.rmtree(out_dir)
        capsys.readouterr()
        printed = []
        for value in (0, 1, 2):
            cell, _ = derive_sweep_cell(config, "target_private_size", value)
            cell = replace(cell, output_dir=str(out_dir / "sweep" / f"target_private_size_{value}"))
            cell_path = tmp_path / f"cell_{value}.json"
            cell_path.write_text(json.dumps(canonical_dict(cell)))
            assert main(["run", str(cell_path)]) == 0
            printed += capsys.readouterr().out.splitlines()[:-1]
        assert len(swept) == 3 * (1 + 3 * 2 * 3) if lr < 1 else len(swept) > 3
        assert files_under(out_dir / "sweep") == swept
        statuses = {line.split(": ")[1].split()[0] for line in printed}
        assert statuses == ({"mean"} if lr < 1 else {"mean", "FAILED"})

    def test_bad_values_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        assert main(["sweep", str(path), "--axis", "common_overlap", "--values", "a,b"]) == 2
        assert "integers" in capsys.readouterr().out
        assert main(["sweep", str(path), "--axis", "common_overlap", "--values", ","]) == 2

    def test_bad_jobs_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        argv = ["sweep", str(path), "--axis", "target_private_size", "--values", "0,2"]
        assert main(argv + ["--jobs", "0"]) == 2
        assert capsys.readouterr().out == "invalid: jobs must be >= 1, got 0\n"
        assert main(argv + ["--jobs", "-3"]) == 2
        assert not (tmp_path / "out").exists()

    def test_execute_sweep_rejects_jobs_below_one(self, tmp_path):
        config, problems = load_config(self.sweep_config(tmp_path))
        assert not problems
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                execute_sweep(config, "target_private_size", [0, 1], jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_pool_size_capped_by_cells_and_cpus(self, tmp_path, monkeypatch, fake_pools):
        # one pool over every cell's method batches (a num_sources cell
        # keeps its own: cells x 2 methods), capped by --jobs and by the CPUs
        pools = fake_pools
        path = self.sweep_config(tmp_path)
        argv = ["sweep", str(path), "--axis", "num_sources"]
        for cpus, values, jobs, want in (
            (3, "2,3,4,5", "64", 3),
            (3, "2", "64", 2),
            (64, "2,3,4,5", "5", 5),
            (2, "2", "64", 2),
        ):
            monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: cpus)
            pools.clear()
            assert main(argv + ["--values", values, "--jobs", jobs]) == 0
            assert pools == [want], (cpus, values, jobs)
        # an infeasible cell has no batches: 5 is, 1 is not
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 64)
        pools.clear()
        assert main(["sweep", str(path), "--axis", "common_overlap", "--values", "1,5",
                     "--jobs", "64"]) == 0
        assert pools == [2]
        # one usable CPU, or none reported, runs every batch in this process
        pools.clear()
        for cpus in (1, None):
            monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: cpus)
            assert main(argv + ["--values", "2,3,4,5", "--jobs", "64"]) == 0
        assert pools == []

    def test_batches_span_cells_of_one_layout(self, tmp_path, monkeypatch):
        """A target_private_size sweep packs each method's runs, in (cell,
        seed) order, into the fewest near-equal batches of at most
        BATCH_RUNS trained runs, handed out uman first, then unweighted_adv,
        then source_only, larger batches first. source_only reads no
        target, so one training per seed serves every cell. A num_sources
        sweep keeps one batch per cell, source_only's too."""
        handed = []

        class Recording:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                method, entries, _ = task
                handed.append((method, [[(value, seed) for value, _, seed in entry] for entry in entries]))
                future = Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(uman.cli, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(uman.cli.os, "cpu_count", lambda: 2)
        path = tiny_config(
            tmp_path, methods=["source_only", "uman", "unweighted_adv"], seeds=[0, 1, 2],
            hyperparams={"max_steps": 2, "batch_size": 8, "feature_hidden": [8], "feature_dim": 4, "disc_hidden": [4]},
        )
        argv = ["sweep", str(path), "--jobs", "2", "--axis"]
        assert main(argv + ["target_private_size", "--values", "4,0,1,2,3,5,6"]) == 0
        runs = [(value, seed) for value in (4, 0, 1, 2, 3, 5, 6) for seed in (0, 1, 2)]
        assert BATCH_RUNS == 6 and batch_runs(len(runs)) == [6, 5, 5, 5]
        batches = [runs[:6], runs[6:11], runs[11:16], runs[16:]]
        baseline = [[(value, seed) for value in (4, 0, 1, 2, 3, 5, 6)] for seed in (0, 1, 2)]
        assert handed == [
            (method, [[run] for run in batch]) for method in ("uman", "unweighted_adv") for batch in batches
        ] + [("source_only", baseline)]
        handed.clear()
        assert main(argv + ["num_sources", "--values", "2,3"]) == 0
        cells = [[(value, seed) for seed in (0, 1, 2)] for value in (2, 3)]
        order = ("uman", "unweighted_adv", "source_only")
        assert handed == [(method, [[run] for run in cell]) for method in order for cell in cells]

    def test_sweep_lays_out_each_cell_once(self, tmp_path, monkeypatch):
        """A serial target_private_size sweep of the committed config over 0
        to 6, 42 runs, lays out each cell's matrix once, when the cell is
        built; every later stage reads the matrix's partition. A layout
        places the shared blocks, then the private ones."""
        config, _ = load_config(STANDARD)
        hp = replace(config.hyperparams, max_steps=2)
        config = replace(config, seeds=(0, 1), hyperparams=hp, output_dir=str(tmp_path / "out"))
        placed, place = [], uman.labelspace._layout_blocks

        def counting(sizes, window, what):
            placed.append(what)
            return place(sizes, window, what)

        monkeypatch.setattr(uman.labelspace, "_layout_blocks", counting)
        execute_sweep(config, "target_private_size", range(7))
        assert placed == ["common blocks", "private blocks"] * 7

    @pytest.fixture
    def trained(self, monkeypatch, one_worker):
        """The runs ``train_runs`` receives, counted by method."""
        counts = {}

        def counting(runs, partition, *, method):
            counts[method] = counts.get(method, 0) + len(runs)
            return uman.core.train_runs(runs, partition, method=method)

        monkeypatch.setattr(uman.cli, "train_runs", counting)
        return counts

    def test_source_only_trains_once_per_seed_across_target_cells(self, tmp_path, trained):
        """source_only reads no target, so a target_private_size sweep
        trains it once per seed and scores that training on every cell's
        own held-out target; the other methods train every cell's runs."""
        path = tiny_config(tmp_path, methods=["uman", "source_only", "unweighted_adv"], seeds=[0, 1])
        assert main(["sweep", str(path), "--axis", "target_private_size", "--values", "0,1,2"]) == 0
        assert trained == {"uman": 6, "unweighted_adv": 6, "source_only": 2}
        cells = [tmp_path / "out" / "sweep" / f"target_private_size_{value}" for value in (0, 1, 2)]
        for seed in (0, 1):
            runs = [cell / "runs" / f"source_only_{seed}" for cell in cells]
            assert len({(run / "trace.csv").read_bytes() for run in runs}) == 1
            reports = [json.loads((run / "report.json").read_text()) for run in runs]
            assert [r["config_hash"] for r in reports] == [read_rows(c / "summary.csv")[1][0] for c in cells]
            assert len({json.dumps(r["n_evaluated"], sort_keys=True) for r in reports}) == 3
            # the cell without a target-only class has no unknown entry to score
            assert [r["excluded"] for r in reports] == [["unknown"], [], []]

    @pytest.mark.parametrize("axis, values", [("num_sources", "2,3,4"), ("common_overlap", "0,1,2")])
    def test_source_side_sweeps_train_every_cells_baseline(self, tmp_path, trained, axis, values):
        """An axis that changes the sources shares no source_only training."""
        path = tiny_config(tmp_path, methods=["uman", "source_only", "unweighted_adv"], seeds=[0, 1])
        assert main(["sweep", str(path), "--axis", axis, "--values", values]) == 0
        assert trained == {"uman": 6, "unweighted_adv": 6, "source_only": 6}

    def test_reuse_of_a_different_training_is_refused(self, tmp_path, monkeypatch, one_worker):
        """Two cells whose source_only runs share a training but whose
        sources differ: the sweep raises an error naming both cells before
        the batch trains, and writes no summary."""
        generated = uman.cli.generate

        def planted(spec, partition, draw=0):
            datasets = generated(spec, partition, draw)
            if len(partition.target_private) == 2:
                datasets[0].features[0, 0] += 1.0
            return datasets

        monkeypatch.setattr(uman.cli, "generate", planted)
        path = self.sweep_config(tmp_path)
        config, _ = load_config(path)
        match = r"seed 0 of the cells \S*target_private_size_0 and \S*target_private_size_2 would share one training"
        with pytest.raises(RuntimeError, match=match):
            execute_sweep(config, "target_private_size", [0, 1, 2])
        with pytest.raises(RuntimeError, match=match):
            main(["sweep", str(path), "--axis", "target_private_size", "--values", "0,1,2"])
        assert not (tmp_path / "out" / "sweep_target_private_size.csv").exists()
        assert list((tmp_path / "out").rglob("summary.csv")) == []

    def test_repeated_values_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        argv = ["sweep", str(path), "--axis", "target_private_size", "--jobs", "2"]
        assert main(argv + ["--values", "2,2"]) == 2
        assert capsys.readouterr().out == "invalid: sweep value 2 repeats\n"
        assert main(argv + ["--values", "0,3,1,3,0"]) == 2
        assert capsys.readouterr().out == "invalid: sweep value 3 repeats\n"
        assert not (tmp_path / "out").exists()

    def test_execute_sweep_rejects_repeated_values(self, tmp_path):
        config, problems = load_config(self.sweep_config(tmp_path))
        assert not problems
        with pytest.raises(ValueError, match="sweep value 2 repeats"):
            execute_sweep(config, "target_private_size", [0, 2, 2], jobs=2)
        assert not (tmp_path / "out").exists()

    def test_unknown_axis_rejected_by_argparse(self, tmp_path):
        path = self.sweep_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", str(path), "--axis", "bogus", "--values", "1"])

    def test_execute_sweep_rejects_an_unknown_axis(self, tmp_path):
        config, _ = load_config(self.sweep_config(tmp_path))
        with pytest.raises(ValueError, match="unknown sweep axis 'bogus'"):
            execute_sweep(config, "bogus", [1, 2])
        assert not (tmp_path / "out").exists()

    def test_no_values_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        assert main(["sweep", str(path), "--axis", "target_private_size", "--values", ","]) == 2
        assert capsys.readouterr().out == "invalid: a sweep needs at least one value\n"
        config, _ = load_config(path)
        with pytest.raises(ValueError, match="a sweep needs at least one value"):
            execute_sweep(config, "target_private_size", [])
        assert not (tmp_path / "out").exists()

    def test_bad_config_with_bad_values_prints_the_configs_problems(self, tmp_path, capsys):
        path = tiny_config(tmp_path, seeds=[])
        assert main(["sweep", str(path), "--axis", "target_private_size", "--values", "2,2", "--jobs", "0"]) == 2
        assert capsys.readouterr().out == "invalid: seeds must be a nonempty list of distinct integers\n"
        assert not (tmp_path / "out").exists()


class TestApiWritesWhatTheCliWrites:
    """``execute_run`` and ``execute_sweep`` write every file ``uman run``
    and ``uman sweep`` write, summaries included. The config's output
    directory is relative, so one config writes into two directories."""

    def written(self, directory, monkeypatch, fn):
        """The return value of ``fn()`` run from ``directory``, and every
        file it wrote there."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        return fn(), files_under(directory / "out")

    @pytest.mark.parametrize(
        "raw, offset", [(None, 0), ("  ", 0), ("17", 17), ("-4", -4)], ids=["unset", "blank", "17", "-4"]
    )
    def test_run(self, tmp_path, monkeypatch, capsys, raw, offset):
        """``uman run`` at UMAN_SEED_OFFSET ``raw`` (unset or blank is 0)
        writes and prints what ``execute_run`` at ``offset`` does."""
        path = tiny_config(tmp_path, methods=["uman", "source_only"], seeds=[4, 5], output_dir="out")
        config, _ = load_config(path)
        if raw is not None:
            monkeypatch.setenv("UMAN_SEED_OFFSET", raw)
        rc, cli = self.written(tmp_path / "cli", monkeypatch, lambda: main(["run", str(path)]))
        printed = capsys.readouterr().out
        rows, api = self.written(tmp_path / "api", monkeypatch, lambda: execute_run(config, offset))
        assert rc == 0 and printed == capsys.readouterr().out + "wrote out/summary.csv\n"
        assert len(cli) == 1 + 4 * 3 and cli == api
        assert read_rows(tmp_path / "api" / "out" / "summary.csv")[1:] == [[str(v) for v in row] for row in rows]
        report = json.loads(api[Path("runs/uman_4/report.json")])
        assert report["config_hash"] == config_hash(config) and report["seed"] == 4

    def test_sweep(self, tmp_path, monkeypatch, capsys):
        """An infeasible value (5) included."""
        path = tiny_config(tmp_path, methods=["uman", "source_only"], seeds=[0, 1], output_dir="out")
        config, _ = load_config(path)
        argv = ["sweep", str(path), "--axis", "common_overlap", "--values", "5,1,0", "--jobs", "2"]
        rc, cli = self.written(tmp_path / "cli", monkeypatch, lambda: main(argv))
        assert rc == 0 and capsys.readouterr().out == "wrote out/sweep_common_overlap.csv\n"
        rows, api = self.written(
            tmp_path / "api", monkeypatch, lambda: execute_sweep(config, "common_overlap", [5, 1, 0], jobs=2)
        )
        assert capsys.readouterr().out == ""
        assert len(cli) == 1 + 2 * (1 + 2 * 2 * 3) and cli == api
        aggregate = read_rows(tmp_path / "api" / "out" / "sweep_common_overlap.csv")[1:]
        assert aggregate == [[str(v) for v in row] for row in rows]
        assert [row[3] for row in rows[:2]] == ["infeasible"] * 2


_METHODS_PROBLEM = "methods must be a nonempty list of distinct names from ('uman', 'source_only', 'unweighted_adv')"
_SEEDS_PROBLEM = "seeds must be a nonempty list of distinct integers"
_OUTPUT_PROBLEM = "output_dir is required and must be a nonempty string"


class TestApiRefusesWhatTheFileRefuses:
    """A config built in Python follows the file's rule for its methods,
    seeds and output directory, and each section the file's rule for its
    fields, so one the file would refuse never reaches a run: building it
    raises the parser's message, in a directory that stays empty. A section
    of the wrong class, a non-integer sweep value and a non-integer
    ``jobs`` raise a TypeError naming them, before any write."""

    @pytest.mark.parametrize(
        "build, change, error, section, problem",
        [
            (
                lambda config: replace(config.hyperparams, w0=2.0), {"hyperparams": {"w0": 2.0}},
                ValueError, "hyperparams: ", "w0 must lie in [0, 1], got 2.0",
            ),
            (
                lambda config: replace(config.synthetic, noise_sigma=-1.0), {"synthetic": {"noise_sigma": -1.0}},
                ValueError, "synthetic: ", "noise_sigma must be >= 0, got -1.0",
            ),
            (
                lambda config: UmdaMatrix((2, 2), (1, 1), 6, 0), {"umda_matrix": [[2, 2, 6], [1, 1, 0]]},
                LabelConfigError, "", "common blocks sum to 4 and cannot cover target_common=6",
            ),
            (
                lambda config: UmdaMatrix((4, 3, 1), (0, 0, 1), 5, 0), {"umda_matrix": [[4, 3, 1, 5], [0, 0, 1, 0]]},
                LabelConfigError, "", "common blocks: sizes (4, 3, 1) admit no deterministic layout over window 5",
            ),
        ],
        ids=["w0 above 1", "negative noise_sigma", "uncovered target_common", "no layout"],
    )
    def test_section_the_file_refuses_is_not_built(self, tmp_path, monkeypatch, build, change, error, section, problem):
        """The parser puts the name of its section before a data or
        training problem; the section's own error holds the problem only."""
        config, _ = load_config(tiny_config(tmp_path, output_dir="out"))
        assert load_config(tiny_config(tmp_path, output_dir="out", **change)) == (None, [section + problem])
        monkeypatch.chdir(tmp_path)
        with pytest.raises(error, match=f"^{re.escape(problem)}$") as refused:
            build(config)
        assert refused.value.args == (problem,)
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"methods": ("uman", "dann")}, _METHODS_PROBLEM),
            ({"methods": ()}, _METHODS_PROBLEM),
            ({"seeds": ()}, _SEEDS_PROBLEM),
            ({"seeds": (0, 0)}, _SEEDS_PROBLEM),
            ({"seeds": ("0",)}, _SEEDS_PROBLEM),
            ({"seeds": (2, -1)}, "seeds must be >= 0, got [-1]"),
            ({"output_dir": ""}, _OUTPUT_PROBLEM),
            ({"output_dir": Path("out")}, _OUTPUT_PROBLEM),
            ({"methods": [], "seeds": [0.0], "output_dir": None}, f"{_METHODS_PROBLEM}; {_SEEDS_PROBLEM}; {_OUTPUT_PROBLEM}"),
        ],
        ids=["unknown method", "no method", "no seed", "repeated seed", "string seed", "negative seed",
             "empty output_dir", "Path output_dir", "every problem"],
    )
    def test_config_the_file_refuses_is_not_built(self, tmp_path, monkeypatch, change, problem):
        config, _ = load_config(tiny_config(tmp_path, output_dir="out"))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            execute_run(replace(config, **change), quiet=True)
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            execute_sweep(replace(config, **change), "target_private_size", [0])
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_numpy_seeds_run_as_int_seeds(self, tmp_path, monkeypatch):
        path = tiny_config(tmp_path, methods=["uman", "source_only"], seeds=[0, 1], output_dir="out")
        config, _ = load_config(path)
        for name, seeds in (("int", (0, 1)), ("numpy", (np.int64(0), np.uint8(1))), ("array", np.arange(2))):
            built = replace(config, seeds=seeds)
            assert built == config and [type(s) for s in built.seeds] == [int, int]
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            execute_run(built, quiet=True)
        assert files_under(tmp_path / "int" / "out") == files_under(tmp_path / "numpy" / "out")
        assert files_under(tmp_path / "int" / "out") == files_under(tmp_path / "array" / "out")

    @pytest.mark.parametrize("value", ["3", 1.5, True, None], ids=repr)
    def test_non_integer_sweep_value_is_named_before_any_write(self, tmp_path, value):
        config, _ = load_config(tiny_config(tmp_path))
        want = f"^target_private_size value must be integral, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=want):
            execute_sweep(config, "target_private_size", [0, value])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["2", None, 2.5, True], ids=repr)
    def test_non_integer_jobs_is_named_before_any_write(self, tmp_path, jobs):
        config, _ = load_config(tiny_config(tmp_path))
        with pytest.raises(TypeError, match=f"^jobs must be integral, got {re.escape(repr(jobs))}$"):
            execute_sweep(config, "target_private_size", [2], jobs=jobs)
        assert not (tmp_path / "out").exists()
        execute_sweep(config, "target_private_size", [2], jobs=np.int64(2))
        assert (tmp_path / "out" / "sweep_target_private_size.csv").exists()

    @pytest.mark.parametrize(
        "name, wrong",
        [("matrix", None), ("synthetic", "hyperparams"), ("hyperparams", {}), ("matrix", "synthetic")],
        ids=["no matrix", "swapped synthetic", "dict hyperparams", "swapped matrix"],
    )
    def test_section_of_the_wrong_class_is_named(self, tmp_path, name, wrong):
        config, _ = load_config(tiny_config(tmp_path))
        wrong = getattr(config, wrong) if isinstance(wrong, str) else wrong
        cls = type(getattr(config, name)).__name__
        with pytest.raises(TypeError, match=f"^{name} must be a {cls}, got "):
            execute_run(replace(config, **{name: wrong}), quiet=True)
        assert not (tmp_path / "out").exists()

    def test_numpy_sweep_values_are_int_values(self, tmp_path, monkeypatch):
        path = tiny_config(tmp_path, methods=["uman", "source_only"], seeds=[0, 1], output_dir="out")
        config, _ = load_config(path)
        for name, values in (("int", [0, 2, 9]), ("numpy", [np.int64(0), np.int32(2), np.uint16(9)])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            execute_sweep(config, "common_overlap", values, jobs=2)
        assert files_under(tmp_path / "int" / "out") == files_under(tmp_path / "numpy" / "out")

    @pytest.mark.parametrize("values", [[0], [0, 2]])
    def test_numpy_array_of_values_runs_as_its_list(self, tmp_path, monkeypatch, values):
        config, _ = load_config(tiny_config(tmp_path, output_dir="out"))
        for name, given in (("list", values), ("array", np.array(values))):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            execute_sweep(config, "common_overlap", given)
        assert files_under(tmp_path / "list" / "out") == files_under(tmp_path / "array" / "out")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tiny_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "uman", "validate", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "is valid" in proc.stdout
