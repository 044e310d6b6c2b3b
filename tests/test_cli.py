"""Config round trips, validation, presets, orchestration, determinism."""
import dataclasses
import functools
import inspect
import io
import json
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmf import _pool, rates
from stackmf.cli import (
    _EXTRA_KEYS,
    CSV_COLUMNS,
    ScenarioConfig,
    build_objects,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    main,
    presets,
    resolve_threads,
    run_experiment,
    save_config,
    validate_config,
)
from stackmf.errors import ConfigError, ExperimentInvalidError, StackmfError
from stackmf.rates import eta_orthogonality_check


def small_state_gap() -> ScenarioConfig:
    return dataclasses.replace(
        presets()["two-atom-delay-n1-1"], Ns=[4, 8, 16], reps=50, K=256,
        extras={"slope_tol": 0.45})


class TestRoundTrip:
    def test_every_preset_round_trips(self, tmp_path):
        for name, cfg in presets().items():
            path = tmp_path / f"{name}.json"
            save_config(cfg, path)
            assert load_config(path) == cfg

    def test_hash_stable_and_sensitive(self):
        cfg = small_state_gap()
        assert config_hash(cfg) == config_hash(small_state_gap())
        assert config_hash(cfg) != config_hash(
            dataclasses.replace(cfg, seed=cfg.seed + 1))

    def test_unknown_key_rejected(self):
        data = config_to_dict(small_state_gap())
        data["frobnicate"] = 1
        with pytest.raises(ConfigError, match="frobnicate"):
            config_from_dict(data)

    def test_missing_key_rejected(self):
        data = config_to_dict(small_state_gap())
        del data["delay_law"]
        with pytest.raises(ConfigError, match="delay_law"):
            config_from_dict(data)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "kind": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


class TestValidation:
    def test_presets_all_valid(self):
        for name, cfg in presets().items():
            assert validate_config(cfg) == [], name

    def test_low_q_blocks_rate_experiments(self):
        cfg = dataclasses.replace(small_state_gap(), q=3.0)
        errs = validate_config(cfg)
        assert any("q:" in e and "4" in e for e in errs)
        relaxed = dataclasses.replace(cfg, rate_assertions=False)
        assert validate_config(relaxed) == []

    def test_step_must_divide_spans(self):
        cfg = small_state_gap()
        bad = dataclasses.replace(cfg, model=dict(cfg.model, h=0.03, b=0.1))
        errs = validate_config(bad)
        assert any("does not divide the lag span" in e for e in errs)

    def test_all_violations_reported_not_just_first(self):
        cfg = small_state_gap()
        bad = dataclasses.replace(cfg, q=3.0, reps=10, K=10,
                                  model=dict(cfg.model, L=-1.0))
        errs = validate_config(bad)
        assert len(errs) >= 4

    def test_moment_order_capped_by_student_t_tail(self):
        cfg = presets()["degenerate-delay-n1-1"]
        bad = dataclasses.replace(cfg, q=5.0)
        assert any("df" in e for e in validate_config(bad))

    def test_delay_support_must_fit_lag_span(self):
        cfg = small_state_gap()
        bad = dataclasses.replace(
            cfg, delay_law={"family": "uniform", "lo": 0.1, "hi": 0.4})
        assert any("lag span" in e for e in validate_config(bad))

    def test_unknown_extras_key(self):
        cfg = dataclasses.replace(small_state_gap(),
                                  extras={"slope_tol": 0.4, "typo": 1})
        assert any("extras.typo" in e for e in validate_config(cfg))

    @pytest.mark.parametrize("kind, fn", [
        ("state_gap", rates.state_gap_experiment),
        ("wasserstein_gap", rates.wasserstein_gap_curve),
        ("cost_gap", rates.cost_gap_experiment),
        ("eta_orthogonality", rates.eta_orthogonality_check)])
    def test_extras_are_keywords_of_the_experiment(self, kind, fn):
        # the run passes extras through, so each default lives only in fn
        assert set(_EXTRA_KEYS[kind]) <= set(inspect.signature(fn).parameters)

    def test_epsilon_needs_deviations(self):
        cfg = presets()["epsilon-nash-n16"]
        bad = dataclasses.replace(cfg, extras={"kappa": 5.0})
        assert any("deviations" in e for e in validate_config(bad))

    def test_non_serializable_policy_family_rejected(self):
        cfg = small_state_gap()
        bad = dataclasses.replace(
            cfg, policies=dict(cfg.policies,
                               leader={"family": "custom", "params": {}}))
        assert any("policies.leader" in e for e in validate_config(bad))

    def test_unknown_constructor_parameters_rejected(self, tmp_path, capsys):
        # validate accepts exactly what run accepts: names that only the
        # object constructors check are reported too
        cfg = presets()["two-atom-delay-n1-1"]
        follower = cfg.policies["follower"]
        bad_model = dataclasses.replace(cfg, model=dict(
            cfg.model, params=dict(cfg.model["params"], a1x=0.1)))
        bad_policy = dataclasses.replace(cfg, policies=dict(
            cfg.policies, follower=dict(follower, params=dict(
                follower["params"], gainn=0.1))))
        for bad, key in ((bad_model, "a1x"), (bad_policy, "gainn")):
            assert any(key in e for e in validate_config(bad)), key
            path = tmp_path / f"{key}.json"
            save_config(bad, path)
            assert main(["validate", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_unknown_initial_condition_parameters_rejected(self, tmp_path,
                                                           capsys):
        # a misspelt follower key used to run silently with the default,
        # a misspelt leader key used to pass validate and fail run; model.n1
        # sizes the leader path, so it takes no dim of its own
        cfg = presets()["two-atom-delay-n1-1"]
        bad_follower = dataclasses.replace(cfg, follower_init={
            "family": "normal", "params": {"scael": 0.6}})
        bad_leader = dataclasses.replace(cfg, leader_init={
            "family": "ou_path", "params": {"thetaa": 1.0}})
        bad_dim = dataclasses.replace(cfg, leader_init={
            "family": "constant", "params": {"dim": 3}})
        for bad, key in ((bad_follower, "scael"), (bad_leader, "thetaa"),
                         (bad_dim, "dim")):
            assert any(key in e for e in validate_config(bad)), key
            path = tmp_path / f"{key}.json"
            save_config(bad, path)
            assert main(["validate", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_negative_seed_rejected(self):
        assert validate_config(dataclasses.replace(small_state_gap(),
                                                   seed=0)) == []
        assert "seed: must be an integer >= 0" in validate_config(
            dataclasses.replace(small_state_gap(), seed=-1))

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
    def test_rate_assertions_must_be_a_boolean(self, value):
        # "false" is truthy: the run would enforce the assertions it names
        cfg = presets()["uniform-delay-n1-1"]
        assert validate_config(dataclasses.replace(
            cfg, rate_assertions=value)) == [
            "rate_assertions: must be true or false"]
        assert validate_config(dataclasses.replace(
            cfg, rate_assertions=False)) == []

    def test_single_population_kinds(self):
        cfg = presets()["epsilon-nash-n16"]
        assert any("single population" in e for e in validate_config(
            dataclasses.replace(cfg, Ns=[8, 16])))
        assert any("capped" in e for e in validate_config(
            dataclasses.replace(cfg, Ns=[128])))

    def test_eta_time_index_within_forward_grid(self, tmp_path):
        cfg = presets()["eta-orthogonality-n64"]
        m = round(cfg.model["T"] / cfg.model["h"])
        for ti, valid in ((0, True), (m, True), (m + 1, False),
                          (999, False)):
            errs = validate_config(dataclasses.replace(
                cfg, extras=dict(cfg.extras, time_index=ti)))
            assert (errs == []) == valid, (ti, errs)
            assert all(e.startswith("extras.time_index:") for e in errs)
        buf = io.StringIO()
        rc = run_experiment(dataclasses.replace(
            cfg, extras=dict(cfg.extras, time_index=999)),
            out_dir=tmp_path / "eta", stream=buf)
        assert rc == 2
        assert "invalid-config: extras.time_index" in buf.getvalue()

    @pytest.mark.parametrize("name, changes", [
        ("uniform-delay-n1-1", {}),
        ("uniform-delay-n1-1", {"rate_assertions": False}),
        ("uniform-delay-n1-1", {"rate_assertions": False, "regime": None}),
        ("eta-orthogonality-n64", {"delay_law": {
            "family": "uniform", "lo": 0.0625, "hi": 0.125}}),
    ])
    def test_balanced_partition_level_needs_q_above_four(self, name,
                                                          changes):
        # partition_level "auto" (always for eta) would fail at run time
        cfg = dataclasses.replace(presets()[name], q=3.0, **changes)
        errs = validate_config(cfg)
        assert len(errs) == 1, errs
        assert errs[0].startswith("q:") and "balanced" in errs[0]

    def test_low_q_runs_at_a_fixed_level_without_predictions(self, tmp_path):
        u = presets()["uniform-delay-n1-1"]
        cfg = dataclasses.replace(
            u, q=3.0, rate_assertions=False, Ns=[4, 6, 8], K=100,
            model=dict(u.model, T=0.25), extras={"partition_level": 2})
        errs = validate_config(cfg)
        assert len(errs) == 1 and "general regime" in errs[0]
        cfg = dataclasses.replace(cfg, regime=None)
        assert validate_config(cfg) == []
        buf = io.StringIO()
        assert run_experiment(cfg, out_dir=tmp_path / "u", stream=buf) == 0


class _Recorded(Exception):
    """The experiment was called; its arguments are recorded."""


class TestArgumentMap:
    """Each kind's experiment gets the top-level fields it reads, and a
    field that it does not read, or a required one left null, is one
    violation under that field's path."""

    UNREAD = {"epsilon_nash": ("K", "tol", "regime"),
              "eta_orthogonality": ("reps", "regime")}
    FIELDS = ("K", "tol", "reps", "regime")

    def record(self, cfg, monkeypatch, tmp_path):
        """The arguments that running cfg passes to its experiment."""
        from stackmf import cli
        fn = cli._experiment(cfg.kind)
        calls = []

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            calls.append(inspect.signature(fn).bind(*args, **kwargs).arguments)
            raise _Recorded

        with monkeypatch.context() as patch:
            patch.setattr(cli, fn.__name__, recorder)
            with pytest.raises(_Recorded):
                run_experiment(cfg, out_dir=tmp_path, stream=io.StringIO())
        (call,) = calls
        return call

    @pytest.mark.parametrize("name", sorted(presets()))
    def test_read_fields_reach_the_experiment(self, name, monkeypatch,
                                              tmp_path):
        cfg = presets()[name]
        unread = self.UNREAD.get(cfg.kind, ())
        assert all(getattr(cfg, f) is None for f in unread), name
        call = self.record(cfg, monkeypatch, tmp_path)
        for f in self.FIELDS:
            if getattr(cfg, f) is not None:
                assert call[f] == getattr(cfg, f), (name, f)
        assert not set(unread) & set(call), name
        if "tol" not in unread:
            # a null tolerance takes the experiment's default
            call = self.record(dataclasses.replace(cfg, tol=None),
                               monkeypatch, tmp_path)
            assert "tol" not in call, name

    @pytest.mark.parametrize("name", sorted(presets()))
    def test_unread_or_missing_field_is_one_violation(self, name):
        cfg = presets()[name]
        unread = self.UNREAD.get(cfg.kind, ())
        changes = [(f, {"regime": "general", "tol": 1e-3}.get(f, 128))
                   for f in unread]
        changes += [(f, None) for f in ("K", "reps") if f not in unread]
        # a gap preset's true may not be null, the others' null not set
        changes += [("rate_assertions", v) for v in (
            (None,) if cfg.rate_assertions else (True, False))]
        for f, value in changes:
            errs = validate_config(dataclasses.replace(cfg, **{f: value}))
            assert len(errs) == 1 and errs[0].startswith(f"{f}: "), \
                (name, f, errs)


class TestPresets:
    def test_regime_coverage(self):
        lib = presets()
        regimes = {cfg.regime for cfg in lib.values() if cfg.regime}
        assert {"degenerate_delta", "discrete_delta", "general",
                "sigma0_control_free", "linear_in_measure"} <= regimes
        kinds = {cfg.kind for cfg in lib.values()}
        assert "epsilon_nash" in kinds

    def test_build_objects_from_every_preset(self):
        for name, cfg in presets().items():
            model, policies, law = build_objects(cfg)
            assert model.grid.T == cfg.model["T"], name
            assert policies.leader.family == cfg.policies["leader"]["family"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    buf = io.StringIO()
    rc = run_experiment(small_state_gap(), out_dir=out, threads=1, stream=buf)
    return rc, out, buf.getvalue()


class TestRunExperiment:
    def test_exit_zero_and_artifacts(self, small_run):
        rc, out, text = small_run
        assert rc == 0
        for name in ("results.csv", "report.json", "manifest.json"):
            assert (out / name).exists()
        assert "verdict=pass" in text

    def test_csv_has_fixed_columns(self, small_run):
        _, out, _ = small_run
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_report_and_manifest_contents(self, small_run):
        _, out, _ = small_run
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["report"]["verdict"] == "pass"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_hash(small_state_gap())
        assert manifest["master_seed"] == 5
        assert set(manifest["versions"]) == {"python", "numpy", "scipy",
                                             "stackmf"}

    def test_manifest_records_stream_layout(self, small_run):
        _, out, _ = small_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stream_layout"] == 2

    def test_rerun_byte_identical(self, small_run, tmp_path):
        _, out, _ = small_run
        rc = run_experiment(small_state_gap(), out_dir=tmp_path / "b",
                            threads=1, stream=io.StringIO())
        assert rc == 0
        for name in ("results.csv", "report.json", "manifest.json"):
            assert (tmp_path / "b" / name).read_bytes() \
                == (out / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, small_run, tmp_path):
        _, out, _ = small_run
        rc = run_experiment(small_state_gap(), out_dir=tmp_path / "t3",
                            threads=3, stream=io.StringIO())
        assert rc == 0
        assert (tmp_path / "t3" / "results.csv").read_bytes() \
            == (out / "results.csv").read_bytes()

    @pytest.mark.parametrize("name, fields, model", [
        ("linear-in-measure-cost-n1-1",
         {"Ns": [4, 8, 16], "reps": 50, "K": 128}, {"T": 0.25}),
        ("eta-orthogonality-n64",
         {"Ns": [16], "K": 128,
          "extras": {"panels": 40, "leader_paths": 2}}, {}),
        ("epsilon-nash-n16", {"reps": 6}, {}),
    ])
    def test_one_and_two_threads_write_same_bytes(self, tmp_path, name,
                                                  fields, model):
        cfg = presets()[name]
        cfg = dataclasses.replace(cfg, model=dict(cfg.model, **model),
                                  **fields)
        for threads in (1, 2):
            assert run_experiment(cfg, out_dir=tmp_path / str(threads),
                                  threads=threads,
                                  stream=io.StringIO()) == 0
        for fname in ("results.csv", "report.json"):
            assert (tmp_path / "1" / fname).read_bytes() \
                == (tmp_path / "2" / fname).read_bytes()

    def test_one_worker_forks_nothing(self, small_run, tmp_path,
                                      monkeypatch):
        # two workers asked for, but one unit, or one usable CPU: the run
        # stays in this process and writes the serial bytes
        import concurrent.futures

        def no_fork(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_fork)
        eta = dataclasses.replace(
            presets()["eta-orthogonality-n64"], Ns=[16], K=128,
            extras={"panels": 40, "leader_paths": 1})
        for threads in (1, 2):
            assert run_experiment(eta, out_dir=tmp_path / f"eta{threads}",
                                  threads=threads, stream=io.StringIO()) == 0
        assert (tmp_path / "eta1" / "report.json").read_bytes() \
            == (tmp_path / "eta2" / "report.json").read_bytes()

        if not hasattr(os, "sched_setaffinity"):
            return
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            assert run_experiment(small_state_gap(), out_dir=tmp_path / "one",
                                  threads=2, stream=io.StringIO()) == 0
        finally:
            os.sched_setaffinity(0, cpus)
        _, out, _ = small_run
        for fname in ("results.csv", "report.json"):
            assert (tmp_path / "one" / fname).read_bytes() \
                == (out / fname).read_bytes()

    def test_seed_override_changes_numbers(self, small_run, tmp_path):
        _, out, _ = small_run
        run_experiment(small_state_gap(), out_dir=tmp_path / "s",
                       threads=1, seed=99, stream=io.StringIO())
        assert (tmp_path / "s" / "results.csv").read_bytes() \
            != (out / "results.csv").read_bytes()
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_dry_run_writes_nothing(self, tmp_path):
        out = tmp_path / "dry"
        buf = io.StringIO()
        rc = run_experiment(small_state_gap(), out_dir=out, dry_run=True,
                            stream=buf)
        assert rc == 0
        assert not out.exists()
        assert "scenario two-atom-delay-n1-1" in buf.getvalue()

    def test_dry_run_prints_the_workers_it_uses(self, monkeypatch):
        # one unit per eta leader path, per block of 8 replications else
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        eta = dataclasses.replace(
            presets()["eta-orthogonality-n64"],
            extras={"panels": 500, "leader_paths": 1})
        for cfg, threads, used in [(eta, 2, 1), (small_state_gap(), 2, 2),
                                   (small_state_gap(), 8, 2),
                                   (small_state_gap(), 1, 1),
                                   (presets()["epsilon-nash-n16"], 2, 2),
                                   (dataclasses.replace(
                                       presets()["epsilon-nash-n16"],
                                       reps=8), 2, 1)]:
            buf = io.StringIO()
            assert run_experiment(cfg, threads=threads, dry_run=True,
                                  stream=buf) == 0
            assert f" threads={used}\n" in buf.getvalue(), (cfg.name, threads)

    def test_negative_seed_override_exits_two(self, tmp_path):
        buf = io.StringIO()
        assert run_experiment(small_state_gap(), out_dir=tmp_path / "x",
                              seed=-3, stream=buf) == 2
        assert buf.getvalue() == "invalid-config: --seed must be at least 0, " \
                                 "got -3\n"
        assert not (tmp_path / "x").exists()

    def test_invalid_config_exits_two(self, tmp_path):
        cfg = dataclasses.replace(small_state_gap(), q=3.0)
        buf = io.StringIO()
        rc = run_experiment(cfg, out_dir=tmp_path / "x", stream=buf)
        assert rc == 2
        assert "invalid-config" in buf.getvalue()

    def test_invalid_experiment_machine_readable(self, tmp_path):
        cfg = small_state_gap()
        cfg = dataclasses.replace(
            cfg, tol=1e-13,
            extras={"max_iter": 1},
            model=dict(cfg.model,
                       params=dict(cfg.model["params"], a1=0.4, k1=3.0)))
        buf = io.StringIO()
        rc = run_experiment(cfg, out_dir=tmp_path / "bad", stream=buf)
        assert rc == 2
        report = json.loads((tmp_path / "bad" / "report.json").read_text())
        assert report["status"] == "invalid"
        assert report["error_type"] == "ExperimentInvalidError"

    def test_unconverged_eta_flows_invalidate_the_run(self, tmp_path):
        cfg = dataclasses.replace(
            presets()["eta-orthogonality-n64"], Ns=[16], K=128, tol=1e-12,
            extras={"panels": 40, "leader_paths": 2, "max_iter": 1})
        model, policies, law = build_objects(cfg)
        with pytest.raises(ExperimentInvalidError, match="2 of 2"):
            eta_orthogonality_check(model, policies, law, 16, 40, 2, 128,
                                    cfg.seed, tol=1e-12, max_iter=1)
        buf = io.StringIO()
        rc = run_experiment(cfg, out_dir=tmp_path / "eta", stream=buf)
        assert rc == 2
        report = json.loads((tmp_path / "eta" / "report.json").read_text())
        assert report["status"] == "invalid"
        assert report["error_type"] == "ExperimentInvalidError"

    def test_cost_overflow_is_a_typed_divergence(self, tmp_path):
        # the paths stay finite over T = 0.25, their squared norms do not
        cfg = presets()["linear-in-measure-cost-n1-1"]
        cfg = dataclasses.replace(
            cfg, Ns=[4, 6, 8], reps=50, K=100, seed=3,
            model=dict(cfg.model, T=0.25,
                       params=dict(cfg.model["params"], a1=4e39)))
        buf = io.StringIO()
        rc = run_experiment(cfg, out_dir=tmp_path / "o", stream=buf)
        assert rc == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["status"] == "invalid"
        assert report["error_type"] == "SimulationDivergedError"
        assert "non-finite cost" in report["reason"]

    @pytest.mark.parametrize("name, T, n1", [
        pytest.param(name, T, n1, id=f"{name}-{T}" + ("-n1-2" if n1 == 2 else ""))
        for name, T, n1 in [("degenerate-delay-n1-1", 0.125, 1),
                            ("two-atom-delay-n1-1", 0.25, 1),
                            ("uniform-delay-n1-1", 0.25, 1),
                            ("degenerate-delay-n1-1", 0.0625, 2),
                            ("two-atom-delay-n1-1", 0.25, 2),
                            ("uniform-delay-n1-1", 0.25, 2)]])
    def test_w2_overflow_is_a_typed_divergence(self, name, T, n1, tmp_path):
        # finite follower states too far apart to square: the W2 integral
        # overflows at forward step 0, where it used to reach report.json
        # as Infinity (state gaps) or fail the slope fit (W2 curve); at
        # n1 = 2 the Picard stopping rule reads the overflow as an infinite
        # discrepancy and the per-step LP route stops at that step
        cfg = presets()[name]
        cfg = dataclasses.replace(
            cfg, Ns=[4, 8, 16], reps=50, K=128,
            model=dict(cfg.model, T=T, n1=n1),
            follower_init={"family": "normal", "params": {"scale": 1e160}})
        assert validate_config(cfg) == []
        rc = run_experiment(cfg, out_dir=tmp_path / "w", stream=io.StringIO())
        assert rc == 2
        report = json.loads((tmp_path / "w" / "report.json").read_text(),
                            parse_constant=self.reject_constant)
        assert report["status"] == "invalid"
        assert report["error_type"] == "SimulationDivergedError"
        assert report["reason"] == "non-finite W2 integral at forward step 0"

    def test_oversized_grid_is_a_config_error(self, tmp_path):
        # numpy cannot allocate a grid of 4e161 steps; the grid says so
        cfg = dataclasses.replace(small_state_gap(), model=dict(
            small_state_gap().model, T=1e160))
        errs = validate_config(cfg)
        assert errs == ["model: ValidationError: step h = 0.025 cuts "
                        "[-0.3, 1e+160] into more than 100000 steps"]
        buf = io.StringIO()
        assert run_experiment(cfg, out_dir=tmp_path / "g", stream=buf) == 2
        assert buf.getvalue() == f"invalid-config: {errs[0]}\n"
        assert not (tmp_path / "g").exists()

    def test_overflow_ends_typed_without_warnings(self, tmp_path):
        # the squares of the W2 routes, of the state gaps and of the
        # standard error overflow; each site expects it
        cfg = small_state_gap()
        cfg = dataclasses.replace(cfg, K=128, model=dict(
            cfg.model, T=0.25, params=dict(cfg.model["params"], k1=1e160)))
        reasons = []
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert run_experiment(cfg, out_dir=tmp_path / action,
                                      stream=io.StringIO()) == 2
            report = json.loads((tmp_path / action / "report.json").read_text())
            reasons.append((report["error_type"], report["reason"]))
        assert reasons[0] == reasons[1]
        assert reasons[0][0] == "ExperimentInvalidError"
        assert reasons[0][1].startswith("non-finite value in the report")

    @staticmethod
    def reject_constant(token):
        raise AssertionError(f"{token} is not strict JSON")

    def test_non_finite_report_is_an_invalid_experiment(self, tmp_path,
                                                        monkeypatch):
        from stackmf import cli
        from stackmf.rates import EtaReport
        report = EtaReport("eta", 16, 40, 2, 8, lhs=float("inf"), rhs=1.0)
        monkeypatch.setattr(cli, "_dispatch", lambda *args: report)
        cfg = dataclasses.replace(
            presets()["eta-orthogonality-n64"], Ns=[16], K=128,
            extras={"panels": 40, "leader_paths": 2})
        buf = io.StringIO()
        assert run_experiment(cfg, out_dir=tmp_path / "e", stream=buf) == 2
        text = (tmp_path / "e" / "report.json").read_text()
        report = json.loads(text, parse_constant=self.reject_constant)
        assert report["error_type"] == "ExperimentInvalidError"
        assert "non-finite value in the report" in report["reason"]
        assert not (tmp_path / "e" / "results.csv").exists()
        assert buf.getvalue().startswith("invalid: [ExperimentInvalidError]")

    def test_failed_run_leaves_no_stale_results(self, tmp_path):
        # a run that fails after an earlier one into the same directory
        # must not leave the earlier results.csv beside its own report
        cfg = dataclasses.replace(presets()["epsilon-nash-n16"], Ns=[8],
                                  reps=20)
        out = tmp_path / "same"
        assert run_experiment(cfg, out_dir=out, stream=io.StringIO()) == 0
        assert (out / "results.csv").exists()
        failing = dataclasses.replace(cfg, extras=dict(cfg.extras,
                                                       kappa=0.01))
        assert run_experiment(failing, out_dir=out,
                              stream=io.StringIO()) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "invalid"
        assert "norm cap" in report["reason"]
        assert not (out / "results.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_hash(failing)

    def test_failed_rate_assertion_exits_one(self, tmp_path):
        cfg = dataclasses.replace(small_state_gap(),
                                  regime="linear_in_measure",
                                  extras={"slope_tol": 0.001})
        buf = io.StringIO()
        rc = run_experiment(cfg, out_dir=tmp_path / "f", stream=buf)
        assert rc == 1
        report = json.loads((tmp_path / "f" / "report.json").read_text())
        assert report["status"] == "assertions_failed"


class TestThreadsResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("STACKMF_THREADS", "7")
        assert resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("STACKMF_THREADS", "3")
        assert resolve_threads(None) == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("STACKMF_THREADS", "many")
        with pytest.raises(ConfigError):
            resolve_threads(None)

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("STACKMF_THREADS", raising=False)
        assert resolve_threads(None) == 1

    @pytest.mark.parametrize("threads", [0, -4])
    def test_flag_below_one_rejected(self, monkeypatch, threads):
        monkeypatch.setenv("STACKMF_THREADS", "2")
        with pytest.raises(ConfigError, match="--threads must be at least 1"):
            resolve_threads(threads)

    @pytest.mark.parametrize("env", ["0", "-2"])
    def test_env_below_one_rejected(self, monkeypatch, env):
        monkeypatch.setenv("STACKMF_THREADS", env)
        with pytest.raises(ConfigError,
                           match="STACKMF_THREADS must be at least 1"):
            resolve_threads(None)

    def test_cli_exits_two_on_threads_below_one(self, monkeypatch, capsys):
        monkeypatch.delenv("STACKMF_THREADS", raising=False)
        assert main(["run", "epsilon-nash-n16", "--threads", "-3",
                     "--dry-run"]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().out
        monkeypatch.setenv("STACKMF_THREADS", "0")
        assert main(["run", "epsilon-nash-n16", "--dry-run"]) == 2
        assert "STACKMF_THREADS must be at least 1" in capsys.readouterr().out


class TestMain:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        text = capsys.readouterr().out
        for name in presets():
            assert name in text

    def test_presets_show(self, capsys):
        assert main(["presets", "show", "epsilon-nash-n16"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "epsilon_nash"
        assert main(["presets", "show", "nope"]) == 2

    def test_validate_file_and_preset_name(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(small_state_gap(), path)
        assert main(["validate", str(path)]) == 0
        assert main(["validate", "uniform-delay-n1-1"]) == 0
        capsys.readouterr()

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = config_to_dict(small_state_gap())
        data["q"] = 3.0
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_run_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "epsilon-nash-n16", "--seed", "-3",
                     "--out", str(out)]) == 2
        assert "invalid-config: --seed must be at least 0" \
            in capsys.readouterr().out
        assert not out.exists()

    def test_run_dry_run_via_main(self, tmp_path, capsys):
        assert main(["run", "two-atom-delay-n1-1", "--dry-run",
                     "--out", str(tmp_path / "o")]) == 0
        assert "scenario two-atom-delay-n1-1" in capsys.readouterr().out


_LAWS = (
    {"family": "degenerate", "a": 0.125},
    {"family": "discrete", "atoms": [0.0625, 0.125], "weights": [0.5, 0.5]},
    {"family": "uniform", "lo": 0.0625, "hi": 0.125},
)
_BAD_VALUES = (True, "0.5", None, [1.0], float("nan"), float("inf"))
_DELETE = object()
# required keys: deleting one must be reported like a bad value
_REQUIRED = {"T", "h", "b", "a", "atoms", "weights", "lo", "hi"}


def _numeric_sites(data):
    """(field path, error path, key) of every numeric field the contract
    covers; error path is the prefix of the validate line that names it."""
    sites = [(("model", k), "model", k) for k in ("T", "h", "b")]
    sites += [(("model", "params", k), "model", k)
              for k, v in data["model"]["params"].items()
              if not isinstance(v, str)]
    for k, v in data["delay_law"].items():
        if k != "family":
            sites.append((("delay_law", k), "delay_law", k))
            if isinstance(v, (list, tuple)):
                sites += [(("delay_law", k, i), "delay_law", k)
                          for i in range(len(v))]
    for key in ("leader_init", "follower_init"):
        sites += [((key, "params", k), key, k) for k in data[key]["params"]]
    for role in ("leader", "follower"):
        sites += [(("policies", role, "params", k), f"policies.{role}", k)
                  for k in data["policies"][role]["params"]]
    return sites


def _mutated(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return config_from_dict(data)


class TestOneValidator:
    """validate and build_objects read the same per-object rules, from the
    constructors."""

    def base(self, law):
        return config_to_dict(dataclasses.replace(
            presets()["linear-in-measure-n1-1"], delay_law=law))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_validate_agrees_with_build(self, data):
        base = self.base(data.draw(st.sampled_from(_LAWS)))
        path, where, key = data.draw(st.sampled_from(_numeric_sites(base)))
        value = data.draw(st.sampled_from(_BAD_VALUES + (_DELETE,)))
        if value is _DELETE and isinstance(path[-1], int):
            value = None    # a list keeps its length; blank the element
        cfg = _mutated(base, path, value)
        errs = validate_config(cfg)
        try:
            build_objects(cfg)
            built = True
        except StackmfError:
            built = False
        assert (errs == []) == built, (path, value, errs)
        if value is not _DELETE or key in _REQUIRED:
            assert not built
            assert any(e.startswith(f"{where}: ") and key in e
                       for e in errs), (path, value, errs)

    def test_every_object_error_in_one_pass(self):
        cfg = small_state_gap()
        bad = dataclasses.replace(
            cfg, model=dict(cfg.model, features=["bogus"]),
            delay_law={"family": "discrete", "atoms": [0.1, 0.3],
                       "weights": [0.0, 1.0]},
            follower_init={"family": "normal", "params": {"scale": "0.6"}},
            policies={"leader": {"family": "custom", "params": {}},
                      "follower": {"family": "affine",
                                   "params": {"gain": True}}})
        with pytest.raises(ConfigError) as err:
            build_objects(bad)
        paths = [v.split(":")[0] for v in err.value.violations]
        assert paths == ["model", "delay_law", "follower_init",
                         "policies.leader", "policies.follower"]
        assert all(v in validate_config(bad) for v in err.value.violations)

    def test_deviation_errors_name_their_entry(self):
        cfg = presets()["epsilon-nash-n16"]
        devs = list(cfg.extras["deviations"])
        devs[1] = {"leader": {"family": "constant",
                              "params": {"value": "0.5"}}}
        bad = dataclasses.replace(cfg, extras=dict(cfg.extras,
                                                   deviations=devs))
        assert any(e.startswith("extras.deviations[1].leader: ")
                   for e in validate_config(bad))

    def test_integer_model_fields(self):
        cfg = small_state_gap()
        for value in (2.0, True):
            bad = dataclasses.replace(cfg, model=dict(cfg.model, n1=value))
            assert any(e.startswith("model: ") and "n1" in e
                       for e in validate_config(bad)), value
            with pytest.raises(ConfigError):
                build_objects(bad)

    @pytest.mark.parametrize("section, key", [
        ("model", "n_1"), ("model", "featurez"), ("delay_law", "wieghts")])
    def test_unknown_model_and_delay_keys_rejected(self, tmp_path, capsys,
                                                   section, key):
        cfg = presets()["two-atom-delay-n1-1"]
        value = 2 if key == "n_1" else ["mean"]
        bad = dataclasses.replace(
            cfg, **{section: dict(getattr(cfg, section), **{key: value})})
        assert any(f"{section}.{key}" in e for e in validate_config(bad))
        path = tmp_path / f"{key}.json"
        save_config(bad, path)
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err

    # removed keys: the Lipschitz constant, and every dimension but n1
    @pytest.mark.parametrize("key", ["L", "n0", "d0", "d1", "p0", "p1"])
    def test_removed_model_key_is_gone(self, tmp_path, capsys, key):
        cfg = presets()["two-atom-delay-n1-1"]
        bad = dataclasses.replace(cfg, model=dict(cfg.model, **{key: 1}))
        assert any(e.startswith(f"model.{key}: unknown key")
                   for e in validate_config(bad))
        path = tmp_path / f"{key}.json"
        save_config(bad, path)
        assert main(["validate", str(path)]) == 2
        assert f"model.{key}" in capsys.readouterr().err

    def test_n1_alone_sets_every_dimension(self, tmp_path):
        cfg = presets()["linear-in-measure-cost-n1-1"]
        cfg = dataclasses.replace(cfg, Ns=[4, 8, 16], reps=50, K=128,
                                  model=dict(cfg.model, T=0.25, n1=2))
        path = tmp_path / "n1-2.json"
        save_config(cfg, path)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["kind"] == "cost_gap"

    def test_eta_needs_the_linear_in_measure_family(self, tmp_path):
        # validate accepts exactly what run accepts
        cfg = presets()["eta-orthogonality-n64"]
        bad = dataclasses.replace(cfg, model=dict(
            cfg.model, family="linear_quadratic",
            params={"a1": -0.8, "k1": 0.5, "s1": 0.3}, features=["mean"]))
        errs = validate_config(bad)
        assert any(e.startswith("model.family: ParameterError")
                   for e in errs), errs
        assert run_experiment(bad, out_dir=tmp_path,
                              stream=io.StringIO()) == 2

    def test_deviation_changing_both_roles_rejected(self, tmp_path):
        cfg = presets()["epsilon-nash-n16"]
        devs = list(cfg.extras["deviations"])
        devs[1] = {"leader": {"family": "constant", "params": {"value": 0.5}},
                   "follower": {"family": "constant",
                                "params": {"value": 0.7}}}
        bad = dataclasses.replace(cfg, extras=dict(cfg.extras,
                                                   deviations=devs))
        errs = validate_config(bad)
        assert any(e.startswith("extras.deviations[1]: ValidationError")
                   and "both" in e for e in errs), errs
        with pytest.raises(ConfigError):
            build_objects(bad)
        stream = io.StringIO()
        assert run_experiment(bad, out_dir=tmp_path, stream=stream) == 2
        assert "extras.deviations[1]" in stream.getvalue()

    def test_leader_gain_lead_rejected(self, tmp_path, capsys):
        # only followers read the delayed leader state
        cfg = presets()["linear-in-measure-cost-n1-1"]
        lead = {"family": "affine", "params": {"gain": -0.2, "gain_lead": 0.4}}
        bad = dataclasses.replace(
            cfg, policies=dict(cfg.policies, leader=lead))
        errs = validate_config(bad)
        assert any(e.startswith("policies.leader: ParameterError")
                   and "gain_lead" in e for e in errs), errs
        with pytest.raises(ConfigError):
            build_objects(bad)
        path = tmp_path / "lead.json"
        save_config(bad, path)
        assert main(["validate", str(path)]) == 2
        assert "policies.leader" in capsys.readouterr().err
        nash = presets()["epsilon-nash-n16"]
        devs = [{"leader": lead}]
        bad = dataclasses.replace(nash, extras=dict(nash.extras,
                                                    deviations=devs))
        assert any(e.startswith("extras.deviations[0].leader: ")
                   for e in validate_config(bad))


class TestSectionShapes:
    """A section of the wrong JSON type, or an unknown key inside a policy
    or initial-condition spec, is a config error naming its field."""

    @pytest.mark.parametrize("key, value", [
        ("model", [1, 2]), ("leader_init", 5), ("delay_law", None),
        ("policies", "affine"), ("extras", [0]), ("Ns", 16)])
    def test_non_object_sections_exit_two(self, tmp_path, capsys, key, value):
        data = config_to_dict(presets()["two-atom-delay-n1-1"])
        data[key] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [v.split(":")[0] for v in err.value.violations] == [key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert f"invalid-config: {key}: " in capsys.readouterr().err

    def test_null_initial_conditions_still_accepted(self):
        data = config_to_dict(presets()["two-atom-delay-n1-1"])
        data["leader_init"] = data["follower_init"] = None
        assert config_from_dict(data).leader_init is None

    @pytest.mark.parametrize("field, spec, key", [
        ("policies.follower", {"family": "affine", "parms": {"gain": 1.0}},
         "parms"),
        ("follower_init", {"family": "normal", "param": {"scale": 0.6}},
         "param"),
        ("leader_init", {"family": "constant", "params": {}, "dims": 1},
         "dims")])
    def test_unknown_spec_keys_rejected(self, tmp_path, capsys, field, spec,
                                        key):
        cfg = presets()["two-atom-delay-n1-1"]
        if field.startswith("policies."):
            bad = dataclasses.replace(cfg, policies=dict(
                cfg.policies, follower=spec))
        else:
            bad = dataclasses.replace(cfg, **{field: spec})
        assert any(e.startswith(f"{field}: ") and repr(key) in e
                   for e in validate_config(bad)), validate_config(bad)
        with pytest.raises(ConfigError):
            build_objects(bad)
        path = tmp_path / f"{key}.json"
        save_config(bad, path)
        assert main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err
