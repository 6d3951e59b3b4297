"""Tests for the experiment harness: configs, sweeps, reproducibility."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wiretap.exceptions import ConfigError
from wiretap.harness import (
    SCHEMES,
    ExperimentConfig,
    preset_config,
    run_experiment,
)


def _small(**overrides) -> ExperimentConfig:
    params = dict(na=3, nb=3, ne=2, trials=40, master_seed=7,
                  schemes=("perfect",))
    params.update(overrides)
    return ExperimentConfig(**params)


class TestExperimentConfig:
    def test_defaults_give_a_single_point_axis(self):
        cfg = ExperimentConfig()
        name, values = cfg.axis()
        assert name == "target_sinr_db"
        assert values == (20.0,)

    def test_sequences_are_coerced_to_tuples(self):
        cfg = ExperimentConfig(ne=[1, 2, 3], schemes=["perfect"])
        assert cfg.ne == (1, 2, 3)
        assert all(isinstance(v, int) for v in cfg.ne)
        assert cfg.axis() == ("ne", (1, 2, 3))

    def test_only_one_axis_may_be_swept(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ne=(1, 2), target_sinr_db=(10.0, 20.0))

    def test_receive_array_cannot_exceed_transmit_array(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(na=3, nb=4)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(schemes=("perfect", "zf")),
            dict(scenario="fig9"),
            dict(trials=0),
            dict(threads=0),
            dict(gamma_ecsi=1.5),
            dict(sigma_b_sq=0.0),
            dict(schemes=()),
            dict(ne=0),
            dict(secrecy_metric="rate"),
            dict(trials=2.5),
            dict(threads=1.5),
            dict(power_db=float("nan")),
            dict(power_db=float("inf")),
            dict(power_db=4000.0),
            dict(target_sinr_db=float("nan")),
            dict(target_sinr_db=(10.0, float("inf"))),
            dict(target_sinr_db=-4000.0),
            dict(sigma_h_db=float("nan"), schemes=("naive",)),
            dict(sigma_h_db=(-20.0, float("-inf")), schemes=("naive",)),
            dict(sigma_b_sq=float("inf")),
            dict(sigma_e_sq=float("nan")),
            dict(master_seed=-1),
            dict(master_seed=1.5),
            dict(master_seed=True),
            dict(master_seed="1"),
            dict(master_seed=np.int64(-3)),
            dict(na=4, nb=True, ne=True, trials=3),
            dict(na=True, nb=True),
            dict(na=4, nb=4, ne=True),
            dict(ne=(True, 2)),
            dict(ne=np.array([True, True])),
            dict(ne=(2.5, 3.9)),
            dict(ne=[2.0, 3]),
            dict(target_sinr_db=True),
            dict(target_sinr_db=(True, 3.0)),
            dict(sigma_h_db=False),
            dict(sigma_h_db=(np.False_, -10.0), schemes=("naive",)),
            dict(power_db=True),
            dict(gamma_ecsi=True),
            dict(sigma_e_sq=True),
            # Each of these used to validate and then fail in the first block.
            dict(target_sinr_db=()),
            dict(ne=()),
            dict(ne=[]),
            dict(sigma_h_db=(), schemes=("naive",)),
            dict(schemes=("perfect", "perfect")),
        ],
    )
    def test_invalid_values_are_refused(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "overrides, field",
        # Values the range check used to let through, each of which failed
        # mid-run, named by the field the refusal must name.
        [(dict(sigma_b_sq=b, schemes=(s,)), "sigma_b_sq")
         for b, s in ((1e-154, "robust_fdd"), (1e-160, "robust_fdd"), (1e170, "robust_fdd"),
                      (1e170, "robust_tdd"))]
        + [(dict(sigma_e_sq=1e200), "sigma_e_sq"), (dict(power_db=2000.0), "power_db")]
        # The corners of the accepted range run cleanly: every scheme, with
        # RuntimeWarnings raised as errors.
        + [(dict(sigma_b_sq=b, sigma_e_sq=e, power_db=p), None)
           for b in (1e-100, 1e100) for e in (1e-100, 1e100) for p in (-1000.0, 1000.0)]
        # Error levels that overflowed mid-run: alone, and jointly with the power.
        + [(dict(sigma_h_db=3070.0), "sigma_h_db"),
           (dict(sigma_h_db=3000.0, power_db=1000.0), "sigma_h_db")]
        # The largest error level is 3000 dB less a positive power_db, and at
        # most 1500 dB above Bob's noise in dB: at its corners it runs, alone
        # or atop a swept axis, and a decibel more is refused.
        + [(dict(sigma_h_db=level, power_db=p, sigma_b_sq=b), field)
           for p, b, top in ((-1000.0, 1e-100, 500.0), (-1000.0, 1e100, 2500.0),
                             (20.0, 1.0, 1500.0), (1000.0, 1e-100, 500.0), (1000.0, 1e100, 2000.0))
           for level, field in ((top, None), ((top - 100.0, top), None),
                                (top + 1.0, "sigma_h_db"), ((-10.0, top + 1.0), "sigma_h_db"))]
        # Targets that overflowed mid-run, in the statistical receiver's data
        # fraction and in the naive design's.
        + [(dict(target_sinr_db=3080.0, sigma_h_db=-10.0), "target_sinr_db"),
           (dict(target_sinr_db=2500.0, sigma_b_sq=1e100), "target_sinr_db")]
        # The largest target is 3000 dB less the larger of power_db and Bob's
        # noise in dB over a power of at most 0 dB: at each corner it runs with
        # the largest error level or atop a swept axis, and a decibel more is
        # refused.
        + [(dict(target_sinr_db=target, power_db=p, sigma_b_sq=b, sigma_h_db=level), field)
           for p, b, top, top_error in ((-1000.0, 1e-100, 3000.0, 500.0),
                                        (-1000.0, 1e100, 1000.0, 2500.0),
                                        (20.0, 1.0, 2980.0, 1500.0),
                                        (1000.0, 1e-100, 2000.0, 500.0),
                                        (1000.0, 1e100, 2000.0, 2000.0))
           for target, level, field in ((top, top_error, None), ((top - 100.0, top), -15.0, None),
                                        (top + 1.0, -15.0, "target_sinr_db"),
                                        ((0.0, top + 1.0), -15.0, "target_sinr_db"))],
    )
    def test_noise_and_power_bounds(self, overrides, field):
        params = {**dict(sigma_h_db=-15.0, trials=20, schemes=SCHEMES, master_seed=3), **overrides}
        if field is not None:
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig(**params)
            return
        result = run_experiment(ExperimentConfig(**params))
        for scheme in (s for s in SCHEMES if s != "analytic_naive"):
            for metric in ("mean_sinr_b", "mean_sinr_e", "stderr_sinr_e", "mean_secrecy"):
                assert np.all(np.isfinite(result.series[scheme][metric])), (scheme, metric)

    def test_a_numpy_scalar_level_is_a_level(self):
        # A level given as a numpy scalar is read as its value, not refused
        # by numpy's complaint about comparing it with an empty tuple.
        cfg = ExperimentConfig(sigma_h_db=np.float64(-10.0), target_sinr_db=np.float64(10.0),
                               trials=3, schemes=("naive",))
        assert cfg.axis() == ("target_sinr_db", (10.0,))
        assert run_experiment(cfg).series["naive"]["n_valid"] == (3,)

    def test_error_schemes_require_an_error_level(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(schemes=("naive",), sigma_h_db=None)

    def test_power_is_stored_in_db(self):
        assert ExperimentConfig(power_db=20.0).power_p == pytest.approx(100.0)
        assert ExperimentConfig(power_db=0.0).power_p == pytest.approx(1.0)

    def test_dict_round_trip(self):
        cfg = preset_config("fig3_sinr_vs_target", trials=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_are_refused(self):
        data = ExperimentConfig().to_dict()
        data["tirals"] = 100
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)


class TestPresets:
    @pytest.mark.parametrize(
        "scenario",
        ["fig1_ne_sweep", "fig2_prediction", "fig3_sinr_vs_target",
         "fig4_secrecy", "fig5_sigma_sweep"],
    )
    def test_presets_construct_and_record_their_scenario(self, scenario):
        cfg = preset_config(scenario, trials=3)
        assert cfg.scenario == scenario
        assert cfg.trials == 3

    def test_eavesdropper_sweep_covers_the_antenna_range(self):
        cfg = preset_config("fig1_ne_sweep")
        assert cfg.axis() == ("ne", tuple(range(1, 21)))
        assert cfg.sigma_h_db is None

    def test_prediction_preset_carries_both_series(self):
        cfg = preset_config("fig2_prediction")
        assert set(cfg.schemes) == {"naive", "analytic_naive"}
        assert cfg.axis()[0] == "sigma_h_db"

    def test_custom_has_no_preset(self):
        with pytest.raises(ConfigError):
            preset_config("custom")

    def test_overrides_replace_preset_fields(self):
        cfg = preset_config("fig5_sigma_sweep", master_seed=9, trials=11)
        assert cfg.master_seed == 9 and cfg.trials == 11


class TestRunExperiment:
    def test_same_config_is_bit_identical(self):
        a = run_experiment(_small())
        b = run_experiment(_small())
        assert a.series == b.series
        assert a.axis == b.axis

    def test_thread_split_does_not_change_results(self):
        every = _small(trials=12, sigma_h_db=-15.0, schemes=SCHEMES)
        serial = run_experiment(every)
        split = run_experiment(replace(every, threads=2))
        for scheme in SCHEMES:
            for metric in serial.series[scheme]:
                np.testing.assert_array_equal(
                    serial.series[scheme][metric], split.series[scheme][metric],
                    err_msg=f"{scheme}.{metric}",
                )

    @pytest.mark.parametrize("affinity, cpu_count, workers", [
        (range(3), 8, [3]),  # the CPUs this process may use, where the OS says
        (None, 3, [3]),      # else every CPU
        (None, None, []),    # none known: one worker, in this process
    ])
    def test_workers_never_outnumber_the_cpus(self, monkeypatch, affinity, cpu_count, workers):
        import concurrent.futures
        import os

        started, chunks = [], []

        class InlinePool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                args = list(zip(*iterables))
                chunks.append(len(args))
                return [fn(*a) for a in args]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        cfg = _small(trials=12, sigma_h_db=-15.0, schemes=SCHEMES)
        capped = run_experiment(replace(cfg, threads=1000))
        assert started == workers and chunks == workers
        serial = run_experiment(cfg)
        for scheme in SCHEMES:
            for metric in serial.series[scheme]:
                np.testing.assert_array_equal(
                    capped.series[scheme][metric], serial.series[scheme][metric])

    def test_different_seeds_differ(self):
        a = run_experiment(_small(master_seed=1))
        b = run_experiment(_small(master_seed=2))
        assert a.series["perfect"]["mean_sinr_e"] != b.series["perfect"]["mean_sinr_e"]

    def test_schemes_share_their_draws(self):
        # With a vanishing error level the mismatched design coincides with
        # the perfect one trial by trial, which only holds if both schemes
        # consumed identical channel and error streams.
        res = run_experiment(_small(schemes=("perfect", "naive"), sigma_h_db=-120.0))
        perfect = res.series["perfect"]["roe_sinr_b"][0]
        naive = res.series["naive"]["roe_sinr_b"][0]
        # The leftover gap is quadratic in the tiny error; independent draws
        # would differ at the percent level instead.
        assert naive == pytest.approx(perfect, rel=1e-6)

    def test_stderr_shrinks_with_more_trials(self):
        small = run_experiment(_small(schemes=("naive",), sigma_h_db=-10.0, trials=300))
        large = run_experiment(_small(schemes=("naive",), sigma_h_db=-10.0, trials=1200))
        assert (large.series["naive"]["stderr_sinr_b"][0]
                < 0.8 * small.series["naive"]["stderr_sinr_b"][0])

    def test_every_trial_counts_when_nothing_fails(self):
        res = run_experiment(_small())
        assert res.series["perfect"]["n_valid"] == (40,)
        assert res.series["perfect"]["outage_count"] == (0,)

    def test_outage_accounting_at_a_starved_budget(self):
        res = run_experiment(_small(power_db=-40.0, target_sinr_db=20.0))
        assert res.series["perfect"]["outage_count"] == (40,)

    def test_extrapolation_flags_follow_the_error_level(self):
        swept = run_experiment(
            _small(schemes=("naive",), sigma_h_db=(-20.0, -10.0, -5.0), trials=5))
        assert swept.extrapolated == (False, False, True)
        scalar = run_experiment(_small(schemes=("naive",), sigma_h_db=-5.0, trials=5))
        assert scalar.extrapolated == (True,)
        no_error = run_experiment(_small(trials=5))
        assert no_error.extrapolated == (False,)

    def test_records_flatten_points_times_schemes(self):
        res = run_experiment(
            _small(schemes=("perfect", "naive"), sigma_h_db=(-20.0, -10.0), trials=5))
        rows = res.records()
        assert len(rows) == 4
        assert {r["scheme"] for r in rows} == {"perfect", "naive"}
        assert all("roe_sinr_b_db" in r and "mean_secrecy" in r for r in rows)

    def test_meta_reproduces_the_config(self):
        cfg = _small(trials=5)
        res = run_experiment(cfg)
        assert ExperimentConfig.from_dict(res.meta["config"]) == cfg
        assert res.meta["wall_time_s"] > 0

    def test_secrecy_metric_changes_the_reported_numbers(self):
        base = dict(na=5, nb=5, ne=5, trials=60, master_seed=3,
                    schemes=("naive",), sigma_h_db=-10.0)
        goodput = run_experiment(ExperimentConfig(**base, secrecy_metric="goodput"))
        proxy = run_experiment(ExperimentConfig(**base, secrecy_metric="proxy"))
        full = run_experiment(ExperimentConfig(**base, secrecy_metric="full"))
        g = goodput.series["naive"]["mean_secrecy"][0]
        p = proxy.series["naive"]["mean_secrecy"][0]
        f = full.series["naive"]["mean_secrecy"][0]
        # A mistargeted link banks nothing, while the instantaneous gap and
        # the matrix rate both stay positive.
        assert g == 0.0
        assert p > 0.0 and f > 0.0
        assert p != f


class TestComparisonRunners:
    def test_prediction_tracks_simulation_inside_the_trusted_range(self):
        cfg = preset_config("fig2_prediction", trials=300,
                            sigma_h_db=(-20.0,), master_seed=5)
        res = run_experiment(cfg)
        measured = res.series["naive"]["roe_sinr_b_db"][0]
        predicted = res.series["analytic_naive"]["roe_sinr_b_db"][0]
        assert measured == pytest.approx(predicted, abs=1.5)
        assert not res.extrapolated[0]

    def test_analytic_series_flags_outage_channels(self):
        res = run_experiment(
            _small(schemes=("analytic_naive",), sigma_h_db=-20.0, power_db=-40.0,
                   trials=10))
        assert res.series["analytic_naive"]["flagged_count"] == (10,)
        assert res.series["analytic_naive"]["n_valid"] == (0,)

    def test_ecsi_comparison_runs_on_the_antenna_axis(self):
        cfg = _small(na=4, nb=4, ne=(1, 4), trials=20,
                     schemes=("perfect", "known_ecsi"))
        res = run_experiment(cfg)
        nulled = res.series["known_ecsi"]["roe_sinr_e"][0]
        square = res.series["known_ecsi"]["roe_sinr_e"][1]
        # One eavesdropper antenna against four transmit antennas is nulled
        # outright; at four antennas she sees real signal.
        assert nulled < 1e-12
        assert square > 1e-3
