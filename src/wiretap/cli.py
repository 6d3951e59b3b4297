"""Command-line front end.

Subcommands:

* ``run``:      a custom or preset experiment sweep
* ``figure N``: shortcut for the five preset sweeps (N in 1..5)
* ``predict``:  closed-form degradation prediction for one channel draw
* ``validate``: built-in sanity suite

Exit codes: 0 on success, 1 for configuration problems, 2 when a numerical
guard (validity range, degenerate channel, ill-conditioned spectrum) fires.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .channels import CsiErrorModel, generate_channels, partition_svd
from .exceptions import (
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    IllConditionedGapError,
    ParameterError,
    ValidityRangeError,
)
from .harness import (
    SCENARIOS,
    ExperimentConfig,
    SweepResult,
    preset_config,
    run_experiment,
)
from .perturbation import compute_moments, predict_naive_sinr
from .units import from_db, to_db
from .version import __version__

_FIGURE_SCENARIOS = {
    1: "fig1_ne_sweep",
    2: "fig2_prediction",
    3: "fig3_sinr_vs_target",
    4: "fig4_secrecy",
    5: "fig5_sigma_sweep",
}

# Config fields that may hold either a scalar or a swept list on the CLI.
_SWEEPABLE = {"ne": int, "target_sinr_db": float, "sigma_h_db": float}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_number_list(name: str, raw: str, kind):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{name}: expected a number or comma-separated list, got {raw!r}")
    try:
        values = [kind(float(p)) if kind is int else kind(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{name}: could not parse {raw!r}") from exc
    if kind is int:
        for p, v in zip(parts, values):
            if float(p) != v:
                raise ConfigError(f"{name}: {p!r} is not an integer")
    return values[0] if len(values) == 1 else values


def _parse_config_file(path: str) -> dict:
    """Read either a JSON manifest/config or a flat ``key = value`` file."""
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        # A manifest written by a previous run embeds the config under "config".
        if "config" in data and isinstance(data["config"], dict):
            return dict(data["config"])
        return data

    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            if key in _SWEEPABLE:
                out[key] = _parse_number_list(key, value, _SWEEPABLE[key])
            elif "," in value:
                out[key] = [v.strip() for v in value.split(",") if v.strip()]
            else:
                out[key] = value
    return out


def _default_threads() -> int:
    raw = os.environ.get("WIRETAP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"WIRETAP_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"WIRETAP_THREADS must be positive, got {value}")
    return value


def _add_experiment_options(parser: argparse.ArgumentParser, *, with_scenario: bool) -> None:
    if with_scenario:
        parser.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                            help="preset scenario name (default: custom)")
        parser.add_argument("--config", default=None, metavar="PATH",
                            help="config file: flat key = value lines, or a JSON "
                                 "config / manifest from a previous run")
    parser.add_argument("--na", type=int, default=None, help="transmit antennas")
    parser.add_argument("--nb", type=int, default=None, help="intended receiver antennas")
    parser.add_argument("--ne", default=None,
                        help="eavesdropper antennas (single value or comma list to sweep)")
    parser.add_argument("--target-sinr-db", default=None,
                        help="target SINR in dB (single value or comma list to sweep)")
    parser.add_argument("--sigma-h-db", default=None,
                        help="channel-error power in dB (single value or comma list to sweep)")
    parser.add_argument("--gamma-ecsi", type=float, default=None,
                        help="eavesdropper-knowledge blend weight in [0, 1]")
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
    parser.add_argument("--power-db", type=float, default=None,
                        help="transmit power in dB, within +-1000")
    parser.add_argument("--sigma-b-sq", type=float, default=None,
                        help="receiver noise power (linear, 1e-100 to 1e100)")
    parser.add_argument("--sigma-e-sq", type=float, default=None,
                        help="eavesdropper noise power (linear, 1e-100 to 1e100)")
    parser.add_argument("--seed", type=int, default=None, dest="master_seed", help="master seed")
    parser.add_argument("--schemes", default=None,
                        help="comma-separated scheme list (e.g. perfect,naive,robust_tdd)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes, no more than CPUs (default: WIRETAP_THREADS or 1)")
    parser.add_argument(
        "--secrecy-metric", choices=["goodput", "proxy", "full"], default=None
    )
    parser.add_argument("--fdd-estimate-propagation", action="store_const", const=True,
                        default=None, dest="propagate_through_estimate",
                        help="make the exact-knowledge receiver trust the transmitter's "
                             "channel estimate instead of the true channel")
    parser.add_argument("--out-dir", default="wiretap_out", metavar="DIR",
                        help="directory for results.json / plot files / manifest.json")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="plot-data format (default: csv)")


def _collect_overrides(args: argparse.Namespace) -> dict:
    fields = (
        "na", "nb", "ne", "target_sinr_db", "sigma_h_db", "gamma_ecsi",
        "trials", "power_db", "sigma_b_sq", "sigma_e_sq", "master_seed",
        "schemes", "threads", "secrecy_metric", "propagate_through_estimate",
    )
    out: dict = {}
    for name in fields:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name in _SWEEPABLE and isinstance(value, str):
            value = _parse_number_list(name, value, _SWEEPABLE[name])
        elif name == "schemes" and isinstance(value, str):
            value = tuple(s.strip() for s in value.split(",") if s.strip())
            if not value:
                raise ConfigError("--schemes: empty scheme list")
        out[name] = value
    return out


def _build_config(file_settings: dict, overrides: dict, scenario: str | None) -> ExperimentConfig:
    merged = dict(file_settings)
    merged.update(overrides)
    name = scenario if scenario is not None else str(merged.get("scenario", "custom"))
    merged.pop("scenario", None)
    if name != "custom":
        return preset_config(name, **merged)
    merged["scenario"] = "custom"
    return ExperimentConfig.from_dict(merged)


def _write_outputs(result: SweepResult, out_dir: str, fmt: str) -> list[Path]:
    """Write results.json, the plot data and manifest.json, which is ``result.meta``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    results_path = directory / "results.json"
    payload = {
        "axis_name": result.axis_name,
        "axis": list(result.axis),
        "schemes": list(result.schemes),
        "series": result.series,
        "extrapolated": list(result.extrapolated),
        "config": result.meta["config"],
        "version": result.meta["version"],
    }
    results_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(results_path)

    rows = []
    for rec in result.records():
        rows.append({
            "axis": result.axis_name,
            "axis_value": rec["axis_value"],
            "scheme": rec["scheme"],
            "mean_sinr_b_db": rec["mean_sinr_b_db"],
            "stderr_sinr_b_db": rec["stderr_sinr_b_db"],
            "mean_sinr_e_db": rec["mean_sinr_e_db"],
            "mean_secrecy": rec["mean_secrecy"],
            "outage_fraction": rec["outage_count"] / result.meta["config"]["trials"],
            "extrapolated": rec["extrapolated"],
        })
    if fmt == "csv":
        plot_path = directory / "plot.csv"
        with plot_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([
                    _fmt(v) if isinstance(v, float) else v for v in (row[k] for k in header)
                ])
    else:
        plot_path = directory / "plot.json"
        plot_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    written.append(plot_path)

    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(result.meta, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written


def _print_summary(result: SweepResult) -> None:
    trials = result.meta["config"]["trials"]
    for rec in result.records():
        extra = "  [outside trusted error range]" if rec["extrapolated"] else ""
        print(
            f"{result.axis_name}={rec['axis_value']:g}  {rec['scheme']:>15}: "
            f"receive SINR {rec['mean_sinr_b_db']:8.3f} dB "
            f"(stderr {rec['stderr_sinr_b_db']:.3f}), "
            f"eavesdropper {rec['mean_sinr_e_db']:8.3f} dB, "
            f"secrecy {rec['mean_secrecy']:.4f}, "
            f"outage {rec['outage_count']}/{trials}{extra}"
        )


def _run_sweep(cfg: ExperimentConfig, out_dir: str, fmt: str) -> int:
    result = run_experiment(cfg)
    _print_summary(result)
    for path in _write_outputs(result, out_dir, fmt):
        print(f"wrote {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    file_settings = _parse_config_file(args.config) if args.config else {}
    overrides = _collect_overrides(args)
    if args.threads is None and "threads" not in file_settings:
        overrides["threads"] = _default_threads()
    cfg = _build_config(file_settings, overrides, args.scenario)
    return _run_sweep(cfg, args.out_dir, args.format)


def _cmd_figure(args: argparse.Namespace) -> int:
    scenario = _FIGURE_SCENARIOS[args.number]
    overrides = _collect_overrides(args)
    if args.threads is None:
        overrides["threads"] = _default_threads()
    cfg = preset_config(scenario, **overrides)
    return _run_sweep(cfg, args.out_dir, args.format)


def _cmd_predict(args: argparse.Namespace) -> int:
    # A sweep config checks these fields, so bad input is refused by name.
    ExperimentConfig(na=args.na, nb=args.nb, target_sinr_db=args.target_sinr_db,
                     sigma_h_db=args.sigma_h_db, power_db=args.power_db,
                     sigma_b_sq=args.sigma_b_sq, master_seed=args.seed)
    chan = generate_channels(
        args.na, args.nb, 1,
        rng_seed=args.seed,
        sigma_b_sq=args.sigma_b_sq,
        power_p=float(from_db(args.power_db)),
    )
    svd = partition_svd(chan.h_ba)
    err = CsiErrorModel.iid(float(from_db(args.sigma_h_db)))
    moments = compute_moments(svd, err)
    target = float(from_db(args.target_sinr_db))
    predicted = predict_naive_sinr(svd, moments, chan, target)
    print(f"target SINR:    {_fmt(target)}  ({args.target_sinr_db:g} dB)")
    print(f"predicted SINR: {_fmt(predicted)}  ({to_db(predicted):.6f} dB)")
    print(f"predicted loss: {to_db(target) - to_db(predicted):.6f} dB")
    if args.sigma_h_db > -10.0:
        print("note: error power above -10 dB lies outside the trusted range of the "
              "second-order expansion; treat the prediction as extrapolation")
    return 0


def _cmd_validate(_: argparse.Namespace) -> int:
    from . import selfcheck

    return 0 if selfcheck.run_all(print) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap",
        description="Secure MIMO beamforming simulator with synthetic interference "
                    "and closed-form sensitivity prediction.",
    )
    parser.add_argument("--version", action="version", version=f"wiretap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    _add_experiment_options(p_run, with_scenario=True)
    p_run.set_defaults(handler=_cmd_run)

    p_fig = sub.add_parser("figure", help="run one of the five preset sweeps")
    p_fig.add_argument("number", type=int, choices=sorted(_FIGURE_SCENARIOS))
    _add_experiment_options(p_fig, with_scenario=False)
    p_fig.set_defaults(handler=_cmd_figure)

    p_pred = sub.add_parser("predict", help="closed-form degradation prediction "
                                            "for a single channel draw")
    p_pred.add_argument("--na", type=int, default=5)
    p_pred.add_argument("--nb", type=int, default=5)
    p_pred.add_argument("--sigma-h-db", type=float, required=True)
    p_pred.add_argument("--target-sinr-db", type=float, default=20.0)
    p_pred.add_argument("--power-db", type=float, default=20.0)
    p_pred.add_argument("--sigma-b-sq", type=float, default=1.0)
    p_pred.add_argument("--seed", type=int, default=1)
    p_pred.set_defaults(handler=_cmd_predict)

    p_val = sub.add_parser("validate", help="run the built-in sanity suite")
    p_val.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors; fold
        # usage errors into the configuration-error exit code.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except (ConfigError, ParameterError, DimensionError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidityRangeError, DegenerateChannelError, IllConditionedGapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
