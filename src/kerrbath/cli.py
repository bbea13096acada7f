"""Command-line front end.

Subcommands:

  timescales  derived characteristic times and the dynamical regime
  simulate    propagate one run and write a trajectory CSV + JSON sidecar
  compare     integrate a mode that has a closed form and report deviations
  sweep       seeded random parameter draws, decoherence-time fit per draw
  spectrum    discrete position spectrum and its envelope-width fit
  regimes     survival ratios for the two laboratory-scale examples

Configuration is layered: built-in defaults, then a flat key=value config
file (--config), then explicit command-line flags, later layers winning.
Floats in outputs carry 17 significant digits so round-trips are lossless.

Exit codes: 0 success, 2 invalid parameters or configuration, 3 integrator
failure, 4 tolerance breach in compare. Trajectory CSVs are deterministic;
wall-clock timestamps only appear in JSON sidecars. Files are written
atomically, and --out is made by the first write, so exits 2 and 3 leave none.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, closedform, fock
from .evolve import (
    FRAMES,
    MODES,
    IntegrationError,
    IntegratorConfig,
    default_dtau,
    evolve,
)
from .kernels import QuadratureError
from .model import (
    SystemParams,
    _cantilever_threshold,
    _require_valid,
    classify_regime,
    derive_timescales,
    theta_bec,
    theta_cantilever,
    theta_regime,
)

CSV_HEADER = "tau,x,re_a,im_a,n,trace,herm_defect"

SWEEP_RANGES = {
    "mu_bar": (1e-3, 1.0, "log"),
    "gamma": (1e-5, 1e-2, "log"),
    "beta_bar": (1e-2, 1.0, "log"),
    "intensity": (20.0, 50.0, "uniform"),
}
SWEEP_LAMBDA_RULE = "max(30, 3*omega_bar)"
SWEEP_PAIR_RULE = "quarter-orbit: (sqrt(I0), i sqrt(I0))"


def sweep_lambda_bar(omega_bar: float) -> float:
    """Bath cutoff for a sweep draw.

    3*omega_bar keeps the cutoff suppression of the resonant coupling below
    10 percent, while not inflating the bath-induced frequency shift (which
    grows with the cutoff) or tripping the overdamping guard at the largest
    drawn gamma with omega_bar near 1.
    """
    return max(30.0, 3.0 * omega_bar)


#: every option a flag or a config file can set: its type, or the tuple of
#: values it accepts, and the flag's help text; --mu-bar sets mu_bar
OPTIONS = {
    "out": (str, "output directory"),
    "seed": (int, "random seed"),
    "workers": (int, "parallel draws"),
    "mode": (MODES, "evolution mode"),
    "tolerance": (float, "compare failure threshold"),
    "mu_bar": (float, None),
    "intensity": (float, None),
    "beta_bar": (float, None),
    "gamma": (float, None),
    "lambda_bar": (float, None),
    "theta": (float, None),
    "tau_end": (float, None),
    "dtau": (float, None),
    "frame": (FRAMES, None),
    "draws": (int, None),
    "samples": (int, None),
    "periods": (int, None),
    "window": (("none", "hann"), None),
}

_PARAMS = ("mu_bar", "intensity", "beta_bar", "gamma", "lambda_bar", "theta")
_RUN = (*_PARAMS, "mode", "tau_end", "dtau", "frame", "out")
#: the options each command reads, as flags and as config-file keys
COMMAND_OPTIONS = {
    "timescales": (*_PARAMS, "out"),
    "simulate": _RUN,
    "compare": (*_RUN, "tolerance"),
    "spectrum": (*_PARAMS, "mode", "samples", "periods", "window", "out"),
    "sweep": ("seed", "draws", "workers", "lambda_bar", "out"),
}


class ConfigError(ValueError):
    """Malformed configuration file or option set."""


def fmt(value: float) -> str:
    """17-significant-digit decimal, enough to round-trip a double."""
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# config files


def parse_config(text: str, command: str | None = None) -> dict:
    """Parse flat key=value lines into typed values.

    Blank lines and #-comments are skipped; keys must come from OPTIONS (and
    be read by command, when given) and values must parse as their declared
    type or be one of the accepted values, exactly as the flags are checked.
    Later occurrences of a key override earlier ones.
    """
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if command and key not in COMMAND_OPTIONS[command]:
            raise ConfigError(f"line {ln}: {command} does not read key {key!r}")
        kind = OPTIONS[key][0]
        bad = f"line {ln}: bad value for {key}: {value!r}"
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"{bad}, expected one of {kind}")
            out[key] = value
        else:
            try:
                out[key] = kind(value)
            except ValueError as exc:
                raise ConfigError(bad) from exc
    return out


def _merged_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        merged.update(parse_config(path.read_text(), args.command))
    merged.update((k, v) for k, v in vars(args).items() if k in OPTIONS and v is not None)
    return merged


def _build_params(opts: dict) -> SystemParams:
    """SystemParams from the options, mu_bar 0 and intensity 1 by default."""
    given = {f.name: opts[f.name] for f in dataclasses.fields(SystemParams) if f.name in opts}
    params = SystemParams(**{"mu_bar": 0.0, "intensity": 1.0, **given})
    for v in _require_valid(params):
        print(f"warning: {v.message}", file=sys.stderr)
    return params


def _out_dir(opts: dict, required: bool = True) -> Path | None:
    """The --out directory, checked before any run but not made: the first
    write makes it, so a command that fails before writing leaves none."""
    if "out" not in opts:
        if required:
            raise ConfigError("--out DIR is required for this command")
        return None
    path = Path(opts["out"])
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    return path


def _write(path: Path, text: str) -> None:
    """Every file the CLI writes: atomically, into a directory made on demand."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: str, columns) -> None:
    rows = (",".join(map(fmt, row)) for row in zip(*columns))
    _write(path, "\n".join([header, *rows]) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


#: the run record: the facts of a run, each formed from its Trajectory t,
#: that every run's JSON and every sweep manifest entry carries
_RECORD = {
    "mode": lambda t: t.mode,
    "frame": lambda t: t.frame,
    "n_max": lambda t: t.n_max,
    "dtau": lambda t: t.dtau,
    "n_samples": lambda t: int(t.taus.size),
    "step": lambda t: t.step,
    "steps": lambda t: t.steps,
    "step_error": lambda t: t.step_error,
    "spectral_radius": lambda t: t.spectral_radius,
    "max_trace_deviation": lambda t: float(np.abs(t.trace - 1.0).max()),
    "max_herm_defect": lambda t: float(t.herm_defect.max()),
    "max_top_population": lambda t: float(t.top_population.max()),
    "final_min_eig": lambda t: float(np.linalg.eigvalsh(t.final_rho)[0]),
}


def _sidecar(params: SystemParams | None, traj=None, **fields) -> dict:
    """A JSON sidecar: the fields, the run's params, the run record of traj
    when there was a run (see _RECORD: the mode, frame, basis size, sample
    spacing and count, the stepping telemetry and the worst conservation
    defects, top-of-basis population and final minimum eigenvalue), and
    the schema stamp."""
    if params is not None:
        fields["params"] = dataclasses.asdict(params)
    if traj is not None:
        fields.update((name, get(traj)) for name, get in _RECORD.items())
    return {
        **fields,
        "schema_version": "1",
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_timescales(opts: dict) -> int:
    params = _build_params(opts)
    out = _out_dir(opts, required=False)
    scales = derive_timescales(params)
    report = classify_regime(scales)
    for name, value in dataclasses.asdict(scales).items():
        print(f"{name:9s} = {fmt(value)}")
    print(f"{'regime':9s} = {report.regime}")
    print("ordering  = " + " < ".join(name for name, _ in report.ordering))
    if out is not None:
        _write_json(out / "timescales.json", _sidecar(
            params,
            timescales=dataclasses.asdict(scales),
            regime=report.regime,
            theta=report.theta,
            ordering=[list(item) for item in report.ordering],
        ))
    return 0


def _run(opts: dict, out_required: bool):
    """Params, --out and trajectory of a simulate or compare run, every input
    checked before the run (tau_end is required, and evolve checks its value)."""
    params = _build_params(opts)
    if "tau_end" not in opts:
        raise ConfigError("tau_end is required (flag --tau-end or config)")
    config = IntegratorConfig(**{k: opts[k] for k in ("dtau", "frame") if k in opts})
    out = _out_dir(opts, out_required)
    traj = evolve(params, opts["tau_end"], mode=opts.get("mode", "closed"), config=config)
    return params, out, traj


def cmd_simulate(opts: dict) -> int:
    params, out, traj = _run(opts, out_required=True)
    _write_csv(out / "trajectory.csv", CSV_HEADER, (
        traj.taus, traj.x, traj.a_expect.real, traj.a_expect.imag,
        traj.n_expect, traj.trace.real, traj.herm_defect,
    ))
    _write_json(out / "trajectory.json", _sidecar(
        params, traj, tau_end=opts["tau_end"], csv="trajectory.csv"))
    print(f"wrote {traj.taus.size} samples to {out / 'trajectory.csv'}")
    return 0


def cmd_compare(opts: dict) -> int:
    mode = opts.get("mode", "closed")
    if mode not in ("closed", "lindblad-rwa"):
        raise ConfigError(
            f"compare needs a mode with a closed-form reference, got {mode!r} "
            "(expected closed or lindblad-rwa)"
        )
    tolerance = opts.get("tolerance")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"tolerance must be finite and non-negative, got {tolerance}")
    params, out, traj = _run(opts, out_required=False)
    if mode == "closed":
        ref = closedform.alpha_closed(params, traj.taus)
    else:
        ref = closedform.alpha_lindblad_rwa(params, traj.taus)
    dev = np.abs(traj.a_expect - ref)
    max_dev = float(dev.max())
    rms_dev = float(np.sqrt(np.mean(dev**2)))
    rel = max_dev / math.sqrt(params.intensity)
    print(f"max |d<a>|      = {fmt(max_dev)}")
    print(f"rms |d<a>|      = {fmt(rms_dev)}")
    print(f"max/sqrt(I0)    = {fmt(rel)}")
    if out is not None:
        _write_json(out / "compare.json", _sidecar(
            params, traj,
            tau_end=opts["tau_end"],
            max_deviation=max_dev,
            rms_deviation=rms_dev,
            relative_deviation=rel,
            tolerance=tolerance,
        ))
    if tolerance is not None and rel > tolerance:
        print(
            f"tolerance breached: max/sqrt(I0) = {fmt(rel)} > {fmt(tolerance)}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_spectrum(opts: dict) -> int:
    params = _build_params(opts)
    if params.mu_bar <= 0:
        raise ConfigError("spectrum needs mu_bar > 0 (finite recurrence period)")
    mode = opts.get("mode", "closed")
    window = opts.get("window", "none")
    window_arg = None if window == "none" else window
    # p periods put the comb lines 2p bins apart; a Hann line spans 4 bins,
    # so the window resolves the comb from two periods on
    min_periods = 1 if window_arg is None else 2
    periods = opts.get("periods", min_periods)
    samples = opts.get("samples", 2048)
    if periods < min_periods or samples < 64:
        raise ConfigError(f"need periods >= {min_periods} and samples >= 64"
                          + ("" if window_arg is None else " with a hann window"))
    out = _out_dir(opts)

    scales = derive_timescales(params)
    # an even number of revival periods puts every comb line exactly on a
    # frequency bin, so the rectangular transform has no scalloping
    duration = 2.0 * periods * scales.tau_r
    traj = evolve(params, duration, mode=mode,
                  config=IntegratorConfig(dtau=duration / samples))
    # the last sample is the periodic endpoint, the first one again
    omegas, amps, fit = analysis.fit_position_spectrum(
        traj.taus[:-1], traj.x[:-1], params.theta, window=window_arg)

    _write_csv(out / "spectrum.csv", "omega,amplitude", (omegas, amps))
    _write_json(out / "spectrum.json", _sidecar(
        params, traj,
        duration=duration,
        samples=samples,
        window=window,
        center=fit.center,
        width=fit.width,
        tau_e_estimate=fit.tau_e_estimate,
        n_bins=fit.n_bins,
        residual_rms=fit.residual_rms,
        route=fit.route,
        width_times_tau_e=fit.width * scales.tau_e,
        csv="spectrum.csv",
    ))
    print(
        f"center = {fmt(fit.center)}  width = {fmt(fit.width)}  "
        f"width*tau_e = {fmt(fit.width * scales.tau_e)}"
    )
    return 0


# ---------------------------------------------------------------------------
# sweep


def draw_parameters(seed: int, draws: int) -> list[dict]:
    """The deterministic parameter list for a seed.

    One generator, fixed sampling order per draw (mu_bar, gamma, beta_bar,
    intensity), so a (seed, draws) pair always maps to the same list and a
    resumed sweep can verify it is continuing the same plan.
    """
    rng = np.random.default_rng(seed)
    out = []
    for index in range(draws):
        entry = {"index": index}
        for key in ("mu_bar", "gamma", "beta_bar", "intensity"):
            lo, hi, kind = SWEEP_RANGES[key]
            if kind == "log":
                entry[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                entry[key] = float(rng.uniform(lo, hi))
        out.append(entry)
    return out


def run_sweep_draw(spec: dict) -> dict:
    """One decoherence-time measurement: cat state, rotating-frame run,
    coherence-envelope decay fit, comparison against the analytic
    decoherence time.

    The two lobes sit a quarter orbit apart at equal intensity: alpha =
    sqrt(I0) and beta = i alpha. That geometry makes the measured rate
    insensitive to where a draw lands relative to the dissipator's internal
    scales. When coherence outlives the orbit and the nonlinearity has
    dephased the number-space diagonals, decay runs at the local rate
    (2 I0 + 1) B1, separation independent. When it outlives the orbit but
    not the dephasing, the rigid rotation averages the squared position
    projection of the chord to |chord|^2 / 2 = I0. And when coherence dies
    inside a fraction of an orbit there is no averaging at all, only the
    instantaneous projection, which the 45 degree chord orientation pins to
    the same I0. All three give 2 B1 I0, the inverse analytic decoherence
    time. The decay rate of the pair is modulated at period pi/Omega_bar as
    the chord's x-projection rotates; overlap_rate_modulated fits that
    modulation explicitly, so every draw uses one window, a predicted
    envelope log drop of 0.23, sampled at least 400 times (the RK4 step
    may span several samples). The result is the draw file's sidecar.
    """
    params = SystemParams(**{k: spec[k] for k in ("mu_bar", "intensity", "beta_bar", "gamma")})
    params = dataclasses.replace(
        params, lambda_bar=spec.get("lambda_bar") or sweep_lambda_bar(params.omega_bar)
    )
    scales = derive_timescales(params)
    al = math.sqrt(params.intensity)
    be = al * 1j
    n_max = fock.fock_cutoff(params.intensity)
    rho0 = fock.cat_state_density(al, be, n_max)
    # orbit-effective separation of the quarter pair: |chord|^2 cos^2(45deg)
    delta_eff = math.sqrt(params.intensity)
    rate_pred = analysis.predicted_overlap_rate(params, delta_eff)
    window = 0.23 / rate_pred
    dtau = min(default_dtau(params, n_max, "rotating"), window / 400.0)
    traj = evolve(
        params,
        window,
        mode="born-markov-asymptotic",
        rho0=rho0,
        config=IntegratorConfig(
            frame="rotating", overlap_pair=(al, be), dtau=dtau
        ),
    )
    fit = analysis.overlap_rate_modulated(
        traj.taus, traj.overlap, params.omega_bar, -0.25 * math.pi
    )
    tau_d_fit = analysis.scale_tau_d_to_intensity(
        fit.tau_d, delta_eff, params.intensity
    )
    return _sidecar(
        params, traj,
        index=spec["index"],
        delta_eff=delta_eff,
        window=window,
        fit_method=fit.method,
        rate_fit=fit.rate,
        rate_predicted=rate_pred,
        tau_d_fit=tau_d_fit,
        tau_d_theory=scales.tau_d,
        ln_ratio=math.log(tau_d_fit / scales.tau_d),
        fit_uncertainty=fit.uncertainty,
        fit_residual_rms=fit.residual_rms,
    )


def cmd_sweep(opts: dict) -> int:
    if "draws" not in opts or "seed" not in opts:
        raise ConfigError("sweep needs --draws and --seed")
    draws, seed = opts["draws"], opts["seed"]
    if draws < 0:
        raise ConfigError(f"draws must be non-negative, got {draws}")
    workers = opts.get("workers", 1)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if "lambda_bar" in opts:  # an override is checked like a run's cutoff
        _build_params({"lambda_bar": opts["lambda_bar"]})
    out = _out_dir(opts)
    manifest_path = out / "manifest.json"

    plan = draw_parameters(seed, draws)
    manifest = _sidecar(
        None,
        seed=seed,
        draws=draws,
        pair_rule=SWEEP_PAIR_RULE,
        lambda_bar_rule=SWEEP_LAMBDA_RULE,
        lambda_bar_override=opts.get("lambda_bar"),
        ranges={k: list(v) for k, v in SWEEP_RANGES.items()},
        entries=[
            {
                "index": e["index"],
                "params": {k: e[k] for k in ("mu_bar", "gamma", "beta_bar", "intensity")},
                "status": "pending",
                "result_file": None,
                "error": None,
                **dict.fromkeys(_RECORD),  # the draw's run record, None until it completes
            }
            for e in plan
        ],
    )
    if manifest_path.exists():
        found = json.loads(manifest_path.read_text())
        differ = [f"{k} {found.get(k)!r} there, {manifest[k]!r} here"
                  for k in ("seed", "draws", "ranges", "lambda_bar_override")
                  if found.get(k) != manifest[k]]
        if differ:
            raise ConfigError(f"{manifest_path} belongs to a different sweep "
                              f"({'; '.join(differ)}); use a fresh --out directory")
        manifest = found
    else:
        _write_json(manifest_path, manifest)

    pending = [
        dict(spec, lambda_bar=opts.get("lambda_bar"))
        for entry, spec in zip(manifest["entries"], plan)
        if not (entry["status"] == "complete" and entry["result_file"]
                and (out / entry["result_file"]).exists())
    ]

    def record(result_or_error, index: int) -> None:
        entry = manifest["entries"][index]
        if isinstance(result_or_error, dict):
            entry.update(status="complete", result_file=f"draw_{index:03d}.json", error=None)
            entry.update((k, result_or_error[k]) for k in _RECORD)
            _write_json(out / entry["result_file"], result_or_error)
        else:
            entry.update(status="failed", error=str(result_or_error))
            entry.update(dict.fromkeys(_RECORD))
        _write_json(manifest_path, manifest)

    if workers > 1 and len(pending) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
            for index, outcome in pool.imap_unordered(_sweep_worker, pending):
                record(outcome, index)
    else:
        for index, outcome in map(_sweep_worker, pending):
            record(outcome, index)

    status = Counter(e["status"] for e in manifest["entries"])
    print(f"sweep: {status['complete']} complete, {status['failed']} failed, of {draws} draws")
    return 0


def _sweep_worker(spec: dict):
    try:
        return spec["index"], run_sweep_draw(spec)
    except Exception as exc:  # recorded per draw, the sweep keeps going
        return spec["index"], exc


# ---------------------------------------------------------------------------
# laboratory-scale regimes


def cmd_regimes(args: argparse.Namespace) -> int:
    if args.system == "bec":
        theta = theta_bec(
            scattering_length=args.scattering_length,
            atom_mass=args.mass,
            trap_omega=args.trap_omega,
            n_atoms=args.atoms,
            tau_gamma=args.tau_gamma,
        )
        print(f"theta = {fmt(theta)}")
    else:
        theta = theta_cantilever(
            mu_cl=args.mu_cl, quality=args.quality, n_levels=args.n_levels
        )
        threshold = _cantilever_threshold(args.quality, args.n_levels)
        print(f"theta = {fmt(theta)}")
        print(f"mu_cl threshold (theta = 1) = {fmt(threshold)}")
    print(f"regime = {theta_regime(theta)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_options(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    for name in names:
        kind, help_text = OPTIONS[name]
        choices = kind if isinstance(kind, tuple) else None
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, help=help_text,
            type=None if choices else kind, choices=choices,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrbath",
        description="anharmonic oscillator in a thermal bath: simulation and fits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in (
        ("timescales", cmd_timescales),
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
        ("spectrum", cmd_spectrum),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        _add_options(p, COMMAND_OPTIONS[name])
        p.set_defaults(func=lambda args, run=func: run(_merged_options(args)))

    reg = sub.add_parser("regimes")
    regsub = reg.add_subparsers(dest="system", required=True)
    bec = regsub.add_parser("bec")
    bec.add_argument("--atoms", type=float, required=True)
    bec.add_argument("--scattering-length", dest="scattering_length", type=float, required=True)
    bec.add_argument("--mass", type=float, required=True)
    bec.add_argument("--trap-omega", dest="trap_omega", type=float, required=True)
    bec.add_argument("--tau-gamma", dest="tau_gamma", type=float, required=True)
    cant = regsub.add_parser("cantilever")
    cant.add_argument("--mu-cl", dest="mu_cl", type=float, required=True)
    cant.add_argument("--quality", type=float, required=True)
    cant.add_argument("--n-levels", dest="n_levels", type=float, required=True)
    reg.set_defaults(func=cmd_regimes)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        if extra:  # a flag that the command does not read, named with the command
            parser.error(f"{args.command} does not take {' '.join(extra)}")
        return args.func(args)
    except SystemExit as exc:  # argparse on a bad flag value, --help or --version
        return exc.code
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, QuadratureError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
