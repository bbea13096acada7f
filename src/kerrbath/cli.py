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
wall-clock timestamps only appear in JSON sidecars.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
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
    THETA_HI,
    THETA_LO,
    SystemParams,
    classify_regime,
    derive_timescales,
    theta_bec,
    theta_cantilever,
    validate_params,
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
    "seed": (int, "random seed (sweep)"),
    "workers": (int, "parallel draws (sweep)"),
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
    "stride": (int, None),
    "frame": (FRAMES, None),
    "draws": (int, None),
    "samples": (int, None),
    "periods": (int, None),
    "window": (("none", "hann"), None),
}


class ConfigError(ValueError):
    """Malformed configuration file or option set."""


def fmt(value: float) -> str:
    """17-significant-digit decimal, enough to round-trip a double."""
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# config files


def parse_config(text: str) -> dict:
    """Parse flat key=value lines into typed values.

    Blank lines and #-comments are skipped; keys must come from OPTIONS and
    values must parse as their declared type or be one of the accepted
    values, exactly as the flags are checked. Later occurrences of a key
    override earlier ones.
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
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        merged.update(parse_config(path.read_text()))
    for key in OPTIONS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _build_params(opts: dict) -> SystemParams:
    """SystemParams from the options, mu_bar 0 and intensity 1 by default."""
    given = {f.name: opts[f.name] for f in dataclasses.fields(SystemParams) if f.name in opts}
    params = SystemParams(**{"mu_bar": 0.0, "intensity": 1.0, **given})
    violations = validate_params(params)
    errors = [v.message for v in violations if v.level == "error"]
    if errors:
        raise ConfigError("; ".join(errors))
    for v in violations:  # warnings only
        print(f"warning: {v.message}", file=sys.stderr)
    return params


def _out_dir(opts: dict, required: bool = True) -> Path | None:
    out = opts.get("out")
    if out is None:
        if required:
            raise ConfigError("--out DIR is required for this command")
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _step_stats(traj) -> dict:
    """A run's stepping telemetry: the largest RK4 step, the accepted steps
    and the worst accepted local error estimate."""
    return {"step": traj.step, "steps": traj.steps, "step_error": traj.step_error}


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _sidecar(payload: dict) -> dict:
    payload = dict(payload)
    payload["schema_version"] = "1"
    payload["tool_version"] = __version__
    payload["created_utc"] = datetime.now(timezone.utc).isoformat()
    return payload


# ---------------------------------------------------------------------------
# subcommands


def cmd_timescales(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    params = _build_params(opts)
    scales = derive_timescales(params)
    report = classify_regime(scales)
    for name, value in dataclasses.asdict(scales).items():
        print(f"{name:9s} = {fmt(value)}")
    print(f"{'regime':9s} = {report.regime}")
    print("ordering  = " + " < ".join(name for name, _ in report.ordering))
    out = _out_dir(opts, required=False)
    if out is not None:
        _write_json(
            out / "timescales.json",
            _sidecar(
                {
                    "params": dataclasses.asdict(params),
                    "timescales": dataclasses.asdict(scales),
                    "regime": report.regime,
                    "theta": report.theta,
                    "ordering": [list(item) for item in report.ordering],
                }
            ),
        )
    return 0


def _trajectory_config(opts: dict) -> IntegratorConfig:
    return IntegratorConfig(**{k: opts[k] for k in ("dtau", "stride", "frame") if k in opts})


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    params = _build_params(opts)
    if "tau_end" not in opts:
        raise ConfigError("tau_end is required (flag --tau-end or config)")
    tau_end = opts["tau_end"]
    if tau_end < 0:
        raise ConfigError(f"tau_end must be non-negative, got {tau_end}")
    mode = opts.get("mode", "closed")
    config = _trajectory_config(opts)  # a bad step is refused before --out is made
    out = _out_dir(opts)
    traj = evolve(params, tau_end, mode=mode, config=config)

    columns = (traj.taus, traj.x, traj.a_expect.real, traj.a_expect.imag,
               traj.n_expect, traj.trace.real, traj.herm_defect)
    lines = [CSV_HEADER] + [",".join(map(fmt, row)) for row in zip(*columns)]
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        out / "trajectory.json",
        _sidecar(
            {
                "params": dataclasses.asdict(params),
                "mode": traj.mode,
                "frame": traj.frame,
                "n_max": traj.n_max,
                "dtau": traj.dtau,
                **_step_stats(traj),
                "tau_end": tau_end,
                "n_samples": int(traj.taus.size),
                "csv": "trajectory.csv",
                "max_trace_deviation": float(np.abs(traj.trace - 1.0).max()),
                "max_herm_defect": float(traj.herm_defect.max()),
            }
        ),
    )
    print(f"wrote {traj.taus.size} samples to {out / 'trajectory.csv'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    params = _build_params(opts)
    mode = opts.get("mode", "closed")
    if mode not in ("closed", "lindblad-rwa"):
        raise ConfigError(
            f"compare needs a mode with a closed-form reference, got {mode!r} "
            "(expected closed or lindblad-rwa)"
        )
    if "tau_end" not in opts:
        raise ConfigError("tau_end is required (flag --tau-end or config)")
    tau_end = opts["tau_end"]
    traj = evolve(params, tau_end, mode=mode, config=_trajectory_config(opts))
    if mode == "closed":
        ref = closedform.alpha_closed(params, traj.taus)
    else:
        ref = closedform.alpha_lindblad_rwa(params, traj.taus)
    dev = np.abs(traj.a_expect - ref)
    scale = math.sqrt(params.intensity)
    max_dev = float(dev.max())
    rms_dev = float(np.sqrt(np.mean(dev**2)))
    rel = max_dev / scale
    print(f"max |d<a>|      = {fmt(max_dev)}")
    print(f"rms |d<a>|      = {fmt(rms_dev)}")
    print(f"max/sqrt(I0)    = {fmt(rel)}")
    out = _out_dir(opts, required=False)
    if out is not None:
        _write_json(
            out / "compare.json",
            _sidecar(
                {
                    "params": dataclasses.asdict(params),
                    "mode": mode,
                    "tau_end": tau_end,
                    "max_deviation": max_dev,
                    "rms_deviation": rms_dev,
                    "relative_deviation": rel,
                    "tolerance": opts.get("tolerance"),
                    **_step_stats(traj),
                }
            ),
        )
    tolerance = opts.get("tolerance")
    if tolerance is not None and rel > tolerance:
        print(
            f"tolerance breached: max/sqrt(I0) = {fmt(rel)} > {fmt(tolerance)}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    params = _build_params(opts)
    if params.mu_bar <= 0:
        raise ConfigError("spectrum needs mu_bar > 0 (finite recurrence period)")
    mode = opts.get("mode", "closed")
    periods = opts.get("periods", 1)
    samples = opts.get("samples", 2048)
    if periods < 1 or samples < 64:
        raise ConfigError("need periods >= 1 and samples >= 64")
    window = opts.get("window", "none")
    window_arg = None if window == "none" else window
    out = _out_dir(opts)

    # an even number of revival periods puts every comb line exactly on a
    # frequency bin, so the rectangular transform has no scalloping
    tau_r = math.pi / params.mu_bar
    duration = 2.0 * periods * tau_r
    dt = duration / samples
    frame = opts.get("frame", "lab")
    cap = default_dtau(params, fock.fock_cutoff(params.intensity), frame)
    sub = max(1, int(math.ceil(dt / cap)))
    traj = evolve(
        params, duration, mode=mode,
        config=IntegratorConfig(dtau=dt / sub, stride=sub, frame=frame),
    )
    x = traj.x[:-1]  # drop the periodic endpoint
    taus = traj.taus[:-1]
    omegas, amps = analysis.discrete_spectrum(taus, x, window=window_arg)
    peak_om, peak_amp = analysis.comb_peaks(omegas, amps)
    fit = analysis.fit_spectral_width(peak_om, peak_amp)
    scales = derive_timescales(params)

    lines = ["omega,amplitude"] + [f"{fmt(w)},{fmt(a)}" for w, a in zip(omegas, amps)]
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "params": dataclasses.asdict(params),
        "mode": mode,
        "duration": duration,
        "samples": samples,
        "window": window,
        "center": fit.center,
        "width": fit.width,
        "tau_e_estimate": fit.tau_e_estimate,
        "n_bins": fit.n_bins,
        "residual_rms": fit.residual_rms,
        "width_times_tau_e": fit.width * scales.tau_e,
        "csv": "spectrum.csv",
        **_step_stats(traj),
    }
    _write_json(out / "spectrum.json", _sidecar(payload))
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
    may span several samples).
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
    return {
        "index": spec["index"],
        "params": dataclasses.asdict(params),
        "delta_eff": delta_eff,
        "n_max": n_max,
        "window": window,
        "fit_method": fit.method,
        "rate_fit": fit.rate,
        "rate_predicted": rate_pred,
        "tau_d_fit": tau_d_fit,
        "tau_d_theory": scales.tau_d,
        "ln_ratio": math.log(tau_d_fit / scales.tau_d),
        "fit_uncertainty": fit.uncertainty,
        "fit_residual_rms": fit.residual_rms,
        "max_trace_deviation": float(np.abs(traj.trace - 1.0).max()),
        "max_herm_defect": float(traj.herm_defect.max()),
        "final_min_eig": float(np.linalg.eigvalsh(traj.final_rho)[0]),
        **_step_stats(traj),
    }


#: the draw results a manifest entry repeats, None until the draw completes
_ENTRY_RESULTS = ("final_min_eig", "step", "steps", "step_error")


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    if "draws" not in opts or "seed" not in opts:
        raise ConfigError("sweep needs --draws and --seed")
    draws, seed = opts["draws"], opts["seed"]
    if draws < 0:
        raise ConfigError(f"draws must be non-negative, got {draws}")
    workers = opts.get("workers", 1)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    out = _out_dir(opts)
    manifest_path = out / "manifest.json"

    plan = draw_parameters(seed, draws)
    ranges = {k: list(v) for k, v in SWEEP_RANGES.items()}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        same = (
            manifest.get("seed") == seed
            and manifest.get("draws") == draws
            and manifest.get("ranges") == ranges
        )
        if not same:
            raise ConfigError(
                f"{manifest_path} belongs to a different sweep (seed/draws/"
                "ranges differ); use a fresh --out directory"
            )
    else:
        manifest = {
            "schema_version": "1",
            "tool_version": __version__,
            "seed": seed,
            "draws": draws,
            "pair_rule": SWEEP_PAIR_RULE,
            "lambda_bar_rule": SWEEP_LAMBDA_RULE,
            "ranges": ranges,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "entries": [
                {
                    "index": e["index"],
                    "params": {k: e[k] for k in ("mu_bar", "gamma", "beta_bar", "intensity")},
                    "status": "pending",
                    "result_file": None,
                    "error": None,
                    **dict.fromkeys(_ENTRY_RESULTS),
                }
                for e in plan
            ],
        }
        _write_json(manifest_path, manifest)

    pending = []
    for entry, spec in zip(manifest["entries"], plan):
        done = (
            entry["status"] == "complete"
            and entry["result_file"]
            and (out / entry["result_file"]).exists()
        )
        if not done:
            pending.append(dict(spec, lambda_bar=opts.get("lambda_bar")))

    def record(result_or_error, index: int) -> None:
        entry = manifest["entries"][index]
        if isinstance(result_or_error, dict):
            name = f"draw_{index:03d}.json"
            _write_json(out / name, _sidecar(result_or_error))
            entry["status"] = "complete"
            entry["result_file"] = name
            entry["error"] = None
            entry.update((k, result_or_error[k]) for k in _ENTRY_RESULTS)
        else:
            entry["status"] = "failed"
            entry["error"] = str(result_or_error)
            entry.update(dict.fromkeys(_ENTRY_RESULTS))
        _write_json(manifest_path, manifest)

    if workers > 1 and len(pending) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
            for index, outcome in pool.imap_unordered(_sweep_worker, pending):
                record(outcome, index)
    else:
        for spec in pending:
            index, outcome = _sweep_worker(spec)
            record(outcome, index)

    n_done = sum(1 for e in manifest["entries"] if e["status"] == "complete")
    n_fail = sum(1 for e in manifest["entries"] if e["status"] == "failed")
    print(f"sweep: {n_done} complete, {n_fail} failed, of {draws} draws")
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
        threshold = math.sqrt(args.n_levels) / (4.0 * args.quality)
        print(f"theta = {fmt(theta)}")
        print(f"mu_cl threshold (theta = 1) = {fmt(threshold)}")
    verdict = (
        "quantum-surviving" if theta > THETA_HI
        else "classical" if theta < THETA_LO
        else "intermediate"
    )
    print(f"regime = {verdict}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    for name, (kind, help_text) in OPTIONS.items():
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
        _add_common(p)
        p.set_defaults(func=func)

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
        args = build_parser().parse_args(argv)
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
