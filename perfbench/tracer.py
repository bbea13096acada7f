"""Per-layer spans recorded around calls into kerrbath's modules.

The tracer replaces functions with timing wrappers where their callers look
them up:

  kernels     asymptotic_coefficients and coefficient_tables in kerrbath.evolve,
              which imports them by name;
  evolve      evolve in kerrbath.evolve and in kerrbath.cli;
  cli         main, run_sweep_draw and draw_parameters in kerrbath.cli;
  analysis,   every public function on its own module (callers use the
  closedform, module attribute).
  fock

Spans stay in memory. A span's self time is its duration minus its direct
children's. What a wrapper inspects after a call (the trajectory's
invariants, the coefficient error bound) runs in its own "trace" span, a
sibling of the call, so it is charged to no kerrbath layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# Array passes over an n_max x n_max complex matrix in one right-hand-side
# evaluation, counted from kerrbath.evolve._BandedRHS at the commit that
# introduced this benchmark (temporaries included).
RHS_PASSES = {"rotating": 40, "lab": 42, "lindblad-rwa": 9}


class Span:
    __slots__ = ("layer", "name", "t0", "t1", "parent", "child_s", "info")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.child_s = 0.0
        self.info = {}
        self.t0 = self.t1 = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer, name):
        span = Span(layer, name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.t1 - span.t0

    def wrap(self, fn, layer, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                probe = self._open("trace", "observe")
                try:
                    observe(span.info, result)
                finally:
                    self._close(probe)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, layer, name, observe=None):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, layer, name, observe))
        self._patches.append((module, attr, original))

    def install(self):
        ev = importlib.import_module("kerrbath.evolve")
        cli = importlib.import_module("kerrbath.cli")
        self._patch(ev, "asymptotic_coefficients", "kernels", "kernels.asymptotic",
                    _observe_coefficients)
        self._patch(ev, "coefficient_tables", "kernels", "kernels.table",
                    _observe_table)
        for module in (ev, cli):
            self._patch(module, "evolve", "evolve", "evolve", _observe_trajectory)
        for attr in ("main", "run_sweep_draw", "draw_parameters"):
            self._patch(cli, attr, "cli", f"cli.{attr}")
        for layer in ("analysis", "closedform", "fock"):
            module = importlib.import_module(f"kerrbath.{layer}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._patch(module, attr, layer, f"{layer}.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer numbers for one traced set of runs lasting wall_s."""

        def named(name):
            return [s for s in self.spans if s.name == name]

        def layer_s(layer):
            # outermost spans of the layer, so nested calls count once
            return sum(s.t1 - s.t0 for s in self.spans if s.layer == layer
                       and (s.parent is None or s.parent.layer != layer))

        def self_s(spans):
            return sum(s.t1 - s.t0 - s.child_s for s in spans)

        asym = named("kernels.asymptotic")
        table = named("kernels.table")
        table_s = sum(s.t1 - s.t0 for s in table)
        table_taus = sum(s.info["taus"] for s in table)
        evolves = named("evolve")
        stepped = [s for s in evolves if s.info["path"] != "closed"]
        closed = [s for s in evolves if s.info["path"] == "closed"]
        steps = sum(s.info["steps"] for s in stepped)
        closed_samples = sum(s.info["samples"] for s in closed)
        rhs_evals = 4 * steps
        stage_bytes = sum(4 * s.info["steps"] * RHS_PASSES[s.info["path"]]
                          * 16 * s.info["n_max"] ** 2 for s in stepped)
        kernels_s = layer_s("kernels")
        info = [s.info for s in evolves]

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        return {
            "kernels.asymptotic.calls": len(asym),
            "kernels.asymptotic.ms_per_call": ratio(
                sum(s.t1 - s.t0 for s in asym), len(asym), 1e3),
            "kernels.err_max": max((s.info["err_max"] for s in asym), default=0.0),
            "kernels.table.s": table_s,
            "kernels.table.ms_per_tau": ratio(table_s, table_taus, 1e3),
            "kernels.share": ratio(kernels_s, wall_s),
            "evolve.self_s": self_s(evolves),
            "evolve.steps": steps,
            "evolve.rhs_evals": rhs_evals,
            "evolve.step_us": ratio(self_s(stepped), steps, 1e6),
            "evolve.n_max": max((i["n_max"] for i in info), default=0),
            "evolve.samples": sum(i["samples"] for i in info),
            "evolve.closed_us_per_sample": ratio(self_s(closed), closed_samples, 1e6),
            "evolve.stage_bytes_computed": ratio(stage_bytes, rhs_evals),
            "evolve.trace_dev_max": max((i["trace_dev"] for i in info), default=0.0),
            "evolve.herm_defect_max": max((i["herm_defect"] for i in info), default=0.0),
            "evolve.min_eig": min((i["min_eig"] for i in info), default=0.0),
            "evolve.top_population_max": max((i["top_pop"] for i in info), default=0.0),
            "cli.self_s": self_s([s for s in self.spans if s.layer == "cli"]),
            "fock.s": layer_s("fock"),
            "analysis.s": layer_s("analysis"),
            "analysis.calls": len([s for s in self.spans if s.layer == "analysis"]),
            "closedform.s": layer_s("closedform"),
        }


def _observe_coefficients(info, coeffs):
    info["err_max"] = float(np.max(coeffs.err)) if coeffs.err is not None else 0.0


def _observe_table(info, tables):
    info["taus"] = tables[0].shape[0]


def _observe_trajectory(info, traj):
    if traj.mode == "closed":
        info["path"], info["steps"] = "closed", 0
    else:
        info["path"] = ("lindblad-rwa" if traj.mode == "lindblad-rwa"
                        else traj.frame)
        info["steps"] = round(traj.taus[-1] / traj.dtau) if traj.dtau else 0
    rho = traj.final_rho
    final_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    info.update(
        n_max=traj.n_max,
        samples=int(traj.taus.size),
        trace_dev=float(np.max(np.abs(traj.trace - 1.0))),
        herm_defect=float(np.max(traj.herm_defect)),
        top_pop=float(np.max(traj.top_population)),
        min_eig=min(final_eig, float(np.min(traj.min_eig)))
        if traj.min_eig is not None else final_eig,
    )
