"""Command-line front end: sweeps, cross-checks, artifact emission.

Every command writes two or three files next to a common prefix:

* ``PREFIX.csv``  data rows under a documented header, ``.`` decimal,
  scientific notation with 17 significant digits;
* ``PREFIX.json`` run manifest (schema ``vanhove-lab/1``): the merged
  configuration, package versions, seeds, column documentation, fit
  reports, error summaries, wall time;
* ``PREFIX.svg``  optional plot of the sweep with the fitted asymptote
  overlaid (``--svg`` on sweep commands).

Configuration comes from an optional JSON file (``--config``) whose
keys are the command's option names with underscores; explicit
command-line flags win over the file, which wins over defaults, and a
file value is converted and checked as the same flag would be.  The
manifest re-embeds the merged result, so a run is reproducible from
its own artifacts.  With ``--deterministic`` the wall-time field and
the SVG timestamp are suppressed and identical config plus seeds give
byte-identical CSV and JSON.

Exit codes: 0 success; 2 configuration or validation failure; 3
numerical non-convergence (any row with converged=false, or a
numerical failure mid-run).  Nothing is read from the environment.
"""

from __future__ import annotations

import csv as csv_module
import functools
import json
import math
import platform
import time
from dataclasses import dataclass, field
from html import escape
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

import click
import numpy as np

from . import __version__, bubbles, dispersion, fitlab, geometry, selfenergy
from .errors import SingularDesign, VanHoveLabError, ZeroFrequency
from .matsubara import ThermalState
from .quad import QuadSpec, combine

__all__ = ["main"]


# ---------------------------------------------------------------------------
# formatting and artifact writers
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % int(v)
    if isinstance(v, (float, np.floating)):
        return "%.16e" % float(v)
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(v):
    """Recursively convert to JSON-safe values; non-finite floats to None."""
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if v is None or isinstance(v, str):
        return v
    return str(v)


@functools.lru_cache(maxsize=None)
def _dist_version(name: str) -> str:
    """Installed version, read once: each lookup scans the import path."""
    import importlib.metadata

    return importlib.metadata.version(name)


def _write_manifest(path: Path, command: str, config: dict, columns: dict,
                    results: dict, seeds: dict, wall_time: float,
                    deterministic: bool) -> None:
    manifest = {
        "schema": "vanhove-lab/1",
        "command": command,
        "config": _jsonable(config),
        "versions": {
            "vanhove_lab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "click": _dist_version("click"),
        },
        "seeds": _jsonable(seeds),
        "columns": columns,
        "results": _jsonable(results),
        "wall_time_s": None if deterministic else wall_time,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


@dataclass
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False  # dashed lines carry no markers


@dataclass
class PlotSpec:
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


def _render_svg(path: Path, spec: PlotSpec, deterministic: bool) -> None:
    """Dependency-light sweep plot: axes, ticks, polylines, legend.

    The x axis is logarithmic when every x is positive, linear otherwise.
    """
    W, H = 720, 480
    ml, mr, mt, mb = 84, 24, 44, 58
    xs = np.concatenate([s.x for s in spec.series])
    ys = np.concatenate([s.y for s in spec.series])
    logx = bool(np.all(xs > 0))

    def tx(x):
        return np.log10(x) if logx else x

    ux = tx(xs[np.isfinite(xs)])
    ulo, uhi = float(ux.min()), float(ux.max())
    if uhi <= ulo:
        uhi = ulo + 1.0
    ylo, yhi = float(np.nanmin(ys)), float(np.nanmax(ys))
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return ml + (tx(x) - ulo) / (uhi - ulo) * (W - ml - mr)

    def py(y):
        return H - mb - (y - ylo) / (yhi - ylo) * (H - mt - mb)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">']
    if not deterministic:
        out.append(f"<!-- rendered {time.strftime('%Y-%m-%dT%H:%M:%S')} -->")
    out.append(f'<rect width="{W}" height="{H}" fill="white"/>')
    out.append(f'<text x="{W/2:.1f}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">'
               f'{escape(spec.title, quote=False)}</text>')
    axis = 'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" {axis}/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" {axis}/>')

    if logx:
        for d in range(math.floor(ulo), math.floor(uhi) + 1):
            if d < ulo - 1e-9 or d > uhi + 1e-9:
                continue
            x = px(10.0 ** d)
            out.append(f'<line x1="{x:.2f}" y1="{H-mb}" x2="{x:.2f}" '
                       f'y2="{H-mb+6}" {axis}/>')
            out.append(f'<text x="{x:.2f}" y="{H-mb+22}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="12">1e{d}</text>')
    else:
        for t in np.linspace(ulo, uhi, 5):
            x = px(t)
            out.append(f'<line x1="{x:.2f}" y1="{H-mb}" x2="{x:.2f}" '
                       f'y2="{H-mb+6}" {axis}/>')
            out.append(f'<text x="{x:.2f}" y="{H-mb+22}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="12">{t:.4g}</text>')
    for t in np.linspace(ylo, yhi, 5):
        y = py(t)
        out.append(f'<line x1="{ml-6}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" {axis}/>')
        out.append(f'<text x="{ml-10}" y="{y+4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{t:.4g}</text>')

    out.append(f'<text x="{(ml+W-mr)/2:.1f}" y="{H-12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">'
               f'{escape(spec.xlabel, quote=False)}</text>')
    out.append(f'<text x="20" y="{(mt+H-mb)/2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {(mt+H-mb)/2:.1f})">'
               f'{escape(spec.ylabel, quote=False)}</text>')

    for i, s in enumerate(spec.series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(s.x, s.y) if np.isfinite(y))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        if not s.dashed:
            for x, y in zip(s.x, s.y):
                if np.isfinite(y):
                    out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" '
                               f'r="3" fill="{color}"/>')
        ly = mt + 16 + 16 * i
        out.append(f'<line x1="{W-mr-150}" y1="{ly}" x2="{W-mr-120}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{W-mr-114}" y="{ly+4}" font-family="sans-serif" '
                   f'font-size="12">{escape(s.label, quote=False)}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# config plumbing and the command runner
# ---------------------------------------------------------------------------


def _grid(lo: float, hi: float, points: int, geometric: bool) -> np.ndarray:
    if points < 1:
        raise ValueError("grid needs at least one point")
    if not (lo > 0.0) and geometric:
        raise ValueError("geometric grid needs positive endpoints")
    if points == 1:
        return np.array([lo])
    if hi < lo:
        raise ValueError("grid maximum below minimum")
    return np.geomspace(lo, hi, points) if geometric \
        else np.linspace(lo, hi, points)


def _quad_spec(cfg: dict) -> QuadSpec:
    return QuadSpec(abs_tol=cfg["abs_tol"], rel_tol=cfg["rel_tol"],
                    max_evaluations=cfg["max_evals"])


class Output(NamedTuple):
    """What a command computes: its CSV columns (name -> doc) and rows,
    the manifest results and seeds, and the plot for ``--svg``."""
    columns: dict
    rows: list
    results: dict
    seeds: dict = {}
    plot: Optional[PlotSpec] = None


def _run(ctx: click.Context, cfg: dict,
         compute: Callable[[dict], Output]) -> None:
    """Run ``compute(cfg)``, write its artifacts and exit with its code.

    A configuration or validation error exits 2 and a numerical failure
    3, both before any artifact is written; a run with non-converged
    rows writes its artifacts and exits 3.
    """
    t0 = time.perf_counter()
    try:
        out = compute(cfg)
    except (ValueError, ZeroFrequency, SingularDesign) as e:
        click.echo(f"error: {type(e).__name__}: {e}", err=True)
        ctx.exit(2)
    except VanHoveLabError as e:
        click.echo(f"error: {type(e).__name__}: {e}", err=True)
        ctx.exit(3)
    results = {"non_converged_rows": 0, **out.results}
    # The suffix is appended, so a dotted prefix keeps its own name.
    prefix = cfg["out_prefix"]
    Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(Path(prefix + ".csv"), list(out.columns), out.rows)
    _write_manifest(Path(prefix + ".json"), ctx.command.name, cfg,
                    out.columns, results, out.seeds,
                    time.perf_counter() - t0, cfg["deterministic"])
    if out.plot is not None and cfg.get("svg", False):
        _render_svg(Path(prefix + ".svg"), out.plot, cfg["deterministic"])
    bad = results["non_converged_rows"]
    if bad:
        pieces = ", ".join(results.get("non_converged_pieces", []))
        click.echo(f"non-convergence: {bad} row(s) with converged=false"
                   + (f"; failing pieces: {pieces}" if pieces else ""),
                   err=True)
    ctx.exit(3 if bad else 0)


def _load_config(ctx: click.Context, param: click.Parameter,
                 path: Optional[str]) -> None:
    """Make a JSON config file the defaults of the command's options, so
    that click applies flag > file > default and checks each file value
    as it would the same flag."""
    if path is None:
        return
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise click.BadParameter(f"cannot read config file {path}: {e}")
    if not isinstance(values, dict):
        raise click.BadParameter("config file must hold a JSON object")
    unknown = sorted(set(values) - {p.name for p in ctx.command.params
                                    if p.expose_value})
    if unknown:
        raise click.BadParameter(f"unknown config keys: {', '.join(unknown)}")
    ctx.default_map = values


def _common_options(f):
    f = click.option("--config", type=click.Path(), is_eager=True,
                     expose_value=False, callback=_load_config,
                     help="JSON file of option values; flags override it.")(f)
    f = click.option("--out-prefix", default="run",
                     help="Artifact prefix; writes PREFIX.csv/.json/.svg.")(f)
    f = click.option("--deterministic", is_flag=True, default=False,
                     help="Suppress wall time and SVG timestamp for "
                          "byte-identical artifacts.")(f)
    return f


def _quad_options(abs_tol: float, rel_tol: float, max_evals: int):
    def deco(f):
        f = click.option("--abs-tol", type=float, default=abs_tol,
                         show_default=True,
                         help="Absolute quadrature tolerance.")(f)
        f = click.option("--rel-tol", type=float, default=rel_tol,
                         show_default=True,
                         help="Relative quadrature tolerance.")(f)
        f = click.option("--max-evals", type=int, default=max_evals,
                         show_default=True,
                         help="Integrand evaluation budget per integral.")(f)
        return f
    return deco


def _grid_options(var: str, noun: str, lo: float, hi: float, points: int):
    """The ``--VAR-min/-max/-points`` grid of a sweep and its spacing."""
    def deco(f):
        f = click.option(f"--{var}-min", type=float, default=lo,
                         show_default=True,
                         help=f"Smallest {noun} in the sweep.")(f)
        f = click.option(f"--{var}-max", type=float, default=hi,
                         show_default=True,
                         help=f"Largest {noun} in the sweep.")(f)
        f = click.option(f"--{var}-points", type=int, default=points,
                         show_default=True, help="Number of sweep points.")(f)
        f = click.option("--geometric/--linear", "geometric", default=True,
                         show_default=True,
                         help="Spacing of the sweep grid.")(f)
        return f
    return deco


def _svg_option(f):
    return click.option("--svg", is_flag=True, default=False,
                        help="Also write PREFIX.svg with the sweep plot.")(f)


def _model_options(f):
    """The band of a geometry command (``_model_from``)."""
    f = click.option("--mu", type=float, default=0.0, show_default=True,
                     help="Chemical potential measured from the Van Hove "
                          "level (hubbard model).")(f)
    f = click.option("--theta", type=float, default=0.3, show_default=True,
                     help="Next-neighbor hopping ratio (hubbard model).")(f)
    return click.option("--model", type=click.Choice(["hubbard", "xy"]),
                        default="hubbard", show_default=True,
                        help="Band: the hubbard saddle band or e = k1 k2.")(f)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------

_QUAD_COLUMNS = {
    "error_estimate": "quadrature error estimate",
    "evaluations": "integrand evaluations used",
    "converged": "quadrature met its tolerance",
}


def _quad_cells(p) -> tuple:
    return (p.error_estimate, p.evaluations, p.converged)


_PIECE_FIELDS = ("error_estimate", "evaluations", "converged", "rounds",
                 "leaves", "frozen")


def _quad_summary(points: list) -> dict:
    """Error and convergence over the rows; for results summed from pieces,
    also each row's accounting of every piece and the failing names."""
    results = {"max_error_estimate": max(p.error_estimate for p in points),
               "non_converged_rows": sum(not p.converged for p in points)}
    if any(p.pieces for p in points):
        results["pieces"] = [
            {name: {k: getattr(r, k) for k in _PIECE_FIELDS}
             for name, r in p.pieces.items()} for p in points]
        results["non_converged_pieces"] = sorted(
            {name for p in points for name, r in p.pieces.items()
             if not r.converged})
    return results


def _sweep(cfg: dict, var: str, setup: Callable, title: str, ylabel: str,
           series: Sequence[tuple] = (("sweep", 1, False),),
           fit: bool = False, summary: Callable = _quad_summary) -> Output:
    """A sweep over the grid of ``var``.

    ``setup(cfg)`` returns ``(point, row, columns)``: the function of one
    grid value, the CSV row of a grid value and its result, and the column
    docs.  ``summary(points)`` gives the manifest results.  The plot draws
    the row columns named by ``series`` as ``(label, index, dashed)``
    against the grid.  With ``fit``, five or more rows and grid values
    that are positive and pairwise distinct, column 1 gets an
    a (ln x)^2 + b ln x + c fit, in the manifest and the plot.
    """
    grid = _grid(cfg[f"{var}_min"], cfg[f"{var}_max"],
                 cfg[f"{var}_points"], cfg["geometric"])
    point, row, columns = setup(cfg)
    points = [point(x) for x in grid]
    rows = [row(x, p) for x, p in zip(grid, points)]
    results = summary(points)
    plot = PlotSpec(title=title, xlabel=var, ylabel=ylabel, series=[
        Series(label, grid, np.array([r[i] for r in rows]), dashed)
        for label, i, dashed in series])
    if (fit and len(rows) >= 5 and grid.min() > 0
            and len(np.unique(grid)) == len(grid)):
        report = fitlab.fit_log_square([(r[0], r[1]) for r in rows])
        results["fit"] = report.to_dict()
        dense = np.geomspace(grid[0], grid[-1], 200)
        plot.series.append(Series("fit", dense, report.predict(dense),
                                  dashed=True))
    return Output(columns, rows, results, plot=plot)


# ---------------------------------------------------------------------------
# the command group
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__, prog_name="vanhove-lab")
def main() -> None:
    """Numerical laboratory for a two-dimensional fermion system whose
    Fermi surface carries a Van Hove saddle: second-order self-energy
    sweeps, one-loop bubbles, Fermi-surface geometry experiments, and
    log-polynomial asymptote fits.

    Commands write PREFIX.csv (data, documented header), PREFIX.json
    (manifest, schema vanhove-lab/1) and optionally PREFIX.svg.  Exit
    codes: 0 success, 2 invalid configuration, 3 numerical
    non-convergence.
    """


@main.command("sigma2")
@_common_options
@_grid_options("q0", "frequency", 0.3, 0.3, 1)
@click.option("--q", nargs=2, type=float, default=(0.0, 0.0), show_default=True,
              help="Momentum measured from the saddle.")
@click.option("--beta", type=float, default=8.0, show_default=True,
              help="Inverse temperature.")
@_quad_options(2e-3, 2e-3, 2_000_000)
@_svg_option
@click.pass_context
def cmd_sigma2(ctx, **cfg):
    """Second-order self-energy by direct 4D quadrature, swept over q0.

    Columns: q0, re_value, im_value, error_estimate, evaluations,
    converged.
    """
    def setup(cfg: dict):
        state = ThermalState.finite(cfg["beta"])
        spec = _quad_spec(cfg)
        return (lambda q0: selfenergy.sigma2(q0, cfg["q"], state, spec),
                lambda q0, p: (q0, p.value.real, p.value.imag)
                + _quad_cells(p),
                {"q0": "external frequency",
                 "re_value": "real part of the self-energy",
                 "im_value": "imaginary part of the self-energy",
                 **_QUAD_COLUMNS})

    _run(ctx, cfg, lambda cfg: _sweep(
        cfg, "q0", setup, "second-order self-energy at fixed momentum",
        "value", series=(("re", 1, False), ("im", 2, False))))


@main.command("dsigma-domega")
@_common_options
@_grid_options("q0", "frequency", 1e-6, 1e-2, 9)
@click.option("--method", type=click.Choice(["reduced", "orthant4d", "cube4d"]),
              default="reduced", show_default=True,
              help="Evaluation route for the frequency derivative.")
@_quad_options(1e-8, 1e-8, 4_000_000)
@_svg_option
@click.pass_context
def cmd_dsigma_domega(ctx, **cfg):
    """Imaginary part of the frequency derivative of the self-energy at
    the saddle, swept over q0, with an a (ln q0)^2 + b ln q0 + c fit.

    Columns: q0, value, error_estimate, evaluations, converged.
    """
    def setup(cfg: dict):
        spec = _quad_spec(cfg)
        return (lambda q0: selfenergy.im_d0_sigma2(q0, spec,
                                                   method=cfg["method"]),
                lambda q0, p: (q0, p.value.real) + _quad_cells(p),
                {"q0": "external frequency",
                 "value": "imaginary part of the frequency derivative",
                 **_QUAD_COLUMNS})

    _run(ctx, cfg, lambda cfg: _sweep(
        cfg, "q0", setup, "frequency derivative at the saddle", "Im d/dq0",
        fit=True))


def _grad_check(cfg: dict) -> Output:
    if not cfg["betas"]:
        raise ValueError("need at least one --beta")
    spec = _quad_spec(cfg)
    out = [(beta, selfenergy.grad_sigma2_at_vh(
                cfg["q0"], ThermalState.finite(beta), spec))
           for beta in cfg["betas"]]
    both = [combine(gx, gy) for _, (gx, gy) in out]
    rows = [(beta, cfg["q0"], gx.value.real, gx.value.imag,
             gy.value.real, gy.value.imag, gx.error_estimate,
             gy.error_estimate, g.evaluations, g.converged)
            for (beta, (gx, gy)), g in zip(out, both)]
    columns = {
        "beta": "inverse temperature",
        "q0": "external frequency",
        "re_g1": "real part, first momentum component",
        "im_g1": "imaginary part, first momentum component",
        "re_g2": "real part, second momentum component",
        "im_g2": "imaginary part, second momentum component",
        "error_1": "error estimate, first component",
        "error_2": "error estimate, second component",
        "evaluations": "integrand evaluations used",
        "converged": "quadrature met its tolerance",
    }
    comps = [g for _, pair in out for g in pair]
    max_abs = max(abs(g.value) for g in comps)
    max_err = max(g.error_estimate for g in comps)
    results = {
        "max_abs_component": max_abs,
        "max_error_estimate": max_err,
        "zero_within_10_sigma": bool(max_abs <= 10.0 * max(max_err, 1e-300)),
        "non_converged_rows": sum(not g.converged for g in both),
    }
    return Output(columns, rows, results)


@main.command("grad-check")
@_common_options
@click.option("--q0", type=float, default=0.1, show_default=True,
              help="External frequency.")
@click.option("--beta", "betas", type=float, multiple=True,
              default=(2.0, 8.0, 32.0), show_default=True,
              help="Inverse temperatures (repeatable).")
@_quad_options(5e-5, 5e-5, 4_000_000)
@click.pass_context
def cmd_grad_check(ctx, **cfg):
    """Momentum gradient of the self-energy at the saddle; it must
    vanish by reflection symmetry at every temperature.

    Columns: beta, q0, re_g1, im_g1, re_g2, im_g2, error_1, error_2,
    evaluations, converged.
    """
    _run(ctx, cfg, _grad_check)


@main.command("d2-xieta")
@_common_options
@_grid_options("q0", "frequency", 1e-5, 1e-2, 9)
@click.option("--zeta12-method", type=click.Choice(["reduced", "zform"]),
              default="reduced", show_default=True,
              help="Route for the boundary-bracket piece.")
@_quad_options(1e-8, 1e-8, 4_000_000)
@_svg_option
@click.pass_context
def cmd_d2_xieta(ctx, **cfg):
    """Mixed second momentum derivative at the saddle, zero
    temperature, swept over q0, with log-polynomial fit.

    Columns: q0, value, zeta11, zeta12, error_estimate, evaluations,
    converged.
    """
    def setup(cfg: dict):
        spec = _quad_spec(cfg)
        return (lambda q0: selfenergy.d2_sigma2_xi_eta(
                    q0, spec, zeta12_method=cfg["zeta12_method"]),
                lambda q0, p: (q0, p.value.real, p.pieces["zeta11"].value,
                               p.pieces["zeta12"].value) + _quad_cells(p),
                {"q0": "external frequency",
                 "value": "mixed second derivative (real)",
                 "zeta11": "interior piece",
                 "zeta12": "boundary piece",
                 **_QUAD_COLUMNS})

    _run(ctx, cfg, lambda cfg: _sweep(
        cfg, "q0", setup, "mixed second derivative at the saddle", "value",
        fit=True))


@main.command("d2-xixi")
@_common_options
@_grid_options("q0", "frequency", 1e-5, 1e-2, 9)
@click.option("--with-imaginary", is_flag=True, default=False,
              help="Also assemble the imaginary-part pieces "
                   "(adds columns).")
@_quad_options(1e-8, 1e-8, 4_000_000)
@_svg_option
@click.pass_context
def cmd_d2_xixi(ctx, **cfg):
    """Pure second momentum derivative profile at the saddle, zero
    temperature, swept over q0, with log-polynomial fit.

    Columns: q0, value, b0_term, i20_term, error_estimate, evaluations,
    converged; --with-imaginary appends im_value, im_x1, im_i20, im_x3.
    """
    def setup(cfg: dict):
        spec = _quad_spec(cfg)
        with_im = cfg["with_imaginary"]
        columns = {
            "q0": "external frequency",
            "value": "assembled bounded-growth profile (real)",
            "b0_term": "closed-form boundary piece",
            "i20_term": "real interior piece, -b0_term/2 in closed form",
            **_QUAD_COLUMNS,
        }
        if with_im:
            columns.update({
                "im_value": "imaginary part of the derivative",
                "im_x1": "triple-pole piece",
                "im_i20": "interior piece, imaginary part",
                "im_x3": "double-pole boundary piece",
            })

        def row(q0, p) -> tuple:
            cells = (q0, p.value.real, p.pieces["b0"].value,
                     p.pieces["re_i20"].value) + _quad_cells(p)
            if with_im:
                cells += (p.value.imag,) + tuple(
                    p.pieces[name].value.imag
                    for name in ("im_x1", "im_i20", "im_x3"))
            return cells

        return (lambda q0: selfenergy.d2_sigma2_xi_xi(
                    q0, spec, include_imaginary=with_im), row, columns)

    _run(ctx, cfg, lambda cfg: _sweep(
        cfg, "q0", setup, "pure second derivative profile at the saddle",
        "value", fit=True))


def _bubble_sweep(ctx: click.Context, cfg: dict, kind: str) -> None:
    def setup(cfg: dict):
        return (lambda beta: bubbles.bubble_result(kind, beta),
                lambda beta, r: (r.kind, beta, r.value,
                                 r.asymptotic_prediction, r.residual),
                {"kind": "bubble channel (ph or pp)",
                 "beta": "inverse temperature",
                 "value": "exact 1D-reduced bubble value",
                 "prediction": "large-beta asymptotic prediction",
                 "residual": "value minus prediction"})

    def summary(points: list) -> dict:
        return {"K": bubbles.k_constant(),
                "K_prime": bubbles.k_prime_constant(),
                "max_abs_residual": max(abs(r.residual) for r in points)}

    _run(ctx, cfg, lambda cfg: _sweep(
        cfg, "beta", setup, f"{kind} bubble against asymptotic prediction",
        "value", series=(("value", 2, False), ("prediction", 3, True)),
        summary=summary))


@main.command("bubble-ph")
@_common_options
@_grid_options("beta", "inverse temperature", 10.0, 80.0, 4)
@_svg_option
@click.pass_context
def cmd_bubble_ph(ctx, **cfg):
    """Density-channel bubble over a beta grid, next to its
    -2 ln(beta) + 2K prediction.

    Columns: kind, beta, value, prediction, residual.
    """
    _bubble_sweep(ctx, cfg, "ph")


@main.command("bubble-pp")
@_common_options
@_grid_options("beta", "inverse temperature", 10.0, 80.0, 4)
@_svg_option
@click.pass_context
def cmd_bubble_pp(ctx, **cfg):
    """Pairing-channel bubble over a beta grid, next to its
    (ln beta)^2 - 2K ln(beta) + K' prediction.

    Columns: kind, beta, value, prediction, residual.
    """
    _bubble_sweep(ctx, cfg, "pp")


def _model_from(cfg: dict) -> dispersion.DispersionModel:
    if cfg["model"] == "hubbard":
        return dispersion.DispersionModel.hubbard(cfg["theta"], cfg["mu"])
    return dispersion.DispersionModel.xy()


def _overlap(cfg: dict) -> Output:
    if cfg["j_min"] >= 0:
        raise ValueError("--j-min must be negative")
    model = _model_from(cfg)
    j_range = list(range(-1, cfg["j_min"] - 1, -1))
    report = geometry.overlap_scaling_experiment(
        model, M=cfg["m_scale"], j_range=j_range, num_p=cfg["num_p"],
        delta=cfg["delta"], rng_seed=cfg["seed"])
    columns = {
        "p_x": "translation momentum, first component",
        "p_y": "translation momentum, second component",
        "j": "threshold exponent; threshold is M^j",
        "length": "measured overlap arc length",
        "length_error": "bound on the length's error",
        "bound": "scaling bound (M^j/delta)^(1/n0); asymptotic, so it "
                 "holds only for small M^j",
        "violated": "length exceeds the bound",
    }
    results = {
        "total_curve_length": report.total_curve_length,
        "step": report.step,
        "n0": report.n0,
        "fitted_exponent": report.fitted_exponent,
        "violation_fraction_per_j": report.violation_fraction,
    }
    return Output(columns, list(report.rows()), results,
                  {"rng_seed": cfg["seed"]})


@main.command("overlap")
@_common_options
@_model_options
@click.option("--scale", "m_scale", type=float, default=2.0, show_default=True,
              help="Threshold scale M; thresholds are M^j.")
@click.option("--j-min", type=int, default=-6, show_default=True,
              help="Most negative threshold exponent; sweep is -1..j_min.")
@click.option("--num-p", type=int, default=40, show_default=True,
              help="Number of random translation momenta.")
@click.option("--delta", type=float, default=0.1, show_default=True,
              help="Distance floor entering the length bound.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="RNG seed for the translation samples.")
@click.pass_context
def cmd_overlap(ctx, **cfg):
    """Length-of-overlap scaling experiment: arc length of the Fermi
    curve where the translated dispersion stays within M^j, with its
    error bound, against the (M^j / delta)^(1/n0) bound.  The curve is
    even, so translating it by -p gives the same lengths.

    The bound is asymptotic: it holds as M^j goes to 0, outside a
    fraction of about delta^2 of the momenta.  The default window
    (j = -1 .. -6) starts at M^j = 1/2, far from that regime, so violation
    fractions from 1.0 down to 0.3 are expected there.  With
    --j-min -12 --num-p 500 they fall to 0.004 at j = -12.

    Columns: p_x, p_y, j, length, length_error, bound, violated.
    """
    _run(ctx, cfg, _overlap)


def _normal_form(cfg: dict) -> Output:
    model = _model_from(cfg)
    saddles = dispersion.find_singular_points(model)
    if not saddles:
        raise ValueError("no saddle points found for this model")
    rows = []
    worst = 0.0
    for p in saddles:
        nf = dispersion.morse_normal_form(model, p, radius=cfg["radius"])
        worst = max(worst, nf.max_residual)
        rows.append((p.location[0], p.location[1],
                     p.hessian_eigenvalues[0], p.hessian_eigenvalues[1],
                     -1 if nf.nu1 is None else nf.nu1,
                     -1 if nf.nu2 is None else nf.nu2,
                     nf.radius, nf.max_residual, nf.a_min, nf.a_max))
    columns = {
        "k1": "saddle location, first component",
        "k2": "saddle location, second component",
        "lambda1": "Hessian eigenvalue",
        "lambda2": "Hessian eigenvalue",
        "nu1": "branch tangency order, first factor (-1: linear)",
        "nu2": "branch tangency order, second factor (-1: linear)",
        "radius": "patch half-width used",
        "max_residual": "largest |e| at the computed branch points",
        "a_min": "least |a| = |e / (P1 P2)| at the patch's cell midpoints",
        "a_max": "largest |a| = |e / (P1 P2)| at the patch's cell midpoints",
    }
    return Output(columns, rows, {"num_saddles": len(rows),
                                  "max_residual": worst})


@main.command("normal-form")
@_common_options
@_model_options
@click.option("--radius", type=float, default=0.1, show_default=True,
              help="Half-width of the factorization patch.")
@click.pass_context
def cmd_normal_form(ctx, **cfg):
    """Saddle points of the dispersion and their product normal forms
    e = a(k) (k1 - k2^nu1 b)(k2 - k1^nu2 c) on a patch.  The branches are
    root-found where they are used and a = e / (P1 P2) is taken exactly at
    the patch's 40 x 40 cell midpoints; nothing is interpolated.
    max_residual is the largest |e| at the branch points, a_min and a_max
    the range of |a|.

    Columns: k1, k2, lambda1, lambda2, nu1, nu2, radius, max_residual,
    a_min, a_max.
    """
    _run(ctx, cfg, _normal_form)


def _interval_corpus(seed: int, per_k: int):
    """Deterministic polynomial corpus satisfying the derivative bound.

    Each entry fixes the k-th derivative to a quadratic s (A + B u +
    C u^2) with A - |B| - |C| >= 1, so s times that margin is a valid
    eta, then integrates k times with bounded random constants.
    """
    from numpy.polynomial import Polynomial

    rng = np.random.default_rng(seed)
    corpus = []
    ident = 0
    for k in (1, 2, 3):
        for _ in range(per_k):
            s = 10.0 ** rng.uniform(-1.0, 1.0)
            A = 1.5 + rng.uniform(0.0, 1.0)
            B = rng.uniform(-0.25, 0.25)
            C = rng.uniform(-0.25, 0.25)
            g = Polynomial([A * s, B * s, C * s])
            eta = s * (A - abs(B) - abs(C)) * 0.999
            f = g.integ(k, k=list(rng.uniform(-1.0, 1.0, size=k)))
            eps = eta * 10.0 ** rng.uniform(-3.0, -1.0)
            corpus.append((ident, k, eta, eps, f))
            ident += 1
    return corpus


def _interval_check(cfg: dict) -> Output:
    if cfg["per_k"] < 1:
        raise ValueError("--per-k must be positive")
    rows = []
    for ident, k, eta, eps, f in _interval_corpus(cfg["seed"], cfg["per_k"]):
        r = geometry.interval_lemma_check(f, k, eta, eps)
        rows.append((ident, k, eta, eps, r.measured_volume, r.bound, r.holds))
    columns = {
        "poly_id": "corpus index",
        "k": "derivative order with the lower bound",
        "eta": "derivative lower bound",
        "eps": "sublevel threshold",
        "measured_volume": "measured |{x : |f(x)| <= eps}|",
        "bound": "2^(k+1) (eps/eta)^(1/k)",
        "holds": "measured volume within the bound",
    }
    results = {"rows": len(rows), "all_hold": bool(all(r[6] for r in rows))}
    return Output(columns, rows, results, {"rng_seed": cfg["seed"]})


@main.command("interval-check")
@_common_options
@click.option("--per-k", type=int, default=25, show_default=True,
              help="Corpus polynomials per derivative order k in {1,2,3}.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="RNG seed for the corpus.")
@click.pass_context
def cmd_interval_check(ctx, **cfg):
    """Sublevel-set measure against the derivative-bound estimate
    2^(k+1) (eps/eta)^(1/k) on a bundled polynomial corpus.  The measure
    comes from the roots of f - eps and f + eps, and the hypothesis
    |f^(k)| >= eta is checked at the ends and the roots of f^(k) and
    f^(k+1).

    Columns: poly_id, k, eta, eps, measured_volume, bound, holds.
    """
    _run(ctx, cfg, _interval_check)


def _fit(cfg: dict) -> Output:
    path = Path(cfg["input_path"])
    if not path.exists():
        raise ValueError(f"input file {path} does not exist")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv_module.DictReader(fh)
        fields = reader.fieldnames or []
        for name in (cfg["x_column"], cfg["y_column"]):
            if name not in fields:
                raise ValueError(
                    f"column {name!r} not in input header {fields}")
        try:
            samples = [(float(rec[cfg["x_column"]]),
                        float(rec[cfg["y_column"]])) for rec in reader]
        except (TypeError, KeyError):
            raise ValueError("input rows are ragged")

    fit = fitlab.fit_log_square(samples)
    samples.sort()
    rows = [(x, y, float(fit.predict(x)), y - float(fit.predict(x)))
            for x, y in samples]
    columns = {
        "x": "swept variable",
        "y": "input values",
        "fitted": "fit evaluated at x",
        "residual": "y minus fitted",
    }
    x = np.array([r[0] for r in rows])
    dense = np.geomspace(x.min(), x.max(), 200)
    plot = PlotSpec(title="log-polynomial fit", xlabel=cfg["x_column"],
                    ylabel=cfg["y_column"], series=[
                        Series("data", x, np.array([r[1] for r in rows])),
                        Series("fit", dense, fit.predict(dense), dashed=True)])
    return Output(columns, rows, {"fit": fit.to_dict()}, plot=plot)


@main.command("fit")
@_common_options
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="CSV file holding the sweep to fit.")
@click.option("--x-column", default="q0", show_default=True,
              help="Header name of the swept variable.")
@click.option("--y-column", default="value", show_default=True,
              help="Header name of the fitted quantity.")
@_svg_option
@click.pass_context
def cmd_fit(ctx, **cfg):
    """Fit a (ln x)^2 + b ln x + c to two columns of an existing CSV.

    Columns: x, y, fitted, residual.
    """
    _run(ctx, cfg, _fit)


if __name__ == "__main__":
    main()
