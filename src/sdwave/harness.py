"""Experiment drivers: coefficient generation, the three studies, CSV/SVG output."""

import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass, fields
from xml.etree import ElementTree

import numpy as np

from .assembly import CoefficientField, DiscreteForms
from .evolution import (fine_fem_solve, galerkin_wave_solve, ideal_gfem_solve,
                        localized_gfem_solve, rel_h1_final, rel_l2h1, transient_horizon)
from .lod import (CorrectorConfig, build_corrector_set, cache_key, load_corrector_cache,
                  save_corrector_cache, transients_for_all_nodes)
from .mesh import Mesh, NestedMeshPair, prolongation
from .rb import node_reductions, rb_gfem_solve

log = logging.getLogger("sdwave")

CSV_HEADER = "param,rel_h1_final,rel_l2h1,runtime_s,method"
LAWS = ("uniform", "loguniform")
SCALES = ("desk", "paper")


@dataclass
class ExperimentConfig:
    p: int = 6                    # fine mesh width h = 2^-p
    q: int = 4                    # coarse mesh width H = 2^-q (max q for exp-H)
    kmax: int = 6
    tau: float = 0.02
    T: float = 1.0
    seed: int = 1
    lo: float = 1e-1
    hi: float = 1e3
    law: str = "loguniform"
    block: int = 0                # 0: one value per fine element
    M: tuple = (1, 5, 10, 15)
    scale: str = "desk"
    out: str = "out"
    svg: bool = False
    cache: str = None

    def __post_init__(self):
        for name in ("p", "q", "kmax", "seed", "block"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if not isinstance(self.M, (list, tuple)) or not all(
                isinstance(m, numbers.Integral) and not isinstance(m, bool) for m in self.M):
            raise ValueError("M must be a list of integers, got %r" % (self.M,))
        self.M = tuple(int(m) for m in self.M)
        for name in ("tau", "T", "lo", "hi"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError("%s must be a finite real number, got %r" % (name, value))
        if not isinstance(self.svg, bool):
            raise ValueError("svg must be true or false, got %r" % (self.svg,))
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError("out must be a path, got %r" % (self.out,))
        if not isinstance(self.cache, (type(None), str, os.PathLike)):
            raise ValueError("cache must be a path or null, got %r" % (self.cache,))
        if self.p < self.q or self.q < 1:
            raise ValueError("need p >= q >= 1")
        if self.lo <= 0 or self.lo >= self.hi:
            raise ValueError("coefficient range must satisfy 0 < lo < hi")
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if not self.M or min(self.M) < 1 or len(set(self.M)) < len(self.M):
            raise ValueError("snapshot counts M must be >= 1 and distinct, got %r" % (self.M,))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %r" % (self.seed,))
        if self.kmax < 2:
            raise ValueError("kmax must be >= 2: the patch sweep starts at k = 2")
        if not self.block >= 0:
            raise ValueError("block must be >= 0 (0: one value per fine element)")
        if self.law not in LAWS:
            raise ValueError("law must be one of %s, got %r" % (LAWS, self.law))
        steps = self.T / self.tau
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * abs(steps)):
            raise ValueError("T = %r is not a whole number of time steps tau = %r"
                             % (self.T, self.tau))
        if round(steps) < 2:
            raise ValueError("T / tau must be at least 2 time steps")

    @property
    def n_steps(self):
        return int(round(self.T / self.tau))


def scale_preset(experiment, scale):
    """Mesh presets per experiment; 'paper' uses the published problem sizes."""
    desk = {"exp-k": dict(p=6, q=4, kmax=6),
            "exp-H": dict(p=6, q=5),
            "exp-rb": dict(p=6, q=5, M=(1, 5, 10, 15, 50))}
    paper = {"exp-k": dict(p=7, q=4, kmax=7),
             "exp-H": dict(p=8, q=5),
             "exp-rb": dict(p=8, q=5, M=(1, 5, 10, 15, 50))}
    if scale not in SCALES:
        raise ValueError("scale must be one of %s, got %r" % (SCALES, scale))
    return dict(zip(SCALES, (desk, paper)))[scale][experiment]


def config_from_sources(experiment, json_path=None, overrides=None):
    """Defaults, then scale preset, then JSON file, then explicit overrides."""
    values = {}
    file_values = {}
    if json_path:
        with open(json_path) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file %s must hold a JSON object, got %s"
                             % (json_path, type(file_values).__name__))
    scale = (overrides or {}).get("scale") or file_values.get("scale") or "desk"
    values.update(scale_preset(experiment, scale))
    values.update(file_values)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    values["scale"] = scale
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    return ExperimentConfig(**values)


def random_field(mesh, lo, hi, seed, law="loguniform", block=0):
    """Seeded random coefficient, constant per fine element or per cell block."""
    if not (0 < lo < hi):
        raise ValueError("coefficient range must satisfy 0 < lo < hi")
    if law not in LAWS:
        raise ValueError("law must be one of %s, got %r" % (LAWS, law))
    rng = np.random.default_rng(seed)

    def draw(size):
        if law == "uniform":
            return rng.uniform(lo, hi, size)
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    n = mesh.n
    if block <= 0:
        values = draw(mesh.n_elements)
    else:
        nb = -(-n // block)
        per_block = draw(nb * nb).reshape(nb, nb)
        cell = np.arange(n * n)
        ci = (cell % n) // block
        cj = (cell // n) // block
        per_cell = per_block[cj, ci]
        values = np.repeat(per_cell, 2)
    return CoefficientField(mesh, values)


def _forms(cfg, q):
    """The forms of coarse level q: mesh pair, seeded coefficients, step cfg.tau."""
    pair = NestedMeshPair(Mesh(2 ** q), 2 ** (cfg.p - q))
    field_a = random_field(pair.fine, cfg.lo, cfg.hi, cfg.seed, cfg.law, cfg.block)
    field_b = random_field(pair.fine, cfg.lo, cfg.hi, cfg.seed + 1, cfg.law, cfg.block)
    return DiscreteForms(pair, field_a, field_b, cfg.tau)


def _counters():
    """A run's counters: cache hits and misses, the saddle solves spent on
    transient sequences, the worst certified bound of one and the rows the
    sequences store (lod.TransientCorrectors, or exp-rb's rb.NodeReduction). The
    bound and the rows count the sequences a run used, built or read from
    the cache."""
    return {"cache_hits": 0, "cache_misses": 0, "transient_solves": 0,
            "transient_bound": 0.0, "transient_rows": 0}


def _count_sequences(counters, seq):
    counters["transient_solves"] += sum(tc.solves for tc in seq.values())
    counters["transient_bound"] = max([counters["transient_bound"]]
                                      + [tc.bound for tc in seq.values()])
    counters["transient_rows"] += sum(tc.xi.shape[0] for tc in seq.values())


def _corrector_pipeline(cfg, forms, k, form_choice, counters, transients=True):
    """Correctors (and, if transients, certified sequences) with optional
    disk caching; a file of the set alone is a hit for the set, whose
    sequences are then built on it and written into the file, and a call
    without sequences reads no sequence of a file."""
    config = CorrectorConfig(k=k, form_choice=form_choice)
    horizon = transient_horizon(cfg.n_steps)
    key = cache_key(forms, config, horizon)
    cached = (load_corrector_cache(cfg.cache, key, forms, config, horizon, transients)
              if cfg.cache else None)
    if cached is None:
        counters["cache_misses"] += 1
        correctors, seq = build_corrector_set(forms, config), None
    else:
        counters["cache_hits"] += 1
        correctors, seq = cached
    built = transients and seq is None
    if built:
        seq = transients_for_all_nodes(correctors, horizon)
    if transients:
        _count_sequences(counters, seq)
    if cfg.cache and (cached is None or built):
        save_corrector_cache(cfg.cache, key, correctors, seq)
    return correctors, seq


def _row(forms, reference, param, method, trajectory, tic):
    """The CSV row of trajectory: its errors against reference, then the
    seconds since tic, read after the error norms. rel_l2h1 reads the states
    in step order, so a localized trajectory fills each window once and
    still holds its last window when rel_h1_final reads the final state."""
    l2h1 = rel_l2h1(forms, trajectory, reference)
    return {
        "param": param,
        "rel_h1_final": rel_h1_final(forms, trajectory, reference),
        "rel_l2h1": l2h1,
        "runtime_s": time.perf_counter() - tic,
        "method": method,
    }


def run_exp_k(cfg):
    """Localization error against the ideal method as the patch size grows.
    The ideal reference builds its basis on its own global saddle
    factorization, so only the patch sizes k = 2 .. kmax are cached."""
    started = time.perf_counter()
    counters = _counters()
    forms = _forms(cfg, cfg.q)
    zeros = np.zeros(forms.pair.coarse.n_dofs)

    reference = ideal_gfem_solve(forms, 1.0, cfg.n_steps, zeros, zeros)

    rows = []
    for k in range(2, cfg.kmax + 1):
        rows.append(_exp_k_row(cfg, forms, k, reference, counters))
        log.info("exp-k k=%d rel_h1=%.3e", k, rows[-1]["rel_h1_final"])
    meta = dict(counters, wall_s=time.perf_counter() - started)
    return rows, meta


def _exp_k_row(cfg, forms, k, reference, counters):
    """The exp-k row of patch size k; its correctors and sequences are freed on
    return, before the next patch size loads its own."""
    tic = time.perf_counter()
    zeros = np.zeros(forms.pair.coarse.n_dofs)
    correctors, seq = _corrector_pipeline(cfg, forms, k, "a_plus_tau_b", counters)
    trajectory = localized_gfem_solve(correctors, seq, 1.0, cfg.n_steps, zeros, zeros)
    return _row(forms, reference, k, "gfem_k", trajectory, tic)


def run_exp_H(cfg):
    """Errors against the fine FEM reference over the coarse mesh sweep."""
    if cfg.q < 2:
        raise ValueError("exp-H sweeps q = 2 .. q, so q must be >= 2, got %d" % cfg.q)
    started = time.perf_counter()
    counters = _counters()
    rows = []

    # the reference's forms are also the sweep's last, at q = cfg.q
    fine_forms = _forms(cfg, cfg.q)
    reference = fine_fem_solve(fine_forms, 1.0, np.zeros(fine_forms.fine.n_dofs),
                               np.zeros(fine_forms.fine.n_dofs), cfg.n_steps)

    for q in range(2, cfg.q + 1):
        rows += _exp_H_level(cfg, q, fine_forms, reference, counters)
    meta = dict(counters, wall_s=time.perf_counter() - started)
    return rows, meta


def _exp_H_level(cfg, q, fine_forms, reference, counters):
    """The exp-H rows of coarse level q; its forms, correctors and sequences
    are freed on return, before the next level loads its own."""
    forms = fine_forms if q == cfg.q else _forms(cfg, q)
    zeros = np.zeros(forms.pair.coarse.n_dofs)
    k = q  # k = log2(1/H)
    param = 2 ** q
    rows = []

    tic = time.perf_counter()
    correctors, seq = _corrector_pipeline(cfg, forms, k, "a_plus_tau_b", counters)
    trajectory = localized_gfem_solve(correctors, seq, 1.0, cfg.n_steps, zeros, zeros)
    rows.append(_row(forms, reference, param, "gfem", trajectory, tic))

    tic = time.perf_counter()
    trajectory = galerkin_wave_solve(prolongation(forms.pair), forms, 1.0, cfg.n_steps,
                                     zeros, zeros)
    rows.append(_row(forms, reference, param, "fem", trajectory, tic))

    for choice, method in (("a_only", "lod_a"), ("b_only", "lod_b")):
        tic = time.perf_counter()
        single, _ = _corrector_pipeline(cfg, forms, k, choice, counters, transients=False)
        trajectory = galerkin_wave_solve(single.Q, forms, 1.0, cfg.n_steps, zeros, zeros)
        rows.append(_row(forms, reference, param, method, trajectory, tic))
    for row in rows:
        log.info("exp-H 1/H=%d %s rel_h1=%.3e", param, row["method"],
                 row["rel_h1_final"])
    return rows


def run_exp_rb(cfg):
    """Gap between the reduced-basis run and the plain localized method."""
    started = time.perf_counter()
    counters = _counters()
    forms = _forms(cfg, cfg.q)
    zeros = np.zeros(forms.pair.coarse.n_dofs)
    k, horizon = cfg.q, transient_horizon(cfg.n_steps)

    # only the corrector set is cached; each node's power iterates (build_rb amplifies their
    # round-off) and its basis from max(M) of them, which each M cuts, are built every run
    correctors, _ = _corrector_pipeline(cfg, forms, k, "a_plus_tau_b", counters,
                                        transients=False)
    nodes = node_reductions(correctors, horizon, cfg.M)
    counters["transient_solves"] += sum(node.solves for node in nodes.values())
    counters["transient_rows"] += sum(node.horizon for node in nodes.values())
    reference = rb_gfem_solve(correctors, nodes, 1.0, cfg.n_steps, zeros, zeros, horizon)
    rows = []
    for m in cfg.M:
        rows.append(_exp_rb_row(cfg, forms, correctors, nodes, m, reference))
        log.info("exp-rb M=%d gap=%.3e", m, rows[-1]["rel_h1_final"])
    meta = dict(counters, wall_s=time.perf_counter() - started)
    return rows, meta


def _exp_rb_row(cfg, forms, correctors, nodes, m, reference):
    """The exp-rb row of m snapshots; from m = horizon on its trajectory is the
    reference. A reduced trajectory, and the bands it holds, are freed on
    return, before the next row's solve."""
    tic = time.perf_counter()
    zeros = np.zeros(forms.pair.coarse.n_dofs)
    trajectory = (reference if m >= transient_horizon(cfg.n_steps) else
                  rb_gfem_solve(correctors, nodes, 1.0, cfg.n_steps, zeros, zeros, m))
    return _row(forms, reference, m, "rb", trajectory, tic)


def emit(rows, outdir, name, svg=False, meta=None):
    """Write the report CSV (and optionally an SVG plot); returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    ordered = sorted(rows, key=lambda r: (r["method"], r["param"]))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append("%s,%.12e,%.12e,%.6f,%s" % (
            r["param"], r["rel_h1_final"], r["rel_l2h1"], r["runtime_s"], r["method"]
        ))
    csv_path = os.path.join(outdir, name + ".csv")
    tmp = csv_path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, csv_path)

    paths = [csv_path]
    if svg:
        svg_path = os.path.join(outdir, name + ".svg")
        _write_svg(ordered, svg_path, name)
        paths.append(svg_path)
    if meta:
        log.info("%s: wall=%.1fs cache hits=%d misses=%d transient solves=%d "
                 "rows=%d worst certified bound=%.2e", name, meta.get("wall_s", 0.0),
                 meta.get("cache_hits", 0), meta.get("cache_misses", 0),
                 meta.get("transient_solves", 0), meta.get("transient_rows", 0),
                 meta.get("transient_bound", 0.0))
    return paths


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _write_svg(rows, path, title):
    """Single-file log-scale line plot of rel_h1_final per method."""
    width, height, margin = 640, 420, 60
    methods = sorted({r["method"] for r in rows})
    xs = sorted({float(r["param"]) for r in rows})
    # a zero error (exp-rb's rows at M >= horizon) is drawn at the axis floor
    ys = [r["rel_h1_final"] for r in rows if r["rel_h1_final"] > 0] or [1.0]
    ymin = math.floor(math.log10(min(ys)))
    ymax = math.ceil(math.log10(max(ys)))
    if ymax <= ymin:
        ymax = ymin + 1

    def sx(x):
        if len(xs) == 1 or xs[-1] == xs[0]:
            return margin + (width - 2 * margin) / 2
        return margin + (width - 2 * margin) * (x - xs[0]) / (xs[-1] - xs[0])

    def sy(y):
        ly = math.log10(y) if y > 0 else ymin
        return height - margin - (height - 2 * margin) * (ly - ymin) / (ymax - ymin)

    root = ElementTree.Element("svg", xmlns="http://www.w3.org/2000/svg",
                               width=str(width), height=str(height))
    ElementTree.SubElement(root, "rect", x="0", y="0", width=str(width),
                           height=str(height), fill="white")
    ElementTree.SubElement(root, "text", x=str(width // 2), y="24",
                           attrib={"text-anchor": "middle"}).text = title
    axes = "M %d %d L %d %d L %d %d" % (margin, margin, margin, height - margin,
                                        width - margin, height - margin)
    ElementTree.SubElement(root, "path", d=axes, stroke="black", fill="none")
    for exp in range(ymin, ymax + 1):
        y = sy(10.0 ** exp)
        ElementTree.SubElement(root, "line", x1=str(margin - 4), y1="%.1f" % y,
                               x2=str(margin), y2="%.1f" % y, stroke="black")
        ElementTree.SubElement(root, "text", x=str(margin - 8), y="%.1f" % (y + 4),
                               attrib={"text-anchor": "end",
                                       "font-size": "11"}).text = "1e%d" % exp
    for i, method in enumerate(methods):
        pts = [(float(r["param"]), r["rel_h1_final"]) for r in rows if r["method"] == method]
        pts.sort()
        coords = " ".join("%.1f,%.1f" % (sx(x), sy(y)) for x, y in pts)
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        ElementTree.SubElement(root, "polyline", points=coords, fill="none",
                               stroke=color, attrib={"stroke-width": "1.5"})
        label = ElementTree.SubElement(root, "text", x=str(width - margin + 4),
                                       y=str(margin + 16 * i + 10),
                                       attrib={"font-size": "11", "fill": color})
        label.text = method
    for x in xs:
        ElementTree.SubElement(root, "text", x="%.1f" % sx(x),
                               y=str(height - margin + 16),
                               attrib={"text-anchor": "middle",
                                       "font-size": "11"}).text = "%g" % x
    tmp = str(path) + ".tmp"
    ElementTree.ElementTree(root).write(tmp, xml_declaration=True, encoding="utf-8")
    os.replace(tmp, path)
