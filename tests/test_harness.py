import dataclasses
import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from sdwave import cli, evolution, harness, interpolation, linalg, lod, rb
from sdwave.assembly import DiscreteForms
from sdwave.cli import main
from sdwave.evolution import localized_gfem_solve, transient_horizon
from sdwave.harness import (CSV_HEADER, ExperimentConfig, config_from_sources,
                            emit, random_field, run_exp_H, run_exp_k,
                            run_exp_rb)
from sdwave.lod import CERTIFY_TOL, TransientCorrectors, compute_transient_correctors
from sdwave.mesh import Mesh

MICRO = dict(p=3, q=2, kmax=2, tau=0.1, T=0.5, seed=1)

# (method, param) -> (rel_h1_final, rel_l2h1) of the micro runs below, as
# recorded from the separate per-scheme loops that the shared stepper replaced.
# Rows at 1/H = 8 (h = H) are round-off, so they are held to an absolute 1e-13.
PINNED_K = {("gfem_k", 2): (0.07946108734894217, 0.06683286290111115)}
PINNED_H = {
    ("fem", 4): (0.7048301508085808, 0.7157712426728957),
    ("fem", 8): (2.5846163747459963e-15, 2.1684244224270247e-15),
    ("gfem", 4): (0.21779070949332047, 0.2147787844454392),
    ("gfem", 8): (3.137205972454848e-15, 2.829431945084952e-15),
    ("lod_a", 4): (0.3085007344744371, 0.29386343798144626),
    ("lod_a", 8): (2.5846163747459963e-15, 2.1684244224270247e-15),
    ("lod_b", 4): (0.6916531501722815, 0.7112608679641595),
    ("lod_b", 8): (2.5846163747459963e-15, 2.1684244224270247e-15),
}
PINNED_RB = {("rb", 1): (0.032770090141106094, 0.023757856081438353),
             ("rb", 5): (0.0, 0.0)}


def assert_pinned(rows, pinned):
    got = {(r["method"], r["param"]): (r["rel_h1_final"], r["rel_l2h1"]) for r in rows}
    assert set(got) == set(pinned)
    for key, expected in pinned.items():
        np.testing.assert_allclose(got[key], expected, rtol=1e-12, atol=1e-13,
                                   err_msg=str(key))


def test_random_field_determinism_and_bounds():
    mesh = Mesh(8)
    f1 = random_field(mesh, 0.1, 1000.0, 7)
    f2 = random_field(mesh, 0.1, 1000.0, 7)
    np.testing.assert_array_equal(f1.values, f2.values)
    lo, hi = f1.values.min(), f1.values.max()
    assert lo >= 0.1 and hi <= 1000.0
    assert hi / lo > 100.0  # high contrast realized
    f3 = random_field(mesh, 0.1, 1000.0, 8)
    assert not np.array_equal(f1.values, f3.values)


def test_random_field_validation():
    mesh = Mesh(4)
    with pytest.raises(ValueError):
        random_field(mesh, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        random_field(mesh, -1.0, 1.0, 0)
    with pytest.raises(ValueError):
        random_field(mesh, 0.1, 1.0, 0, law="normal")


def test_random_field_near_constant_limit():
    mesh = Mesh(4)
    f = random_field(mesh, 1.0, 1.0 + 1e-9, 3)
    assert f.values.max() - f.values.min() <= 1e-9


def test_random_field_blocks():
    mesh = Mesh(8)
    f = random_field(mesh, 0.1, 1000.0, 5, block=4)
    values = f.values.reshape(-1, 2)
    assert np.all(values[:, 0] == values[:, 1])  # both triangles of a cell agree
    assert np.unique(f.values).size <= 4
    f1 = random_field(mesh, 0.1, 1000.0, 5, block=1)
    assert np.unique(f1.values).size <= 64


def test_uniform_law():
    mesh = Mesh(8)
    f = random_field(mesh, 10.0, 20.0, 6, law="uniform")
    assert 10.0 <= f.values.min() and f.values.max() <= 20.0


def test_near_constant_field_gfem_error_matches_fem_level():
    # without coefficient variation the coarse FEM has no multiscale handicap,
    # so the two methods land at the same error level against the fine solve
    from sdwave.assembly import DiscreteForms
    from sdwave.evolution import (fine_fem_solve, galerkin_wave_solve,
                                  localized_gfem_solve, rel_l2h1)
    from sdwave.lod import (CorrectorConfig, build_corrector_set,
                            transients_for_all_nodes)
    from sdwave.mesh import NestedMeshPair, prolongation

    pair = NestedMeshPair(Mesh(4), 2)
    A = random_field(pair.fine, 1.0, 1.0 + 1e-9, 1)
    B = random_field(pair.fine, 1.0, 1.0 + 1e-9, 2)
    forms = DiscreteForms(pair, A, B, 0.02)
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    seq = transients_for_all_nodes(cs, horizon=10)
    zc = np.zeros(pair.coarse.n_dofs)
    ref = fine_fem_solve(forms, 1.0, np.zeros(pair.fine.n_dofs),
                         np.zeros(pair.fine.n_dofs), 10)
    gfem = localized_gfem_solve(cs, seq, 1.0, 10, zc, zc)
    fem = galerkin_wave_solve(prolongation(pair), forms, 1.0, 10, zc, zc)
    e_gfem = rel_l2h1(forms, gfem, ref)
    e_fem = rel_l2h1(forms, fem, ref)
    assert e_gfem <= 1.2 * e_fem


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(p=2, q=4)
    with pytest.raises(ValueError):
        ExperimentConfig(lo=2.0, hi=1.0)
    cfg = ExperimentConfig(tau=0.02, T=1.0)
    assert cfg.n_steps == 50


@pytest.mark.parametrize("M", [(-1,), (0, 5), ()])
def test_exp_rb_rejects_snapshot_counts_below_one(M):
    # M = -1 used to keep stored[:-1] and report a perfect gap of 0.0
    with pytest.raises(ValueError):
        run_exp_rb(ExperimentConfig(p=3, q=2, tau=0.1, T=0.5, seed=1, M=M))


def test_cli_rejects_kmax_below_two(tmp_path):
    # kmax = 1 used to write an empty exp_k.csv and exit 0
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        main(["exp-k", "--p", "3", "--q", "2", "--kmax", "1", "--tau", "0.1",
              "--T", "0.5", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("T, tau", [(1.0, 0.03), (0.03, 0.02), (0.02, 0.02),
                                    (0.0, 0.02), (-1.0, 0.02), (float("inf"), 0.02)],
                         ids=["not-whole", "rounds-up", "one-step", "zero",
                              "negative", "infinite"])
def test_config_rejects_partial_or_too_few_steps(T, tau):
    # T = 1, tau = 0.03 used to stop at 0.99 and T = 0.03 to run to 0.04
    with pytest.raises(ValueError):
        ExperimentConfig(p=3, q=2, tau=tau, T=T)


@pytest.mark.parametrize("law", ["logunifrom", "normal", "Uniform", ""],
                         ids=["typo", "other", "case", "empty"])
def test_config_rejects_unknown_law(tmp_path, law):
    # the JSON key used to reach random_field only after the meshes were built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"law": law}))
    with pytest.raises(ValueError, match="law"):
        config_from_sources("exp-k", str(path), dict(MICRO))


@pytest.mark.parametrize("bad", [dict(rb_tol=2.0), dict(rb_tol=1.0), dict(rb_tol=0.0),
                                 dict(rb_tol=-1.0), dict(rb_tol=float("nan")),
                                 dict(stop_tol=-1e-12), dict(stop_tol=float("nan")),
                                 dict(block=-1)],
                         ids=["rb_tol-2", "rb_tol-1", "rb_tol-0", "rb_tol-negative",
                              "rb_tol-nan", "stop_tol-negative", "stop_tol-nan",
                              "block-negative"])
def test_config_rejects_bad_tolerances(tmp_path, bad):
    # block = -1 ran as 0; rb_tol and stop_tol are no config keys (the one is
    # rb.RB_TOL, and no correction sequence stops early), so a file that sets
    # one is rejected as naming an unknown key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=next(iter(bad))):
        config_from_sources("exp-rb", str(path), dict(MICRO))


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"exp-k"', "null"],
                         ids=["list", "number", "string", "null"])
def test_config_file_must_hold_an_object(tmp_path, content):
    # a file whose top level was no object raised AttributeError
    path = tmp_path / "cfg.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="JSON object"):
        config_from_sources("exp-k", str(path), dict(MICRO))


@pytest.mark.parametrize("bad", [
    dict(tau="0.1"), dict(T="1"), dict(lo="0.1"), dict(hi="1e3"),
    dict(lo=float("nan")), dict(hi=float("nan")), dict(hi=float("inf")),
    dict(lo=True), dict(T=True), dict(svg="no"), dict(svg=1),
    dict(out=5), dict(out=None), dict(out=["o"]), dict(cache=5), dict(cache=True),
], ids=["tau-string", "T-string", "lo-string", "hi-string", "lo-nan", "hi-nan",
        "hi-inf", "lo-bool", "T-bool", "svg-string", "svg-int", "out-int", "out-null",
        "out-list", "cache-int", "cache-bool"])
def test_config_rejects_non_numbers_and_non_bools(tmp_path, bad):
    # strings raised TypeError; NaN and inf bounds, booleans as numbers and
    # any svg value were accepted; an out or cache that is no path ran the
    # whole experiment and then failed in emit or in the cache write
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    overrides = {k: v for k, v in MICRO.items() if k not in bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        config_from_sources("exp-k", str(path), overrides)


def test_config_accepts_whole_step_counts():
    # T / tau lands off an integer by round-off only
    assert ExperimentConfig(tau=0.02, T=0.2).n_steps == 10
    assert ExperimentConfig(tau=0.1, T=0.3).n_steps == 3
    assert ExperimentConfig(tau=0.02, T=8.0).n_steps == 400


@pytest.mark.parametrize("sources", [dict(overrides={"scale": "dsek"}),
                                     dict(file={"scale": "dsek"})],
                         ids=["flag", "file"])
def test_config_rejects_unknown_scale(tmp_path, sources):
    # a misspelt scale used to run the paper sizes
    path = None
    if "file" in sources:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(sources["file"]))
    with pytest.raises(ValueError):
        config_from_sources("exp-rb", path and str(path), sources.get("overrides"))


@pytest.mark.parametrize("M", ["15", 15, [1.5, 5], [True, 5], [1, "5"]],
                         ids=["string", "scalar", "float", "bool", "mixed"])
def test_config_rejects_M_not_a_list_of_integers(tmp_path, monkeypatch, M):
    # "M": "15" used to be read digit by digit as (1, 5); built directly, (1.5,)
    # failed in slicing after the corrector set and every power sequence, and
    # (True, 2) ran and wrote True as a CSV param
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr(harness, "Mesh", no_mesh)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": M}))
    with pytest.raises(ValueError, match="M must be a list of integers"):
        config_from_sources("exp-rb", str(path))
    for direct in (M, (1.5,), (True, 2), (np.float64(2.0),), {1, 5}, None):
        with pytest.raises(ValueError, match="M must be a list of integers"):
            run_exp_rb(ExperimentConfig(p=3, q=2, M=direct, T=1, tau=0.1))
    with pytest.raises(ValueError, match="M must be >= 1"):
        ExperimentConfig(p=3, q=2, M=(0, 5), T=1, tau=0.1)
    assert config_from_sources("exp-rb", None, {"M": [1, 15]}).M == (1, 15)
    M = ExperimentConfig(p=3, q=2, M=[np.int64(5), 1], T=1, tau=0.1).M
    assert M == (5, 1) and all(type(m) is int for m in M)


@pytest.mark.parametrize("bad", [dict(seed=-1), dict(M=[3, 3]), dict(M=[1, 5, 1])],
                         ids=["seed-negative", "M-repeated", "M-repeated-apart"])
def test_config_rejects_a_negative_seed_or_repeated_snapshot_counts(tmp_path, monkeypatch,
                                                                    bad):
    # seed = -1 built the meshes and then failed in numpy; --M 3,3 solved
    # and wrote one rb row twice
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr(harness, "Mesh", no_mesh)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MICRO, out=str(tmp_path / "out"), **bad)))
    with pytest.raises(ValueError, match=next(iter(bad))):
        main(["exp-rb", "--config", str(path)])
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentConfig(**dict(MICRO, **bad))
    assert not (tmp_path / "out").exists()


def test_config_rejects_exp_H_q_below_two(tmp_path, monkeypatch):
    # exp-H sweeps q = 2 .. q: at q = 1 it solved the fine reference and
    # wrote a CSV of its header only
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr(harness, "Mesh", no_mesh)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="q must be >= 2"):
        main(["exp-H", "--p", "3", "--q", "1", "--T", "0.1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("bad", [dict(kmax=2.5), dict(p=5.0), dict(q=True),
                                 dict(seed="1"), dict(seed=False), dict(block=1.5)],
                         ids=["kmax-float", "p-whole-float", "q-bool", "seed-string",
                              "seed-bool", "block-float"])
def test_config_rejects_non_integer_values(tmp_path, monkeypatch, bad):
    # {"kmax": 2.5} used to run the saturating corrector set and the ideal
    # reference before range() raised TypeError
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr(harness, "Mesh", no_mesh)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MICRO, out=str(tmp_path / "out"), **bad)))
    with pytest.raises(ValueError, match=next(iter(bad))):
        main(["exp-k", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("M", ["1,,5", "1,5,", "a", "1.5"])
def test_cli_rejects_malformed_M_as_usage_error(tmp_path, capsys, M):
    # "--M 1,,5" used to end in a ValueError traceback from int("")
    with pytest.raises(SystemExit) as exc:
        main(["exp-rb", "--p", "3", "--q", "2", "--tau", "0.1", "--T", "0.5",
              "--M", M, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert repr(M) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_workers_accepts_only_one(tmp_path):
    out = tmp_path / "out"
    argv = ["exp-k", "--p", "3", "--q", "2", "--kmax", "2", "--tau", "0.1",
            "--T", "0.5", "--out", str(out)]
    with pytest.raises(SystemExit):
        main(argv + ["--workers", "2"])
    assert not out.exists()
    assert main(argv + ["--workers", "1"]) == 0


def test_config_sources(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 4, "q": 3, "seed": 9}))
    cfg = config_from_sources("exp-k", str(path), {"seed": 11})
    assert cfg.p == 4 and cfg.q == 3
    assert cfg.seed == 11  # flags override the file
    cfg2 = config_from_sources("exp-k", None, {"scale": "paper"})
    assert cfg2.p == 7
    with pytest.raises(ValueError):
        config_from_sources("exp-k", None, {"bogus": 1})


def test_emit_csv_and_svg(tmp_path):
    rows = [
        {"param": 2, "rel_h1_final": 0.5, "rel_l2h1": 0.4, "runtime_s": 0.1, "method": "gfem"},
        {"param": 4, "rel_h1_final": 0.25, "rel_l2h1": 0.2, "runtime_s": 0.1, "method": "gfem"},
        {"param": 2, "rel_h1_final": 0.8, "rel_l2h1": 0.7, "runtime_s": 0.1, "method": "fem"},
    ]
    paths = emit(rows, tmp_path, "demo", svg=True)
    lines = Path(paths[0]).read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("2,") and lines[1].endswith(",fem")
    tree = ElementTree.parse(paths[1])  # well-formed XML
    assert tree.getroot().tag.endswith("svg")
    # a zero error, as exp-rb's row at M >= horizon, used to pull the axis
    # down to 1e-300; the axis spans the positive errors, the zero sits at
    # its floor
    rows = [{"param": m, "rel_h1_final": gap, "rel_l2h1": gap, "runtime_s": 0.1,
             "method": "rb"} for m, gap in ((1, 2.97), (5, 0.207), (20, 1.7e-3), (50, 0.0))]
    root = ElementTree.parse(emit(rows, tmp_path, "zero", svg=True)[1]).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    labels = [t.text for t in root.iter(ns + "text") if t.text.startswith("1e")]
    assert labels == ["1e-3", "1e-2", "1e-1", "1e0", "1e1"]
    line, = root.iter(ns + "polyline")
    ys = [float(point.split(",")[1]) for point in line.get("points").split()]
    assert ys[-1] == 360.0 and ys[0] < ys[1] < ys[2] < ys[3] and ys[0] > 60.0


def test_emit_empty_report(tmp_path):
    paths = emit([], tmp_path, "empty")
    assert Path(paths[0]).read_text() == CSV_HEADER + "\n"


def _strip_runtime(path):
    lines = Path(path).read_text().strip().splitlines()
    return [",".join(col for i, col in enumerate(line.split(",")) if i != 3)
            for line in lines]


def test_exp_k_micro_deterministic(tmp_path):
    cfg = ExperimentConfig(**MICRO)
    rows1, meta1 = run_exp_k(cfg)
    rows2, _ = run_exp_k(cfg)
    emit(rows1, tmp_path, "a")
    emit(rows2, tmp_path, "b")
    assert _strip_runtime(tmp_path / "a.csv") == _strip_runtime(tmp_path / "b.csv")
    assert meta1["cache_misses"] > 0 and meta1["cache_hits"] == 0
    assert_pinned(rows1, PINNED_K)


def test_exp_k_frees_each_patch_size_before_the_next(monkeypatch):
    # the k = 2 sequences used to stay bound while k = 3 loaded its own,
    # which set the peak memory of a long run
    pipeline = harness._corrector_pipeline
    previous = []
    checked = []

    def tracked(cfg, forms, k, form_choice, counters, transients=True):
        if transients and previous:
            gc.collect()
            checked.append(k)
            assert all(ref() is None for ref in previous), k
        correctors, seq = pipeline(cfg, forms, k, form_choice, counters, transients)
        if transients:
            previous[:] = [weakref.ref(correctors)] + [weakref.ref(tc)
                                                      for tc in seq.values()]
        return correctors, seq

    monkeypatch.setattr(harness, "_corrector_pipeline", tracked)
    run_exp_k(ExperimentConfig(**dict(MICRO, p=4, kmax=3)))
    assert checked == [3]


def test_exp_k_row_of_a_long_run_fills_each_window_once(monkeypatch):
    # N + 1 = 71 steps are two windows; rel_h1_final read the last one before
    # rel_l2h1 read both in step order, which filled it twice
    fill = evolution._Recurrence._fill
    fills = []

    def counted(self, lo, hi, alpha):
        fills.append(lo)
        return fill(self, lo, hi, alpha)

    monkeypatch.setattr(evolution._Recurrence, "_fill", counted)
    cfg = ExperimentConfig(**dict(MICRO, T=7.0))
    assert cfg.n_steps + 1 > evolution._WINDOW
    rows, _ = run_exp_k(cfg)
    assert len(rows) == 1 and fills == [0, evolution._WINDOW]


def test_exp_H_frees_each_level_before_the_next(monkeypatch):
    # level q's forms, correctors and sequences used to stay bound while
    # level q + 1 loaded its own
    pipeline = harness._corrector_pipeline
    levels = []     # weak references to what each level's pipeline calls made

    def tracked(cfg, forms, k, form_choice, counters, transients=True):
        if transients:      # a level's first call
            gc.collect()
            assert all(ref() is None for ref in (levels[-1] if levels else [])), k
            levels.append([])
        correctors, seq = pipeline(cfg, forms, k, form_choice, counters, transients)
        levels[-1].append(weakref.ref(correctors))
        levels[-1].extend(weakref.ref(tc) for tc in (seq or {}).values())
        if k < cfg.q:       # the last level's forms are the reference's
            levels[-1].append(weakref.ref(forms))
        return correctors, seq

    monkeypatch.setattr(harness, "_corrector_pipeline", tracked)
    run_exp_H(ExperimentConfig(p=4, q=4, tau=0.1, T=0.5, seed=1))
    # correctors, sequences, the two single-form sets and one forms per call
    assert [len(refs) for refs in levels] == [1 + 9 + 2 + 3, 1 + 49 + 2 + 3, 1 + 225 + 2]


def test_exp_k_cache_hit(tmp_path):
    # only the patch sizes k = 2 .. kmax are cached: the ideal reference
    # builds its basis on its own global factorization, and no saturated set
    # is written
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(cache=str(cache), **dict(MICRO, kmax=3))
    patch_sizes = cfg.kmax - 1
    rows1, meta1 = run_exp_k(cfg)
    assert len(list(cache.iterdir())) == patch_sizes
    assert (meta1["cache_hits"], meta1["cache_misses"]) == (0, patch_sizes)
    rows2, meta2 = run_exp_k(cfg)
    assert (meta2["cache_hits"], meta2["cache_misses"]) == (patch_sizes, 0)
    emit(rows1, tmp_path, "cold")
    emit(rows2, tmp_path, "warm")
    assert _strip_runtime(tmp_path / "cold.csv") == _strip_runtime(tmp_path / "warm.csv")


@pytest.mark.parametrize("change", [dict(hi=1e1), dict(T=1.0)],
                         ids=["contrast", "final_time"])
def test_cache_not_served_for_changed_inputs(tmp_path, change):
    # a cache filled at one contrast or horizon must not answer for another
    common = dict(p=4, q=2, kmax=2, T=0.5, seed=1)
    cache = str(tmp_path / "cache")
    run_exp_k(ExperimentConfig(cache=cache, **common))
    changed = dict(common, **change)
    rows, meta = run_exp_k(ExperimentConfig(cache=cache, **changed))
    fresh, _ = run_exp_k(ExperimentConfig(**changed))
    assert meta["cache_hits"] == 0
    assert [r["rel_h1_final"] for r in rows] == [r["rel_h1_final"] for r in fresh]


def test_truncated_cache_file_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(cache=str(cache), **MICRO)
    rows1, _ = run_exp_k(cfg)
    for path in cache.glob("*.npz"):
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    rows2, meta2 = run_exp_k(cfg)
    assert meta2["cache_hits"] == 0
    assert [r["rel_h1_final"] for r in rows2] == [r["rel_h1_final"] for r in rows1]


def test_cache_file_with_a_non_finite_row_is_a_miss(tmp_path):
    # the warm run stepped on the NaN, and failed on non-finite states
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(cache=str(cache), **MICRO)
    rows1, _ = run_exp_k(cfg)
    for path in cache.glob("*.npz"):
        with np.load(path) as data:
            payload = dict(data)
        payload["transient_rows"][payload["transient_rows"].size // 2] = np.nan
        np.savez(path, **payload)
    rows2, meta2 = run_exp_k(cfg)
    assert meta2["cache_hits"] == 0
    assert [r["rel_h1_final"] for r in rows2] == [r["rel_h1_final"] for r in rows1]


def test_cache_file_with_a_non_finite_Q_is_a_miss(tmp_path):
    # the warm run stepped on the NaN, and failed on non-finite states
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(cache=str(cache), **MICRO)
    rows1, _ = run_exp_k(cfg)
    for path in cache.glob("*.npz"):
        with np.load(path) as data:
            payload = dict(data)
        payload["Q_data"][payload["Q_data"].size // 2] = np.nan
        np.savez(path, **payload)
    rows2, meta2 = run_exp_k(cfg)
    assert (meta2["cache_hits"], meta2["cache_misses"]) == (0, 1)
    emit(rows1, tmp_path, "cold")
    emit(rows2, tmp_path, "warm")
    assert _strip_runtime(tmp_path / "cold.csv") == _strip_runtime(tmp_path / "warm.csv")


def test_cache_file_of_a_shorter_horizon_is_a_miss(tmp_path):
    # the warm run loaded the sequences as a hit and failed the online
    # stage's check that each holds the horizon the run reads
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(cache=str(cache), **MICRO)
    rows1, _ = run_exp_k(cfg)
    for path in cache.glob("*.npz"):
        with np.load(path) as data:
            payload = dict(data)
        payload["transient_horizon"] -= 3
        np.savez(path, **payload)
    rows2, meta2 = run_exp_k(cfg)
    assert (meta2["cache_hits"], meta2["cache_misses"]) == (0, 1)
    emit(rows1, tmp_path, "cold")
    emit(rows2, tmp_path, "warm")
    assert _strip_runtime(tmp_path / "cold.csv") == _strip_runtime(tmp_path / "warm.csv")


def test_exp_H_micro(tmp_path):
    cfg = ExperimentConfig(p=3, q=3, tau=0.1, T=0.5, seed=1)
    rows, _ = run_exp_H(cfg)
    methods = {r["method"] for r in rows}
    assert methods == {"gfem", "fem", "lod_a", "lod_b"}
    params = sorted({r["param"] for r in rows})
    assert params == [4, 8]
    for r in rows:
        if r["method"] == "gfem" and r["param"] < 8:
            fem_err = next(s["rel_h1_final"] for s in rows
                           if s["method"] == "fem" and s["param"] == r["param"])
            assert r["rel_h1_final"] <= fem_err
        if r["method"] == "gfem" and r["param"] == 8:  # H = h: oracle collapse
            assert r["rel_h1_final"] <= 1e-8
    assert_pinned(rows, PINNED_H)


def test_run_counters_repeat(tmp_path, caplog):
    # the saddle solves spent on sequences and the worst certified bound are
    # counted where the work happens: two runs of one config count the same,
    # and a run served from the cache spends no solves
    cfg = ExperimentConfig(p=4, q=2, kmax=3, tau=0.1, T=2.0, seed=1,
                           cache=str(tmp_path / "cache"))
    rows, meta = run_exp_k(dataclasses.replace(cfg, cache=None))
    _, again = run_exp_k(dataclasses.replace(cfg, cache=None))
    counters = ("cache_hits", "cache_misses", "transient_solves", "transient_bound",
                "transient_rows")
    assert {c: meta[c] for c in counters} == {c: again[c] for c in counters}
    # k = 2 and 3, nine nodes each, at least two solves per sequence
    assert 2 * 9 * 2 <= meta["transient_solves"] < 2 * 9 * 19
    assert 0.0 < meta["transient_bound"] <= CERTIFY_TOL
    # the basis rows stored: fewer than the 19 members of each sequence
    assert 2 * 9 <= meta["transient_rows"] < 2 * 9 * 19
    _, fill = run_exp_k(cfg)
    _, cached = run_exp_k(cfg)
    assert cached["cache_misses"] == 0 and cached["transient_solves"] == 0
    # a run served from the cache reports the bound and rows of the fill's sequences
    assert cached["transient_bound"] == fill["transient_bound"] == meta["transient_bound"]
    assert cached["transient_rows"] == fill["transient_rows"] == meta["transient_rows"]
    with caplog.at_level("INFO", logger="sdwave"):
        emit(rows, tmp_path, "exp_k", meta=meta)
    assert "transient solves=%d" % meta["transient_solves"] in caplog.text
    assert "rows=%d" % meta["transient_rows"] in caplog.text
    assert "worst certified bound=%.2e" % meta["transient_bound"] in caplog.text


def test_online_stage_never_lifts_certified_members(tmp_path, monkeypatch):
    # exp-k and exp-H step the certified sequences in their basis coordinates,
    # built or served from the cache; no member row is formed
    def no_lift(self, count=None):
        raise AssertionError("the members of a sequence were lifted")

    monkeypatch.setattr(TransientCorrectors, "members", no_lift)
    for cache in (None, str(tmp_path), str(tmp_path)):
        rows, meta = run_exp_k(ExperimentConfig(p=4, q=2, kmax=3, tau=0.1, T=2.0,
                                                seed=1, cache=cache))
        assert len(rows) == 2 and meta["transient_rows"] > 0
        rows, _ = run_exp_H(ExperimentConfig(p=4, q=3, tau=0.1, T=1.0, seed=1,
                                             cache=cache))
        assert {r["method"] for r in rows} >= {"gfem"}


def test_exp_rb_builds_the_power_iterates(monkeypatch):
    # build_rb amplifies the round-off of its snapshots, so exp-rb's snapshots
    # stay those of compute_transient_correctors, bit for bit, one per node,
    # built in one node_reductions call; it builds no certified sequence
    built = []

    def capture(correctors, horizon, m_values):
        nodes = rb.node_reductions(correctors, horizon, m_values)
        built.append((correctors, horizon, m_values, nodes))
        return nodes

    def no_certified(*args):
        raise AssertionError("exp-rb built certified sequences")

    monkeypatch.setattr(harness, "node_reductions", capture)
    monkeypatch.setattr(harness, "transients_for_all_nodes", no_certified)
    run_exp_rb(ExperimentConfig(p=4, q=2, tau=0.1, T=2.0, seed=1, M=(1, 5)))
    (correctors, horizon, m_values, nodes), = built
    assert horizon == 19 and m_values == (1, 5)
    assert sorted(nodes) == list(range(correctors.Q.shape[1]))
    for d, node in nodes.items():
        power = compute_transient_correctors(correctors, d, horizon)
        assert node.xi.tobytes() == power.xi.tobytes() and node.solves == power.solves


def test_warm_exp_rb_builds_one_patch_per_node(tmp_path, monkeypatch):
    # a node's power iterates and its reduced basis share one lod.Patch; with
    # the set read from the cache, no element patch is built either
    cfg = ExperimentConfig(p=4, q=2, tau=0.1, T=2.0, seed=1, M=(1, 5), cache=str(tmp_path))
    cold_rows, _ = run_exp_rb(cfg)
    built = []
    init = lod.Patch.__init__

    def count(self, forms, dofs, *args):
        built.append(dofs)
        init(self, forms, dofs, *args)

    monkeypatch.setattr(lod.Patch, "__init__", count)
    rows, meta = run_exp_rb(cfg)
    assert meta["cache_hits"] == 1 and _errors(rows) == _errors(cold_rows)
    assert len(built) == 9    # the interior nodes of the 4 x 4 coarse mesh


def _errors(rows):
    return sorted((r["method"], r["param"], r["rel_h1_final"], r["rel_l2h1"]) for r in rows)


def test_exp_rb_caches_its_corrector_set_only(tmp_path, monkeypatch):
    # the file holds the corrector set, under the key of exp-k's certified
    # sequences at k = q; the snapshots are solved again in every run
    cache = tmp_path / "cache"
    cfg = ExperimentConfig(p=4, q=2, tau=0.1, T=2.0, seed=1, M=(1, 5), cache=str(cache))
    cold_rows, cold = run_exp_rb(cfg)
    warm_rows, warm = run_exp_rb(cfg)
    assert (cold["cache_hits"], cold["cache_misses"]) == (0, 1)
    assert (warm["cache_hits"], warm["cache_misses"]) == (1, 0)
    assert warm["transient_solves"] == cold["transient_solves"] > 0
    assert warm["transient_rows"] == cold["transient_rows"] > 0
    assert _errors(warm_rows) == _errors(cold_rows)
    path, = cache.iterdir()
    with np.load(path) as data:
        assert "Q_data" in data and "transient_nodes" not in data
    # exp-k at k = q hits that file for its set: it builds no set, only the
    # sequences on the loaded one, and rewrites the file as a cold exp-k run
    # writes it; its rows are those of a run without a cache
    k_cfg = ExperimentConfig(p=4, q=2, kmax=2, tau=0.1, T=2.0, seed=1, cache=str(cache))
    cold_k_rows, _ = run_exp_k(dataclasses.replace(k_cfg, cache=str(tmp_path / "cold")))
    plain_rows, _ = run_exp_k(dataclasses.replace(k_cfg, cache=None))

    def refuse(*args):
        raise AssertionError("a cached corrector set was built again")

    with monkeypatch.context() as m:
        m.setattr(harness, "build_corrector_set", refuse)
        rows, meta = run_exp_k(k_cfg)
    assert (meta["cache_hits"], meta["cache_misses"]) == (1, 0)
    assert meta["transient_solves"] > 0
    assert _errors(rows) == _errors(plain_rows) == _errors(cold_k_rows)
    assert list(cache.iterdir()) == [path]
    cold_path, = (tmp_path / "cold").iterdir()
    assert path.read_bytes() == cold_path.read_bytes()
    # and exp-rb hits the file with sequences as it hit the set alone, reading
    # no sequence entry of it and leaving it as it is
    def no_sequences(*args):
        raise AssertionError("exp-rb read the cached sequences")

    with monkeypatch.context() as m:
        m.setattr(lod, "_load_transients", no_sequences)
        again_rows, again = run_exp_rb(cfg)
    assert (again["cache_hits"], again["cache_misses"]) == (1, 0)
    assert _errors(again_rows) == _errors(cold_rows)
    assert path.read_bytes() == cold_path.read_bytes()


def test_exp_rb_micro(tmp_path):
    cfg = ExperimentConfig(p=3, q=2, tau=0.1, T=0.5, seed=1, M=(1, 5))
    rows, _ = run_exp_rb(cfg)
    gaps = {r["param"]: r["rel_h1_final"] for r in rows}
    assert gaps[5] == 0.0  # horizon reached, nothing to compress
    assert_pinned(rows, PINNED_RB)


def test_exp_rb_frees_each_row_before_the_next(monkeypatch):
    # a reduced row's trajectory, and the bands it holds, used to stay bound
    # while the next row was solved
    solve = rb.rb_gfem_solve
    previous = []
    checked = []

    def tracked(*args):
        gc.collect()
        assert all(ref() is None for ref in previous), args[-1]
        checked.append(args[-1])
        trajectory = solve(*args)
        if args[-1] < transient_horizon(cfg.n_steps):
            previous[:] = [weakref.ref(trajectory)]
        return trajectory

    monkeypatch.setattr(harness, "rb_gfem_solve", tracked)
    cfg = ExperimentConfig(p=3, q=2, tau=0.1, T=0.5, seed=1, M=(1, 2, 3))
    run_exp_rb(cfg)
    assert checked == [transient_horizon(cfg.n_steps), 1, 2, 3]


def test_exp_rb_rows_at_the_horizon_take_the_reference(monkeypatch):
    # from M = horizon on, the row runs the snapshots unreduced, which is the
    # reference trajectory: it used to be solved a second time
    calls = []

    def count(*args):
        calls.append(args[-1])
        return rb.rb_gfem_solve(*args)

    monkeypatch.setattr(harness, "rb_gfem_solve", count)
    cfg = ExperimentConfig(p=3, q=2, tau=0.1, T=0.5, seed=1, M=(1, 4, 5))
    rows, _ = run_exp_rb(cfg)
    # the reference at m_max = horizon = 4, then the reduced row M = 1
    assert calls == [transient_horizon(cfg.n_steps), 1]
    for row in rows:
        if row["param"] >= transient_horizon(cfg.n_steps):
            assert (row["rel_h1_final"], row["rel_l2h1"]) == (0.0, 0.0), row


@pytest.mark.parametrize("run, extra", [(run_exp_k, dict(kmax=2)),
                                        (run_exp_rb, dict(M=(1, 2)))],
                         ids=["exp-k", "exp-rb"])
def test_high_contrast_runs(run, extra):
    # contrast 1e10 between the coefficient bounds still gives usable errors
    cfg = ExperimentConfig(p=4, q=2, tau=0.1, T=0.5, seed=1, lo=1e-2, hi=1e8,
                           **extra)
    rows, _ = run(cfg)
    assert rows
    for r in rows:
        errors = np.array([r["rel_h1_final"], r["rel_l2h1"]])
        assert np.all(np.isfinite(errors)) and np.all(errors > 0.0), r


def test_exp_k_saturated_patch_matches_ideal(monkeypatch):
    # once the patches cover the domain the sweep hits the reference itself;
    # the saturated set of the sweep's last k, built through the element loop,
    # is an independent oracle of the reference's basis
    from sdwave.mesh import saturating_k
    ideal, correctors = [], {}

    class Recorded(evolution._GlobalSaddle):
        def __init__(self, forms, grid):
            super().__init__(forms, grid)
            ideal.append(self)

    def recorded(cs, *args):
        correctors[cs.config.k] = cs
        return localized_gfem_solve(cs, *args)

    monkeypatch.setattr(evolution, "_GlobalSaddle", Recorded)
    monkeypatch.setattr(harness, "localized_gfem_solve", recorded)
    kmax = saturating_k(Mesh(4))
    cfg = ExperimentConfig(p=4, q=2, kmax=kmax, tau=0.1, T=0.4, seed=1)
    rows, _ = run_exp_k(cfg)
    last = max(rows, key=lambda r: r["param"])
    assert last["rel_h1_final"] <= 1e-8
    (basis,), saturated = ideal, correctors[kmax]
    for got, want in ((basis.Q, saturated.Q.toarray()), (basis.M_ms, saturated.M_ms),
                      (basis.A_ms, saturated.A_ms), (basis.B_ms, saturated.B_ms)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_exp_k_factors_the_global_saddle_once(monkeypatch):
    # the reference's basis and time steps share one factorization; a
    # saturated corrector set factored the same system a second time
    cfg = ExperimentConfig(p=4, q=2, kmax=2, tau=0.1, T=0.4, seed=1)
    global_size = (2 ** cfg.p - 1) ** 2 + (2 ** cfg.q - 1) ** 2
    splu = linalg._splu
    sizes = []

    def counted(matrix, symmetric=False):
        sizes.append(matrix.shape[0])
        return splu(matrix, symmetric)

    monkeypatch.setattr(linalg, "_splu", counted)
    run_exp_k(cfg)
    assert sizes.count(global_size) == 1
    assert max(sizes) == global_size


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["exp-k", "--p", "3", "--q", "2", "--kmax", "2", "--tau", "0.1",
               "--T", "0.5", "--seed", "1", "--out", str(out), "--svg"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0].endswith("exp_k.csv")
    assert os.path.exists(printed[0])
    assert os.path.exists(printed[1])
    lines = Path(printed[0]).read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER


# field -> (its flag and value, the value it sets), each unlike the exp-k
# defaults and desk preset
FLAG_VALUES = {
    "p": (["--p", "4"], 4),
    "q": (["--q", "3"], 3),
    "kmax": (["--kmax", "3"], 3),
    "tau": (["--tau", "0.05"], 0.05),
    "T": (["--T", "0.5"], 0.5),
    "seed": (["--seed", "7"], 7),
    "lo": (["--contrast-lo", "0.5"], 0.5),
    "hi": (["--contrast-hi", "50"], 50.0),
    "law": (["--law", "uniform"], "uniform"),
    "block": (["--block", "2"], 2),
    "M": (["--M", "2,3"], (2, 3)),
    "scale": (["--scale", "paper"], "paper"),
    "out": (["--out", "elsewhere"], "elsewhere"),
    "svg": (["--svg"], True),
    "cache": (["--cache", "cachedir"], "cachedir"),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_cli_flag_reaches_config(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    configs = []

    def record(cfg):
        configs.append(cfg)
        return [], {}

    monkeypatch.setitem(cli.RUNNERS, "exp-k", record)
    flag, value = FLAG_VALUES[name]
    assert main(["exp-k"]) == 0
    assert main(["exp-k", *flag]) == 0
    assert getattr(configs[0], name) != value
    assert getattr(configs[1], name) == value


@pytest.mark.parametrize("run,cfg,problems", [(run_exp_k, MICRO, 1),
                                              (run_exp_H, dict(MICRO, q=3), 2)],
                         ids=["exp-k", "exp-H"])
def test_one_interpolator_per_problem(monkeypatch, run, cfg, problems):
    # the forms build the interpolator; the drivers and solvers read forms.interp
    counts = {"interp": 0, "forms": 0}
    build, init = interpolation.build_interpolator, DiscreteForms.__init__

    def counted_build(pair):
        counts["interp"] += 1
        return build(pair)

    def counted_init(self, *args, **kwargs):
        counts["forms"] += 1
        init(self, *args, **kwargs)

    # every name an sdwave module could call it by
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sdwave" and getattr(module, "build_interpolator", None) is build:
            monkeypatch.setattr(module, "build_interpolator", counted_build)
    monkeypatch.setattr(DiscreteForms, "__init__", counted_init)
    run(ExperimentConfig(**cfg))
    assert counts == {"interp": problems, "forms": problems}


def test_cli_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(MICRO, out=str(tmp_path / "o"))))
    rc = main(["exp-k", "--config", str(cfg_path), "--kmax", "2"])
    assert rc == 0
    assert os.path.exists(tmp_path / "o" / "exp_k.csv")


def test_checks_and_cli_survive_python_O(tmp_path):
    # every input check raises instead of asserting, so python -O keeps it,
    # and a run under -O writes the CSV a plain run writes
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    script = textwrap.dedent("""
        import sys
        from sdwave.harness import ExperimentConfig

        print("optimize", sys.flags.optimize)
        try:
            ExperimentConfig(p=3, q=2, T=0.03)
            print("accepted")
        except ValueError:
            print("raised")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["optimize 1", "raised"]

    argv = ["exp-rb", "--p", "4", "--q", "2", "--M", "1,5", "--T", "0.2"]
    proc = subprocess.run([sys.executable, "-O", "-m", "sdwave.cli", *argv,
                           "--out", str(tmp_path / "O")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    got, expected = (np.genfromtxt(tmp_path / out / "exp_rb.csv", delimiter=",",
                                   names=True, dtype=None, encoding="utf-8")
                     for out in ("O", "plain"))
    assert got.size == expected.size == 2
    for column in ("param", "rel_h1_final", "rel_l2h1"):
        np.testing.assert_allclose(got[column], expected[column], rtol=1e-12)
