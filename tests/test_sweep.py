"""Sweep configuration parsing, persistence, determinism."""

import csv
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import tauvar.constants
import tauvar.sweep
from tauvar.arith import DEFAULT_SEGMENT_SIZE
from tauvar.constants import a_k_value, check_gamma_domain, gamma_eval
from tauvar.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    load_config,
    parse_config,
    read_records,
    run_sweep,
)
from tauvar.variance import experiment

GOOD_CONFIG = """
# three-point toy sweep
k = 2
d = 4,5
c = 1.5
cutoff = sharp
gamma_method = simple
workers = 1
"""


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.k_list == (2,)
    assert cfg.d_list == (4, 5)
    assert cfg.c_list == (1.5,)
    assert cfg.cutoff == "sharp"
    assert cfg.workers == 1
    path = tmp_path / "sweep.cfg"
    path.write_text(GOOD_CONFIG)
    assert load_config(path) == cfg


def test_readme_demo_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Sweep configs are flat `key = value` text:\n\n```\n(.*?)```", readme, re.S)
    assert block is not None, "README lost its demo sweep config"
    assert len(list(parse_config(block.group(1)).points())) > 0


def test_parse_config_prime_generator():
    cfg = parse_config("k = 2\nd = primes:100..130\nc = 1.5\n")
    assert cfg.d_list == (101, 103, 107, 109, 113, 127)


def test_parse_config_d_list_skips_empty_tokens():
    assert parse_config("k = 2\nd = 4,5,\nc = 1.5").d_list == (4, 5)
    assert parse_config("k = 2\nd = 4, ,5\nc = 1.3,1.7,").d_list == (4, 5)


def test_parse_config_rejects_prime_spec_without_range():
    with pytest.raises(ValueError, match=re.escape("bad prime range 'primes:100'")):
        parse_config("k = 2\nd = primes:100\nc = 1.5")
    with pytest.raises(ValueError, match=re.escape("bad prime range 'primes:200..100'")):
        parse_config("k = 2\nd = primes:200..100\nc = 1.5")


def test_parse_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("k = 2\nd = 4\nc = 1.5\nbogus = 1\n")
    with pytest.raises(ValueError, match="missing"):
        parse_config("k = 2\nd = 4\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("k 2\n")


def test_unknown_gamma_method_has_one_message():
    # sweep configs, with or without points, the evaluator and the rule
    # itself share one check, so they reject a method in the same words
    def message(fn, *args):
        with pytest.raises(ValueError) as exc:
            fn(*args)
        return str(exc.value)

    messages = {
        message(parse_config, "k = 2\nd = 4\nc = 1.5\ngamma_method = foo\n"),
        message(parse_config, "k =\nd = 4\nc = 1.5\ngamma_method = foo\n"),
        message(gamma_eval, 2, 1.5, "foo"),
        message(check_gamma_domain, 2, 1.5, "foo", 10**6, 1),
    }
    assert messages == {"unknown gamma method 'foo'; use one of simple, piecewise, mc"}


def test_config_validates_gamma_domain():
    with pytest.raises(ValueError, match="simple"):
        SweepConfig(k_list=(2, 3), d_list=(4,), c_list=(2.5,))
    with pytest.raises(ValueError, match="piecewise"):
        SweepConfig(k_list=(2,), d_list=(4,), c_list=(1.5,), gamma_method="piecewise")
    # the Monte Carlo bounds, which used to pass here and then fail every point
    with pytest.raises(ValueError, match="k = 6 outside the Monte-Carlo range 1..5"):
        parse_config("k = 6\nd = 4\nc = 5.5\ngamma_method = mc\n")
    with pytest.raises(ValueError, match="samples = 100 below the floor 10000"):
        parse_config("k = 2\nd = 4\nc = 1.5\ngamma_method = mc\nsamples = 100\n")
    # a seed beyond the uint64 Philox key, which used to fail every mc point
    with pytest.raises(ValueError, match=r"seed = 18446744073709551616 outside the Philox key range"):
        parse_config(
            "k = 3\nd = 7\nc = 2.5\ngamma_method = mc\nsamples = 10000\n"
            "seed = 18446744073709551616\n"
        )
    # a_k's Euler-product truncation is no config key, whatever its value
    with pytest.raises(ValueError, match="config line 4: unknown key 'prime_bound'"):
        parse_config("k = 2\nd = 4\nc = 1.5\nprime_bound = 10\n")
    # and the simple evaluator's bound on k
    with pytest.raises(ValueError, match="k = 17 exceeds the supported bound 16"):
        SweepConfig(k_list=(17,), d_list=(4, 5), c_list=(16.5,))
    SweepConfig(k_list=(3,), d_list=(4,), c_list=(2.5,))  # fine
    SweepConfig(k_list=(3,), d_list=(4,), c_list=(2.0,))  # c = k - 1 is in [k-1, k)
    SweepConfig(k_list=(2,), d_list=(4,), c_list=(1.0,))


def test_config_rejects_nonpositive_segment_size_and_workers():
    # the sieve window is no config key, whatever its value
    assert "segment_size" not in SweepConfig.__dataclass_fields__
    for value in (0, -1, 1, DEFAULT_SEGMENT_SIZE):
        with pytest.raises(ValueError, match="config line 4: unknown key 'segment_size'"):
            parse_config(f"k = 2\nd = 4\nc = 1.5\nsegment_size = {value}\n")
    for value in (0, -1):
        with pytest.raises(ValueError, match="workers must be positive"):
            parse_config(f"k = 2\nd = 4\nc = 1.5\nworkers = {value}\n")
    assert parse_config("k = 2\nd = 4\nc = 1.5\nworkers = 1\n")


def test_config_keys_are_the_config_fields():
    # every setting besides the grid is one field and one key, so a knob
    # dropped from one cannot linger in the other
    grid = {"k_list", "d_list", "c_list"}
    settings = set(SweepConfig.__dataclass_fields__) - grid
    assert {name for name, _ in tauvar.sweep._KEYS.values()} - grid == settings
    assert set(tauvar.sweep._KEYS) - {"k", "d", "c"} == settings


def test_config_rejects_a_non_integer_seed():
    # 1.5 used to pass the domain rule and sample with seed 1
    with pytest.raises(ValueError, match=re.escape("seed = 1.5 is not an integer")):
        SweepConfig(k_list=(3,), d_list=(7,), c_list=(2.5,), gamma_method="mc", seed=1.5)


@pytest.mark.parametrize(
    "field, value", [("cutoff", "Sharp"), ("workers", 0), ("d_list", (5, -3)), ("workers", 2.5)]
)
def test_config_checks_a_point_as_experiment_does(field, value):
    config = dict(k_list=(2,), d_list=(5,), c_list=(1.5,), cutoff="sharp", workers=1)
    config[field] = value
    with pytest.raises(ValueError) as swept:
        SweepConfig(**config)
    with pytest.raises(ValueError) as direct:
        experiment(2, min(config["d_list"]), 1.5, config["cutoff"], workers=config["workers"])
    assert str(swept.value) == str(direct.value)


def test_parse_config_bad_values_name_their_key_and_line():
    cases = [
        ("k = 2\nd = 4\nc = 1.5\nsamples = 1e6\n",
         "config line 4: bad value for 'samples': invalid literal for int() with base 10: '1e6'"),
        ("k = 2.5\nd = 4\nc = 1.5\n",
         "config line 1: bad value for 'k': invalid literal for int() with base 10: '2.5'"),
        ("k = 2\nd = 4\nc = 1.5x\n",
         "config line 3: bad value for 'c': could not convert string to float: '1.5x'"),
        ("k = 2\n# moduli\nd = 4,five\nc = 1.5\n",
         "config line 3: bad value for 'd': invalid literal for int() with base 10: 'five'"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)


def test_config_rejects_moduli_below_1():
    for spec in ("0,5", "5,-3"):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            parse_config(f"k = 2\nd = {spec}\nc = 1.5\n")
    assert parse_config("k = 2\nd = 1,5\nc = 1.5\n").d_list == (1, 5)
    # every d is checked, not only the least
    with pytest.raises(ValueError, match="modulus must be >= 1 and an integer, got 7.5"):
        SweepConfig(k_list=(2,), d_list=(5, 7.5), c_list=(1.5,))


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ValueError, match="config line 4: repeated key 'k'"):
        parse_config("k = 2\nd = 4\nc = 1.5\nk = 3\n")
    with pytest.raises(ValueError, match="config line 3: repeated key 'workers'"):
        parse_config("k = 2\nworkers = 1\nworkers = 2\nd = 4\nc = 1.5\n")


def test_empty_d_list_gives_header_only_csv(tmp_path):
    cfg = SweepConfig(k_list=(2,), d_list=(), c_list=(1.5,))
    res = run_sweep(cfg, out_dir=tmp_path / "empty")
    assert res.ok
    rows = (tmp_path / "empty" / "summary.csv").read_text().splitlines()
    assert rows == [",".join(CSV_COLUMNS)]
    assert (tmp_path / "empty" / "results.jsonl").read_text() == ""


def test_single_point_sweep(tmp_path):
    cfg = SweepConfig(k_list=(3,), d_list=(11,), c_list=(2.2,), cutoff="smooth")
    res = run_sweep(cfg, out_dir=tmp_path / "one")
    assert res.ok and len(res.records) == 1
    with open(res.csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    row = rows[0]
    assert row["k"] == "3" and row["d"] == "11" and row["cutoff"] == "smooth"
    # CSV round trip: parsed floats reproduce the record exactly (repr format)
    rec = res.records[0]
    assert float(row["variance"]) == rec.variance
    assert float(row["main_term"]) == rec.main_term
    assert float(row["ratio"]) == rec.ratio
    assert float(row["X"]) == rec.x
    stored = read_records(res.jsonl_path)
    assert len(stored) == 1
    assert stored[0]["report"]["variance"] == rec.variance
    assert stored[0]["schema_version"] == 1
    assert "timestamp" in stored[0]


def _strip_runtime(csv_text: str) -> str:
    lines = csv_text.splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        out.append(",".join(cols[:-1]))  # runtime_s is the last column
    return "\n".join(out)


def test_sweep_determinism_across_runs_and_workers(tmp_path):
    cfg = SweepConfig(
        k_list=(2, 3), d_list=(4, 12, 35), c_list=(1.1, 1.9), gamma_method="mc",
        samples=10**4, seed=3, cutoff="smooth",
    )
    res1 = run_sweep(cfg, out_dir=tmp_path / "r1")
    res2 = run_sweep(cfg, out_dir=tmp_path / "r2")
    cfg8 = SweepConfig(**{**cfg.__dict__, "workers": 8})
    res8 = run_sweep(cfg8, out_dir=tmp_path / "r8")
    assert res1.ok and res2.ok and res8.ok
    t1 = _strip_runtime(res1.csv_path.read_text())
    t2 = _strip_runtime(res2.csv_path.read_text())
    t8 = _strip_runtime(res8.csv_path.read_text())
    assert t1 == t2 == t8


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_isolates_point_failures(tmp_path, capsys, workers):
    # every other d is fine; d = 10^9 pushes X = d^1.5 over the sieve budget,
    # which at workers = 2 is raised in a pool worker, inside a batch that
    # also holds good points
    cfg = SweepConfig(
        k_list=(2,), d_list=(4, 5, 7, 8, 10**9, 9, 11, 12, 13), c_list=(1.5,), workers=workers,
    )
    bad = (2, 10**9, 1.5)
    batch = next(b for b in tauvar.sweep._batches(list(cfg.points()), cfg, workers) if bad in b)
    assert len(batch) == workers  # alone in process, beside (2, 8, 1.5) in the pool
    res = run_sweep(cfg, out_dir=tmp_path / "fail")
    assert not res.ok
    assert len(res.failures) == 1 and len(res.records) == 8
    point, err = res.failures[0]
    assert point == bad
    assert err.startswith("ValueError: range of ") and "exceeds the sieve budget" in err
    assert f"sweep point {point} failed: {err}" in capsys.readouterr().err
    good = [pt for pt in cfg.points() if pt != bad]
    assert [(r.k, r.d, r.c) for r in res.records] == good
    with open(res.csv_path, newline="") as f:
        assert len(list(csv.DictReader(f))) == 8


def test_sweep_point_checks_its_range_before_factoring_d(tmp_path, monkeypatch):
    # X = d^1.5 is far over the sieve budget; factoring d, a product of two
    # primes near 10^9, by trial division would take minutes
    d = 1000000007 * 1000000009

    def never(*args):
        raise AssertionError("d was factored before the range check")

    monkeypatch.setattr(tauvar.sweep, "_drop_local_factors", never)
    cfg = SweepConfig(k_list=(2,), d_list=(d,), c_list=(1.5,), cutoff="sharp")
    res = run_sweep(cfg, out_dir=tmp_path)
    with pytest.raises(ValueError, match="exceeds the sieve budget") as direct:
        experiment(2, d, 1.5, "sharp")
    assert res.failures == [((2, d, 1.5), f"ValueError: {direct.value}")]


def test_serial_sweep_flushes_each_row_before_the_next_point(tmp_path, monkeypatch):
    original = tauvar.sweep._run_point
    rows_before = []

    def run_point(*args):
        with open(tmp_path / "summary.csv", newline="") as f:
            rows_before.append(len(list(csv.DictReader(f))))
        return original(*args)

    monkeypatch.setattr(tauvar.sweep, "_run_point", run_point)
    monkeypatch.setattr(tauvar.sweep, "ProcessPoolExecutor", None)  # no process may start
    cfg = SweepConfig(k_list=(3,), d_list=(4, 5, 7, 8, 9, 11), c_list=(2.5,), workers=1)
    assert run_sweep(cfg, out_dir=tmp_path).ok
    assert rows_before == [0, 1, 2, 3, 4, 5]


# one small grid per gamma method; each method's domain needs its own (k, c)
METHOD_GRIDS = {
    "mc": dict(k_list=(2, 3), c_list=(1.3, 1.7)),
    "simple": dict(k_list=(3,), c_list=(2.5,)),
    "piecewise": dict(k_list=(3,), c_list=(1.3, 2.5)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", sorted(METHOD_GRIDS))
def test_sweep_records_equal_experiment(tmp_path, method, workers):
    cfg = SweepConfig(
        d_list=(4, 12, 35), gamma_method=method, samples=10**4, seed=7,
        workers=workers, **METHOD_GRIDS[method],
    )
    res = run_sweep(cfg, out_dir=tmp_path)
    assert res.ok and len(res.records) == len(list(cfg.points()))
    for rec, (k, d, c) in zip(res.records, cfg.points()):
        want = experiment(
            k, d, c, cfg.cutoff, method, mc_samples=cfg.samples, mc_seed=cfg.seed,
        ).to_dict()
        got = rec.to_dict()
        del want["wall_time_s"], got["wall_time_s"]
        assert got == want
        assert got["segment_size"] == DEFAULT_SEGMENT_SIZE


# 2 k x 3 d x 2 c points: 4 distinct gamma keys, 2 distinct a_k keys
MC_GRID = SweepConfig(
    k_list=(2, 3), d_list=(4, 12, 35), c_list=(1.3, 1.7), gamma_method="mc",
    samples=10**4,
)


def test_sweep_evaluates_each_constant_once_per_call(tmp_path, monkeypatch):
    calls = {"_gamma_mc_pass": 0, "gamma_k_mc": 0, "a_k_value": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # one Monte Carlo pass per k serves every c; gamma_eval's own reference,
    # a pass per (k, c), is never taken
    counted(tauvar.sweep, "_gamma_mc_pass")
    counted(tauvar.constants, "gamma_k_mc")
    counted(tauvar.sweep, "a_k_value")
    cfg = MC_GRID
    assert run_sweep(cfg, out_dir=tmp_path / "a").ok
    assert calls == {"_gamma_mc_pass": 2, "gamma_k_mc": 0, "a_k_value": 2}
    # nothing is kept between sweeps: the same config evaluates them again
    assert run_sweep(cfg, out_dir=tmp_path / "b").ok
    assert calls == {"_gamma_mc_pass": 4, "gamma_k_mc": 0, "a_k_value": 4}
    # the keys come from the points: a sweep without moduli evaluates nothing
    for workers in (1, 2):
        empty = SweepConfig(**{**cfg.__dict__, "d_list": (), "workers": workers})
        assert run_sweep(empty, out_dir=tmp_path / f"empty{workers}").ok
    assert calls == {"_gamma_mc_pass": 4, "gamma_k_mc": 0, "a_k_value": 4}


def _gamma_failing_at_3_17(k, c, *args, **kwargs):
    # patched into tauvar.sweep before the pool starts, so forked pool
    # workers run it too
    if (k, c) == (3, 1.7):
        raise RuntimeError("no gamma here")
    return gamma_eval(k, c, *args, **kwargs)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_isolates_a_failing_shared_constant(tmp_path, monkeypatch, workers):
    # k's gamma task reads each c through gamma_eval, so a failure at one
    # (k, c) fails only its points; at workers = 2, (3, 4, 1.3) and
    # (3, 4, 1.7) share a batch, and only the second may fail
    monkeypatch.setattr(tauvar.sweep, "gamma_eval", _gamma_failing_at_3_17)
    cfg = SweepConfig(**{**MC_GRID.__dict__, "workers": workers})
    batches = tauvar.sweep._batches(list(cfg.points()), cfg, workers)
    assert ([(3, 4, 1.3), (3, 4, 1.7)] in batches) == (workers == 2)
    res = run_sweep(cfg, out_dir=tmp_path)
    bad = [pt for pt in cfg.points() if pt[0] == 3 and pt[2] == 1.7]
    assert res.failures == [(pt, "RuntimeError: no gamma here") for pt in bad]
    good = [pt for pt in cfg.points() if pt not in bad]
    assert [(r.k, r.d, r.c) for r in res.records] == good
    with open(res.csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(int(r["k"]), int(r["d"]), float(r["c"])) for r in rows] == good
    assert len(read_records(res.jsonl_path)) == len(good)


def _pass_failing_at_3(k, *args):
    # reaches pool workers as _gamma_failing_at_3_17 does
    if k == 3:
        raise RuntimeError("no pass here")
    return tauvar.constants._gamma_mc_pass(k, *args)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_isolates_a_failing_gamma_pass(tmp_path, monkeypatch, workers):
    # one pass serves every c of a k, so its failure fails every point of
    # that k, and only those
    monkeypatch.setattr(tauvar.sweep, "_gamma_mc_pass", _pass_failing_at_3)
    cfg = SweepConfig(**{**MC_GRID.__dict__, "workers": workers})
    res = run_sweep(cfg, out_dir=tmp_path)
    bad = [pt for pt in cfg.points() if pt[0] == 3]
    assert res.failures == [(pt, "RuntimeError: no pass here") for pt in bad]
    assert [(r.k, r.d, r.c) for r in res.records] == [pt for pt in cfg.points() if pt[0] != 3]


def test_parallel_sweep_submits_one_task_per_batch(tmp_path, monkeypatch):
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            # map submits each batch as a partial of the pool's chunk runner
            submitted.append(getattr(fn, "__name__", "map task"))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(tauvar.sweep, "ProcessPoolExecutor", CountingPool)
    d_list = (4, 5, 7, 8, 9, 11, 12, 13, 35)
    cfg = SweepConfig(**{**MC_GRID.__dict__, "d_list": d_list, "workers": 2})
    assert run_sweep(cfg, out_dir=tmp_path).ok
    # a_k and gamma_k at every c, one task each per k
    constants = 2 * len(cfg.k_list)
    # one task per point, and per (k, c) for gamma, would be 6 + 36
    assert len(submitted) <= constants + tauvar.sweep._BATCHES_PER_WORKER * cfg.workers
    assert submitted.count("a_k_value") + submitted.count("_gammas") == constants
    assert submitted.count("map task") == len(tauvar.sweep._batches(list(cfg.points()), cfg, 2))



def test_broken_pool_fails_the_points_it_has_not_returned(tmp_path, monkeypatch):
    class BreakingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables):
            results = super().map(fn, *iterables)
            yield next(results)
            raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(tauvar.sweep, "ProcessPoolExecutor", BreakingPool)
    cfg = SweepConfig(**{**MC_GRID.__dict__, "workers": 2})
    first = tauvar.sweep._batches(list(cfg.points()), cfg, 2)[0]
    res = run_sweep(cfg, out_dir=tmp_path)
    assert [(r.k, r.d, r.c) for r in res.records] == first
    rest = [pt for pt in cfg.points() if pt not in first]
    assert res.failures == [(pt, "BrokenProcessPool: a worker died") for pt in rest]
    assert len(read_records(res.jsonl_path)) == len(first)

def _jobs(cfg):
    """The sweep's jobs for every point of cfg, with their constants."""
    return [
        (pt, a_k_value(pt[0]), gamma_eval(pt[0], pt[2], cfg.gamma_method, mc_samples=cfg.samples))
        for pt in cfg.points()
    ]


def _same_as_experiment(outcome, point, cfg):
    want = experiment(*point, cfg.cutoff, cfg.gamma_method, mc_samples=cfg.samples).to_dict()
    got = outcome.to_dict()
    del want["wall_time_s"], got["wall_time_s"]
    return got == want


def _counted_sieves(monkeypatch):
    """The (module, k, lo, hi) of every tau_k_segment call the sweep and the
    class sums make from here on."""
    calls = []
    for module in (tauvar.sweep, tauvar.variance):
        def counted(k, lo, hi, *args, _module=module, _original=module.tau_k_segment, **kwargs):
            calls.append((_module.__name__, k, lo, hi))
            return _original(k, lo, hi, *args, **kwargs)

        monkeypatch.setattr(module, "tau_k_segment", counted)
    return calls


def test_batch_sieves_once_per_k(monkeypatch):
    cfg = SweepConfig(
        k_list=(2, 3), d_list=(101, 103, 107), c_list=(1.3, 1.7), gamma_method="mc", samples=10**4
    )
    calls = _counted_sieves(monkeypatch)
    outcomes = tauvar.sweep._run_batch(_jobs(cfg), cfg)
    # one sieve per k, over the union of its six points' windows
    assert [call[:2] for call in calls] == [("tauvar.sweep", 2), ("tauvar.sweep", 3)]
    assert calls[0][2:] == (int(101**1.3) + 1, int(2 * 107**1.7) + 1)
    for outcome, point in zip(outcomes, cfg.points(), strict=True):
        assert _same_as_experiment(outcome, point, cfg)


def _overflowing_sieve(*args, **kwargs):
    raise OverflowError("tau_2 exceeds the 64-bit sieve range")


@pytest.mark.parametrize("case", ["over the cap", "overflows"])
def test_batch_points_sieve_alone_where_a_union_does_not_serve(monkeypatch, case):
    if case == "over the cap":
        # windows (X, 2X] from X = 585781 and 853968: a union of 1.12e6 > 2^20 entries
        cfg = SweepConfig(k_list=(2,), d_list=(7001, 9001), c_list=(1.5,))
        calls = _counted_sieves(monkeypatch)
    else:
        cfg = SweepConfig(k_list=(2,), d_list=(101, 103, 107), c_list=(1.5,))
        calls = _counted_sieves(monkeypatch)
        monkeypatch.setattr(tauvar.sweep, "tau_k_segment", _overflowing_sieve)
    outcomes = tauvar.sweep._run_batch(_jobs(cfg), cfg)
    # each point sieves its own window, and succeeds as it would alone
    assert [call[0] for call in calls] == ["tauvar.variance"] * len(cfg.d_list)
    for outcome, point in zip(outcomes, cfg.points(), strict=True):
        assert _same_as_experiment(outcome, point, cfg)


def test_batch_leaves_a_point_over_the_sieve_budget_out_of_its_union(monkeypatch):
    cfg = SweepConfig(k_list=(2,), d_list=(101, 10**9, 103, 107), c_list=(1.5,))
    calls = _counted_sieves(monkeypatch)
    outcomes = tauvar.sweep._run_batch(_jobs(cfg), cfg)
    # the three other points share one sieve, which stops at d = 107's window
    assert calls == [("tauvar.sweep", 2, int(101**1.5) + 1, int(2 * 107**1.5) + 1)]
    with pytest.raises(ValueError, match="exceeds the sieve budget") as direct:
        experiment(2, 10**9, 1.5)
    assert outcomes[1] == f"ValueError: {direct.value}"
    for outcome, point in zip(outcomes, cfg.points(), strict=True):
        assert point[1] == 10**9 or _same_as_experiment(outcome, point, cfg)


def test_parallel_batches_share_the_work_not_the_points():
    # c-ladders at one d: X = d^c grows 5-7% a step, so equal counts of
    # points would leave the last batches with most of the sieving
    def ladder(k, c0, n):
        c_list = tuple(c0 + 0.01 * i for i in range(n))
        return SweepConfig(k_list=(k,), d_list=(1009,), c_list=c_list)

    ladders = {"light": ladder(2, 1.4, 60), "heavy": ladder(3, 2.2, 71)}
    for name, cfg in ladders.items():
        points = list(cfg.points())
        cost = {pt: 1009.0 ** pt[2] + tauvar.sweep._POINT_COST_X for pt in points}
        for workers in (2, 3, 8):
            batches = tauvar.sweep._batches(points, cfg, workers)
            assert [pt for batch in batches for pt in batch] == points
            share = sum(cost.values()) / (tauvar.sweep._BATCHES_PER_WORKER * workers)
            unit = min(share, tauvar.sweep._BATCH_COST_X)
            assert all(len(b) == 1 or sum(cost[pt] for pt in b) < 2 * unit for b in batches)
            if name == "light":  # a few batches; one task per point gains nothing
                assert len(batches) <= tauvar.sweep._BATCHES_PER_WORKER * workers
            else:  # every point near or over the cap: one task each, as unbatched
                assert len(batches) == len(points)
    # a point that costs more than two shares runs alone; one over the sieve
    # budget, which fails at once, costs no more than the small ones
    cfg = SweepConfig(k_list=(3,), d_list=(4, 5, 7, 1009, 8, 9, 10**9, 11), c_list=(2.0,))
    points = list(cfg.points())
    batches = tauvar.sweep._batches(points, cfg, 2)
    assert [(3, 1009, 2.0)] in batches
    assert any(len(batch) > 1 and (3, 10**9, 2.0) in batch for batch in batches)
    assert [pt for batch in batches for pt in batch] == points
    assert len(tauvar.sweep._batches(points, cfg, 1)) == len(points)


def test_sweep_requires_out_dir():
    cfg = SweepConfig(k_list=(2,), d_list=(4,), c_list=(1.5,))
    with pytest.raises(ValueError, match="output directory"):
        run_sweep(cfg)
