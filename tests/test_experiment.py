import hashlib
import json
import math
from dataclasses import MISSING

import pytest

import hypermatch.experiment as exp
from hypermatch import check_perfect_matching
from hypermatch.rng import substream


def small_config(**overrides):
    base = dict(n=6, k=3, p=1.0, epsilon=0.1, trials=3, base_seed=11,
                partition_retries=5, pi_budget=10)
    base.update(overrides)
    return exp.ExperimentConfig(**base)


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        small_config(n=7).validate()
    with pytest.raises(ValueError):
        small_config(p=1.5).validate()
    with pytest.raises(ValueError):
        small_config(trials=0).validate()
    with pytest.raises(ValueError):
        small_config(adversary="chaos").validate()
    with pytest.raises(ValueError):
        small_config(v1_size=2).validate()
    with pytest.raises(ValueError):
        small_config(epsilon=-0.1).validate()
    with pytest.raises(ValueError):
        small_config(strategy="sideways").validate()
    for epsilon in (math.inf, math.nan):  # rejected before the threshold is derived from it
        for threshold in (None, 3):
            with pytest.raises(ValueError, match="epsilon"):
                small_config(epsilon=epsilon, greedy_threshold=threshold).validate()


@pytest.mark.parametrize("p", [1.0, 0.0])
def test_overflowing_threshold_is_an_epsilon_error(p):
    # (1/2 + 1e308) * 6 * p is inf at p = 1 and nan at p = 0
    for adversary in exp.ADVERSARIES:
        cfg = small_config(p=p, epsilon=1e308, adversary=adversary)
        with pytest.raises(ValueError, match=r"epsilon 1e\+308"):
            cfg.validate()
    small_config(p=p, epsilon=1e308, adversary="greedy", greedy_threshold=3).validate()


def test_strategy_names_come_from_the_pipeline():
    from hypermatch.cli import _STRATEGIES
    from hypermatch.pipeline import STRATEGIES

    for name in STRATEGIES:
        small_config(strategy=name).validate()
    assert sorted(_STRATEGIES.values()) == sorted(STRATEGIES)


def test_threshold_rule():
    cfg = small_config(n=60, p=0.5, epsilon=0.2, adversary="greedy")
    assert cfg.resolved_threshold() == math.ceil(0.7 * 60 * 0.5) == 21
    assert small_config(adversary="greedy", greedy_threshold=5).resolved_threshold() == 5


def test_config_json_round_trip():
    cfg = small_config(adversary="greedy", greedy_threshold=4)
    assert exp.ExperimentConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        exp.ExperimentConfig.from_json(json.dumps({"n": 6, "bogus": 1}))


@pytest.mark.parametrize("field,value", [
    ("n", "6"), ("trials", 2.0), ("base_seed", True), ("k", None), ("p", "1"),
    ("adversary", 3), ("record_timing", 1), ("greedy_threshold", 1.5), ("pi_budget", [10]),
    ("epsilon", MISSING), ("base_seed", MISSING),
])
def test_config_json_rejects_wrong_types(field, value):
    data = json.loads(small_config().to_json())
    if value is MISSING:
        del data[field]
    else:
        data[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        exp.ExperimentConfig.from_json(json.dumps(data))


def test_config_json_accepts_int_for_float_and_null_for_optional():
    data = json.loads(small_config().to_json())
    data.update(p=1, epsilon=1, greedy_threshold=None, v1_size=3)
    cfg = exp.ExperimentConfig.from_json(json.dumps(data))
    assert (cfg.p, cfg.epsilon, cfg.greedy_threshold, cfg.v1_size) == (1, 1, None, 3)
    with pytest.raises(ValueError):
        exp.ExperimentConfig.from_json("[6, 3]")


def test_complete_instance_all_match():
    outs = exp.run_experiment(small_config())
    assert len(outs) == 3
    for o in outs:
        assert o.record.matched and o.record.verified
        assert o.record.failure_stage == ""
        assert o.matching is not None


def test_parity_adversary_never_matches():
    outs = exp.run_experiment(small_config(adversary="parity", p=0.9, trials=4))
    for o in outs:
        assert not o.record.matched and not o.record.verified
        assert o.record.failure_stage == "pi-search"
        assert o.certificate is not None
        assert o.record.edges_after < o.record.edges_before


def test_trial_seed_derivation_and_hermeticity():
    cfg = small_config(trials=4)
    outs = exp.run_experiment(cfg)
    for t, o in enumerate(outs):
        assert o.record.trial == t
        assert o.record.seed == substream(cfg.base_seed, t)
    # single trial rerun reproduces the full-run record
    solo = exp.run_trial(cfg, 2)
    assert solo.record == outs[2].record


def test_matchings_verify_against_rederived_hypergraph():
    cfg = small_config(n=12, p=0.8, adversary="greedy", greedy_threshold=3, trials=4)
    for o in exp.run_experiment(cfg):
        if o.record.matched:
            _, resisted = exp.derive_trial_hypergraphs(cfg, o.record.trial)
            assert check_perfect_matching(resisted, o.matching).ok


def test_records_deterministic_and_schedule_independent():
    cfg = small_config(n=12, p=0.7, trials=6, adversary="greedy", greedy_threshold=2)
    serial = exp.records(exp.run_experiment(cfg))
    again = exp.records(exp.run_experiment(cfg))
    threaded = exp.records(exp.run_experiment(cfg, workers=3))
    assert serial == again == threaded
    # parity trials spend all 40 pi attempts, drawn in blocks 1, 2-3, ..., 32-40
    cfg = small_config(n=12, p=0.8, trials=4, adversary="parity", pi_budget=40)
    one, two = exp.run_experiment(cfg, workers=1), exp.run_experiment(cfg, workers=2)
    assert [o.record.pi_attempts for o in one] == [40] * 4
    assert exp.records_to_csv(exp.records(one)).encode() == exp.records_to_csv(exp.records(two)).encode()
    assert exp.outcomes_to_json(cfg, one).encode() == exp.outcomes_to_json(cfg, two).encode()


@pytest.mark.parametrize("workers", [0, -1])
def test_run_experiment_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        exp.run_experiment(small_config(trials=2), workers=workers)


@pytest.mark.parametrize("workers,trials,cpus,threads", [
    (10**9, 3, 8, 3), (10**9, 20, 8, 8), (5, 20, 8, 5), (4, 20, None, None)])
def test_thread_count_is_capped(workers, trials, cpus, threads, monkeypatch):
    # a stand-in executor records the thread count it is asked for and
    # runs the trials in the calling thread
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(exp, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(exp.os, "cpu_count", lambda: cpus)
    cfg = small_config(trials=trials)
    outcomes = exp.run_experiment(cfg, workers=workers)
    assert asked == ([threads] if threads else [])  # one thread runs the trials itself
    assert exp.records(outcomes) == exp.records(exp.run_experiment(cfg))


def test_csv_header_and_round_trip(tmp_path):
    cfg = small_config(trials=3)
    recs = exp.records(exp.run_experiment(cfg))
    text = exp.records_to_csv(recs)
    assert text.splitlines()[0] == ",".join(exp.CSV_COLUMNS)
    path = tmp_path / "runs.csv"
    exp.write_records_csv(path, recs)
    assert exp.read_records_csv(path) == recs


@pytest.mark.parametrize("column,cell", [("matched", "banana"), ("verified", "True"),
                                         ("pi_attempts", "1.5"), ("p", "x")])
def test_csv_rejects_cells_of_the_wrong_type(tmp_path, column, cell):
    recs = exp.records(exp.run_experiment(small_config(trials=2)))
    lines = exp.records_to_csv(recs).splitlines()
    row = lines[2].split(",")
    row[exp.CSV_COLUMNS.index(column)] = cell
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines[:2] + [",".join(row)]) + "\n")
    with pytest.raises(ValueError, match=f"bad.csv:3: column '{column}'"):
        exp.read_records_csv(path)


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = small_config(n=12, p=0.8, trials=5, adversary="parity")
    a = exp.records_to_csv(exp.records(exp.run_experiment(cfg)))
    b = exp.records_to_csv(exp.records(exp.run_experiment(cfg)))
    assert a.encode() == b.encode()


# SHA-256 of records_to_csv and of outcomes_to_json (which adds the
# matchings and Hall certificates) for small configs of every adversary. A
# change of data representation or of a vectorized path must leave both
# byte-identical; an intended change of behaviour re-pins them.
PINNED_OUTPUTS = [
    (dict(n=36, k=3, p=0.4, adversary="none", strategy="full-random"),
     "2f834e799d72067e913b79f1a5ce5d7374df1fac06ec7c91a43fe1d7b379c2b2",
     "e3d6968c0157da86aeb041107b33fd319e1654809ed60980e8a85c3ffb1c9814"),
    (dict(n=30, k=3, p=0.5, adversary="parity", pi_budget=40),
     "b616534bd38984a269024e9b722a21a4fba0f631aef21ce4765726866373f6b9",
     "e9ddc6357219526fc06edc075feaddbda24eb51211030b7cadfe0f3046aed256"),
    (dict(n=30, k=3, p=0.5, adversary="greedy"),
     "224dbd6bd02c7f7824de4143eb2443562e3b23b818ae82e373179ed815ebb037",
     "3a9c4882d7417f5711ef60881903acb67917ae28fab61b6f6344f0f115b64f58"),
    (dict(n=20, k=2, p=0.3, adversary="none"),
     "0c85e29adae8a0b2c6004195a2fcc717dcaf56066416513ac7913a59f62e3961",
     "2d19c31610b4610acfe03641bdaf1ad691ab5c68a6154df2343ded0207dcde0b"),
    (dict(n=16, k=4, p=0.5, adversary="greedy", strategy="full-random"),
     "3e2fcf3e30f4bf1331b13fc89cc7ffe41c6e1cddc55f36c8badbfd84f26ac61d",
     "c5e8ec5544c400bcc880c148cb97f68ff69d6646d61c049fd236258922e5b272"),
]


@pytest.mark.parametrize("overrides,csv_sha,json_sha", PINNED_OUTPUTS,
                         ids=["none-k3", "parity-k3", "greedy-k3", "none-k2", "greedy-k4"])
def test_output_pinned(overrides, csv_sha, json_sha):
    cfg = exp.ExperimentConfig(epsilon=0.2, trials=3, base_seed=2024, **overrides)
    outs = exp.run_experiment(cfg)
    csv_text = exp.records_to_csv(exp.records(outs))
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == csv_sha
    json_text = exp.outcomes_to_json(cfg, outs)
    assert hashlib.sha256(json_text.encode("utf-8")).hexdigest() == json_sha


def test_timing_flag_populates_runtime(tmp_path):
    silent = exp.records(exp.run_experiment(small_config()))
    assert all(r.runtime_ms == 0 for r in silent)
    timed = exp.records(exp.run_experiment(small_config(record_timing=True)))
    assert all(r.runtime_ms >= 0 for r in timed)


def test_summarize_counts():
    cfg = small_config(trials=3)
    recs = exp.records(exp.run_experiment(cfg))
    summary = exp.summarize(recs)
    assert summary.trials == 3 and summary.matched == 3
    assert summary.success_rate == 1.0
    mixed = recs + exp.records(exp.run_experiment(small_config(adversary="parity", p=0.9, trials=7)))
    assert exp.summarize(mixed).success_rate == 0.3
    with pytest.raises(ValueError):
        exp.summarize([])


def test_summary_round_trips_through_csv(tmp_path):
    cfg = small_config(n=12, p=0.8, trials=6, adversary="greedy", greedy_threshold=2)
    recs = exp.records(exp.run_experiment(cfg))
    path = tmp_path / "r.csv"
    exp.write_records_csv(path, recs)
    assert exp.summarize(exp.read_records_csv(path)) == exp.summarize(recs)


def test_json_superset_of_csv(tmp_path):
    cfg = small_config(adversary="parity", p=0.9, trials=2)
    outs = exp.run_experiment(cfg)
    payload = json.loads(exp.outcomes_to_json(cfg, outs))
    assert set(payload) == {"config", "records", "summary"}
    for rec in payload["records"]:
        assert set(exp.CSV_COLUMNS) <= set(rec)
        assert rec["certificate"] is not None  # parity trials always fail
    path = tmp_path / "r.json"
    exp.write_outcomes_json(path, cfg, outs)
    assert json.loads(path.read_text()) == payload
