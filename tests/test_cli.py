import json

import pytest

from hypermatch import Hypergraph, check_perfect_matching, sample_hypergraph
from hypermatch.cli import main
from hypermatch.fileio import read_hypergraph, write_hypergraph

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_expected_file(tmp_path, capsys):
    out = tmp_path / "h.txt"
    code, stdout, _ = run_cli(capsys, "gen", "--n", "10", "--k", "3", "--p", "0.5",
                              "--seed", "42", "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)
    h = read_hypergraph(out)
    assert h == sample_hypergraph(10, 3, 0.5, 42)
    assert payload["edges"] == len(h.edges)


def test_partition_reports_json(tmp_path, capsys):
    path = tmp_path / "h.txt"
    write_hypergraph(path, Hypergraph(6, 3, oracles.complete_edges(6, 3)))
    code, stdout, _ = run_cli(capsys, "partition", "--in", str(path),
                              "--seed", "3", "--alpha", "0.9")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["alpha"] == 0.9
    assert payload["checked"] == 15
    assert len(payload["parts"]) == 3
    assert payload["violation_count"] == len(payload["violations"])


def test_adversary_parity(tmp_path, capsys):
    src = tmp_path / "h.txt"
    dst = tmp_path / "out.txt"
    write_hypergraph(src, Hypergraph(6, 3, oracles.complete_edges(6, 3)))
    code, stdout, _ = run_cli(capsys, "adversary", "--in", str(src), "--mode", "parity",
                              "--out", str(dst))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["deleted"] == 10 and payload["edges_after"] == 10
    assert len(read_hypergraph(dst).edges) == 10


def test_adversary_greedy_requires_threshold(tmp_path, capsys):
    src = tmp_path / "h.txt"
    write_hypergraph(src, Hypergraph(6, 3, oracles.complete_edges(6, 3)))
    code, _, err = run_cli(capsys, "adversary", "--in", str(src), "--mode", "greedy",
                           "--out", str(tmp_path / "o.txt"))
    assert code == 1 and "threshold" in err


def test_pipeline_success_writes_matching(tmp_path, capsys):
    src = tmp_path / "h.txt"
    dst = tmp_path / "m.txt"
    h = Hypergraph(6, 3, oracles.complete_edges(6, 3))
    write_hypergraph(src, h)
    code, stdout, _ = run_cli(capsys, "pipeline", "--in", str(src), "--epsilon", "0.1",
                              "--seed", "7", "--out", str(dst))
    assert code == 0
    assert json.loads(stdout)["matched"] is True
    matching = [tuple(map(int, line.split())) for line in dst.read_text().splitlines()]
    assert check_perfect_matching(h, matching).ok


def test_pipeline_failure_writes_report(tmp_path, capsys):
    src = tmp_path / "h.txt"
    dst = tmp_path / "report.json"
    write_hypergraph(src, Hypergraph(6, 3, [(0, 1, 2)]))
    code, stdout, _ = run_cli(capsys, "pipeline", "--in", str(src), "--epsilon", "0.1",
                              "--seed", "7", "--pi-budget", "4", "--out", str(dst))
    assert code == 2
    payload = json.loads(dst.read_text())
    assert payload["matched"] is False
    assert payload["certificate"] is not None
    assert json.loads(stdout) == payload


def test_match_subcommand(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("2\n0 1\n-\n")
    code, stdout, _ = run_cli(capsys, "match", "--bipartite", str(path))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["size"] == 1 and payload["perfect"] is False
    assert payload["certificate"]["neighborhood"] == []


# exact stdout at pinned inputs, the out path blanked: the JSON views must not drift
PINNED_MATCH = """\
{
  "certificate": {
    "members": [
      1,
      2
    ],
    "neighborhood": [
      0
    ],
    "side": "left"
  },
  "m": 3,
  "perfect": false,
  "rows": [
    1,
    0,
    -1
  ],
  "size": 2
}
"""

PINNED_PARITY = """\
{
  "deleted": 10,
  "edges_after": 10,
  "edges_before": 20,
  "mode": "parity",
  "out": "OUT",
  "params": {
    "v1": [
      0,
      1,
      2
    ]
  },
  "residual_min_codegree": 1
}
"""

PINNED_FAILURE = """\
{
  "alpha": 0.08333333333333334,
  "certificate": {
    "members": [
      1
    ],
    "neighborhood": [],
    "side": "left"
  },
  "delta_star": 0,
  "failure_stage": "pi-search",
  "matched": false,
  "out": "OUT",
  "partition_attempts": 20,
  "partition_passed": false,
  "partition_worst_deviation": 2.0,
  "pi_attempts": 4,
  "verified": false
}
"""


@pytest.mark.parametrize("argv, code, expected", [
    (["match", "--bipartite", "B"], 0, PINNED_MATCH),
    (["adversary", "--in", "H", "--mode", "parity", "--out", "OUT"], 0, PINNED_PARITY),
    (["pipeline", "--in", "F", "--epsilon", "0.1", "--seed", "7", "--pi-budget", "4",
      "--out", "OUT"], 2, PINNED_FAILURE),
])
def test_json_stdout_pinned(tmp_path, capsys, argv, code, expected):
    files = {name: tmp_path / name for name in ("B", "H", "F", "OUT")}
    files["B"].write_text("3\n0 1 2\n0\n0\n")
    write_hypergraph(files["H"], Hypergraph(6, 3, oracles.complete_edges(6, 3)))
    write_hypergraph(files["F"], Hypergraph(6, 3, [(0, 1, 2)]))
    got, stdout, _ = run_cli(capsys, *[str(files.get(arg, arg)) for arg in argv])
    blank = json.dumps(str(files["OUT"]))
    assert (got, stdout.replace(blank, '"OUT"')) == (code, expected)
    if argv[0] == "pipeline":  # the failure report is the stdout payload
        assert files["OUT"].read_text().replace(blank, '"OUT"') == expected


def test_stats_exact(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n10\n11\n")
    code, stdout, _ = run_cli(capsys, "stats", "--mode", "exact", "--matrix", str(path),
                              "--alpha", "0.7")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["mu"] == 1.5 and payload["variance"] == 0.25
    assert payload["median"] == 1.0 and payload["containment"] is True
    assert payload["mode"] == "exact"
    assert set(payload) == {"mu", "variance", "variance_bound", "median", "containment", "mode"}


def test_stats_empirical_needs_samples(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n10\n11\n")
    code, _, err = run_cli(capsys, "stats", "--mode", "empirical", "--matrix", str(path))
    assert code == 1 and "samples" in err


def test_experiment_flags_csv(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code, stdout, _ = run_cli(capsys, "experiment", "--n", "6", "--k", "3", "--p", "1.0",
                              "--epsilon", "0.1", "--trials", "2", "--seed", "5",
                              "--out", str(out), "--format", "csv")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["summary"]["success_rate"] == 1.0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,seed,n,k,p")
    assert len(lines) == 3


def test_experiment_config_file_and_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 6, "k": 3, "p": 1.0, "epsilon": 0.1, "trials": 2,
        "base_seed": 5, "adversary": "none", "partition_retries": 5, "pi_budget": 10,
    }))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(capsys, "experiment", "--config", str(cfg_path), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "experiment", "--config", str(cfg_path), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_config_wrong_type_is_one_line_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": "60", "k": 3, "p": 0.5, "epsilon": 0.2, "trials": 1, "base_seed": 1,
    }))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 1
    assert err.strip().splitlines() == ["error: config field 'n' must be int, got '60'"]


@pytest.mark.parametrize("command,flag", [("partition", "--in"), ("experiment", "--config")])
def test_undecodable_input_is_one_line_error_naming_the_path(tmp_path, capsys, command, flag):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 6\n0 1 2 \xff\n")
    extra = ["--seed", "1", "--alpha", "0.1"] if command == "partition" else []
    code, _, err = run_cli(capsys, command, flag, str(path), *extra)
    assert code == 1
    assert err.strip().splitlines() == [f"error: {path}:2: not UTF-8 text (invalid start byte at byte 10)"]


@pytest.mark.parametrize("text,where", [
    ('{"n": 6,', "1: not valid JSON (Expecting property name enclosed in double quotes at column 9)"),
    ('{"n": 6,\n "k": 3\n "p": 1}', "3: not valid JSON (Expecting ',' delimiter at column 2)"),
    ("", "1: not valid JSON (Expecting value at column 1)"),
])
def test_experiment_config_invalid_json_is_one_line_error_naming_the_path(tmp_path, capsys, text, where):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run_cli(capsys, "experiment", "--config", str(cfg_path)) == (1, "", f"error: {cfg_path}:{where}\n")


def test_experiment_config_missing_fields_is_one_line_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 6}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 1
    assert err.strip().splitlines() == [
        "error: missing config fields: ['k', 'p', 'epsilon', 'trials', 'base_seed']"]


@pytest.mark.parametrize("argv", [
    ["experiment", "--n", "6", "--k", "3", "--p", "1", "--trials", "1", "--epsilon", "inf"],
    ["experiment", "--n", "6", "--k", "3", "--p", "1", "--trials", "1", "--epsilon", "nan"],
    ["pipeline", "--in", "H", "--out", "OUT", "--seed", "1", "--epsilon", "nan"],
    ["partition", "--in", "H", "--seed", "1", "--alpha", "nan"],
    ["stats", "--mode", "exact", "--matrix", "M", "--alpha", "nan"],
    ["stats", "--mode", "exact", "--matrix", "M", "--alpha", "-2"],
    ["stats", "--mode", "empirical", "--matrix", "M", "--samples", "10", "--alpha", "inf"],
    # finite epsilon whose greedy threshold (1/2 + epsilon)*n*p overflows
    ["experiment", "--n", "6", "--k", "3", "--p", "1", "--trials", "1", "--epsilon", "1e308"],
])
def test_non_finite_parameters_are_one_line_errors(tmp_path, capsys, argv):
    path = tmp_path / "h.txt"
    write_hypergraph(path, Hypergraph(6, 3, oracles.complete_edges(6, 3)))
    (tmp_path / "m.txt").write_text("2\n10\n11\n")
    files = {"H": str(path), "M": str(tmp_path / "m.txt"), "OUT": str(tmp_path / "o.txt")}
    code, _, err = run_cli(capsys, *[files.get(arg, arg) for arg in argv])
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "finite" in err


def test_oversized_sample_is_one_line_error(tmp_path, capsys):
    # C(100000, 3) * 100000 exceeds the int64 range of subset ranks, so the
    # sampler refuses it before it draws a single word
    code, _, err = run_cli(capsys, "gen", "--n", "100000", "--k", "3", "--p", "0.001",
                           "--seed", "1", "--out", str(tmp_path / "h.txt"))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_experiment_missing_flags(tmp_path, capsys):
    # the flags go through the config file's checks, so both say the same
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 6, "base_seed": 0}))
    error = "error: missing config fields: ['k', 'p', 'epsilon', 'trials']\n"
    assert run_cli(capsys, "experiment", "--n", "6") == (1, "", error)
    assert run_cli(capsys, "experiment", "--config", str(cfg_path)) == (1, "", error)


# the same experiment as flags and as a config file
FLAGS_AND_FILE = [
    (["--p", "1", "--epsilon", "1"], {"p": 1, "epsilon": 1}),
    (["--p", "0.9", "--epsilon", "0.2", "--adversary", "parity", "--strategy", "full"],
     {"p": 0.9, "epsilon": 0.2, "adversary": "parity", "strategy": "full-random"}),
    (["--p", "1", "--epsilon", "1", "--adversary", "parity", "--v1-size", "5", "--strategy", "pi1"],
     {"p": 1, "epsilon": 1, "adversary": "parity", "v1_size": 5, "strategy": "pi1-only"}),
    (["--p", "0.9", "--epsilon", "0.2", "--adversary", "greedy", "--pi-budget", "5"],
     {"p": 0.9, "epsilon": 0.2, "adversary": "greedy", "pi_budget": 5}),
    (["--p", "1", "--epsilon", "1", "--adversary", "greedy", "--threshold", "2",
      "--partition-retries", "3", "--strategy", "full"],
     {"p": 1, "epsilon": 1, "adversary": "greedy", "greedy_threshold": 2, "partition_retries": 3,
      "strategy": "full-random"}),
]


@pytest.mark.parametrize("flags, fields", FLAGS_AND_FILE, ids=[
    "none-int", "parity-full", "parity-v1-int", "greedy", "greedy-threshold-int"])
def test_experiment_flags_and_config_file_agree(tmp_path, capsys, flags, fields):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 9, "k": 3, "trials": 3, "base_seed": 5, **fields}))
    out = tmp_path / "e.csv"
    by_flags = run_cli(capsys, "experiment", "--n", "9", "--k", "3", "--trials", "3",
                       "--seed", "5", *flags, "--out", str(out))
    csv_by_flags = out.read_bytes()
    by_file = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out", str(out))
    assert by_flags[0] == 0
    assert by_file == by_flags
    assert out.read_bytes() == csv_by_flags
    if fields["p"] == 1:  # an int p or epsilon is stored as a float
        assert b",9,3,1.0,1.0," in csv_by_flags


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000], ids=["array", "object"])
def test_experiment_deeply_nested_config_is_one_line_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert (code, err) == (1, "error: config JSON nests too deeply\n")


def test_unreadable_input_reports_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "match", "--bipartite", str(tmp_path / "missing.txt"))
    assert code == 1 and "missing.txt" in err


def test_bad_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["pipeline", "--in", "h.txt", "--epsilon", "0.2", "--seed", "1", "--out", "m.txt", "--pi-budget", "abc"],
    ["partition", "--in", "h.txt", "--seed", "1", "--alpha", "0.1", "--k", "3"],
    ["frobnicate"],
    ["pipeline", "--epsilon", "0.2"],
])
def test_usage_errors_exit_1(argv, capsys):
    # 2 is reserved for a failed pipeline (test_pipeline_failure_writes_report)
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_rejects_nonpositive_workers(workers, capsys):
    code, _, err = run_cli(capsys, "experiment", "--n", "6", "--k", "3", "--p", "0.5",
                           "--epsilon", "0.2", "--trials", "2", "--workers", workers)
    assert code == 1 and "workers" in err
