import json

import pytest

from hypercore.cli import main

FIG5 = "a b e\na c d\nc d e\n"


@pytest.fixture
def fig_file(tmp_path):
    p = tmp_path / "fig.hg"
    p.write_text(FIG5)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_single_edge(tmp_path, capsys):
    p = tmp_path / "one.hg"
    p.write_text("a b c\n")
    code, out, _ = run(capsys, "decompose", str(p), "--algorithm", "peel")
    assert code == 0
    assert out == "a\t2\nb\t2\nc\t2\n"


def test_decompose_parallel_matches_peel(fig_file, capsys):
    _, body_peel, _ = run(capsys, "decompose", fig_file, "--algorithm", "peel")
    _, body_local, _ = run(capsys, "decompose", fig_file,
                           "--algorithm", "local", "--threads", "4")
    assert body_peel == body_local


def test_decompose_naive_h(fig_file, capsys):
    code, out, _ = run(capsys, "decompose", fig_file, "--algorithm", "naive-h")
    assert code == 0
    got = dict(line.split("\t") for line in out.strip().splitlines())
    assert got == {"a": "3", "b": "2", "c": "3", "d": "3", "e": "3"}


def test_decompose_stats_sidecar(fig_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code, _, _ = run(capsys, "decompose", fig_file, "--stats", str(stats))
    assert code == 0
    payload = json.loads(stats.read_text())
    assert payload["algorithm"] == "local" and payload["rounds"] >= 1


def test_decompose_no_opt3_matches_peel(fig_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    _, body_peel, _ = run(capsys, "decompose", fig_file, "--algorithm", "peel")
    code, body_local, _ = run(capsys, "decompose", fig_file, "--algorithm", "local",
                              "--no-opt3", "--stats", str(stats))
    assert code == 0 and body_local == body_peel
    assert json.loads(stats.read_text())["rounds"] >= 1


def test_decompose_out_file(fig_file, tmp_path, capsys):
    out_path = tmp_path / "cores.tsv"
    code, out, _ = run(capsys, "decompose", fig_file, "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("a\t2\n")


def test_isolated_nodes_reported_zero(tmp_path, capsys):
    p = tmp_path / "iso.hg"
    p.write_text("a b\nc\n")
    code, out, _ = run(capsys, "decompose", str(p), "--lenient")
    assert code == 0
    assert "c\t0" in out


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.hg"
    p.write_text("a b\nc\n")
    code, _, err = run(capsys, "decompose", str(p))
    assert code == 2 and "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/x.hg")
    assert code == 2


def test_guard_exit_code(tmp_path, capsys):
    gen_path = tmp_path / "big.hg"
    assert run(capsys, "gen", "--n", "25", "--m", "40", "--out", str(gen_path))[0] == 0
    code, _, err = run(capsys, "densest", str(gen_path), "--method", "brute")
    assert code == 3 and "guard" in err


def test_kdcore_output(fig_file, capsys):
    code, out, _ = run(capsys, "kdcore", fig_file)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert all(len(r) == 3 for r in rows)
    assert {r[1] for r in rows} == {"1", "2"}


def test_densest_json(fig_file, capsys):
    code, out, _ = run(capsys, "densest", fig_file, "--method", "exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == "16/5"
    assert payload["size"] == 5
    assert payload["members"] == ["a", "b", "c", "d", "e"]


def test_sir_runs_and_aggregate(fig_file, tmp_path, capsys):
    agg = tmp_path / "agg.csv"
    code, out, _ = run(capsys, "sir", fig_file, "--seed-node", "a",
                       "--beta", "1.0", "--runs", "3",
                       "--aggregate-out", str(agg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "run\tseed\tcore\tspread"
    assert len(lines) == 4 and all(l.endswith("\t5") for l in lines[1:])
    assert agg.read_text().splitlines()[0] == "core,runs,mean_spread"


def test_sir_unknown_seed(fig_file, capsys):
    code, _, err = run(capsys, "sir", fig_file, "--seed-node", "zz", "--beta", "0.5")
    assert code == 2


def test_sir_intervention(fig_file, capsys):
    code, out, _ = run(capsys, "sir", fig_file, "--seed-node", "a",
                       "--beta", "1.0", "--delete-top-k", "1", "--rank-by", "core")
    # node 'a' has the lowest id among the (all-equal) cores, so it is deleted
    assert code == 2  # seed no longer present


def test_gen_deterministic(tmp_path, capsys):
    _, out1, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    _, out2, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    assert out1 == out2 and len(out1.strip().splitlines()) == 8


def test_stats_json(fig_file, capsys):
    code, out, _ = run(capsys, "stats", fig_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 5 and payload["edges"] == 3
    assert payload["cardinality"]["mean"] == 3.0
