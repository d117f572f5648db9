import json
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import hypercore
from hypercore import densest, model
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


def test_decompose_threads2_matches_peel(fig_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    _, body_peel, _ = run(capsys, "decompose", fig_file, "--algorithm", "peel")
    code, body_local, _ = run(capsys, "decompose", fig_file, "--algorithm", "local",
                              "--threads", "2", "--stats", str(stats))
    assert code == 0 and body_local == body_peel
    assert json.loads(stats.read_text())["rounds"] >= 1


def test_decompose_thread_count_guard(fig_file, capsys, monkeypatch):
    # a refused count must fail before any pool exists; the stub refuses to
    # start a thread, so a missing guard cannot start them either
    started = []

    def refuse_start(self):
        started.append(self)
        raise RuntimeError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse_start)
    for algorithm in ("local", "peel"):
        for threads in ("0", "65", "1000000000000"):
            code, out, err = run(capsys, "decompose", fig_file, "--algorithm", algorithm,
                                 "--threads", threads)
            assert code == 2 and out == "" and started == [], (algorithm, threads)
            assert err.startswith("error: threads must be between") and err.count("\n") == 1, err


def test_decompose_clique(tmp_path, capsys):
    p = tmp_path / "clique.hg"
    p.write_text("x a b\na c\na d\nb c\nb d\nc d\n")
    stats = tmp_path / "stats.json"
    code, out, _ = run(capsys, "decompose", str(p), "--algorithm", "clique",
                       "--stats", str(stats))
    assert code == 0
    assert out == "x\t2\na\t3\nb\t3\nc\t3\nd\t3\n"
    # peel's counters on the expansion
    counters = json.loads(stats.read_text())["counters"]
    assert set(counters) == {"neighborhood_recomputations", "cell_updates"}
    lenient = tmp_path / "iso.hg"
    lenient.write_text("a b c\nz\n")
    code, out, _ = run(capsys, "decompose", str(lenient), "--algorithm", "clique", "--lenient")
    assert code == 0
    assert out == "a\t2\nb\t2\nc\t2\nz\t0\n"


def test_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(hypercore.__file__))
    probe = "import sys, hypercore.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "False\n"


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


def test_non_utf8_input_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.hg"
    p.write_bytes(b"a b\nc \xff d\n")
    code, out, err = run(capsys, "decompose", str(p))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {p}: not UTF-8 text at byte offset 6"]


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
                       "--beta", "1.0", "--delete-top-k", "1")
    # node 'a' has the lowest id among the (all-equal) cores, so it is deleted
    assert code == 2  # seed no longer present


def test_sir_negative_counts_refused(fig_file, capsys):
    for flag, value in (("--delete-top-k", "-1"), ("--delete-top-k", "-3"),
                        ("--runs", "-2"), ("--max-steps", "-1")):
        code, out, err = run(capsys, "sir", fig_file, "--beta", "0.5", flag, value)
        assert code == 2 and out == "", flag
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


def test_sir_beta_refused_before_any_run(fig_file, tmp_path, capsys):
    # with no run to make, only the up-front check sees the bad beta
    for beta in ("5", "-0.1"):
        code, out, err = run(capsys, "sir", fig_file, "--beta", beta, "--runs", "0")
        assert code == 2 and out == "", beta
        assert err.startswith("error: beta must be in [0, 1]") and err.count("\n") == 1, err
    # checked before the input is read
    code, _, err = run(capsys, "sir", str(tmp_path / "missing.hg"), "--beta", "5")
    assert code == 2 and err.startswith("error: beta must be in [0, 1]"), err


def test_densest_exact_long_path_without_deep_recursion(tmp_path, capsys):
    # a max-flow augmenting path can run the length of the chain; allow
    # only 50 frames beyond this test's own stack depth.  A first call at the
    # normal limit runs the library's lazy imports, which nest deeply.
    p = tmp_path / "path.hg"
    p.write_text("".join(f"p{i} p{i + 1}\n" for i in range(99)))
    assert run(capsys, "densest", str(p), "--method", "exact")[0] == 0
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        code, out, _ = run(capsys, "densest", str(p), "--method", "exact")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["density"]) == Fraction(99, 50) and payload["size"] == 100


def test_pair_row_guard(fig_file, capsys, monkeypatch):
    # three triples: 3 * 3 * 2 = 18 ordered pair rows
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 18)
    assert run(capsys, "decompose", fig_file)[0] == 0
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 17)
    code, out, err = run(capsys, "decompose", fig_file)
    assert code == 3 and out == "" and "18 pair rows > 17" in err


def test_densest_exact_refused_before_any_probe(tmp_path, capsys, monkeypatch):
    # a b c and a b d share the pair (a, b); a path brings n to 25 > 20
    p = tmp_path / "shared.hg"
    p.write_text("a b c\na b d\nd p0\n" + "".join(f"p{i} p{i + 1}\n" for i in range(20)))

    def no_probe(H, eta):
        raise AssertionError("flow probe built")

    monkeypatch.setattr(densest, "_flow_probe", no_probe)
    code, out, err = run(capsys, "densest", str(p), "--method", "exact")
    assert code == 3 and out == "" and "enumeration guard: 25 nodes > 20" in err


def test_gen_deterministic(tmp_path, capsys):
    _, out1, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    _, out2, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    assert out1 == out2 and len(out1.strip().splitlines()) == 8


def test_gen_pair_table_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 100)
    code, out, err = run(capsys, "gen", "--n", "10", "--m", "20",
                         "--card-min", "3", "--card-max", "3")
    assert code == 3 and out == ""
    assert err == "error: pair-table guard: at least 120 pair rows > 100\n"


def test_stats_json(fig_file, capsys):
    code, out, _ = run(capsys, "stats", fig_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 5 and payload["edges"] == 3
    assert payload["cardinality"]["mean"] == 3.0
