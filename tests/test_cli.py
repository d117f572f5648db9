import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hypercore
from hypercore import cli, densest, diffusion, kdcore, model
from hypercore.cli import main
from hypercore.localcore import MAX_THREADS
from conftest import refuse_large_samples

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


def test_decompose_thread_count_refused_before_load(capsys, monkeypatch):
    def refuse_load(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(hypercore.cli, "load_hg", refuse_load)
    code, out, err = run(capsys, "decompose", "nosuch.hg", "--threads", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: threads must be between") and err.count("\n") == 1, err


def test_decompose_clique(tmp_path, capsys):
    p = tmp_path / "clique.hg"
    p.write_text("x a b\na c\na d\nb c\nb d\nc d\n")
    stats = tmp_path / "stats.json"
    code, out, _ = run(capsys, "decompose", str(p), "--algorithm", "clique",
                       "--stats", str(stats))
    assert code == 0
    assert out == "x\t2\na\t3\nb\t3\nc\t3\nd\t3\n"
    # the degree peel's counters on the expansion
    counters = json.loads(stats.read_text())["counters"]
    assert set(counters) == {"rounds", "neighbor_recounts"}
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


def test_sir_random_seeds_pinned(fig_file, tmp_path, capsys):
    # without --seed-node each run draws its seed from random.Random(3)
    agg = tmp_path / "agg.csv"
    code, out, _ = run(capsys, "sir", fig_file, "--beta", "0.5", "--runs", "5",
                       "--rng-seed", "3", "--aggregate-out", str(agg))
    assert code == 0
    assert out == ("run\tseed\tcore\tspread\n0\tb\t2\t5\n1\td\t2\t5\n2\td\t2\t5\n"
                   "3\tb\t2\t2\n4\te\t2\t1\n")
    assert agg.read_bytes() == b"core,runs,mean_spread\r\n2,5,3.6\r\n"


def _assert_refused(code, out, err):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_decompose_unwritable_stats_prints_no_table(fig_file, tmp_path, capsys):
    _assert_refused(*run(capsys, "decompose", fig_file,
                         "--stats", str(tmp_path / "missing" / "s.json")))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_decompose_full_disk_stats_prints_no_table(fig_file, capsys):
    # /dev/full opens, but writing to it fails: the sidecar is flushed before
    # the table, so the failure comes first
    _assert_refused(*run(capsys, "decompose", fig_file, "--stats", "/dev/full"))


def test_sir_unwritable_aggregate_runs_nothing(fig_file, tmp_path, capsys, monkeypatch):
    # refused before the first run, so even a billion runs end at once
    calls = []
    monkeypatch.setattr(diffusion, "sir_run", lambda *a, **k: calls.append(a))
    _assert_refused(*run(capsys, "sir", fig_file, "--beta", "0.5", "--runs", "1000000000",
                         "--aggregate-out", str(tmp_path / "missing" / "a.csv")))
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("decompose", "--stats", "{side}"),
    ("sir", "--beta", "0.5", "--aggregate-out", "{side}"),
])
def test_unwritable_sidecar_leaves_out_untouched(fig_file, tmp_path, capsys, argv):
    out = tmp_path / "out.tsv"
    out.write_text("kept\n")
    side = str(tmp_path / "missing" / "side")
    _assert_refused(*run(capsys, argv[0], fig_file, "--out", str(out),
                         *(a.format(side=side) for a in argv[1:])))
    assert out.read_text() == "kept\n"


def test_decompose_unwritable_stats_refused_before_the_work(fig_file, tmp_path, capsys,
                                                           monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("local_core ran before the sidecar path was opened")

    monkeypatch.setattr(cli, "local_core", refuse)
    _assert_refused(*run(capsys, "decompose", fig_file,
                         "--stats", str(tmp_path / "missing" / "s.json")))


@pytest.mark.parametrize("argv", [
    ("decompose", "--out", "{out}", "--stats", "{side}"),
    ("sir", "--beta", "0.5", "--out", "{out}", "--aggregate-out", "{side}"),
])
def test_input_error_leaves_output_files_untouched(tmp_path, capsys, argv):
    bad = tmp_path / "bad.hg"
    bad.write_text("a b\nz\n")  # a singleton line
    paths = {"out": tmp_path / "out", "side": tmp_path / "side"}
    for path in paths.values():
        path.write_text("kept\n")
    code, _, _ = run(capsys, argv[0], str(bad),
                     *(a.format(**{k: str(v) for k, v in paths.items()}) for a in argv[1:]))
    assert code == 2
    assert all(path.read_text() == "kept\n" for path in paths.values())


# Every file the CLI writes, per subcommand: the flags that name it and the
# suffix of its path.  Each is written over in place and cut at the end.
WRITERS = {
    "decompose": [("--out", ".tsv"), ("--stats", ".json")],
    "kdcore": [("--out", ".tsv")],
    "densest": [("--out", ".json")],
    "sir": [("--out", ".tsv"), ("--aggregate-out", ".csv")],
    "gen": [("--out", ".hg")],
    "stats": [("--out", ".json")],
}


def _writer_argv(command, fig_file, paths):
    argv = [command] + (["--n", "12", "--m", "6"] if command == "gen" else [fig_file])
    if command == "sir":
        argv += ["--beta", "0.5", "--runs", "3", "--rng-seed", "3"]
    for (flag, _), path in zip(WRITERS[command], paths):
        argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_longer_output_files_are_cut_to_the_new_bytes(fig_file, tmp_path, capsys, command):
    # each output file already holds more than the run writes: it ends with
    # exactly the bytes a fresh file gets, and keeps its inode and mode
    fresh = [tmp_path / f"fresh{suffix}" for _, suffix in WRITERS[command]]
    assert run(capsys, *_writer_argv(command, fig_file, fresh))[0] == 0
    old = [tmp_path / f"old{suffix}" for _, suffix in WRITERS[command]]
    for path in old:
        path.write_bytes(b"stale line\n" * 500)
        path.chmod(0o640)
    before = [path.stat() for path in old]
    assert run(capsys, *_writer_argv(command, fig_file, old)) == (0, "", "")
    for path, new, st_before in zip(old, fresh, before):
        assert path.read_bytes() == new.read_bytes() != b"", path
        st_after = path.stat()
        assert (st_after.st_ino, st_after.st_mode) == (st_before.st_ino, st_before.st_mode), path


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_outputs_are_opened_without_truncation(fig_file, tmp_path, capsys, monkeypatch,
                                               command):
    # every output path goes through os.open with no O_TRUNC, and open() is
    # never handed a path to write: it only wraps a descriptor that os.open
    # returned, which truncates nothing
    paths = [tmp_path / f"out{suffix}" for _, suffix in WRITERS[command]]
    for path in paths:
        path.write_text("stale\n" * 50)
    os_open, builtin_open = os.open, open
    opened, fds, bad = [], set(), []

    def checked_os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            bad.append(("os.open with O_TRUNC", path))
        fd = os_open(path, flags, *args, **kwargs)
        opened.append(os.fspath(path))
        fds.add(fd)
        return fd

    def checked_open(file, mode="r", *args, **kwargs):
        if "w" in mode and not (isinstance(file, int) and file in fds):
            bad.append((f"open with mode {mode!r}", file))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", checked_os_open)
    monkeypatch.setattr("builtins.open", checked_open)
    code = main(_writer_argv(command, fig_file, paths))
    monkeypatch.undo()
    assert code == 0 and bad == []
    assert sorted(opened) == sorted(map(str, paths))


def test_symlinked_out_is_written_through(fig_file, tmp_path, capsys):
    target = tmp_path / "target.tsv"
    target.write_text("stale line\n" * 100)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    ino = target.stat().st_ino
    code, table, _ = run(capsys, "decompose", fig_file)
    assert code == 0
    assert run(capsys, "decompose", fig_file, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == table and target.stat().st_ino == ino


def test_one_file_named_for_table_and_sidecar_holds_no_padding(tmp_path):
    # two writers of one file, as the CLI's would be if it took one path for
    # both: the table's writer cuts the file at its end before the longer
    # sidecar's writer closes; that later cut must not pad it with zeros
    both = str(tmp_path / "both")
    with cli._written(both) as side, cli._written(both) as table:
        side.write('{"algorithm": "local"}\n')
        side.flush()
        table.write("a\t2\n")
    data = (tmp_path / "both").read_bytes()
    assert data.startswith(b"a\t2\n") and b"\0" not in data


@pytest.mark.parametrize("command", ["decompose", "sir"])
@pytest.mark.parametrize("kind", ["existing", "not yet created", "symlink to --out",
                                  "hard link to --out"])
def test_one_path_for_both_outputs_refused(tmp_path, capsys, monkeypatch, command, kind):
    # the later writer would write over the earlier one's file: refused
    # before the input is read, with the file left as it was
    def refuse_load(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "load_hg", refuse_load)
    out = tmp_path / "out"
    side = out
    if kind != "not yet created":
        out.write_text("kept\n")
    if kind == "symlink to --out":
        side = tmp_path / "link"
        side.symlink_to(out)
    elif kind == "hard link to --out":
        side = tmp_path / "link"
        os.link(out, side)
    code, stdout, err = run(capsys, *_writer_argv(command, "nosuch.hg", [out, side]))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "name one file" in err and err.count("\n") == 1, err
    if kind == "not yet created":
        assert not out.exists()
    else:
        assert out.read_text() == "kept\n"


def _cli_process(argv, stdout):
    """The CLI run in a fresh interpreter, its stdout on `stdout`."""
    src = os.path.dirname(os.path.dirname(hypercore.__file__))
    return subprocess.run([sys.executable, "-m", "hypercore.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("argv", [("decompose", "--stats"),
                                  ("sir", "--beta", "0.5", "--runs", "3", "--aggregate-out")])
def test_sidecar_naming_the_stdout_file_refused(fig_file, tmp_path, argv):
    # with no --out the table goes to stdout; a sidecar that names stdout's
    # regular file, as /dev/stdout or by its path, would be written over by
    # it: refused before the input is read, with the file left as it was
    table = tmp_path / "table"
    for side in ("/dev/stdout", str(table)):
        table.write_text("kept\n")
        with open(table, "ab") as fh:
            proc = _cli_process([argv[0], str(tmp_path / "nosuch.hg"), *argv[1:], side], fh)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert err.startswith("error: ") and "file that stdout writes to" in err, err
        assert err.count("\n") == 1, err
        assert table.read_text() == "kept\n"
    # a pipe and the null device are no file: they take both, as before
    header = b"a\t2\n" if argv[0] == "decompose" else b"run\tseed\tcore\tspread\n"
    for stdout in (subprocess.PIPE, subprocess.DEVNULL):
        proc = _cli_process([argv[0], fig_file, *argv[1:], "/dev/stdout"], stdout)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert stdout == subprocess.DEVNULL or header in proc.stdout


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
def test_null_device_outputs(fig_file, capsys):
    for argv in (("decompose", "--out", os.devnull, "--stats", os.devnull),
                 ("sir", "--beta", "0.5", "--runs", "2", "--out", os.devnull,
                  "--aggregate-out", os.devnull),
                 ("kdcore", "--out", os.devnull)):
        assert run(capsys, argv[0], fig_file, *argv[1:]) == (0, "", ""), argv


class _FailsAtRow(list):
    """Core numbers whose read of row `at` fails the way a write can."""

    def __init__(self, core, at):
        super().__init__(core)
        self.at = at

    def __getitem__(self, v):
        if v == self.at:
            raise OSError(5, "Input/output error")
        return super().__getitem__(v)


def test_failed_table_keeps_the_rows_written(fig_file, tmp_path, capsys, monkeypatch):
    # the first three rows reached the file before the fourth failed: the
    # file holds exactly those rows, not the tail of what it held before
    local_core = cli.local_core

    def fails_at_row_3(H, opts=None):
        res = local_core(H, opts)
        res.core = _FailsAtRow(res.core, 3)
        return res

    monkeypatch.setattr(cli, "local_core", fails_at_row_3)
    out = tmp_path / "out.tsv"
    out.write_text("stale line\n" * 100)
    code, stdout, err = run(capsys, "decompose", fig_file, "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: [Errno 5] Input/output error\n")
    assert out.read_text() == "a\t2\nb\t2\ne\t2\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_table_empties_the_stats_sidecar(fig_file, tmp_path, capsys):
    # the sidecar is written before the table; when the table then fails,
    # a complete sidecar would read like a finished run's
    stats = tmp_path / "s.json"
    stats.write_text("kept\n")
    _assert_refused(*run(capsys, "decompose", fig_file, "--out", "/dev/full",
                         "--stats", str(stats)))
    assert stats.read_bytes() == b""


def test_closed_stdout_keeps_the_stats_sidecar(fig_file, tmp_path):
    # a reader that leaves early is exit 0, and the run's sidecar stays whole
    src = os.path.dirname(os.path.dirname(hypercore.__file__))
    stats = tmp_path / "s.json"
    argv = [sys.executable, "-m", "hypercore.cli", "decompose", fig_file,
            "--stats", str(stats)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        try:
            proc.stdout.close()  # before the interpreter has started
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (0, b"")
    assert json.loads(stats.read_text())["algorithm"] == "local"


def test_sir_negative_rng_seed_draws_its_own_seed_nodes(tmp_path, capsys):
    # random.Random(-k) and random.Random(k) are one stream; the seed nodes
    # of --rng-seed -k must not repeat those of --rng-seed k
    p = tmp_path / "path.hg"
    p.write_text("".join(f"p{i} p{i + 1}\n" for i in range(40)))

    def seed_column(k):
        code, out, _ = run(capsys, "sir", str(p), "--beta", "0", "--runs", "10",
                           "--rng-seed", str(k))
        assert code == 0
        return [line.split("\t")[1] for line in out.splitlines()[1:]]

    for k in range(1, 21):
        assert seed_column(-k) != seed_column(k), k


def test_sir_rng_seed_past_the_digit_limit_refused_up_front(fig_file, capsys):
    # run i hashes str(rng_seed + i): a seed with as many digits as str()
    # renders runs, and a run seed one digit longer is refused before the
    # header is written
    widest = "9" * sys.get_int_max_str_digits()
    for seed in (widest, "-" + widest):
        code, out, _ = run(capsys, "sir", fig_file, "--beta", "0.5", "--rng-seed", seed)
        assert code == 0 and len(out.splitlines()) == 2
    code, out, err = run(capsys, "sir", fig_file, "--beta", "0.5", "--runs", "2",
                         "--rng-seed", widest)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: rng_seed has more than {sys.get_int_max_str_digits()} digits"]


class _ThirdRun(Exception):
    pass


@pytest.mark.parametrize("seed_flags", [(), ("--seed-node", "a")])
def test_sir_runs_start_before_all_seeds_are_drawn(fig_file, capsys, monkeypatch, seed_flags):
    # a run starts without a seed list of --runs entries: the third run is
    # reached, and at most a few seeds are drawn before it
    sir_run, calls = diffusion.sir_run, []

    def third_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise _ThirdRun
        return sir_run(*args, **kwargs)

    randrange, draws = random.Random.randrange, []

    def bounded(rng, *args, **kwargs):
        draws.append(args)
        if len(draws) > 1000:
            raise AssertionError("drew more than 1000 seeds")
        return randrange(rng, *args, **kwargs)

    monkeypatch.setattr(diffusion, "sir_run", third_raises)
    monkeypatch.setattr(random.Random, "randrange", bounded)
    with pytest.raises(_ThirdRun):
        main(["sir", fig_file, "--beta", "0.5", "--runs", str(10**15), *seed_flags])


def test_sir_unknown_seed(fig_file, capsys):
    code, _, err = run(capsys, "sir", fig_file, "--seed-node", "zz", "--beta", "0.5")
    assert code == 2


def test_sir_intervention(fig_file, capsys):
    code, out, _ = run(capsys, "sir", fig_file, "--seed-node", "a",
                       "--beta", "1.0", "--delete-top-k", "1")
    # node 'a' has the lowest id among the (all-equal) cores, so it is deleted
    assert code == 2  # seed no longer present


def test_sir_unknown_seed_refused_before_deletion(fig_file, capsys):
    # deleting 9 of 5 nodes empties the hypergraph, which alone exits 0
    code, out, err = run(capsys, "sir", fig_file, "--seed-node", "zz",
                         "--beta", "0.5", "--delete-top-k", "9")
    assert code == 2 and out == ""
    assert err == "error: unknown seed node 'zz'\n"


def test_sir_deleted_seed_reported(fig_file, capsys):
    code, out, err = run(capsys, "sir", fig_file, "--seed-node", "a",
                         "--beta", "0.5", "--delete-top-k", "1")
    assert code == 2 and out == ""
    assert err == "error: seed node 'a' was deleted by --delete-top-k\n"


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


def test_gen_wide_cardinality_range_exit_code(capsys, monkeypatch):
    refuse_large_samples(monkeypatch)
    code, out, err = run(capsys, "gen", "--n", "100000000", "--m", "1", "--card-max", "99999999")
    assert code == 3 and out == ""
    assert err.startswith("error: pair-table guard: at least") and err.count("\n") == 1


def test_gen_node_count_beyond_maxsize_refused(capsys):
    code, out, err = run(capsys, "gen", "--n", str(2**70), "--m", "1")
    assert code == 2 and out == ""
    assert err == f"error: n must be <= {sys.maxsize}, got {2**70}\n"


def test_gen_deterministic(tmp_path, capsys):
    _, out1, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    _, out2, _ = run(capsys, "gen", "--n", "10", "--m", "8", "--rng-seed", "5")
    assert out1 == out2 and len(out1.strip().splitlines()) == 8


def test_kdcore_lattice_guard_exit_code(tmp_path, capsys, monkeypatch):
    # one 12-member hyperedge: 12 nodes of core 11, 132 lattice entries
    p = tmp_path / "wide.hg"
    p.write_text(" ".join(f"w{i}" for i in range(12)) + "\n")
    monkeypatch.setattr(kdcore, "LATTICE_GUARD", 131)
    code, out, err = run(capsys, "kdcore", str(p))
    assert code == 3 and out == ""
    assert err == "error: lattice guard: 132 (k,d) entries > 131\n"
    monkeypatch.setattr(kdcore, "LATTICE_GUARD", 132)
    code, out, _ = run(capsys, "kdcore", str(p))
    assert code == 0 and out.count("\n") == 132


def test_gen_pair_table_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 100)
    code, out, err = run(capsys, "gen", "--n", "10", "--m", "20",
                         "--card-min", "3", "--card-max", "3")
    assert code == 3 and out == ""
    assert err == "error: pair-table guard: at least 120 pair rows > 100\n"


@pytest.mark.parametrize("algorithm, counter_keys", [
    ("peel", {"neighborhood_recomputations", "cell_updates"}),
    ("epeel", {"neighborhood_recomputations", "cell_updates"}),
    ("local", {"h_operator_evals"}),
    ("naive-h", {"rounds"}),
    ("degree", {"rounds", "neighbor_recounts"}),
    ("clique", {"rounds", "neighbor_recounts"}),
])
def test_decompose_on_lenient_emptied_input(tmp_path, capsys, algorithm, counter_keys):
    # the only line is a dropped singleton, so every route sees no node at all
    p = tmp_path / "z.hg"
    p.write_text("z\n")
    stats = tmp_path / "stats.json"
    code, out, _ = run(capsys, "decompose", str(p), "--algorithm", algorithm, "--lenient",
                       "--stats", str(stats))
    assert code == 0 and out == "z\t0\n"
    payload = json.loads(stats.read_text())
    assert payload["algorithm"] == algorithm and set(payload["counters"]) == counter_keys


def test_stats_json(fig_file, capsys):
    code, out, _ = run(capsys, "stats", fig_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 5 and payload["edges"] == 3
    assert payload["cardinality"]["mean"] == 3.0


def test_sir_on_lenient_emptied_input(tmp_path, capsys):
    # the only line is a dropped singleton, so no node is left to seed
    p = tmp_path / "z.hg"
    p.write_text("z\n")
    code, out, err = run(capsys, "sir", str(p), "--lenient", "--beta", "0.5")
    assert code == 0 and out == "run\tseed\tcore\tspread\n"
    assert err.count("\n") == 1 and "empty" in err


def test_sir_emptied_by_deletion_writes_what_no_runs_write(tmp_path, capsys):
    # --delete-top-k removes every node: both files are written over with
    # the headers that --runs 0 writes, not left holding an earlier run
    p, out_path, agg = tmp_path / "ab.hg", tmp_path / "runs.tsv", tmp_path / "agg.csv"
    p.write_text("a b\nb c\n")
    out_path.write_text("OLD table\n" * 5)
    agg.write_text("OLD aggregate\n" * 5)
    code, out, err = run(capsys, "sir", str(p), "--beta", "0.5", "--runs", "3",
                         "--delete-top-k", "5", "--out", str(out_path),
                         "--aggregate-out", str(agg))
    assert (code, out, err) == (0, "", "hypergraph is empty: no node to seed\n")
    assert out_path.read_bytes() == b"run\tseed\tcore\tspread\n"
    assert agg.read_bytes() == b"core,runs,mean_spread\r\n"


def test_stats_out_file(fig_file, tmp_path, capsys):
    out_path = tmp_path / "stats.json"
    code, out, _ = run(capsys, "stats", fig_file, "--out", str(out_path))
    assert (code, out) == (0, "")
    assert json.loads(out_path.read_text())["nodes"] == 5


def test_closed_stdout_ends_the_run_quietly(fig_file):
    # `| head -3`: the reader leaves after three lines of a run that would
    # never end; the run stops at once, exit 0, nothing on stderr
    src = os.path.dirname(os.path.dirname(hypercore.__file__))
    argv = [sys.executable, "-m", "hypercore.cli", "sir", fig_file, "--beta", "0.5",
            "--runs", str(10**15), "--seed-node", "a"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        try:
            head = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert head[0] == b"run\tseed\tcore\tspread\n"
    assert [line.split(b"\t")[:3] for line in head[1:]] == [[b"0", b"a", b"2"], [b"1", b"a", b"2"]]
    assert (proc.returncode, err) == (0, b"")


def test_stats_on_lenient_emptied_input(tmp_path, capsys):
    p = tmp_path / "z.hg"
    p.write_text("z\n")
    code, out, _ = run(capsys, "stats", str(p), "--lenient")
    assert code == 0
    payload = json.loads(out)
    assert (payload["nodes"], payload["edges"], payload["isolated_dropped"]) == (0, 0, 1)
    for key in ("degree", "cardinality", "neighbors"):
        assert payload[key] == {"mean": None, "sd": None}


LABELS = [f"n{i}" for i in range(12)]


@st.composite
def hg_bytes(draw):
    """Small .hg files: hyperedges on at most 12 labels, split by spaces or
    tabs, among comments, blank lines, singletons and duplicates; half of
    them hold only singletons, which --lenient leaves empty, some hold one
    wide hyperedge of 13 to 40 more labels, and some hold a byte that is not
    UTF-8."""
    label = st.sampled_from(LABELS)
    max_size = draw(st.sampled_from([1, 5]))
    lines = []
    for members in draw(st.lists(st.lists(label, min_size=1, max_size=max_size), max_size=8)):
        kind = draw(st.sampled_from(["edge", "edge", "comment", "blank", "duplicate"]))
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        if kind == "comment":
            lines.append("# " + sep.join(members))
        elif kind == "blank":
            lines.append(sep)
        else:
            lines.append(sep.join(members))
            if kind == "duplicate":
                lines.append(sep.join(reversed(members)))
    if draw(st.integers(0, 4)) == 0:
        wide = [f"w{i}" for i in range(draw(st.integers(13, 40)))]
        lines.append(" ".join(wide + draw(st.lists(label, max_size=4))))
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# mostly values a run accepts, sometimes one it must refuse
COUNT = st.one_of(st.integers(0, 5), st.sampled_from([-(2**70), -1, 2**70]))
THREADS = st.one_of(st.integers(1, 4), st.integers(MAX_THREADS + 1, 2**70))
BETA = st.one_of(st.sampled_from(["0", "0.25", "1"]),
                 st.sampled_from(["nan", "inf", "-inf", "-0.5", "1e300"]))


def optional(draw, **values):
    """Each flag given a drawn value or left at its default, at random."""
    argv = []
    for name, strategy in values.items():
        if draw(st.booleans()):
            argv.append(f"--{name.replace('_', '-')}={draw(strategy)}")
    return argv


@st.composite
def cli_argv(draw, path, out_path):
    """A subcommand with well-typed, often extreme, flag values."""
    command = draw(st.sampled_from(["decompose", "kdcore", "densest", "sir", "gen", "stats"]))
    out = st.just(out_path)
    if command == "gen":
        size = st.one_of(st.integers(-3, 50), st.just(2**70))
        return (["gen", f"--n={draw(size)}", f"--m={draw(size)}"]
                + optional(draw, card_min=size, card_max=size, rng_seed=COUNT, out=out))
    argv = [command, path] + optional(draw, out=out)
    if draw(st.booleans()):
        argv.append("--lenient")
    if command == "decompose":
        argv += ["--algorithm", draw(st.sampled_from(
            ["peel", "epeel", "local", "naive-h", "degree", "clique"]))]
        argv += optional(draw, threads=THREADS, stats=st.just(out_path + ".json"))
    elif command == "densest":
        argv += ["--method", draw(st.sampled_from(["greedy", "exact", "brute"]))]
    elif command == "sir":
        argv += [f"--beta={draw(BETA)}"] + optional(
            draw, runs=COUNT.map(lambda r: min(r, 5)), rng_seed=COUNT, max_steps=COUNT,
            delete_top_k=COUNT, seed_node=st.sampled_from(["n0", "n5", "absent"]),
            aggregate_out=st.just(out_path + ".csv"))
    return argv


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract(data):
    # exit 0, 2 or 3 on any input and flags; a refusal is one error: line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.hg")
        with open(path, "wb") as fh:
            fh.write(data.draw(hg_bytes(), label="file"))
        argv = data.draw(cli_argv(path, os.path.join(tmp, "out")), label="argv")
        # a lowered lattice guard refuses kdcore on the wide hyperedge
        guard = data.draw(st.sampled_from([kdcore.LATTICE_GUARD, 100]), label="lattice guard")
        stdout, stderr = io.StringIO(), io.StringIO()
        with (mock.patch.object(kdcore, "LATTICE_GUARD", guard),
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            code = main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
