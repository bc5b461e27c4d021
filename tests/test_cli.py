import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import latinsq
from enumeration_reference import enumerate_improper_squares
from latinsq.chain import ChainConfig, RngStream, iter_samples
from latinsq.cli import (
    format_square_json,
    format_square_text,
    main,
    parse_square_json,
    parse_square_text,
)
from latinsq.core import InvalidSquare, cube_from_grid, cyclic_square, validate

# Child processes import the same latinsq as this test, however it was found.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(latinsq.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])
    ),
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(result, expected_code):
    code, _, err = result
    assert code == expected_code
    assert err.count("\n") == 1 and err.strip()
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# formats


def test_text_round_trip_over_order_three_graph(graph3):
    for state in graph3.states:
        text = format_square_text(state)
        assert parse_square_text(text) == state


def test_json_round_trip_over_order_three_graph(graph3):
    for state in graph3.states:
        blob = format_square_json(state)
        assert parse_square_json(blob) == state


def test_improper_text_format(ex_improper):
    text = format_square_text(ex_improper)
    lines = text.strip().splitlines()
    assert lines[0] == "n 4"
    assert lines[-1] == "improper 2 1 0 2 1"
    assert parse_square_text(text) == ex_improper


def test_parse_rejects_invalid_square(ex_improper):
    with pytest.raises(InvalidSquare):
        parse_square_text("n 2\n0 1\n0 1\n")
    with pytest.raises(InvalidSquare):
        parse_square_text("0 1\n1 0\n")
    with pytest.raises(InvalidSquare):
        parse_square_text("n 2\n0 1\n1 0\nimproper 0 0 0 1 1\n0 1\n")
    improper = json.loads(format_square_json(ex_improper))
    bad_json = [
        {"n": 7, "grid": [[0, 1], [1, 0]]},
        {"grid": [[0, 1], [1, 0]]},
        {"n": 2},
        [1],
        {"n": 1, "grid": 5},
        {"n": 2, "grid": [[0.0, 1], [1, 0]]},
        {"n": 2, "grid": [[True, 0], [0, 1]]},
        {**improper, "improper": {"row": 0}},
        {**improper, "improper": {**improper["improper"], "positive": 5}},
        {**improper, "improper": {**improper["improper"], "positive": [0, 2, 3]}},
        {**improper, "improper": [2, 1]},
    ]
    for obj in bad_json:
        with pytest.raises(InvalidSquare):
            parse_square_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# gen


def test_gen_order_one(capsys):
    code, out, _ = run_cli(capsys, "gen", "1", "--samples", "2")
    assert code == 0
    assert out == "n 1\n0\nn 1\n0\n"


def test_gen_deterministic_and_valid(capsys):
    args = ("gen", "4", "--seed", "7", "--samples", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        state = parse_square_json(line)
        assert state.is_proper and state.n == 4


def test_gen_chains_deterministic(capsys):
    args = ("gen", "3", "--seed", "9", "--samples", "8", "--chains", "4",
            "--burn-in", "50", "--thin", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert out1.count("n 3") == 8


@pytest.mark.parametrize("samples,chains", [(1, 1000), (5, 7), (5, 4), (10, 4), (12, 30)])
def test_gen_spawns_only_the_streams_it_reads(capsys, monkeypatch, samples, chains):
    # A spawned child's seed depends on its index alone, so spawning only the
    # streams read writes the bytes of spawning one per chain up front.
    config = ChainConfig(3, seed=9, burn_in=30, thin=3)
    per_chain = -(-samples // chains)
    every = (iter_samples(config, per_chain, s) for s in RngStream(9).spawn(chains))
    squares = itertools.islice(itertools.chain.from_iterable(every), samples)
    expected = "".join(format_square_text(sq) for sq in squares)
    spawned = []
    spawn = RngStream.spawn
    monkeypatch.setattr(RngStream, "spawn", lambda self, k: spawned.append(k) or spawn(self, k))
    argv = ["gen", "3", "--seed", "9", "--burn-in", "30", "--thin", "3"]
    code, out, _ = run_cli(capsys, *argv, "--samples", str(samples), "--chains", str(chains))
    assert code == 0 and out == expected
    assert spawned == [-(-samples // per_chain)]


def test_gen_flag_errors(capsys):
    assert_one_line_error(run_cli(capsys, "gen", "0", "--samples", "1"), 2)
    assert_one_line_error(run_cli(capsys, "gen", "3", "--samples", "0"), 2)
    assert_one_line_error(run_cli(capsys, "gen", "3", "--chains", "0"), 2)
    assert_one_line_error(run_cli(capsys, "gen", "3", "--burn-in", "-1"), 2)
    assert_one_line_error(run_cli(capsys, "gen", "3", "--seed", "-1"), 2)


@pytest.mark.parametrize("flag, value, message", [
    ("--thin", "0", "thin must be at least 1, got 0\n"),
    ("--burn-in", "-1", "burn_in must be at least 0, got -1\n"),
    ("--seed", "-1", "seed must be at least 0, got -1\n"),
])
def test_gen_names_the_rejected_chain_setting(capsys, flag, value, message):
    assert run_cli(capsys, "gen", "3", flag, value) == (2, "", message)


# sha256 of stdout for fixed seeds: a change to the walk, to its use of the
# random stream or to the output formats shows here.  (`uniformity 4` needs at
# least 5760 samples for its 576 categories.)  Each sampling argv is pinned
# with the defaults, and with an explicit --burn-in 10 n^3 with and without
# an explicit --thin n^3, which pin the walk's bytes independently of either
# default.  The `graph` reports pin the state graph's counts, connectivity and
# diameter.
GOLDEN_STDOUT = [
    (("gen", "4", "--seed", "77", "--samples", "6", "--chains", "3", "--burn-in", "100", "--thin", "8"),
     "edcfef2ba6ddc56eade222f9a44f95340925485bd815e598927c63bcff054b49"),
    (("gen", "16", "--seed", "1", "--samples", "2", "--thin", "4096", "--burn-in", "40960"),
     "9a40fb4d921db9491dcc871a8932308ded59c58fe89efa1b2228e70778726dfe"),
    (("gen", "16", "--seed", "1", "--samples", "2", "--burn-in", "40960"),
     "20b6f5c0c1cc0deb628a9288bfd2014c12c567b4a3af1b64444e98239c88aff8"),
    (("gen", "16", "--seed", "1", "--samples", "2"),
     "b9719028746bf821889051b7549fba477d1004ee4c93cd42fe790e1ccc1fe4c8"),
    (("gen", "7", "--seed", "5", "--samples", "11", "--chains", "5", "--format", "json", "--thin", "343",
      "--burn-in", "3430"),
     "fc4346579978ee1ad7b81270211d52c2a76adc7681dad06b59d32ce642ed7ae2"),
    (("gen", "7", "--seed", "5", "--samples", "11", "--chains", "5", "--format", "json", "--burn-in", "3430"),
     "a392120a12d710c86bb81b49b7097089238f7028844024a955438ffea1e8e682"),
    (("gen", "7", "--seed", "5", "--samples", "11", "--chains", "5", "--format", "json"),
     "cb25bdbbd382e90beb07d1680c363cfaf56e7d6493942244d95180a1ed41b415"),
    (("uniformity", "4", "--samples", "5760", "--chains", "8", "--seed", "3", "--thin", "64",
      "--burn-in", "640"),
     "7bbdc004d044a8672a47471a5ea4e29f2c422accc986edb66e7e64a82c08d036"),
    (("uniformity", "4", "--samples", "5760", "--chains", "8", "--seed", "3", "--burn-in", "640"),
     "26e15c61fcee8e73159089290c3639485ad0a8d26522c20daa94bac560054c0f"),
    (("uniformity", "4", "--samples", "5760", "--chains", "8", "--seed", "3"),
     "4c9dac403df11ed30226f5e0dd93c31d6407dc548898bf7955cc623d098b0030"),
    (("path", "improper4.txt", "cyclic4.txt", "--verify"),
     "38d0173da538136cc0cdce7b9e2e44517598cf3e6203a45669ac78878200604b"),
    (("graph", "3"), "04063eab28b6a89eb45058562b01f0a3a714908baaabb3097a4956b2ecd1c829"),
    (("graph", "4"), "0d76f1ed96fafd1b0dd13ce4bd2a82f513b06224caca372f888f2d437894e5d4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(capsys, tmp_path, monkeypatch, ex_improper, argv, digest):
    # The square files that `path` reads, in the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "improper4.txt").write_text(format_square_text(ex_improper))
    (tmp_path / "cyclic4.txt").write_text(format_square_text(cyclic_square(4)))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_into_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "latinsq", "gen", "3", "--samples", "20000", "--burn-in", "0", "--thin", "1",
         "--chains", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, start_new_session=True,
    )
    # 20000 records are far more than a pipe buffers, so the writer is still
    # running when the reader goes away; the chains beyond the first run in
    # forked processes wherever more than one CPU is usable.
    assert proc.stdout.readline() == b"n 3\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    # The command led its own process group: no process it forked outlived it.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# ---------------------------------------------------------------------------
# path / verify


def test_path_identical_files(tmp_path, capsys, ex_proper):
    f = tmp_path / "a.txt"
    f.write_text(format_square_text(ex_proper))
    code, out, _ = run_cli(capsys, "path", str(f), str(f), "--verify")
    assert code == 0
    assert out.strip() == "OK 0 54"


def test_path_fixture_single_move(tmp_path, capsys, ex_improper, ex_proper):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text(format_square_text(ex_improper))
    fb.write_text(format_square_text(ex_proper))
    code, out, _ = run_cli(capsys, "path", str(fa), str(fb), "--verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK 1 54"
    assert len(lines) == 2  # one move plus the verdict


def test_path_order_mismatch(tmp_path, capsys):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text("n 2\n0 1\n1 0\n")
    fb.write_text("n 3\n0 1 2\n1 2 0\n2 0 1\n")
    code, _, err = run_cli(capsys, "path", str(fa), str(fb))
    assert code == 1 and "mismatch" in err


def test_path_random_order_five(tmp_path, capsys):
    _, a_text, _ = run_cli(capsys, "gen", "5", "--seed", "3", "--samples", "1")
    _, b_text, _ = run_cli(capsys, "gen", "5", "--seed", "4", "--samples", "1")
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text(a_text)
    fb.write_text(b_text)
    code, out, _ = run_cli(capsys, "path", str(fa), str(fb), "--verify")
    assert code == 0
    verdict = out.strip().splitlines()[-1].split()
    assert verdict[0] == "OK"
    assert int(verdict[1]) <= 128 and verdict[2] == "128"


@pytest.mark.parametrize("broken", ["invalid move", "no moves"])
def test_path_verify_failure_exits_three(tmp_path, capsys, monkeypatch, broken):
    from latinsq import cli
    from latinsq.connect import MoveSequence
    from latinsq.moves import IntercalateMove

    a, b = cyclic_square(3), cube_from_grid([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text(format_square_text(a))
    fb.write_text(format_square_text(b))
    if broken == "invalid move":  # cell (0,0) already holds symbol 0
        bad = IntercalateMove(0, 0, 0, 1, 1, 1)
        monkeypatch.setattr(cli, "transform_path", lambda start, end: MoveSequence(start, (bad,), end))
        message = "verification failed: move (0 0 0 1 1 1) invalid: entry already 1 at +1 position 0\n"
    else:
        monkeypatch.setattr(cli, "transform_path", lambda start, end: MoveSequence(start, (), start))
        message = "verification failed: endpoint or bound\n"
    result = run_cli(capsys, "path", str(fa), str(fb), "--verify")
    assert_one_line_error(result, 3)
    assert result[2] == message


def test_path_verify_lets_an_internal_error_propagate(tmp_path, monkeypatch):
    from latinsq.connect import MoveSequence

    def broken_replay(self, check=False):
        raise RuntimeError("internal fault")

    f = tmp_path / "a.txt"
    f.write_text(format_square_text(cyclic_square(3)))
    monkeypatch.setattr(MoveSequence, "replay", broken_replay)
    with pytest.raises(RuntimeError, match="internal fault"):
        main(["path", str(f), str(f), "--verify"])


def test_verify_fixture(tmp_path, capsys, ex_improper):
    f = tmp_path / "sq.txt"
    f.write_text(format_square_text(ex_improper))
    code, out, _ = run_cli(capsys, "verify", str(f))
    assert code == 0 and out.strip() == "valid improper"


def test_verify_corrupted(tmp_path, capsys):
    bad = [
        "n 3\n0 1 2\n1 2 0\n2 0 0\n",
        '{"n": 2, "rows": [[0, 1], [1, 0]]}',  # no "grid"
        '{"n": 7, "grid": [[0, 1], [1, 0]]}',  # "n" disagrees with the grid
        '{"n": 2, "grid": [[0, 1], [1, 0]',  # not JSON
    ]
    for k, text in enumerate(bad):
        f = tmp_path / f"bad{k}.txt"
        f.write_text(text)
        result = run_cli(capsys, "verify", str(f))
        assert_one_line_error(result, 1)
        assert "parse failure" in result[2]
        if k == 0:
            assert "line row=2 sym=0 (over columns) sums to 2" in result[2]
    assert_one_line_error(run_cli(capsys, "verify", str(tmp_path / "missing.txt")), 1)


def test_verify_rejects_deeply_nested_json(tmp_path, capsys):
    # json.loads recurses once per bracket; past the interpreter's limit it
    # raises RecursionError, which must end as a parse failure.
    f = tmp_path / "deep.json"
    f.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
    result = run_cli(capsys, "verify", str(f))
    assert_one_line_error(result, 1)
    assert result[2] == "parse failure: JSON nested too deeply\n"


@pytest.mark.parametrize("text", ["[1, 2]", " [[0, 1], [1, 0]]"])
def test_verify_reads_any_json_document_as_json(tmp_path, capsys, text):
    f = tmp_path / "sq.json"
    f.write_text(text)
    result = run_cli(capsys, "verify", str(f))
    assert_one_line_error(result, 1)
    assert result[2] == "parse failure: expected an object with keys 'n' and 'grid'\n"


@pytest.mark.parametrize("order", [-2, 0])
def test_verify_rejects_order_below_one_at_header(tmp_path, capsys, order):
    f = tmp_path / "sq.txt"
    f.write_text(f"n {order}\n0 1\n1 0\n")
    result = run_cli(capsys, "verify", str(f))
    assert_one_line_error(result, 1)
    assert result[2] == f"parse failure: order {order} is not positive\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2 junk 7\n0 1\n1 0\n", "expected header line 'n <order>'"),
        ("n x\n0 1\n1 0\n", "expected header line 'n <order>'"),
        ("n 3\n0 1 2\n1 2 0\n", "expected 3 grid rows"),
    ],
    ids=["trailing-junk", "order-not-integer", "too-few-rows"],
)
def test_verify_rejects_malformed_header(tmp_path, capsys, text, message):
    f = tmp_path / "sq.txt"
    f.write_text(text)
    result = run_cli(capsys, "verify", str(f))
    assert_one_line_error(result, 1)
    assert result[2] == f"parse failure: {message}\n"


def test_gen_output_verifies(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "gen", "4", "--seed", "5", "--samples", "1")
    f = tmp_path / "g.txt"
    f.write_text(out)
    code, verdict, _ = run_cli(capsys, "verify", str(f))
    assert code == 0 and verdict.strip() == "valid proper"


# ---------------------------------------------------------------------------
# enumerate / graph


def test_enumerate_count_only(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "--count-only")
    assert code == 0 and out.strip() == "576"


def test_enumerate_lists_squares(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2")
    assert code == 0
    assert out == "n 2\n0 1\n1 0\nn 2\n1 0\n0 1\n"


def test_enumerate_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "6")
    assert code == 2 and err


def test_graph_order_two_report(capsys):
    code, out, _ = run_cli(capsys, "graph", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 proper, 0 improper, connected, diameter 1"
    assert lines[1] == "bound 2(n-1)^3 = 2 satisfied: yes"


def test_graph_order_three_report(capsys):
    code, out, _ = run_cli(capsys, "graph", "3")
    assert code == 0
    assert "satisfied: yes" in out


def test_graph_decodes_no_state(capsys, monkeypatch):
    # The report reads the graph's arrays only: no vertex becomes a square.
    from latinsq import oracle

    def refuse(*args):
        raise AssertionError("graph decoded its states")

    monkeypatch.setattr(oracle, "_decode", refuse)
    assert run_cli(capsys, "graph", "3") == (
        0, "12 proper, 54 improper, connected, diameter 3\nbound 2(n-1)^3 = 16 satisfied: yes\n", ""
    )
    assert run_cli(capsys, "graph", "4") == (
        0, "576 proper, 6912 improper, connected, probed diameter bound 7\nbound 2(n-1)^3 = 54 satisfied: yes\n", ""
    )


def test_graph_limit(capsys):
    code, _, err = run_cli(capsys, "graph", "5")
    assert code == 2 and err


def test_graph_disconnected_report(capsys, monkeypatch, graph3):
    # No real state graph is disconnected, so the report's other branch is
    # reached through a hand-built one: vertex 2 is isolated.
    from enumeration_reference import graph_from_lists
    from latinsq import cli

    states = graph3.states[:3]
    monkeypatch.setattr(cli, "build_state_graph", lambda n: graph_from_lists(n, graph3, [[1], [0], []]))
    code, out, _ = run_cli(capsys, "graph", "3")
    assert code == 1
    proper = sum(s.is_proper for s in states)
    assert out == (
        f"{proper} proper, {3 - proper} improper, DISCONNECTED, diameter 1\n"
        "bound 2(n-1)^3 = 16 satisfied: no\n"
    )


# ---------------------------------------------------------------------------
# uniformity


def test_uniformity_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "uniformity", "3", "--samples", "600", "--seed", "12",
        "--burn-in", "300", "--thin", "27",
    )
    report = json.loads(out)
    assert report["categories"] == 12 and report["dof"] == 11
    assert code == (0 if report["pass"] else 1)


def test_uniformity_stdin_mode(tmp_path, capsys, monkeypatch):
    import io

    _, gen_out, _ = run_cli(capsys, "gen", "3", "--seed", "1", "--samples", "600",
                            "--burn-in", "300", "--thin", "9")
    monkeypatch.setattr(sys, "stdin", io.StringIO(gen_out))
    code, out, _ = run_cli(capsys, "uniformity", "3", "--stdin")
    report = json.loads(out)
    assert report["samples"] == 600
    assert report["categories"] == 12

    monkeypatch.setattr(sys, "stdin", io.StringIO("n 3\n0 1 2\n1 2 0\n2 0 0\n"))
    assert_one_line_error(run_cli(capsys, "uniformity", "3", "--stdin"), 1)


def test_uniformity_stdin_reads_json_records_as_text_records(capsys, monkeypatch):
    # `gen --format json | uniformity --stdin` is the same pipe as the text one.
    import io

    reports = []
    for fmt in ("text", "json"):
        _, gen_out, _ = run_cli(capsys, "gen", "3", "--seed", "4", "--samples", "200", "--format", fmt)
        monkeypatch.setattr(sys, "stdin", io.StringIO(gen_out))
        reports.append(run_cli(capsys, "uniformity", "3", "--stdin"))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["samples"] == 200


@pytest.mark.parametrize("text", ["[1, 2]\n", "n 3\n0 1 2\n1 2 0\n2 0 1\n[[0, 1], [1, 0]]\n"])
def test_uniformity_stdin_reads_any_json_line_as_json(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    result = run_cli(capsys, "uniformity", "3", "--stdin")
    assert_one_line_error(result, 1)
    assert result[2] == "parse failure: expected an object with keys 'n' and 'grid'\n"


def test_uniformity_stdin_rejects_improper_or_other_order(capsys, monkeypatch, ex_improper):
    import io

    for square, message in (
        (ex_improper, "uniformity input must be proper squares\n"),
        (cyclic_square(3), "input squares must have order 4\n"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_square_text(square)))
        result = run_cli(capsys, "uniformity", "4", "--stdin")
        assert_one_line_error(result, 2)
        assert result[2] == message


def test_uniformity_cells_mode(capsys):
    code, out, _ = run_cli(
        capsys, "uniformity", "6", "--samples", "400", "--seed", "5",
        "--burn-in", "200", "--thin", "8",
    )
    report = json.loads(out)
    assert report["categories"] == 6 and report["dof"] == 5


def test_uniformity_orders_one_and_two_pass(capsys):
    for argv in (("2",), ("1",)):
        code, out, _ = run_cli(capsys, "uniformity", *argv, "--seed", "0")
        report = json.loads(out)
        assert code == 0 and report["pass"] is True, out


def test_uniformity_order_two_verdicts_hold_alpha(capsys, monkeypatch):
    # Two categories: Pearson's statistic is a lattice, so an exact 50/50
    # split reads 0.0; the exact binomial test must not fail it.
    for samples in ("40", "400"):
        failed = sum(
            run_cli(capsys, "uniformity", "2", "--samples", samples, "--seed", str(seed))[0] != 0
            for seed in range(200)
        )
        assert failed <= 2, (samples, failed)
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("n 2\n0 1\n1 0\n" * 40))
    code, out, _ = run_cli(capsys, "uniformity", "2", "--stdin")
    assert code == 1 and json.loads(out)["pass"] is False


def test_uniformity_too_few_samples_is_usage_error(capsys):
    assert_one_line_error(run_cli(capsys, "uniformity", "5", "--samples", "10"), 2)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latinsq", "enumerate", "3", "--count-only"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"
    proc = subprocess.run(
        [sys.executable, "-m", "latinsq", "uniformity", "5", "--samples", "10"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert_one_line_error((proc.returncode, proc.stdout, proc.stderr), 2)


# Runs in a fresh interpreter: every command but a uniformity verdict starts
# without scipy, and a verdict loads scipy.special but not scipy.stats.  The
# import, verify, path and enumerate load no numpy either; gen loads it.
STARTUP_CHILD = """
import json, sys
import latinsq
from latinsq import cli


def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)


numpy_after_import = loaded("numpy")
a, b = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["verify", a],
    ["path", a, b, "--verify"],
    ["enumerate", "3", "--count-only"],
)]
numpy_after_commands = loaded("numpy")
codes.append(cli.main(["gen", "3", "--seed", "1", "--samples", "2"]))
numpy_after_gen = "numpy" in sys.modules
codes.append(cli.main(["graph", "3"]))
scipy_after_commands = loaded("scipy")
uniformity_code = cli.main(["uniformity", "4", "--samples", "5760", "--seed", "1"])
print(json.dumps({
    "codes": codes,
    "numpy_after_import": numpy_after_import,
    "numpy_after_commands": numpy_after_commands,
    "numpy_after_gen": numpy_after_gen,
    "scipy_after_commands": scipy_after_commands,
    "uniformity_code": uniformity_code,
    "loaded_after_verdict": [m for m in ("scipy.special", "scipy.stats") if m in sys.modules],
}))
"""


def test_commands_start_without_scipy(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(format_square_text(cyclic_square(4)))
    b.write_text(format_square_text(cube_from_grid(cyclic_square(4).grid[::-1])))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, str(a), str(b)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 5
    assert report["numpy_after_import"] == report["numpy_after_commands"] == []
    assert report["numpy_after_gen"]
    assert report["scipy_after_commands"] == []
    assert report["uniformity_code"] in (0, 1)
    assert report["loaded_after_verdict"] == ["scipy.special"]


# ---------------------------------------------------------------------------
# parser fuzz: every input either parses to a valid state or is rejected
# with InvalidSquare / ValueError


def _valid_or_rejected(parse, text):
    try:
        state = parse(text)
    except (InvalidSquare, ValueError):
        return
    assert validate(state) == []


_SEEDS = [
    cyclic_square(3),
    cube_from_grid([[0, 1], [1, 0]]),
    *enumerate_improper_squares(3)[::40],
]
_TOKENS = st.sampled_from(["n", "improper", "0", "1", "2", "3", "-1", "7", "x", "1.5", ""])


@st.composite
def _square_texts(draw):
    """Well-formed square texts with a few tokens replaced or lines inserted."""
    text = format_square_text(draw(st.sampled_from(_SEEDS)))
    tokens = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.integers(0, len(tokens) - 1))
        if tokens[line] and draw(st.booleans()):
            tokens[line][draw(st.integers(0, len(tokens[line]) - 1))] = draw(_TOKENS)
        else:
            tokens.insert(line, draw(st.lists(_TOKENS, max_size=6)))
    return "\n".join(" ".join(t) for t in tokens)


_JSON_KEYS = st.sampled_from(["n", "grid", "improper", "row", "col", "positive", "negative"])


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=4)


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(-1, 8), st.text(max_size=3)),
    _json_containers,
    max_leaves=12,
)


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = [(node, k) for k, _ in items]
    for _, v in items:
        out.extend(_slots(v))
    return out


@st.composite
def _square_jsons(draw):
    """Well-formed square documents with a few values replaced or removed."""
    obj = json.loads(format_square_json(draw(st.sampled_from(_SEEDS))))
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(obj)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON_VALUES)
    return json.dumps(obj)


@given(st.one_of(_square_texts(), st.text(max_size=40)))
def test_parse_square_text_fuzz(text):
    _valid_or_rejected(parse_square_text, text)


@given(st.one_of(_square_jsons(), _JSON_VALUES.map(json.dumps), st.text(max_size=40)))
def test_parse_square_json_fuzz(text):
    _valid_or_rejected(parse_square_json, text)
