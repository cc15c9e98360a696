import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
# the CLI subprocesses import plcircle from this checkout
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "plcircle.cli", *args],
                          capture_output=True, text=True, env=ENV, **kw)


def test_show_table():
    r = run("show", str(FIXTURES / "standard_contracting.json"))
    assert r.returncode == 0
    assert "breakpoints: 2" in r.stdout
    assert "jump at 0/1: 1/3" in r.stdout
    assert "jump at 1/2: 3/1" in r.stdout


def test_show_json_roundtrip():
    r = run("show", str(FIXTURES / "standard_contracting.json"),
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc == json.loads((FIXTURES / "standard_contracting.json").read_text())


def test_eval():
    r = run("eval", str(FIXTURES / "standard_contracting.json"), "1/4")
    assert r.returncode == 0
    assert r.stdout.strip() == "1/8"


def test_eval_negative_point_after_double_dash():
    # argparse may read "-1/2" as an option; after "--" it is the point, and
    # -1/2 is 1/2 on the circle
    fx = str(FIXTURES / "standard_contracting.json")
    neg, pos = run("eval", fx, "--", "-1/2"), run("eval", fx, "1/2")
    assert (neg.returncode, neg.stdout, neg.stderr) == (0, pos.stdout, "")
    assert pos.returncode == 0 and pos.stdout


def test_compose_with_inverse_is_rotation(tmp_path):
    fx = str(FIXTURES / "rotation_one_third.json")
    out = tmp_path / "c.json"
    r = run("compose", fx, fx, "-o", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc == {"rotation": "2/3"}


@contextlib.contextmanager
def _no_digit_limit():
    """Python's int/string digit limit (3.10.7 on) lifted inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_compose_prints_answers_past_the_digit_limit(tmp_path):
    # 2,501-digit inputs compose to vertices of more than 4,300 digits, past
    # the int-to-string limit that Python applies from 3.10.7 on
    from fractions import Fraction as F
    from plcircle import PLHomeo
    from plcircle import io as pio
    g = PLHomeo([(0, 0), (F(1, 2), F(1, 10 ** 2500 + 7)), (1, 1)])
    h = PLHomeo([(0, 0), (F(1, 3), F(1, 10 ** 2500 + 9)), (1, 1)])
    paths = [tmp_path / "g.json", tmp_path / "h.json"]
    for path, m in zip(paths, (g, h)):
        path.write_text(json.dumps(pio.element_to_json(m)))
    r = run("compose", *map(str, paths))
    assert r.returncode == 0, r.stderr
    with _no_digit_limit():  # the expected strings are built with the limit lifted
        want = pio.element_to_json(g.compose(h))
    assert json.loads(r.stdout) == want
    assert max(len(c) for v in want["vertices"] for c in v) > 4300
    # and the answer reads back: show prints it byte for byte
    (tmp_path / "gh.json").write_text(r.stdout)
    back = run("show", str(tmp_path / "gh.json"), "--format", "json")
    assert back.returncode == 0, back.stderr
    assert back.stdout == r.stdout


def test_reads_integers_past_the_digit_limit(tmp_path, capsys):
    from plcircle import cli
    path = tmp_path / "e.json"
    path.write_text('{"rotation": %s}' % ("7" * 4401))
    assert cli.main(["show", str(path), "--format", "json"]) == 0
    assert capsys.readouterr() == ('{\n  "rotation": "0/1"\n}\n', "")


# Valid requests on numbers past the int/string digit limit (4,300 digits
# by default from 3.10.7 on), run in-process: each exits as recorded, with
# no message of Python's own (ROADMAP item 13's assertion).  The map has no
# fixed point, and the jumps on its 2-cycle {0, 1/2} multiply to
# (1/2 - x)/x, not 1, so smooth ends in an obstruction.
_BIG = "1/" + "7" * 5000
_MAP = {"vertices": [["0", "1/2"], [_BIG, "3/4"], ["1/2", "1"]]}
PAST_THE_LIMIT = {
    "rotation.json": {"rotation": _BIG},
    "map.json": _MAP,
    "exotic.json": {"exotic": {"A": "4", "lambda": "2" + "0" * 4999 + "1/1" + "0" * 5000}},
    "rotation_group.json": {"generators": {"r": {"rotation": _BIG}}},
    "map_group.json": {"generators": {"g": _MAP}},
    "leaf.json": [{"leaf": _BIG}],
    "r7.json": {"rotation": f"1/{10 ** 2500 + 7}"},
    "r9.json": {"rotation": f"1/{10 ** 2500 + 9}"},
}
PAST_THE_LIMIT_REQUESTS = [
    (["rotnum", "rotation.json"], 0),
    (["rotnum", "map.json"], 0),
    (["rotnum", "exotic.json"], 0),
    (["rotnum", "composed.json"], 0),
    (["show", "map.json"], 0),
    (["eval", "map.json", "1/" + "3" * 5000], 0),
    (["compose", "r7.json", "r9.json"], 0),
    (["orbit-norms", "map.json", "-N", "3"], 0),
    (["breakpoint-growth", "map.json", "-N", "3"], 0),
    (["commensuration", "map.json"], 0),
    (["smooth", "rotation_group.json"], 0),
    (["smooth", "map_group.json", "--max-vertices", "64"], 1),
    (["finite-orbit", "rotation_group.json", "--max-period", "1"], 1),
    (["finite-orbit", "map_group.json", "--max-period", "1"], 1),
    (["cb-rank", "leaf.json"], 0),
]


@pytest.fixture(scope="module")
def past_the_limit(tmp_path_factory):
    """The documents, with composed.json the rotation by the sum of the
    angles of r7.json and r9.json, and the text rotnum prints for each of
    the two rotations."""
    from fractions import Fraction as F
    root = tmp_path_factory.mktemp("past_the_limit")
    with _no_digit_limit():
        angles = {"rotation.json": F(_BIG),
                  "composed.json": F(1, 10 ** 2500 + 7) + F(1, 10 ** 2500 + 9)}
        rotnum = {name: f"{q.numerator}/{q.denominator} (exact)\n"
                  for name, q in angles.items()}
        composed = str(angles["composed.json"])
    docs = dict(PAST_THE_LIMIT, **{"composed.json": {"rotation": composed}})
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    return root, docs, rotnum


@pytest.mark.parametrize("argv, code", PAST_THE_LIMIT_REQUESTS, ids=[
    "-".join(a.removesuffix(".json") for a in argv if len(a) < 40)
    for argv, _ in PAST_THE_LIMIT_REQUESTS])
def test_requests_past_the_digit_limit(past_the_limit, monkeypatch, capsys, argv, code):
    from plcircle import cli
    root, docs, rotnum = past_the_limit
    monkeypatch.chdir(root)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""  # no "Exceeds the limit", nor any other message
    if argv[0] == "rotnum" and argv[1] in rotnum:
        assert out == rotnum[argv[1]]
    if argv[0] == "compose":
        assert json.loads(out) == docs["composed.json"]


def test_exotic_construction():
    r = run("exotic", "4", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["vertices"][0] == ["0/1", "1/3"]


def test_commensuration():
    r = run("commensuration", str(FIXTURES / "standard_contracting.json"))
    assert r.returncode == 0 and r.stdout.strip() == "4"


def test_rotnum_exact_and_bracket():
    r = run("rotnum", str(FIXTURES / "rotation_one_third.json"))
    assert r.returncode == 0 and "1/3 (exact)" in r.stdout


def test_rotnum_deep_exotic_bracket(tmp_path):
    doc = tmp_path / "exotic.json"
    doc.write_text(json.dumps({"exotic": {"A": "6/1", "lambda": "2/1"}}))
    r = run("rotnum", str(doc), "--depth", "30", timeout=60)
    assert r.returncode == 0
    assert r.stdout == "[8286/21419, 665/1719] after 30 refinements\n"
    # rho = log 2 / log 6, so p/q < rho exactly when 6^p < 2^q
    assert 6 ** 8286 < 2 ** 21419 and 2 ** 1719 < 6 ** 665


def test_orbit_norms_csv():
    r = run("orbit-norms", str(FIXTURES / "standard_contracting.json"),
            "-N", "50")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == (
        '# {"growth_params": {"component": ["0/1", "0/1"], "c0": -0.6931471805599453, '
        '"c1": 0.4054651081081645, "mu": 1.0986122886681098, '
        '"beta": 1.0986122886681098, "analyzed_inverse": false}}')
    assert lines[1] == "n,M_n,norm_sq,bound"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 50
    norms = [float(row[2]) for row in rows]
    assert norms == sorted(norms)  # non-decreasing envelope here
    ms = [int(row[1]) for row in rows]
    assert ms[0] == 2 and ms[-1] == 51


def test_smooth_success_json():
    r = run("smooth", str(FIXTURES / "conjugated_rotations.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["kind"] == "success"
    assert doc["conjugated"] == {"a": {"rotation": "1/3"},
                                 "b": {"rotation": "1/5"}}


def test_smooth_obstruction_exit_one():
    r = run("smooth", str(FIXTURES / "fixed_jump_obstruction.json"))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["kind"] == "obstruction"
    assert doc["found"] != doc["expected"]


def test_finite_orbit_exit_codes(tmp_path):
    ok = run("finite-orbit", str(FIXTURES / "fixed_jump_obstruction.json"))
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["finite_orbit"] == ["0/1"]
    # irrational-type element: no finite orbit exists
    irr = tmp_path / "irr.json"
    grp = {"generators": {"g": {"exotic": {"A": "5/1", "lambda": "2/1"}}}}
    irr.write_text(json.dumps(grp))
    none = run("finite-orbit", str(irr), "--max-period", "4")
    assert none.returncode == 1
    assert json.loads(none.stdout)["finite_orbit"] is None


def test_cb_rank_two_level_tree():
    r = run("cb-rank", str(FIXTURES / "two_level_tree.json"))
    assert r.returncode == 0
    assert "rank 3" in r.stdout


def test_malformed_json_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [["0/1", "0/1"],]}')
    r = run("show", str(bad))
    assert r.returncode == 2
    assert "line" in r.stderr
    # bytes that are not UTF-8 are rejected in one line naming the file
    bad.write_bytes(b'\xff\xfe{"rotation": "1/3"}')
    r = run("show", str(bad))
    _assert_one_error_line(r)
    assert str(bad) in r.stderr


def test_invalid_element_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    # two vertices with the same image: not injective
    bad.write_text(json.dumps(
        {"vertices": [["0/1", "0/1"], ["1/2", "0/1"], ["1/1", "1/1"]]}))
    r = run("show", str(bad))
    assert r.returncode == 2
    assert r.stderr.strip() != ""


def _assert_one_error_line(r):
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_random_rejects_more_breakpoints_than_rationals():
    # only 0 and 1/2 have denominator at most 2
    _assert_one_error_line(run("random", "--seed", "1", "-k", "3",
                               "--denom-bound", "2", timeout=30))


@pytest.mark.parametrize("command", ["breakpoint-growth", "orbit-norms"])
def test_growth_commands_reject_empty_range(command):
    # the sequence is computed before the CSV header is printed
    r = run(command, str(FIXTURES / "standard_contracting.json"), "-N", "0")
    _assert_one_error_line(r)
    assert "N must be at least 1" in r.stderr


def test_rotnum_rejects_zero_depth_by_name():
    r = run("rotnum", str(FIXTURES / "exotic_4_2.json"), "--depth", "0")
    _assert_one_error_line(r)
    assert "depth" in r.stderr and "max_q" not in r.stderr



def test_smooth_rejects_a_budget_below_the_seed_by_its_numbers():
    # the group of STD: its two breakpoints are the seed of its orbit graph
    r = run("smooth", str(FIXTURES / "fixed_jump_obstruction.json"), "--max-vertices", "1")
    _assert_one_error_line(r)
    assert "max_vertices 1 is below the 2 distinct generator breakpoints" in r.stderr

def _nested_node(depth, apex="0/1"):
    doc = '{"leaf": "%s"}' % apex
    for _ in range(depth):
        doc = ('{"limit": {"apex": "%s", "child": [%s], '
               '"direction": "right", "ratio": "1/4"}}' % (apex, doc))
    return doc


def _nested_set(depth):
    return "[%s]" % _nested_node(depth)


def test_cb_rank_rejects_deep_nesting(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_nested_set(600))
    _assert_one_error_line(run("cb-rank", str(deep)))


def test_cb_rank_rejects_colliding_leaves(tmp_path):
    doc = tmp_path / "twice.json"
    doc.write_text('[{"leaf": "1/2"}, {"leaf": "1/2"}]')
    r = run("cb-rank", str(doc))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: realized points collide at depth 3\n"


@pytest.mark.parametrize("depth", [12, 300])
def test_cb_rank_ranks_nested_limits_unrealized(tmp_path, depth):
    # 12 nested limits realize 797,161 points at depth 3, and the JSON reader
    # takes about 320 levels; no node list has two nodes, so none is realized
    doc = tmp_path / "nested.json"
    doc.write_text(_nested_set(depth))
    r = run("cb-rank", str(doc), timeout=30)
    chain = "1 " * (depth + 1)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (f"rank {depth + 1}\ntop finite set size 1\n"
                        f"derivative chain sizes: {chain}0\n")


def test_cb_rank_rejects_oversized_overlapping_siblings(tmp_path):
    # two towers of 10 limits realize 88,573 points each, and their arcs meet
    doc = tmp_path / "big.json"
    doc.write_text("[%s, %s]" % (_nested_node(10), _nested_node(10, "1/64")))
    r = run("cb-rank", str(doc), timeout=30)
    _assert_one_error_line(r)
    assert "177146 points" in r.stderr


def test_cb_rank_rejects_four_hundred_nested_limits(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_nested_set(400))
    r = run("cb-rank", str(deep), timeout=30)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: input nested too deeply\n"


def test_orbit_norms_past_the_subset_product_limit(tmp_path):
    # 22 breakpoints and a fixed point: 2^22 subset products of the jumps,
    # so growth_params rejects the map and the table is still printed
    from plcircle import io as pio
    from plcircle import random_pl, reduce_mod1, rotation
    h = random_pl(3, 22, 512)
    f = rotation(-h.eval(reduce_mod1(0)).value).compose(h)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(pio.element_to_json(f)))
    r = run("orbit-norms", str(path), "-N", "3", timeout=30)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[:2] == ['# {"growth_params": null}', "n,M_n,norm_sq,bound"]
    assert [ln.split(",")[:2] for ln in lines[2:]] == [["1", "22"], ["2", "44"], ["3", "66"]]


class _ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_pipe_exit_two(monkeypatch, capsys):
    from plcircle import cli
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = cli.main(["orbit-norms", str(FIXTURES / "standard_contracting.json"),
                     "-N", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_memory_error_exit_two(monkeypatch, capsys):
    from plcircle import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "random_pl", exhausted)
    code = cli.main(["random", "--seed", "1", "-k", "16000",
                     "--denom-bound", "1000000000"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_broken_pipe_reader_closes_early():
    # about 300 kB of output, far more than a pipe buffers, so the writer
    # is still writing when the reader closes after one line
    p = subprocess.Popen([sys.executable, "-m", "plcircle.cli", "orbit-norms",
                          str(FIXTURES / "rotation_one_third.json"), "-N", "20000"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         env=ENV)
    assert p.stdout.readline().startswith("# ")
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=60) == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["exotic", "4", "2"], ["random", "--seed", "1"],
                                  ["compose", str(FIXTURES / "standard_contracting.json"),
                                   str(FIXTURES / "rotation_one_third.json")]],
                         ids=["exotic", "random", "compose"])
@pytest.mark.parametrize("target", ["no-such-dir/e.json", "."],
                         ids=["missing_dir", "directory"])
def test_unwritable_output_exit_two(tmp_path, capsys, argv, target):
    from plcircle import cli
    path = str(tmp_path / target)
    assert cli.main(argv + ["-o", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exit_two():
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "plcircle.cli", "show",
                            str(FIXTURES / "standard_contracting.json")],
                           stdout=full, stderr=subprocess.PIPE, text=True, env=ENV)
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write output: ")
    assert r.stderr.count("\n") == 1  # no traceback, no "Exception ignored"


def test_fixture_requests_match_recorded_digests(monkeypatch, capsys):
    from plcircle import cli
    recorded = json.loads((REPO / "perfbench" / "cli_digests.json").read_text())
    monkeypatch.chdir(REPO)
    for req in recorded:
        code = cli.main(req["argv"])
        out = capsys.readouterr().out
        assert code == req["exit"], req["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == req["sha256"], req["argv"]


def test_smooth_obstruction_stops_early(monkeypatch, capsys):
    # the obstruction is the first edge read, so a budget of 10^5 vertices
    # gives the cycle recorded for a budget of 64, without expanding them
    from plcircle import cli
    recorded = json.loads((REPO / "perfbench" / "cli_digests.json").read_text())
    argv = ["smooth", "fixtures/fixed_jump_obstruction.json", "--max-vertices"]
    want = next(r for r in recorded if r["argv"] == argv + ["64"])
    monkeypatch.chdir(REPO)
    assert cli.main(argv + ["100000"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


# rotation number 1/5 on a periodic orbit that misses 0: a search with
# max_q = 4 tests only the orbit of 0, so it ends in a bracket
ROTNUM_ONE_FIFTH = {"vertices": [
    ["1/20", "1/4"], ["3/20", "3/10"], ["1/4", "9/20"], ["7/20", "1/2"],
    ["9/20", "13/20"], ["11/20", "7/10"], ["13/20", "17/20"], ["3/4", "9/10"],
    ["17/20", "21/20"], ["19/20", "11/10"]]}


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # one process serves every request from one parser
    from plcircle import cli
    assert cli.build_parser() is cli.build_parser()
    std = str(FIXTURES / "standard_contracting.json")
    assert cli.main(["show", std, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(
        (FIXTURES / "standard_contracting.json").read_text())
    assert cli.main(["show", std]) == 0
    assert capsys.readouterr().out.startswith("vertices (lift):\n")
    doc = tmp_path / "fifth.json"
    doc.write_text(json.dumps(ROTNUM_ONE_FIFTH))
    assert cli.main(["rotnum", str(doc), "--max-q", "4"]) == 0
    assert capsys.readouterr().out == "[12/61, 1/5] after 16 refinements\n"
    assert cli.main(["rotnum", str(doc)]) == 0
    assert capsys.readouterr().out == "1/5 (exact)\n"
    assert cli.main(["rotnum"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert cli.main(["eval", std, "1/4"]) == 0
    assert capsys.readouterr() == ("1/8\n", "")


@pytest.mark.parametrize("argv, message", [
    (["rotnum", str(FIXTURES / "exotic_4_2.json"), "--depth", "abc"],
     "argument --depth: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["rotnum", str(FIXTURES / "exotic_4_2.json"), "--bogus"],
     "unrecognized arguments: --bogus"),
    # past Python's int-from-string digit limit (3.10.7 on)
    (["rotnum", str(FIXTURES / "exotic_4_2.json"), "--depth", "9" * 5000],
     "argument --depth: value too large: 999"),
], ids=["bad_int", "missing_command", "unknown_command", "unknown_option",
        "too_many_digits"])
def test_usage_error_is_one_line_exit_two(capsys, argv, message):
    # argparse by default prints its usage text and raises SystemExit(2)
    from plcircle import cli
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [
    ["rotnum", str(FIXTURES / "exotic_4_2.json"), "--depth", "9" * 5000],
    ["c" * 300],
    ["show", str(FIXTURES / "exotic_4_2.json"), "--format", "f" * 300],
], ids=["long_int", "long_command", "long_choice"])
def test_usage_error_quotes_a_long_value_short(capsys, argv):
    # argparse puts the whole value in its message; the wording differs
    # across Python versions, so only the shape and length are checked
    from plcircle import cli
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300 and "..." in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("argv, message", [
    (["show", str(FIXTURES / "exotic_4_2.json"), "a\nb"],
     "unrecognized arguments: a\\nb"),
    # the OSError's own text would repeat the path
    (["show", "no\nsuch.json"],
     "cannot read no\\nsuch.json: No such file or directory\n"),
    (["exotic", "4", "2", "-o", "{tmp}/no\ndir/e.json"],
     "cannot write {tmp}/no\\ndir/e.json: "),
], ids=["argument", "missing_path", "unwritable_path"])
def test_line_breaks_in_a_message_are_shown_as_backslash_n(tmp_path, capsys, argv,
                                                           message):
    from plcircle import cli
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message.format(tmp=tmp_path) in err


@pytest.mark.parametrize("command, doc, key", [
    ("smooth", '{"generators": {"a": {"rotation": "1/3"}, "a": {"rotation": "1/2"}}}',
     '"a"'),
    ("show", '{"rotation": "1/3", "rotation": "1/2"}', '"rotation"'),
    ("cb-rank", '[{"leaf": "0/1"}, {"leaf": "1/3", "leaf": "1/2"}]', '"leaf"'),
    ("show", '{"rotation": "1/3", "%s": 1, "%s": 2}' % ("k" * 60, "k" * 60),
     '"' + "k" * 39 + "..."),
], ids=["group", "element", "set_node", "long_key"])
def test_repeated_json_key_is_rejected(tmp_path, capsys, command, doc, key):
    # json would keep the last value of a repeated key and drop the others
    from plcircle import cli
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {path}: repeated key {key}\n")


def test_usage_errors_and_help_through_the_process():
    r = run()
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: the following arguments are required: command\n"
    r = run("-h")
    assert r.returncode == 0 and r.stdout.startswith("usage: plcircle")


@pytest.mark.parametrize("value", ["x" * 200_000, [1] * 50_000],
                         ids=["long_string", "long_list"])
def test_rejected_rational_gives_short_message(tmp_path, capsys, value):
    from plcircle import cli
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"rotation": value}))
    assert cli.main(["show", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a rational" in err or "rational expected" in err
    assert len(err) < 200


BIG = "1" + "0" * 4500  # past the 4,300-digit int-to-string limit


def _limit(**fields):
    return json.dumps([{"limit": {"apex": "0/1", "child": [{"leaf": "0/1"}],
                                  "direction": "right", "ratio": "1/2", **fields}}])


@pytest.mark.parametrize("command, doc, condition", [
    ("show", json.dumps({"exotic": {"A": "2", "lambda": "1/" + BIG}}),
     "lambda must lie strictly between 1 and A"),
    ("cb-rank", _limit(ratio=BIG), "ratio must lie in (0, 1)"),
    ("cb-rank", _limit(direction="x" * 200_000), "direction must be 'left' or 'right'"),
    ("show", '{"rotation": [%s]}' % BIG, "rational expected, got list"),
    ("cb-rank", _limit(child=[]), "limit node requires a nonempty child set"),
    ("cb-rank", json.dumps([{"limit": {"apex": "0/1"}}]), "limit node requires fields"),
    ("show", json.dumps({"exotic": {"A": "4"}}), 'field "exotic" must be'),
], ids=["exotic_lambda", "limit_ratio", "limit_direction", "rotation_list",
        "limit_empty_child", "limit_missing_fields", "exotic_missing_lambda"])
def test_rejected_value_of_any_size_gives_short_message(tmp_path, capsys, command,
                                                        doc, condition):
    # the message names the condition, and is built and clipped however large
    # the rejected value
    from plcircle import cli
    path = tmp_path / "doc.json"
    path.write_text(doc)
    assert cli.main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert condition in err and "Exceeds the limit" not in err
    assert len(err) < 200


def test_deterministic_output():
    a = run("random", "--seed", "7")
    b = run("random", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.name)
def test_every_fixture_parses(path):
    from plcircle import io as pio
    doc = pio.load_json(str(path))
    if isinstance(doc, list):
        pio.symbolic_set_from_json(doc)
    elif "generators" in doc:
        pio.group_from_json(doc)
    else:
        pio.element_from_json(doc)


@pytest.mark.parametrize("doc, argv", [
    ({"rotation": "1e-1000000"}, ["show"]),
    ({"rotation": "0.5"}, ["show"]),
    ({"rotation": True}, ["show"]),
    ({"vertices": [["0/1", "0/1"], ["1/2", "1/4"], [True, "1/1"]]}, ["show"]),
    ({"exotic": {"A": "4", "lambda": "2e0"}}, ["show"]),
    ({"rotation": "1/3"}, ["eval", "{path}", "1e-10000000"]),
    ({"rotation": "1/3"}, ["eval", "{path}", "0.25"]),
], ids=["exponent", "decimal", "true", "true_vertex", "exotic_exponent",
        "point_exponent", "point_decimal"])
def test_rejects_rationals_not_in_p_q_form(tmp_path, capsys, doc, argv):
    from plcircle import cli
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(path=path) for a in argv]
    if argv == ["show"]:
        argv.append(str(path))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a rational" in err or "rational expected" in err


# -- fuzzing the CLI on malformed documents ------------------------------------

_rationals = st.one_of(
    st.fractions(-2, 2, max_denominator=12).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.sampled_from(["0/1", "1/2", "1/3", "2/3", "3/4", "-1/4", "5/4", "1/1", "4/1",
                     "1/0", "0.5", "1e-5", "", " 1/2", "1/-2", "abc", "+1/3"]),
    st.integers(-3, 5))
_scalars = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, width=16),
                     st.text(max_size=4), _rationals)
_keys = st.sampled_from(["vertices", "rotation", "exotic", "A", "lambda", "generators",
                         "leaf", "limit", "apex", "child", "direction", "ratio", "x"])


@st.composite
def _documents(draw, depth=4, kind="any"):
    """A JSON value nested at most `depth` deep.  It is mostly shaped like
    the `kind` of document asked for (an element, a symbolic set, or any of
    these and a group), with wrong types, missing keys and bad rationals
    mixed in at every level."""
    if depth == 0:
        return draw(_scalars)
    junk = ["scalar", "list", "dict"]
    shapes = {"any": ["element", "group", "set"] + junk,
              "element": ["vertices", "vertices", "exotic", "rotation"] + junk,
              "group": ["generators"] * 3 + junk,
              "set": ["nodes"] * 3 + junk}[kind]
    shape = draw(st.sampled_from(shapes))
    inner = _documents(depth - 1)
    if shape == "scalar":
        return draw(_scalars)
    if shape == "list":
        return draw(st.lists(inner, max_size=3))
    if shape == "dict":
        return draw(st.dictionaries(_keys, inner, max_size=3))
    if shape in ("element", "group", "set"):
        return draw(_documents(depth, shape))
    if shape == "vertices":
        pair = st.one_of(st.tuples(_rationals, _rationals).map(list),
                         st.lists(_rationals, max_size=3))
        return {"vertices": draw(st.lists(pair, max_size=4))}
    if shape == "exotic":
        return {"exotic": {"A": draw(_rationals), "lambda": draw(_rationals)}}
    if shape == "rotation":
        return {"rotation": draw(_rationals)}
    if shape == "generators":
        return {"generators": draw(st.dictionaries(st.text(max_size=2),
                                                   _documents(depth - 1, "element"),
                                                   max_size=2))}
    leaf = st.builds(lambda p: {"leaf": p}, _rationals)
    limit = st.builds(
        lambda a, c, d, r: {"limit": {"apex": a, "child": c, "direction": d, "ratio": r}},
        _rationals, _documents(depth - 1, "set"),
        st.sampled_from(["left", "right", "up", 1]), _rationals)
    return draw(st.lists(st.one_of(leaf, limit, inner), max_size=3))


@given(st.sampled_from([(["show"], "element"),
                        (["smooth", "--max-vertices", "64"], "group"),
                        (["cb-rank"], "set")]).flatmap(
    lambda req: st.tuples(st.just(req[0]), _documents(4, req[1]))))
@example(command_and_doc=(["smooth", "--max-vertices", "64"],
                          {"generators": {"\n": {"vertices": []}}}))
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_malformed_documents(tmp_path_factory, command_and_doc):
    command, doc = command_and_doc
    from plcircle import cli
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
