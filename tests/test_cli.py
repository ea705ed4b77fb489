import hashlib
import json
import os
import subprocess
import sys

import pytest

from tonalg import algebra
from tonalg import diagram as dg
from tonalg.algebra import enumerate_basis
from tonalg.cli import main, parse_mu, parse_rational
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_mu():
    assert parse_mu("2,1|1", 2, 5) == ((2, 1), (1,))
    assert parse_mu("2|-", 2, 4) == ((2,), ())
    assert parse_mu("-|-|3", 3, 9) == ((), (), (3,))
    with pytest.raises(ValueError):
        parse_mu("2|1|1", 2, 4)
    with pytest.raises(ValueError):
        parse_mu("1,2|-", 2, 3)


def test_parse_rational():
    assert parse_rational("5/3") == Fraction(5, 3)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_compose(capsys):
    code, out = run_cli(capsys, ["compose", "--p", "2,2|T1,T2;B1,B2", "--q", "2,2|T1,T2;B1,B2"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"delta_exponent": 1, "diagram": "2,2|T1,T2;B1,B2"}


@pytest.mark.parametrize("argv, text", [
    (["--p=-1,2|", "--q", "2,0|T1,T2"], "-1,2|"),
    (["--p", "2|T1,B1", "--q", "1,1|T1,B1"], "2|T1,B1"),
])
def test_malformed_diagram_head_is_named(capsys, argv, text):
    code = main(["compose"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    head = text.partition("|")[0]
    message = "--p %r: head %r must be two nonnegative integers n,m" % (text, head)
    assert captured.err == "error: %s\n" % message


def test_basis(capsys):
    code, out = run_cli(capsys, ["basis", "--l", "2", "--n", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4


def test_basis_output_matches_serialized_diagrams(capsys):
    # the generator route against serialize over enumerate_basis, byte for byte
    for l in range(1, 5):
        for n in range(5):
            for m in range(5):
                texts = [dg.serialize(d) for d in enumerate_basis(l, n, m)]
                code, out = run_cli(capsys, ["basis", "--l", str(l), "--n", str(n), "--m", str(m)])
                assert code == 0
                obj = {"l": l, "n": n, "m": m, "count": len(texts), "diagrams": texts}
                assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
                argv = ["basis", "--l", str(l), "--n", str(n), "--m", str(m), "--format", "csv"]
                code, out = run_cli(capsys, argv)
                assert code == 0
                assert out == "\n".join(["diagram"] + texts) + "\n"


def test_basis_takes_only_the_text_route(capsys, monkeypatch):
    # basis builds no Diagram, calls no serialize and walks no block tuples
    _, want = run_cli(capsys, ["basis", "--l", "2", "--n", "4"])

    def refuse(*args, **kwargs):
        raise AssertionError("basis left the text route")

    monkeypatch.setattr(dg.Diagram, "__init__", refuse)
    monkeypatch.setattr(dg, "serialize", refuse)
    monkeypatch.setattr(algebra, "tone_partitions", refuse)
    code, out = run_cli(capsys, ["basis", "--l", "2", "--n", "4"])
    assert code == 0
    assert out == want


def test_basis_output_matches_benchmark_digests(tmp_path):
    # the digests and counts that perfbench/run.py checks its basis steps
    # against, so byte identity is also checked on every tested Python
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)["basis"]
    assert expected
    for key, exp in sorted(expected.items()):
        l, n = key.split(",")
        path = tmp_path / "basis.json"
        assert main(["basis", "--l", l, "--n", n, "--out", str(path)]) == 0
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == exp["sha256"], key
        assert json.loads(data)["count"] == exp["count"], key


def test_gram_output_matches_benchmark_record(capsys):
    # the record that perfbench/run.py checks its gram steps against: --det
    # once per label, then --at at each recorded point
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        expected = json.load(fh)["gram"]
    assert len(expected) == 17
    for key, exp in sorted(expected.items()):
        l, n, mu = key.split(",", 2)
        argv = ["gram", "--l", l, "--n", n, "--mu=" + mu]
        code, out = run_cli(capsys, argv + ["--det"])
        got = json.loads(out)
        assert code == 0 and all(got[k] == exp[k] for k in ("dim", "generic_rank", "det")), key
        assert len(exp["rank_at"]) == 6
        for point, rank in exp["rank_at"].items():
            code, out = run_cli(capsys, argv + ["--at=" + point])
            assert (code, json.loads(out)["rank_at"]) == (0, rank), (key, point)


def test_gamma_json_matches_worked_levels(capsys):
    code, out = run_cli(capsys, ["gamma", "--l", "3", "--n", "8"])
    assert code == 0
    obj = json.loads(out)
    assert obj["eta"]["4"] == [[0, 4, 0], [1, 2, 1], [2, 0, 2]]
    assert obj["eta"]["3"] == [[0, 1, 2]]
    assert obj["h_min"] == 3


def test_gamma_dot(capsys, tmp_path):
    path = tmp_path / "g.dot"
    code, _ = run_cli(capsys, ["gamma", "--l", "2", "--n", "2", "--format", "dot", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.count("->") == 2


def test_module(capsys):
    code, out = run_cli(capsys, ["module", "--l", "2", "--n", "4", "--mu", "2|-"])
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 10
    assert obj["vector"] == [2, 0]


def test_module_matrices(capsys):
    code, out = run_cli(capsys, ["module", "--l", "2", "--n", "2", "--mu=-|1", "--matrices"])
    assert code == 0
    obj = json.loads(out)
    assert "A12" in obj["generators"] and "s1" in obj["generators"]


def test_gram(capsys):
    code, out = run_cli(capsys, [
        "gram", "--l", "2", "--n", "3", "--mu", "1|-", "--det", "--at", "1/1",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 4
    assert obj["rank_at"] == 1
    assert obj["det_str"] == "d^3 - 3*d^2 + 3*d - 1"


def test_bratteli_files(capsys, tmp_path):
    dot = tmp_path / "b.dot"
    csv = tmp_path / "dims.csv"
    code, out = run_cli(capsys, [
        "bratteli", "--l", "2", "--n-max", "3", "--dot", str(dot), "--csv", str(csv),
    ])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["layers"]) == 4
    assert dot.read_text().startswith("digraph")
    assert csv.read_text().splitlines()[0] == "n,label,dim"


def test_structure(capsys):
    code, out = run_cli(capsys, ["structure", "--l", "2", "--n", "4", "--at", "0/1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["p_chain"] == [[4, 0], [2, 0], [0, 0]]
    assert obj["sections_sum_to_dim"]


def test_verify_pass(capsys):
    code, out = run_cli(capsys, ["verify", "--l", "2", "--n-max", "4"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_subset(capsys):
    code, out = run_cli(capsys, [
        "verify", "--l", "2", "--n-max", "3", "--only", "sum-of-squares,index-set-split",
    ])
    assert code == 0
    assert out.count("PASS") == 8


def test_verify_unknown_check(capsys):
    # the names are shown by repr, so an empty one is seen
    assert main(["verify", "--l", "2", "--n-max", "2", "--only", "nope,sum-of-squares,"]) == 2
    assert capsys.readouterr().err == "error: unknown checks: 'nope', ''\n"


def test_verify_failure_exits_1(capsys, monkeypatch):
    import tonalg.verify as vf

    monkeypatch.setitem(vf._CHECK_MAP, "sum-of-squares", lambda l, n: False)
    code, out = run_cli(capsys, ["verify", "--l", "2", "--n-max", "1", "--only", "sum-of-squares"])
    assert code == 1
    assert "FAIL sum-of-squares" in out


def test_verify_error_is_not_a_failure(capsys, monkeypatch):
    import tonalg.verify as vf

    def broken(l, n):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(vf._CHECK_MAP, "sum-of-squares", broken)
    code, out = run_cli(capsys, ["verify", "--l", "2", "--n-max", "1", "--only", "sum-of-squares,index-set-split"])
    assert code == 3
    assert "ERROR sum-of-squares (l=2,n=0): ZeroDivisionError: boom" in out
    assert "FAIL" not in out
    assert out.count("PASS index-set-split") == 2
    assert out.strip().splitlines()[-1] == "2/4 checks passed"


@pytest.mark.parametrize("argv", [
    ["basis", "--l", "0", "--n", "2"],
    ["gamma", "--l", "0", "--n", "2"],
    ["gram", "--l", "2", "--n", "3", "--mu", "1|-", "--at", "1/0"],
    ["structure", "--l", "2", "--n", "3", "--at", "1/0"],
    ["basis", "--l", "2", "--n", "-1"],
    ["basis", "--l", "2", "--n", "2", "--m", "-1"],
    ["verify", "--l", "0", "--n-max", "2"],
    ["verify", "--l", "2", "--n-max", "-1"],
    ["verify", "--l", "2", "--n-max", "2", "--only", "nope"],
    ["verify", "--l", "2", "--n-max", "2", "--only", "sum-of-squares,"],
    ["verify", "--l", "2", "--n-max", "2", "--only="],
])
def test_bad_input_is_refused_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


AT_ERROR = "--at %r: expected an exact rational p or p/q, q nonzero"
GRAM_23 = ["gram", "--l", "2", "--n", "3"]


@pytest.mark.parametrize("argv, message", [
    (GRAM_23 + ["--mu", "1|-", "--at", ""], AT_ERROR % ""),
    (["structure", "--l", "2", "--n", "3", "--at", ""], AT_ERROR % ""),
    (GRAM_23 + ["--mu", "1|-", "--at", "1.5"], AT_ERROR % "1.5"),
    (GRAM_23 + ["--mu", "1|-", "--at", "1/x"], AT_ERROR % "1/x"),
    (GRAM_23 + ["--mu", "1|-", "--at", "5/"], AT_ERROR % "5/"),
    (GRAM_23 + ["--mu", "x|-"], "--mu 'x|-': component 'x' is not a partition"),
    (GRAM_23 + ["--mu", "1,|-"], "--mu '1,|-': component '1,' is not a partition"),
    (["compose", "--p", "2,2|T1,Tx;T2,B1,B2", "--q", "2,2|T1,B1;T2,B2"],
     "--p '2,2|T1,Tx;T2,B1,B2': cannot interpret vertex 'Tx'"),
    (["compose", "--p", "2,2|T1,B1;T2,B2", "--q", "2,2|T1,B1;T2,B9"],
     "--q '2,2|T1,B1;T2,B9': bottom index out of range: B9"),
    (GRAM_23 + ["--mu=2|-"], "--mu '2|-': vector (2, 0) is not in the index set for l=2, n=3"),
    (["module", "--l", "2", "--n", "3", "--mu=-|2"],
     "--mu '-|2': vector (0, 2) is not in the index set for l=2, n=3"),
])
def test_bad_point_or_label_is_named(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


LOADED_MODULES = """
import json, sys
from tonalg.cli import main
argv = json.loads(sys.argv[1])
if argv:
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "tonalg")))
"""
BASIS_MODULES = {"cli", "diagram", "algebra"}
# gram reads no basis, so it loads no algebra
GRAM_MODULES = {"cli", "diagram", "exactla", "gamma", "gram", "standard_modules", "symmetric"}


@pytest.mark.parametrize("argv, loaded", [
    ([], {"cli", "diagram"}),
    (["basis", "--l", "2", "--n", "3"], BASIS_MODULES),
    (["gram", "--l", "2", "--n", "3", "--mu", "1|-", "--det", "--at", "1/1"], GRAM_MODULES),
    (["verify", "--l", "1", "--n-max", "1"], GRAM_MODULES | {"algebra", "branching", "structure", "verify"}),
])
def test_subcommand_imports_only_what_it_runs(argv, loaded):
    # a fresh process, so the modules other tests imported do not count
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-c", LOADED_MODULES, json.dumps(argv)]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    names = json.loads(res.stdout.splitlines()[-1])
    assert names == sorted({"tonalg"} | {"tonalg." + name for name in loaded})


def test_bad_arguments_exit_2(capsys):
    assert main(["basis", "--l", "2"]) == 2
    assert main(["nope"]) == 2
    assert main(["module", "--l", "2", "--n", "3", "--mu", "oops|"]) == 2
    assert main(["compose", "--p", "1,1|T1,B1", "--q", "2,2|T1,T2,B1,B2"]) == 2


def test_verify_runs_in_order_and_ignores_tonalg_threads(capsys, monkeypatch):
    from tonalg.verify import run_verify

    names = ["sum-of-squares", "index-set-split"]
    results = run_verify(2, 1, names)
    assert [(r.name, r.params) for r in results] == [
        (name, "l=2,n=%d" % n) for n in range(2) for name in names
    ]
    assert all(r.ok and r.error is None for r in results)
    # verify reads no environment variable: this one, set or malformed, changes nothing
    monkeypatch.delenv("TONALG_THREADS", raising=False)
    runs = [run_cli(capsys, ["verify", "--l", "2", "--n-max", "1"])]
    for threads in ("2", "abc"):
        monkeypatch.setenv("TONALG_THREADS", threads)
        runs.append(run_cli(capsys, ["verify", "--l", "2", "--n-max", "1"]))
    assert runs[0][0] == 0 and runs == [runs[0]] * 3


def test_output_determinism(capsys):
    _, out1 = run_cli(capsys, ["gamma", "--l", "3", "--n", "6"])
    _, out2 = run_cli(capsys, ["gamma", "--l", "3", "--n", "6"])
    assert out1 == out2
    _, g1 = run_cli(capsys, ["gram", "--l", "2", "--n", "4", "--mu=-|1", "--det"])
    _, g2 = run_cli(capsys, ["gram", "--l", "2", "--n", "4", "--mu=-|1", "--det"])
    assert g1 == g2


@pytest.mark.parametrize("argv, read", [
    (["module", "--l", "2", "--n", "5", "--mu=1|1", "--matrices"], 0),
    (["basis", "--l", "2", "--n", "5"], 300),
])
def test_closed_output_pipe_exits_2_without_traceback(argv, read):
    # the reader goes away early: before any output, or after 300 bytes of
    # an output far larger than a pipe holds
    path = [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.Popen([sys.executable, "-m", "tonalg.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.count("error:") <= 1 and len(err.splitlines()) <= 1


@pytest.mark.parametrize("argv", [
    ["basis", "--l", "0", "--n", "2"],
    ["basis", "--l", "2", "--n", "-1"],
    ["basis", "--l", "2", "--n", "2", "--m", "-1"],
])
def test_refused_basis_leaves_the_output_file(capsys, tmp_path, argv):
    path = tmp_path / "basis.json"
    path.write_bytes(b"kept\n")
    assert main(argv + ["--out", str(path)]) == 2
    assert path.read_bytes() == b"kept\n"
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_basis_output_is_refused_before_the_walk(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the walk ran before the output was opened")

    monkeypatch.setattr(algebra, "_tone_walk", refuse)
    target = str(tmp_path / "missing" / "out.json")
    assert main(["basis", "--l", "1", "--n", "3", "--out", target]) == 2
    assert target in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["basis", "--l", "2", "--n", "2", "--out"],
    ["bratteli", "--l", "2", "--n-max", "2", "--dot"],
    ["bratteli", "--l", "2", "--n-max", "2", "--csv"],
])
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out.txt")
    assert main(argv + [target]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and target in err
