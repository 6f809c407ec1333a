"""Command line behaviour: exit codes, formats, seed handling."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from epsaccel.cli import main
from epsaccel.harness import PROTOCOLS
from epsaccel.seqio import write_terms

LN2_SUMS = [1.0, 0.5, 5.0 / 6.0, 7.0 / 12.0, 47.0 / 60.0, 37.0 / 60.0,
            319.0 / 420.0]


@pytest.fixture
def ln2_file(tmp_path):
    path = tmp_path / "ln2.txt"
    write_terms(path, [np.array(s) for s in LN2_SUMS])
    return str(path)


def _rows(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def test_accelerate_csv_hits_shanks_value(ln2_file, capsys):
    assert main(["accelerate", ln2_file, "--algo", "scalar"]) == 0
    rows = _rows(capsys.readouterr().out)
    cell = [r for r in rows if r["col"] == "2" and r["n"] == "0"]
    assert float(cell[0]["norm_inf"]) == 0.7
    assert cell[0]["terms"] == "3"


def test_accelerate_json_matches_report(ln2_file, capsys):
    code = main(["accelerate", ln2_file, "--algo", "stea2", "--format", "json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    from epsaccel.harness import run
    rep = run({"source": {"kind": "file", "path": ln2_file},
               "algorithm": {"variant": "stea2", "form": 3, "max_k": 5,
                             "p": 10, "rules": True},
               "functional": {"kind": "auto"},
               "n_terms": len(LN2_SUMS), "seed": 0,
               "label": blob["spec"]["label"]})
    assert blob["entries"] == json.loads(rep.to_json())["entries"]
    assert blob["sigma"] == rep.sigma


def test_accelerate_out_file_and_limit(ln2_file, tmp_path, capsys):
    limit = tmp_path / "limit.txt"
    write_terms(limit, [np.array(np.log(2.0))])
    out = tmp_path / "run.csv"
    code = main(["accelerate", ln2_file, "--limit-file", str(limit),
                 "--out", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    rows = _rows(out.read_text())
    errs = [float(r["error_inf"]) for r in rows if r["error_inf"]]
    assert errs and min(errs) < 1e-4


def test_accelerate_reads_each_input_file_once(ln2_file, tmp_path, capsys,
                                               monkeypatch):
    # the command line names the input and the limit file, and the harness
    # reads each of them once
    from epsaccel import seqio

    limit = tmp_path / "limit.txt"
    write_terms(limit, [np.array(np.log(2.0))])
    reads = []
    read_terms = seqio.read_terms

    def counted(path):
        reads.append(str(path))
        return read_terms(path)

    monkeypatch.setattr(seqio, "read_terms", counted)
    assert main(["accelerate", ln2_file, "--limit-file", str(limit),
                 "--format", "json"]) == 0
    assert sorted(reads) == sorted([ln2_file, str(limit)])
    spec = json.loads(capsys.readouterr().out)["spec"]
    assert spec["source"] == {"kind": "file", "path": ln2_file,
                              "limit_path": str(limit)}


def test_missing_input_exits_2(capsys):
    assert main(["accelerate", "/no/such/file.txt"]) == 2
    assert "epsaccel:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["accelerate", None, "--algo", "stea2"],
                                     ["reproduce", "ns", "--dim", "6"]])
def test_out_file_that_cannot_be_written_exits_2(ln2_file, tmp_path, capsys, command):
    # an unwritable --out is unusable input, not a numerical breakdown
    out = tmp_path / "no-such-dir" / "x.csv"
    argv = [ln2_file if arg is None else arg for arg in command]
    assert main([*argv, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("epsaccel: ") and err.count("\n") == 1 and str(out) in err


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("# tensor 2 2 2\n1 2 3\n")
    assert main(["accelerate", str(path)]) == 2
    assert "epsaccel:" in capsys.readouterr().err


def test_non_finite_input_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("vector 2\n1 2\n1.5 nan\n1.25 2\n")
    assert main(["accelerate", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("role", [[], ["--limit-file"], ["--functional", "dot", "--y-file"]],
                         ids=["input", "limit", "y"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, role):
    # unusable input, not a breakdown, in whichever role the file is read
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_terms(good, [np.array([1.0, 2.0]) * 0.5 ** n + 1 for n in range(7)])
    bad.write_bytes(b"vector 2\n1 2\n\xff\xfe 3\n4 5\n")
    argv = [str(bad)] if not role else [str(good), *role, str(bad)]
    assert main(["accelerate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"epsaccel: {bad}: not UTF-8 text\n"


# arguments that do not fit a vector-3 file's terms, by case; "{...}" names
# a file the test writes
_MISFITS = {
    "vector-2 limit": ["{vector}", "--limit-file", "{vector2}"],
    "scalar limit": ["{vector}", "--limit-file", "{scalar}"],
    "trace of vectors": ["{vector}", "--functional", "trace"],
    "bilinear of vectors": ["{vector}", "--functional", "bilinear"],
    "dot of matrices": ["{matrix}", "--functional", "dot"],
    "y of another length": ["{vector}", "--functional", "dot", "--y-file", "{vector2}"],
    "header-only limit": ["{vector}", "--limit-file", "{header}"],
    "header-only y": ["{vector}", "--functional", "dot", "--y-file", "{header}"],
}


@pytest.mark.parametrize("algo", ["scalar", "stea1", "stea2", "tea1", "tea2"])
@pytest.mark.parametrize("case", sorted(_MISFITS))
def test_input_that_does_not_fit_the_terms_exits_2(tmp_path, capsys, case, algo):
    # unusable input, not a breakdown: one line on stderr and no traceback
    files = {"vector": [np.array([1.0, 2.0, 3.0]) * 0.5 ** n + 1 for n in range(7)],
             "vector2": [np.zeros(2)], "scalar": [np.array(0.0)],
             "matrix": [np.eye(2) * 0.5 ** n for n in range(7)]}
    paths = {}
    for name, terms in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        write_terms(paths[name], terms)
    # a header and no terms, which write_terms refuses to write
    paths["header"] = str(tmp_path / "header.txt")
    (tmp_path / "header.txt").write_text("vector 3\n")
    argv = [arg.format(**paths) for arg in _MISFITS[case]]
    assert main(["accelerate", *argv, "--algo", algo]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("epsaccel: "), err


def test_scalar_error_whose_modulus_overflows_is_inf(tmp_path, capsys):
    # the first term's reduced difference, 1.5e308+1.5e308j, has finite
    # parts and an infinite modulus; the later terms accelerate
    path, limit = tmp_path / "huge.txt", tmp_path / "zero.txt"
    write_terms(path, [np.array([1.5e308 + 1.5e308j, 0.0])]
                + [np.array([0.5 ** n, 0.25 ** n]) + 0j for n in range(1, 8)])
    write_terms(limit, [np.zeros(2)])
    assert main(["accelerate", str(path), "--algo", "scalar",
                 "--limit-file", str(limit)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0]["error_inf"] == "inf" and rows[0]["valid"] == "True"


def test_breakdown_exits_1(tmp_path, capsys):
    path = tmp_path / "const.txt"
    write_terms(path, [np.array(2.0)] * 8)
    code = main(["accelerate", str(path), "--no-rules"])
    assert code == 1
    assert "breakdown" in capsys.readouterr().err


def test_seed_flag_sets_the_seed(ln2_file, capsys):
    blobs = []
    for seed in ("5", "11"):
        assert main(["accelerate", ln2_file, "--functional", "random-dot",
                     "--seed", seed, "--format", "json"]) == 0
        blobs.append(json.loads(capsys.readouterr().out))
    assert [b["spec"]["seed"] for b in blobs] == [5, 11]
    assert blobs[0]["entries"] != blobs[1]["entries"]


def test_reproduce_json(capsys):
    assert main(["reproduce", "ns", "--dim", "12", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["protocol"] == "ns"
    assert all("gain_orders" in row for row in blob["rows"])


def test_reproduce_table(capsys):
    assert main(["reproduce", "kernel-vector", "--dim", "12", "--kmax", "2",
                 "--p", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("protocol: kernel-vector")
    assert "stea2 form 3" in out


def test_negative_kmax_exits_2(ln2_file, capsys):
    for argv in ([["accelerate", ln2_file, "--algo", algo]
                  for algo in ("scalar", "stea1", "stea2", "tea1", "tea2")]
                 + [["reproduce", "ns"]]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kmax", "-1"])
        assert exc.value.code == 2, argv
        assert "--kmax" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--p"])
def test_negative_seed_or_p_exits_2(ln2_file, capsys, flag):
    # a negative seed is no seed numpy takes, and a negative digit count
    # puts the trigger above 1, or overflows it: both are argument errors,
    # for every subcommand that takes the flag
    argvs = [["accelerate", ln2_file, "--algo", algo]
             for algo in ("scalar", "stea1", "stea2", "tea1", "tea2")]
    argvs += [["reproduce", name] for name in ("kernel-vector", "kernel-matrix")]
    if flag == "--seed":
        argvs.append(["reproduce", "ns"])
    for argv in argvs:
        for value in ("-1", "-400"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and flag in captured.err, argv


def test_accelerate_has_no_parity_flag(ln2_file, capsys):
    # the singular test watches every column; no flag restricts it
    with pytest.raises(SystemExit) as exc:
        main(["accelerate", ln2_file, "--parity", "both"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--parity" in captured.err


def test_reproduce_lists_the_harness_protocols(capsys):
    assert PROTOCOLS == ("kernel-vector", "kernel-matrix", "kaczmarz", "ns", "qpow",
                         "stein")
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--help"])
    assert exc.value.code == 0
    assert "{kernel-vector,kernel-matrix,kaczmarz,ns,qpow,stein}" in capsys.readouterr().out


def test_reproduce_jobs_is_accepted_only_as_1(capsys):
    # the benchmark's argument form: --jobs 1 changes nothing, and runs are
    # serial, so any other count is an argument error
    argv = ["reproduce", "kernel-vector", "--dim", "12", "--format", "json"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--jobs", "1"]) == 0
    assert capsys.readouterr().out == serial
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--jobs" in captured.err


def test_reproduce_table_of_a_solver_column_with_no_entry(capsys):
    # columns 14 to 18 have no entry and so no row; the table is formatted
    assert main(["reproduce", "ns", "--kmax", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "protocol: ns" and "kmax=9" in lines[1]
    assert [ln.split()[0] for ln in lines[3:]] == [str(c) for c in range(0, 13, 2)]


def test_reproduce_table_prints_a_missing_value_as_a_dash(capsys):
    # at dim 1 Kaczmarz is exact after one sweep: best and plain are 0, so
    # the row has no gain
    assert main(["reproduce", "kaczmarz", "--dim", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[3].split() == ["0", "0", "1", "2", "0", "-"]


def test_reproduce_takes_kmax_0_and_rejects_dim_0(capsys):
    # 0 is a value, not "use the default": kmax 0 runs kmax 0, and a
    # dimension below 1 is an argument error
    assert main(["reproduce", "kernel-vector", "--dim", "12", "--kmax", "0"]) == 0
    assert "kmax=0" in capsys.readouterr().out
    for dim in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "ns", "--dim", dim])
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err


def test_reproduce_p_on_a_solver_protocol_exits_2(capsys):
    # --p sets the kernel tables' threshold; a solver protocol's table keeps its default
    assert main(["reproduce", "kaczmarz", "--dim", "10", "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "epsaccel: p applies only to the kernel protocols, not to kaczmarz\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def _matrix_terms(count=7):
    """Terms of three geometric modes about a 2 x 3 limit."""
    rng = np.random.default_rng(8)
    limit, modes = rng.random((2, 3)), rng.random((3, 2, 3)) - 0.5
    return [limit + sum(r ** n * m for r, m in zip((0.8, 0.5, -0.3), modes))
            for n in range(count)]


@pytest.mark.parametrize("functional, shape", [
    ("auto", (6,)), ("auto", (2, 3)), ("random-dot", (6,)), ("trace", (2, 3)),
    ("bilinear", (2, 3))])
def test_y_file_for_a_functional_without_y_exits_2(tmp_path, capsys, functional, shape):
    # terms and a y of their shape: without --y-file each functional runs,
    # so the y is the only fault (it was ignored, silently)
    path, y = str(tmp_path / "terms.txt"), str(tmp_path / "y.txt")
    write_terms(path, [S.reshape(shape) for S in _matrix_terms()])
    write_terms(y, [np.ones(shape)])
    assert main(["accelerate", path, "--functional", functional]) == 0
    capsys.readouterr()
    assert main(["accelerate", path, "--functional", functional, "--y-file", y]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith("epsaccel: --y-file needs --functional dot or trace-y")


def test_y_file_for_a_functional_without_y_is_reported_before_the_input(
        tmp_path, capsys):
    # the --y-file is checked before the input file is read, so its error
    # is the one reported even when the input is malformed
    path, y = tmp_path / "bad.txt", tmp_path / "y.txt"
    path.write_text("# tensor 2 2 2\n1 2 3\n")
    write_terms(y, [np.ones(3)])
    assert main(["accelerate", str(path), "--functional", "trace", "--y-file", str(y)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("epsaccel: --y-file needs --functional dot or trace-y, "
                            "not trace\n")


@pytest.mark.parametrize("terms", [[np.array(s) for s in LN2_SUMS],
                                   [np.array([s, 2 * s]) for s in LN2_SUMS]],
                         ids=["scalar", "vector"])
def test_dot_without_y_is_recorded_as_its_kind_alone(tmp_path, capsys, terms):
    # dot weighs by ones, which the spec does not spell out, for a scalar
    # file as for a vector file
    path = str(tmp_path / "terms.txt")
    write_terms(path, terms)
    assert main(["accelerate", path, "--functional", "dot", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["functional"] == {"kind": "dot"}


def test_complex_y_is_recorded_as_real_and_imaginary_parts(tmp_path, capsys):
    from epsaccel import Functional, TopoEpsTable

    terms = [np.array([s, 2 * s]) for s in LN2_SUMS]
    y = np.array([1.0 - 0.5j, -2.0 + 0.25j])
    path, y_file = str(tmp_path / "terms.txt"), str(tmp_path / "y.txt")
    write_terms(path, terms)
    write_terms(y_file, [y])
    assert main(["accelerate", path, "--functional", "dot", "--y-file", y_file,
                 "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    # JSON has no complex number: each weight is spelled as its two parts
    assert blob["spec"]["functional"] == {
        "kind": "dot", "y": [{"re": 1.0, "im": -0.5}, {"re": -2.0, "im": 0.25}]}
    tab = TopoEpsTable(Functional.dot(y), max_k=5)
    assert [(e["col"], e["n"], e["norm_inf"]) for e in blob["entries"]] == [
        (col, n, float(np.max(np.abs(e)))) for S in terms for col, n, e in tab.append(S)]


@pytest.mark.parametrize("functional, imported", [("auto", False), ("random-dot", True)])
def test_accelerate_imports_numpy_random_only_to_draw(ln2_file, functional, imported):
    # in a fresh process: the default functional draws nothing, so
    # numpy.random, a costly import, stays unimported; random-dot draws
    code = ("import sys\n"
            "from epsaccel.cli import main\n"
            f"assert main(['accelerate', {ln2_file!r}, '--functional', "
            f"{functional!r}, '--out', {os.devnull!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{imported}\n"


def test_trace_y_weights_by_the_y_file_or_a_seeded_random_y(tmp_path, capsys):
    from epsaccel import Functional, TopoEpsTable

    terms = _matrix_terms()
    Y = np.array([[1.0, -0.5, 0.25], [2.0, 0.5, 1.5]])
    path, y = str(tmp_path / "terms.txt"), str(tmp_path / "y.txt")
    write_terms(path, terms)
    write_terms(y, [Y])

    def report(*more):
        assert main(["accelerate", path, "--functional", "trace-y",
                     "--format", "json", *more]) == 0
        blob = json.loads(capsys.readouterr().out)
        return blob["spec"]["functional"], [(e["col"], e["n"], e["norm_inf"])
                                            for e in blob["entries"]]

    def direct(weights):
        # the default stea2 table, driven by trace(Y^H X) with these weights
        tab = TopoEpsTable(Functional.trace_weighted(weights), max_k=5)
        return [(col, n, float(np.max(np.abs(e))))
                for S in terms for col, n, e in tab.append(S)]

    assert report("--y-file", y) == ({"kind": "trace_weighted", "Y": Y.tolist()}, direct(Y))
    # without --y-file the weights are drawn from the seed
    for seed in (0, 5):
        weights = np.random.default_rng(seed).random((2, 3))
        assert report("--seed", str(seed)) == ({"kind": "trace_weighted"}, direct(weights))
    assert direct(Y) != direct(np.random.default_rng(0).random((2, 3)))


# a long vector-3 file, by the fault near its end: the terms before the
# fault are fed and their rows spooled before it is read
_LONG_FAULTS = {
    "bad number": ("vector 3", "1 2 apple", "line 1992: bad number 'apple'"),
    "bad width": ("vector 3", "1 2", "line 1992: expected 3 numbers, got 2"),
    "partial block": ("matrix 3 3", None, "trailing partial matrix block of 2 rows"),
    "non-finite": ("vector 3", "1 inf 2", "line 1992: term is not finite"),
}


def _long_file(path, fault):
    header, line, _ = _LONG_FAULTS[fault]
    rows = [f"{1 + 0.9 ** n!r} {2 - 0.5 ** n!r} {0.25 ** n!r}" for n in range(2000)]
    if line is not None:
        rows[1990] = line
    else:
        # 666 whole 3 x 3 blocks and the first two rows of one more
        rows = rows[:3 * 666 + 2]
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fault", sorted(_LONG_FAULTS))
def test_a_fault_near_the_end_of_a_long_file_writes_nothing(tmp_path, capsys, fault,
                                                             fmt, out):
    path, report = tmp_path / "long.txt", tmp_path / "report.txt"
    _long_file(path, fault)
    argv = ["accelerate", str(path), "--format", fmt] + (["--out", str(report)] if out else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err == f"epsaccel: {_LONG_FAULTS[fault][2]}\n"


def test_a_bad_number_after_a_non_finite_term_is_the_error(tmp_path, capsys):
    # every line is read before a non-finite term is reported, so a format
    # error later in the file is reported instead, as when the whole file
    # was read first
    path = tmp_path / "long.txt"
    _long_file(path, "bad number")
    text = path.read_text().splitlines()
    text[11] = "1 nan 2"
    path.write_text("\n".join(text) + "\n")
    assert main(["accelerate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "epsaccel: line 1992: bad number 'apple'\n"


def test_accelerate_memory_does_not_grow_with_the_stream(tmp_path):
    # the input is read a term at a time and the rows are spooled to a
    # temporary file, so ten times the terms take the same peak; it grew
    # about tenfold when the command held the file and every row.  Garbage
    # left by earlier calls is collected first, so that what a run reuses
    # of it does not move the peak from run to run
    from epsaccel.harness import build_source

    src = build_source({"kind": "geometric_modes", "dim": 10,
                        "rates": [0.99, 0.98, 0.97, 0.96, 0.95]}, 3)
    terms = src.take(5000)
    peaks = []
    for count in (500, 5000):
        path, out = tmp_path / f"geo{count}.txt", tmp_path / "report.csv"
        write_terms(path, terms[:count])
        argv = ["accelerate", str(path), "--algo", "stea2", "--out", str(out)]
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
