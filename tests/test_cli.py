"""Command line behaviour: exit codes, formats, seed handling."""

import csv
import io
import json

import numpy as np
import pytest

from epsaccel.cli import main
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
                             "p": 10, "rules": True, "parity": "both"},
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
    # the command line parses the input to check it and hands the parsed
    # terms to the harness, which reads only the limit file
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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
