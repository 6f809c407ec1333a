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


def test_breakdown_exits_1(tmp_path, capsys):
    path = tmp_path / "const.txt"
    write_terms(path, [np.array(2.0)] * 8)
    code = main(["accelerate", str(path), "--no-rules"])
    assert code == 1
    assert "breakdown" in capsys.readouterr().err


def test_seed_env_override(ln2_file, capsys, monkeypatch):
    argv = ["accelerate", ln2_file, "--functional", "random-dot",
            "--seed", "5", "--format", "json"]
    monkeypatch.setenv("EPSACCEL_SEED", "11")
    main(argv)
    with_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("EPSACCEL_SEED")
    main(argv)
    from_flag = json.loads(capsys.readouterr().out)
    assert with_env["spec"]["seed"] == 11
    assert from_flag["spec"]["seed"] == 5
    assert with_env["entries"] != from_flag["entries"]


def test_bad_seed_env_exits_2(ln2_file, capsys, monkeypatch):
    monkeypatch.setenv("EPSACCEL_SEED", "banana")
    with pytest.raises(SystemExit) as exc:
        main(["accelerate", ln2_file])
    assert exc.value.code == 2
    assert "EPSACCEL_SEED" in capsys.readouterr().err


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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
