import csv
import hashlib
import io
import json

import pytest

import fmzv.evaluator as ev
from fmzv.cli import main
from fmzv.evaluator import eval_euler
from fmzv.modmath import sieve_primes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_zeta2_depth1(capsys):
    code, out, _ = run(capsys, "compute", "--variant", "zeta2", "--index", "1",
                       "--primes", "5..7", "--format", "csv")
    assert code == 0
    assert out == "prime,residue\n5,4\n7,3\n"


def test_compute_zeta_pair(capsys):
    code, out, _ = run(capsys, "compute", "--variant", "zeta", "--index", "1,2",
                       "--primes", "7..7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[7, 3]]
    assert doc["variant"] == "zeta" and doc["index"] == [1, 2]


def test_compute_euler(capsys):
    code, out, _ = run(capsys, "compute", "--variant", "euler", "--index", "1",
                       "--signs", "-", "--primes", "5..5", "--format", "csv")
    assert code == 0
    assert out == "prime,residue\n5,4\n"


def test_compute_signs_that_start_with_minus(capsys):
    # argparse takes a separate "-,+" for a flag; the joined form is the documented one
    code, out, _ = run(capsys, "compute", "--variant", "euler", "--index", "1,2",
                       "--signs=-,+", "--primes", "5..30", "--format", "csv")
    assert code == 0
    assert out == "prime,residue\n" + "".join(
        "%d,%d\n" % (p, eval_euler((1, 2), (-1, 1), p)) for p in sieve_primes(5, 30))


def test_compute_json_csv_same_data(capsys):
    code, out_json, _ = run(capsys, "compute", "--index", "1,2",
                            "--primes", "5..30", "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, "compute", "--index", "1,2",
                           "--primes", "5..30", "--format", "csv")
    assert code == 0
    doc = json.loads(out_json)
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["prime", "residue"]
    assert [[int(a), int(b)] for a, b in rows[1:]] == doc["rows"]


def test_compute_text_format(capsys):
    code, out, _ = run(capsys, "compute", "--index", "3", "--primes", "7..11")
    assert code == 0
    assert "prime" in out and "residue" in out
    assert any(line.split() == ["7", "1"] for line in out.splitlines())


def test_verify_prop21_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop21", "--kmax", "5",
                       "--primes", "5..60", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert doc["suite"] == "prop21"


def test_verify_json_csv_same_data(capsys):
    args = ("verify", "--suite", "depth2", "--kmax", "5", "--primes", "5..40")
    code, out_json, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    doc = json.loads(out_json)
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["case", "prime", "lhs", "rhs", "pass"]
    assert len(rows) - 1 == doc["summary"]["total"]
    for parsed, case in zip(rows[1:], doc["cases"]):
        assert parsed[0] == case["case"]
        assert int(parsed[1]) == case["prime"]
        assert parsed[2] == case["lhs"] and parsed[3] == case["rhs"]
        assert (parsed[4] == "true") == case["pass"]


def test_verify_lemmas_symbolic(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--kmax", "7",
                       "--wmax", "6", "--dmax", "3")
    assert code == 0
    assert "0 failed" in out


def test_verify_conj38(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "conj38", "--rmax", "4",
                     "--primes", "5..40")
    assert code == 0


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_bad_prime_range(capsys):
    code, _, err = run(capsys, "compute", "--index", "1", "--primes", "7..5")
    assert code == 2
    assert "error" in err


def test_weight_guard(capsys):
    code, _, err = run(capsys, "verify", "--suite", "sumformula", "--kmax", "13",
                       "--primes", "5..40")
    assert code == 2
    assert "guard" in err


def test_bad_index_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "--index", "0,2", "--primes", "5..11")
    assert code == 2


def test_discover_anchor_21(capsys):
    code, out, _ = run(capsys, "discover", "--target", "2,1", "--basis", "odd",
                       "--weight", "3", "--primes", "7..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["zeta2(3)", "zeta2(1,1,1)"]
    assert doc["coefficients"] == ["-1/4", "0"]
    assert doc["status"] == "expressed"
    assert doc["stability"] == "stable"


def test_discover_anchor_12(capsys):
    code, out, _ = run(capsys, "discover", "--target", "1,2", "--basis", "odd",
                       "--primes", "7..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["-3/4", "0"]


def test_discover_sweeps_once_per_prime(capsys, monkeypatch):
    # without a cache the two half-range fits read the cells the full fit swept
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, p: swept.append(p) or sweep(cells, p))
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    code, out, _ = run(capsys, "discover", "--target", "1,2", "--basis", "odd",
                       "--primes", "7..199")
    assert code == 0
    assert swept == json.loads(out)["primes"]


def test_discover_signs_that_start_with_minus(capsys):
    code, out, _ = run(capsys, "discover", "--variant", "euler", "--target", "1,2",
                       "--signs=-,+", "--basis", "odd")
    assert code == 0
    assert json.loads(out)["target"] == "euler(1,2;-,+)"


def test_discover_target_in_basis(capsys):
    code, _, err = run(capsys, "discover", "--target", "3", "--basis", "odd",
                       "--weight", "3", "--primes", "7..199")
    assert code == 2
    assert "basis" in err


def test_discover_ambiguous_basis(capsys):
    code, _, err = run(capsys, "discover", "--target", "2,1", "--basis", "3;1,2",
                       "--primes", "7..120")
    assert code == 3
    assert "ambiguous" in err


def test_dims_weight3(capsys):
    code, out, _ = run(capsys, "dims", "--weight", "3", "--format", "json",
                       "--primes", "7..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["level2"] == {"relations": 2, "estimated_dim": 2,
                             "conjectured_dim": 2, "agree": True}
    assert doc["level1"]["agree"] is True
    assert doc["columns"] == 4


def test_runtime_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(rows):
        raise ValueError("rows are linearly dependent")
    monkeypatch.setattr("fmzv.relations.lll_reduce", broken)
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    code, out, err = run(capsys, "dims", "--weight", "3", "--primes", "7..199")
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--variant", "euler", "--index", "1,2", "--signs", "+,x"),
    ("compute", "--variant", "euler", "--index", "1,2", "--signs", "+"),
    ("compute", "--variant", "zeta", "--index", "1,2", "--signs", "+,+"),
    ("compute", "--variant", "euler", "--index", "1,2"),
    ("discover", "--target", "2,1", "--basis", "3;1,0"),
    ("discover", "--target", "1,2", "--basis", "3;1,2"),
])
def test_bad_cell_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv, "--primes", "7..60")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_dims_weight1_text(capsys):
    code, out, _ = run(capsys, "dims", "--weight", "1", "--primes", "5..60")
    assert code == 0
    assert "estimated dim 1, conjectured 1 (agree)" in out
    assert "estimated dim 0, conjectured 0 (agree)" in out


def test_dims_guard(capsys):
    code, _, err = run(capsys, "dims", "--weight", "8", "--primes", "11..200")
    assert code == 2
    assert "guard" in err


def test_cache_env_and_flag(tmp_path, monkeypatch, capsys):
    env_path = tmp_path / "env.csv"
    flag_path = tmp_path / "flag.csv"
    monkeypatch.setenv("FMZV_CACHE", str(env_path))
    code, _, _ = run(capsys, "compute", "--index", "1,2", "--primes", "5..20")
    assert code == 0
    assert env_path.exists()

    code, _, _ = run(capsys, "--cache", str(flag_path), "compute",
                     "--index", "2,1", "--primes", "5..20")
    assert code == 0
    assert flag_path.exists()
    # flag wins: env cache untouched by the second run
    assert "zeta2,2,1," not in env_path.read_text()
    assert "zeta2,2,1," in flag_path.read_text()

    code, out, _ = run(capsys, "--cache", str(flag_path), "cache", "info")
    assert code == 0
    assert str(flag_path) in out and "cells" in out

    code, out, _ = run(capsys, "--cache", str(flag_path), "cache", "clear")
    assert code == 0
    assert not flag_path.exists()


def test_cache_without_path_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    code, _, err = run(capsys, "cache", "info")
    assert code == 2


def test_warm_cache_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "warm.csv")
    args = ("--cache", path, "verify", "--suite", "depth2", "--kmax", "7",
            "--primes", "5..60", "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second


def test_jobs_parallel_identical(capsys):
    args = ("verify", "--suite", "prop21", "--kmax", "6", "--primes", "5..60",
            "--format", "json")
    code, serial, _ = run(capsys, *args)
    assert code == 0
    code, parallel, _ = run(capsys, "--jobs", "2", *args)
    assert code == 0
    assert serial == parallel


def test_corrupt_cache_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("zeta2,1,,9,1\n")
    code, _, err = run(capsys, "--cache", str(path), "compute", "--index", "1",
                       "--primes", "5..11")
    assert code == 1
    assert "bad cache line" in err


def test_conflicting_cache_lines_are_corrupt(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("zeta2,1,,7,3\nzeta2,2,,7,1\nzeta2,1,,7,4\n")
    code, out, err = run(capsys, "--cache", str(path), "cache", "info")
    assert code == 1
    assert out == ""
    assert "%s:3: cache line 'zeta2,1,,7,4' conflicts" % path in err


# sha256 of `verify --suite S --primes 5..60 --format json` stdout at default
# bounds, recorded before the suites moved into one table; every suite exits 0
GOLDEN_5_60 = {
    "key": "205140eeab21cadf19455b3faf7501a295df1e0a6bc61622a7b7cb2eb9e48c87",
    "parity": "720a5672e956f2cf09eaf04261dfd2bc961ff25c8c841688d68d1f8841ac2047",
    "antipode": "8a63a5646f1116fecd6f3472ba8e92b39ed892d93de48244754689808805cd22",
    "prop21": "35e814575bfcc5c0b7925a741544242db3779566814bd29cd08a2d8a3eca8d61",
    "depth2": "cc631de185e2c0031df8dbfd343ab6e374bea28755193ff53049c0c6f7453cbc",
    "example24": "47a3febfcf45c0104a37c4bdd5c31d00b4e39451d7d839ea333816800f12ec10",
    "sumformula": "7e66d12b7f6811c0c891f573e4508c9ed4b139cbb93f84e26dbcf085ea13ea6b",
    "ppt": "47ef5c21d2b5faccea178cfa933d0c0f61cf39c664d524f42eac22f63bdfa38c",
    "weighted1": "da6f0b15e909ce17f2fdacb57d09eb72605211efaab14b49bcbe1a46c859e99b",
    "weighted2": "092bb2751fea1254124c8aea67d56337af2bc5e35a1ccc71c663c3876924bbe1",
    "conj38": "50a8f8d3b88f042a0194effb981ef8453c76691a15a03b1effdde82fbc25caf8",
    "lemmas": "3dde76e4b4fb4701eab38b9d0323b3a8ff046467660dfb6fb841ee8eb604e12f",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_5_60))
def test_verify_golden_output(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--primes", "5..60",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_5_60[suite]


def test_zero_case_suite_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "depth2", "--kmax", "9",
                       "--primes", "5..5")
    assert code == 1
    assert out == "case  prime  lhs  rhs  pass\nsuite depth2: 0 cases, 0 passed, 0 failed\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "key", "--kmax", "3"),
    ("verify", "--suite", "key", "--kmax", "3", "--rmax", "2"),
    ("verify", "--suite", "prop21", "--dmax", "2"),
    ("verify", "--suite", "lemmas", "--rmax", "2"),
])
def test_bound_flag_the_suite_does_not_take(capsys, argv):
    code, out, err = run(capsys, *argv, "--primes", "5..30")
    assert code == 2
    assert out == ""
    assert "does not take" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "--jobs", jobs, "verify", "--suite", "prop21",
                         "--primes", "5..30")
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_torn_cache_line_is_recovered(tmp_path, capsys):
    path = tmp_path / "torn.csv"
    path.write_text("zeta2,1,,7,3\nzeta2,2,,7,")
    code, out, _ = run(capsys, "--cache", str(path), "cache", "info")
    assert code == 0
    assert out == "%s: 1 cells\n" % path


def test_non_ascii_cache_is_corrupt(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_bytes(b"zeta2,1,,7,3\n\xff\n")
    code, out, err = run(capsys, "--cache", str(path), "cache", "info")
    assert code == 1
    assert out == ""
    assert str(path) in err and "not ASCII" in err


def test_cold_cache_bytes(tmp_path, capsys):
    # sha256 of the cache file a cold run writes, recorded before the per-prime
    # sweep: the same cells, in the same order, with or without workers
    for jobs in ("1", "2"):
        path = tmp_path / ("new%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "key",
                         "--wmax", "5", "--primes", "5..60")
        assert code == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "44f227cca8db77406bf56fba5c2c6b2cee6934a9f343515435dde7e745cdcac6")


# LC_ALL=C-sorted sha256 of the cache file a cold `verify --suite S --primes 5..60`
# writes at default bounds, recorded before the suites' rows named their own cells
COLD_CACHE_SORTED_5_60 = {
    "key": "9e831c56222907a2128e39e9cef5ef9e29c30c457bce317accd1e617af2e3d1b",
    "parity": "5fdcc4789748d67346ceda42c1fb13e11580bac58aff957bff06a39d17b02120",
    "antipode": "5c09c169d645eef56790b00a5e798baae729579a43301523c134935a18c41882",
    "prop21": "12f1d24b42184d1e0b618f73e6a28ede0624b61784326242490567620387e6c6",
    "depth2": "0714586dd0ad05f29eb82c4d744d156ad2a8a08b15db05c88ab517bd9d19beb6",
    "example24": "dc4104293678faccb5b30f463be0b1ad68a2af507fd3ab5f247360517eb3de9e",
    "sumformula": "b677c85c74e58d6aec32c103ffd14e7289a513f28063d051345aa5468f418087",
    "ppt": "37563d1659542457e20aab6166ce2b5c0e7311fa8201b6a65a167571543c58c0",
    "weighted1": "f06f51b85e3341fd5ceb060a40da7ff1fbb4b1b0e7544e7e99ee80570e684764",
    "weighted2": "c7017b1586b583da7e7071f1a7d3ad3bf366c7b252c44740e1d585c4b34c2fc5",
    "conj38": "f7a22640475c8b4a17aa8c19c32903ccfea562b7f7c2a52ac36736dfb173304c",
}


@pytest.mark.parametrize("suite", sorted(COLD_CACHE_SORTED_5_60))
def test_cold_cache_sorted_lines(tmp_path, capsys, suite):
    path = tmp_path / "new.csv"
    code, _, _ = run(capsys, "--cache", str(path), "verify", "--suite", suite, "--primes", "5..60")
    assert code == 0
    lines = path.read_bytes().splitlines(keepends=True)
    assert (hashlib.sha256(b"".join(sorted(lines))).hexdigest()
            == COLD_CACHE_SORTED_5_60[suite])


def test_cold_ppt_cache_lines(tmp_path, capsys):
    # ppt writes its cells prime by prime, so only the sorted lines keep the
    # sha256 recorded before that; workers write the same bytes as one process
    data = []
    for jobs in ("1", "2"):
        path = tmp_path / ("ppt%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "ppt",
                         "--primes", "5..60")
        assert code == 0
        data.append(path.read_bytes())
    assert data[0] == data[1]
    lines = data[0].splitlines(keepends=True)
    assert len(lines) == 4894
    assert (hashlib.sha256(b"".join(sorted(lines))).hexdigest()
            == "37563d1659542457e20aab6166ce2b5c0e7311fa8201b6a65a167571543c58c0")
