import csv
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fmzv
import fmzv.evaluator as ev
import fmzv.relations as rel
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


def test_discover_says_why_stability_is_unknown(capsys):
    # half b trains on 11 and 17 only: about 7.5 bits for three coefficients.  The
    # note goes to stderr; stdout is the sha256 recorded before the note was added
    code, out, err = run(capsys, "discover", "--target", "2,1", "--basis", "odd",
                         "--primes", "7..23")
    assert code == 0
    assert json.loads(out)["stability"] == "unknown"
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "8041df2a21ef9554b55ec61cb7b74576984b8f73a4c4566802cedbfcce447c4f")
    assert err == ("note: the fit on half b (primes 11,17,23) found no verified relation; "
                   "it trained on 2 primes, 7.5 bits\n")
    # a stable result writes nothing to stderr; a height bound no relation meets
    # fails all three fits, one line each
    assert run(capsys, "discover", "--target", "2,1", "--basis", "odd",
               "--primes", "7..37")[2] == ""
    code, out, err = run(capsys, "discover", "--target", "2,1", "--basis", "odd",
                         "--primes", "7..40", "--height-bound", "1")
    assert code == 0
    assert json.loads(out)["status"] == "no_relation"
    assert [line.split(" (")[0] for line in err.splitlines()] == [
        "note: the fit on all primes", "note: the fit on half a", "note: the fit on half b"]
    assert "trained on 3 primes, 12.1 bits" in err


def test_discover_anchor_12(capsys):
    code, out, _ = run(capsys, "discover", "--target", "1,2", "--basis", "odd",
                       "--primes", "7..199")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["-3/4", "0"]


def test_discover_sweeps_once_per_prime(capsys, monkeypatch):
    # the two half-range fits slice the rows of the full fit's matrix, whose primes are
    # swept once each, in groups of consecutive ones
    swept = []
    sweep = ev._sweep
    monkeypatch.setattr(ev, "_sweep", lambda cells, primes: swept.append(list(primes)) or
                        sweep(cells, primes))
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    code, out, _ = run(capsys, "discover", "--target", "1,2", "--basis", "odd",
                       "--primes", "7..199")
    assert code == 0
    primes = json.loads(out)["primes"]
    assert len(primes) > ev._GROUP
    assert swept == [primes[i:i + ev._GROUP] for i in range(0, len(primes), ev._GROUP)]


def test_discover_builds_one_matrix(capsys, monkeypatch, pools):
    # one per_prime call, so --jobs N starts one pool, and its output is the serial one
    calls = []
    per_prime = rel.per_prime
    monkeypatch.setattr(rel, "per_prime", lambda *a: calls.append(a) or per_prime(*a))
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    argv = ("discover", "--target", "2,1,2", "--basis", "odd", "--primes", "11..120")
    code, serial, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    code, pooled, _ = run(capsys, "--jobs", "2", *argv)
    assert code == 0 and len(calls) == 2
    assert pooled == serial
    assert pools == [2]


def test_discover_odd3_basis_is_level_two(capsys):
    # zeta(2,3) = -2 B_{p-5} and zeta2(5) = -6 B_{p-5} mod p; the level-one zeta(5) is 0
    code, out, _ = run(capsys, "discover", "--variant", "zeta", "--target", "2,3",
                       "--basis", "odd3", "--primes", "11..300")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["zeta2(5)"]
    assert doc["coefficients"] == ["1/3"]
    assert doc["status"] == "expressed" and doc["stability"] == "stable"


def test_discover_signs_that_start_with_minus(capsys):
    code, out, _ = run(capsys, "discover", "--variant", "euler", "--target", "1,2",
                       "--signs=-,+", "--basis", "odd")
    assert code == 0
    assert json.loads(out)["target"] == "euler(1,2;-,+)"


def test_discover_needs_six_primes_and_dims_four(capsys):
    # each half of the primes keeps a held-out prime only from 3 primes on
    argv = ("discover", "--target", "2,1", "--basis", "odd", "--primes")
    code, out, err = run(capsys, *argv, "7..17")
    assert code == 2 and out == ""
    assert "discover needs at least 6 primes above weight + 2" in err
    code, out, _ = run(capsys, *argv, "7..23")
    assert code == 0
    assert json.loads(out)["primes"] == [7, 11, 13, 17, 19, 23]
    # dims keeps its floor of 4 primes
    code, _, _ = run(capsys, "dims", "--weight", "3", "--primes", "7..17")
    assert code == 0


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


def test_discover_repeated_basis_column_is_ambiguous(capsys):
    code, out, err = run(capsys, "discover", "--target", "2,1", "--basis", "3;3",
                         "--primes", "7..200")
    assert code == 3
    assert out == "" and "ambiguous" in err


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
    ("compute", "--variant", "euler", "--index", "1,2", "--signs", "+,x", "--primes", "7..60"),
    ("compute", "--variant", "euler", "--index", "1,2", "--signs", "+", "--primes", "7..60"),
    ("compute", "--variant", "zeta", "--index", "1,2", "--signs", "+,+", "--primes", "7..60"),
    ("compute", "--variant", "euler", "--index", "1,2", "--primes", "7..60"),
    ("discover", "--target", "2,1", "--basis", "3;1,0", "--primes", "7..60"),
    ("discover", "--target", "1,2", "--basis", "3;1,2", "--primes", "7..60"),
    # the other argument checks: prime windows, bounds and bases
    ("compute", "--index", "1", "--primes", "x"),
    ("compute", "--index", "1", "--primes", "24..28"),
    ("verify", "--suite", "key", "--wmax", "0"),
    ("discover", "--target", "2,1", "--basis", "odd", "--weight", "13"),
    ("discover", "--target", "2,1", "--basis", "odd", "--weight", "0"),
    ("discover", "--target", "2,1", "--variant", "euler", "--signs", "+,+", "--basis", "3"),
    ("discover", "--target", "2,1", "--basis", ";"),
    ("dims", "--weight", "0"),
    ("dims", "--weight", "3", "--primes", "7..13"),
])
def test_bad_cell_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_dims_weight1_text(capsys):
    code, out, _ = run(capsys, "dims", "--weight", "1", "--primes", "5..60")
    assert code == 0
    assert "estimated dim 1, conjectured 1 (agree)" in out
    assert "estimated dim 0, conjectured 0 (agree)" in out


def test_dims_csv_and_text_output(capsys):
    # recorded before the two levels ran as one loop
    argv = ("dims", "--weight", "7", "--primes", "11..260", "--format")
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0
    assert out == ("level,relations,estimated_dim,conjectured_dim,agree\n"
                   "2,51,13,13,true\n"
                   "1,63,1,1,true\n")
    code, out, _ = run(capsys, *argv, "text")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "3e4d1b88f6911fec7588cbaf4b65c9a000cc966c125e656370e3ab6a2eaa02c7")


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


@pytest.mark.parametrize("data", [
    b"zeta2,1,,7,3\nzeta2,1,,7,4\n",  # one cell with two residues
    b"zeta2,1,,7,3\n\xff\n",  # not ASCII
], ids=["conflicting", "non-ascii"])
def test_cache_clear_removes_a_cache_that_does_not_load(tmp_path, capsys, data):
    # clear never reads the file, so a corrupt cache can still be cleared
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, "--cache", str(path), "cache", "clear")
    assert code == 0
    assert out == "%s: cleared\n" % path and err == ""
    assert not path.exists()


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


def test_jobs_parallel_identical(capsys, pools):
    args = ("verify", "--suite", "prop21", "--kmax", "6", "--primes", "5..60",
            "--format", "json")
    code, serial, _ = run(capsys, *args)
    assert code == 0
    code, parallel, _ = run(capsys, "--jobs", "2", *args)
    assert code == 0
    assert serial == parallel
    assert pools == [2]


def test_jobs_starts_a_pool_only_over_more_than_one_group(capsys, pools):
    # a pool gets no more workers than the run has groups of primes, so --jobs 2 over one
    # group runs in the parent and over two starts a pool of 2, each printing the serial bytes
    primes = sieve_primes(5, 400)
    for count, started in ((ev._GROUP, []), (ev._GROUP + 1, [2])):
        args = ("compute", "--variant", "zeta2", "--index", "2,1",
                "--primes", "5..%d" % primes[count - 1])
        code, serial, _ = run(capsys, *args)
        assert code == 0
        code, pooled, _ = run(capsys, "--jobs", "2", *args)
        assert (code, pooled) == (0, serial)
        assert pools == started


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


# sha256 of csv and text reports recorded before every table went through one
# writer: symbolic rows without a prime beside per-prime rows, symbolic rows
# alone, and per-prime rows
TABLE_PINS = [
    (("verify", "--suite", "antipode", "--dmax", "3", "--wmax", "6", "--primes", "5..60",
      "--format", "csv"), "b1b5207d2659d66d72e74a82a005d734ef0793306fc472f0004dc9664860fe11"),
    (("verify", "--suite", "lemmas"),
     "1904153abdc7bfcaf336be5d43f7d578bf08508505a7084eafbb1e61f4039e71"),
    (("verify", "--suite", "key", "--wmax", "4", "--primes", "5..60", "--format", "csv"),
     "c26ab539beed72adfae91fd30755b257ce686a854914472e86946401fe619c2f"),
]


@pytest.mark.parametrize("argv, want", TABLE_PINS)
def test_table_output_pins(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


# the sha256 pins of the CI workflow's installed-command step that no other test checks:
# stdout, or with a cache (the last) the LC_ALL=C-sorted lines of the file a cold run writes
CI_PINS = [
    (("compute", "--variant", "zeta2star", "--index", "1,2,3", "--primes", "5..300"),
     "395ce5820a3c5f93b7c2d6760932a0acc6da6054d7e86c24c155fd5e056091ff"),
    (("compute", "--variant", "euler", "--index", "3,1,2", "--signs=+,-,-", "--primes", "5..400",
      "--format", "json"), "327ff4834c6e06b6850c2ade8b47f973a725d69c8cff2c58c6acba3ad4f67c56"),
    (("compute", "--variant", "zeta", "--index", "2,1", "--primes", "5..200", "--format", "csv"),
     "3ee061c97914cb5e2f7d8d461366c00a787eff50c1692e27886ae67726a4ba27"),
    (("compute", "--variant", "euler", "--index", "3,1,2", "--signs=-,+,-", "--primes",
      "10000..10100"), "a5f61cebbdb53fce3f9adde216b5a44970b8ae154b9b8ae5b19dcf5a9e4be251"),
    (("compute", "--variant", "zeta2star", "--index", "1,2,3", "--primes", "10000..10100"),
     "bedea1c873c714da6f4a185267da4726f0d164c12f6828008fa37092acdf91cc"),
    (("dims", "--weight", "7", "--primes", "11..260", "--format", "json"),
     "d68a5b20d91cf7580a136248fca2e493aeca8e8b7c1278f32964e5b0394a8b06"),
    (("dims", "--weight", "7", "--primes", "11..260", "--format", "csv"),
     "105553abd3d2b7439df5f3b417ef2db59d13542346739958be6b541f03b9704e"),
    (("discover", "--target", "2,1,2", "--basis", "odd", "--primes", "11..300"),
     "5f33969f00e44062d6351589a457d2fea2df2f951831ecf696cea24c5a71bf0e"),
    (("verify", "--suite", "ppt", "--primes", "5..400"),
     "a4158c246188596e2f52abdd410320a04cdf7b7e7767e4c9b0d3e49b60bd955a"),
    (("verify", "--suite", "weighted1", "--primes", "5..300", "--format", "json"),
     "81bd7262afce443b6e57a4e7009a347fa00f87341a0ae9190916f4b1ea7d233d"),
    (("verify", "--suite", "weighted2", "--primes", "5..300", "--format", "json"),
     "43656d5ec27ea1069eae1de591d444d959d3da01d8e4d0267f1ee03230afab02"),
    (("verify", "--suite", "depth2", "--kmax", "9", "--primes", "1000..1100"),
     "9b6bdbf7e30389708460eece1b11cb54272054304f676bf90d70db1f98cc25d9"),
    (("verify", "--suite", "prop21", "--kmax", "12", "--primes", "1000..1200"),
     "ff508f8620fb7d923d969a1e93d7ac0a0c1da9280f5d1a96ce3e64a2b1d47c66"),
    (("verify", "--suite", "weighted1", "--primes", "1000..1100"),
     "8b3adb622c21063c31b80aebe21cbad2057ed1adaf8aeb30e1e9bc0ae3c5e4a5"),
    # Zk's tables near p = 20000, pinned before Zk summed a third of the range
    (("verify", "--suite", "prop21", "--kmax", "12", "--primes", "20000..20200"),
     "6cc6a910154422a80420736261a9637b76cbd21384a5d9d9db7703f88b333b9a"),
    (("verify", "--suite", "depth2", "--kmax", "9", "--primes", "20000..20100"),
     "61143c515cbae3a5529fbeae6da8cd4007ef22b8fd2ed58032a0840c53774b2f"),
    (("verify", "--suite", "example24", "--wmax", "12", "--primes", "5..100"),
     "f34a09e80fd693ad3154c1e7369f87393f26c5c8be5be365cda5df4dbee92d1b"),
    (("verify", "--suite", "sumformula", "--kmax", "12", "--primes", "5..100", "--format", "csv"),
     "c2a2dcb24aa606b5afc23232ed487d06a4bb05a944ff376dfe1edb5afffcce76"),
    (("verify", "--suite", "depth2", "--kmax", "12", "--primes", "5..200"),
     "27064256b250ebd6fa910b628ede9edb43fa3e919dbf0a9943051239adb48f58"),
    (("--cache", None, "verify", "--suite", "ppt", "--primes", "5..200"),
     "315d8d901768a6dcdb1c8cedac4be1f6b28524c05576d94dc2efcb8d0cf468e5"),
    # an entry of 10**12 over groups of primes, pinned before the primes were swept in groups
    (("compute", "--index", "1000000000000,3", "--primes", "5..400"),
     "14c2f5c0f5481182e7405375760c6bae0f851ee07e170aa7b5a5d0b6fad01bcb"),
]


@pytest.mark.parametrize("argv, want", CI_PINS, ids=[" ".join(filter(None, a)) for a, _ in CI_PINS])
def test_ci_pins(capsys, tmp_path, argv, want):
    path = tmp_path / "cache.csv"
    code, out, _ = run(capsys, *(str(path) if a is None else a for a in argv))
    assert code == 0
    if None in argv:  # the cache pin: its ascii lines sort as LC_ALL=C sorts them
        out = "".join(sorted(path.read_text().splitlines(keepends=True)))
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_every_ci_pin_is_pinned_in_the_tests_or_the_benchmark_record():
    # a sha256 changed in the workflow but not where the tests or perfbench read it (or the
    # other way round) leaves the two checking different bytes
    root = Path(__file__).resolve().parent.parent
    pins = set(re.findall(r"\b[0-9a-f]{64}\b",
                          (root / ".github" / "workflows" / "tests.yml").read_text()))
    known = "".join(path.read_text() for path in sorted((root / "tests").glob("*.py")))
    known += (root / "perfbench" / "expected.json").read_text()
    assert pins and sorted(pin for pin in pins if pin not in known) == []


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


@pytest.mark.parametrize("argv", [
    ("discover", "--target", "2,1", "--basis", "odd", "--height-bound", "-1"),
    ("discover", "--target", "2,1", "--basis", "odd", "--height-bound", "0"),
    ("dims", "--weight", "3", "--height-bound", "0"),
    ("dims", "--weight", "3", "--height-bound", "-1"),
])
def test_height_bound_below_one_is_usage_error(capsys, argv):
    # no nonzero integer vector has height below 1
    code, out, err = run(capsys, *argv, "--primes", "7..100")
    assert code == 2
    assert out == ""
    assert "--height-bound" in err


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


def test_cold_cache_bytes(tmp_path, capsys, pools):
    # sha256 of the cache file a cold run writes, recorded before the per-prime
    # sweep: the same cells, in the same order, with or without workers
    for jobs in ("1", "2"):
        path = tmp_path / ("new%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "key",
                         "--wmax", "5", "--primes", "5..60")
        assert code == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "44f227cca8db77406bf56fba5c2c6b2cee6934a9f343515435dde7e745cdcac6")
    assert pools == [2]


def test_cold_cache_bytes_when_lines_are_flushed_once_per_prime(tmp_path, capsys, pools):
    # sha256 of the cache file, recorded when every line was flushed as it was added
    for jobs in ("1", "2"):
        path = tmp_path / ("new%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "key",
                         "--wmax", "5", "--primes", "5..100")
        assert code == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "f41e9df8f62614608f89200797ea62fc01c475c58cd1ee361fae50bd0771e0e0")
    assert pools == [2]


def test_cold_key_cache_bytes_at_both_job_counts(tmp_path, capsys, pools):
    # sha256 of the cache file, in the order written, recorded before the primes were
    # swept in groups: 18832 cells, each added once, in column order, prime by prime
    for jobs in ("1", "2"):
        path = tmp_path / ("key%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "key",
                         "--wmax", "7", "--primes", "5..400")
        assert code == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 18832
        assert (hashlib.sha256(data).hexdigest()
                == "6a852b870be48ea44aca1056c44ba34aab7cf1b276e49a21d536a10eb27b23ef")
    assert pools == [2]


def test_cold_parity_cache_bytes(tmp_path, capsys, pools):
    # sha256 of the cache file, in the order written, recorded before a run's sweeps
    # shared one trie shape; parity sweeps zeta, zeta2 and zeta2star cells together
    for jobs in ("1", "2"):
        path = tmp_path / ("new%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite",
                         "parity", "--primes", "5..100")
        assert code == 0
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "f5716ac7149b37a8f3c4698412c071a5b2e9f40c94f95f0bbd38df43bd5bc3a6")
    assert pools == [2]


def test_compute_cache_bytes_cold_and_warm(tmp_path, capsys, pools):
    # sha256 of compute's stdout and of its cache file, recorded before values_at computed
    # its missing cells itself; the warm run reads the file and leaves it as it was
    for jobs in ("1", "2"):
        path = tmp_path / ("euler%s.csv" % jobs)
        for _ in ("cold", "warm"):
            code, out, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "compute",
                               "--variant", "euler", "--index", "3,1,2", "--signs=+,-,-",
                               "--primes", "5..400")
            assert code == 0
            assert (hashlib.sha256(out.encode()).hexdigest()
                    == "15da5d9f03edd62360625b901e149a2919615b25bb9560078117591745f2ad05")
            assert (hashlib.sha256(path.read_bytes()).hexdigest()
                    == "3759da2f1df326bce6e4a31126ab444e2538e336b89f872453a2a203f7946fd2")
    assert pools == [2, 2]  # the cold and the warm run under --jobs 2


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


def test_cold_ppt_cache_lines(tmp_path, capsys, pools):
    # ppt writes its cells prime by prime, so only the sorted lines keep the
    # sha256 recorded before that; workers write the same bytes as one process,
    # in the order pinned before the one-odd patterns were mapped from compositions
    data = []
    for jobs in ("1", "2"):
        path = tmp_path / ("ppt%s.csv" % jobs)
        code, _, _ = run(capsys, "--jobs", jobs, "--cache", str(path), "verify", "--suite", "ppt",
                         "--primes", "5..60")
        assert code == 0
        data.append(path.read_bytes())
    assert data[0] == data[1]
    assert pools == [2]
    assert (hashlib.sha256(data[0]).hexdigest()
            == "fcc9d8ad22fb06f8bee4090bc28757678a8f5b74e5e7c01c21b8eff500637baf")
    lines = data[0].splitlines(keepends=True)
    assert len(lines) == 4894
    assert (hashlib.sha256(b"".join(sorted(lines))).hexdigest()
            == "37563d1659542457e20aab6166ce2b5c0e7311fa8201b6a65a167571543c58c0")


@pytest.mark.parametrize("argv, unchecked", [
    # every prime trains the weight-3 constants
    (("--rmax", "1", "--primes", "5..11"), "pattern k=3 r=2 i=1 c -3/4"),
    # the weight-5 ones, and -8/3 is not the constant: 5..200 reconstructs 5/16
    (("--rmax", "2", "--primes", "7..13"), "pattern k=5 r=3 i=1 c -8/3"),
])
def test_ppt_fails_a_constant_with_no_held_out_prime(capsys, argv, unchecked):
    code, out, _ = run(capsys, "verify", "--suite", "ppt", *argv)
    assert code == 1
    assert (unchecked + " no held-out prime FAIL").split() in [
        line.split() for line in out.splitlines()]


SRC = os.path.dirname(os.path.dirname(fmzv.__file__))


def test_compute_of_a_huge_index_entry_costs_what_its_residue_does(capsys, tmp_path):
    # m^(p-1) = 1 mod p, so 10**12 weighs m as 4 does at p = 5 and at p = 7, and the sweep
    # makes one power column of it, by pow, not a chain of products up to the entry
    code, want, _ = run(capsys, "compute", "--index", "4", "--primes", "5..7")
    assert code == 0

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    env = {k: v for k, v in os.environ.items() if k != "FMZV_CACHE"}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-m", "fmzv.cli", "compute", "--index",
                           "1000000000000", "--primes", "5..7"], capture_output=True, text=True,
                          cwd=tmp_path, env=env, preexec_fn=cap_memory, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses alone brings inspect, ast, dis and tokenize into every run
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fmzv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
