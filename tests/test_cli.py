import json
import runpy
import sys

import numpy as np
import pytest

from rmcover import cli, verify
from rmcover.boolfn import BooleanFunction
from rmcover.cli import main
from rmcover.nonlin import NlTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cached_tables(monkeypatch, tables):
    """Serve the CLI's in-process table builds from the session cache."""
    monkeypatch.setattr(cli, "_table", tables.__getitem__)


def test_nl_examples(capsys):
    code, out, _ = run(capsys, "nl", "--anf", "x1x2x3x4x5x6", "--r", "3")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "nl", "--anf", "0", "--n", "6", "--r", "2")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "nl", "--anf", "x1x2x4x5+x1x2x3x6", "--r", "2")
    assert (code, out.strip()) == (0, "6")


def test_nl_engine_bruteforce(capsys):
    code, out, _ = run(capsys, "nl", "--anf", "x1x2", "--r", "1", "--engine", "bruteforce")
    assert (code, out.strip()) == (0, "1")


def test_nl_usage_errors(capsys):
    code, _, err = run(capsys, "nl", "--r", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "nl", "--anf", "x1)", "--r", "2")
    assert code == 2
    # scale cap: brute force over RM(2,7) has dimension 29
    code, _, err = run(capsys, "nl", "--anf", "x1x2x3x4x5x6x7",
                       "--r", "2", "--engine", "bruteforce")
    assert code == 2 and "error" in err


def test_tables_2_and_3(capsys, cached_tables):
    code, out, _ = run(capsys, "tables", "--which", "2")
    assert code == 0 and "all values match" in out
    code, out, _ = run(capsys, "tables", "--which", "3")
    assert code == 0 and "F(15)=34560" in out


def test_tables_1_reports_the_known_cell(capsys, cached_tables):
    code, out, _ = run(capsys, "tables", "--which", "1")
    # recomputed ml_2(fn_0) = 18 differs from the published 0 (see notes);
    # the command reports exactly that one cell
    assert code == 1
    assert "fn_0.ml2: computed 18, published 0" in out
    assert out.count("computed") == 1


def test_tables_exclusion_csv(capsys, cached_tables):
    code, out, _ = run(capsys, "tables", "--which", "exclusion")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,bound,excluded"
    rows = [ln for ln in lines if ln and not ln.startswith(("#", "i,"))]
    assert len(rows) == 66
    assert "2,9,21,no" in rows
    assert "# rho(3,7) <= 22 from the class table" in lines
    assert "# rho(4,10) <= 244" in lines


def test_verify_29_and_310(capsys, cached_tables):
    code, out, _ = run(capsys, "verify", "--stage", "29")
    assert code == 0 and "candidates=5760" in out and "satisfying=0" in out
    code, out, _ = run(capsys, "verify", "--stage", "310")
    assert code == 0 and "round1_survivors=6912" in out


def test_verify_610_sweeps_every_matrix(capsys, monkeypatch, cached_tables, tmp_path):
    # the class set is walked, certified and swept in the run, which writes
    # no file
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, out, _ = run(capsys, "verify", "--stage", "610")
    assert code == 0
    assert out.splitlines() == [
        "[pass] coverage classes=13888 covered=888832 orbit=888832",
        "[pass] sweep_610 matrices=13888 targets_per_matrix=34560 subset_size=32 "
        "hits=0 shards=1 resumed_shards=0"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("control", ["dropped", "replaced"])
def test_verify_refuses_a_set_that_misses_a_class(capsys, monkeypatch, cached_tables,
                                                   sweep_set, coverage_controls, control):
    monkeypatch.setattr(verify, "fn10_sweep_set",
                        lambda: (coverage_controls[control], sweep_set[1]))
    code, out, _ = run(capsys, "verify", "--stage", "610")
    assert code == 1
    assert out.startswith("[fail] coverage classes=13887 ") and "[pass] sweep_610" in out
    code, out, _ = run(capsys, "verify", "--stage", "all")
    assert code == 1 and "[fail] coverage" in out
    assert "= 20" not in out and out.rstrip().endswith("conclusion: inconclusive")


def test_verify_reads_no_table_file(capsys, monkeypatch, tmp_path, tables):
    # unpatched: a forged fn10.nlt where a table cache used to live (values
    # shuffled, keeping the g = 0 entry and the level counts, hash-consistent)
    # must neither feed the verdict nor be joined by files the run writes
    rng = np.random.default_rng(310)
    forged = tables[10].values.copy()
    forged[1:] = rng.permutation(forged[1:])
    (tmp_path / "artifacts").mkdir()
    NlTable(tables[10].base, 3, forged).save(tmp_path / "artifacts" / "fn10.nlt")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, out, _ = run(capsys, "verify", "--stage", "310")
    assert code == 0 and "round1_survivors=6912" in out
    assert sorted(tmp_path.rglob("*")) == before


def test_checkpoint_dir_refused(capsys, monkeypatch, tables, matrix_set, tmp_path):
    # a sweep checkpoint with every shard at zero matrices and no hits, keyed
    # by the real inputs, must not stand in for the sweep: the option is gone
    inputs = {"matrix_set": verify.matrixset_digest(matrix_set),
              "t6": verify.table_digest(tables[6]),
              "t10": verify.table_digest(tables[10]), "stride": 1}
    size, step = len(matrix_set), verify.SWEEP_SHARD_SIZE
    shards = {f"{s}:{min(s + step, size)}": {"matrices": 0, "hits": []}
              for s in range(0, size, step)}
    (tmp_path / "sweep610.json").write_text(json.dumps({"inputs": inputs,
                                                        "shards": shards}))

    def no_table(index):
        raise AssertionError("a refused command builds no table")

    monkeypatch.setattr(cli, "_table", no_table)
    for stage in ("610", "all"):
        try:
            code = main(["--checkpoint-dir", str(tmp_path), "verify", "--stage", stage])
        except SystemExit as exc:  # argparse rejects an unknown option
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert "[pass]" not in out and "conclusion:" not in out
        assert "--checkpoint-dir" in err


def test_workers_option_refused(capsys, monkeypatch):
    # the sweep runs in one process: --workers is no option
    def no_table(index):
        raise AssertionError("a refused command builds no table")

    monkeypatch.setattr(cli, "_table", no_table)
    try:
        code = main(["--workers", "2", "verify", "--stage", "610"])
    except SystemExit as exc:  # argparse rejects an unknown option
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "--workers" in err


def test_verify_all_exits_1_on_a_witness_one_bit_off(capsys, monkeypatch, cached_tables):
    w = BooleanFunction.from_anf_string(verify.WITNESS_ANF, n=7)
    monkeypatch.setattr(verify, "WITNESS_ANF",
                        BooleanFunction.from_tt(7, w.tt ^ 1).to_anf_string())
    code, out, _ = run(capsys, "verify", "--stage", "all")
    assert code == 1
    assert "[fail] witness      nl3=19" in out and "conclusion: inconclusive" in out
    assert "= 20" not in out


def test_verify_deterministic_output(capsys, cached_tables):
    _, out1, _ = run(capsys, "verify", "--stage", "29")
    _, out2, _ = run(capsys, "verify", "--stage", "29")
    assert out1 == out2


def test_out_file(capsys, cached_tables, tmp_path):
    dest = tmp_path / "result.txt"
    code, out, _ = run(capsys, "--out", str(dest), "verify", "--stage", "29")
    assert code == 0
    body = dest.read_text()
    assert body.startswith(out.strip())
    # output files embed the producing command
    assert "# command: rmcover" in body


def test_agl_order_and_cyclic(capsys):
    code, out, _ = run(capsys, "agl", "--n", "3", "--q", "2", "--action", "order")
    assert code == 0 and "AGL closure 1344 (formula 1344)" in out
    code, out, _ = run(capsys, "agl", "--n", "2", "--q", "3", "--action", "order")
    assert code == 0 and "AGL closure 432" in out
    code, out, _ = run(capsys, "agl", "--n", "2", "--q", "2", "--action", "cyclic")
    assert code == 0 and "not cyclic (max order 4 < 24)" in out


def test_agl_gens_output(capsys):
    code, out, _ = run(capsys, "agl", "--n", "2", "--q", "4", "--action", "gens")
    assert code == 0
    assert "AGL generators:" in out and "a^" in out and "modulus" in out


def test_agl_unsupported_field(capsys):
    code, _, err = run(capsys, "agl", "--n", "2", "--q", "6", "--action", "order")
    assert code == 2


def test_reproduce_all_forwards_to_the_cli(monkeypatch):
    import runpy
    from pathlib import Path

    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr("sys.argv", ["reproduce_all.py",
                                     "--report", "r.json"])
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert calls == [["tables", "--which", "5"],
                     ["--out", "r.json", "verify", "--stage", "all"]]


def test_tables_5_orbit_partition(capsys):
    code, out, _ = run(capsys, "tables", "--which", "5")
    assert code == 0 and "sum = 4194304 (2^22 = 4194304)" in out
    assert "all values match" in out


def test_tables_5_reports_a_missing_orbit(capsys, monkeypatch):
    from rmcover import orbit

    monkeypatch.setattr(orbit, "NUM_CLASSES", 10)  # walk fn_0..fn_9 only
    code, out, _ = run(capsys, "tables", "--which", "5")
    assert code == 1 and "MISMATCH against published values" in out
    assert f"sum = {(1 << 22) - 888832} " in out


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rmcover", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("rmcover", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rmcover")
