import json

import pytest

from rmcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nl_examples(capsys, tmp_path):
    base = ["--tables-dir", str(tmp_path)]
    code, out, _ = run(capsys, *base, "nl", "--anf", "x1x2x3x4x5x6", "--r", "3")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, *base, "nl", "--anf", "0", "--n", "6", "--r", "2")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, *base, "nl", "--anf", "x1x2x4x5+x1x2x3x6", "--r", "2")
    assert (code, out.strip()) == (0, "6")


def test_nl_engine_bruteforce(capsys, tmp_path):
    code, out, _ = run(capsys, "--tables-dir", str(tmp_path),
                       "nl", "--anf", "x1x2", "--r", "1", "--engine", "bruteforce")
    assert (code, out.strip()) == (0, "1")


def test_nl_usage_errors(capsys, tmp_path):
    base = ["--tables-dir", str(tmp_path)]
    code, _, err = run(capsys, *base, "nl", "--r", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, *base, "nl", "--anf", "x1)", "--r", "2")
    assert code == 2
    # scale cap: brute force over RM(2,7) has dimension 29
    code, _, err = run(capsys, *base, "nl", "--anf", "x1x2x3x4x5x6x7",
                       "--r", "2", "--engine", "bruteforce")
    assert code == 2 and "error" in err


def test_tables_2_and_3(capsys, artifact_dir):
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir), "tables", "--which", "2")
    assert code == 0 and "all values match" in out
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir), "tables", "--which", "3")
    assert code == 0 and "F(15)=34560" in out


def test_tables_1_reports_the_known_cell(capsys, artifact_dir):
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir), "tables", "--which", "1")
    # recomputed ml_2(fn_0) = 18 differs from the published 0 (see notes);
    # the command reports exactly that one cell
    assert code == 1
    assert "fn_0.ml2: computed 18, published 0" in out
    assert out.count("computed") == 1


def test_tables_exclusion_csv(capsys, artifact_dir):
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir),
                       "tables", "--which", "exclusion")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,bound,excluded"
    rows = [ln for ln in lines if ln and not ln.startswith(("#", "i,"))]
    assert len(rows) == 66
    assert "2,9,21,no" in rows
    assert "# rho(3,7) <= 22 from the class table" in lines
    assert "# rho(4,10) <= 244" in lines


def test_verify_29_and_310(capsys, artifact_dir):
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir), "verify", "--stage", "29")
    assert code == 0 and "candidates=5760" in out and "satisfying=0" in out
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir), "verify", "--stage", "310")
    assert code == 0 and "round1_survivors=6912" in out


def test_verify_610_proxy(capsys, artifact_dir, tmp_path):
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir),
                       "--checkpoint-dir", str(tmp_path / "ck"),
                       "verify", "--stage", "610", "--stride", "100")
    assert code == 0 and "hits=0" in out


def test_verify_610_derives_the_matrix_set(capsys, artifact_dir, matrix_set,
                                           tmp_path):
    # a hash-consistent subset saved as fn10.ams in the table directory must
    # not stand in for fn_10's orbit
    import shutil

    from rmcover.orbit import MatrixSet

    planted = tmp_path / "planted"
    shutil.copytree(artifact_dir, planted)
    MatrixSet(matrix_set.members[::1000].copy()).save(planted / "fn10.ams")
    code, out, _ = run(capsys, "--tables-dir", str(planted),
                       "verify", "--stage", "610", "--stride", "100")
    assert code == 0 and "matrices=1309 " in out


@pytest.mark.parametrize("options", [
    ["verify", "--stage", "all", "--stride", "1000"],
    ["--checkpoint-dir", "CK", "verify", "--stage", "all"],
])
def test_verify_all_refuses_a_partial_or_replayed_sweep(capsys, artifact_dir,
                                                        tmp_path, options):
    argv = [str(tmp_path / "ck") if a == "CK" else a for a in options]
    code, out, err = run(capsys, "--tables-dir", str(artifact_dir), *argv)
    assert code == 2
    assert "conclusion:" not in out
    assert "--stride and --checkpoint-dir" in err


def test_verify_refuses_a_table_saved_under_another_class(capsys, artifact_dir,
                                                         tmp_path):
    import shutil

    swapped = tmp_path / "swapped"
    shutil.copytree(artifact_dir, swapped)
    shutil.copy(artifact_dir / "fn3.nlt", swapped / "fn2.nlt")
    code, out, err = run(capsys, "--tables-dir", str(swapped),
                         "verify", "--stage", "29")
    assert code == 2 and out == ""
    assert "not the order-3 value table of fn_2" in err


def test_verify_deterministic_output(capsys, artifact_dir):
    _, out1, _ = run(capsys, "--tables-dir", str(artifact_dir), "verify", "--stage", "29")
    _, out2, _ = run(capsys, "--tables-dir", str(artifact_dir), "verify", "--stage", "29")
    assert out1 == out2


def test_out_file(capsys, artifact_dir, tmp_path):
    dest = tmp_path / "result.txt"
    code, out, _ = run(capsys, "--tables-dir", str(artifact_dir),
                       "--out", str(dest), "verify", "--stage", "29")
    assert code == 0
    body = dest.read_text()
    assert body.startswith(out.strip())
    # output files embed the producing command
    assert "# command: rmcover" in body


def test_agl_order_and_cyclic(capsys, tmp_path):
    base = ["--tables-dir", str(tmp_path)]
    code, out, _ = run(capsys, *base, "agl", "--n", "3", "--q", "2", "--action", "order")
    assert code == 0 and "AGL closure 1344 (formula 1344)" in out
    code, out, _ = run(capsys, *base, "agl", "--n", "2", "--q", "3", "--action", "order")
    assert code == 0 and "AGL closure 432" in out
    code, out, _ = run(capsys, *base, "agl", "--n", "2", "--q", "2", "--action", "cyclic")
    assert code == 0 and "not cyclic (max order 4 < 24)" in out


def test_agl_gens_output(capsys, tmp_path):
    code, out, _ = run(capsys, "--tables-dir", str(tmp_path),
                       "agl", "--n", "2", "--q", "4", "--action", "gens")
    assert code == 0
    assert "AGL generators:" in out and "a^" in out and "modulus" in out


def test_agl_unsupported_field(capsys, tmp_path):
    code, _, err = run(capsys, "--tables-dir", str(tmp_path),
                       "agl", "--n", "2", "--q", "6", "--action", "order")
    assert code == 2


def test_saved_tables_embed_command_and_hash(artifact_dir, tmp_path, capsys):
    # a table produced by the CLI carries the producing command in its trailer
    code, _, _ = run(capsys, "--tables-dir", str(tmp_path),
                     "verify", "--stage", "29")
    assert code == 0
    from rmcover.nonlin import NlTable

    _, meta = NlTable.load_with_meta(tmp_path / "fn2.nlt")
    assert meta["command"].startswith("rmcover ")
    assert "sha256" in meta


def test_reproduce_all_forwards_to_the_cli(monkeypatch):
    import runpy
    from pathlib import Path

    from rmcover import cli

    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr("sys.argv", ["reproduce_all.py", "--artifacts", "A",
                                     "--report", "r.json", "--workers", "2"])
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    common = ["--tables-dir", "A", "--workers", "2"]
    assert calls == [common + ["tables", "--which", "5"],
                     common + ["--out", "r.json", "verify", "--stage", "all"]]
