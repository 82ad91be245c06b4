"""Command-line interface behavior and output formats."""

import dataclasses
import json
import shutil

import pytest

from dickson_codes import cli, cyclic, verify
from dickson_codes.cli import main
from dickson_codes.galois import InternalError
from dickson_codes.polyring import Poly
from dickson_codes.registry import UnknownEntryError
from dickson_codes.verify import table_distance_config


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_code_command_json(capsys):
    status, out, _ = run_cli(capsys, "code", "--q", "2", "--m", "4",
                             "--kind", "D", "--order", "3", "--a", "1",
                             "--distance", "exact")
    assert status == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (15, 7, 5)
    assert payload["d_exact"] is True
    assert payload["generator"].split() == "1 1 1 0 1 0 0 0 1".split()


def test_code_command_bch_distance(capsys, monkeypatch):
    def no_parity_check(self):
        raise AssertionError("built a parity-check matrix")

    # the bound alone: no search, so no parity-check matrix
    monkeypatch.setattr(cyclic.CyclicCode, "parity_check_matrix",
                        no_parity_check)
    for m, order, bound in [(4, 3, 5),  # [15, 7]
                            (3, 7, 1)]:  # k = n: the bound 1, still a bound
        status, out, _ = run_cli(capsys, "code", "--q", "2", "--m", str(m),
                                 "--kind", "D", "--order", str(order),
                                 "--a", "1", "--distance", "bch")
        assert status == 0
        payload = json.loads(out)
        assert (payload["bch_bound"], payload["d"]) == (bound, bound)
        assert payload["d_exact"] is False
        assert payload["d_method"] == "bch-only"
        assert payload["witness"] is None


def test_code_command_computes_bch_bound_once(capsys, monkeypatch):
    calls = []
    for module in (cyclic, cli):
        bound = module.bch_lower_bound

        def counted(code, _bound=bound):
            calls.append(1)
            return _bound(code)

        monkeypatch.setattr(module, "bch_lower_bound", counted)
    argv = ("code", "--q", "2", "--m", "4", "--kind", "D", "--order", "3",
            "--a", "1")
    status, out, _ = run_cli(capsys, *argv, "--distance", "exact")
    assert status == 0 and len(calls) == 1
    assert json.loads(out)["bch_bound"] == 5
    calls.clear()
    status, out, _ = run_cli(capsys, *argv, "--distance", "none")
    assert status == 0 and len(calls) == 1
    assert json.loads(out)["bch_bound"] == 5


def test_code_command_csv(capsys):
    status, out, _ = run_cli(capsys, "code", "--q", "3", "--m", "2",
                             "--kind", "D", "--order", "2", "--a", "0",
                             "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,d,m,q,a,Bd,Opt"
    assert lines[1].startswith("8,3,5,2,3,0")


def test_code_command_csv_writes_a_bound_as_a_bound(capsys):
    argv = ("code", "--q", "2", "--m", "4", "--kind", "D", "--order", "3",
            "--a", "1", "--format", "csv")
    status, out, _ = run_cli(capsys, *argv, "--distance", "bch")
    assert status == 0
    assert out.splitlines()[1].startswith("15,7,>=5,4,2,1")
    status, out, _ = run_cli(capsys, *argv)  # exact: the bare value
    assert status == 0
    assert out.splitlines()[1].startswith("15,7,5,4,2,1")


@pytest.mark.parametrize("mode", ["bch", "none"])
def test_code_wmax_needs_exact_distance(capsys, monkeypatch, mode):
    argv = ["code", "--q", "2", "--m", "4", "--kind", "D", "--order", "3",
            "--a", "1", "--distance", mode]

    def no_build(*args, **kwargs):
        raise AssertionError("built a field with an unused --wmax")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_registry", no_build)
        status, out, err = run_cli(capsys, *argv, "--wmax", "4")
    assert status == 2 and out == ""
    assert err.startswith("error:") and "--wmax" in err
    # without --wmax the same mode runs
    status, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert status == 0
    if mode == "bch":
        assert "distance: d >= 5 [bch-only]" in out


def test_sequence_command(capsys):
    status, out, _ = run_cli(capsys, "sequence", "--q", "2", "--m", "3",
                             "--kind", "D", "--order", "1", "--a", "0")
    assert status == 0
    assert "s: 0 1 1 0 1 0 0" in out
    assert out.count("L = 4") == 2  # both methods printed


def test_field_command(capsys):
    status, out, _ = run_cli(capsys, "field", "--q", "4", "--m", "2")
    assert status == 0
    assert "GF(16) over GF(4)" in out
    assert "0 1 a^5 a^10" in out


def test_dickson_command(capsys):
    status, out, _ = run_cli(capsys, "dickson", "--q", "2", "--m", "3",
                             "--kind", "D", "--order", "4", "--a", "0",
                             "--shifted")
    assert status == 0
    assert "D_4(x, 0)" in out


def test_table_command_csv(capsys):
    status, out, _ = run_cli(capsys, "table", "--id", "D5", "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37  # header + 36 rows
    assert all(("MATCH" in ln) for ln in lines[1:])


def test_table_command_json(capsys):
    status, out, _ = run_cli(capsys, "table", "--id", "E", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert [r["row"] for r in payload] == [
        row.index for row in verify.load_table("E")]
    assert all(r["table"] == "E" and "MATCH" in r["status"]
               and r["d_method"] for r in payload)


def test_table_command_text(capsys):
    status, out, _ = run_cli(capsys, "table", "--id", "E")
    assert status == 0
    assert "summary:" in out
    assert "MISMATCH" not in out


def test_shallow_table_search_is_unresolved_not_a_mismatch(capsys):
    status, out, _ = run_cli(capsys, "table", "--id", "D1", "--wmax", "1")
    assert status == 0
    rows = [ln.split() for ln in out.splitlines() if ln.startswith("D1 row")]
    assert [r[2] for r in rows if "UNRESOLVED" in r] == ["12:", "19:"]
    assert "'UNRESOLVED': 2" in out and "MISMATCH" not in out


def test_sweep_command(capsys):
    status, out, _ = run_cli(capsys, "sweep", "--q", "2", "--m", "5",
                             "--kind", "D", "--order", "3")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "swept 32 values of a; disagreements: 0"


def test_sweep_out_of_regime_exits_2(capsys):
    # order 6 has no statement; order 5 has one whose cosets do not fit m = 4
    for order, reason in (("6", "no theorem applies"),
                          ("5", "coset structure outside the stated regime")):
        status, out, err = run_cli(capsys, "sweep", "--q", "2", "--m", "4",
                                   "--kind", "D", "--order", order)
        assert status == 2
        assert out == ""
        assert f"error: {reason}" in err


def test_unknown_field_exits_2(capsys):
    status, _, err = run_cli(capsys, "field", "--q", "11", "--m", "2")
    assert status == 2
    assert "error" in err


def test_bad_element_exits_2(capsys):
    status, _, err = run_cli(capsys, "code", "--q", "2", "--m", "4",
                             "--kind", "D", "--order", "3", "--a", "banana")
    assert status == 2
    # 2 = 0 in characteristic 2
    status, out, err = run_cli(capsys, "code", "--q", "2", "--m", "4",
                               "--kind", "D", "--order", "3", "--a", "1/2")
    assert (status, out) == (2, "")
    assert "denominator vanishes in GF(16)" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["code", "--q", "2"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["code", "--q", "2", "--m", "4", "--kind", "D", "--order", "3",
     "--a", "1"],
    ["table", "--id", "E"],
])
@pytest.mark.parametrize("wmax", ["0", "-3", "two"])
def test_wmax_below_one_is_rejected_while_parsing(capsys, monkeypatch,
                                                  argv, wmax):
    def no_run(*args, **kwargs):
        raise AssertionError("ran with an invalid --wmax")

    monkeypatch.setattr(cli, "minimum_distance", no_run)
    monkeypatch.setattr(cli, "run_table", no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--wmax", wmax])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--wmax" in err and f"expected an int >= 1: '{wmax}'" in err


@pytest.mark.parametrize("argv", [
    ["code", "--q", "2", "--m", "4", "--kind", "D", "--a", "1"],
    ["dickson", "--q", "2", "--m", "4", "--kind", "D"],
    ["sequence", "--q", "2", "--m", "4", "--kind", "D"],
    ["sweep", "--q", "2", "--m", "4"],
])
@pytest.mark.parametrize("order", ["-1", "-2", "three"])
def test_negative_order_is_rejected_while_parsing(capsys, argv, order):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--order" in err and f"expected an int >= 0: '{order}'" in err


def test_order_zero_is_accepted(capsys):
    status, out, _ = run_cli(capsys, "dickson", "--q", "2", "--m", "3",
                             "--kind", "D", "--order", "0", "--a", "1")
    assert status == 0 and "D_0(x, 1)" in out


def test_table_wmax_reaches_the_distance_config(monkeypatch):
    seen = []

    def record(table_id, registry, cfg):
        seen.append(cfg)
        raise UnknownEntryError("stop here")

    monkeypatch.setattr(cli, "run_table", record)
    assert main(["table", "--id", "E", "--wmax", "2"]) == 2
    (cfg,) = seen
    assert cfg.w_max == 2 and cfg == dataclasses.replace(
        table_distance_config("E"), w_max=2)


def test_code_without_wmax_uses_the_default_config(monkeypatch):
    seen = []

    def record(code, cfg):
        seen.append(cfg)
        raise UnknownEntryError("stop here")

    monkeypatch.setattr(cli, "minimum_distance", record)
    assert main(["code", "--q", "2", "--m", "4", "--kind", "D",
                 "--order", "3", "--a", "1"]) == 2
    assert seen == [cyclic.DistanceConfig()]


def test_registry_env_override(capsys, tmp_path, monkeypatch):
    from importlib import resources

    packaged = (resources.files("dickson_codes.data") / "registry.txt")
    target = tmp_path / "registry.txt"
    shutil.copyfile(str(packaged), target)
    monkeypatch.setenv("DICKSON_REGISTRY", str(target))
    status, out, _ = run_cli(capsys, "field", "--q", "2", "--m", "3")
    assert status == 0 and "GF(8)" in out


def test_empty_registry_variable_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("DICKSON_REGISTRY", "")
    status, out, err = run_cli(capsys, "field", "--q", "2", "--m", "4")
    assert (status, err) == (0, "") and "GF(16) over GF(2)" in out


def test_output_is_deterministic(capsys):
    # byte-identical up to the wall-clock runtime_ms field
    args = ("code", "--q", "2", "--m", "6", "--kind", "D", "--order", "3",
            "--a", "a^3")

    def strip_timing(text):
        return [ln for ln in text.splitlines() if "runtime_ms" not in ln]

    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)


def test_unknown_table_id_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--id", "D9"])
    assert exc.value.code == 2
    assert "D9" in capsys.readouterr().err


def test_table_field_missing_from_registry_exits_2(capsys, tmp_path):
    target = tmp_path / "registry.txt"
    target.write_text("2 1 3  1 1 0 1\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "table", "--id", "E",
                             "--registry", str(target))
    assert status == 2
    assert err.startswith("error: no registry entry for")


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    import dickson_codes.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run_table", broken)
    with pytest.raises(KeyError):
        main(["table", "--id", "E"])


def test_internal_error_is_not_a_usage_error(monkeypatch):
    dft = cyclic.minimal_poly_dft

    def skewed(s):  # the two minimal polynomials now disagree
        res = dft(s)
        return dataclasses.replace(res, poly=res.poly * Poly.x(s.field))

    monkeypatch.setattr(cyclic, "minimal_poly_dft", skewed)
    with pytest.raises(InternalError, match="disagree"):
        main(["code", "--q", "2", "--m", "4", "--kind", "D", "--order", "3",
              "--a", "1"])


def test_missing_registry_file_exits_2(capsys, tmp_path):
    status, _, err = run_cli(capsys, "field", "--q", "2", "--m", "3",
                             "--registry", str(tmp_path / "missing.txt"))
    assert status == 2
    assert err.startswith("error: cannot read registry")


def test_malformed_registry_record_exits_2(capsys, tmp_path):
    target = tmp_path / "registry.txt"
    target.write_text("2 1 3 1 x\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "field", "--q", "2", "--m", "3",
                             "--registry", str(target))
    assert status == 2
    assert "malformed registry record" in err


@pytest.mark.parametrize("record,reason", [
    ("4 1 2  1 1 1", "characteristic 4 is not prime"),
    ("2 0 3  1 1 0 1", "extension degrees must be >= 1"),
    ("2 1 0  1", "extension degrees must be >= 1"),
    ("2 1 17  " + "1 " * 18, "field order exceeds 2^16"),
    ("2 1 3  1 1 1", "prim_poly degree 2 != t*m = 3"),
    ("2 1 3  1 1 0 2", "prim_poly must be monic"),
    # parsed, but rejected only when its field is built on use
    ("2 1 4  1 1 1 1 1", "reducible or not primitive"),
], ids=["p", "t", "m", "order", "degree", "monic", "primitive"])
def test_rejected_registry_record_names_its_line(capsys, tmp_path, record,
                                                 reason):
    target = tmp_path / "registry.txt"
    target.write_text(f"# one bad record\n{record}\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "field", "--q", "2", "--m", "4",
                               "--registry", str(target))
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {target}:2: ") and reason in err


@pytest.mark.parametrize("command", ["code", "sequence"])
def test_subfield_over_256_symbols_exits_2(capsys, tmp_path, command):
    target = tmp_path / "registry.txt"
    target.write_text("257 1 1  254 1\n", encoding="utf-8")
    status, _, err = run_cli(capsys, command, "--q", "257", "--m", "1",
                             "--registry", str(target), "--kind", "D",
                             "--order", "2", "--a", "1")
    assert status == 2
    assert err.startswith("error:") and "uint8" in err
