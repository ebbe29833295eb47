import json

import pytest

from congsym.backend import PSI_12
from congsym.cli import (main, parse_group, _alpha_matrix, _alpha_prime,
                         CliInputError, EXIT_MISMATCH, EXIT_PARSE,
                         EXIT_BAD_PRIME)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_family():
    G = parse_group(["gamma0", "11"])
    assert G.N == 11


def test_parse_group_explicit():
    G = parse_group(["8", "[7,0,0,7]", "2,3,3,5"])
    assert G.N == 8


def test_parse_group_errors():
    with pytest.raises(CliInputError):
        parse_group(["gamma0"])
    with pytest.raises(CliInputError):
        parse_group(["nonsense", "4"])
    with pytest.raises(CliInputError):
        parse_group(["8", "[1,2,3]"])
    with pytest.raises(CliInputError):
        parse_group(["8", "[2,0,0,2]"])      # not invertible mod 8


def test_alpha_parsing():
    assert _alpha_matrix("1,0,0,2") == (1, 0, 0, 2)
    assert _alpha_matrix("[1/2,0,0,1]") == (1, 0, 0, 2)
    # decimal and exponent forms, and a common factor divided out
    assert _alpha_matrix("2.5,0,0,1/3") == (15, 0, 0, 2)
    assert _alpha_matrix("+3,0,0,1e1") == (3, 0, 0, 10)
    assert _alpha_matrix("2,4,0,6") == (1, 2, 0, 3)
    assert _alpha_prime((1, 0, 0, 8)) == 2
    with pytest.raises(CliInputError):
        _alpha_matrix("1,0,0,0")
    with pytest.raises(CliInputError):
        _alpha_prime((1, 0, 0, 6))


def test_dims_output(capsys):
    code, out, _ = run_cli(capsys, "dims", "gamma0", "11")
    assert code == 0
    assert out.splitlines() == ["level: 11", "index: 12", "cusps: 2",
                                "dim_full: 3", "dim_cuspidal: 2",
                                "dim_plus: 1"]


def test_dims_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "dims", "ns_plus", "13", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_plus"] == 3 and data["cusps"] == 6


def test_hecke_output(capsys):
    code, out, _ = run_cli(capsys, "hecke", "gamma0", "11", "-p", "2")
    assert code == 0
    assert out.splitlines()[1] == "-2"


def test_hecke_paths_agree(capsys):
    _, naive, _ = run_cli(capsys, "hecke", "gamma0", "11", "-p", "3",
                          "--path", "naive")
    _, merel, _ = run_cli(capsys, "hecke", "gamma0", "11", "-p", "3",
                          "--path", "merel")
    assert naive == merel


def test_hecke_paths_agree_off_det_image(capsys):
    # T_3 on Gamma(8) is zero on both paths, with no special case in the CLI
    outs = []
    for path in ("naive", "merel"):
        code, out, _ = run_cli(capsys, "hecke", "gamma", "8", "-p", "3",
                               "--path", path, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["matrix"] == [["0"] * 5] * 5


def test_hecke_bad_prime_exit(capsys):
    code, _, err = run_cli(capsys, "hecke", "gamma0", "11", "-p", "11")
    assert code == EXIT_BAD_PRIME
    assert "effectively computable" in err


def test_hecke_bad_prime_with_alpha(capsys):
    code, out, _ = run_cli(capsys, "hecke", "gamma0", "11", "-p", "11",
                           "--alpha", "1,0,0,11")
    assert code == 0


def test_bad_weight_exit(capsys):
    code, _, _ = run_cli(capsys, "dims", "gamma0", "11", "--weight", "1")
    assert code == EXIT_PARSE


def test_group_parse_exit(capsys):
    code, _, _ = run_cli(capsys, "dims", "gamma0", "x")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("tag, param", [
    ("ns_plus", "9"), ("ns", "4"), ("s4", "2"), ("s4", "9"),
    ("gamma0", "-3"), ("gamma0", "0"), ("gamma1", "0"), ("gamma", "0")])
def test_bad_family_parameter_exit(capsys, tag, param):
    """A parameter the family rejects is an input error, not a traceback."""
    code, out, err = run_cli(capsys, "dims", tag, param)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_resource_cap_exit(capsys):
    code, _, _ = run_cli(capsys, "dims", "gamma", "512")
    assert code == 3


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "ns_plus", "13")
    assert code == 0
    assert out.splitlines()[1] == "0: dim 3  label x^3+2*x^2-x-1"


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "gamma0", "11", "--json")
    data = json.loads(out)
    assert data["pieces"] == [{"dim": 1, "isotypic": False, "label": "x+2"}]


def test_seed_only_where_it_is_read(capsys):
    """Only decompose and eigensystem make randomized choices, so only they
    take --seed; argparse rejects it elsewhere with exit 2."""
    for argv in (["dims", "ns_plus", "13"], ["bench", "ns_plus", "13"],
                 ["hecke", "ns_plus", "13", "-p", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == EXIT_PARSE
    code, out, _ = run_cli(capsys, "decompose", "ns_plus", "17", "--seed", "0")
    assert code == 0
    assert out == run_cli(capsys, "decompose", "ns_plus", "17")[1]


def test_eigensystem_output(capsys):
    code, out, _ = run_cli(capsys, "eigensystem", "gamma0", "11", "-L", "8")
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == "field: x+2"
    assert "2: -2" in lines and "3: -1" in lines and "5: 1" in lines


def test_eigensystem_piece_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eigensystem", "gamma0", "11",
                           "--piece", "5")
    assert code == EXIT_PARSE
    assert "out of range" in err


def test_eigensystem_non_scalar_alpha_exit(capsys):
    # U_3 on the 11a old space of gamma0 33 has charpoly x^2 + x + 3: it is
    # not a scalar on the piece, so no a_3 is right
    code, out, err = run_cli(capsys, "eigensystem", "gamma0", "33",
                             "--piece", "1", "--alpha", "1,0,0,3")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "not a scalar" in err


@pytest.mark.parametrize("argv", [
    # T_4 is not the one double coset of diag(1, 4) the naive path gave
    ("hecke", "gamma0", "11", "-p", "4", "--path", "naive"),
    # bench reported a path mismatch with exit code 1
    ("bench", "gamma0", "11", "-p", "4"),
    # a ZeroDivisionError traceback
    ("hecke", "gamma0", "11", "-p", "0"),
    # reported as a prime dividing the level
    ("hecke", "gamma0", "11", "-p", "1"),
    # a zero matrix
    ("hecke", "gamma0", "11", "-p", "-3"),
], ids=["hecke-4-naive", "bench-4", "hecke-0", "hecke-1", "hecke-minus-3"])
def test_hecke_and_bench_need_a_prime(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: -p must be a prime, got %s\n" % argv[4]


def test_prime_past_the_proven_range(capsys):
    """is_prime proves nothing from PSI_12 on, so such a -p is an input
    error, not a guess."""
    code, out, err = run_cli(capsys, "hecke", "gamma0", "11", "-p",
                             str(PSI_12 + 2))
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: -p %d is past the proven prime range\n" % (
        PSI_12 + 2)


# each exited 1 with a ZeroDivisionError traceback
@pytest.mark.parametrize("argv", [
    ("eigensystem", "gamma0", "11", "--alpha", "1/0,0,0,1"),
    ("hecke", "gamma0", "11", "-p", "11", "--alpha", "1/0,0,0,1"),
    ("bench", "gamma0", "11", "-p", "11", "--alpha", "1/0,0,0,1"),
], ids=["eigensystem", "hecke", "bench"])
def test_alpha_zero_denominator_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "error: bad entry '1/0' in --alpha\n"


# each exited 0 and ignored the operator; eigensystem printed the standard
# a_2 = -2
@pytest.mark.parametrize("argv", [
    ("eigensystem", "gamma0", "11", "--alpha", "1,0,0,2"),
    ("hecke", "gamma0", "11", "-p", "2", "--alpha", "1,0,0,3"),
    ("bench", "gamma0", "11", "-p", "2", "--alpha", "1,0,0,3"),
], ids=["eigensystem", "hecke", "bench"])
def test_alpha_prime_must_divide_the_level(capsys, monkeypatch, argv):
    def no_space(*args):
        raise RuntimeError("the space was built")
    monkeypatch.setattr("congsym.cli.sp.build_space", no_space)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    p = argv[-1][-1]
    assert err == ("error: --alpha %s is for p = %s, which does not divide "
                   "the level 11\n" % (argv[-1], p))


# hecke exited 0 and printed T_2 without the operator; hecke -p 3 exited 4
# as if no --alpha were given; bench ignored it
@pytest.mark.parametrize("argv, swept", [
    (("hecke", "gamma0", "33", "-p", "2", "--alpha", "1,0,0,11"), "2"),
    (("hecke", "gamma0", "33", "-p", "3", "--alpha", "1,0,0,11"), "3"),
    (("bench", "gamma0", "33", "-p", "2", "-p", "5", "--alpha", "1,0,0,3"),
     "2, 5"),
    (("bench", "gamma0", "33", "--alpha", "1,0,0,11"), "2"),
], ids=["hecke-2", "hecke-3", "bench-2-5", "bench-default"])
def test_alpha_prime_must_be_a_swept_prime(capsys, monkeypatch, argv, swept):
    def no_space(*args):
        raise RuntimeError("the space was built")
    monkeypatch.setattr("congsym.cli.sp.build_space", no_space)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    p = argv[-1].split(",")[-1]
    assert err == ("error: --alpha %s is for p = %s, which is not a -p "
                   "prime (%s)\n" % (argv[-1], p, swept))


def test_bench_output(capsys):
    code, out, _ = run_cli(capsys, "bench", "gamma0", "11", "-p", "2")
    assert code == 0
    assert "equal" in out and "hash=" in out


def test_bench_path_mismatch_exit(capsys, monkeypatch):
    """bench exits 1 when the naive and Merel matrices differ."""
    def by_path(G, S, p, path, alphas):
        return [[1 if path == "naive" else 2]]
    monkeypatch.setattr("congsym.cli._hecke_matrix", by_path)
    code, out, err = run_cli(capsys, "bench", "gamma0", "11", "-p", "2")
    assert code == EXIT_MISMATCH == 1
    assert out == ""
    assert err == "p=2: PATH MISMATCH\n"


def test_byte_determinism(capsys):
    args = ("eigensystem", "ns_plus", "13", "-L", "15", "--seed", "0")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_dims_past_the_old_table_cap(capsys):
    """|SL2(Z/289)| = 24 054 048 exceeds the cap, but the table stores
    289^2 frame slots and 306 cosets.  X0(289) has 18 cusps and genus 17."""
    code, out, _ = run_cli(capsys, "dims", "gamma0", "289")
    assert code == 0
    assert out.splitlines() == ["level: 289", "index: 306", "cusps: 18",
                                "dim_full: 51", "dim_cuspidal: 34",
                                "dim_plus: 17"]
