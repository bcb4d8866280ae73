import json

import pytest

from macsym.cli import build_parser, main
from macsym.coeff import emit_ratqt
from macsym.macdonald import b_coeff


def test_expand_json(capsys):
    assert main(["expand", "--lam", "2", "--basis", "m", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    terms = {tuple(item["partition"]): item["coeff"] for item in data["terms"]}
    assert terms[(2,)] == "1"
    assert terms[(1, 1)] == "(1 - t + q - q*t)/(1 - q*t)"
    assert data["report"] == "v1"


def test_expand_deterministic(capsys):
    main(["expand", "--lam", "2,1", "--format", "json"])
    first = capsys.readouterr().out
    main(["expand", "--lam", "2,1", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_norm_command(capsys):
    assert main(["norm", "--lam", "1", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "(1 - t)/(1 - q)" in out


def test_lambda_long_flag_alias(capsys):
    assert main(["expand", "--lambda", "1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == [1, 1]


def test_skew_command(capsys):
    assert main(["skew", "--lam", "2", "--mu", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["routes_agree"] is True
    assert data["skew_Q_in_p"] == [
        {"partition": [1], "coeff": "(1 - t)/(1 - q)"}]


def test_kostka_json(capsys):
    assert main(["kostka", "--degree", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"]["(2),(1,1)"] == "t"
    assert data["entries"]["(1,1),(2)"] == "q"
    assert data["non_polynomial_entries"] == []


def test_kostka_tsv(capsys):
    assert main(["kostka", "--degree", "2", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("lambda\\mu")
    assert len(lines) == 3


def test_integral_command(capsys):
    assert main(["integral", "--lam", "2", "--order", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "duality", "--maxweight", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0
    assert all(r["status"] == "pass" for r in data["checks"])
    assert {"identity", "parameters", "order", "status",
            "max_order_checked", "wall_time"} <= set(data["checks"][0])


def test_malformed_partition_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--lam", "x,y"])
    assert exc.value.code == 2


def test_negative_degree_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["kostka", "--degree", "-1"])
    assert exc.value.code == 2


def _cache_text(records, fmt="macsym-macdonald-cache"):
    return json.dumps({"format": fmt, "version": 1, "records": records})


P2_TERMS = [{"partition": [2], "coeff": "1"},
            {"partition": [1, 1], "coeff": "(1 - t + q - q*t)/(1 - q*t)"}]


@pytest.mark.parametrize("text", [
    "{not json",
    _cache_text([], fmt="other"),
    _cache_text([{"lambda": [2], "b": "1"}]),  # P_in_m missing
    _cache_text([{"lambda": [2], "b": "1", "P_in_m": P2_TERMS}]),  # wrong b
    _cache_text([{"lambda": [1, 1], "b": emit_ratqt(b_coeff((1, 1))),
                  "P_in_m": [{"partition": [2], "coeff": "1"}]}]),  # not unitriangular
], ids=["malformed-json", "wrong-header", "missing-key", "wrong-b", "not-unitriangular"])
def test_bad_cache_file_exits_2(tmp_path, capsys, text):
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    assert main(["--cache-path", str(cache), "verify", "--suite", "orthogonality",
                 "--maxweight", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cache.read_text() == text  # a rejected cache is not overwritten


def test_unreadable_cache_path_exits_2(tmp_path, capsys):
    assert main(["--cache-path", str(tmp_path), "expand", "--lam", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cache_path_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    assert main(["--cache-path", str(cache), "expand", "--lam", "2,1"]) == 0
    capsys.readouterr()
    assert cache.exists()
    data = json.loads(cache.read_text())
    assert any(rec["lambda"] == [2, 1] for rec in data["records"])
    assert main(["--cache-path", str(cache), "expand", "--lam", "2,1"]) == 0
