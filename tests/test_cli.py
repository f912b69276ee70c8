"""Command-line behaviour: reports, exit codes, cache, replay."""

import csv
import hashlib
import io
import json

import pytest

import sgdecomp.cli as cli_mod
from sgdecomp.cache import CACHE_ENV, _canonical
from sgdecomp.cli import main
from sgdecomp.field import FieldCtx, divisors, prime_powers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_field_report(capsys):
    code, report, _ = run_json(capsys, "field", "--q", "13")
    assert code == 0
    assert report["schema"] == 1 and report["tool"] == "sgdecomp"
    assert report["command"] == "field"
    assert report["field"]["p"] == 13 and report["field"]["n"] == 1
    assert report["field"]["modulus"] == [0, 1]
    assert report["results"]["subgroup_indices"] == [2, 3, 4, 6]


def test_field_by_p_and_n(capsys):
    code, report, _ = run_json(capsys, "field", "--p", "7", "--n", "2")
    assert code == 0
    assert report["field"]["q"] == 49


def test_text_mode_renders_lines(capsys):
    code, out, _ = run(capsys, "field", "--q", "13")
    assert code == 0
    assert "q: 13" in out
    assert "{" not in out.splitlines()[0]


def test_json_output_is_byte_identical(capsys):
    argv = ("stepanov", "--q", "13", "--d", "3", "--A", "0,7", "--B", "1,5")
    _, first, _ = run(capsys, *argv, "--json")
    _, second, _ = run(capsys, *argv, "--json")
    assert first == second
    assert "wall_time_s" not in first


def test_timings_flag_adds_wall_time(capsys):
    code, report, _ = run_json(capsys, "field", "--q", "13", "--timings")
    assert code == 0
    assert isinstance(report["wall_time_s"], float)


def test_stepanov_golden_values(capsys):
    code, report, _ = run_json(capsys, "stepanov", "--q", "13", "--d", "3",
                               "--A", "0,7", "--B", "1,5")
    assert code == 0
    res = report["results"]
    assert res["coefficients"] == [11, 2]
    assert res["binom_residue"] == 5
    assert res["bound"] == 4 and res["tight"]
    assert res["provenance"] == "THEOREM"


def test_analyze_reports_dichotomy(capsys):
    code, report, _ = run_json(capsys, "analyze", "--q", "13", "--d", "3",
                               "--A", "0,7", "--B", "1,5")
    assert code == 0
    res = report["results"]
    assert res["dichotomy"] == "BOUND_CERTIFIED"
    assert res["certified_bound"] == 4
    assert res["power_sum_identity"] is True
    assert res["structure"]["product_equals_order"] is True


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "13"])  # missing --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["bogus-subcommand"])


def test_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "stepanov", "--q", "13", "--d", "5",
                         "--A", "0,1", "--B", "1,2")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "classify")
    assert code == 1 and "classify needs" in err


def test_classify_single_pair(capsys):
    code, report, _ = run_json(capsys, "classify", "--q", "121", "--d", "8")
    assert code == 0
    pair = report["results"]["pair"]
    assert pair["digits"] == [4, 1]
    assert pair["bullets"] == [2, 4]
    assert pair["delta_sup_grid"] == 12


def test_classify_batch_csv(capsys):
    code, out, _ = run(capsys, "classify", "--qmax", "30")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header == ["q", "d", "p", "n", "digits", "is_good", "bullet",
                      "delta_sup", "verdicts"]
    expected = sum(1 for q, _, _ in prime_powers(30)
                   for d in divisors(q - 1) if 2 <= d < q - 1)
    assert len(body) == expected
    by_pair = {(r[0], r[1]): r for r in body}
    assert by_pair[("13", "3")][5] == "1"  # good pair


def test_classify_batch_json(capsys):
    code, report, _ = run_json(capsys, "classify", "--qmax", "14")
    assert code == 0
    pairs = report["results"]["pairs"]
    assert {(pc["q"], pc["d"]) for pc in pairs} >= {(13, 2), (13, 3), (13, 4), (13, 6)}


def test_search_cache_roundtrip(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    argv = ("search", "--q", "13", "--d", "3")
    code, first, _ = run_json(capsys, *argv)
    assert code == 0
    assert first["results"]["cached"] is False
    assert first["results"]["kind"] == "EXISTS"
    code, second, _ = run_json(capsys, *argv)
    assert second["results"]["cached"] is True
    strip = lambda r: {k: v for k, v in r["results"].items() if k != "cached"}
    assert strip(first) == strip(second)


def test_search_cache_tamper_forces_recompute(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    argv = ("search", "--q", "13", "--d", "3")
    run_json(capsys, *argv)
    entries = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    assert len(entries) == 1
    entry = json.loads(entries[0].read_text())
    entry["payload"]["witnesses"][0]["parts"] = [[0, 1], [0, 1]]
    entry["checksum"] = hashlib.sha256(
        _canonical(entry["payload"]).encode()).hexdigest()
    entries[0].write_text(_canonical(entry))
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["results"]["cached"] is False  # bad witness rejected
    assert report["results"]["witnesses"][0]["parts"] != [[0, 1], [0, 1]]


def test_search_no_cache_flag(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    code, report, _ = run_json(capsys, "search", "--q", "13", "--d", "3",
                               "--no-cache")
    assert code == 0
    assert not list(tmp_path.glob("*.json"))


def test_search_disable_prune(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    base = run_json(capsys, "search", "--q", "13", "--d", "3", "--no-cache")[1]
    loose = run_json(capsys, "search", "--q", "13", "--d", "3", "--no-cache",
                     "--disable-prune", "DISTINCT_SUMS")[1]
    assert base["results"]["witnesses"] == loose["results"]["witnesses"]


def test_huge_field_is_an_error(capsys):
    # each is capped before trial division or a sieve, and before p^n is
    # built or printed
    huge = str(10**60 + 7)
    for argv in (("field", "--q", huge),
                 ("field", "--p", huge, "--n", "1"),
                 ("construct", "--family", "a-plus-a", "--p", huge, "--n", "1"),
                 ("field", "--p", "2", "--n", "100000000"),
                 ("classify", "--q", huge, "--d", "2"),
                 ("classify", "--qmax", str(10**12))):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "exceeds the cap" in err
        assert "Traceback" not in err


def test_search_rejects_bad_limits_before_cache(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    for extra in (("--arity", "3", "--min-size", "0"), ("--min-size", "-3"),
                  ("--budget", "-1")):
        code, out, err = run(capsys, "search", "--q", "13", "--d", "3",
                             *extra, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # nothing cached


def test_over_cap_search_fails_before_any_field(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli_mod, "make_field_q", lambda q: built.append(q))
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, *a: built.append(a))
    for q, arity in (("1048576", "2"), ("8192", "2"), ("121", "3")):
        code, out, err = run(capsys, "search", "--q", q, "--d", "3",
                             "--arity", arity, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error: exhaustive mode needs q <= ")
    assert built == []


def test_construct_families(capsys):
    code, report, _ = run_json(capsys, "construct", "--family", "a-plus-a",
                               "--p", "7", "--n", "1")
    assert code == 0
    assert report["results"]["sizes"] == [3, 3]
    assert report["results"]["parts"][0] == [1, 2, 4]

    code, report, _ = run_json(capsys, "construct", "--family", "subfield",
                               "--p", "7", "--n", "2", "--k", "1")
    assert code == 0
    assert report["results"]["d"] == 8
    assert report["results"]["members"] == [1, 2, 3, 4, 5, 6]

    code, report, _ = run_json(capsys, "construct", "--family", "ternary",
                               "--p", "5", "--n", "2", "--k", "1")
    assert code == 0
    assert report["results"]["d"] == 6

    code, _, err = run(capsys, "construct", "--family", "subfield",
                       "--p", "7", "--n", "2")
    assert code == 1 and "needs --k" in err


def test_charsum_explicit_pair(capsys):
    code, report, _ = run_json(capsys, "charsum", "--q", "13", "--d", "3",
                               "--A", "0,7", "--B", "1,5")
    assert code == 0
    res = report["results"]
    assert res["sum_in_subgroup"] is True
    assert res["exact_product"] is True
    assert res["value_re"] == pytest.approx(4.0)
    assert res["value_abs"] <= res["bound"] + 1e-6


def test_charsum_random_trials(capsys):
    code, report, _ = run_json(capsys, "charsum", "--q", "49", "--d", "8",
                               "--trials", "40", "--rng-seed", "7")
    assert code == 0
    res = report["results"]
    assert res["violations"] == 0
    assert 0 < res["max_ratio"] <= 1.0 + 1e-9


def test_charsum_requires_both_sets(capsys):
    code, _, err = run(capsys, "charsum", "--q", "13", "--d", "3", "--A", "0,1")
    assert code == 1 and "both" in err


def test_selftest_battery(capsys):
    code, report, _ = run_json(capsys, "selftest")
    assert code == 0
    res = report["results"]
    assert res["all_ok"] is True
    assert len(res["checks"]) == 11
    assert all(c["ok"] for c in res["checks"])


def test_selftest_replay(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    _, report, _ = run_json(capsys, "search", "--q", "49", "--d", "8")
    report_path = tmp_path / "run.json"
    report_path.write_text(json.dumps(report))
    code, replay, _ = run_json(capsys, "selftest", "--replay", str(report_path))
    assert code == 0
    assert replay["results"]["all_ok"] is True
    assert replay["results"]["count"] == len(report["results"]["witnesses"])

    broken = json.loads(report_path.read_text())
    broken["results"]["witnesses"][0]["parts"] = [[0, 1], [2, 3]]
    report_path.write_text(json.dumps(broken))
    code, replay, _ = run_json(capsys, "selftest", "--replay", str(report_path))
    assert code == 1
    assert replay["results"]["all_ok"] is False


@pytest.mark.parametrize("text", [None, "{bad"], ids=["missing", "invalid-json"])
def test_selftest_replay_unreadable_report(capsys, tmp_path, text):
    path = tmp_path / "report.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "selftest", "--replay", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read report")


@pytest.mark.parametrize("witness", [
    {"q": 49, "d": 8, "parts": [["1", 2, 4], [1, 2, 4]]},  # string index
    {"q": 49, "d": 8, "parts": [[1.0, 2, 4], [1, 2, 4]]},  # float index
    {"q": 49, "d": 8, "parts": 5},  # parts not a list
    {"q": "49", "d": 8, "parts": [[1, 2, 4], [1, 2, 4]]},  # string q
], ids=["string-index", "float-index", "parts-not-list", "string-q"])
def test_selftest_replay_malformed_witness(capsys, tmp_path, witness):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"results": witness}))
    code, replay, _ = run_json(capsys, "selftest", "--replay", str(path))
    assert code == 1
    assert replay["results"]["all_ok"] is False
    assert [w["ok"] for w in replay["results"]["witnesses"]] == [False]
    witness["q"] = 49
    witness["parts"] = [[1, 2, 4], [1, 2, 4]]  # the same witness, well formed
    path.write_text(json.dumps({"results": witness}))
    code, replay, _ = run_json(capsys, "selftest", "--replay", str(path))
    assert code == 0 and replay["results"]["all_ok"] is True


# sha256 of stdout, recorded before the size-rule, identity-check and
# --threads deletions; charsum is left out because its floats come from libm.
GOLDEN_CLI = [
    (("field", "--q", "13", "--json"),
     "f97034860bc1c51acc651ac119ec14ade4199c5367ee57720c601b9dde6c6709"),
    (("field", "--p", "7", "--n", "2", "--json"),
     "ded132711a4cb03bb2bffbcbde358c7656c69930374d7f6bb929bbb3addce3a6"),
    (("classify", "--q", "121", "--d", "8", "--json"),
     "2460acf9ab496e4f9ef43f16433f4a2d4aa84d0bb322333501a52c70b87cf8e1"),
    (("classify", "--qmax", "30"),  # CSV
     "2519072b9eddb779d3c9ba7ca2ea35012f4564bab43bc7c22a166b6c4a31fba9"),
    (("stepanov", "--q", "13", "--d", "3", "--A", "0,7", "--B", "1,5", "--json"),
     "cba3febad0aab9a6439f4259b1ab2f44f94ba032ba6b54c3c4376778d64efec9"),
    (("analyze", "--q", "13", "--d", "3", "--A", "0,7", "--B", "1,5", "--json"),
     "67bb0ddef32254593c0d444c7f3e3fde10134a539374783f0d519f2250028046"),
    (("analyze", "--q", "49", "--d", "8", "--A", "1,2,4", "--B", "1,2,4",
      "--json"),
     "5a457fe2f14d79f55045360b0c2bdefaf898255d2d44935f503af0ecadf890d3"),
    (("construct", "--family", "a-plus-a", "--p", "7", "--n", "1", "--json"),
     "a53daa6cbc0d5c902b9584eaaa4dc52feb4a2cf2bfe62195b3dd4727844039d0"),
    # the digit families at n >= 2 and an a-plus-a chain through --k
    (("construct", "--family", "a-plus-a", "--p", "7", "--n", "2", "--json"),
     "d2253838a2b82da5df30e73803ae1989368f4fbe2695e346fff04236a80aa83f"),
    (("construct", "--family", "ternary", "--p", "5", "--n", "2", "--json"),
     "b33146cd8605cbeec697cefc56e21eaa73a404715d91dc6314f672bf98a898b6"),
    (("construct", "--family", "a-plus-a", "--p", "7", "--n", "2", "--k", "1",
      "--json"),
     "b52fa4f26b333920e7a9b1d663f9968d5f6012360855662a6287d11d101bcf2d"),
    (("construct", "--family", "subfield", "--p", "7", "--n", "2", "--k", "1",
      "--json"),
     "8a02250676814cfc8a1c26083140262d75c34399ade6345439e78aba72042919"),
    (("construct", "--family", "subfield", "--p", "2", "--n", "14", "--k", "7",
      "--json"),
     "fa530bd3823f7616aec93fb1edf8463484ae6ea1288c36d24f0a9f4ee7e180c9"),
    (("construct", "--family", "ternary", "--p", "5", "--n", "2", "--k", "1",
      "--json"),
     "9ea7404314cdd8b308eb691468c25705fdef6a71eeda72bd5aaa5a2c2e2392da"),
    (("selftest", "--json"),
     "9b8ff8e5e74d2e33ef922609e88e695847784be8b3cd41cf2c890d13496eafbf"),
    # both search entries re-recorded when reports gained probes and
    # emissions and the B grower stopped visiting kids too few to finish B
    (("search", "--q", "13", "--d", "3", "--no-cache", "--json"),
     "dd7186ea48b35f3860229c8ccd2b40f9346a020b4f97d955cda7b86a5a1d8849"),
    # re-recorded when ternary prune counts stopped counting rows |D| < |C|
    (("search", "--q", "49", "--d", "8", "--arity", "3", "--no-cache", "--json"),
     "ea0acfbe992d99d9d2fb435273dafba34590c9e217431580c62fb8a0b685a214"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_CLI,
                         ids=["_".join(x.lstrip("-") for x in a if x != "--json")
                              for a, _ in GOLDEN_CLI])
def test_golden_cli_reports(capsys, monkeypatch, tmp_path, argv, digest):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
