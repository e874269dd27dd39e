"""Command line behavior: artifacts, exit codes, round trips."""

from __future__ import annotations

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from gallai_lab.cli import build_parser, main
from gallai_lab.coloring import parse, serialize
from gallai_lab.constructions import build_extremal_odd, random_gallai
from gallai_lab.detectors import find_mono_cycle


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- gen ---------------------------------------------------------------------------


def test_gen_extremal_writes_recipe_header(tmp_path, capsys):
    target = tmp_path / "ext.txt"
    code, _ = run(capsys, "gen", "extremal-odd", "--ell", "3", "--k", "2", "-o", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("# recipe: ")
    first = text.splitlines()[0]
    recipe = json.loads(first[len("# recipe: "):])
    assert recipe["kind"] == "OddCycleExtremal"
    g = parse(text)
    assert g.n == 12
    assert g == build_extremal_odd(3, 2)[0]


def test_gen_random_is_seed_stable(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for t in (a, b):
        code, _ = run(capsys, "gen", "random", "--order", "15", "--k", "3",
                      "--seed", "42", "-o", str(t))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert parse(a.read_text()) == random_gallai(15, 3, 42)


def test_gen_to_stdout(capsys):
    code, out = run(capsys, "gen", "ramsey-lower", "--m", "5", "--n", "5")
    assert code == 0
    g = parse(out)
    assert g.n == 8
    assert find_mono_cycle(g, 1, 5) is None
    assert find_mono_cycle(g, 2, 5) is None


def test_gen_missing_arguments_is_usage_error(capsys):
    code, _ = run(capsys, "gen", "extremal-odd", "--ell", "3")
    assert code == 2
    code, _ = run(capsys, "gen", "extremal-odd", "--ell", "1", "--k", "2")
    assert code == 2  # bad parameters surface the same way


# -- check -------------------------------------------------------------------------


def test_check_clean_and_dirty_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.txt"
    code, _ = run(capsys, "gen", "extremal-odd", "--ell", "2", "--k", "2", "-o", str(clean))
    assert code == 0

    code, out = run(capsys, "check", str(clean), "--rainbow", "--cycle", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"found": False, "witnesses": []}

    code, out = run(capsys, "check", str(clean), "--cycle", "4", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["found"]
    w = payload["witnesses"][0]
    assert w["kind"] == "MonoCycle" and len(w["vertices"]) == 4


def test_check_default_output_is_text(tmp_path, capsys):
    f = tmp_path / "g.txt"
    run(capsys, "gen", "extremal-odd", "--ell", "3", "--k", "2", "-o", str(f))
    code, out = run(capsys, "check", str(f), "--cycle", "7")
    assert code == 0
    assert "C_7: absent in all colors" in out
    code, out = run(capsys, "check", str(f), "--rainbow")
    assert code == 0
    assert "rainbow triangle: absent" in out
    code, out = run(capsys, "check", str(f), "--cycle", "4", "--colors", "2")
    assert code == 1
    assert "C_4 in color 2:" in out


def test_check_all_colors_reads_the_colors_present(tmp_path, capsys):
    # A declared palette of a million colors: only color 1 is present.
    f = tmp_path / "g.txt"
    f.write_text("3 1000000\n1\n1 1\n")
    code, out = run(capsys, "check", str(f), "--rainbow", "--cycle", "3")
    assert code == 1
    assert out == "rainbow triangle: absent\nC_3 in color 1: 0 1 2\n"


def test_check_color_list_with_no_entries_is_usage_error(tmp_path, capsys):
    # on a file that holds a triangle in its one color, an empty list would
    # scan no color and report it absent
    f = tmp_path / "g.txt"
    f.write_text("3 2\n1\n1 1\n")
    code, out = run(capsys, "check", str(f), "--cycle", "3", "--colors", "1")
    assert code == 1 and out == "C_3 in color 1: 0 1 2\n"
    for empty in (",", "", " , "):
        assert main(["check", str(f), "--cycle", "3", "--colors", empty]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "names no color" in captured.err


def test_check_color_subset(tmp_path, capsys):
    f = tmp_path / "g.txt"
    run(capsys, "gen", "extremal-odd", "--ell", "2", "--k", "2", "-o", str(f))
    # color 2 joins two halves of order 4: a C_4 lives across them
    code, out = run(capsys, "check", str(f), "--cycle", "4", "--colors", "2", "--json")
    assert code == 1
    assert all(w["color"] == 2 for w in json.loads(out)["witnesses"])


def test_check_writes_witness_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    wf = tmp_path / "w.jsonl"
    run(capsys, "gen", "extremal-odd", "--ell", "2", "--k", "2", "-o", str(f))
    code, _ = run(capsys, "check", str(f), "--cycle", "4", "--witness-file", str(wf))
    assert code == 1
    lines = wf.read_text().strip().splitlines()
    assert lines and all(json.loads(ln)["kind"] == "MonoCycle" for ln in lines)


def test_check_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("3 2\n1\n2 2")  # no trailing newline
    code, _ = run(capsys, "check", str(f), "--rainbow")
    assert code == 2
    code, _ = run(capsys, "check", str(tmp_path / "absent.txt"), "--rainbow")
    assert code == 2


def test_check_bad_cycle_order_exits_2_whatever_the_file_holds(tmp_path, capsys):
    # the one-vertex file holds no color at all; the order is still checked
    for name, text in (("one.txt", "1 1\n"), ("two.txt", "2 3\n2\n")):
        f = tmp_path / name
        f.write_text(text)
        code = main(["check", str(f), "--cycle", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "gallai-lab: cycle order 2 must be at least 3\n"


# -- partition ----------------------------------------------------------------------


def test_partition_round_trip(tmp_path, capsys):
    f = tmp_path / "g.txt"
    run(capsys, "gen", "extremal-odd", "--ell", "3", "--k", "2", "-o", str(f))
    red = tmp_path / "reduced.txt"
    code, out = run(capsys, "partition", str(f), "--reduced", str(red))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["parts"]) >= 2
    assert payload["between_colors"] == [2]
    q = parse(red.read_text())
    assert q.n == len(payload["parts"])


def test_partition_rainbow_input_exits_1(tmp_path, capsys):
    f = tmp_path / "rb.txt"
    f.write_text("3 3\n1\n2 3\n")
    code, out = run(capsys, "partition", str(f))
    assert code == 1
    payload = json.loads(out)
    assert payload["gallai"] is False
    assert payload["witness"]["kind"] == "RainbowTriangle"


# -- lemmas -------------------------------------------------------------------------


def test_lemmas_dirac(tmp_path, capsys):
    from gallai_lab.coloring import complete_monochromatic

    f = tmp_path / "mono.txt"
    f.write_text(serialize(complete_monochromatic(6, 2, 1)))
    code, out = run(capsys, "lemmas", "dirac", str(f), "--color", "1")
    assert code == 0
    w = json.loads(out)
    assert w["kind"] == "HamiltonCycle" and len(w["vertices"]) == 6

    code, _ = run(capsys, "lemmas", "dirac", str(f), "--color", "2")
    assert code == 2  # empty class fails the degree precondition


def test_lemmas_eg_path(tmp_path, capsys):
    from gallai_lab.coloring import complete_monochromatic

    f = tmp_path / "mono.txt"
    f.write_text(serialize(complete_monochromatic(5, 1, 1)))
    code, out = run(capsys, "lemmas", "eg-path", str(f), "--color", "1", "--edges", "4")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 5
    code, out = run(capsys, "lemmas", "eg-path", str(f), "--color", "1", "--edges", "9")
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_lemmas_colored_split(tmp_path, capsys):
    f = tmp_path / "two.txt"
    g = random_gallai(10, 2, 3)
    f.write_text(serialize(g))
    code, out = run(capsys, "lemmas", "colored-split", str(f),
                    "--red", "1", "--blue", "2", "--a", "4", "--b", "5")
    assert code == 0
    w = json.loads(out)
    assert w["kind"] == "MonoPath"
    assert len(w["vertices"]) == (4 if w["color"] == 1 else 5)

    code, _ = run(capsys, "lemmas", "colored-split", str(f),
                  "--red", "1", "--blue", "2", "--a", "9", "--b", "9")
    assert code == 2  # degree hypothesis cannot hold


def test_lemmas_recolor(tmp_path, capsys):
    # hub {0,1}, part {2}: A-B edges color 1, inner colors legal
    f = tmp_path / "hub.txt"
    f.write_text("3 3\n2\n1 1\n")
    out_file = tmp_path / "re.txt"
    code, _ = run(capsys, "lemmas", "recolor", str(f), "--part", "0,1", "--part", "2",
                  "--k", "2", "--cycle", "3", "-o", str(out_file))
    assert code == 0
    g = parse(out_file.read_text())
    assert g.k == 2

    code, _ = run(capsys, "lemmas", "recolor", str(f), "--part", "0", "--part", "2",
                  "--k", "2", "--cycle", "3")
    assert code == 2  # sets do not cover the host


# -- search and verify -----------------------------------------------------------------


def test_search_verify_round_trip(tmp_path, capsys):
    report = tmp_path / "r45.json"
    code, _ = run(capsys, "search", "ramsey", "--m", "4", "--n", "5", "-o", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["value"] == 7
    assert payload["witness_file"] == str(report) + ".witness"
    assert parse((tmp_path / "r45.json.witness").read_text()).n == 6

    code, out = run(capsys, "verify", str(report))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_catches_tampered_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(capsys, "search", "ramsey", "--m", "4", "--n", "4", "-o", str(report))
    payload = json.loads(report.read_text())
    payload["value"] = payload["lower"] = payload["upper"] = payload["value"] + 1
    report.write_text(json.dumps(payload))
    code, out = run(capsys, "verify", str(report))
    assert code == 1
    assert json.loads(out)["valid"] is False


def _bent_report(tmp_path, capsys, bend) -> str:
    report = tmp_path / "r.json"
    run(capsys, "search", "ramsey", "--m", "4", "--n", "4", "-o", str(report))
    payload = json.loads(report.read_text())
    bend(payload)
    report.write_text(json.dumps(payload))
    return str(report)


@pytest.mark.parametrize("bend", [
    lambda d: d.pop("family"),
    lambda d: d.update(lower="7"),
    lambda d: d["stats"].update(bogus=1),
    lambda d: d.update(stats=[]),
    lambda d: d.update(witness_file=3),
], ids=["no-family", "string-lower", "unknown-stats-key", "stats-list", "numeric-witness-file"])
def test_verify_malformed_report_exits_2_with_one_line(tmp_path, capsys, bend):
    path = _bent_report(tmp_path, capsys, bend)
    code = main(["verify", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gallai-lab: ")


def test_verify_params_missing_a_family_key_fail_the_certificate(tmp_path, capsys):
    path = _bent_report(tmp_path, capsys, lambda d: d.update(params={"m": 5}))
    code, out = run(capsys, "verify", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False and "'n'" in payload["reason"]


def test_verify_a_billion_color_palette_is_quick(tmp_path, capsys):
    # the cost follows the witness, not the palette the report declares
    (tmp_path / "w.txt").write_text("3 1000000000\n1\n2 2\n")
    report = tmp_path / "r.json"
    report.write_text(json.dumps({
        "family": "GallaiRamsey", "params": {"m": 5, "k": 10**9}, "value": None,
        "lower": 4, "upper": None, "witness_file": "w.txt", "stats": {},
    }))
    start = time.perf_counter()
    code, out = run(capsys, "verify", str(report))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out) == {"valid": True}


def test_search_gallai_partial_via_cli(tmp_path, capsys):
    report = tmp_path / "g.json"
    code, _ = run(capsys, "search", "gallai", "--m", "7", "--k", "3",
                  "--budget", "1000", "-o", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["value"] is None
    assert payload["lower"] == 25
    assert payload["params"]["budget"] == 1000
    code, out = run(capsys, "verify", str(report))
    assert code == 0


def test_search_missing_family_arguments(capsys):
    code, _ = run(capsys, "search", "ramsey", "--m", "4")
    assert code == 2
    code, _ = run(capsys, "search", "gallai", "--m", "5")
    assert code == 2


def test_search_limit_flag_and_env(tmp_path, capsys, monkeypatch):
    # the budget is the one stop rule: the old order caps are gone, as flags
    # and as the GALLAI_LAB_LIMITS environment variable
    monkeypatch.setenv("GALLAI_LAB_LIMITS", "2:4")
    code, out = run(capsys, "search", "ramsey", "--m", "5", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 11
    assert payload["params"] == {"m": 5, "n": 6, "budget": 10_000_000}
    for flag in ("--limit", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "ramsey", "--m", "5", "--n", "6", flag, "2"])
        assert exc.value.code == 2


def test_search_past_the_default_recursion_limit(capsys):
    code, out = run(capsys, "search", "gallai", "--m", "43", "--k", "1")
    assert code == 0
    assert json.loads(out)["value"] == 43


def test_search_budget_covering_the_exhaustion_gives_the_value(capsys):
    # the exhausting order n=6 takes 9 nodes, 60 steps
    code, out = run(capsys, "search", "ramsey", "--m", "3", "--n", "3", "--budget", "60")
    assert code == 0
    assert json.loads(out)["value"] == 6
    code, out = run(capsys, "search", "ramsey", "--m", "3", "--n", "3", "--budget", "59")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["lower"]) == (None, 6)
    code, _ = run(capsys, "search", "ramsey", "--m", "3", "--n", "3", "--budget", "0")
    assert code == 2
    # a bad budget is refused also where a 64-vertex construction leaves no order to search
    code, _ = run(capsys, "search", "ramsey", "--m", "5", "--n", "33", "--budget", "0")
    assert code == 2
    code, _ = run(capsys, "search", "gallai", "--m", "65", "--k", "1", "--budget", "-5")
    assert code == 2


def test_search_stdout_has_null_witness_file(capsys):
    code, out = run(capsys, "search", "ramsey", "--m", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 6
    assert payload["witness_file"] is None


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- parser reuse ---------------------------------------------------------------------


def test_parser_is_built_once_and_matches_a_fresh_one():
    assert build_parser() is build_parser()
    assert build_parser().format_help() == build_parser.__wrapped__().format_help()


def test_main_calls_share_no_state(tmp_path, capsys):
    f = tmp_path / "g.txt"
    run(capsys, "gen", "extremal-odd", "--ell", "2", "--k", "2", "-o", str(f))

    code, out = run(capsys, "check", str(f), "--cycle", "5", "--json")
    assert code == 0 and json.loads(out) == {"found": False, "witnesses": []}
    code, out = run(capsys, "check", str(f), "--cycle", "5")
    assert code == 0 and out == "C_5: absent in all colors\n"

    red = tmp_path / "reduced.txt"
    code, first = run(capsys, "partition", str(f), "--reduced", str(red))
    assert code == 0 and red.exists()
    red.unlink()
    code, second = run(capsys, "partition", str(f))
    assert code == 0 and second == first
    assert not red.exists()

    with pytest.raises(SystemExit) as info:
        main(["check", str(f), "--cycle"])
    assert info.value.code == 2
    code, _ = run(capsys, "check", str(f), "--cycle", "4")
    assert code == 1


# -- the README's command lines --------------------------------------------------------


def _readme_command_lines() -> list[str]:
    # every line of the README's sh blocks, and every inline span that runs
    # the command; a span may wrap across lines
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines()]
    lines += [span.replace("\n", " ") for span in re.findall(r"`(gallai-lab\s[^`]*)`", text)]
    return lines


def test_readme_command_lines_parse():
    parsed = 0
    for line in _readme_command_lines():
        words = shlex.split(line, comments=True)
        while words and re.fullmatch(r"[A-Za-z_]\w*=.*", words[0]):
            words.pop(0)  # an environment prefix
        if not words or words[0] != "gallai-lab":
            continue
        try:
            build_parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        parsed += 1
    assert parsed >= 20
