import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from monoalg import cli
from monoalg.cli import InputDocument, main, parse_input
from monoalg.errors import (
    InfiniteQuotientError,
    InputError,
    InputSyntaxError,
    InternalError,
    InvalidCharacteristicError,
    MonoalgError,
    NegativeEntryError,
    NonIntegerError,
    NotHomogeneousError,
    NotSimplicialError,
    PreconditionError,
    RaggedRowsError,
)
from conftest import QUARTIC_GENS, SEC3_GENS, SKEW_GENS


BOX64_GENS = [(8, 0, 0), (0, 8, 0), (0, 0, 8), (1, 7, 0), (2, 0, 6),
              (2, 5, 1), (3, 5, 0), (4, 0, 4)]


def write_gens(tmp_path, gens, name="input.txt"):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(str(e) for e in g) for g in gens) + "\n")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseInput:
    def test_json_object(self):
        doc = parse_input(b'{"name": "demo", "generators": [[4,0,0],[0,4,0]]}')
        assert doc == InputDocument("demo", [(4, 0, 0), (0, 4, 0)])

    def test_bare_json_list(self):
        doc = parse_input('[[1,2],[3,4]]')
        assert doc.name is None
        assert doc.generators == [(1, 2), (3, 4)]

    def test_text_rows(self):
        doc = parse_input("2\n3\n")
        assert doc.generators == [(2,), (3,)]

    def test_text_with_comments_and_blanks(self):
        doc = parse_input("# demo\n4 0\n\n0 4  # frame\n")
        assert doc.generators == [(4, 0), (0, 4)]

    def test_ragged_json(self):
        with pytest.raises(RaggedRowsError):
            parse_input('[[1,2],[3]]')

    def test_ragged_text(self):
        with pytest.raises(RaggedRowsError) as info:
            parse_input("1 2\n3\n")
        assert info.value.line == 2

    def test_non_integer_json(self):
        with pytest.raises(NonIntegerError):
            parse_input('{"generators": [[1, 2.5]]}')
        with pytest.raises(NonIntegerError):
            parse_input('{"generators": [[true, 1]]}')

    def test_non_integer_text(self):
        with pytest.raises(NonIntegerError) as info:
            parse_input("1 x\n")
        assert info.value.line == 1

    def test_over_long_text_token_names_the_limit(self):
        with pytest.raises(NonIntegerError, match="at most 4300 digits"):
            parse_input("1" * 4301 + "\n")

    def test_syntax_errors(self):
        for bad in ("", "{broken", '{"generators": 7}', '{"extra": 1}',
                    '{"name": 5, "generators": [[1]]}', "[7]",
                    "# a comment\n\n  # and no row\n"):
            with pytest.raises(InputSyntaxError):
                parse_input(bad)

    def test_missing_generators_key(self):
        with pytest.raises(InputSyntaxError):
            parse_input('{"name": "x"}')


class TestCommands:
    def test_analyze_json_content(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(["analyze", "--input", path, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["decomposition"]["summands"]) == 8
        props = doc["properties"]
        assert (props["seminormal"], props["normal"], props["cohen_macaulay"],
                props["buchsbaum"], props["gorenstein"]) == (
                    False, False, False, True, False)
        reg = doc["regularity"]
        assert (reg["regularity"], reg["degree"], reg["codim"],
                reg["eg_bound"], reg["eg_holds"], reg["depth"]) == (
                    2, 8, 4, 4, True, 1)

    def test_analyze_verify_flag(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(
            ["analyze", "--input", path, "--json", "--verify", "--tmax", "6"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["hilbert_verify"] == {"t_max": 6, "ok": True}

    @pytest.mark.parametrize("command",
                             ["decompose", "props", "reg", "eg", "analyze"])
    def test_verify_line_in_text(self, command, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(
            [command, "--input", path, "--verify", "--tmax", "6"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "degree counts match up to t=6: True"

    def test_decompose_free(self, tmp_path, capsys):
        path = write_gens(tmp_path, [(1, 0), (0, 1)])
        code, out, _ = run_cli(["decompose", "--input", path, "--json"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        summands = doc["decomposition"]["summands"]
        assert len(summands) == 1
        assert summands[0]["shift"] == [0, 0]
        assert summands[0]["ideal"]["gens"] == [[0, 0]]

    def test_eg_quartic(self, tmp_path, capsys):
        path = write_gens(tmp_path, QUARTIC_GENS)
        code, out, _ = run_cli(["eg", "--input", path, "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"reg": 2, "bound": 2, "holds": True}

    def test_props_works_without_grading(self, tmp_path, capsys):
        path = write_gens(tmp_path, [(2,), (3,)])
        code, out, _ = run_cli(["props", "--input", path, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["properties"]["gorenstein"] is True
        assert doc["homogeneous"] is False

    def test_verbose_includes_lambda(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(
            ["decompose", "--input", path, "--json", "--verbose"], capsys)
        doc = json.loads(out)
        top = [s for s in doc["decomposition"]["summands"]
               if s["shift"] == [2, 0, 2]]
        assert top[0]["shift_lambda"] == ["1/2", "0", "1/2"]

    def test_text_and_json_agree(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, text, _ = run_cli(["analyze", "--input", path], capsys)
        assert code == 0
        code, raw, _ = run_cli(["analyze", "--input", path, "--json"], capsys)
        doc = json.loads(raw)
        assert f"regularity: {doc['regularity']['regularity']}" in text
        assert f"depth: {doc['regularity']['depth']}" in text
        assert "buchsbaum: true" in text
        assert "seminormal: false" in text
        assert f"order {doc['decomposition']['group']['order']}" in text

    def test_json_input_with_name(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(
            {"name": "demo", "generators": [[1, 0], [0, 1]]}))
        code, out, _ = run_cli(["analyze", "--input", str(path), "--json"],
                               capsys)
        assert code == 0
        assert json.loads(out)["name"] == "demo"
        code, text, _ = run_cli(["analyze", "--input", str(path)], capsys)
        assert "'demo'" in text

    def test_empty_name_is_echoed(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(
            {"name": "", "generators": [[1, 0], [0, 1]]}))
        code, out, _ = run_cli(["decompose", "--input", str(path), "--json"],
                               capsys)
        assert code == 0
        assert json.loads(out)["name"] == ""
        code, text, _ = run_cli(["decompose", "--input", str(path)], capsys)
        assert text.startswith("semigroup '': 2 generators")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            sys, "stdin",
            type("S", (), {"buffer": io.BytesIO(b"2\n3\n")})())
        code, out, _ = run_cli(["props", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["properties"]["cohen_macaulay"] is True


def readme_exit_codes() -> dict[str, int]:
    """kind -> exit code, from the table in README's CLI section."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    codes = {}
    for line in readme.read_text().splitlines():
        match = re.fullmatch(r"\| `(\d)` \| (.*) \|", line)
        if match:
            for kind in re.findall(r"`(\w+)`", match.group(2)):
                codes[kind] = int(match.group(1))
    return codes


class TestExitCodes:
    @pytest.mark.parametrize("cls, kind, exit_code", [
        (MonoalgError, "error", 2),
        (InputError, "input", 1),
        (RaggedRowsError, "input", 1),
        (NegativeEntryError, "input", 1),
        (InvalidCharacteristicError, "invalid_characteristic", 1),
        (PreconditionError, "precondition", 2),
        (NotSimplicialError, "not_simplicial", 2),
        (NotHomogeneousError, "not_homogeneous", 2),
        (InfiniteQuotientError, "error", 2),
        (InternalError, "error", 2),
    ])
    def test_error_class_contract(self, cls, kind, exit_code):
        assert (cls.kind, cls.exit_code) == (kind, exit_code)
        assert readme_exit_codes()[kind] == exit_code

    def test_parse_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
        assert code == 1
        assert "error" in err

    def test_validation_error_is_one(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("1 -1\n")
        code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
        assert code == 1

    def test_empty_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"generators": [[]]}')
        code, out, _ = run_cli(
            ["decompose", "--json", "--input", str(path)], capsys)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "input"
        assert "empty row" in error["message"]

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 0\n0 1  # \xe9\n")
        code, out, _ = run_cli(
            ["decompose", "--json", "--input", str(path)], capsys)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "input"
        assert error["message"].startswith("input is not UTF-8")

    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_integer_tokens_are_ascii_digits(self, token, tmp_path, capsys):
        # int() reads these as 10 and 3; JSON input rejects both
        path = tmp_path / "in.txt"
        path.write_text(f"1 0\n0 {token}\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["decompose", "--json", "--input", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "input",
            "message": f"token {token!r} is not an integer (line 2)"}

    def test_long_bad_token_is_shortened(self, tmp_path, capsys):
        # the message shows the token's first 20 characters and its length
        path = tmp_path / "in.txt"
        path.write_text("1" * 4400 + " 0\n0 1\n")
        code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
        assert code == 1
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert "'11111111111111111111'... (4400 characters)" in err
        code, out, _ = run_cli(
            ["analyze", "--json", "--input", str(path)], capsys)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "input"
        assert len(error["message"].encode()) < 200

    def test_signed_tokens_reach_validation(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("+1 0\n0 -1\n")
        code, out, _ = run_cli(
            ["decompose", "--json", "--input", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "input",
            "message": "generator (0, -1) has a negative entry"}

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_cli(["analyze", "--input", "/nonexistent/x"],
                               capsys)
        assert code == 1

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(["analyze", "--bogus-flag"], capsys)
        assert code == 1
        code, _, err = run_cli([], capsys)
        assert code == 1

    def test_negative_tmax_is_usage_error(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, err = run_cli(
            ["decompose", "--input", path, "--verify", "--tmax", "-3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_not_simplicial_is_two(self, tmp_path, capsys):
        from conftest import NONSIMPLICIAL_GENS

        path = write_gens(tmp_path, NONSIMPLICIAL_GENS)
        code, out, err = run_cli(
            ["decompose", "--input", path, "--json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "not_simplicial"

    def test_not_homogeneous_is_two(self, tmp_path, capsys):
        path = write_gens(tmp_path, [(2,), (3,)])
        code, out, _ = run_cli(["reg", "--input", path, "--json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "not_homogeneous"

    @pytest.mark.parametrize("command", ["decompose", "props"])
    def test_verify_without_grading_fails_before_decomposing(
            self, command, tmp_path, capsys, monkeypatch):
        def refuse(semigroup):
            pytest.fail("decompose ran")

        monkeypatch.setattr(cli, "decompose", refuse)
        path = write_gens(tmp_path, [(2,), (3,)])
        code, out, _ = run_cli(
            [command, "--input", path, "--verify", "--json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "not_homogeneous"
        # a cone that is neither simplicial nor graded: simplicial first
        path = write_gens(tmp_path, [(1, 0, 0), (0, 1, 0), (1, 0, 1),
                                     (0, 1, 1), (1, 1, 2)])
        code, out, _ = run_cli(
            [command, "--input", path, "--verify", "--json"], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "not_simplicial"

    @pytest.mark.parametrize("flags", [[], ["--verify"]])
    @pytest.mark.parametrize("command", ["reg", "eg", "analyze"])
    def test_regularity_without_grading_fails_before_decomposing(
            self, command, flags, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            pytest.fail("the pipeline ran")

        monkeypatch.setattr(cli, "decompose", refuse)
        monkeypatch.setattr(cli, "full_report", refuse)
        path = write_gens(tmp_path, [(2,), (3,)])
        code, out, err = run_cli(
            [command, "--input", path, "--json", *flags], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "not_homogeneous",
            "message": "regularity needs a homogeneous semigroup"}
        assert err == "error: regularity needs a homogeneous semigroup\n"
        # a cone that is neither simplicial nor graded: simplicial first
        path = write_gens(tmp_path, [(1, 0, 0), (0, 1, 0), (1, 0, 1),
                                     (0, 1, 1), (1, 1, 2)])
        code, out, _ = run_cli(
            [command, "--input", path, "--json", *flags], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "not_simplicial",
            "message": "cone has 4 extreme rays but rank 3"}

    @pytest.mark.parametrize("command", ["decompose", "props"])
    def test_char_is_usage_error_without_regularity(self, command, tmp_path,
                                                    capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, err = run_cli(
            [command, "--input", path, "--char", "4", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("command", ["props", "reg", "eg"])
    def test_verbose_is_usage_error_without_decomposition(self, command,
                                                          tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, err = run_cli(
            [command, "--input", path, "--verbose", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_bad_characteristic_is_usage_like(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, err = run_cli(
            ["reg", "--input", path, "--char", "4", "--json"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "invalid_characteristic"

    @pytest.mark.parametrize("command", ["reg", "eg", "analyze"])
    def test_bad_characteristic_precedes_domain_errors(self, command,
                                                       tmp_path, capsys):
        from conftest import NONSIMPLICIAL_GENS

        path = write_gens(tmp_path, NONSIMPLICIAL_GENS)
        code, out, err = run_cli(
            [command, "--input", path, "--char", "4", "--json"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "invalid_characteristic"

    @pytest.mark.parametrize("char", [2**31, 2**61 - 1])
    def test_huge_characteristic_is_rejected(self, char, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, err = run_cli(
            ["reg", "--input", path, "--char", str(char), "--json"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "invalid_characteristic"

    @pytest.mark.parametrize("text", ["[" * 100_000, "[[" + "1" * 5000 + "]]"],
                             ids=["deep_nesting", "long_integer"])
    def test_json_the_decoder_rejects_is_input_error(self, text, tmp_path,
                                                     capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(
            ["analyze", "--input", str(path), "--json"], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "input"
        assert err.startswith("error: invalid JSON")


SEC3_EG_TEXT = "reg 2 <= degree - codim = 4: holds\n"

SWEEP_TEXT = (
    "sweep: 5 analyzed, 0 skipped (seed 1)\n"
    "properties: buchsbaum=5, cohen_macaulay=5, gorenstein=5, normal=0, "
    "seminormal=1\n"
    "regularity: min 2 max 6\n"
    "bound violations: 0\n")


class TestGolden:
    def test_sec3_analyze_text_matches_stored_output(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(
            ["analyze", "--input", path, "--verbose", "--verify", "--tmax",
             "8"], capsys)
        assert code == 0
        golden = pathlib.Path(__file__).parent / "golden" / "sec3_analyze.txt"
        assert out == golden.read_text()

    def test_sec3_eg_text(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        assert run_cli(["eg", "--input", path], capsys) == (
            0, SEC3_EG_TEXT, "")

    def test_sweep_text(self, capsys):
        assert run_cli(["sweep", "--count", "5", "--seed", "1"], capsys) == (
            0, SWEEP_TEXT, "")

    def test_sec3_analyze_matches_stored_output(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        code, out, _ = run_cli(
            ["analyze", "--input", path, "--json", "--verify", "--tmax", "8"],
            capsys)
        assert code == 0
        golden = pathlib.Path(__file__).parent / "golden" / "sec3_analyze.json"
        assert out == golden.read_text()

    def test_box64_analyze_verbose_matches_stored_output(self, tmp_path,
                                                         capsys):
        # group Z/8 x Z/8 with 76 module generators: pins the gamma order,
        # the coset labels and the frame numerators of a larger search
        path = write_gens(tmp_path, BOX64_GENS)
        code, out, _ = run_cli(
            ["analyze", "--input", path, "--json", "--verbose", "--verify",
             "--tmax", "8"], capsys)
        assert code == 0
        golden = (pathlib.Path(__file__).parent / "golden"
                  / "box64_analyze_verbose.json")
        assert out == golden.read_text()

    def test_skew_analyze_verbose_matches_stored_output(self, tmp_path,
                                                        capsys):
        # no generator on an axis, so every extreme-ray test runs the
        # simplex; two summands share one non-unit ideal document
        path = write_gens(tmp_path, SKEW_GENS)
        code, out, _ = run_cli(
            ["analyze", "--input", path, "--json", "--verbose", "--verify",
             "--tmax", "8"], capsys)
        assert code == 0
        golden = (pathlib.Path(__file__).parent / "golden"
                  / "skew_analyze.json")
        assert out == golden.read_text()

    def test_outputs_validate_against_schema(self, tmp_path, capsys):
        import jsonschema

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "schema"
             / "report.json").read_text())
        documents = []
        path = write_gens(tmp_path, SEC3_GENS)
        for args in (["analyze", "--input", path, "--json", "--verbose",
                      "--verify"],
                     ["decompose", "--input", path, "--json"],
                     ["props", "--input", path, "--json"],
                     ["reg", "--input", path, "--json"],
                     ["eg", "--input", path, "--json"],
                     ["sweep", "--count", "5", "--seed", "1", "--json"]):
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            documents.append(json.loads(out))
        bad = write_gens(tmp_path, [(2,), (3,)], "n.txt")
        code, out, _ = run_cli(["reg", "--input", bad, "--json"], capsys)
        assert code == 2
        documents.append(json.loads(out))
        for doc in documents:
            jsonschema.validate(doc, schema)


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path, capsys):
        path = write_gens(tmp_path, SEC3_GENS)
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["analyze", "--input", path, "--json", "--verbose"], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_across_hash_seeds(self, tmp_path):
        path = write_gens(tmp_path, SEC3_GENS)
        blobs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "monoalg", "analyze", "--input", path,
                 "--json"],
                capture_output=True, env=env, check=True)
            blobs.append(proc.stdout)
        assert blobs[0] == blobs[1]


class TestSweepCommand:
    def test_empty_sweep(self, capsys):
        code, out, _ = run_cli(["sweep", "--count", "0", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["analyzed"] == 0
        assert doc["regularity"] == {"min": None, "max": None}

    def test_seeded_repeatable(self, capsys):
        args = ["sweep", "--count", "25", "--seed", "11", "--dim", "3",
                "--gens", "5", "--max-entry", "4", "--json"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second
        doc = json.loads(first)
        assert doc["analyzed"] + doc["skipped"] == 25
        assert doc["eg_violations"] == []

    def test_seeded_sweep_hash(self, capsys):
        # the seeded sweep's output is pinned byte for byte
        code, out, _ = run_cli(
            ["sweep", "--json", "--count", "60", "--seed", "3", "--dim", "3",
             "--gens", "6", "--max-entry", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dd7f3ff01acb0d1dd1a3adbd1f56fe2c597b14922dc83fc975737c489453bd82")

    @pytest.mark.parametrize("args", [
        ["--count", "5", "--dim", "2", "--gens", "3", "--max-entry", "1"],
        ["--count", "0"],
    ], ids=["all_skipped", "zero_count"])
    def test_bad_characteristic_without_instances(self, args, capsys):
        code, out, _ = run_cli(["sweep", "--char", "4", "--json"] + args,
                               capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "invalid_characteristic"

    def test_bad_config_is_usage_error(self, capsys):
        code, _, err = run_cli(["sweep", "--gens", "1", "--dim", "2"], capsys)
        assert code == 1
