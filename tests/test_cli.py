"""Tests for the command-line interface and its file formats."""

import json

import pytest

from repro.cli import CliError, load_schema, load_transducer, main

RECIPES_SCHEMA = """
# the Example 2.3 DTD, abridged
start recipes
recipes -> recipe*
recipe -> description . comments
description -> text
comments -> comment*
comment -> text
"""

SELECT_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel)
rule qsel description -> description(q)
text q
"""

BUGGY_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel qsel)   # duplicates!
rule qsel description -> description(q)
text q
"""

DOCUMENT = """<?xml version="1.0"?>
<recipes>
  <recipe>
    <description>mousse</description>
    <comments><comment>nice</comment></comments>
  </recipe>
</recipes>
"""


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "recipes.schema"
    schema.write_text(RECIPES_SCHEMA)
    select = tmp_path / "select.tdx"
    select.write_text(SELECT_TDX)
    buggy = tmp_path / "buggy.tdx"
    buggy.write_text(BUGGY_TDX)
    document = tmp_path / "doc.xml"
    document.write_text(DOCUMENT)
    return {
        "schema": str(schema),
        "select": str(select),
        "buggy": str(buggy),
        "document": str(document),
        "dir": tmp_path,
    }


class TestLoaders:
    def test_load_schema(self, files):
        dtd = load_schema(files["schema"])
        assert dtd.start == {"recipes"}
        assert "recipe" in dtd.alphabet

    def test_load_transducer(self, files):
        transducer = load_transducer(files["select"])
        assert transducer.initial == "q0"
        assert transducer.copies_text_in("q")

    @pytest.mark.parametrize(
        "bad",
        [
            "recipes -> recipe*",  # no start
            "start recipes\nrecipes -> recipe*\nrecipes -> recipe*",  # dup
            "start recipes\nbad line here",
        ],
    )
    def test_schema_errors(self, tmp_path, bad):
        path = tmp_path / "bad.schema"
        path.write_text(bad)
        with pytest.raises(CliError):
            load_schema(str(path))

    @pytest.mark.parametrize(
        "bad",
        [
            "rule q0 a -> a",  # no initial
            "initial q0\nfrobnicate q0",
            "initial q0\nrule q0 a -> a\nrule q0 a -> b",  # duplicate rule
            "initial q0\ninitial q1",
            "initial\nrule q0 a -> a",  # bare 'initial' line
            "initial q0\nrule q0 a -> a(q)\ntext",  # 'text' without states
        ],
    )
    def test_transducer_errors(self, tmp_path, bad):
        path = tmp_path / "bad.tdx"
        path.write_text(bad)
        with pytest.raises(CliError):
            load_transducer(str(path))

    def test_bare_initial_points_at_line(self, tmp_path):
        path = tmp_path / "bad.tdx"
        path.write_text("# comment\ninitial\n")
        with pytest.raises(CliError) as excinfo:
            load_transducer(str(path))
        assert "%s:2" % path in str(excinfo.value)
        assert "initial" in str(excinfo.value)

    def test_empty_text_line_points_at_line(self, tmp_path):
        path = tmp_path / "bad.tdx"
        path.write_text("initial q0\nrule q0 a -> a(q)\ntext\n")
        with pytest.raises(CliError) as excinfo:
            load_transducer(str(path))
        assert "%s:3" % path in str(excinfo.value)
        assert "text" in str(excinfo.value)

    def test_non_utf8_schema_points_at_line(self, tmp_path):
        path = tmp_path / "bad.schema"
        path.write_bytes(b"start recipes\nrecipes -> recipe\xff*\n")
        with pytest.raises(CliError) as excinfo:
            load_schema(str(path))
        assert str(excinfo.value) == "%s:2: not valid UTF-8" % path

    def test_non_utf8_transducer_points_at_line(self, tmp_path):
        path = tmp_path / "bad.tdx"
        path.write_bytes(b"initial q0\n# caf\xe9\nrule q0 a -> a\n")
        with pytest.raises(CliError) as excinfo:
            load_transducer(str(path))
        assert str(excinfo.value) == "%s:2: not valid UTF-8" % path

    def test_crlf_lines_count_like_lf(self, tmp_path):
        path = tmp_path / "bad.tdx"
        path.write_bytes(b"initial q0\r\nrule q0 a -> a\r\ntext\r\n")
        with pytest.raises(CliError) as excinfo:
            load_transducer(str(path))
        assert "%s:3" % path in str(excinfo.value)

    @pytest.mark.parametrize(
        "command", ["check", "lint", "subschema", "profile", "explain"]
    )
    def test_non_utf8_transducer_exits_2(self, files, tmp_path, capsys, command):
        path = tmp_path / "bad.tdx"
        path.write_bytes(b"initial q0\nrule q0 recipes -> \xff\n")
        assert main([command, str(path), files["schema"]]) == 2
        assert "%s:2: not valid UTF-8" % path in capsys.readouterr().err

    def test_non_utf8_schema_exits_2(self, files, tmp_path, capsys):
        path = tmp_path / "bad.schema"
        path.write_bytes(b"\xff\xfestart recipes\n")
        assert main(["check", files["select"], str(path)]) == 2
        assert "%s:1: not valid UTF-8" % path in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "transform"])
    def test_non_utf8_document_exits_2(self, files, tmp_path, capsys, command):
        path = tmp_path / "bad.xml"
        path.write_bytes(b"<recipes>\n<recipe>\n<description>\xff")
        first = files["schema"] if command == "validate" else files["select"]
        assert main([command, first, str(path)]) == 2
        assert "%s:3: not valid UTF-8" % path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["check", "lint", "subschema", "profile", "explain"]
    )
    def test_directory_transducer_exits_2(self, files, tmp_path, capsys, command):
        path = tmp_path / "pairs"
        path.mkdir()
        assert main([command, str(path), files["schema"]]) == 2
        err = capsys.readouterr().err
        assert "error: %s: " % path in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "transform"])
    def test_directory_document_exits_2(self, files, tmp_path, capsys, command):
        first = files["schema"] if command == "validate" else files["select"]
        assert main([command, first, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: %s: " % tmp_path in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command", ["check", "lint", "subschema", "profile", "explain"]
    )
    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("bad.tdx", "initial q0\n# c\nrule q0 recipes -> recipes(q0\ntext q0\n", 3),
            ("bad.tdx", "initial q0\nrule q0 recipes -> q0 q0\n", 2),
            ("bad.tdx", "initial q0\ntext q0\nrule q0 recipes -> )\n", 3),
            ("bad.schema", "start recipes\nrecipes -> (a\n", 2),
            ("bad.schema", "start recipes\n\nrecipes -> a .\na -> text\n", 3),
            ("bad.schema", "start recipes\nrecipes -> a\n", 2),
            ("bad.schema", "# s\nstart recipes x\nrecipes -> text\n", 2),
        ],
    )
    def test_build_errors_point_at_line(self, files, tmp_path, capsys, command,
                                        name, text, line):
        # The line of the offending rule or content model (the 'start'
        # line for a start label with no content model).
        path = tmp_path / name
        path.write_text(text)
        if name.endswith(".tdx"):
            argv = [command, str(path), files["schema"]]
        else:
            argv = [command, files["select"], str(path)]
        assert main(argv) == 2
        assert "%s:%d: " % (path, line) in capsys.readouterr().err


class TestCommands:
    def test_validate_ok(self, files, capsys):
        assert main(["validate", files["schema"], files["document"]]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<recipes><comment>x</comment></recipes>")
        assert main(["validate", files["schema"], str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "transform"])
    def test_malformed_document_exits_2(self, files, tmp_path, capsys, command):
        bad = tmp_path / "bad.xml"
        bad.write_text("<recipes>\n  <recipe>\n</recipes>\n")
        first = files["schema"] if command == "validate" else files["select"]
        assert main([command, first, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "%s:3: mismatched closing tag </recipes> for <recipe>" % bad in err

    def test_transform(self, files, capsys):
        assert main(["transform", files["select"], files["document"]]) == 0
        out = capsys.readouterr().out
        assert "<description>mousse</description>" in out
        assert "comment" not in out

    def test_check_safe(self, files, capsys):
        assert main(["check", files["select"], files["schema"]]) == 0
        out = capsys.readouterr().out
        assert "text-preserving:             yes" in out

    def test_check_unsafe_prints_witness(self, files, capsys):
        assert main(["check", files["buggy"], files["schema"]]) == 1
        out = capsys.readouterr().out
        assert "copying over the schema:     YES" in out
        assert "<recipes>" in out  # the counter-example document

    def test_check_unsafe_cites_diagnostic(self, files, capsys):
        assert main(["check", files["buggy"], files["schema"]]) == 1
        out = capsys.readouterr().out
        assert "diagnostics" in out
        assert "TP301" in out
        assert "buggy.tdx" in out  # the file:line citation

    def test_check_with_protection(self, files, capsys):
        code = main(["check", files["select"], files["schema"], "--protect", "comments"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DELETED" in out

    def test_check_json_safe(self, files, capsys):
        assert main(["check", files["select"], files["schema"], "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "safe"
        assert payload["copying"] is False and payload["rearranging"] is False
        # Info notes (e.g. the intentional comments deletion) are fine;
        # nothing at warning level or above on the safe pair.
        assert all(d["severity"] == "info" for d in payload["diagnostics"])

    def test_check_json_unsafe_matches_corpus_job(self, files, capsys):
        from repro.corpus import analyze_pair

        assert main(["check", files["buggy"], files["schema"], "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unsafe" and payload["copying"] is True
        assert any(d["code"] == "TP301" for d in payload["diagnostics"])
        assert payload["counter_example_xml"].startswith("<?xml")
        # One schema serves both paths: identical to the corpus job
        # object up to timing/observations.
        job = analyze_pair(files["buggy"], files["schema"]).to_dict()
        for volatile in ("wall_time_s", "observations"):
            payload.pop(volatile), job.pop(volatile)
        assert payload == job

    def test_check_json_with_protection(self, files, capsys):
        assert main(["check", files["select"], files["schema"],
                     "--protect", "comments", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["protected_deletions"] == ["comments"]

    def test_check_json_malformed_input_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.tdx"
        bad.write_text("nonsense\n")
        assert main(["check", str(bad), files["schema"], "--format", "json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_subschema(self, files, capsys):
        code = main(["subschema", files["buggy"], files["schema"]])
        out = capsys.readouterr().out
        # Safe part: recipes whose descriptions are absent... the buggy
        # transducer duplicates description text, so safe members have
        # no description text. Non-empty either way:
        assert code == 0
        assert "maximal safe sub-schema" in out

    def test_subschema_json_output(self, files, capsys):
        out_path = files["dir"] / "safe.json"
        main(
            [
                "subschema",
                files["buggy"],
                files["schema"],
                "--output",
                str(out_path),
            ]
        )
        from repro.automata.io import nta_from_json

        reloaded = nta_from_json(out_path.read_text())
        from repro.trees import parse_tree

        assert reloaded.accepts(parse_tree("recipes"))

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.schema", "/nonexistent.xml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, files):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "validate", files["schema"], files["document"]],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "valid" in result.stdout
