"""Tests for repro.formats: one error contract for every input file, and
a library that reads its inputs without its command line."""

import ast
import os
import random
import re

import pytest

from repro.cli import CliError, main
from repro.corpus import CorpusError, discover_jobs
from repro.formats import (
    FormatError,
    load_document,
    load_schema_ex,
    load_transducer_ex,
    read_text,
)
from repro.paper import figure1_tree
from repro.trees.xmlio import tree_to_xml

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src", "repro")
EXAMPLES = os.path.join(HERE, "..", "examples", "files")
LOADERS = {".tdx": load_transducer_ex, ".schema": load_schema_ex, ".xml": load_document}
DEPTH = 5000
DEEP = {
    ".tdx": b"initial q0\nrule q0 a -> " + b"a(" * DEPTH + b"q0" + b")" * DEPTH + b"\n",
    ".schema": b"start r\nr -> " + b"(" * DEPTH + b"a" + b")" * DEPTH + b"\na -> text\n",
    ".xml": b"<r>" + b"<a>" * DEPTH + b"</a>" * DEPTH + b"</r>\n",
}


def load_or_cite(path, data):
    """The loaders' contract: a loaded object, or a FormatError naming
    the file and, when it names a line, one that is in the file.
    Returns whether the input loaded."""
    with open(path, "wb") as handle:
        handle.write(data)
    try:
        LOADERS[os.path.splitext(path)[1]](path)
    except FormatError as error:
        match = re.match(re.escape(path) + r"(?::(\d+))?: \S", str(error))
        assert match, str(error)
        if match.group(1):
            lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
            assert 1 <= int(match.group(1)) <= lines, str(error)
        return False
    return True


def example_inputs(suffix):
    if suffix == ".xml":
        return [tree_to_xml(figure1_tree()).encode("utf-8")]
    found = []
    for root, _dirs, files in os.walk(EXAMPLES):
        for name in sorted(files):
            if name.endswith(suffix):
                with open(os.path.join(root, name), "rb") as handle:
                    found.append(handle.read())
    return found


class TestLoaderFuzz:
    SPLICES = [b"(", b")", b"->", b"#", b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3",
               b"<", b">", b"</", b"/>", b"*", b"|", b".", b"&", b";", b" ", b"text",
               b"rule", b"initial", b"start"]
    MUTANTS = 300

    def mutate(self, rng, data):
        data = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(data))
            kind = rng.randrange(4)
            if kind == 0:
                del data[at:at + rng.randint(1, 8)]
            elif kind == 1:
                data[at:at] = rng.choice(self.SPLICES)
            elif kind == 2:
                data[at:at] = data[at:at + rng.randint(1, 16)]
            elif at < len(data):
                data[at] = rng.randrange(256)
        return bytes(data)

    @pytest.mark.parametrize("suffix", sorted(LOADERS))
    def test_seeded_mutations(self, tmp_path, suffix):
        rng = random.Random(suffix)
        originals = example_inputs(suffix)
        path = str(tmp_path / ("input" + suffix))
        outcomes = {
            load_or_cite(path, self.mutate(rng, rng.choice(originals)))
            for _ in range(self.MUTANTS)
        }
        assert outcomes == {True, False}

    EDITS = {
        "deep": lambda suffix, data: DEEP[suffix],
        "cr-only": lambda suffix, data: data.replace(b"\n", b"\r"),
        "nul": lambda suffix, data: data[:len(data) // 2] + b"\x00" + data[len(data) // 2:],
        "latin-1": lambda suffix, data: data + b"caf\xe9\n",
        "empty": lambda suffix, data: b"",
    }

    @pytest.mark.parametrize("suffix", sorted(LOADERS))
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_special_inputs(self, tmp_path, suffix, edit):
        path = str(tmp_path / ("input" + suffix))
        for data in example_inputs(suffix):
            load_or_cite(path, self.EDITS[edit](suffix, data))


class TestDeepNesting:
    @pytest.mark.parametrize("suffix, line", [(".tdx", ":2"), (".schema", ":2"), (".xml", "")])
    def test_is_a_format_error(self, tmp_path, suffix, line):
        path = tmp_path / ("deep" + suffix)
        path.write_bytes(DEEP[suffix])
        with pytest.raises(FormatError) as excinfo:
            LOADERS[suffix](str(path))
        assert str(excinfo.value) == "%s%s: nested too deeply to parse" % (path, line)

    @pytest.mark.parametrize("suffix", sorted(LOADERS))
    def test_exits_2(self, tmp_path, capsys, suffix):
        deep = tmp_path / ("deep" + suffix)
        deep.write_bytes(DEEP[suffix])
        tdx = os.path.join(EXAMPLES, "select.tdx")
        schema = os.path.join(EXAMPLES, "recipes.schema")
        argv = {
            ".tdx": ["check", str(deep), schema],
            ".schema": ["check", tdx, str(deep)],
            ".xml": ["validate", schema, str(deep)],
        }[suffix]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: %s" % deep)

    def test_a_long_flat_sequence_loads(self, tmp_path, capsys):
        # 350 items in one sequence are one level deep: the schema loads
        # and `check` gives a verdict.
        flat = tmp_path / "flat.schema"
        flat.write_text("start r\nr -> " + " . ".join(["a"] * 350) + "\na -> text\n")
        assert main(["check", os.path.join(EXAMPLES, "select.tdx"), str(flat)]) in (0, 1)
        assert "error" not in capsys.readouterr().err

    def test_batch_reports_one_error_job(self, tmp_path, capsys):
        import json

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("select.tdx", "recipes.schema"):
            with open(os.path.join(EXAMPLES, name), "rb") as handle:
                (corpus / name).write_bytes(handle.read())
        (corpus / "deep.tdx").write_bytes(DEEP[".tdx"])
        assert main(["batch", str(corpus), "--jobs", "1", "--format", "json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        jobs = {job["job_id"]: job for job in map(json.loads, lines[:-1])}
        deep = jobs.pop("deep.tdx x recipes.schema")
        assert deep["verdict"] == "error"
        assert deep["error"] == (
            "FormatError: %s:2: nested too deeply to parse" % (corpus / "deep.tdx")
        )
        assert [job["verdict"] for job in jobs.values()] == ["safe"]


class TestLineCounting:
    def test_cr_only_endings_count_like_the_parser(self, tmp_path):
        path = tmp_path / "bad.tdx"
        path.write_bytes(b"initial q0\rrule q0 a -> a\r# caf\xe9\r")
        with pytest.raises(FormatError) as excinfo:
            load_transducer_ex(str(path))
        assert str(excinfo.value) == "%s:3: not valid UTF-8" % path
        path.write_bytes(b"initial q0\rrule q0 a -> a\rfrobnicate\r")
        with pytest.raises(FormatError) as excinfo:
            load_transducer_ex(str(path))
        assert str(excinfo.value).startswith("%s:3: unknown keyword" % path)

    def test_read_text_translates_universal_newlines(self, tmp_path):
        path = tmp_path / "mixed.schema"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(str(path)) == "a\nb\nc\n"

    def test_latin1_manifest_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.txt").write_bytes(b"a.tdx s.schema\n# caf\xe9\n")
        with pytest.raises(CorpusError) as excinfo:
            discover_jobs(str(corpus))
        assert str(excinfo.value) == "%s:2: not valid UTF-8" % (corpus / "manifest.txt")
        assert main(["batch", str(corpus)]) == 2
        assert "manifest.txt:2: not valid UTF-8" in capsys.readouterr().err


class TestOneErrorClass:
    def test_cli_and_corpus_errors_are_format_errors(self):
        assert CliError is FormatError
        assert issubclass(CorpusError, FormatError)


def imported_modules(path):
    """Every module a source file imports, relative imports resolved."""
    package = os.path.relpath(os.path.dirname(path), os.path.join(SRC, "..")).split(os.sep)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from ("%s.%s" % (module, alias.name) for alias in node.names)


class TestImports:
    def test_only_main_imports_the_cli(self):
        importers = []
        for root, _dirs, files in os.walk(SRC):
            for name in files:
                path = os.path.join(root, name)
                if name.endswith(".py") and path != os.path.join(SRC, "__main__.py"):
                    if "repro.cli" in set(imported_modules(path)):
                        importers.append(os.path.relpath(path, SRC))
        assert importers == []

    def test_the_cache_parses_nothing(self):
        modules = set(imported_modules(os.path.join(SRC, "corpus", "cache.py")))
        banned = ("repro.formats", "repro.core", "repro.schema", "repro.cli")
        assert [m for m in modules if m in banned or m.startswith(tuple(b + "." for b in banned))] == []
