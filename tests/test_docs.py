"""Documentation integrity: referenced paths exist, commands are real."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "PAPER_MAP.md",
    ROOT / "docs" / "PERFORMANCE.md",
    ROOT / "docs" / "SERVING.md",
    ROOT / "docs" / "SESSIONS.md",
    ROOT / "docs" / "FLEET.md",
    ROOT / "docs" / "OBSERVABILITY.md",
    ROOT / "docs" / "ROBUSTNESS.md",
]


class TestDocsExist:
    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_present_and_nonempty(self, doc):
        assert doc.exists(), f"{doc} missing"
        assert len(doc.read_text()) > 500

    def test_design_confirms_paper_match(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "matches the target paper" in text
        assert "10.1109/ICDCS.2011.61" in text


class TestReferencedPathsExist:
    PATH_PATTERN = re.compile(
        r"`((?:src/|tests/|benchmarks/|examples/|docs/)[\w./-]+\.(?:py|md))`"
    )
    BARE_PATTERN = re.compile(
        r"\b((?:benchmarks|examples|tests)/[\w/-]+\.py)\b"
    )

    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_backticked_paths(self, doc):
        text = doc.read_text()
        for match in self.PATH_PATTERN.finditer(text):
            path = ROOT / match.group(1)
            assert path.exists(), f"{doc.name} references missing {match.group(1)}"

    @pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
    def test_bare_paths(self, doc):
        text = doc.read_text()
        for match in self.BARE_PATTERN.finditer(text):
            path = ROOT / match.group(1)
            assert path.exists(), f"{doc.name} references missing {match.group(1)}"

    def test_module_references_in_design(self):
        """Every `x/y.py` mentioned in DESIGN.md's inventory exists under
        src/repro (or the repo root for cli/experiments)."""
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"`((?:\w+/)?\w+\.py)`", text):
            rel = match.group(1)
            candidates = [
                ROOT / "src" / "repro" / rel,
                ROOT / "src" / rel,
                ROOT / rel,
                ROOT / "benchmarks" / rel,
            ]
            assert any(c.exists() for c in candidates), (
                f"DESIGN.md references missing module {rel}"
            )


class TestReadmeCommands:
    def test_example_commands_point_to_files(self):
        text = (ROOT / "README.md").read_text()
        for match in re.finditer(r"python (examples/\w+\.py)", text):
            assert (ROOT / match.group(1)).exists()

    def test_cli_subcommands_are_real(self):
        from repro.cli import build_parser

        text = (ROOT / "README.md").read_text()
        parser = build_parser()
        subcommands = set()
        for match in re.finditer(r"python -m repro\.cli (\w+)", text):
            subcommands.add(match.group(1))
        assert subcommands  # README documents the CLI
        # Every documented subcommand parses.
        for sub in subcommands:
            if sub == "figure":
                parser.parse_args([sub, "headline"])
            elif sub == "cache":
                parser.parse_args([sub, "stats"])
            elif sub == "session":
                parser.parse_args([sub, "replay", "--log", "x.jsonl"])
            else:
                parser.parse_args([sub])

    def test_paper_map_tests_exist(self):
        """docs/PAPER_MAP.md's test-file references all resolve."""
        text = (ROOT / "docs" / "PAPER_MAP.md").read_text()
        for match in re.finditer(r"\b(tests/[\w/]+\.py)\b", text):
            assert (ROOT / match.group(1)).exists(), match.group(1)
