"""Tests for tools/check_docs.py (documentation lint)."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRealRepo:
    def test_repo_docs_pass(self, check_docs, capsys):
        assert check_docs.main([]) == 0
        assert "docs ok" in capsys.readouterr().out

    def test_probe_table_in_sync(self, check_docs):
        assert check_docs.check_probe_table() == []

    def test_every_markdown_file_discovered(self, check_docs):
        names = {path.name for path in check_docs.markdown_files()}
        assert {"README.md", "ARCHITECTURE.md", "PERFORMANCE.md"} <= names


class TestLinkCheck:
    def test_broken_relative_link_reported(self, check_docs, tmp_path,
                                           monkeypatch):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](no/such/file.md) here\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        problems = check_docs.check_links([doc])
        assert len(problems) == 1
        assert "doc.md:1" in problems[0] and "no/such/file.md" in problems[0]

    def test_urls_anchors_and_good_links_pass(self, check_docs, tmp_path,
                                              monkeypatch):
        (tmp_path / "other.md").write_text("x\n")
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[a](https://example.com) [b](#section) "
            "[c](other.md) [d](other.md#part) [e](mailto:x@y.z)\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        assert check_docs.check_links([doc]) == []


class TestCommandExtraction:
    def test_prompt_prefix_and_operators(self, check_docs):
        argv = check_docs.extract_repro_argv(
            "$ repro bench --quick | tee log.txt")
        assert argv == [["bench", "--quick"]]

    def test_python_dash_m_form_with_env_prefix(self, check_docs):
        argv = check_docs.extract_repro_argv(
            "PYTHONPATH=src python -m repro run prog.s --engine fast")
        assert argv == [["run", "prog.s", "--engine", "fast"]]

    def test_plain_words_and_comments_ignored(self, check_docs):
        assert check_docs.extract_repro_argv("# repro is great") == []
        assert check_docs.extract_repro_argv("cat repro.log") == []

    def test_continuation_lines_joined(self, check_docs):
        merged = check_docs.join_continuations(
            ["repro bench \\", "  --quick"])
        assert merged == [(0, "repro bench --quick")]

    def test_only_shell_fences_scanned(self, check_docs):
        text = ("```python\nrepro = 1\n```\n"
                "```bash\nrepro info\n```\n")
        blocks = check_docs.shell_blocks(text)
        assert len(blocks) == 1
        assert blocks[0][1] == ["repro info"]


class TestCliExampleCheck:
    def _run(self, check_docs, tmp_path, monkeypatch, command):
        readme = tmp_path / "README.md"
        readme.write_text(f"```bash\n{command}\n```\n")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        return check_docs.check_cli_examples([readme])

    def test_valid_command_passes(self, check_docs, tmp_path, monkeypatch):
        assert self._run(check_docs, tmp_path, monkeypatch,
                         "repro run prog.s --engine fast") == []

    def test_unknown_flag_reported(self, check_docs, tmp_path, monkeypatch):
        problems = self._run(check_docs, tmp_path, monkeypatch,
                             "repro run prog.s --no-such-flag")
        assert len(problems) == 1
        assert "--no-such-flag" in problems[0]

    def test_unknown_subcommand_reported(self, check_docs, tmp_path,
                                         monkeypatch):
        problems = self._run(check_docs, tmp_path, monkeypatch,
                             "repro frobnicate")
        assert len(problems) == 1


class TestProbeTableCheck:
    def test_stale_table_reported(self, check_docs, tmp_path, monkeypatch):
        stale = tmp_path / "ARCHITECTURE.md"
        stale.write_text(
            "### Probe event vocabulary\n\n"
            "| event | emitted by | payload |\n"
            "| --- | --- | --- |\n"
            "| `cpu.run` | `cpu/functional.py` | stats |\n"
            "| `ghost.event` | nowhere | - |\n")
        monkeypatch.setattr(check_docs, "ARCHITECTURE", stale)
        problems = check_docs.check_probe_table()
        assert any("ghost.event" in p and "no longer emitted" in p
                   for p in problems)
        assert any("missing from" in p for p in problems)  # bnn.batch etc.

    def test_missing_table_reported(self, check_docs, tmp_path, monkeypatch):
        empty = tmp_path / "ARCHITECTURE.md"
        empty.write_text("no table here\n")
        monkeypatch.setattr(check_docs, "ARCHITECTURE", empty)
        problems = check_docs.check_probe_table()
        assert problems and "table not found" in problems[0]

    def test_emitted_names_include_known_events(self, check_docs):
        emitted = check_docs.emitted_probe_names()
        for name in ("cpu.run", "bnn.infer", "bnn.batch", "dma.transfer"):
            assert name in emitted


class TestEngineTableCheck:
    def test_repo_table_in_sync(self, check_docs):
        assert check_docs.check_engine_table() == []

    def test_parser_reads_names_and_flags(self, check_docs):
        rows = check_docs.documented_engine_table(
            "### Engine registry\n\n"
            "| engine | timing_accurate | functional | batched | sharded |\n"
            "|---|---|---|---|---|\n"
            "| `accurate` | yes | yes | no | no |\n"
            "| `fast` | no | yes | yes | no |\n\n"
            "prose after the table | with a stray pipe\n")
        assert set(rows) == {"accurate", "fast"}
        assert rows["accurate"] == {"timing_accurate": True,
                                    "functional": True,
                                    "batched": False,
                                    "sharded": False}
        assert rows["fast"]["batched"] is True

    def test_missing_table_reported(self, check_docs, tmp_path, monkeypatch):
        empty = tmp_path / "ARCHITECTURE.md"
        empty.write_text("no engine table here\n")
        monkeypatch.setattr(check_docs, "ARCHITECTURE", empty)
        problems = check_docs.check_engine_table()
        assert problems and "not found" in problems[0]

    def test_stale_table_reported(self, check_docs, tmp_path, monkeypatch):
        stale = tmp_path / "ARCHITECTURE.md"
        stale.write_text(
            "### Engine registry\n\n"
            "| engine | timing_accurate | functional | batched | sharded |\n"
            "|---|---|---|---|---|\n"
            "| `accurate` | no | yes | no | no |\n"
            "| `warp` | no | yes | yes | yes |\n")
        monkeypatch.setattr(check_docs, "ARCHITECTURE", stale)
        problems = check_docs.check_engine_table()
        # fast + parallel registered but undocumented
        assert any("`fast`" in p and "missing from" in p for p in problems)
        assert any("`parallel`" in p and "missing from" in p
                   for p in problems)
        # warp documented but not registered
        assert any("`warp`" in p and "not registered" in p for p in problems)
        # accurate documented with a wrong flag
        assert any("`accurate`" in p and "timing_accurate" in p
                   for p in problems)


class TestScenarioTableCheck:
    def test_repo_tables_in_sync(self, check_docs):
        assert check_docs.check_scenario_tables() == []

    def test_missing_document_reported(self, check_docs, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(check_docs, "SCENARIOS_MD",
                            tmp_path / "SCENARIOS.md")
        problems = check_docs.check_scenario_tables()
        assert problems and "missing" in problems[0]

    def test_missing_table_reported(self, check_docs, tmp_path,
                                    monkeypatch):
        sparse = tmp_path / "SCENARIOS.md"
        sparse.write_text("prose without any field tables\n")
        monkeypatch.setattr(check_docs, "SCENARIOS_MD", sparse)
        problems = check_docs.check_scenario_tables()
        assert len(problems) == len(check_docs.SCENARIO_TABLES)
        assert all("not found" in p for p in problems)

    def test_stale_table_reported(self, check_docs, tmp_path, monkeypatch):
        real = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text()
        # drop a real field and add a phantom one in the workload table
        stale = real.replace("| `iterations` |",
                             "| `warp_factor` |", 1)
        target = tmp_path / "SCENARIOS.md"
        target.write_text(stale)
        monkeypatch.setattr(check_docs, "SCENARIOS_MD", target)
        problems = check_docs.check_scenario_tables()
        assert any("WorkloadSpec.iterations" in p and "missing" in p
                   for p in problems)
        assert any("warp_factor" in p and "no such field" in p
                   for p in problems)

    def test_parser_stops_at_table_end(self, check_docs):
        fields = check_docs.documented_scenario_fields(
            "### Top-level `Scenario` fields\n\n"
            "| field | type |\n|---|---|\n"
            "| `name` | string |\n| `seed` | int |\n\n"
            "prose | with a stray pipe and `fake` backticks\n"
            "| `not_in_table` | nope |\n",
            "### Top-level `Scenario` fields")
        assert fields == {"name", "seed"}


class TestPhaseTableCheck:
    def test_repo_table_in_sync(self, check_docs):
        assert check_docs.check_phase_table() == []

    def test_missing_document_reported(self, check_docs, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(check_docs, "OBSERVABILITY_MD",
                            tmp_path / "OBSERVABILITY.md")
        problems = check_docs.check_phase_table()
        assert problems and "missing" in problems[0]

    def test_missing_table_reported(self, check_docs, tmp_path,
                                    monkeypatch):
        sparse = tmp_path / "OBSERVABILITY.md"
        sparse.write_text("prose without the phase table\n")
        monkeypatch.setattr(check_docs, "OBSERVABILITY_MD", sparse)
        problems = check_docs.check_phase_table()
        assert problems and "not found" in problems[0]

    def test_stale_table_reported(self, check_docs, tmp_path, monkeypatch):
        real = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        stale = real.replace("| `memory_io` |", "| `warp_io` |", 1)
        target = tmp_path / "OBSERVABILITY.md"
        target.write_text(stale)
        monkeypatch.setattr(check_docs, "OBSERVABILITY_MD", target)
        problems = check_docs.check_phase_table()
        assert any("`memory_io`" in p and "missing" in p for p in problems)
        assert any("`warp_io`" in p and "no such phase" in p
                   for p in problems)

    def test_reordered_table_reported(self, check_docs, tmp_path,
                                      monkeypatch):
        from repro.obs import PHASES

        rows = "".join(f"| `{phase}` | x |\n" for phase in reversed(PHASES))
        shuffled = tmp_path / "OBSERVABILITY.md"
        shuffled.write_text("### Phase vocabulary\n\n"
                            "| phase | meaning |\n|---|---|\n" + rows)
        monkeypatch.setattr(check_docs, "OBSERVABILITY_MD", shuffled)
        problems = check_docs.check_phase_table()
        assert problems and "order differs" in problems[0]

    def test_parser_preserves_order(self, check_docs):
        names = check_docs.documented_phases(
            "### Phase vocabulary\n\n"
            "| phase | meaning |\n|---|---|\n"
            "| `init` | a |\n| `inference` | b |\n\n"
            "prose | with a stray pipe\n| `not_in_table` | nope |\n")
        assert names == ["init", "inference"]

class TestKernelHandbookCheck:
    def test_repo_handbook_in_sync(self, check_docs):
        assert check_docs.check_kernel_handbook() == []

    def test_missing_document_reported(self, check_docs, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(check_docs, "KERNELS_MD",
                            tmp_path / "KERNELS.md")
        problems = check_docs.check_kernel_handbook()
        assert problems and "missing" in problems[0]

    def test_missing_tables_reported(self, check_docs, tmp_path,
                                     monkeypatch):
        sparse = tmp_path / "KERNELS.md"
        sparse.write_text("prose without either table\n")
        monkeypatch.setattr(check_docs, "KERNELS_MD", sparse)
        problems = check_docs.check_kernel_handbook()
        assert any("constants table" in p and "not found" in p
                   for p in problems)
        assert any("decision table" in p and "not found" in p
                   for p in problems)

    def test_drifted_constant_reported(self, check_docs, tmp_path,
                                       monkeypatch):
        real = (REPO_ROOT / "docs" / "KERNELS.md").read_text()
        stale = real.replace(
            "| `repro.bnn.batched.WORD_BITS` | 64 |",
            "| `repro.bnn.batched.WORD_BITS` | 32 |", 1)
        target = tmp_path / "KERNELS.md"
        target.write_text(stale)
        monkeypatch.setattr(check_docs, "KERNELS_MD", target)
        problems = check_docs.check_kernel_handbook()
        assert any("WORD_BITS" in p and "says 32" in p and "source says 64"
                   in p for p in problems)

    def test_unknown_constant_reported(self, check_docs, tmp_path,
                                       monkeypatch):
        real = (REPO_ROOT / "docs" / "KERNELS.md").read_text()
        stale = real.replace(
            "`repro.bnn.batched.WORD_BITS`",
            "`repro.bnn.batched.WARP_BITS`", 1)
        target = tmp_path / "KERNELS.md"
        target.write_text(stale)
        monkeypatch.setattr(check_docs, "KERNELS_MD", target)
        problems = check_docs.check_kernel_handbook()
        assert any("WARP_BITS" in p and "no such constant" in p
                   for p in problems)

    def test_stale_decision_table_reported(self, check_docs, tmp_path,
                                           monkeypatch):
        real = (REPO_ROOT / "docs" / "KERNELS.md").read_text()
        stale = real.replace("| `fast` |", "| `cuda` |", 1)
        target = tmp_path / "KERNELS.md"
        target.write_text(stale)
        monkeypatch.setattr(check_docs, "KERNELS_MD", target)
        problems = check_docs.check_kernel_handbook()
        assert any("`fast`" in p and "missing from" in p for p in problems)
        assert any("`cuda`" in p and "not registered" in p for p in problems)

    def test_constant_row_parser(self, check_docs):
        rows = check_docs.documented_kernel_constants(
            "## Kernel layout constants\n\n"
            "| constant | value | meaning |\n|---|---|---|\n"
            "| `repro.bnn.batched.WORD_BITS` | 64 | bits |\n"
            "| `repro.cpu.fastpath.MAX_SUPERBLOCK_BODY` | 4096 | cap |\n\n"
            "prose | stray pipe\n"
            "| `repro.fake.NOT_IN_TABLE` | 1 | nope |\n")
        assert rows == [
            ("repro.bnn.batched", "WORD_BITS", 64),
            ("repro.cpu.fastpath", "MAX_SUPERBLOCK_BODY", 4096)]
