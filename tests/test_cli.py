"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "nope"])

    @pytest.mark.parametrize("command", ["stats", "top"])
    def test_replicas_need_the_process_backend(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--replicas"])
        assert exc.value.code == 2
        assert "--backend process" in capsys.readouterr().err


class TestInfo:
    def test_lists_variants_and_systems(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ALEX-GA-ARMI" in out
        assert "BPlusTree" in out
        assert "ycsb" in out

    @pytest.mark.parametrize("name", ["bogus", "numba", "auto"])
    def test_invalid_env_backend_fails(self, name, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        assert main(["info"]) != 0
        err = capsys.readouterr().err
        assert repr(name) in err
        assert "('numpy', 'cffi')" in err


class TestDatasets:
    def test_prints_table1(self, capsys):
        assert main(["datasets", "--size", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        for name in ("longitudes", "longlat", "lognormal", "ycsb"):
            assert name in out


class TestCompare:
    def test_default_comparison_runs(self, capsys):
        code = main(["compare", "--dataset", "lognormal",
                     "--workload", "read-heavy",
                     "--init", "2000", "--ops", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ALEX-GA-ARMI" in out
        assert "BPlusTree" in out

    def test_explicit_system_list(self, capsys):
        code = main(["compare", "--dataset", "ycsb",
                     "--workload", "read-only",
                     "--init", "1500", "--ops", "300",
                     "--systems", "ALEX-GA-SRMI", "LearnedIndex"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LearnedIndex" in out
        assert "BPlusTree" not in out

    def test_unknown_system_fails_cleanly(self, capsys):
        code = main(["compare", "--init", "1000", "--ops", "100",
                     "--systems", "NotAnIndex"])
        assert code == 2
        assert "unknown system" in capsys.readouterr().err


class TestAdapt:
    def test_compares_policies_and_logs_decisions(self, capsys):
        code = main(["adapt", "--scenario", "grow-shrink",
                     "--keys", "2000", "--ops", "2000", "--decisions", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "heuristic" in out
        assert "cost-model" in out
        assert "merge" in out
        assert "decisions:" in out

    def test_unknown_policy_rejected(self, capsys):
        code = main(["adapt", "--policies", "nope",
                     "--keys", "2000", "--ops", "2000"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt", "--scenario", "nope"])


class TestErrors:
    def test_prints_error_summary(self, capsys):
        assert main(["errors", "--dataset", "longitudes",
                     "--size", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "LearnedIndex" in out


class TestTheorems:
    def test_prints_bounds(self, capsys):
        assert main(["theorems", "--dataset", "lognormal",
                     "--size", "1000", "--c", "1.0", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "Section 4" in out
        assert "yes" in out


class TestRecover:
    def test_durable_shards_then_recover(self, tmp_path, capsys):
        durable = str(tmp_path / "dur")
        assert main(["shards", "--init", "2000", "--ops", "500",
                     "--shards", "2", "--durable", durable,
                     "--fsync", "off"]) == 0
        out = capsys.readouterr().out
        assert "durable" in out
        assert main(["recover", "--dir", f"{durable}/shards-2",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered 2-shard service" in out
        assert "validated" in out

    def test_recover_on_the_process_backend(self, tmp_path, capsys):
        durable = str(tmp_path / "dur")
        assert main(["shards", "--init", "2000", "--ops", "500",
                     "--shards", "2", "--durable", durable,
                     "--fsync", "off"]) == 0
        capsys.readouterr()
        assert main(["recover", "--dir", f"{durable}/shards-2",
                     "--backend", "process", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered 2-shard service" in out
        assert "[process backend] (validated)" in out
        rows = [line.split() for line in out.splitlines()
                if line.split()[:1] in (["0"], ["1"])]
        assert sum(int(row[1].replace(",", "")) for row in rows) >= 2000

    def test_recover_single_node_directory(self, tmp_path, capsys):
        import numpy as np
        from repro.serve import ShardedAlexIndex
        index = ShardedAlexIndex.bulk_load(
            np.arange(0.0, 500.0), num_shards=1,
            durability_dir=str(tmp_path / "single"), fsync="off")
        index.insert(1e6, "x")
        index.close()
        # A shard's own directory is a single-index durability root.
        root = index.durability.shard_dir(0)
        assert main(["recover", "--dir", root, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "recovered single-node index" in out

    def test_recover_rejects_non_durability_dir(self, tmp_path, capsys):
        assert main(["recover", "--dir", str(tmp_path)]) == 2
        assert "no durability manifest" in capsys.readouterr().err
