"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main
from repro.engine import Module
from repro.minicuda import parse
from repro.transforms.base import meta_from_dict, meta_to_dict
from repro.transforms import OptConfig, transform

from .conftest import BFS_LIKE_SRC


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.cu"
    path.write_text(BFS_LIKE_SRC)
    return str(path)


class TestTransformCommand:
    def test_prints_to_stdout(self, source_file, capsys):
        assert main(["transform", source_file, "--threshold", "64"]) == 0
        out = capsys.readouterr().out
        assert "_THRESHOLD" in out
        assert "child_serial" in out

    def test_writes_output_and_meta(self, source_file, tmp_path, capsys):
        out_cu = str(tmp_path / "out.cu")
        out_meta = str(tmp_path / "meta.json")
        code = main(["transform", source_file, "--threshold", "32",
                     "--coarsen", "4", "--aggregate", "multiblock",
                     "-o", out_cu, "--meta", out_meta])
        assert code == 0
        transformed = open(out_cu).read()
        parse(transformed)  # must be valid miniCUDA
        meta = json.load(open(out_meta))
        assert meta["macros"]["_THRESHOLD"] == 32
        assert meta["agg_specs"][0]["granularity"] == "multiblock"

    def test_identity_without_flags(self, source_file, capsys):
        assert main(["transform", source_file]) == 0
        out = capsys.readouterr().out
        assert "child<<<" in out


class TestAnalyzeCommand:
    def test_reports_sites_and_count(self, source_file, capsys):
        assert main(["analyze", source_file]) == 0
        out = capsys.readouterr().out
        assert "parent -> child" in out
        assert "degree" in out
        assert "thresholdable=True" in out


class TestBenchCommand:
    def test_runs_variant(self, capsys):
        code = main(["bench", "BFS", "KRON", "--variant", "CDP+T",
                     "--threshold", "16", "--scale", "0.08"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated cycles" in out
        assert "T=16" in out

    def test_label_without_its_parameter_exits_2(self, capsys):
        code = main(["bench", "BFS", "KRON", "--variant", "CDP+T+C+A",
                     "--threshold", "32", "--scale", "0.08"])
        assert code == 2
        assert "coarsen_factor" in capsys.readouterr().err

    def test_default_variant_is_cdp(self, capsys):
        assert main(["bench", "BFS", "KRON", "--scale", "0.05"]) == 0
        assert capsys.readouterr().out.startswith("CDP on BFS")


class TestTransformOnlyFlags:
    """``--agg-threshold`` and ``--promote`` reach only ``repro transform``;
    ``bench`` and ``sweep`` run ``TuningParams``, which has neither, so
    argparse rejects them there."""

    @pytest.mark.parametrize("flag", [["--agg-threshold", "8"],
                                      ["--promote"]],
                             ids=["agg-threshold", "promote"])
    @pytest.mark.parametrize("command", [
        ["bench", "BFS", "KRON", "--scale", "0.05"],
        ["sweep", "--pairs", "BFS:KRON", "--scale", "0.05", "--no-cache"],
    ], ids=["bench", "sweep"])
    def test_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(command + flag)
        assert exit_.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] \
            in capsys.readouterr().err


class TestFigureCommand:
    def test_table1(self, tmp_path, capsys):
        out = str(tmp_path / "t1.txt")
        assert main(["figure", "table1", "--scale", "0.08",
                     "-o", out]) == 0
        assert "Table I" in open(out).read()

    def test_fig11_panel(self, capsys):
        assert main(["figure", "fig11", "--benchmark", "SP",
                     "--dataset", "RAND-3", "--scale", "0.08"]) == 0
        assert "Figure 11" in capsys.readouterr().out


class TestSweepCommand:
    ARGS = ["sweep", "--pairs", "BFS:KRON", "--variants", "CDP", "CDP+T",
            "--threshold", "16", "--scale", "0.08", "--jobs", "2"]

    def test_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        cold = capsys.readouterr()
        assert "CDP+T" in cold.out
        assert "2 simulated" in cold.err
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        warm = capsys.readouterr()
        assert "2 cached, 0 simulated" in warm.err
        assert warm.out == cold.out

    def test_no_cache_json(self, capsys):
        assert main(self.ARGS + ["--no-cache", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["label"] for row in rows] == ["CDP", "CDP+T"]
        assert all(row["total_time"] > 0 for row in rows)

    def test_bad_pair_spec(self, capsys):
        assert main(["sweep", "--pairs", "BFSKRON", "--no-cache"]) == 2

    def test_unknown_benchmark_dataset_variant(self, capsys):
        assert main(["sweep", "--pairs", "NOPE:KRON", "--no-cache"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
        assert main(["sweep", "--pairs", "BFS:NOPE", "--no-cache"]) == 2
        assert "unknown dataset" in capsys.readouterr().err
        assert main(["sweep", "--pairs", "BFS:KRON", "--variants", "CDPTCA",
                     "--no-cache"]) == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_label_without_its_parameter_exits_2(self, capsys):
        assert main(["sweep", "--pairs", "BFS:KRON", "--variants",
                     "CDP+T+A", "--threshold", "16", "--no-cache"]) == 2
        assert "CDP+T+A uses +A but its params leave granularity unset" \
            in capsys.readouterr().err


class TestSweepJobs:
    ARGS = ["sweep", "--pairs", "BFS:KRON", "--variants", "CDP", "CDP+T",
            "--threshold", "16", "--scale", "0.08", "--no-cache", "--json"]

    @pytest.mark.parametrize("jobs", ("1", "2"))
    def test_summary_reports_jobs(self, jobs, capsys):
        assert main(self.ARGS + ["--jobs", jobs]) == 0
        assert "(jobs=%s, " % jobs in capsys.readouterr().err

    def test_jobs_bit_identical(self, capsys):
        outputs = set()
        for jobs in ("1", "2"):
            assert main(self.ARGS + ["--jobs", jobs]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


class TestCacheCommand:
    def _fill(self, cache):
        return main(["sweep", "--pairs", "BFS:KRON", "--variants", "CDP",
                     "--scale", "0.08", "--cache-dir", cache])

    def test_info_reports_entries(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self._fill(cache) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "result entries :      1" in out
        assert cache in out

    def test_prune_bounds_entries_and_sweeps_tmp(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["sweep", "--pairs", "BFS:KRON", "--variants",
                     "CDP", "CDP+T", "--threshold", "16", "--scale", "0.08",
                     "--cache-dir", str(cache)]) == 0
        (cache / "stranded.tmp").write_text("x")
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-entries", "1", "--tmp-age", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entries" in out
        assert "swept 1 stale .tmp" in out
        assert not (cache / "stranded.tmp").exists()

    def test_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self._fill(cache) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "cleared 1 files" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        assert "result entries :      0" in capsys.readouterr().out

    def test_missing_cache_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["cache", "info", "--cache-dir", missing]) == 0
        assert main(["cache", "clear", "--cache-dir", missing]) == 2


class TestFigureArtifactCLI:
    def test_warm_figure_hits_artifact_cache(self, tmp_path, capsys,
                                             monkeypatch):
        cache = str(tmp_path / "cache")
        args = ["figure", "fig11", "--benchmark", "BFS", "--dataset",
                "KRON", "--scale", "0.08", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr().out
        import repro.harness.figures as figures_mod

        def banned(*a, **k):
            raise AssertionError("simulated on a warm figure run")

        monkeypatch.setattr(figures_mod, "run_variant", banned)
        assert main(args) == 0
        assert capsys.readouterr().out == cold


class TestMetaRoundtrip:
    def test_meta_dict_roundtrip_runs(self):
        """A meta serialized to JSON and back still drives the runtime."""
        import numpy as np
        from repro.runtime import Device, blocks

        result = transform(BFS_LIKE_SRC,
                           OptConfig(threshold=8, aggregate="block"))
        reloaded = meta_from_dict(
            json.loads(json.dumps(meta_to_dict(result.meta))))
        module = Module(result.program, reloaded)
        dev = Device(module)
        n = 60
        rng = np.random.default_rng(0)
        deg = rng.integers(0, 20, n)
        row = np.zeros(n + 1, dtype=np.int64)
        row[1:] = np.cumsum(deg)
        edges = rng.integers(0, n, int(row[-1]))
        d_row = dev.upload(row)
        d_edges = dev.upload(edges)
        dist = dev.alloc("int", n, fill=-1)
        dev.launch("parent", blocks(n, 64), 64, d_row, d_edges, dist, n, 3)
        dev.sync()
        assert dev.finish().total_time > 0


class TestPromoteFlag:
    def test_transform_with_promote(self, tmp_path, capsys):
        source = tmp_path / "rec.cu"
        source.write_text("""
__global__ void rec(int *p, int depth) {
    if (threadIdx.x == 0 && p[0] > 0 && depth < 8) {
        p[0] = p[0] - 1;
        rec<<<1, 32>>>(p, depth + 1);
    }
}
""")
        out_meta = str(tmp_path / "meta.json")
        assert main(["transform", str(source), "--promote",
                     "--meta", out_meta]) == 0
        out = capsys.readouterr().out
        assert "_prom_again" in out
        assert "rec<<<" not in out
        meta = json.load(open(out_meta))
        assert meta["promotion_specs"][0]["kernel"] == "rec"
