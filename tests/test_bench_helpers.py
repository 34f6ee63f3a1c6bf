"""Tests for the benchmark harness helpers."""

from repro.bench.queries import JOIN_QUERIES, NOK_ONLY, QUERIES, QUERY_IDS
from repro.bench.reporting import format_table, print_table
from repro.bench.workloads import (
    livelink_dataset,
    secured_xmark,
    synthetic_vector,
    unix_dataset,
    xmark_document,
)
from repro.nok.decompose import decompose
from repro.nok.pattern import parse_query


class TestQueries:
    def test_all_six_queries_present(self):
        assert QUERY_IDS == ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")

    def test_partition_into_classes(self):
        assert set(NOK_ONLY) | set(JOIN_QUERIES) == set(QUERY_IDS)
        assert not set(NOK_ONLY) & set(JOIN_QUERIES)

    def test_nok_only_queries_have_no_joins(self):
        for qid in NOK_ONLY:
            assert len(decompose(parse_query(QUERIES[qid])).edges) == 0, qid

    def test_join_queries_have_joins(self):
        for qid in JOIN_QUERIES:
            assert len(decompose(parse_query(QUERIES[qid])).edges) >= 1, qid


class TestReporting:
    def test_format_basic(self):
        out = format_table("caption", ["a", "bb"], [(1, 2), (30, 4.5)])
        lines = out.splitlines()
        assert lines[0] == "caption"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "---" in lines[2]
        assert len(lines) == 5

    def test_columns_aligned(self):
        out = format_table("t", ["col"], [(1,), (1000,)])
        lines = out.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_float_formatting(self):
        out = format_table("t", ["x"], [(0.123456789,)])
        assert "0.1235" in out

    def test_print_table(self, capsys):
        print_table("cap", ["x"], [(1,)])
        assert "cap" in capsys.readouterr().out


class TestWorkloads:
    def test_xmark_document_cached(self):
        assert xmark_document(50) is xmark_document(50)

    def test_synthetic_vector_shape(self):
        doc = xmark_document(50)
        vector = synthetic_vector(doc, accessibility_ratio=0.5)
        assert len(vector) == len(doc)

    def test_secured_xmark_bundle(self):
        doc, matrix, dol = secured_xmark(n_items=50)
        assert matrix.n_nodes == len(doc)
        assert dol.to_masks() == matrix.masks()

    def test_surrogate_factories(self):
        livelink = livelink_dataset(n_items=100, n_groups=3, n_users=5)
        assert livelink.n_subjects == 8
        unix = unix_dataset(n_nodes=300, n_users=8, n_groups=3)
        assert unix.n_subjects == 11


class TestStorageBenchmark:
    def test_report_shape_and_gate(self):
        from repro.bench.exec import gate_storage_report, run_storage_benchmark

        report = run_storage_benchmark(
            n_items=12, codec="structure-delta", repeats=1
        )
        assert set(report["variants"]) == {"plain", "compressed"}
        plain = report["variants"]["plain"]
        compressed = report["variants"]["compressed"]
        assert compressed["store_bytes"] < plain["store_bytes"]
        assert compressed["entries_per_page"] > plain["entries_per_page"]
        assert report["bytes_ratio"] == (
            compressed["store_bytes"] / plain["store_bytes"]
        )
        # the acceptance ratios hold even at this tiny size
        assert gate_storage_report(
            report, max_bytes_ratio=0.75, max_latency_ratio=100.0
        ) == []

    def test_gate_flags_violations(self):
        from repro.bench.exec import gate_storage_report

        fat_and_slow = {
            "codec": "zlib", "bytes_ratio": 0.9, "latency_ratio": 2.0,
        }
        violations = gate_storage_report(fat_and_slow)
        assert len(violations) == 2
        assert any("0.90x the plain size" in v for v in violations)
        assert any("latency" in v for v in violations)
