"""Tests for the repro-dol command-line interface."""

import json

import pytest

from repro.cli import main
from repro.xmark.generator import XMarkConfig, generate
from repro.xmltree.serializer import serialize


@pytest.fixture
def xmark_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(serialize(generate(XMarkConfig(n_items=20, seed=1))))
    return str(path)


class TestXmark:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "out.xml"
        assert main(["xmark", "--items", "5", "-o", str(out)]) == 0
        assert out.read_text().startswith("<site>")

    def test_stdout(self, capsys):
        assert main(["xmark", "--items", "3"]) == 0
        assert "<site>" in capsys.readouterr().out

    def test_pretty(self, tmp_path):
        out = tmp_path / "pretty.xml"
        main(["xmark", "--items", "3", "--pretty", "-o", str(out)])
        assert "\n" in out.read_text()


class TestInspect:
    def test_prints_statistics(self, xmark_file, capsys):
        assert main(["inspect", xmark_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "item" in out


class TestLabel:
    def test_prints_dol_and_cam_sizes(self, xmark_file, capsys):
        assert main(["label", xmark_file, "--subjects", "2"]) == 0
        out = capsys.readouterr().out
        assert "DOL transition nodes" in out
        assert "CAM labels" in out

    def test_prints_all_backends_side_by_side(self, xmark_file, capsys):
        assert main(["label", xmark_file, "--subjects", "3"]) == 0
        out = capsys.readouterr().out
        assert "DOL total bytes" in out
        assert "CAM total bytes" in out
        assert "naive labels (one per node)" in out
        assert "naive total bytes" in out

    def test_classes_report(self, xmark_file, capsys):
        assert main(["label", xmark_file, "--subjects", "3", "--classes"]) == 0
        out = capsys.readouterr().out
        assert "single-subject classes" in out
        assert "subject-pair classes" in out


class TestBuild:
    def test_builds_and_saves_store(self, xmark_file, tmp_path, capsys):
        import os

        store = str(tmp_path / "dol.db")
        assert main(["build", xmark_file, store]) == 0
        assert "built store" in capsys.readouterr().out
        assert os.path.exists(store)
        with open(store + ".catalog.json", "r", encoding="utf-8") as handle:
            assert json.load(handle)["labeling"] == "dol"

    def test_built_store_passes_fsck(self, xmark_file, tmp_path, capsys):
        store = str(tmp_path / "store.db")
        assert main(["build", xmark_file, store]) == 0
        assert main(["verify-store", store]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("codec", ("zlib", "structure-delta"))
    def test_codec_build_and_fsck_container_bytes(
        self, xmark_file, tmp_path, capsys, codec
    ):
        import os

        store = str(tmp_path / "codec.db")
        plain = str(tmp_path / "plain.db")
        assert main(
            ["build", xmark_file, store, "--page-size", "1024",
             "--codec", codec]
        ) == 0
        assert main(["build", xmark_file, plain, "--page-size", "1024"]) == 0
        out = capsys.readouterr().out
        assert f"codec {codec}" in out
        assert os.path.getsize(store) < os.path.getsize(plain)

        assert main(["verify-store", store]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "physical" in out and "logical" in out
        structure = "zlib" if codec == "zlib" else "structure-delta"
        assert f"structure={structure} codes=zlib" in out

        assert main(["verify-store", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        containers = report["containers"]
        assert containers["structure"]["physical_bytes"] < (
            containers["structure"]["logical_bytes"]
        )
        assert report["codec"]["structure"] == structure

    def test_plain_fsck_reports_equal_bytes(self, xmark_file, tmp_path, capsys):
        store = str(tmp_path / "plain.db")
        assert main(["build", xmark_file, store]) == 0
        capsys.readouterr()
        assert main(["verify-store", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["codec"] is None
        for totals in report["containers"].values():
            assert totals["physical_bytes"] == totals["logical_bytes"]


class TestExplain:
    def test_plan_printed(self, xmark_file, capsys):
        assert main(["explain", xmark_file, "//listitem//keyword"]) == 0
        out = capsys.readouterr().out
        assert "NoK subtrees: 2" in out
        assert "join order" in out
        assert "physical plan:" in out
        assert "STDJoin" in out

    def test_analyze_adds_counters(self, xmark_file, capsys):
        assert main(["explain", xmark_file, "//item", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "physical plan (analyzed):" in out
        assert "rows=" in out
        assert "answers:" in out


class TestDisseminate:
    def test_filtered_output(self, xmark_file, capsys):
        assert main(["disseminate", xmark_file, "--accessibility", "0.5"]) == 0
        out = capsys.readouterr().out
        assert len(out) > 0

    def test_writes_file(self, xmark_file, tmp_path, capsys):
        out_path = tmp_path / "filtered.xml"
        assert main(
            ["disseminate", xmark_file, "-o", str(out_path), "--policy", "hoist"]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert out_path.exists()


class TestQuery:
    def test_non_secure(self, xmark_file, capsys):
        assert main(["query", xmark_file, "//item"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("answers: 20")

    def test_secure(self, xmark_file, capsys):
        assert main(["query", xmark_file, "//item", "--subject", "0"]) == 0
        out = capsys.readouterr().out
        assert "answers:" in out

    def test_limit(self, xmark_file, capsys):
        main(["query", xmark_file, "//item", "--limit", "2"])
        out = capsys.readouterr().out
        assert "... and 18 more" in out

    def test_explain_prints_plan_without_executing(self, xmark_file, capsys):
        assert main(["query", xmark_file, "//item", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "physical plan:" in out
        assert "TagIndexScan" in out
        assert "answers:" not in out
        assert "rows=" not in out

    def test_explain_secure_shows_rewrites(self, xmark_file, capsys):
        assert main(
            ["query", xmark_file, "//item", "--subject", "0", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "AccessFilter" in out

    def test_explain_analyze_executes_and_annotates(self, xmark_file, capsys):
        assert main(["query", xmark_file, "//item", "--explain-analyze"]) == 0
        out = capsys.readouterr().out
        assert "physical plan (analyzed):" in out
        assert "rows=" in out
        assert "answers: 20" in out
        assert "wall time:" in out

    def test_malformed_query_exits_2_without_traceback(self, xmark_file, capsys):
        assert main(["query", xmark_file, "//item["]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestVerifyStore:
    @pytest.fixture
    def saved_store(self, tmp_path):
        from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
        from repro.dol.labeling import DOL
        from repro.storage.nokstore import NoKStore
        from repro.storage.persist import save_store
        from repro.xmark.generator import generate_document

        doc = generate_document(XMarkConfig(n_items=15, seed=4))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=1), n_subjects=2
        )
        path = str(tmp_path / "store.db")
        store = NoKStore(doc, DOL.from_matrix(matrix), path=path, page_size=512)
        save_store(store)
        store.close()
        return path

    def test_clean_store_passes(self, saved_store, capsys):
        assert main(["verify-store", saved_store]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bit_flip_fails_nonzero(self, saved_store, capsys):
        with open(saved_store, "r+b") as handle:
            handle.seek(512 + 25)
            byte = handle.read(1)
            handle.seek(512 + 25)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["verify-store", saved_store]) == 1
        out = capsys.readouterr().out
        assert "page 1" in out
        assert "problem(s) found" in out

    def test_missing_catalog_fails(self, saved_store, capsys):
        import os

        os.remove(saved_store + ".catalog.json")
        assert main(["verify-store", saved_store]) == 1

    def test_json_report_clean(self, saved_store, capsys):
        assert main(["verify-store", saved_store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["corrupt_pages"] == []
        assert report["checked_pages"] > 0
        assert report["store"] == saved_store

    def test_json_report_names_corrupt_pages(self, saved_store, capsys):
        with open(saved_store, "r+b") as handle:
            handle.seek(512 + 25)
            byte = handle.read(1)
            handle.seek(512 + 25)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert main(["verify-store", saved_store, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert 1 in report["corrupt_pages"]
        kinds = {finding["kind"] for finding in report["findings"]}
        assert "checksum" in kinds
        assert all(
            {"kind", "page", "message"} <= set(f) for f in report["findings"]
        )


class TestHealthCommand:
    def test_probes_running_server(self, xmark_file, capsys):
        from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
        from repro.cli import _load_document
        from repro.nok.engine import QueryEngine
        from repro.server.netserver import serve
        from repro.server.service import QueryService

        doc = _load_document(xmark_file)
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(seed=1), n_subjects=2
        )
        engine = QueryEngine.build(doc, matrix, use_store=True)
        service = QueryService(engine)
        server = serve(service, host="127.0.0.1", port=0, background=True)
        host, port = server.address
        try:
            code = main(
                ["health", "--host", host, "--port", str(port), "--json"]
            )
            report = json.loads(capsys.readouterr().out)
            assert code == 0
            assert report["state"] == "healthy"
            assert report["breaker"]["state"] == "closed"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            engine.store.close()

    def test_unreachable_exits_2(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        code = main(
            ["health", "--host", host, "--port", str(port), "--timeout", "0.5"]
        )
        assert code == 2
        assert "unreachable" in capsys.readouterr().out
