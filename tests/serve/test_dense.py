"""Dense candidate path in the serving layer: DenseCandidateIndex catalog
semantics, MatchServer mode routing and hot-add consistency, and the
/admin/candidates HTTP route."""

import json
import urllib.request

import numpy as np
import pytest

from repro.ann import RecordEncoder
from repro.data.io import _record_to_dict
from repro.data.records import EntityRecord
from repro.serve import (
    DenseCandidateIndex, MatchHTTPServer, MatchServer, ServerConfig,
    ServingIndex,
)
from repro.serve.shard import ShardedIndex


def rec(rid, text):
    return EntityRecord.text_record(rid, text)


@pytest.fixture(scope="module")
def encoder(backbone):
    lm, tok = backbone
    return RecordEncoder(lm=lm, tokenizer=tok, max_len=32)


@pytest.fixture()
def dense_index(encoder):
    index = DenseCandidateIndex(encoder, kind="ivf", nlist=2, nprobe=2,
                                default_k=3)
    index.add_many([
        rec("bike", "red mountain bicycle"),
        rec("coffee", "espresso coffee machine"),
        rec("phones", "wireless headphones"),
        rec("laptop", "gaming laptop computer"),
    ])
    return index.train()


class TestDenseCandidateIndex:
    def test_catalog_protocol(self, dense_index):
        assert len(dense_index) == 4
        assert "bike" in dense_index and "ghost" not in dense_index
        assert dense_index.get("bike").record_id == "bike"
        assert dense_index.remove("bike") and not dense_index.remove("bike")
        assert len(dense_index) == 3

    def test_candidates_scored_and_ordered(self, dense_index):
        hits = dense_index.candidates(rec("q", "red mountain bike"), 3)
        assert hits and all(isinstance(s, float) for _, s in hits)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)
        assert hits == dense_index.candidates(rec("q", "red mountain bike"),
                                              3)

    def test_replace_on_readd(self, dense_index):
        assert dense_index.add(rec("bike", "fresh espresso beans")) is False
        assert len(dense_index) == 4
        # the replaced record object is served, not the stale one
        assert dense_index.get("bike").values["text"] == \
            "fresh espresso beans"

    def test_add_many_counts_new(self, dense_index):
        assert dense_index.add_many(
            [rec("bike", "again"), rec("new1", "brand new record")]) == 1

    def test_invalid_k(self, dense_index):
        with pytest.raises(ValueError):
            dense_index.candidates(rec("q", "query"), 0)
        with pytest.raises(ValueError):
            DenseCandidateIndex(dense_index.encoder, default_k=0)

    def test_min_score_floor(self, encoder):
        strict = DenseCandidateIndex(encoder, kind="ivf", nlist=2,
                                     nprobe=2, min_score=1.1)
        strict.add(rec("a", "some catalog record"))
        assert strict.candidates(rec("q", "some catalog record"), 3) == []

    def test_stats_shape(self, dense_index):
        stats = dense_index.stats()
        assert stats["records"] == len(dense_index)
        assert stats["ann"]["kind"] == "ivf"


class TestServerModeRouting:
    def _server(self, bundle, encoder, mode="sparse"):
        catalog = [rec("bike", "red mountain bicycle"),
                   rec("coffee", "espresso coffee machine"),
                   rec("phones", "wireless headphones")]
        sparse = ServingIndex(default_k=3)
        dense = DenseCandidateIndex(encoder, kind="ivf", nlist=2, nprobe=2,
                                    default_k=3)
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4),
                             index=sparse, dense_index=dense,
                             candidate_mode=mode)
        server.catalog_add(catalog)
        return server

    def test_mode_validation(self, bundle, encoder):
        server = self._server(bundle, encoder)
        with pytest.raises(ValueError):
            server.set_candidate_mode("hybrid")
        no_dense = MatchServer(bundle)
        with pytest.raises(ValueError):
            no_dense.set_candidate_mode("dense")
        with pytest.raises(ValueError):
            MatchServer(bundle, candidate_mode="dense")

    def test_catalog_add_keeps_indexes_consistent(self, bundle, encoder):
        server = self._server(bundle, encoder)
        assert len(server.index) == len(server.dense_index) == 3
        server.catalog_add([rec("new", "brand new product")])
        assert "new" in server.index and "new" in server.dense_index
        assert server.catalog_remove(["new", "ghost"]) == 1
        assert "new" not in server.index
        assert "new" not in server.dense_index

    def test_match_routes_by_mode(self, bundle, encoder):
        server = self._server(bundle, encoder)
        query = rec("q", "red mountain bike")
        sparse_hits = server.match(query, k=3)
        assert server.stats()["candidate_mode"] == "sparse"
        # sparse retrieval keys on token overlap: only "bike" shares any
        assert [c.record.record_id for c in sparse_hits.candidates] == \
            ["bike"]
        server.set_candidate_mode("dense")
        dense_hits = server.match(query, k=3)
        assert server.stats()["candidate_mode"] == "dense"
        # dense retrieval returns top-k by cosine: all 3 catalog records
        assert len(dense_hits.candidates) == 3
        assert {c.record.record_id for c in dense_hits.candidates} == \
            {"bike", "coffee", "phones"}
        # block_score carries the cosine in dense mode
        assert all(np.isfinite(c.block_score)
                   for c in dense_hits.candidates)

    def test_dense_mode_hot_add_visible(self, bundle, encoder):
        server = self._server(bundle, encoder, mode="dense")
        server.catalog_add([rec("fresh", "red mountain bike replica")])
        hits = server.match(rec("q", "red mountain bike replica"), k=4)
        assert "fresh" in {c.record.record_id for c in hits.candidates}

    def test_health_names_sharded_dense_index(self, bundle, encoder):
        """/healthz reads the index's own kind, so a sharded dense index
        reports like an unsharded one instead of raising."""
        sharded = ShardedIndex(lambda: DenseCandidateIndex(
            encoder, kind="ivf", nlist=2, nprobe=2), 2)
        server = MatchServer(bundle, dense_index=sharded,
                             candidate_mode="dense")
        server.catalog_add([rec("bike", "red mountain bicycle")])
        health = server.health()
        assert health["candidate_index"] == "dense:ivf"
        flat = self._server(bundle, encoder, mode="dense")
        assert flat.health()["candidate_index"] == "dense:ivf"


class TestAdminCandidatesRoute:
    def test_flip_mode_over_http(self, bundle, encoder):
        dense = DenseCandidateIndex(encoder, kind="ivf", nlist=2, nprobe=2)
        server = MatchServer(bundle, dense_index=dense)
        with MatchHTTPServer(server, port=0) as http:
            def post(path, payload):
                req = urllib.request.Request(
                    f"{http.address}{path}",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(req) as resp:
                    return json.loads(resp.read())

            added = post("/admin/catalog",
                         {"add": [_record_to_dict(
                             rec("bike", "red mountain bicycle"))]})
            assert added["added"] == 1
            flipped = post("/admin/candidates", {"mode": "dense"})
            assert flipped == {"status": "ok", "candidate_mode": "dense"}
            stats = json.loads(urllib.request.urlopen(
                f"{http.address}/stats").read())
            assert stats["candidate_mode"] == "dense"
            assert stats["dense_index"]["records"] == 1
            match = post("/match", {
                "record": _record_to_dict(rec("q", "red mountain bike")),
                "k": 2})
            assert match["status"] == "ok"
            assert [c["record"]["id"] for c in match["candidates"]] == \
                ["bike"]

    def test_bad_mode_is_400(self, bundle, encoder):
        import urllib.error

        dense = DenseCandidateIndex(encoder, kind="ivf", nlist=2, nprobe=2)
        server = MatchServer(bundle, dense_index=dense)
        with MatchHTTPServer(server, port=0) as http:
            req = urllib.request.Request(
                f"{http.address}/admin/candidates",
                data=json.dumps({"mode": "psychic"}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
