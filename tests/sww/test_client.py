"""Tests for the generative client (§5.2)."""

import repro.sww.client as client_module
from repro.devices import LAPTOP, WORKSTATION
from repro.html import parse_html, serialize
from repro.sww.client import GenerativeClient, connect_in_memory
from repro.sww.renderer import render_text
from repro.sww.server import GenerativeServer, PageResource, SiteStore
from repro.workloads import build_travel_blog
from repro.workloads.corpus import populate_traditional_assets


def make_server(gen_ability: bool = True, **kwargs) -> GenerativeServer:
    page = build_travel_blog()
    store = SiteStore()
    store.add_page(PageResource(page.path, page.sww_html, page.traditional_html))
    populate_traditional_assets(store, page)
    return GenerativeServer(store, gen_ability=gen_ability, **kwargs)


class TestFetchFlow:
    def test_full_generative_flow(self):
        """§5.2: connect → settings → request → parse → generate → render."""
        client = GenerativeClient(device=LAPTOP)
        server = make_server()
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.status == 200
        assert result.sww_mode
        assert result.report is not None
        assert result.report.generated_images == 3
        assert result.report.generated_texts == 1
        assert result.rendered  # the page was rendered

    def test_server_ability_logged(self):
        """§5.2: the client logs the server's ability after settings."""
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert client.server_gen_ability is True

    def test_rewritten_document_has_no_prompt_divs(self):
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.document.find_by_class("generated-content") == []
        assert "generated-content" in result.received_html  # original kept

    def test_generation_costs_exposed(self):
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert result.generation_time_s > 0
        assert result.generation_energy_wh > 0

    def test_naive_client_does_not_generate(self):
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert not result.sww_mode
        assert result.report is None
        assert result.generation_time_s == 0

    def test_404_flow(self):
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/missing")
        assert result.status == 404 and result.report is None

    def test_multiple_fetches_share_connection(self):
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        first = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        second = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert first.status == second.status == 200


class TestAssetFetching:
    def test_naive_client_fetches_media(self):
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        server = make_server()
        pair = connect_in_memory(client, server)
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assets = client.fetch_assets_via_pair(pair, result)
        # Server-generated images + the two unique photos.
        assert len(assets) == 5
        assert sum(len(b) for b in assets.values()) > 100_000

    def test_generative_client_skips_local_assets(self):
        client = GenerativeClient(device=LAPTOP)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assets = client.fetch_assets_via_pair(pair, result)
        # Only the unique photos travel; generated ones are local.
        assert set(assets) == {"/photos/hike-0.jpg", "/photos/hike-1.jpg"}


class TestPreloadedPipeline:
    def test_pipeline_shared_across_fetches(self):
        """§4.1: the pipeline is preloaded once per client, not per page."""
        client = GenerativeClient(device=WORKSTATION)
        pair = connect_in_memory(client, make_server())
        client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        reloads_after_first = client.pipeline.reloads
        client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert client.pipeline.reloads == reloads_after_first == 1


class TestNonHtmlBodies:
    @staticmethod
    def count_parses(monkeypatch) -> list[int]:
        calls: list[int] = []
        original = client_module.parse_html

        def counting(text):
            calls.append(len(text))
            return original(text)

        monkeypatch.setattr(client_module, "parse_html", counting)
        return calls

    def test_asset_fetch_does_not_tokenize_as_html(self, monkeypatch):
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, make_server())
        page = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        sources = [img.get("src") for img in page.document.find_by_tag("img")]
        assert "/generated/stock-0.png" in sources and "/photos/hike-0.jpg" in sources
        calls = self.count_parses(monkeypatch)
        for src in ("/generated/stock-0.png", "/photos/hike-0.jpg"):
            result = client.fetch_via_pair(pair, src)
            assert result.status == 200
            assert result.wire_bytes > 0
            assert len(result.received_html) > 0  # raw body still decoded
            assert result.rendered == ""
        assert calls == []

    def test_html_page_results_unchanged(self, monkeypatch):
        calls = self.count_parses(monkeypatch)
        client = GenerativeClient(device=LAPTOP, gen_ability=False)
        pair = connect_in_memory(client, make_server())
        result = client.fetch_via_pair(pair, "/blog/ridgeline-hike")
        assert calls == [len(result.received_html)]
        reference = parse_html(result.received_html)
        assert result.final_html == serialize(reference)
        assert result.rendered == render_text(reference)
        assert result.wire_bytes == len(result.received_html.encode("utf-8"))
