"""Byte pin of the decomposition graphs built for the paper's benchmark suite.

Every Table 1 circuit at two scales with the K=4 construction options, and
every Table 2 circuit with the K=5 options, is built and hashed: vertex
data, the three sorted edge lists, every vertex's fragment rectangles and
every shape's vertex list.  The pins were taken from the per-pair
(spatial-hash and per-edge) construction the bulk one replaced, so a
construction change that moves any vertex, edge or fragment fails here and
names the first circuit that differs.

Run on its own: ``PYTHONPATH=src python -m pytest -q
tests/graph/test_construction_digest.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.options import DecomposerOptions
from repro.graph.construction import ConstructionResult, build_decomposition_graph

pytestmark = pytest.mark.slow

TABLE1_SCALES = (0.1, 0.35)
TABLE2_SCALE = 0.35


def _cases():
    for scale in TABLE1_SCALES:
        for name in TABLE1_CIRCUITS:
            yield f"table1-k4/{name}@{scale}", name, scale, 4
    for name in TABLE2_CIRCUITS:
        yield f"table2-k5/{name}@{TABLE2_SCALE}", name, TABLE2_SCALE, 5


def construction_digest(result: ConstructionResult) -> str:
    """sha256 of everything :func:`build_decomposition_graph` returns."""
    graph = result.graph
    vertices = []
    for vertex in graph.vertices():
        data = graph.vertex_data(vertex)
        vertices.append((vertex, data.shape_id, data.fragment, data.weight))
    # ``result.fragments`` builds its dict on every read: read it once.
    fragment_rects = result.fragments
    fragments = [
        (vertex, [(r.xl, r.yl, r.xh, r.yh) for r in fragment_rects[vertex]])
        for vertex in sorted(fragment_rects)
    ]
    shape_vertices = sorted(result.shape_vertices.items())
    payload = repr(
        (
            vertices,
            graph.conflict_edges(),
            graph.stitch_edges(),
            graph.friend_edges(),
            fragments,
            shape_vertices,
        )
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


#: case -> digest, pinned at the per-pair construction.
PINNED = {
    "table1-k4/C432@0.1": "dc2269208da645d470ae04bcab82c7364fce98bc666fa9d7d3bf04135ce341b5",
    "table1-k4/C499@0.1": "0e5385c74b97b64f02490de19efd8f6443f9b5942f67088ac4c39acbd53578eb",
    "table1-k4/C880@0.1": "545854df8e20a5d12343e480ae3b70eda6946a2632f576f3b18eb07ca5173797",
    "table1-k4/C1355@0.1": "5278970824a6635dfc5f99fba5ce911b58eaf7a120d9015f315148cc89fffea2",
    "table1-k4/C1908@0.1": "0ac25cb6d17e50880d0c71090b111055059d8a185b9311b6caedcb610ddc5ba3",
    "table1-k4/C2670@0.1": "d8f8967a467579c9ecce270929044c7103c56a9b813cc8d90f212ba373e46211",
    "table1-k4/C3540@0.1": "adc832147c47a9a8f0659104cf15bb0608e1c326179c401ccc04904ce4d94d3c",
    "table1-k4/C5315@0.1": "ba99e7ca00f0eaa97ab5b003d513a084dc9e096760aa9139759ec443433be1ce",
    "table1-k4/C6288@0.1": "2a6ee2c35e719a6dcf5e56dc416b9d3281ce93d2bb52035d9e0f0a2fe45c0907",
    "table1-k4/C7552@0.1": "405373ac273289865986a90b45f3d010f3f1c625962dd94947075f49f73c9060",
    "table1-k4/S1488@0.1": "cd529b4c31d4dd8e700ab48d71fb862fc04879dd118692c0a983324a2001cd52",
    "table1-k4/S38417@0.1": "f215e08aff8352da9820bf55a334c1fe6abca0fa5b874a13ffa84d77c662f76e",
    "table1-k4/S35932@0.1": "06d63885cb0d84e768bf42a1c30b99250c3d28e201b4ef42fd6c8064c66be0ce",
    "table1-k4/S38584@0.1": "abfce49d249e1dbbad848e028ad9f315f02e577f0eff72fe9df60afe58ff205b",
    "table1-k4/S15850@0.1": "fa1dad49b1d2669319e0ece9910ae9baa8142b52a85d5198ed5066aecb808413",
    "table1-k4/C432@0.35": "55321f779a23adcb3c3b4b1322bf6fa209b041b77c711a1a70e58100e7fcdc33",
    "table1-k4/C499@0.35": "0a9cf43003b27ecd466b2f76b69b3c26b2aa5b9fe476ca9318424e0fa06b175c",
    "table1-k4/C880@0.35": "466ce9ec732b31086370db91dd5ae1e9df38aff44772dc5487135b914efc3cdf",
    "table1-k4/C1355@0.35": "e14d39a834e4dc117e36e574ceb1d0b955ca778139ba1cf1af67f0bcdd627cf9",
    "table1-k4/C1908@0.35": "80ffff55fa04dc5ef2994c41437ac0d789432f5bedfb56bdb51a8fcbe085a828",
    "table1-k4/C2670@0.35": "76c2dbf5c3081270a29c0bbd9643d3d0fcba3261b64ee7641b60d50fa802d815",
    "table1-k4/C3540@0.35": "0ac5594181f4f43b5dd0db7d2cedc4c7901024cff8d7a6b40067c027a880700c",
    "table1-k4/C5315@0.35": "cf19e88eb48d7bb49aacb71cd494c0fa7099e3beb609463316b5c43444f07806",
    "table1-k4/C6288@0.35": "19d506094bf1932c6100d52de0600e390dcf220664c2b20c55ac7c0843b3d03b",
    "table1-k4/C7552@0.35": "e9b3aef1ae812d7a281ee1756d081c20e638fa5ea8cde14fbfc9b4fd0270a291",
    "table1-k4/S1488@0.35": "15f27f9d6301b61389d68ccc4d0177740e9571e6241aa5dca014b9a10f32e975",
    "table1-k4/S38417@0.35": "b898d51134f0634b796602db1371397cc17fc0379967921359256054e20efb70",
    "table1-k4/S35932@0.35": "c77bcd467aa02813bb3d18bfeea8a199ea7d57ac9adf1c59d029281d88cf2e19",
    "table1-k4/S38584@0.35": "b696541db2932dfac89295831535287cbfdfa3e7522dbe0285991a6ae9e045e5",
    "table1-k4/S15850@0.35": "dbef8fa3b5331f018c063d01bf85ec9e735906302a2ee121b350d67f06ca923e",
    "table2-k5/C6288@0.35": "acf33743791d0ed3363c689cfe329500ae94f1110d7c346c4bfe786ee037f9b7",
    "table2-k5/C7552@0.35": "37ee7aa1cc56ce6780816e167717eb89cbc8a3628f8d1f684a2caa61c6e55069",
    "table2-k5/S38417@0.35": "2afc04c0651bfb61cbfaa60bae3351b7bfe96588396940aef7305e5a46970467",
    "table2-k5/S35932@0.35": "24f097381f6d5ac65fe3c627cbc9b25679e2ece6bd44dc88aeb419106d35a088",
    "table2-k5/S38584@0.35": "75fb341a97eec605341afc0527c1a000a1c085e5220c35717efc696d49fb76be",
    "table2-k5/S15850@0.35": "65eea18630fb9064c5ec0a25f06e965ac8594e4777e49213a3fc0cd17b33b6c6",
}


def test_every_benchmark_graph_matches_its_pin():
    quadruple = DecomposerOptions.for_quadruple_patterning().construction
    pentuple = DecomposerOptions.for_pentuple_patterning().construction
    seen = []
    for case, name, scale, colors in _cases():
        options = quadruple if colors == 4 else pentuple
        result = build_decomposition_graph(load_circuit(name, scale), options=options)
        digest = construction_digest(result)
        assert digest == PINNED.get(case), (
            f"{case}: construction digest {digest} differs from its pin "
            f"({len(seen)} earlier cases matched)"
        )
        seen.append(case)
    assert sorted(seen) == sorted(PINNED)
