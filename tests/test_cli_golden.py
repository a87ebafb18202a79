"""Golden stdout bytes of `prodvc vcd` and `prodvc reduce` on product
instances, and of `density`, `arboricity`, `orient` and `label encode` on
edge lists: the sha256 of what each command writes on fixed inputs, so a
refactor of the VC scan, the density rounds, the drains, the report records,
the writers or the edge-list loader that moves a value, a witness, an
`exact` flag, an arc or a key order shows here."""

import hashlib
import random

import pytest

from prodvc.cli import main
from prodvc.graph import FactorGraph, complete_graph, path_graph, to_edgelist
from prodvc.harness import generate
from prodvc.products import ProductSpace, ProductSubgraph, instance_to_json, octahedron

GRID_FIVE = ProductSubgraph(ProductSpace([path_graph(3), path_graph(3)]),
                            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])

INSTANCES = {
    "grid5": GRID_FIVE,
    "mixed1": generate(m=2, seed=1),
    "mixed3": generate(m=3, seed=0),
    "mixed4": generate(m=3, seed=4),
    "single": generate(m=1, seed=1),  # one vertex: no witnesses
    "tree3": generate(family="tree", m=2, factor_size=4, seed=3),
    "p22k2": ProductSpace([path_graph(22), complete_graph(2)]).materialize(),
    "octa": ProductSpace([octahedron(2), path_graph(2)]).materialize(),
}

# (instance, arguments after the instance path) -> sha256 of stdout
GOLDEN = {
    ("grid5", "vcd"):
        "5966b155d3b3b338e6a38eb0a5ce1d0304b19613661d14fd4ce345c6c6dc4c76",
    ("grid5", "vcd --minor"):
        "1d1494646a4a4625e2a3dfb90958d01de720272fa16167272832ac7b43e9bc5e",
    ("mixed1", "vcd"):
        "35e07f2dc4f65beb48c030ddecb461a21f08e00be3063c4d23d40b044944e4a1",
    ("mixed1", "vcd --minor"):
        "83887f97c2cbf16485134486d9d7f0498e40e711b6534cca517b2aa2ef160582",
    ("mixed3", "vcd --minor"):
        "fd8214fd4fc3e0b7d461550ea72ae9ac7d615a7a452c300b824dd0959ec121a4",
    ("mixed4", "vcd"):
        "5c11b22f6bb42ff5edc056682e76730a5dc937340679ec69d877e61388df7455",
    ("mixed4", "vcd --minor"):
        "0285d791f8a0a37d65fae5aecf42e27f973b5df73cb06ef5679c671929816b81",
    ("single", "vcd"):
        "b9ed2a05a3a02bc990dc80384ac84f4b00c737177ee91b0b98796608be42ff9e",
    ("single", "vcd --minor"):
        "5934c36ff66de9debbb8f6c586365dedb2e5432b7cca634dfac4ed4ccc7df097",
    ("tree3", "vcd --minor"):
        "8fed6305df265928eb43d38fa948990783a0b70f48fa4c98f3ec71a7ae4c1ad6",
    ("p22k2", "vcd --budget 1000"):
        "fc5aa52f9bb79af23502a33b9527d51b12aff09b482320463be87c7119d8625b",
    ("p22k2", "vcd --minor --budget 1000"):
        "33eabd474d3c3d6699a51a08ea22b0f643a2ef409cad534f3a7c8d6d68d6a220",
    ("grid5", "reduce --factor 0 --edge 0,1"):
        "e9f3fba6a4ab9b1a5948e7323f61eb3677e55240f4161f1e48d0fb338d538b54",
    ("mixed1", "reduce --factor 1 --edge 0,1"):
        "043e9b8a7f0f8b317dcf461ae866afecc397203ca9fc645a3fbb825f500e29b3",
    ("octa", "reduce --factor 0 --octahedron 3"):
        "601186018ea2a24edd2ac0f5fa35600e6935ac7cf038852f670af4de9bc1f99b",
    ("octa", "reduce --factor 0 --octahedron 0"):
        "f46303389c13dce81729abbd19dcba98164587d4cd1d9bec396c1c1b4cf7da9c",
}


def _shuffled_grid(a, b, rng):
    label = list(range(a * b))
    rng.shuffle(label)
    edges = [(label[i * b + j], label[i * b + j + 1]) for i in range(a) for j in range(b - 1)]
    edges += [(label[i * b + j], label[i * b + b + j]) for i in range(a - 1) for j in range(b)]
    return FactorGraph(a * b, edges)


GNM_PAIRS = [(u, v) for u in range(55) for v in range(u + 1, 55)]

GRAPHS = {
    "gnm55": FactorGraph(55, random.Random(7).sample(GNM_PAIRS, 69)),  # 4 density rounds
    "grid8": _shuffled_grid(8, 8, random.Random(8)),
    "q6": ProductSpace([path_graph(2)] * 6).materialize().to_factor_graph()[0],
    "k4tail": FactorGraph(6, list(complete_graph(4).edges) + [(3, 4), (4, 5)]),
    # degeneracy forests outnumber the arboricity: 3 for 2, and 6 for 4
    "q3": ProductSpace([path_graph(2)] * 3).materialize().to_factor_graph()[0],
    "k3cube": ProductSpace([complete_graph(3)] * 3).materialize().to_factor_graph()[0],
}

# (graph, command) -> sha256 of stdout; orient runs at ceil(dens)
GRAPH_GOLDEN = {
    ("gnm55", "density"):
        "48336e1b98ee332b6628805d9fe4321c82d34600fd0d7a396beb2be97f431919",
    ("gnm55", "arboricity"):
        "9516c369a58067b93e81a89aa9e384f73f5174619071e6bc0cd010fcbb4e6b10",
    ("gnm55", "orient --max-outdegree 2"):
        "7891054d556604eddb6a74d87915553262e5fdbebaf5773e7fcc3d3b35f966ff",
    ("gnm55", "label encode"):
        "ad8908575b6be86b49e7be86183c5e63b2c13c764d18ac6c0e39c0381be75ddc",
    ("grid8", "density"):
        "69554081156ffd94367a3b73f79aea2cf6795723684c01370db554c5e80caa16",
    ("grid8", "arboricity"):
        "1e526439936c36d21d7c96dd23982f81dfac1177d7047b5abdee01fc85787c8e",
    ("grid8", "orient --max-outdegree 2"):
        "9884b4b21e65a6312de1a18dbdc66908c226822b0ea0ac1043d2aa8dbaac4ea0",
    ("grid8", "label encode"):
        "e6f7deb9dc3ad54ccfe0e7130a36d0a8ce60b2585ef8ac9fd19625776d0a7984",
    ("k4tail", "density"):
        "57d68a22f1730ca512e8af96430d984d2715063e2a27d1a0326621d7ca4dd8da",
    ("k4tail", "arboricity"):
        "0aaf83cec5cba7edd05c9ab823ccd36920646e48ddcdf629787c1d818083de30",
    ("k4tail", "orient --max-outdegree 2"):
        "11ddc75595bb89759a1fc25fd25aadbb14a2acef0355f6cbedd68f9728dd483c",
    ("k4tail", "label encode"):
        "00d4906991a33e7fac5459369a7a3d93471d3569af9b532398cac5d3943ed532",
    ("q6", "density"):
        "eb4a07a5e6e35fef476fe8c3dac244e8c7e1a5ba7de55215f280e897b4994640",
    ("q6", "arboricity"):
        "6685b5ea8b041b156ddd741f674d6756794eaee8057901010735e91aca5fcf57",
    ("q6", "orient --max-outdegree 3"):
        "1889a293f433f80ecefbdab87e8295674008e14961c933f71bf6ee7f8e2f5bb6",
    ("q6", "label encode"):
        "59509464de655d3ff883d112f5aa17fd22d2524dc1b50584b616eb813ab723e7",
    ("q3", "arboricity"):
        "dd47fef0af02392c787612b64384b5f051356739989ef6cbbb35d0d51f0c930d",
    ("k3cube", "arboricity"):
        "0701140d1213ecd8cb1556bf54c461f2a9b7d6387074ea864516602144c3d2a8",
}

# edge-list files in the loader's other spellings: comments, blank lines,
# CRLF line ends, and integers with a sign or digit separators
EDGE_TEXTS = {
    "comments": "# a 5-cycle with a chord\n5 6  # header\n0 1\n1 2 # trailing\n"
                "# a whole-line comment\n2 3\n3 4#no space\n0 4\n1 3\n",
    "blank": "\n   \n4 4\n\n0 1\n \t \n1 2\n2 3\n\n0 3\n\n",
    "crlf": "4 5\r\n0 1\r\n0 2\r\n1 2\r\n1 3\r\n2 3\r\n",
    "integers": "+1_1 1_2\n0 +1\n0 1_0\n1 2\n2 3\n3 4\n4 5\n5 6\n"
                "6 7\n7 8\n8 9\n9 1_0\n+2 +7\n",
}

EDGE_TEXT_GOLDEN = {
    ("comments", "density"):
        "20d0fecf244731eeb7d35d1b3ed09fcd7e13adf7b33eec00fbeb9916fe8c0851",
    ("comments", "arboricity"):
        "3ef9c4d1091a053852083397ebf3e83c32418589907376e6c814279fc54db396",
    ("comments", "label encode"):
        "4ab7d1f9a11318171f89d1fbdbdf61614978779fc574a9fb55f970bb7e9d318e",
    ("blank", "density"):
        "6a692811d5848e6589e94931850466681b51443f5676692b149eb3f0a11cbbb2",
    ("blank", "arboricity"):
        "f42eddf9f39e48e55d6fa155bb5cd545b43451bbc5c42bf9dfd9c1d142d5eef6",
    ("crlf", "density"):
        "8645db566a0464e8122e8d405d66de1eddbd1e9c4e64c820047dc9343198bfc9",
    ("crlf", "arboricity"):
        "fee2e1147fae6d6d2c14ba09cfb52279c9681e9b371f2846f5aaeb736c13195b",
    ("crlf", "orient --max-outdegree 2"):
        "713d750c4f2b36337e6359c33000567fb3d152c4fc3c3b6591bba3d3d6e28f88",
    ("integers", "density"):
        "1723444ce2e9448bcd4d06a7fc0315b539cab3d5e6d611299a60f6ed1af205a4",
    ("integers", "arboricity"):
        "4a982227298a8c67fdc1273663f29d1b87f897f785af9a26ea0a81530374a6d3",
    ("integers", "label encode"):
        "a5169f9e0465539c437308388650002fb82d3977ed365b17a5954d8a0153d8e5",
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_cli_stdout_matches_golden_digest(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(instance_to_json(INSTANCES[name]))
    subcommand, *options = command.split()
    assert main([subcommand, str(path), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name, command]


@pytest.mark.parametrize("name, command", sorted(GRAPH_GOLDEN))
def test_edge_list_stdout_matches_golden_digest(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.txt"
    path.write_text(to_edgelist(GRAPHS[name]))
    args = command.split()
    head = 2 if args[0] == "label" else 1  # the file follows `label encode`
    assert main([*args[:head], str(path), *args[head:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_GOLDEN[name, command]


@pytest.mark.parametrize("name, command", sorted(EDGE_TEXT_GOLDEN))
def test_edge_list_spellings_match_golden_digest(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(EDGE_TEXTS[name].encode())
    args = command.split()
    head = 2 if args[0] == "label" else 1
    assert main([*args[:head], str(path), *args[head:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_TEXT_GOLDEN[name, command]
