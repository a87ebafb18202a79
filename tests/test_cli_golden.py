"""Golden stdout bytes of `prodvc vcd` and `prodvc reduce`: the sha256 of
what each command writes on fixed instances, so a refactor of the VC scan,
the report records or the instance writer that moves a value, a witness, an
`exact` flag or a key order shows here."""

import hashlib

import pytest

from prodvc.cli import main
from prodvc.graph import complete_graph, path_graph
from prodvc.harness import GeneratorSpec, generate
from prodvc.products import ProductSpace, ProductSubgraph, instance_to_json, octahedron

GRID_FIVE = ProductSubgraph(ProductSpace([path_graph(3), path_graph(3)]),
                            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])

INSTANCES = {
    "grid5": GRID_FIVE,
    "mixed1": generate(GeneratorSpec(m=2, seed=1))[1],
    "mixed3": generate(GeneratorSpec(m=3, seed=0))[1],
    "mixed4": generate(GeneratorSpec(m=3, seed=4))[1],
    "single": generate(GeneratorSpec(m=1, seed=1))[1],  # one vertex: no witnesses
    "tree3": generate(GeneratorSpec(family="tree", m=2, factor_size=4, seed=3))[1],
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


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_cli_stdout_matches_golden_digest(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(instance_to_json(INSTANCES[name]))
    subcommand, *options = command.split()
    assert main([subcommand, str(path), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name, command]
