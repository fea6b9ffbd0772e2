"""Program construction builds the same programs, node for node.

Each fingerprint is the sha256 of a program's JSON form: its nodes in
order, with every constant's bits.  A change to the builder that makes
other nodes, numbers them otherwise or draws other constants changes a
fingerprint, and with it the bits of the reports that run the program.
"""

import hashlib
import json

import numpy as np
import pytest

from tancat.expr import Expr, ExprBuilder, Node, tangent_chart_map
from tancat.groupoid import (BUILTIN_GROUPOIDS, groupoid_to_json_dict,
                             tangent_groupoid)
from tancat.randexpr import random_expr

FINGERPRINTS = {
    "builtin/action_gl2":
        "c58b52f62acbc18417a4188ff52fcc5679646c73d0eb0d6382d1b8da36d84aac",
    "builtin/matrix2":
        "d10b3aff946e7ea616e9ac95fcb95c1e2a9d742a0251523e950c692b8c274bff",
    "builtin/matrix3":
        "342f796d013c7238ea7744bffa2a6b8f90e15ce5bb8a175e59ae14269cb582db",
    "builtin/pair":
        "8b67ade262658caa66200cabf3cfbe5dc84454974da53535caadfc4d85c7b5b2",
    "charts0/action_gl2":
        "89aac2d07bb3f6070d671b1b8ca6092ae2b8051047d8bc4b957cc50daa991905",
    "charts0/matrix2":
        "7c41c1fd542d4b9870582ac6ad313526d6c563223ef7718fa99bb119ea7cfcc9",
    "charts0/matrix3":
        "1a308cef568d5356d298c0eeeee8474d297f0944a097178b81b34b29016a32e9",
    "charts0/pair":
        "3885387357435478d38de39259547e157671e5a1e624f8091df65ea2edc70b99",
    "charts1/action_gl2":
        "49a67dca791d77aa13914a47c000e2597cb042bde228c7fe1a84eccfa48e7819",
    "charts1/matrix2":
        "120b79d88f1014724c7b373bfc26a750a0f6feede5142fc069a95bc3cc10c1ec",
    "charts1/matrix3":
        "67318573c6feef1cdcc73c29ccbb2440c6cd75f37b97415367393c818352deaa",
    "charts1/pair":
        "1456865bd0a2892a89199862ac1be350425f9a4988777caf2dfe5f7f61c58f37",
    "charts2/action_gl2":
        "1faa7272f071a423aad3e5a8c5862f23f9c7e0f37d8c8415afca11f5045772ea",
    "charts2/matrix2":
        "f5d7a98032ef1d342e817a13e3b169768e8533f434fb4512522aabf90e72d5c9",
    "charts2/matrix3":
        "c5df248f86972d67af124f2a533a05db0110d55311f511186dc77ddf9778f6ca",
    "charts2/pair":
        "9cec4ae22add4b866b8676add2209c8076747bd76823ba161a8e8ca512510dc8",
    "lift1/action_gl2/compose":
        "bc82a412ee88ebcdb15cc039a551cca421c3619f29909f302a768e091091422d",
    "lift1/action_gl2/unit":
        "bec9c94e89e77e7ec414bc50a3c649edd45d8c2a15e3b089ee8394a7299b3b32",
    "lift1/matrix2/compose":
        "f60eb9939271a004381f7999aa159c795bdf78eea5f5b1d58e773f53a1a52a06",
    "lift1/matrix2/unit":
        "41543a3c90f90eebd0aa486aee10dc04bab6e5a5996ae161d71a1a97eaed6948",
    "lift1/matrix3/compose":
        "a4a4dc31f89a3b13ac32258c387b0ca70d6ab6146a798bf8408e984ce631bfd1",
    "lift1/matrix3/unit":
        "791207ee4b066f829ea025d1acf8d8b6f462fd91f4b3fdd6064cd10f8d6c927d",
    "lift1/pair/compose":
        "057097605944d8ed3caebe3050ba6674714ca12361fb554d0de9ad453635ecaa",
    "lift1/pair/unit":
        "f177deb08bdc316a97a3f955b12a62f9aca55e1e865d276cdf7a4a76dc6e43e2",
    "lift2/action_gl2/compose":
        "68131caa517c1633c8239f403556ab836eb5707c2ffe9b53feedd7464f6be7ce",
    "lift2/action_gl2/inverse":
        "24b511a3d63f3aea9080e2d9614f0d482107e4adc28d058a2a76a9ebcdb80f68",
    "lift2/action_gl2/target":
        "016e9add511e8e63d3bd123d51a885f27504439fe68071b7f9022939e5505820",
    "lift2/action_gl2/unit":
        "be3a4b10eb3a9492f9597591320cd2d9948b39d18ef779ef911e2b1e7f945121",
    "lift2/matrix2/compose":
        "708af08e5e9c9a1f8942256d28a699d5edf0d00b8c4387ca78717ce6711ca399",
    "lift2/matrix2/inverse":
        "2a5b8c340805eba4cb7aa733466079e153d2241b120abe5f9f4da3d1c6e44355",
    "lift2/matrix2/target":
        "4aabef6e457d0ac7e4efebd164ac5e0ec684b3d47146cf4f91b47c101168ea9a",
    "lift2/matrix2/unit":
        "3821a9e937dcccff6269da7029cf768e022f42e466f1f84d116d02b43d7f6169",
    "lift2/matrix3/compose":
        "c7ef1950359fb2d10609d0001b2ce92740f15fb6e478b71492048b8385a74d7b",
    "lift2/matrix3/inverse":
        "fbb4727fb420cd1fcd20364cdf1c80a1321e1ddc22f7e9f11cb0f4cf0d93bdb8",
    "lift2/matrix3/target":
        "dece5ab76681fb3c171a3f803596020954758be4e19d41268c49e6fd67322909",
    "lift2/matrix3/unit":
        "7ca2f5eae112bd06456762438136e77de45f9267cf78219cd175c8b356f9a4ac",
    "lift2/pair/compose":
        "ef8ecc7bf77b93783511c66e0b46cf1d7ebb4afed3986e9ef7703cb2f7e0190d",
    "lift2/pair/inverse":
        "5e0a0cb7f3364bdab8f656a135106fbe7b1ec98f7d2a43fc5bde1a749a63ff50",
    "lift2/pair/target":
        "d3a27bfa65067c9c0cb2326df6fa8ce0460f93a11dd17d348361496e734e13ec",
    "lift2/pair/unit":
        "7585e737a53f2b772e214f5b9d84c791206981d0026e0c2ac933ce652bdc9556",
    "random/dim1":
        "32fcc15b1bb8a2a01ac9ca20c23e8108b79876d1654087809f38973466ca2e5a",
    "random/dim2":
        "9567f918f54177610102b9a0013fa661985264a0d72daefe5f1f20df1b66984c",
    "random/dim3":
        "99418aa8e7bb22e3f9e0994bfd80dc1204c71fcc8fa5138c1ec48c8bf6bb28ab",
    "tangent/action_gl2":
        "888989c5438908815ff07cf5e5e33f9e066f5f16509ff75f15208ed01a9c0c22",
    "tangent/matrix2":
        "d735770426d42749e2584f31efee2a1ab720db5937bedfe7a34ee0c4b94eb9c5",
    "tangent/matrix3":
        "2cde1f5982042ad114d7753f6535a46ef70bbd4ea85ea7565a83c09d24de8210",
    "tangent/pair":
        "b7494ce06bbdc1fc211c4a2586c19dab836db9f4e4488ab58aee6581ee080b90",
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def chart_lifts(G):
    # the maps of T G and T T G, which check_chart_functoriality compares
    T = G
    for order in (1, 2):
        T = tangent_groupoid(T)
        yield order, T


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
def test_builtins_and_their_lifts_keep_their_programs(name):
    G = BUILTIN_GROUPOIDS[name]()
    # the two charts, with their constraints and guards, and the programs
    assert digest(groupoid_to_json_dict(G)) == FINGERPRINTS[f"builtin/{name}"]
    assert (digest(groupoid_to_json_dict(tangent_groupoid(G)))
            == FINGERPRINTS[f"tangent/{name}"])
    # order 1's target and inverse are pinned by tangent/<name>
    for order, T in chart_lifts(G):
        labels = ("compose", "unit") + (("target", "inverse") if order == 2
                                        else ())
        for label in labels:
            assert (digest(getattr(T, label).body.to_json_dict())
                    == FINGERPRINTS[f"lift{order}/{name}/{label}"])


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPOIDS))
def test_each_structure_map_keeps_its_charts(name):
    # a spec holds no map charts: fibered_groupoid derives them from the
    # base and arrow charts, for G and for each tangent groupoid
    T = BUILTIN_GROUPOIDS[name]()
    for order in range(3):
        charts = {label: [getattr(T, label).dom.to_json_dict(),
                          getattr(T, label).cod.to_json_dict()]
                  for label in ("target", "compose", "unit", "inverse")}
        assert digest(charts) == FINGERPRINTS[f"charts{order}/{name}"]
        T = tangent_groupoid(T)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_programs_keep_their_nodes_and_draws(dim):
    # each program, and the generator's next draw after it
    progs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        progs.append([random_expr(rng, dim, dim).to_json_dict(), rng.random()])
    assert digest(progs) == FINGERPRINTS[f"random/dim{dim}"]


def test_a_program_only_spliced_is_never_compiled():
    rng = np.random.default_rng(3)
    inner = random_expr(rng, 2, 2)
    b = ExprBuilder(2)
    outer = b.finish([h * 2.0 for h in b.splice(inner, b.inputs())])
    lifted = tangent_chart_map(inner, [2], [2])
    assert inner._schedule is None and outer._schedule is None
    pts = rng.uniform(-1.0, 1.0, size=(2, 5))
    outer(pts)
    lifted(np.concatenate([pts, pts]))
    assert outer._schedule is not None and lifted._schedule is not None
    assert inner._schedule is None
    # a built-in's structure maps wait for their first run
    G = BUILTIN_GROUPOIDS["action_gl2"]()
    assert all(getattr(G, m).body._schedule is None
               for m in ("target", "compose", "unit", "inverse"))


@pytest.mark.parametrize("nodes, error", [
    ([Node("input", index=0), Node("const", value="x")], ValueError),
    ([Node("input", index=0), Node("const", value=[1.0])], TypeError),
    ([Node("input", index=0), Node("exp", (0,)), Node("sin", (2,))],
     ValueError),
    ([Node("input", index=0), Node("input", index=-1)], ValueError),
])
def test_malformed_nodes_raise_at_construction(nodes, error):
    # no output reads the malformed node; it is refused all the same
    with pytest.raises(error):
        Expr(nodes, 1, [0])
