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
        "daa7640592e3ee35e6a30f97166c05f71b30882b50f77e4c0ec4269cfd891fbb",
    "builtin/matrix2":
        "152dd65d7b01284f4af9e49b765c53246c282c0cd12cee7ca2a0d6a041db9383",
    "builtin/matrix3":
        "64a25e6be23d600372134e9a574f7a16870d7fd8c431eaf146320669b5c992a6",
    "builtin/pair":
        "0a89ccc95d6ddba09e940c9fd1509b2130e5b789f94e5a4114c6b1ad76e46905",
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
        "bef0a45fbd6d46d3d97881a950f26c8caa517a3ecb3f360ada1cc7ece2c7db5f",
    "tangent/matrix2":
        "3f3534fc449e64445725a6c29ecc44c65e256bb11e38bb81795e57ebb34b623b",
    "tangent/matrix3":
        "82391030712cf14a9651dd40b2ce3e7525c8d79fbf074d8a38ecc1ecb12a230c",
    "tangent/pair":
        "ba68302edc7363687fc00f8d86ae9c467f3d0fc5ad53838797923a00add7fb6a",
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
    # the structure maps with their domains' constraints and guards
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
