"""Tests for the lower-bound construction generators."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from gallai_ramsey.bounds import gr_S62, gr_S82, gr_Str_bounds, ramsey_Str
from gallai_ramsey.colored_graph import ParameterError, write_graph
from gallai_ramsey.constructions import (
    ConstructionError,
    build_G62,
    build_G82,
    build_general_lower,
    matched_clique,
    two_clique_witness,
)
from gallai_ramsey.search import random_gallai_sampler

G62_ORDERS = {2: 10, 3: 25, 4: 51, 5: 127, 6: 256, 7: 637}
G82_ORDERS = {2: 14, 3: 35, 4: 70, 5: 176, 6: 352, 7: 881, 8: 1762}


def test_g62_order_table():
    for k, want in G62_ORDERS.items():
        rep = build_G62(k, verify=False)
        assert rep.graph.n == want
        assert rep.graph.k == k


def test_g82_order_table():
    for k, want in G82_ORDERS.items():
        rep = build_G82(k, verify=False)
        assert rep.graph.n == want
        assert rep.graph.k == k


def test_g62_small_builds_certify():
    for k in range(2, 7):
        rep = build_G62(k)
        assert rep.verified
        assert rep.line().endswith("rainbow=none monoS=none")


def test_g82_small_builds_certify():
    for k in range(2, 7):
        rep = build_G82(k)
        assert rep.verified


def _g62_order(k):
    return gr_S62(k).value - 1


def _g82_order(k):
    return (ramsey_Str(8, 2) if k == 2 else gr_S82(k)).value - 1


def test_g62_recursion_law():
    # the closed form, past the buildable orders, against the tower's growth:
    # +2 vertices at odd levels (two block swaps), +1 at even levels (one)
    for k in range(4, 16):
        bump = 2 if k % 2 == 1 else 1
        assert _g62_order(k) == 5 * _g62_order(k - 2) + bump


def test_g82_recursion_law():
    # no swaps through level 4, one at odd levels >= 5, two at even >= 6
    assert _g82_order(4) == 5 * _g82_order(2)
    for k in range(5, 16):
        bump = 1 if k % 2 == 1 else 2
        assert _g82_order(k) == 5 * _g82_order(k - 2) + bump


def test_predicted_orders_are_exact_integers_up_to_20():
    # the orders the builders read from the bounds, well past the buildable sizes
    for k in range(2, 21):
        assert isinstance(_g62_order(k), int) and _g62_order(k) > 0
        assert isinstance(_g82_order(k), int) and _g82_order(k) > 0
    for k in range(1, 21):
        for t in (6, 7, 8, 13):
            n = gr_Str_bounds(k, t, 1)[0].value - 1
            assert isinstance(n, int) and n > 0


def test_two_clique_witness():
    rep = two_clique_witness(6)
    assert rep.graph.n == 10
    assert rep.graph.k == 2 and rep.t == 6 and rep.r == (1, 2)
    assert rep.verified
    assert rep.graph.color(0, 1) == 1
    assert rep.graph.color(0, 5) == 2
    assert two_clique_witness(7).graph.n == 12
    assert two_clique_witness(3).graph.n == 4
    with pytest.raises(ParameterError):
        two_clique_witness(2)


def test_matched_clique_layout():
    g = matched_clique(6, 1, [2, 3, 5], 5)
    assert g.n == 6 and g.k == 5
    assert g.color(0, 1) == 2
    assert g.color(2, 3) == 3
    assert g.color(4, 5) == 5
    assert g.color(0, 2) == 1 and g.color(1, 5) == 1
    with pytest.raises(ParameterError):
        matched_clique(5, 1, [2, 3], 3)
    with pytest.raises(ParameterError):
        matched_clique(6, 1, [2, 3], 3)


def test_general_lower_orders():
    assert build_general_lower(1, 7, 1, verify=False).graph.n == 6
    assert build_general_lower(3, 7, verify=False).graph.n == 30
    assert build_general_lower(4, 7, verify=False).graph.n == 60
    # the tower's own growth: K_{t-1}, a join of two copies, then five copies a level pair
    for t in (6, 7, 9, 13):
        orders = [build_general_lower(k, t, 1, verify=False).graph.n for k in range(1, 6)]
        assert orders[:2] == [t - 1, 2 * (t - 1)]
        assert all(orders[k] == 5 * orders[k - 2] for k in range(2, 5))


def test_general_lower_certifies_multiple_r():
    rep = build_general_lower(3, 13, (1, 2, 3))
    assert rep.verified and rep.r == (1, 2, 3)
    assert rep.graph.n == 60


def test_general_lower_parameter_errors():
    with pytest.raises(ParameterError):
        build_general_lower(0, 7)
    with pytest.raises(ParameterError):
        build_general_lower(2, 3)
    with pytest.raises(ParameterError):
        build_general_lower(2, 7, 0)
    with pytest.raises(ParameterError):
        build_general_lower(2, 7, 4)  # needs t-1 >= 2r
    with pytest.raises(ParameterError):
        build_general_lower(3, 9, ())  # no r: nothing would be certified


def test_family_coincidences():
    # the towers agree wherever no block swap has happened yet
    assert build_G62(2, verify=False).graph == build_general_lower(2, 6, verify=False).graph
    assert build_G62(3, verify=False).graph == build_general_lower(3, 6, verify=False).graph
    assert build_G82(2, verify=False).graph == build_general_lower(2, 8, verify=False).graph
    assert build_G82(3, verify=False).graph == build_general_lower(3, 8, verify=False).graph
    assert two_clique_witness(6, verify=False).graph == build_G62(2, verify=False).graph


def test_g62_k4_swapped_block_layout():
    # first K_5 of the first join pair becomes a matched K_6 in colors 2,3,4
    g = build_G62(4, verify=False).graph
    assert g.n == 51
    assert g.color(0, 1) == 2
    assert g.color(2, 3) == 3
    assert g.color(4, 5) == 4
    for u, v in ((0, 2), (0, 3), (1, 4), (2, 5)):
        assert g.color(u, v) == 1
    # join partner follows at offset 6, still joined in color 2
    assert g.color(0, 6) == 2
    assert g.color(6, 7) == 1


def test_unverified_report_line():
    rep = build_G62(5, verify=False)
    assert rep.line() == "family=g62 k=5 t=6 r=2 order=127 rainbow=skipped monoS=skipped"
    assert not rep.verified


def test_build_errors():
    with pytest.raises(ParameterError):
        build_G62(1)
    with pytest.raises(ParameterError):
        build_G82(0)


@pytest.mark.property_based
@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=4, max_value=15))
def test_general_order_formula_matches_graph(k, t):
    rep = build_general_lower(k, t, 1, verify=False)
    assert rep.graph.n == gr_Str_bounds(k, t, 1)[0].value - 1
    assert rep.graph.k == k
    assert set(rep.graph.used_colors()) <= set(range(1, k + 1))


# sha256 of the write_graph text, captured before the towers and the sampler
# were moved onto the slice-assembled blow-up and splice: any change to a
# color, an id or the file format moves them
PINNED_SHA256 = {
    ("g62", 2): "c1206af025482a94122469a30bb7c24ddae573e4b00a2243a4c0c57c532e6afe",
    ("g62", 3): "bfc00606680f51ed046bf1e49f891d1408ff2cdf088ffc09dfbd7804c3bec81d",
    ("g62", 4): "c53357dc14145ac0f4ee35eb4b980f21f9e74ddbfa42d2a6436c06c154b2150b",
    ("g62", 5): "ca0f33017be216cb7f8a1de494c3f1a0d383d65646a8e444cdb6c64ddf8f66bf",
    ("g62", 6): "823a9770cfa417e5559f321de7b5e58a6c3c63e0fb681770bbf4480937469d66",
    ("g62", 7): "63061fe485f814facc5ca63f76cff6c4edbeb776bc548e3afbacd6a90feb1eeb",
    ("g62", 8): "f304f6e0b80f991ae0c54ba0ecedbf1e525d7782b20daddabaaf844d76928c87",
    # k = 9 (3,187 and 4,406 vertices), captured before the towers were blown
    # up from a block plan: the first levels where a swap picks among several
    # untouched units in each part
    ("g62", 9): "f13956f40145c0d5583341105c0e3c51e8dfb7a6fec7d06c0ef8018fa7ae2582",
    ("g82", 2): "a51ffdd5b4e9f878376ab646ce43d2fa8d70996f68419bf72b51ee9b7718b54c",
    ("g82", 3): "7f7859b79bd09181ac246fd869d184f7adf265bc62d7a3396e1f418ff7d4de7f",
    ("g82", 4): "01c0ad04f7cf5fba65e2ef3266790176ac887bf13eefc596a5f46672d5adb700",
    ("g82", 5): "0f9fe135bfd1522d16cfebc7fbcb3bdfe3506f6749fbcc108ebc2a91fb7741b7",
    ("g82", 6): "5ef67b82b77bef28adace2900fc3a1ad55cc1eac0ce0d462e35a5fc5b5ac1d24",
    ("g82", 7): "9de9ed6fea99cbfdbaf4703cdf8de3c0f52e42c7c81fd37e4935ece66d16fc74",
    ("g82", 8): "ad1c311b83bfb02927a07b13e46828dbdf3997376d96ab51055d247bc56df0f4",
    ("g82", 9): "cbd1b212c21fa3a4b9f61e54c7373eaaf43b3397bfdbf0d78ea277e8b9894bfd",
    # captured before the two-clique witness was built as the general tower's level 2
    ("two-clique", 3): "0db96330eac59c1446c2df078f32054add888fefcf1f76b5b53e34932ee2b143",
    ("two-clique", 6): "c1206af025482a94122469a30bb7c24ddae573e4b00a2243a4c0c57c532e6afe",
    ("two-clique", 7): "16a9d853418b6df5875d807632378036cf6b67569e42ed2f0bd9e6e27421b6eb",
    ("two-clique", 12): "5e22f937b599e1d84ff0c45342a5041b0ee3178971ed96040cc44dac9c9db414",
    ("general", 1, 6): "45bd5218d75c0358023b8811e2801b6ba2e8edf0567a24ed025e5a0de5e10cf7",
    ("general", 1, 7): "cd7e5477cf11822869cb0ce587b5974fe9694c19153580e7eb62d9e905dfef16",
    ("general", 1, 9): "8a81c695a060f7cc1a396634355b4b34397deb726c8679d040baf7430ba4840a",
    ("general", 1, 13): "d27f41d7d108538c82ee9a55a12530be3c0d6a5be660f42c23cd077f977321ea",
    ("general", 2, 6): "c1206af025482a94122469a30bb7c24ddae573e4b00a2243a4c0c57c532e6afe",
    ("general", 2, 7): "16a9d853418b6df5875d807632378036cf6b67569e42ed2f0bd9e6e27421b6eb",
    ("general", 2, 9): "b78e6ae884400c329a132332ac8a68e5f52f675479a52e1ae0269990d5891a2e",
    ("general", 2, 13): "215ed4b51b7d926669b510f4abb6d95ab48ba94122d118f5f5ddab3098d86ce4",
    ("general", 3, 6): "bfc00606680f51ed046bf1e49f891d1408ff2cdf088ffc09dfbd7804c3bec81d",
    ("general", 3, 7): "5eb8ef5c468ce06f5041ac58ad1a119b1de1805faba857b0137aef03ffc845fb",
    ("general", 3, 9): "fa6ca876e9549dda32c305d2555ec65c4252f772deaabf40dfae68d741454cf3",
    ("general", 3, 13): "02ae2d8b144cb1b852a881f496d400782057d2408205158a7f52113065d511f4",
    ("general", 4, 6): "0dab4dfceecec87c5fd1d2b4e0183082719fc154075d50f6f9a7913c9aaa82dd",
    ("general", 4, 7): "7cadc982d7852b0ecf9396535ad59f22f7027cb84bf8aec7bc523baad9028dc7",
    ("general", 4, 9): "3b734e48bd0aa80f5b0e463f067ff7fd5446600697febdf404f0239625e05e09",
    ("general", 4, 13): "3d1b670f742c2d8157dc25fa2b01e83686a37641de675a59c8eb3309d4e513e0",
    ("general", 5, 6): "690c03e8e775d9642f83eb50ac3c3d7b556b1b65dc23b7c7ea71b8e221b43a69",
    ("general", 5, 7): "49c07da419484fb0515da9ef4c27878d296b9f6242c24b84c9904abaeb1ee293",
    ("general", 5, 9): "0eb292410693a8371a13d52d7c9550e026166e09771a2ed4d81e55887b9c0850",
    ("general", 5, 13): "9cd811ef1495c13dff896630fe35d51777d004832a0c958de3e2b64ba889be7c",
    ("sample", 1, 1, 0): "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    ("sample", 2, 30, 1): "0636aacd771240e96f1546489a2c7d853a7de4273bc266cb2cf56cc997fe5416",
    ("sample", 3, 60, 7): "e6aa9d1df684904370fa6c142a8498334414bcf51bdb1554bf76f5d51952923a",
    ("sample", 4, 120, 7): "b53d5d2f2f0dfb76753a40573b1ced9540957d67d87c5e531097c8b80709386e",
    ("sample", 6, 500, 3): "617fbf3c7fb9bd10794a1977bcab3319a17bff58ace042cf1a2f5da9c410ade5",
    ("sample", 8, 257, 11): "849b05e07de4297e0d7f36dcf30fc941c2de47d4c9e14ab11e4de33bd39fa9f5",
    # one-digit rows at k = 9, multi-digit fields from k = 10 on, and n = 1, 2
    ("sample", 9, 200, 5): "f7bdd9866b474c8e531f5287ba543dcff1be715491d8fef2303f5e5e391c1c9e",
    ("sample", 10, 200, 5): "d01397b52c8860fee7f56dcdbfde6c0fb84b75d0661e13e1c74f6cd734193d8a",
    ("sample", 12, 300, 1): "b4d9db1bc6539655550e21e59b58b3e3321e035fd6a2bbfce5eebf0484cc058d",
    ("sample", 255, 300, 2): "7d2a511e78d11030a0ecb9824962f6c867365de59f87a47dbfd6915035facc6a",
    ("sample", 12, 1, 0): "8f4f6b55e3c480251f7579fdb93faa642d7ba89292181e94fdd82fc879f29123",
    ("sample", 9, 2, 0): "9dfc1caacce9f01efca18556f82346a2150f8412add5d06513caf4fc16bb1ba9",
    ("sample", 255, 2, 1): "70394f3b93fb74e6b18f05838d33a41dce1ff7dabacedb7f652bbc23a3862426",
}


def _build(key):
    family, *args = key
    if family == "sample":
        return random_gallai_sampler(*args)
    if family == "general":
        k, t = args
        return build_general_lower(k, t, 1, verify=False).graph
    if family == "two-clique":
        return two_clique_witness(*args, verify=False).graph
    build = build_G62 if family == "g62" else build_G82
    return build(*args, verify=False).graph


@pytest.mark.parametrize("key", sorted(PINNED_SHA256), ids=lambda key: "-".join(map(str, key)))
def test_pinned_graph_bytes(key, tmp_path):
    path = str(tmp_path / "g.txt")
    write_graph(_build(key), path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == PINNED_SHA256[key]
