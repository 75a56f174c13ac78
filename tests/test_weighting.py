import csv
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_net, close, grid_inputs, ingest, random_network, random_registry
from potholesim.network import UnknownArcError, load_network
from potholesim.registry import PotholeRegistry
from potholesim.weighting import apply_update, csv_rows, preprocess


def damage_columns(net, reg, arc_id):
    """(pothole_count, avg_damage_mm) of the arc's row in the weighting CSV."""
    return next(row[4:6] for row in csv_rows(preprocess(net, reg), reg) if row[0] == arc_id)


class TestArcDamage:
    def test_two_potholes(self, line_net):
        reg = PotholeRegistry(line_net)
        ingest(reg, "a1", 1.0, 2.0)
        ingest(reg, "a1", 6.0, 4.0)
        # direct arithmetic: count 2, average (2+4)/2
        assert damage_columns(line_net, reg, "a1") == [2, 3.0]

    def test_clean_arc_is_zero(self, line_net):
        reg = PotholeRegistry(line_net)
        assert damage_columns(line_net, reg, "a1") == [0, 0.0]

    def test_single_pothole_average_identity(self, line_net):
        reg = PotholeRegistry(line_net)
        ingest(reg, "a1", 1.0, 5.0)
        assert damage_columns(line_net, reg, "a1")[1] == 5.0


class TestPreprocess:
    def test_weight_is_damage_times_length(self, line_net):
        reg = PotholeRegistry(line_net)
        ingest(reg, "a1", 1.0, 2.0)
        ingest(reg, "a1", 6.0, 4.0)
        wnet = preprocess(line_net, reg)
        assert wnet.arc_weights["a1"] == 3.0 * 10.0

    def test_clean_arc_weighs_zero(self, parallel_net):
        wnet = preprocess(parallel_net, PotholeRegistry(parallel_net))
        assert wnet.arc_weights["a1"] == 0.0
        assert wnet.arc_weights["a2"] == 0.0

    def test_parallel_arcs_min_selects_smaller_product(self, parallel_net):
        reg = PotholeRegistry(parallel_net)
        ingest(reg, "a1", 1.0, 4.0)   # 4 mm on the 5 m arc  -> 20
        ingest(reg, "a2", 1.0, 2.0)   # 2 mm on the 7 m arc  -> 14
        wnet = preprocess(parallel_net, reg)
        assert wnet.arc_weights["a1"] == 20.0
        assert wnet.arc_weights["a2"] == 14.0
        assert wnet.min_weights[("u", "v")] == (14.0, 7.0, "a2")

    def test_pair_minimum_tie_broken_by_arc_id(self):
        # equal weight and length: the smaller arc id is the pair minimum
        net = build_net([("u", 0.0, 0.0), ("v", 10.0, 0.0)],
                        [("a5", "u", "v", 10.0), ("a2", "u", "v", 10.0)])
        reg = PotholeRegistry(net)
        wnet = preprocess(net, reg)
        assert wnet.min_weights[("u", "v")] == (0.0, 10.0, "a2")
        ingest(reg, "a2", 5.0, 3.0)
        apply_update(wnet, "a2", reg)
        assert wnet.min_weights[("u", "v")] == (0.0, 10.0, "a5")


class TestApplyUpdate:
    def test_clean_arc_transitions_to_weighted(self, line_net):
        reg = PotholeRegistry(line_net)
        wnet = preprocess(line_net, reg)
        assert wnet.arc_weights["a1"] == 0.0
        ingest(reg, "a1", 2.0, 30.0)
        apply_update(wnet, "a1", reg)
        full = preprocess(line_net, reg)
        assert wnet.arc_weights["a1"] == full.arc_weights["a1"] == 300.0

    def test_idempotent_without_registry_change(self, parallel_net):
        reg = PotholeRegistry(parallel_net)
        ingest(reg, "a1", 1.0, 4.0)
        wnet = preprocess(parallel_net, reg)
        before = dict(wnet.arc_weights)
        apply_update(wnet, "a1", reg)
        assert wnet.arc_weights == before

    def test_max_merge_never_lowers_weight(self, line_net):
        reg = PotholeRegistry(line_net)
        wnet = preprocess(line_net, reg)
        ingest(reg, "a1", 2.0, 30.0, now=0)
        apply_update(wnet, "a1", reg)
        w1 = wnet.arc_weights["a1"]
        ingest(reg, "a1", 2.3, 45.0, now=1)   # deeper duplicate merges
        apply_update(wnet, "a1", reg)
        w2 = wnet.arc_weights["a1"]
        assert w2 >= w1
        assert wnet.arc_weights == preprocess(line_net, reg).arc_weights

    def test_unknown_arc(self, line_net):
        wnet = preprocess(line_net, PotholeRegistry(line_net))
        with pytest.raises(UnknownArcError):
            apply_update(wnet, "zz", PotholeRegistry(line_net))


def _assert_same_state(a, b):
    assert a.arc_weights == b.arc_weights
    assert a.min_weights == b.min_weights


def _assert_pair_minima(wnet):
    # brute force: scan every arc once, keep each pair's least
    # (weight, length, arc id) key
    best = {}
    for arc in wnet.base.arcs.values():
        key = (wnet.arc_weights[arc.id], arc.length_m, arc.id)
        pair = (arc.tail, arc.head)
        if pair not in best or key < best[pair]:
            best[pair] = key
    assert wnet.min_weights == best


def test_incremental_equals_full_random_sequences():
    rng = random.Random(2024)
    for _ in range(30):
        net = random_network(rng, max_nodes=5)
        arc_ids = sorted(net.arcs)
        reg = PotholeRegistry(net)
        wnet = preprocess(net, reg)
        _assert_pair_minima(wnet)
        for i in range(rng.randint(0, 12)):
            arc = net.arcs[rng.choice(arc_ids)]
            ingest(reg, arc.id, round(rng.uniform(0, arc.length_m), 3),
                   round(rng.uniform(0, 60), 3), now=i)
            apply_update(wnet, arc.id, reg)
            _assert_pair_minima(wnet)
        _assert_same_state(wnet, preprocess(net, reg))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(0.0, 30.0, allow_nan=False),
                          st.floats(0.0, 80.0, allow_nan=False)), max_size=12),
       st.integers(0, 2**32 - 1))
def test_weights_non_negative_and_merge_monotone(reports, seed):
    # Monotonicity holds per merged record (max-merge) and therefore for any
    # report that deduplicates into an existing pothole.  A *new* pothole
    # shallower than the arc's current average legitimately lowers the
    # average-damage weight, so only merges are asserted monotone here.
    net = build_net([("u", 0.0, 0.0), ("v", 30.0, 0.0)],
                    [("a1", "u", "v", 30.0), ("a2", "u", "v", 12.5)])
    reg = PotholeRegistry(net)
    wnet = preprocess(net, reg)
    prev = dict(wnet.arc_weights)
    for i, (offset, depth) in enumerate(reports):
        arc = "a1" if (seed >> i) & 1 else "a2"
        offset = min(offset, net.arcs[arc].length_m)
        _, is_new = ingest(reg, arc, offset, depth, now=i)
        apply_update(wnet, arc, reg)
        for arc_id, w in wnet.arc_weights.items():
            assert w >= 0.0
        if not is_new:
            assert wnet.arc_weights[arc] >= prev[arc]
        prev = dict(wnet.arc_weights)


def test_units_are_exact_products():
    net = build_net([("u", 0.0, 0.0), ("v", 30.0, 0.0)], [("a1", "u", "v", 12.5)])
    reg = PotholeRegistry(net)
    ingest(reg, "a1", 3.0, 7.25)
    wnet = preprocess(net, reg)
    assert wnet.arc_weights["a1"] == 7.25 * 12.5  # mm * m, no hidden normalization


def test_algorithm_oracle_random_instances():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        net = random_network(rng, max_nodes=5)
        reg = random_registry(rng, net)
        wnet = preprocess(net, reg)
        for arc_id in sorted(net.arcs):
            depths = [r.depth_mm for r in reg.records.values() if r.arc == arc_id]
            if depths:
                expected = (sum(depths) / len(depths)) * net.arcs[arc_id].length_m
                assert close(wnet.arc_weights[arc_id], expected)
            else:
                assert wnet.arc_weights[arc_id] == 0.0
            checked += 1


def _loaded_state(tmp_path, with_registry: bool) -> str:
    """SHA-256 of everything `load_network` and `preprocess` build for the
    12 x 12 grid of `grid_inputs`: the records and indexes of the network
    and the arc weights and pair minima, each in its dict's order."""
    network, _ = grid_inputs(size=12)
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network))
    net = load_network(net_file)
    reg = PotholeRegistry(net)
    if with_registry:
        # potholes on a third of the arcs, with depths whose float sums
        # depend on the order they are added in; rows are shuffled so that
        # the reader has to restore minting order
        rng = random.Random(12)
        rows = []
        for arc_id in sorted(net.arcs):
            if rng.random() < 0.35:
                for _ in range(rng.randint(1, 3)):
                    length = net.arcs[arc_id].length_m
                    rows.append([str(len(rows)), arc_id, rng.uniform(0.0, length),
                                 rng.uniform(0.0, 80.0), 0.5, 0, 0])
        rng.shuffle(rows)
        csv_file = tmp_path / "registry.csv"
        with open(csv_file, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([PotholeRegistry.RECORD_FIELDS, *rows])
        reg = PotholeRegistry.read_csv(csv_file, net)
        assert len(reg.records) == len(rows) > 200
    wnet = preprocess(net, reg)
    state = (
        [(k, n.id, n.x, n.y) for k, n in net.nodes.items()],
        [(k, a.id, a.tail, a.head, a.length_m) for k, a in net.arcs.items()],
        list(net.pairs.items()), list(net.heads.items()), list(net.tails.items()),
        list(wnet.arc_weights.items()), list(wnet.min_weights.items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


# recorded once, before the network records became tuples and preprocess
# took one minimum per pair; never regenerated to make a change pass
LOADED_STATE = {
    False: "4088c5ff27c4a7d312637a56b9a4ea990c910ca142ff213e369d7ca5d360e2de",
    True: "16b1ce148547ddf5b08da5b0e29ba9b37a9193c0f41b07fada55785ffa757a2d",
}


@pytest.mark.parametrize("with_registry", [False, True], ids=["clean", "csv_registry"])
def test_loaded_state_digest(tmp_path, with_registry):
    assert _loaded_state(tmp_path, with_registry) == LOADED_STATE[with_registry]
