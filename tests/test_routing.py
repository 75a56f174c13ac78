import hashlib
import math
import random
from fractions import Fraction

import pytest

from helpers import (build_net, close, dijkstra_all_arcs, enumerate_best_route,
                     enumerate_min_weight, exact_weight, grid_inputs, ingest, random_network,
                     random_registry)
from potholesim.network import UnknownArcError, UnknownNodeError, network_from_dict
from potholesim.registry import PotholeRegistry
from potholesim.routing import UnreachableError, fmt_num, format_route_trace, route
from potholesim.server import (ErrorResponse, RoutingSession, Server, ServerStats,
                               modify_destination)
from potholesim.weighting import apply_update, preprocess


def weighted(net, reports=()):
    reg = PotholeRegistry(net)
    for i, (arc, offset, depth) in enumerate(reports):
        ingest(reg, arc, offset, depth, now=i)
    return preprocess(net, reg), reg


class TestGda:
    """The generalized Dijkstra algorithm (GDA) that `route` runs: one
    relaxation per ordered node pair, over the pair's least arc."""

    def test_isolated_source(self):
        net = build_net([("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
                        [("x", "b", "c", 5.0)])
        wnet, _ = weighted(net)
        assert route(wnet, "a", "a").arcs == ()
        for dest in ("b", "c"):
            with pytest.raises(UnreachableError):
                route(wnet, "a", dest)

    def test_parallel_arcs_use_pair_minimum(self, parallel_net):
        wnet, _ = weighted(parallel_net, [("a1", 1.0, 0.6), ("a2", 1.0, 1.0)])
        # weights: a1 = 0.6*5 = 3, a2 = 1.0*7 = 7
        assert wnet.arc_weights["a1"] == 3.0
        rt = route(wnet, "u", "v")
        assert rt.arcs == ("a1",) and rt.total_weight == 3.0

    def test_random_graphs_match_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            net = random_network(rng, max_nodes=6)
            wnet = preprocess(net, random_registry(rng, net))
            for source in sorted(net.nodes):
                for dest in sorted(net.nodes):
                    if dest == source:
                        continue
                    expected = enumerate_min_weight(wnet, source, dest)
                    if math.isinf(expected):
                        with pytest.raises(UnreachableError):
                            route(wnet, source, dest)
                        continue
                    assert close(route(wnet, source, dest).total_weight, expected)

    def test_unknown_source(self, line_net):
        wnet, _ = weighted(line_net)
        with pytest.raises(UnknownNodeError):
            route(wnet, "ghost", "v")

    def test_negative_weight_detected(self, line_net):
        # and every other weight that is not a finite number >= 0
        for bad in (-1.0, math.inf, math.nan):
            wnet, _ = weighted(line_net)
            wnet.arc_weights["a1"] = bad
            with pytest.raises(ValueError, match="arc 'a1'"):
                route(wnet, "u", "v")


def test_pair_collapse_equals_all_arc_relaxation():
    rng = random.Random(17)
    for _ in range(40):
        net = random_network(rng, max_nodes=6)
        wnet = preprocess(net, random_registry(rng, net))
        for source in sorted(net.nodes):
            exact = dijkstra_all_arcs(wnet, source)
            for dest in sorted(net.nodes):
                if dest not in exact:
                    with pytest.raises(UnreachableError):
                        route(wnet, source, dest)
                    continue
                assert exact_weight(wnet, route(wnet, source, dest).arcs) == exact[dest]


# recorded before any change to `route`'s search; a changed arc, tie-break,
# float total or reachability for any one pair changes it
ROUTES_DIGEST = "3b2b08cb02220b37b0eb31f745ab9d7fb87f7f6595016ad9f9e5c0485a72bdd9"


def test_routes_keep_every_field():
    """One SHA-256 over every route of 300 seeded random multigraphs (every
    ordered node pair) and of 30 seeded pairs on a 20 x 20 grid, each
    weighted by a seeded registry."""
    digest = hashlib.sha256()
    counts = {"found": 0, "unreachable": 0}

    def add(wnet, source, dest):
        try:
            rt = route(wnet, source, dest)
        except UnreachableError:
            line = f"{source} {dest} unreachable"
            counts["unreachable"] += 1
        else:
            line = f"{source} {dest} {rt.arcs!r} {rt.total_weight!r} {rt.total_length_m!r}"
            counts["found"] += 1
        digest.update(f"{line}\n".encode())

    rng = random.Random(31)
    for _ in range(300):
        net = random_network(rng)
        wnet = preprocess(net, random_registry(rng, net))
        for source in sorted(net.nodes):
            for dest in sorted(net.nodes):
                add(wnet, source, dest)
    net = network_from_dict(grid_inputs(size=20)[0])
    wnet = preprocess(net, random_registry(rng, net, max_potholes=300))
    nodes = sorted(net.nodes)
    for _ in range(30):
        add(wnet, rng.choice(nodes), rng.choice(nodes))
    assert counts["found"] > 5_000 and counts["unreachable"] > 1_000
    assert digest.hexdigest() == ROUTES_DIGEST


class TestRoute:
    def test_source_equals_dest(self, triangle_net):
        wnet, _ = weighted(triangle_net)
        rt = route(wnet, "s", "s")
        assert rt.arcs == () and rt.total_weight == 0.0 and rt.total_length_m == 0.0

    def test_two_hop_beats_heavy_direct(self, triangle_net):
        # direct arc weighs 1*10=10; the two-hop alternative weighs 0.5*8*2=8
        wnet, _ = weighted(triangle_net, [("sd", 5.0, 1.0),
                                          ("sm", 4.0, 0.5), ("md", 4.0, 0.5)])
        assert wnet.arc_weights["sd"] == 10.0
        assert wnet.arc_weights["sm"] == wnet.arc_weights["md"] == 4.0
        rt = route(wnet, "s", "d")
        assert rt.arcs == ("sm", "md")
        assert rt.total_weight == 8.0

    def test_clean_network_minimizes_length(self, triangle_net):
        wnet, _ = weighted(triangle_net)
        rt = route(wnet, "s", "d")
        # all weights zero; enumeration over lengths picks the 10 m direct arc
        best = enumerate_best_route(wnet, "s", "d")
        assert best[1] == Fraction(10)
        assert rt.arcs == best[2] == ("sd",)
        assert rt.total_length_m == 10.0

    def test_unreachable(self):
        net = build_net([("a", 0, 0), ("b", 1, 0)], [("x", "b", "a", 5.0)])
        wnet, _ = weighted(net)
        with pytest.raises(UnreachableError):
            route(wnet, "a", "b")

    def test_unknown_nodes(self, line_net):
        wnet, _ = weighted(line_net)
        with pytest.raises(UnknownNodeError):
            route(wnet, "u", "ghost")

    def test_full_tie_break_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(40):
            net = random_network(rng, max_nodes=5, max_parallel=2, pair_p=0.4)
            # coarse depths force plenty of exact weight ties, incl. zeros
            reg = PotholeRegistry(net)
            for i, arc_id in enumerate(sorted(net.arcs)):
                if rng.random() < 0.5:
                    arc = net.arcs[arc_id]
                    ingest(reg, arc_id, round(rng.uniform(0, arc.length_m), 1),
                           rng.choice([0.0, 10.0, 20.0]), now=i)
            wnet = preprocess(net, reg)
            for source in sorted(net.nodes):
                for dest in sorted(net.nodes):
                    best = enumerate_best_route(wnet, source, dest)
                    if best is None:
                        with pytest.raises(UnreachableError):
                            route(wnet, source, dest)
                        continue
                    rt = route(wnet, source, dest)
                    assert rt.arcs == best[2]
                    assert close(rt.total_weight, float(best[0]))
                    assert close(rt.total_length_m, float(best[1]))

    def test_weight_tied_parallel_arcs_pick_shorter(self):
        # a1: 1 mm avg over 100 m and a2: 10 mm avg over 10 m both weigh 100;
        # the pair minimum and the route's length tie-break must both choose
        # the physically shorter a2 over the smaller id a1
        net = build_net([("u", 0, 0), ("v", 100, 0)],
                        [("a1", "u", "v", 100.0), ("a2", "u", "v", 10.0)])
        reg = PotholeRegistry(net)
        ingest(reg, "a1", 50.0, 1.0)
        ingest(reg, "a2", 5.0, 10.0)
        wnet = preprocess(net, reg)
        assert wnet.min_weights[("u", "v")] == (100.0, 10.0, "a2")
        rt = route(wnet, "u", "v")
        assert rt.arcs == ("a2",) and rt.total_length_m == 10.0

    def test_lexicographic_tie_prefers_prefix_smaller_id(self):
        # both paths weigh 0 over 20 m; sequence ("a1","a2") sorts before
        # ("a10",) because "a1" < "a10" on the first arc id
        net = build_net([("u", 0, 0), ("m", 10, 0), ("v", 20, 0)],
                        [("a10", "u", "v", 20.0), ("a1", "u", "m", 10.0),
                         ("a2", "m", "v", 10.0)])
        wnet, _ = weighted(net)
        assert route(wnet, "u", "v").arcs == ("a1", "a2")

    def test_repeated_calls_bit_identical(self, triangle_net):
        wnet, _ = weighted(triangle_net, [("sd", 5.0, 1.0)])
        first = route(wnet, "s", "d")
        for _ in range(5):
            again = route(wnet, "s", "d")
            assert again == first

    def test_route_chains_and_totals(self):
        rng = random.Random(29)
        for _ in range(20):
            net = random_network(rng, max_nodes=6)
            wnet = preprocess(net, random_registry(rng, net))
            nodes = sorted(net.nodes)
            source, dest = rng.choice(nodes), rng.choice(nodes)
            try:
                rt = route(wnet, source, dest)
            except UnreachableError:
                continue
            at = source
            w = l = 0.0
            for arc_id in rt.arcs:
                arc = net.arcs[arc_id]
                assert arc.tail == at
                at = arc.head
                w += wnet.arc_weights[arc_id]
                l += arc.length_m
            assert at == dest
            assert rt.total_weight == w
            assert rt.total_length_m == l


def session_on(net, arc, reports=()):
    """A session on `arc` whose server holds `reports`."""
    wnet, reg = weighted(net, reports)
    return RoutingSession(Server(net, reg, wnet, bytes(32)), arc)


def session_state(session):
    return session.current_arc, session.destination, session.route, list(session.pending_arcs)


def test_session_on_an_unknown_arc_is_refused_where_it_is_made(line_net):
    # refused here, not later in `display`, which reads a weight off the reply
    session = session_on(line_net, "a1")
    with pytest.raises(UnknownArcError, match="^zz$"):
        RoutingSession(session.server, "zz")
    assert session.server.stats == ServerStats()


class TestCurrentArcWeight:
    """With no destination the session displays its current arc's weight,
    which it asks the server for."""

    def test_clean_arc(self, line_net):
        session = session_on(line_net, "a1")
        shown = session.display()
        assert type(shown) is float and shown == 0.0
        assert session.server.stats.queries_answered == 1

    def test_matches_weighting(self, line_net):
        assert session_on(line_net, "a1", [("a1", 2.0, 3.0)]).display() == 30.0

    def test_reflects_mid_drive_ingest(self, line_net):
        session = session_on(line_net, "a1")
        server = session.server
        assert session.display() == 0.0
        ingest(server.registry, "a1", 2.0, 3.0)
        apply_update(server.wnet, "a1", server.registry)
        assert session.display() == 30.0


class TestModifyDestination:
    def test_clearing_reverts_to_weight_display(self, triangle_net):
        session = session_on(triangle_net, "sd", [("sd", 5.0, 1.0)])
        wnet = session.server.wnet
        modify_destination(session, "d")
        out = modify_destination(session, None)
        assert out == wnet.arc_weights["sd"]
        assert session.display() == wnet.arc_weights["sd"]

    def test_change_at_node_equals_fresh_query(self, triangle_net):
        # vehicle on sm, so its next upcoming node (the anchor) is m
        session = session_on(triangle_net, "sm", [("sd", 5.0, 1.0)])
        out = modify_destination(session, "d")
        assert out == route(session.server.wnet, "m", "d")
        assert session.pending_arcs == list(out.arcs)
        assert session.server.stats.queries_answered == 1

    def test_dest_equal_to_anchor_gives_empty_route(self, triangle_net):
        session = session_on(triangle_net, "sm")
        out = modify_destination(session, "m")
        assert out.arcs == () and out.total_weight == 0.0

    def test_unchanged_destination_is_noop(self, triangle_net):
        session = session_on(triangle_net, "sm")
        first = modify_destination(session, "d")
        again = modify_destination(session, "d")
        assert again == first
        assert session.server.stats.queries_answered == 1

    def test_unknown_destination(self, triangle_net):
        session = session_on(triangle_net, "sm")
        before = session_state(session)
        out = modify_destination(session, "ghost")
        assert isinstance(out, ErrorResponse) and out.message.startswith("UnknownNodeError")
        assert session_state(session) == before
        assert session.server.stats.queries_failed == 1

    def test_unreachable_destination_keeps_the_route(self, triangle_net):
        # from md's head d no arc leaves, so s cannot be reached
        session = session_on(triangle_net, "md")
        modify_destination(session, "d")
        before = session_state(session)
        out = modify_destination(session, "s")
        assert isinstance(out, ErrorResponse) and out.message.startswith("UnreachableError")
        assert session_state(session) == before and before[1] == "d"


class TestTraceFormat:
    def test_identity_route(self, triangle_net):
        wnet, _ = weighted(triangle_net)
        assert format_route_trace(wnet, route(wnet, "s", "s")) == "TOTAL 0 0\n"

    def test_lines(self, triangle_net):
        wnet, _ = weighted(triangle_net, [("sd", 5.0, 1.0),
                                          ("sm", 4.0, 0.5), ("md", 4.0, 0.5)])
        text = format_route_trace(wnet, route(wnet, "s", "d"))
        assert text.splitlines() == [
            "sm s m 4 8",
            "md m d 4 8",
            "TOTAL 8 16",
        ]

    def test_fmt_num(self):
        assert fmt_num(0.0) == "0"
        assert fmt_num(30.0) == "30"
        assert fmt_num(2.5) == "2.5"

    @pytest.mark.parametrize("x, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                         (math.nan, "nan")])
    def test_fmt_num_of_a_non_finite_number_is_its_repr(self, x, text):
        assert fmt_num(x) == text
