from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbymatch import instances
from rbymatch.errors import CapExceededError, ParseError
from rbymatch.graph import ColoredGraph, color_profile, validate_matching
from rbymatch.instances import (
    FEASIBLE_PROFILE,
    RANDOM_CYCLE,
    RANDOM_GRAPH,
    GenSpec,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from rbymatch.lpface import build_lp, solve_lp
from rbymatch.oracle import DEFAULT_CAP


def test_parse_single_edge():
    g, kr, kb = parse_instance("graph 2\ne 0 1 R\nrequire 1 0\n")
    assert g.vertex_count == 2
    assert g.edges[0].color == "R"
    assert (kr, kb) == (1, 0)


def test_parse_cycle_shorthand():
    g, kr, kb = parse_instance("cycle RBYBRBYB\nrequire 1 2\n")
    assert g.vertex_count == 8
    assert g.endpoints(7) == (7, 0)
    assert (kr, kb) == (1, 2)


def test_parse_fig3_cycle():
    g, kr, kb = parse_instance("cycle YBYBYRYRYBRBYRBRBR\nrequire 3 3\n")
    assert g.vertex_count == 18 and (kr, kb) == (3, 3)


def test_parse_comments_and_blank_lines():
    text = "# header\n\ngraph 3\ne 0 1 B  # inline\ne 1 2 Y\nrequire 0 1\n"
    g, kr, kb = parse_instance(text)
    assert g.edge_count == 2 and (kr, kb) == (0, 1)


@pytest.mark.parametrize("header", ["graph 21", "cycle " + "RBY" * 7])
def test_parse_rejects_headers_over_the_vertex_cap(header):
    with pytest.raises(CapExceededError):
        parse_instance(header + "\nrequire 0 0\n")
    # the cap check precedes the rest of the file
    with pytest.raises(CapExceededError):
        parse_instance(header + "\nbogus\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("graph 2\ne 0 5 R\nrequire 0 0\n", 2),
        ("graph 2\ne 0 1 Q\nrequire 0 0\n", 2),
        ("graph 2\nbogus\nrequire 0 0\n", 2),
        ("graph 2\ne 0 1 R\n", None),
        ("e 0 1 R\nrequire 0 0\n", 1),
        ("graph 2\ne 0 0 R\nrequire 0 0\n", 2),
        ("graph ²\nrequire 0 0\n", 1),  # a digit to str.isdigit, not to int()
        # int() reads a sign and _ between digits; no field of the file does
        ("graph 1_0\nrequire 0 0\n", 1),
        ("graph +3\nrequire 0 0\n", 1),
        ("graph 12\ne 1_0 2 R\nrequire 0 0\n", 2),
        ("graph 5\ne +3 4 B\nrequire 0 0\n", 2),
        ("graph 5\ne 3 ² B\nrequire 0 0\n", 2),
        ("graph 2\ne 0 1 R\nrequire 0_1 +0\n", 3),
        ("graph 2\ne 0 1 R\nrequire 0 +1\n", 3),
        ("graph 2\ne 0 1 R\nrequire - 0\n", 3),
        ("graph 2\ne 0 -1 R\nrequire 0 0\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text,message",
    [
        ("cycle RBRB\ne 0 1 R\nrequire 1 1\n", "line 2: a cycle instance takes no edge lines"),
        ("# no header\ne 0 1 R\nrequire 0 0\n", "line 2: edge line before graph header"),
    ],
)
def test_parse_names_why_an_edge_line_is_out_of_place(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_instance(text)


@st.composite
def _instances(draw):
    n = draw(st.integers(0, DEFAULT_CAP.max_vertices))
    edge = st.tuples(
        st.integers(0, max(n - 1, 0)),
        st.integers(0, max(n - 1, 0)),
        st.sampled_from("RBY"),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, max_size=DEFAULT_CAP.max_edges)) if n >= 2 else []
    kr, kb = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    return ColoredGraph(n, edges), kr, kb


@given(_instances())
@settings(max_examples=150, deadline=None)
def test_round_trip_identity(instance):
    g, kr, kb = instance
    text = serialize_instance(g, kr, kb)
    assert parse_instance(text) == (g, kr, kb)
    assert serialize_instance(*parse_instance(text)) == text


def test_generator_determinism():
    spec = GenSpec(mode=RANDOM_CYCLE, vertex_count=8, seed=1)
    assert generate_instance(spec) == generate_instance(spec)
    other = GenSpec(mode=RANDOM_CYCLE, vertex_count=8, seed=2)
    assert generate_instance(other) != generate_instance(spec)


def test_generator_zero_density_edgeless():
    spec = GenSpec(
        mode=RANDOM_GRAPH, vertex_count=6, edge_density=Fraction(0), seed=9
    )
    text = generate_instance(spec)
    g, kr, kb = parse_instance(text)
    assert g.edge_count == 0 and (kr, kb) == (0, 0)


@pytest.mark.parametrize(
    "mode, vertex_count",
    [(RANDOM_GRAPH, 21), (RANDOM_CYCLE, 22), (FEASIBLE_PROFILE, 21)],
)
def test_generator_rejects_counts_over_the_vertex_cap(monkeypatch, mode, vertex_count):
    # the cap is checked before any graph is built
    def unbuilt(*args):
        raise AssertionError("graph built past the vertex cap")

    monkeypatch.setattr(instances, "ColoredGraph", unbuilt)
    monkeypatch.setattr(instances, "cycle_graph", unbuilt)
    with pytest.raises(CapExceededError, match=f"{vertex_count} vertices"):
        generate_instance(GenSpec(mode=mode, vertex_count=vertex_count))


@pytest.mark.parametrize(
    "mode, vertex_count, seed",
    [
        pytest.param(RANDOM_GRAPH, 20, 5, id="random_graph-20"),
        pytest.param(RANDOM_CYCLE, 21, 0, id="random_cycle-21"),
    ],
)
def test_generator_keeps_counts_at_the_vertex_cap(mode, vertex_count, seed):
    # seed 5 draws exactly 40 edges on 20 vertices: both caps are met, not passed
    spec = GenSpec(mode=mode, vertex_count=vertex_count, seed=seed)
    g, _, _ = parse_instance(generate_instance(spec))
    assert g.vertex_count == 20
    assert mode == RANDOM_CYCLE or g.edge_count == DEFAULT_CAP.max_edges


def test_generator_rejects_edge_counts_over_the_cap():
    # seed 0 draws 57 edges on 20 vertices, which parse_instance would reject
    with pytest.raises(CapExceededError, match="57 edges exceeds oracle cap 40"):
        generate_instance(GenSpec(RANDOM_GRAPH, 20, seed=0))


def test_generator_feasible_profile_is_lp_feasible():
    rng = random.Random(0)
    for seed in range(12):
        spec = GenSpec(
            mode=FEASIBLE_PROFILE,
            vertex_count=rng.randrange(2, 9),
            edge_density=Fraction(1, 3),
            seed=seed,
        )
        g, kr, kb = parse_instance(generate_instance(spec))
        assert solve_lp(build_lp(g, kr, kb)) is not None


def test_generator_cycle_requirement_on_segment():
    from rbymatch.cycles import on_segment

    for seed in range(10):
        spec = GenSpec(mode=RANDOM_CYCLE, vertex_count=10, seed=seed)
        g, kr, kb = parse_instance(generate_instance(spec))
        even = color_profile(g, range(0, g.edge_count, 2)).rb
        odd = color_profile(g, range(1, g.edge_count, 2)).rb
        assert on_segment((kr, kb), even, odd)
