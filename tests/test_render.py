from tpfact.permutations import Permutation
from tpfact.render import isotopy_dot, render_ascii, render_svg
from tpfact.schemes import enumerate_isotopy_types, parse_scheme, seed_scheme

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def test_ascii_layout():
    text = render_ascii(parse_scheme(RUNNING))
    lines = text.splitlines()
    # four wire rows, three strips, one token footer
    assert len(lines) == 8
    assert lines[0].startswith("4 ")
    assert lines[6].startswith("1 ")
    assert lines[7].split() == RUNNING.split()
    # one mark per symbol
    body = "\n".join(lines[:7])
    assert body.count("*") == 4
    assert body.count("X") == 4
    assert body.count("x") == 5


def test_ascii_marks_sit_on_their_rows():
    text = render_ascii(parse_scheme("h1 f1 h2 e1"))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].count("*") == 1  # h2 on wire 2
    assert lines[2].count("*") == 1  # h1 on wire 1
    assert lines[1].count("x") == 1 and lines[1].count("X") == 1


def test_ascii_aligns_two_digit_wires():
    # n = 11: every wire, strip and token row starts its drawing at the
    # same column, the width of the widest label plus one
    u = Permutation((1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10))
    sch = seed_scheme(u, Permutation.identity(11))
    lines = render_ascii(sch).splitlines()
    assert len(lines) == 2 * 11
    width = 3 + 4 * sch.length
    assert [len(line) for line in lines] == [width] * len(lines)
    for k, line in enumerate(lines[:-1]):
        if k % 2 == 0:
            assert line[:3] == f"{11 - k // 2:<3}" and line[3] == "-", line
        else:
            assert line[:3] == "   ", line
    assert lines[-1][:3] == "   " and lines[-1][3:].split() == str(sch).split()
    assert lines[1][3:].strip() == "x"  # f10, between wires 11 and 10


def test_svg_structure():
    svg = render_svg(parse_scheme(RUNNING))
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    # one polyline per pseudoline of each family
    assert svg.count("<polyline") == 8
    assert svg.count("<circle") == 4
    assert svg.count("<text") == 8


def test_dot_output():
    w0 = Permutation.longest_element(2)
    graph = enumerate_isotopy_types(w0, w0)
    dot = isotopy_dot(graph)
    assert dot.startswith("graph isotopy {")
    assert dot.endswith("}")
    assert dot.count("n0 --") + dot.count("n1 --") == len(graph.edges)
    assert '[label="' in dot
