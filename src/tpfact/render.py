"""Text, SVG and DOT renderings of arrangements and isotopy graphs.

Crossings are laid out left to right at uniform spacing in word order,
which preserves the order of every pair of crossings.  In text output
E-crossings print as X, F-crossings as x, and bullets as *.
"""

from __future__ import annotations

from .schemes import E, F, H

_CELL = 4


def _line_states(n, word):
    """Line labels at heights 1..n at every word position 0..l.

    One forward sweep over the E-crossings and one backward sweep over
    the F-crossings: E-lines start as 1..n at the left border, F-lines
    end as 1..n at the right border.
    """
    def labels(family, symbols):
        state = list(range(1, n + 1))
        states = [tuple(state)]
        for kind, i in symbols:
            if kind == family:
                state[i - 1], state[i] = state[i], state[i - 1]
            states.append(tuple(state))
        return states
    return labels(E, word), labels(F, reversed(word))[::-1]


def render_ascii(scheme):
    """Plain-text picture: n wire rows, strip rows for crossings."""
    n, l = scheme.n, scheme.length
    wire_rows = {j: ["-" * _CELL for _ in range(l)] for j in range(1, n + 1)}
    strip_rows = {j: [" " * _CELL for _ in range(l)] for j in range(1, n)}
    for p, sym in enumerate(scheme.word):
        if sym.kind == H:
            wire_rows[sym.index][p] = "-*-".center(_CELL, "-")
        else:
            mark = "X" if sym.kind == E else "x"
            strip_rows[sym.index][p] = mark.center(_CELL)
    pad = len(str(n)) + 1
    lines = []
    for j in range(n, 0, -1):
        lines.append(f"{j:<{pad}}" + "".join(wire_rows[j]))
        if j > 1:
            lines.append(" " * pad + "".join(strip_rows[j - 1]))
    lines.append(" " * pad + "".join(s.token.ljust(_CELL) for s in scheme.word))
    return "\n".join(lines)


def render_svg(scheme):
    """SVG picture with both pseudoline families and the bullets."""
    n, l = scheme.n, scheme.length
    e_states, f_states = _line_states(n, scheme.word)
    dx, dy, margin = 36, 32, 40
    width = 2 * margin + l * dx
    height = 2 * margin + (n - 1) * dy

    def xpos(p):
        return margin + p * dx

    def ypos(h):
        return margin + (n - h) * dy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>'
    ]
    for label in range(1, n + 1):
        for states, style in (
                (e_states, 'stroke="#1a1a1a" stroke-width="2.4"'),
                (f_states, 'stroke="#999999" stroke-width="1.2"')):
            points = [f"{xpos(p)},{ypos(state.index(label) + 1)}"
                      for p, state in enumerate(states)]
            parts.append(f'<polyline fill="none" {style} '
                         f'points="{" ".join(points)}"/>')
        # line `label` is at height `label` on both borders
        parts.append(f'<text x="{margin - 18}" y="{ypos(label) + 4}" '
                     f'font-size="13">{label}</text>')
        parts.append(f'<text x="{width - margin + 8}" y="{ypos(label) + 4}" '
                     f'font-size="13" fill="#777">{label}</text>')
    for p, sym in enumerate(scheme.word, start=1):
        if sym.kind == H:
            cx = (xpos(p - 1) + xpos(p)) / 2
            parts.append(f'<circle cx="{cx}" cy="{ypos(sym.index)}" r="4.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _format_sets(pair, n):
    rows, cols = pair
    if n <= 9:
        return "".join(map(str, rows)) + "|" + "".join(map(str, cols))
    return ",".join(map(str, rows)) + "|" + ",".join(map(str, cols))


def isotopy_dot(graph):
    """DOT output of an isotopy graph; node labels list the families."""
    lines = ["graph isotopy {", "  node [shape=box, fontsize=10];"]
    n = graph.nodes[0].scheme.n if graph.nodes else 0
    for k, node in enumerate(graph.nodes):
        label = "\\n".join(_format_sets(pair, n) for pair in node.family)
        lines.append(f'  n{k} [label="{label}"];')
    for i, j in sorted(graph.edges):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines)
