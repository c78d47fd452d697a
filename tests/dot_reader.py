"""A reader for the DOT that ``io.export_dot`` writes: each line must
have one of the export's shapes, and each quoted string in it must be
a DOT string, which is unescaped back to the text it stands for."""

import re

from skelgraph import io as sio

_DOT_STRING = r'"(?:[^"\\]|\\.)*"'
_DOT_LINES = [re.compile(x.replace("S", _DOT_STRING)) for x in (
    r'graph (S) \{',
    r'  (S) \[label=(S)(?:, locus="1", style=bold)?\];',
    r'  (S) -- (S) \[label="-?\d+/\d+"(?:, locus="1", style=bold|, locus="partial")?\];',
    r'  (S) \[label=(S), shape=plaintext\];',
    r'  (S) -- (S) \[style=dashed\];',
    r'\}',
)]


def parse_dot(text):
    """Each line's kind (its index in _DOT_LINES) and its quoted
    strings, unescaped; every line must be one of the export's shapes."""
    out = []
    for line in text.splitlines():
        kind, match = next((i, m) for i, pattern in enumerate(_DOT_LINES)
                           if (m := pattern.fullmatch(line)))
        out.append((kind, [re.sub(r"\\(.)", r"\1", s[1:-1]) for s in match.groups()]))
    return out


def awkward_graph():
    """Ids, a ray label and a name with quotes and backslashes in them,
    read from JSON."""
    return sio.graph_from_json({
        "name": 'n"\\', "vertices": [{"id": 'a"x'}, {"id": "b\\"}, {"id": 'c\\"d', "N": 2}],
        "edges": [{"a": 'a"x', "b": "b\\"}, {"a": "b\\", "b": 'c\\"d'}],
        "rays": [{"attach": 'c\\"d', "label": 'r"1', "degree": 2}]})


def dot_strings(g):
    """The quoted strings export_dot should write for g, line by line."""
    return [(0, [g.name]),
            *((1, [v.id, f"{v.id} ({v.multiplicity},{v.genus})"]) for v in g.vertices),
            *((2, [e.a, e.b]) for e in g.edges),
            *(x for r in g.rays
              for x in ((3, [r.label, f"{r.label} (deg {r.degree})"]), (4, [r.attach, r.label]))),
            (5, [])]

