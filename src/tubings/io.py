"""Plain-text graph files and collection strings.

A graph file holds one directive per line: ``node <id>`` or
``edge <u> <v> [label]``, with ``#`` starting a comment.  When at least
one ``node`` line is present the file is taken as fully declared and every
edge endpoint must be listed; without any ``node`` line the nodes are
inferred from the edges.

A collection string is comma-separated: numeric entries are nodes, all
others are bundle-edge labels.  The empty string is the empty collection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GraphSyntaxError, UnknownMemberError
from .graphs import _LABEL_RE, Collection, Pseudograph

_INT_RE = re.compile(r"[0-9]+\Z")


@dataclass(frozen=True)
class GraphDocument:
    source: str
    graph: Pseudograph

    @classmethod
    def from_text(cls, text):
        return cls(text, parse_graph(text))

    @classmethod
    def from_path(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise GraphSyntaxError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return cls.from_text(text)


def _parse_id(token, lineno, what):
    if not _INT_RE.match(token):
        raise GraphSyntaxError(f"{what} must be a positive integer, got {token!r}", lineno)
    value = int(token)
    if value <= 0:
        raise GraphSyntaxError(f"{what} must be positive, got {token}", lineno)
    return value


def parse_graph(text):
    """Parse graph-file text into a :class:`Pseudograph`."""
    declared = []
    declared_set = set()
    edges = []
    saw_node_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "node":
            if len(tokens) != 2:
                raise GraphSyntaxError("node line needs exactly one id", lineno)
            n = _parse_id(tokens[1], lineno, "node id")
            if n in declared_set:
                raise GraphSyntaxError(f"node {n} declared twice", lineno)
            declared_set.add(n)
            declared.append(n)
            saw_node_line = True
        elif keyword == "edge":
            if len(tokens) not in (3, 4):
                raise GraphSyntaxError(
                    "edge line needs two endpoints and an optional label", lineno
                )
            u = _parse_id(tokens[1], lineno, "edge endpoint")
            v = _parse_id(tokens[2], lineno, "edge endpoint")
            if len(tokens) == 4:
                label = tokens[3]
                if not _LABEL_RE.match(label):
                    raise GraphSyntaxError(
                        f"label {label!r} must start with a letter and be alphanumeric",
                        lineno,
                    )
                edges.append((u, v, label))
            else:
                edges.append((u, v))
        else:
            raise GraphSyntaxError(f"unknown directive {keyword!r}", lineno)
    if saw_node_line:
        nodes = declared
    else:
        nodes = sorted({n for e in edges for n in e[:2]})
    return Pseudograph(nodes, edges)


def serialize_graph(graph):
    """Graph-file text that parses back to an equal graph."""
    lines = [f"node {n}" for n in graph.nodes]
    for u, v, label in graph.edges:
        if label is None:
            lines.append(f"edge {u} {v}")
        else:
            lines.append(f"edge {u} {v} {label}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_collection(text, graph):
    """Parse a comma-separated member list against a graph's ground set."""
    text = text.strip()
    if not text:
        return Collection.empty()
    members = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UnknownMemberError("empty member in collection string")
        member = int(token) if _INT_RE.match(token) else token
        if member in members:
            raise UnknownMemberError(f"member {member!r} repeated in collection string")
        members.append(member)
    return Collection.of(graph, members)
