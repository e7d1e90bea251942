"""The text formats the CLI reads and writes.

Hypergraph format: line 1 is "k n"; every following nonempty line that does
not start with '#' holds one edge as k ascending 0-based vertex ids
separated by single spaces. Files end with a newline and edges are written
in lexicographic order.

Bipartite format: line 1 is "m"; then m rows, each the ascending neighbor
ids of one left vertex ("-" for an isolated row).

Matrix format: line 1 is "m"; then m rows of m characters '0'/'1'.

Matching format: one edge per line, ascending ids separated by spaces.
"""

from __future__ import annotations

import os
from typing import Union

from .bipartite import BipartiteGraph
from .extensions import ExtensionMatrix
from .hypergraph import Hypergraph

Pathish = Union[str, os.PathLike]


class FormatError(ValueError):
    """Malformed input file; message carries the path and line number."""


def _data_lines(path: Pathish):
    """(line number, stripped line) of each data line of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _ints(path: Pathish, lineno: int, line: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: expected integers, got {line!r}") from exc


def _read_header(path: Pathish, kind: str, names: str):
    """(header fields, iterator over the remaining data lines) of a file
    whose first data line holds the integers named by ``names``."""
    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError(f"{path}: empty {kind} file") from None
    fields = _ints(path, lineno, header)
    if len(fields) != len(names.split()):
        raise FormatError(f"{path}:{lineno}: header must be '{names}'")
    return fields, lines


def read_hypergraph(path: Pathish) -> Hypergraph:
    (k, n), lines = _read_header(path, "hypergraph", "k n")
    edges = []
    for lineno, line in lines:
        edge = _ints(path, lineno, line)
        if len(edge) != k:
            raise FormatError(f"{path}:{lineno}: expected {k} vertex ids")
        edges.append(edge)
    try:
        return Hypergraph(n, k, edges)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_hypergraph(path: Pathish, hypergraph: Hypergraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{hypergraph.k} {hypergraph.n}\n")
        for edge in hypergraph.edges:
            fh.write(" ".join(map(str, edge)) + "\n")


def read_bipartite(path: Pathish) -> BipartiteGraph:
    (m,), lines = _read_header(path, "bipartite", "m")
    rows = []
    for lineno, line in lines:
        rows.append([] if line == "-" else _ints(path, lineno, line))
    if len(rows) != m:
        raise FormatError(f"{path}: expected {m} adjacency rows, got {len(rows)}")
    try:
        return BipartiteGraph(m, rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_extension_matrix(path: Pathish) -> ExtensionMatrix:
    (m,), lines = _read_header(path, "matrix", "m")
    rows = []
    for lineno, line in lines:
        if len(line) != m or any(ch not in "01" for ch in line):
            raise FormatError(f"{path}:{lineno}: expected {m} characters of 0/1")
        rows.append([ch == "1" for ch in line])
    if len(rows) != m:
        raise FormatError(f"{path}: expected {m} matrix rows, got {len(rows)}")
    return ExtensionMatrix(rows)


def write_matching(path: Pathish, matching) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for edge in matching:
            fh.write(" ".join(map(str, edge)) + "\n")
