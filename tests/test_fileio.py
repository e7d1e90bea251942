import pytest

from hypermatch import BipartiteGraph, ExtensionMatrix, sample_hypergraph
from hypermatch.fileio import (
    FormatError,
    read_bipartite,
    read_extension_matrix,
    read_hypergraph,
    write_hypergraph,
    write_matching,
)


def test_hypergraph_round_trip(tmp_path):
    h = sample_hypergraph(10, 3, 0.5, 4)
    path = tmp_path / "h.txt"
    write_hypergraph(path, h)
    assert read_hypergraph(path) == h
    text = path.read_text()
    assert text.startswith("3 10\n")
    assert text.endswith("\n")
    body = text.splitlines()[1:]
    assert body == sorted(body, key=lambda line: [int(t) for t in line.split()])


def test_hypergraph_comments_and_blanks(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# a comment\n3 6\n\n0 1 2\n# another\n3 4 5\n")
    h = read_hypergraph(path)
    assert h.edges == ((0, 1, 2), (3, 4, 5))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1 2\n",
        "3 6\n0 1\n",
        "3 6\n0 1 9\n",
        "3 6\na b c\n",
    ],
)
def test_hypergraph_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError):
        read_hypergraph(path)


@pytest.mark.parametrize("reader,data", [
    (read_hypergraph, b"3 6\n0 1 2\n3 4 \xff\n"),
    (read_bipartite, b"2\n0\n\xff\n"),
    (read_extension_matrix, b"2\n01\n1\xff\n"),
])
def test_undecodable_file_names_its_path_and_line(tmp_path, reader, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        reader(path)
    assert str(info.value) == f"{path}:3: not UTF-8 text (invalid start byte at byte {data.index(0xff)})"


def test_bipartite_round_trip(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("3\n0 2\n-\n1\n")
    assert read_bipartite(path) == BipartiteGraph(3, [[0, 2], [], [1]])


def test_bipartite_malformed(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2\n0 1\n")
    with pytest.raises(FormatError):
        read_bipartite(path)
    path.write_text("1\n3\n")
    with pytest.raises(FormatError):
        read_bipartite(path)


def test_matrix_read(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n10\n11\n")
    mat = read_extension_matrix(path)
    assert isinstance(mat, ExtensionMatrix)
    assert mat.row_sums == (1, 2) and mat.total == 3


def test_matrix_malformed(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n10\n1\n")
    with pytest.raises(FormatError):
        read_extension_matrix(path)
    path.write_text("2\n10\n12\n")
    with pytest.raises(FormatError):
        read_extension_matrix(path)
    path.write_text("3\n010\n001\n")
    with pytest.raises(FormatError, match="expected 3 matrix rows, got 2"):
        read_extension_matrix(path)


def test_matching_round_trip(tmp_path):
    path = tmp_path / "pm.txt"
    write_matching(path, [(0, 1, 2), (3, 4, 5)])
    assert path.read_text() == "0 1 2\n3 4 5\n"
