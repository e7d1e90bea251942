import os
import sys

import pytest

from hypermatch import pipeline, sampling

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def partition_work(monkeypatch):
    """(drawn, passes): the candidate label rows pipeline.choose_partition
    draws, and per call the passes it scores on every key, each pass a list
    of its label rows as bytes."""
    choose, worst = pipeline.choose_partition, sampling._worst_deviations
    drawn, passes = [], []

    def counted(hypergraph, blocks, alpha):
        full = []

        def scoring(completions, offsets, labels, k):
            if completions is hypergraph._completions:
                full.append([row.tobytes() for row in labels])
            return worst(completions, offsets, labels, k)

        monkeypatch.setattr(sampling, "_worst_deviations", scoring)
        passes.append(full)
        return choose(hypergraph, (drawn.extend(block) or block for block in blocks), alpha)

    monkeypatch.setattr(pipeline, "choose_partition", counted)
    return drawn, passes
