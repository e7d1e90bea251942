import os
import sys

import pytest

from hypermatch import pipeline, sampling

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def partition_work(monkeypatch):
    """(drawn, scored): the candidates pipeline.choose_partition draws, and
    the ids of those it scores on every key, once per scoring."""
    choose, worst = pipeline.choose_partition, sampling._worst_deviations
    drawn, scored = [], []

    def counted(hypergraph, partitions, alpha):
        def scoring(n, k, completions, offsets, partitions):
            partitions = list(partitions)
            if completions is hypergraph._completions:
                scored.extend(map(id, partitions))
            return worst(n, k, completions, offsets, partitions)

        monkeypatch.setattr(sampling, "_worst_deviations", scoring)
        return choose(hypergraph, (drawn.append(p) or p for p in partitions), alpha)

    monkeypatch.setattr(pipeline, "choose_partition", counted)
    return drawn, scored
