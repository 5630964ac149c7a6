"""Extension bench — detection latency and leakage quantification.

Two questions the paper leaves open, answered on the MNIST measurements:

1. *How fast* can a runtime evaluator confirm the leak?  (Group-sequential
   testing with Bonferroni alpha spending over a doubling schedule.)
2. *How much* does each event leak per single measurement?  (Binned mutual
   information against the 2-bit ceiling of four categories.)
"""

import pytest

from repro.core import format_leakage_bits, sequential_detection
from repro.stats import binned_mutual_information
from repro.uarch import HpcEvent

from .conftest import emit


def test_sequential_detection_latency(benchmark, mnist_result):
    distributions = mnist_result.distributions

    detections = benchmark(sequential_detection, distributions, alpha=0.05)

    result = detections[HpcEvent.CACHE_MISSES]
    lines = [result.format(), "", "pairs distinguishable vs budget:"]
    lines += [f"  n={budget:<4} rejected pairs: {rejections}/6"
              for budget, rejections in result.curve]
    branches = detections[HpcEvent.BRANCHES]
    lines += ["", branches.format()]
    emit("Extension: sequential detection latency - MNIST", "\n".join(lines))

    assert result.detected
    assert result.detection_n <= 40      # far below the full budget
    assert not branches.detected          # branches never confirm


def test_leakage_bits_per_event(benchmark, mnist_result):
    distributions = mnist_result.distributions
    categories = distributions.categories

    def cache_miss_bits():
        return binned_mutual_information(
            {cat: distributions.values(cat, HpcEvent.CACHE_MISSES)
             for cat in categories})

    bits = benchmark(cache_miss_bits)

    emit("Extension: mutual-information leakage per event - MNIST",
         format_leakage_bits(distributions))
    branch_bits = binned_mutual_information(
        {cat: distributions.values(cat, HpcEvent.BRANCHES)
         for cat in categories})
    # cache-misses carries real information; branches is mostly noise.
    assert bits > 0.1
    assert bits > 2 * branch_bits
