"""Unit tests for the partial-enumeration OptCacheSelect variant."""

import numpy as np
import pytest

from repro.core.bundle import FileBundle
from repro.core.exact import solve_exact
from repro.core.kenum import opt_cache_select_enum
from repro.core.optcacheselect import FBCInstance, opt_cache_select
from repro.errors import ConfigError


def inst(bundles, values, sizes, budget):
    return FBCInstance(
        bundles=tuple(FileBundle(b) for b in bundles),
        values=tuple(float(v) for v in values),
        sizes=sizes,
        budget=budget,
    )


def test_negative_k_rejected():
    with pytest.raises(ConfigError):
        opt_cache_select_enum(inst([["a"]], [1], {"a": 1}, 2), k=-1)


def test_empty_instance():
    assert opt_cache_select_enum(inst([], [], {}, 5)).total_value == 0.0


def test_k0_equals_refined_greedy(example_instance):
    assert (
        opt_cache_select_enum(example_instance, k=0).total_value
        == opt_cache_select(example_instance).total_value
    )


def test_never_worse_than_greedy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sizes = {f"f{i}": int(rng.integers(1, 9)) for i in range(8)}
        bundles, values = [], []
        for _ in range(int(rng.integers(2, 8))):
            k = int(rng.integers(1, 4))
            fs = rng.choice(8, size=k, replace=False)
            bundles.append([f"f{i}" for i in fs])
            values.append(int(rng.integers(1, 9)))
        i = inst(bundles, values, sizes, int(rng.integers(3, 20)))
        assert (
            opt_cache_select_enum(i, k=2).total_value
            >= opt_cache_select(i).total_value - 1e-9
        )


def test_beats_greedy_on_adversarial_instance():
    # The decoy (v'=5) is ranked first and blocks the second big request;
    # enumeration seeded with both big requests finds the better packing.
    i = inst(
        [["d"], ["b1"], ["b2"]],
        [5, 9, 9],
        {"d": 1, "b1": 3, "b2": 3},
        6,
    )
    greedy = opt_cache_select(i)  # decoy + one big + Step 3 = 14
    enum = opt_cache_select_enum(i, k=2)
    assert greedy.total_value == 14.0
    assert enum.total_value == 18.0
    assert enum.total_value == solve_exact(i).total_value


def test_k2_matches_exact_on_small_instances():
    rng = np.random.default_rng(5)
    wins = 0
    for _ in range(15):
        sizes = {f"f{i}": int(rng.integers(1, 6)) for i in range(7)}
        bundles, values = [], []
        for _ in range(int(rng.integers(3, 7))):
            k = int(rng.integers(1, 3))
            fs = rng.choice(7, size=k, replace=False)
            bundles.append([f"f{i}" for i in fs])
            values.append(int(rng.integers(1, 6)))
        i = inst(bundles, values, sizes, int(rng.integers(4, 15)))
        if (
            opt_cache_select_enum(i, k=2).total_value
            == solve_exact(i).total_value
        ):
            wins += 1
    assert wins >= 13  # near-always optimal at this scale


def test_results_unchanged_on_theory_instances():
    """Seeded completions are pinned, so any change to the greedy kernel
    that alters a selection is caught.

    Digest of the k=1, k=2 and refined selections over the quick scale's
    150 Theorem 4.1 instances.
    """
    import hashlib

    from repro.experiments.theory_bounds import random_instance
    from repro.utils.rng import derive_rng

    rng = derive_rng(20040613, "thm41")
    digest = hashlib.sha256()
    for _ in range(150):
        i = random_instance(
            rng,
            n_requests=int(rng.integers(5, 13)),
            n_files=int(rng.integers(6, 16)),
            budget_fraction=float(rng.uniform(0.2, 0.7)),
        )
        for sel in (
            opt_cache_select_enum(i, k=1),
            opt_cache_select_enum(i, k=2),
            opt_cache_select(i),
        ):
            key = (
                sel.selected,
                sel.total_value,
                sel.used_bytes,
                sel.single_fallback,
                sorted(sel.files),
            )
            digest.update(repr(key).encode())
    assert digest.hexdigest() == (
        "0c282520594f6d1c75a7d61ee0752264e2696ce596ff8ee6a96dbe317b85e4ec"
    )
