"""The byte-identity contract in tier-1: one of ``tests/golden/contract.txt``'s
digests, recomputed. ``tests/contract.py`` writes the whole file by hand."""

from contract import digest, outputs, pinned


def test_the_seed_1_eval_csv_matches_its_pinned_digest():
    assert digest("eval-verify", 1) == pinned()["eval seed=1"]


def test_the_contract_pins_every_output_it_names():
    assert list(pinned()) == [label for label, *_ in outputs()]
