"""The one rule catalog: every check layer's codes in one registry."""

import pytest

from repro.checks.rules import Rule, all_rules, get_rule, register

LAYERS = {
    "DET": [f"DET00{n}" for n in range(1, 9)],
    "CERT": [f"CERT00{n}" for n in range(1, 7)],
    "ANA": [f"ANA00{n}" for n in range(1, 7)],
    "MC": [f"MC00{n}" for n in range(1, 7)],
}


def test_codes_are_unique_across_layers():
    codes = [rule.code for rule in all_rules()]
    assert len(codes) == len(set(codes))
    assert sorted(codes) == sorted(code for layer in LAYERS.values() for code in layer)


@pytest.mark.parametrize("prefix", sorted(LAYERS))
def test_prefix_selects_exactly_that_layer_in_order(prefix):
    assert [rule.code for rule in all_rules(prefix)] == LAYERS[prefix]


def test_only_lint_rules_carry_a_scope():
    for rule in all_rules():
        assert (rule.scope is not None) == rule.code.startswith("DET")


def test_get_rule_spans_layers():
    assert get_rule("CERT001").name == "serializable"
    assert get_rule("ANA005").name == "static-feasibility"
    assert get_rule("MC004").name == "deadlock-freedom"
    with pytest.raises(KeyError):
        get_rule("MC999")


def test_duplicate_codes_are_rejected():
    with pytest.raises(ValueError, match="duplicate rule code CERT001"):
        register(Rule("CERT001", "again", "a second CERT001"))
