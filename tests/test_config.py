"""One type rule for every config field: a value of the wrong type ends in
a ConfigError that names the field, never in a bare TypeError or in a
silently accepted bool. The cases are drawn from ``dataclasses.fields``,
so a field added later is held to the rule without a new test."""

import math
from dataclasses import fields

import pytest

from clonemap.errors import ConfigError, is_json_int, is_number
from clonemap.evaluation import SynthConfig
from clonemap.mapping import MappingConfig
from clonemap.topicmodel import LdaConfig

CONFIGS = (MappingConfig, LdaConfig, SynthConfig)


class Unrelated:
    """A value of no type any config field takes, with a stable test id."""

    def __repr__(self):
        return "Unrelated()"


def bad_values(config_type):
    """(field name, bad value) for every field of ``config_type``, chosen
    by the field's default. Any field gets a str and an ``Unrelated()``; a
    number also gets True and NaN, and an int the infinity too. For a
    (low, high) pair, each bad value goes into either slot."""
    for field in fields(config_type):
        default = field.default
        pair = isinstance(default, tuple)
        sample = default[0] if pair else default
        wrong = ["0.5", Unrelated()]
        if is_number(sample):
            wrong += [True, math.nan]
        if is_json_int(sample):
            wrong.append(math.inf)
        for value in wrong:
            if pair:
                yield field.name, (value, default[1])
                yield field.name, (default[0], value)
            else:
                yield field.name, value


CASES = [pytest.param(config_type, name, value,
                      id=f"{config_type.__name__}.{name}={value!r}")
         for config_type in CONFIGS for name, value in bad_values(config_type)]


@pytest.mark.parametrize("config_type, name, value", CASES)
def test_wrongly_typed_field_raises_config_error_naming_it(config_type, name,
                                                           value):
    with pytest.raises(ConfigError, match=name):
        config_type(**{name: value})


@pytest.mark.parametrize("field, kwargs", [
    ("death_fraction", {"death_fraction": "0.1"}),
    ("type3_edit_fraction", {"type3_edit_fraction": ("0.1", "0.2")}),
    ("type3_edit_fraction", {"type3_edit_fraction": (False, 0.3)}),
    ("p_unchanged", {"p_unchanged": True, "p_type1": 0.0, "p_type2": 0.0,
                     "p_type3": 0.0}),
    ("birth_fraction", {"group_count": 4, "death_fraction": 0.5,
                        "birth_fraction": True}),
])
def test_synth_values_that_once_slipped_through(field, kwargs):
    """Each of these ended in a bare TypeError or was accepted, and an
    accepted bool would have been written to manifest.json as ``true``."""
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**kwargs)


def test_valid_numbers_of_any_real_type_are_accepted():
    """The rule is about type, not representation: an int where a float
    is expected is a number."""
    config = SynthConfig(p_unchanged=1, p_type1=0, p_type2=0, p_type3=0,
                         type3_edit_fraction=(0, 1), death_fraction=0)
    assert config.p_unchanged == 1
    assert MappingConfig(delta=1).delta == 1
