"""The protocol's vocabularies are plain ``str`` constants, not enums.

A scenario file spells a policy, mode, scheme or reason as text, and the
code takes that text as it is and compares it with ``==``.  An enum
member equals no string, and reading one off its class goes through the
enum class's ``__getattr__`` on the per-event path.
"""

import enum
import importlib
import pkgutil

import ibac
from ibac import scenario, simnet
from ibac.authcheck import members
from ibac.consumer import ConsumerMode
from ibac.producer import ProtectionPolicy
from ibac.wire import SchemeTag


def test_no_ibac_module_defines_an_enum():
    modules = [importlib.import_module(f"ibac.{m.name}") for m in pkgutil.iter_modules(ibac.__path__)]
    assert len(modules) >= 11
    enums = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    ]
    assert enums == []


def test_each_value_is_spelled_as_its_name_and_the_file_fields_take_them_all():
    for cls in (SchemeTag, ProtectionPolicy, ConsumerMode):
        assert all(getattr(cls, value) == value for value in members(cls))
    assert members(SchemeTag) == ("ENC", "HASH")
    fields = {
        (scenario.NodeSpec, "mode"): ConsumerMode,
        (scenario.NodeSpec, "scheme"): SchemeTag,
        (scenario.ContentSpec, "scheme"): SchemeTag,
        (scenario.ContentSpec, "policy"): ProtectionPolicy,
        (simnet.AdversaryAction, "probe_scheme"): SchemeTag,
    }
    for (record, field), cls in fields.items():
        assert record.__dataclass_fields__[field].metadata["kind"].values == members(cls)
