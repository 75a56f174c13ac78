"""The field rules against the reference copies in `helpers`.

The rules of `potholesim.inputs` test the accepting case first and build
a message only for a value that fails.  Fed arbitrary JSON values, field
names and key sets, they must agree with the reference on accepting or
refusing, on the value returned and on the exact message.  A field's place
is given to the rules as the readers give it, as a name or as the parts of
one, and to the reference as the name.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ref_finite, ref_integer, ref_keys, ref_string
from potholesim.inputs import finite, integer, keys, string

# text with lone surrogates, line breaks and carriage returns among the
# printable characters
TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["", "a", "\r", "a\rb", "\n", "\ud800", "x\udfff", " ", "\t", "é"]))
# past the float range, and past the digits that repr() converts
BIG_INTS = st.one_of(
    st.sampled_from([2 ** 53 + 1, 2 ** 1023, 2 ** 1024, -(2 ** 1024), 10 ** 400]),
    st.integers(4300, 4400).map(lambda digits: 10 ** digits))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), BIG_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]), TEXT)
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)), max_leaves=6)
# a field's place as the readers pass it (a name, or the parts of one), with
# the name the reference is given
WHERE = st.sampled_from([("", ""), ("nodes[0]", "nodes[0]"), (("pits", 12), "pits[12]"),
                         (("vehicles", 1, "waypoints"), "vehicles[1].waypoints"),
                         ("scenario", "scenario")])
NAMES = st.sampled_from(["id", "x", "y", "arc", "dest", "t_ms", "kind"])
KEY_SETS = st.frozensets(NAMES, max_size=4)


def outcome(rule, *args):
    """What `rule(*args)` does: the value it returns, with its type (and a
    float's sign of zero), or the type and message of what it raises."""
    try:
        value = rule(*args)
    except Exception as exc:  # every refusal and a failing repr alike
        return "raise", type(exc), str(exc)
    return "return", type(value), value.hex() if type(value) is float else value


def field(value, key):
    """`value` as the field `key` of an item: a list index when `key` is an
    int, an object member otherwise."""
    return ([None] * key + [value] if isinstance(key, int) else {key: value}), key


@settings(max_examples=400, deadline=None)
@given(value=JSON, key=st.one_of(NAMES, st.integers(0, 3)), where=WHERE)
@example(value=True, key="x", where=(("nodes", 0), "nodes[0]"))
@example(value=10 ** 400, key="x", where=("nodes[0]", "nodes[0]"))
@example(value=float("nan"), key=0, where=(("vehicles", 1, "waypoints"), "vehicles[1].waypoints"))
@example(value="a\rb", key="id", where=("", ""))
@example(value="\ud800", key="id", where=(("arcs", 3), "arcs[3]"))
def test_value_rules_match_reference(value, key, where):
    place, name = where
    for rule, ref in ((finite, ref_finite), (integer, ref_integer), (string, ref_string)):
        assert outcome(rule, *field(value, key), place) == outcome(ref, *field(value, key), name)


@settings(max_examples=400, deadline=None)
@given(obj=st.one_of(JSON, st.dictionaries(NAMES, SCALARS, max_size=5)),
       required=KEY_SETS, optional=KEY_SETS, where=WHERE)
@example(obj={"id": 1, "x": 2}, required=frozenset({"id", "x"}), optional=frozenset(),
         where=(("nodes", 0), "nodes[0]"))
@example(obj={"id": 1, "dest": 2}, required=frozenset({"id"}), optional=frozenset({"dest"}),
         where=(("events", 0), "events[0]"))
@example(obj={"id": 1, "kind": 2}, required=frozenset({"id", "x"}),
         optional=frozenset({"dest"}), where=(("events", 0), "events[0]"))
@example(obj=[], required=frozenset({"id"}), optional=frozenset(), where=(("arcs", 1), "arcs[1]"))
def test_keys_matches_reference(obj, required, optional, where):
    place, name = where
    assert outcome(keys, obj, required, optional, place) == \
        outcome(ref_keys, obj, required, optional, name)
