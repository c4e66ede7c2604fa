"""Record semantics of every value class: construction, equality, hashing,
immutability, per-instance defaults and `__post_init__` normalisation."""

import pytest

from euclid2 import corpusdata, rules
from euclid2 import diagram as dg
from euclid2 import script as sc
from euclid2 import terms as T
from euclid2.errors import DegenerateSegment
from euclid2.record import FrozenRecord, Record
from helpers import all_entries

# (class, field) pairs that equality and hashing ignore
NOT_COMPARED = {(T.Segment, "display")}


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        if vars(cls).get("__annotations__"):
            yield cls
        yield from _record_classes(cls)


def _walk(value, out):
    """Collect one instance of each record class reachable from `value`."""
    if isinstance(value, Record):
        out.setdefault(type(value), value)
        value = list(vars(value).values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _walk(item, out)
    elif isinstance(value, dict):
        _walk(list(value.values()), out)


def _samples():
    out = {}
    for name in ("II_5.e2p", "II_6.e2p", "II_10.e2p", "II_11.e2p", "II_14.e2p"):
        script = sc.parse_script(corpusdata.read_script_text(name))
        inst = dg.realize(script)
        _walk([script, inst, rules.check_proof(script, instance=inst)], out)
    text = corpusdata.read_script_text
    for entry in all_entries():
        _walk(sc.parse_script(text(entry["file"])), out)
    _walk(rules.StepOutcome(T.parse_statement("AB == CD")), out)
    return out


SAMPLES = _samples()
CLASSES = sorted(_record_classes(), key=lambda cls: cls.__qualname__)


def test_every_record_class_has_a_sample():
    assert set(SAMPLES) == set(CLASSES)
    assert len(CLASSES) == 44


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_construction_equality_and_hash(cls):
    x = SAMPLES[cls]
    fields = vars(x)
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == x and by_keyword == x and not by_keyword != x
    assert vars(by_keyword) == fields
    if issubclass(cls, FrozenRecord):
        assert hash(by_position) == hash(x) == hash(by_keyword)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(x, name)
    else:
        with pytest.raises(TypeError):
            hash(x)
    assert repr(x).startswith(f"{cls.__qualname__}(")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_only_the_not_compared_fields_are_ignored(cls):
    x = SAMPLES[cls]
    fields = vars(x)
    for name, value in fields.items():
        other = object() if not isinstance(value, int) else value + 7
        try:
            changed = cls(**{**fields, name: other})
        except (TypeError, ValueError, AttributeError):
            continue  # __post_init__ refuses the value, or reads into it
        if (cls, name) in NOT_COMPARED:
            assert changed == x and hash(changed) == hash(x)
        else:
            assert changed != x


def test_equality_is_same_class_only():
    assert sc.StepRef(1) != sc.HypRef(1)
    assert sc.StepRef(1) == sc.StepRef(1)
    assert T.Segment("A", "B") != ("A", "B")


def test_not_compared_fields():
    assert T.Segment("A", "B", display="BA") == T.Segment("B", "A", display="AB")
    assert hash(T.Segment("A", "B", display="BA")) == hash(T.Segment("A", "B"))


def test_construction_fact_builds_its_statement_on_demand():
    fact = dg.ConstructionFact("segeq", (("A", "C"), ("B", "C")), "Midpoint")
    assert dg.ConstructionFact._fields == ("kind", "labels", "reason")
    assert fact.statement == T.parse_statement("CA == BC")
    assert fact.statement.text() == "AC == BC"
    lone = dg.ConstructionFact("segeq", (("B", "G"), ("A", None)), "CopiedLength")
    assert lone.statement.text() == "BG == A" and lone.statement.b.standalone


def test_list_and_dict_defaults_are_per_instance():
    a, b = dg.DiagramInstance(), dg.DiagramInstance()
    a.coords["A"] = (0, 0)
    a.facts.append(None)
    a.built_boxes.append(None)
    assert b.coords == {} and b.facts == [] and b.built_boxes == []
    assert a.standalone is not b.standalone
    args = ("II.1", "default", "accepted", None, None, [], [], "")
    r, s = sc.CheckReport(*args), sc.CheckReport(*args)
    r.certificates.append({})
    assert s.certificates == []


def test_post_init_normalises_and_validates():
    s = T.Segment("G", "B", display="GB")
    assert (s.a, s.b, s.text()) == ("B", "G", "GB")
    with pytest.raises(DegenerateSegment):
        T.Segment("A", "A")
    with pytest.raises(ValueError):
        T.FigureName("ABCDE")
    with pytest.raises(ValueError):
        T.FigureName("")
    with pytest.raises(ValueError):
        T.Multiple(1, T.SquareOn(s))
    with pytest.raises(ValueError):
        T.Multiple(2, T.Multiple(2, T.SquareOn(s)))
    with pytest.raises(ValueError):
        T.TermSum(())
    sq_ab, sq_bg = T.SquareOn(T.Segment("A", "B")), T.SquareOn(s)
    assert T.TermSum((sq_bg, sq_ab)).terms == (sq_ab, sq_bg)
    assert T.TermSum(terms=(sq_bg, sq_ab)) == T.TermSum((sq_ab, sq_bg))
