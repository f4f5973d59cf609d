import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redwsn.packets import (
    DATA_BYTES,
    NO_FAULT_TAGS,
    SENSOR_FIELDS,
    BoardRole,
    Packet,
    PacketKind,
    SensorReading,
    detect_anomaly,
    packet_from_fields,
    reading_from_fields,
)


def full_reading(value=10.0, **overrides):
    """A reading with every field at value; an override of None is missing."""
    values = [value] * len(SENSOR_FIELDS)
    for name, v in overrides.items():
        values[SENSOR_FIELDS.index(name)] = math.nan if v is None else v
    return SensorReading(values=tuple(values))


def test_twelve_sensor_fields():
    assert len(SENSOR_FIELDS) == 12
    assert len(set(SENSOR_FIELDS)) == 12


def test_complete_reading():
    reading = full_reading()
    assert reading.is_complete()
    assert not np.isnan(reading.values).any()


def test_missing_field_detected():
    reading = full_reading(co2_ppm=None)
    assert not reading.is_complete()
    assert np.flatnonzero(np.isnan(reading.values)).tolist() == [SENSOR_FIELDS.index("co2_ppm")]


def test_packet_is_immutable():
    packet = Packet(kind=PacketKind.DATA, node_id="n1", seq=1)
    with pytest.raises(AttributeError):
        packet.seq = 2
    assert packet.seq == 1 and packet.size_bytes == 0 and packet.reading is None


def assert_same_record(built, expected):
    """Same NamedTuple type and the same value in every field, defaults
    included: a tuple one field short, or of another type, fails."""
    assert type(built) is type(expected)
    assert built._asdict() == expected._asdict()
    assert len(built) == len(expected._fields)


@pytest.mark.parametrize(
    "emergency, corrective", [(False, False), (True, False), (False, True)], ids=["plain", "emergency", "corrective"]
)
def test_packet_helper_builds_the_data_frame_the_constructor_does(emergency, corrective):
    reading = full_reading()
    # The fields in the order the boards pass them.
    built = packet_from_fields(
        (PacketKind.DATA, "n1", BoardRole.PRIMARY, 7, DATA_BYTES, reading, emergency, corrective)
    )
    expected = Packet(
        kind=PacketKind.DATA,
        node_id="n1",
        board_role=BoardRole.PRIMARY,
        seq=7,
        size_bytes=DATA_BYTES,
        reading=reading,
        emergency=emergency,
        corrective=corrective,
    )
    assert_same_record(built, expected)


def test_packet_helper_builds_the_ack_and_heartbeat_the_constructor_does():
    ack = packet_from_fields((PacketKind.ACK, "n1", "", 7, 8, None, False, False))
    assert_same_record(ack, Packet(kind=PacketKind.ACK, node_id="n1", seq=7, size_bytes=8))
    beat = packet_from_fields((PacketKind.HEARTBEAT, "n1", BoardRole.SECONDARY, 3, 12, None, False, False))
    expected = Packet(kind=PacketKind.HEARTBEAT, node_id="n1", board_role=BoardRole.SECONDARY, seq=3, size_bytes=12)
    assert_same_record(beat, expected)


def test_reading_helper_builds_the_fault_free_reading_the_constructor_does():
    values = full_reading().values
    built = reading_from_fields((values, NO_FAULT_TAGS))
    assert_same_record(built, SensorReading(values=values))
    # Every fault-free reading shares the default's empty set.
    assert built.fault_tags is SensorReading._field_defaults["fault_tags"] is NO_FAULT_TAGS


def test_reading_is_an_immutable_tuple_equal_by_value():
    values = (1.0,) * len(SENSOR_FIELDS)
    reading = SensorReading(values, frozenset({"anomaly:co2_ppm"}))
    assert tuple(reading) == (values, frozenset({"anomaly:co2_ppm"}))
    with pytest.raises(AttributeError):
        reading.fault_tags = frozenset()
    with pytest.raises(TypeError):
        reading.values[0] = 2.0
    # Plain tuple equality and hashing: equal values and tags make equal
    # readings, and so equal frames.
    twin = SensorReading(tuple(list(values)), frozenset(reading.fault_tags))
    assert twin is not reading and twin == reading and hash(twin) == hash(reading)
    assert len({reading, twin}) == 1
    assert reading != reading._replace(fault_tags=frozenset())
    assert reading != reading._replace(values=(*values[:-1], 2.0))
    frame = Packet(kind=PacketKind.DATA, seq=1, reading=reading)
    assert frame == frame._replace(reading=twin)
    assert frame != frame._replace(reading=reading._replace(values=(2.0,) * len(SENSOR_FIELDS)))


@given(st.lists(st.sampled_from([1.0, -0.0, math.inf, -math.inf, math.nan]), min_size=12, max_size=12))
def test_missing_fields_match_numpy_isnan(values):
    reading = SensorReading(tuple(values))
    assert reading.is_complete() == (not np.isnan(reading.values).any())


def test_anomaly_threshold_is_strict():
    base = full_reading(100.0)
    at_threshold = full_reading(100.0, co2_ppm=125.0)  # exactly 25 %
    assert detect_anomaly(at_threshold, base) is False
    above = full_reading(100.0, co2_ppm=125.1)
    assert detect_anomaly(above, base) is True


def test_anomaly_skips_missing_fields():
    primary = full_reading(100.0, co2_ppm=None)
    secondary = full_reading(100.0)
    assert detect_anomaly(primary, secondary) is False


def test_anomaly_symmetric_in_direction():
    base = full_reading(100.0)
    low = full_reading(100.0, co_ppm=60.0)
    assert detect_anomaly(low, base) is True


def test_anomaly_near_zero_reference_uses_epsilon():
    primary = full_reading(100.0, co_ppm=1.0)
    secondary = full_reading(100.0, co_ppm=0.0)
    assert detect_anomaly(primary, secondary) is True


def numpy_detect_anomaly(primary, secondary, rel_threshold=0.25, eps=1e-9):
    """The anomaly rule as one numpy expression over the twelve fields."""
    p, s = np.array(primary.values), np.array(secondary.values)
    return bool((np.abs(p - s) / np.maximum(np.abs(s), eps) > rel_threshold).any())


FIELD_VALUES = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, 1e-12, 4.0, -4.0, 100.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
# (primary, secondary) pairs on the edges of the rule: exactly on a 0.25
# threshold, a zero or tiny reference (the eps branch) and NaN on either side.
EDGE_PAIRS = st.sampled_from(
    [
        (5.0, 4.0),
        (3.0, 4.0),
        (-5.0, -4.0),
        (-3.0, -4.0),
        (125.0, 100.0),
        (75.0, 100.0),
        (0.0, 0.0),
        (2.5e-10, 0.0),
        (-2.5e-10, -0.0),
        (math.nan, 4.0),
        (4.0, math.nan),
        (math.nan, math.nan),
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.one_of(st.tuples(FIELD_VALUES, FIELD_VALUES), EDGE_PAIRS), min_size=12, max_size=12),
    rel_threshold=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 2.0)),
)
def test_anomaly_loop_matches_the_numpy_rule(pairs, rel_threshold):
    primary = SensorReading(values=tuple(p for p, _ in pairs))
    secondary = SensorReading(values=tuple(s for _, s in pairs))
    expected = numpy_detect_anomaly(primary, secondary, rel_threshold)
    assert detect_anomaly(primary, secondary, rel_threshold) is expected
