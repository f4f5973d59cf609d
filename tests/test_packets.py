import numpy as np

from redwsn.packets import SENSOR_FIELDS, SensorReading, detect_anomaly


def full_reading(value=10.0, **overrides):
    """A reading with every field at value; an override of None is missing."""
    values = np.full(len(SENSOR_FIELDS), value)
    for name, v in overrides.items():
        values[SENSOR_FIELDS.index(name)] = np.nan if v is None else v
    return SensorReading(values=values)


def test_twelve_sensor_fields():
    assert len(SENSOR_FIELDS) == 12
    assert len(set(SENSOR_FIELDS)) == 12


def test_complete_reading():
    reading = full_reading()
    assert reading.is_complete()
    assert reading.missing_fields() == []


def test_missing_field_detected():
    reading = full_reading(co2_ppm=None)
    assert not reading.is_complete()
    assert reading.missing_fields() == ["co2_ppm"]


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
