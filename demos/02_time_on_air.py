"""LoRa frame airtime across payload sizes and spreading factors.

The sensor data frame (76 bytes at SF7/125 kHz) occupies the channel for
138.496 ms; acks and heartbeats are much shorter.  Higher spreading factors
trade airtime for range.  Run: python3 demos/02_time_on_air.py
"""

from dataclasses import replace

from redwsn import LoraParams, time_on_air_ms

params = LoraParams()
print("frames used by the system (SF7, 125 kHz, CR 4/5, CRC on):")
for label, size in (("ack", 8), ("noise burst", 10), ("heartbeat", 12), ("sensor data", 76)):
    print(f"  {label:>12} {size:>3} B  ->  {time_on_air_ms(size, params):8.3f} ms")

print("\nsensor data frame vs spreading factor:")
for sf in range(7, 13):
    p = replace(params, spreading_factor=sf)
    print(f"  SF{sf:<2}  {time_on_air_ms(76, p):9.3f} ms")
