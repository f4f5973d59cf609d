"""Timeline of a primary-board hard failure and the secondary's takeover.

Runs the HF scenario (noise off, so the radio log is easy to read) and
prints every data packet the server saw around the fault window: the
primary falls silent at minute 5, the secondary's watchdog starts shipping
backups within 40 s, and the primary resumes at minute 25.  It closes
with the fault window's epochs from the run's epoch ledger (`sim.epochs`):
how many each board served and how many were lost.
Run: python3 demos/03_failover_timeline.py
"""

from dataclasses import replace

from redwsn import build_preset
from redwsn.simulation import Simulation

cfg = build_preset("HF")
cfg = replace(cfg, noise=replace(cfg.noise, enabled=False))
fault = cfg.faults[0]

sim = Simulation(cfg, seed=5)
metrics = sim.run()

print(f"fault: {fault.kind} on {fault.target}, "
      f"{fault.start_ms // 60000}..{fault.end_ms // 60000} min\n")

previous = 0.0
for e in sim.server.deduplicated():
    if e.kind != "data":
        continue
    time_ms = e.time_us / 1000
    gap = (time_ms - previous) / 1000
    previous = time_ms
    marker = "  <- secondary substituting" if e.board_role == "secondary" else ""
    if abs(time_ms - fault.start_ms) < 90_000 or abs(time_ms - fault.end_ms) < 90_000:
        print(f"  {time_ms / 60000:6.2f} min  {e.board_role:>9}  seq {e.seq:>3}  "
              f"gap {gap:5.1f} s{marker}")

print(f"\nPRR with redundancy:  {metrics.prr_redundant:.3f}")
print(f"PRR primary only:     {metrics.prr_primary_only:.3f}")
print(f"detection rate:       {metrics.detection_rate:.3f}")
print(f"gaps over 40 s:       {metrics.delay_violations}")

# The fault window's epochs, from the run's epoch ledger: served by the
# primary, served by the secondary alone, or lost.
fault_epochs = [row for row in sim.epochs if row.fault_active]
by_primary = sum(1 for row in fault_epochs if row.primary_us is not None)
by_secondary = sum(1 for row in fault_epochs if row.primary_us is None and row.secondary_us is not None)
print(f"\nfault-window epochs:  {len(fault_epochs)}")
print(f"  served by primary:   {by_primary}")
print(f"  served by secondary: {by_secondary}")
print(f"  lost:                {len(fault_epochs) - by_primary - by_secondary}")
