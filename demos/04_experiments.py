"""The full experiment matrix: fault scenarios with and without redundancy.

Runs every fault preset under the standard noise load, 10 seeds each, and
tabulates how much the hot-spare secondary board and the slotted MAC buy.
Takes under a second.  Run: python3 demos/04_experiments.py
"""

from dataclasses import replace

from redwsn import build_preset, compare_reports, run_scenario

SEEDS = list(range(5, 15))

print("scenario     PRR(red)  PRR(primary)   gain(pp)  detection")
for name in ("HF", "SF1", "SF2"):
    report = run_scenario(build_preset(name), SEEDS)
    gain = (report.mean("prr_redundant") - report.mean("prr_primary_only")) * 100
    det = report.mean("detection_rate")
    print(f"{name:<12} {report.mean('prr_redundant'):8.3f}  "
          f"{report.mean('prr_primary_only'):12.3f}  {gain:9.2f}  {det:9.3f}")

print("\ngateway failover (home gateway down for 20 of 30 min):")
gwf_cfg = build_preset("GWF")
gwf = run_scenario(gwf_cfg, SEEDS)
home_only = run_scenario(replace(gwf_cfg, gateways=gwf_cfg.gateways[:1]), SEEDS)
print(f"GWF          {gwf.mean('prr_redundant'):8.3f}")
for gw_id in ("gw-home", "gw-backup"):
    medians = [it.rssi[gw_id]["median"] for it in gwf.iterations]
    print(f"  {gw_id:<10} median RSSI {sum(medians) / len(medians):7.1f} dBm")
print(f"  PRR {gwf.mean('prr_redundant'):.3f} vs {home_only.mean('prr_redundant'):.3f} with gw-home alone"
      f"  ->  +{compare_reports(gwf, home_only, 'prr_redundant'):.1f} pp from the backup gateway")

print("\nslotted MAC vs fixed 30 s interval (no faults, standard noise):")
with_sarb = run_scenario(build_preset("control-noise"), SEEDS)
without = run_scenario(build_preset("control-noise-noSARB"), SEEDS)
delta = compare_reports(with_sarb, without, "prr_redundant")
print(f"  PRR {with_sarb.mean('prr_redundant'):.3f} vs {without.mean('prr_redundant'):.3f}"
      f"  ->  +{delta:.2f} pp from random slots + retransmission")
