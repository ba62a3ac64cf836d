"""Exact primitive-op counts on small fixed fixtures.

Counts are taken with the tracer around single program calls: one exchange
of each verdict kind, one `register` of each record kind, one provisioned
device (birth, install, configure, three registers, three persists) and one
`load_store` replay. The fixture plans are fixed, so the counts do not
depend on the seed; only keys and UUIDs do.

    python3 bench/opcounts.py          # print counts as JSON
    python3 bench/opcounts.py --write  # replace the checked-in baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import OUT_DIR

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "opcounts.json")
COUNTED = ("crypto.verify", "crypto.sign", "documents.encode", "crypto.public_key_of", "crypto.digest")

# Fixed fixture: every record kind, firmware and configuration updates.
FIXTURE_DEVICES = 12


def _fixture_plans():
    import fleet as fleet_mod

    return [
        fleet_mod.DevicePlan(i % fleet_mod.MANUFACTURERS, i % 3 == 0, i % 4)
        for i in range(FIXTURE_DEVICES)
    ]


def measure(seed: int) -> dict:
    import fleet as fleet_mod
    import tracer as tracer_mod
    from tlt import crypto, device, store as store_mod
    from workloads import run_exchange

    tracer = tracer_mod.Tracer()

    def delta(fn):
        before = tracer.call_counts()
        result = fn()
        after = tracer.call_counts()
        return {k: after.get(k, 0) - before.get(k, 0) for k in COUNTED}, result

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="opcounts-", dir=OUT_DIR) as workdir:
        log = os.path.join(workdir, "fixture.tltlog")
        fleet = fleet_mod.build_fleet(seed, _fixture_plans(), log_path=log)
        schedule = fleet_mod.build_schedule(fleet)
        rng = crypto.SeededRandomSource(seed + 1)

        tracer_mod.install_program_hooks(tracer)
        try:
            exchange = {}
            for step in schedule:
                label = step.expected
                if label == "bad_signature":
                    label += "_garbage" if step.reply is not None else "_clone"
                if label in exchange:
                    continue
                counts, verdict = delta(lambda: run_exchange(fleet.store, rng, step))
                if verdict.state_check.value != step.expected:
                    raise AssertionError(f"{label}: got {verdict.state_check.value}")
                exchange[label] = counts

            auth = fleet.auth
            vendor = auth.vendors[0]
            register = {}
            with tracer.paused():
                st = store_mod.Store(auth.root)
            register["manufacturer"], _ = delta(lambda: st.register("manufacturer", vendor.cert))
            register["firmware"], _ = delta(lambda: st.register("firmware", vendor.firmware[0][1]))
            with tracer.paused():
                dev, dcrt = device.device_birth(vendor.cert, vendor.sk, auth.root, "fixture", fleet.rng)
            register["device"], _ = delta(lambda: st.register("device", dcrt))
            with tracer.paused():
                image, fw = vendor.firmware[0]
                inst = dev.install_firmware(fw, image, [vendor.cert], "slot=0")
            register["installation"], _ = delta(lambda: st.register("installation", inst))
            with tracer.paused():
                cfg = dev.apply_configuration(b"{}", 1)
            register["configuration"], _ = delta(lambda: st.register("configuration", cfg))

            with tracer.paused():
                reg = fleet_mod.open_store(auth, log_path=os.path.join(workdir, "provision.tltlog"))
            records_before = reg.records
            plan = fleet_mod.DevicePlan(0, False, 0)
            provision, _ = delta(lambda: fleet_mod.provision_base(reg, auth, plan, 0, fleet.rng))

            replay, loaded = delta(lambda: store_mod.load_store(log))
        finally:
            tracer.uninstall()

    return {
        "counted": list(COUNTED),
        "exchange": dict(sorted(exchange.items())),
        "register": register,
        "provision_device": {"log_records_before": records_before, "counts": provision},
        "replay": {"records": len(loaded.records), "counts": replay},
    }


def load_baseline() -> dict:
    with open(BASELINE) as f:
        return json.load(f)


def differences(measured: dict, baseline: dict) -> list[str]:
    """`path baseline=.. measured=..` for every count that differs."""
    out = []

    def walk(a, b, path):
        if isinstance(a, dict) or isinstance(b, dict):
            a = a if isinstance(a, dict) else {}
            b = b if isinstance(b, dict) else {}
            for key in sorted(set(a) | set(b)):
                walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif a != b:
            out.append(f"{path} baseline={a} measured={b}")

    walk(baseline, measured, "")
    return out


def main(argv=None) -> int:
    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="replace the checked-in baseline")
    args = parser.parse_args(argv)
    run.import_program()
    counts = measure(1)
    if args.write:
        with open(BASELINE, "w") as f:
            json.dump(counts, f, indent=2)
            f.write("\n")
    print(json.dumps(counts, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
