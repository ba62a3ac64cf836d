"""Seeded inputs: an authority with its vendors, a provisioning plan, a
registered fleet, hostile responders and an exchange schedule.

Everything here is made from the seed alone, through the program's own
public functions, so the same seed gives the same documents, keys, log and
schedule. Each exchange in the schedule carries the verdict it must get.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from tlt import crypto, device, documents
from tlt import store as store_mod

# The traffic below is assumed, not measured: the paper gives no traffic
# figures and no trace of real use is at hand. The benchmark's aims set only
# a few hundred devices under about four manufacturers, about 3/4
# verified_current and a skewed choice of device. The exact fleet size, the
# Zipf exponent, the equal shares of the hostile verdicts, the
# firmware-update share and the configuration-update mix are this
# benchmark's own picks; revisit them when real traffic data is available.
MANUFACTURERS = 4
FIRMWARE_PER_MFR = 2  # v1.0 installed at birth, v1.1 is the update
FLEET_DEVICES = 256
FW_UPDATE_SHARE = 0.25
CFG_UPDATES = (0, 0, 1, 1, 2, 3)  # extra configurations per device, in equal shares
ZIPF_EXPONENT = 0.9

# Verdict mix of the exchange schedule, exact in every schedule; the first
# kind takes what the rounded shares of the others leave.
VERDICT_MIX = (
    ("verified_current", 0.75),
    ("verified_stale", 0.05),
    ("unknown_state", 0.05),
    ("bad_signature", 0.05),
    ("replay_detected", 0.05),
    ("unknown_device", 0.05),
)
SCHEDULE_LEN = 4096
HOSTILE_DEVICES = 32  # devices with an unregistered config, and with a recorded old response
ROGUE_DEVICES = 8  # impostors with unregistered UUIDs, and as many UUID clones


@dataclass(frozen=True)
class DevicePlan:
    mfr: int
    fw_update: bool
    cfg_updates: int


@dataclass
class Vendor:
    sk: crypto.SecretKey
    cert: documents.Document
    firmware: list[tuple[bytes, documents.Document]]


@dataclass
class Authority:
    root: documents.Document
    vendors: list[Vendor]


def make_authority(rng) -> Authority:
    pk, sk = crypto.generate_keypair(rng)
    root = documents.make_root_certificate("Bench Root Authority", pk, sk)
    vendors = []
    for m in range(MANUFACTURERS):
        mpk, msk = crypto.generate_keypair(rng)
        mcrt = documents.make_manufacturer_certificate(f"Vendor {m}", mpk, sk, rng)
        firmware = []
        for v in range(FIRMWARE_PER_MFR):
            image = crypto.random_bytes(256, rng)
            firmware.append((image, documents.sign_firmware(image, f"vendor{m}-fw v1.{v}", msk, mcrt)))
        vendors.append(Vendor(msk, mcrt, firmware))
    return Authority(root, vendors)


def plan_devices(rnd: random.Random, n: int) -> list[DevicePlan]:
    """Device plans in seeded order. The mix itself is fixed (exactly
    FW_UPDATE_SHARE updated, CFG_UPDATES in turn), so every seed writes the
    same number of records and runs differ in order and keys only."""
    fw = [i < round(n * FW_UPDATE_SHARE) for i in range(n)]
    cfg = [CFG_UPDATES[i % len(CFG_UPDATES)] for i in range(n)]
    rnd.shuffle(fw)
    rnd.shuffle(cfg)
    return [DevicePlan(rnd.randrange(MANUFACTURERS), fw[i], cfg[i]) for i in range(n)]


class Registrar:
    """Admits records into one store; with a log path it persists after each
    register, as every CLI write does. With `history` it notes each device's
    state digest after every state change."""

    def __init__(self, st: store_mod.Store, log_path=None, history: dict | None = None):
        self.store = st
        self.log_path = log_path
        self.history = history
        self.records = len(st.records)

    def __call__(self, kind: str, doc: documents.Document) -> None:
        self.store.register(kind, doc)
        self.records += 1
        if self.log_path is not None:
            self.store.persist(self.log_path)
        if self.history is not None and kind in ("installation", "configuration"):
            uuid = documents.subject_uuid(doc)
            self.history.setdefault(uuid, []).append(self.store.current_state_digest(uuid))


def open_store(auth: Authority, log_path=None, history=None) -> Registrar:
    reg = Registrar(store_mod.Store(auth.root), log_path, history)
    if log_path is not None:
        reg.store.persist(log_path)
    for vendor in auth.vendors:
        reg("manufacturer", vendor.cert)
        for _, fw in vendor.firmware:
            reg("firmware", fw)
    return reg


def _config_payload(index: int, seq: int) -> bytes:
    return b'{"device": %d, "profile": %d}' % (index, seq)


def provision_base(reg: Registrar, auth: Authority, plan: DevicePlan, index: int, rng) -> device.DeviceState:
    """Birth, install and first configuration of one device, each registered."""
    vendor = auth.vendors[plan.mfr]
    dev, dcrt = device.device_birth(vendor.cert, vendor.sk, auth.root, f"vendor{plan.mfr} unit {index}", rng)
    reg("device", dcrt)
    image, fw = vendor.firmware[0]
    reg("installation", dev.install_firmware(fw, image, [vendor.cert], "slot=0"))
    reg("configuration", dev.apply_configuration(_config_payload(index, 1), 1))
    return dev


def update_steps(auth: Authority, plan: DevicePlan, index: int) -> list:
    """Later state changes of one device: a firmware update, then configurations."""
    vendor = auth.vendors[plan.mfr]
    steps = []
    if plan.fw_update:
        image, fw = vendor.firmware[1]
        steps.append(
            lambda reg, dev: reg("installation", dev.install_firmware(fw, image, [vendor.cert], "slot=1"))
        )
    for seq in range(2, 2 + plan.cfg_updates):
        steps.append(
            lambda reg, dev, seq=seq: reg(
                "configuration", dev.apply_configuration(_config_payload(index, seq), seq)
            )
        )
    return steps


@dataclass
class Fleet:
    auth: Authority
    registrar: Registrar
    devices: list[device.DeviceState]
    stale: dict[int, device.DeviceState]  # device index -> copy from before its last update
    history: dict[bytes, list[bytes]]  # uuid -> every state digest it was registered at
    rng: crypto.SeededRandomSource
    rnd: random.Random

    @property
    def store(self) -> store_mod.Store:
        return self.registrar.store


def build_fleet(seed: int, plans: list[DevicePlan] | None = None, log_path=None) -> Fleet:
    """A store holding every device of `plans` (by default FLEET_DEVICES drawn from the seed)."""
    rng = crypto.SeededRandomSource(seed)
    rnd = random.Random(seed)
    auth = make_authority(rng)
    history: dict[bytes, list[bytes]] = {}
    reg = open_store(auth, history=history)
    if plans is None:
        plans = plan_devices(rnd, FLEET_DEVICES)
    devices, stale = [], {}
    for i, plan in enumerate(plans):
        dev = provision_base(reg, auth, plan, i, rng)
        steps = update_steps(auth, plan, i)
        for k, step in enumerate(steps):
            if k == len(steps) - 1:
                stale[i] = copy.deepcopy(dev)
            step(reg, dev)
        devices.append(dev)
    if log_path is not None:
        reg.store.persist(log_path)
    return Fleet(auth, reg, devices, stale, history, rng, rnd)


# ---------------------------------------------------------------------------
# Exchange schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One exchange: `actor` advertises; `reply`, if set, answers in its place."""

    actor: device.DeviceState
    expected: str
    reply: bytes | None = field(default=None, repr=False)


def _rogue_devices(fleet: Fleet, count: int) -> list[device.DeviceState]:
    """Operational devices on a self-made chain the store has never seen."""
    rng = fleet.rng
    apk, ask = crypto.generate_keypair(rng)
    rogue_root = documents.make_root_certificate("Rogue Authority", apk, ask)
    mpk, msk = crypto.generate_keypair(rng)
    rogue_mcrt = documents.make_manufacturer_certificate("Rogue Works", mpk, ask, rng)
    image = crypto.random_bytes(256, rng)
    fw = documents.sign_firmware(image, "vendor0-fw v1.0", msk, rogue_mcrt)
    rogues = []
    for i in range(count):
        dev, _ = device.device_birth(rogue_mcrt, msk, rogue_root, f"rogue unit {i}", rng)
        dev.install_firmware(fw, image, [rogue_mcrt], "slot=0")
        rogues.append(dev)
    return rogues


def build_schedule(fleet: Fleet, length: int = SCHEDULE_LEN) -> list[Step]:
    """Exchanges in seeded order with the exact VERDICT_MIX and a skewed
    (Zipf) device choice."""
    rng, rnd = fleet.rng, fleet.rnd
    n = len(fleet.devices)
    ranks = list(range(1, n + 1))
    rnd.shuffle(ranks)
    weight = [r ** -ZIPF_EXPONENT for r in ranks]

    def pick(candidates: list[int]) -> int:
        return rnd.choices(candidates, weights=[weight[i] for i in candidates])[0]

    hostile = rnd.sample(range(n), min(n, HOSTILE_DEVICES))
    unknown_state = {}
    old_reply = {}
    for i in hostile:
        dev = copy.deepcopy(fleet.devices[i])
        dev.apply_configuration(b'{"unregistered": true}', dev.config_seq() + 1)
        unknown_state[i] = dev
        old_reply[i] = fleet.devices[i].handle_challenge(crypto.random_bytes(crypto.NONCE_LEN, rng))
    impostors = _rogue_devices(fleet, ROGUE_DEVICES)
    clones = []
    for rogue, target in zip(impostors, rnd.sample(range(n), min(n, ROGUE_DEVICES))):
        clone = copy.deepcopy(rogue)
        clone.uuid = fleet.devices[target].uuid
        clones.append(clone)
    garbage = [crypto.random_bytes(128, rng) for _ in range(ROGUE_DEVICES)]

    kinds = []
    for kind, share in VERDICT_MIX[1:]:
        kinds += [kind] * round(share * length)
    kinds += [VERDICT_MIX[0][0]] * (length - len(kinds))
    rnd.shuffle(kinds)
    everyone = list(range(n))
    stale = sorted(fleet.stale)
    schedule = []
    clone_next = False
    for kind in kinds:
        if kind == "verified_current":
            step = Step(fleet.devices[pick(everyone)], kind)
        elif kind == "verified_stale":
            step = Step(fleet.stale[pick(stale)], kind)
        elif kind == "unknown_state":
            step = Step(unknown_state[pick(hostile)], kind)
        elif kind == "replay_detected":
            i = pick(hostile)
            step = Step(fleet.devices[i], kind, old_reply[i])
        elif kind == "unknown_device":
            step = Step(rnd.choice(impostors), kind)
        elif clone_next:  # bad_signature, in turn: a UUID clone signing with its own key
            step = Step(rnd.choice(clones), kind)
        else:  # or a garbage answer on behalf of a registered device
            step = Step(fleet.devices[pick(everyone)], kind, rnd.choice(garbage))
        clone_next ^= kind == "bad_signature"
        schedule.append(step)
    return schedule
