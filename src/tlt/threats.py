"""Threat-scenario harness: replays attacks against a fresh stack.

Each scenario builds its own authority, store, manufacturer, and device,
runs a scripted attack, then performs the standard user-side verification
through verifier.run_exchange (the same loop `tlt verify challenge` uses)
and checks the verdict against the expected outcome. Physical-interaction
threats (TA01..TA03) cannot be modelled physically; they are represented as
"the gate stays closed before any interaction", which is exactly what the
pre-interaction trust check is for.

With a seed the harness threads one deterministic randomness source through
every actor, so repeated runs produce identical reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from . import crypto, documents
from .device import DeviceState, device_birth
from .errors import ChainInvalid, ScenarioError
from .store import Store
from .verifier import StateCheck, TrustVerdict, run_exchange

# bench/workloads.py still calls the exchange loop by its old name, threats._exchange.
from .verifier import run_exchange as _exchange  # noqa: F401

# Security controls the harness can report as having fired.
CONTROLS = {
    "C01": "key possession",
    "C02": "installed-firmware proof",
    "C03": "firmware update verification",
    "C04": "secure boot",
    "C05": "configuration proof",
    "C06": "pre-interaction trust check",
}

# Which controls are credited against each threat actor.
THREAT_CONTROL_MAP = {
    "TA01": frozenset({"C06"}),
    "TA02": frozenset({"C06"}),
    "TA03": frozenset({"C06"}),
    "TA04": frozenset({"C02", "C04", "C06"}),
    "TA05": frozenset({"C06"}),
    "TA06": frozenset({"C05", "C06"}),
}

SCENARIO_IDS = ("TA01", "TA02", "TA03", "TA04", "TA05", "TA06", "CTRL")


@dataclass
class ScenarioReport:
    scenario_id: str
    title: str
    passed: bool
    expected_states: tuple[str, ...]
    state_check: str
    gate: bool
    controls_fired: tuple[str, ...]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        controls = ",".join(self.controls_fired)
        return (
            f"SCENARIO {self.scenario_id} {self.title}: {status} "
            f"state={self.state_check} gate={1 if self.gate else 0} controls={controls}"
        )


@dataclass
class _Ecosystem:
    """Honest baseline every scenario starts from."""

    rng: object
    root: documents.Document
    authority_sk: crypto.SecretKey
    store: Store
    mfr_sk: crypto.SecretKey
    mcrt: documents.Document
    fw_image: bytes
    fw_doc: documents.Document
    dev: DeviceState
    dcrt: documents.Document


def _build_ecosystem(rng, register_install: bool = True) -> _Ecosystem:
    authority_pk, authority_sk = crypto.generate_keypair(rng)
    root = documents.make_root_certificate("Trust Authority", authority_pk, authority_sk)
    store = Store(root)

    mfr_pk, mfr_sk = crypto.generate_keypair(rng)
    mcrt = documents.make_manufacturer_certificate("Acme Devices", mfr_pk, authority_sk, rng)
    store.register("manufacturer", mcrt)

    fw_image = crypto.random_bytes(256, rng)
    fw_doc = documents.sign_firmware(fw_image, "lock-9000 v1.0", mfr_sk, mcrt)
    store.register("firmware", fw_doc)

    dev, dcrt = device_birth(mcrt, mfr_sk, root, "lock-9000 smart lock", rng)
    store.register("device", dcrt)

    if register_install:
        inst = dev.install_firmware(fw_doc, fw_image, [mcrt], "slot=0")
        store.register("installation", inst)
    return _Ecosystem(rng, root, authority_sk, store, mfr_sk, mcrt, fw_image, fw_doc, dev, dcrt)


def _attacker_toolkit(rng):
    """Self-made chain an impostor controls end to end."""
    apk, ask = crypto.generate_keypair(rng)
    rogue_root = documents.make_root_certificate("Rogue Authority", apk, ask)
    mpk, msk = crypto.generate_keypair(rng)
    rogue_mcrt = documents.make_manufacturer_certificate("Rogue Works", mpk, ask, rng)
    return rogue_root, ask, rogue_mcrt, msk


def _force_reflash(dev: DeviceState, fw_doc: documents.Document, instinfo: str) -> None:
    """Simulate an attacker with hardware access rewriting flash contents.

    The attacker controls the device, so it can drive the device's own key
    to sign the forged installation and update the on-flash digest set;
    on-device verification never runs.
    """
    inst = documents.make_installation_document(fw_doc, dev.uuid, instinfo, dev.secret_key)
    fw_digest = documents.doc_digest(fw_doc)
    dev.verified_digests.add(fw_digest)
    dev.fw_slot = (inst, fw_digest)
    dev.simulate_boot()


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _scenario_ctrl(rng) -> tuple[TrustVerdict, list[str]]:
    """Honest device, fully registered, with a registered configuration."""
    eco = _build_ecosystem(rng)
    cfg = eco.dev.apply_configuration(b'{"volume": 3}', 1)
    eco.store.register("configuration", cfg)
    verdict = run_exchange(eco.store, eco.dev, rng)
    return verdict, ["honest device with registered firmware and configuration"]


def _scenario_ta01(rng) -> tuple[TrustVerdict, list[str]]:
    """Hacked device: flash rewritten with a biometric-harvesting firmware."""
    eco = _build_ecosystem(rng)
    _, _, rogue_mcrt, rogue_msk = _attacker_toolkit(rng)
    harvester = documents.sign_firmware(
        crypto.random_bytes(256, rng), "harvester v0.1", rogue_msk, rogue_mcrt
    )
    _force_reflash(eco.dev, harvester, "slot=0")
    verdict = run_exchange(eco.store, eco.dev, rng)
    notes = ["device reflashed off-book; its state digest has no store entry"]
    return verdict, notes


def _scenario_ta02(rng) -> tuple[TrustVerdict, list[str]]:
    """Rolled-back device: superseded firmware that leaked credentials."""
    eco = _build_ecosystem(rng)
    rolled_back = copy.deepcopy(eco.dev)
    image2 = crypto.random_bytes(256, rng)
    fw2 = documents.sign_firmware(image2, "lock-9000 v1.1 (credential fix)", eco.mfr_sk, eco.mcrt)
    eco.store.register("firmware", fw2)
    inst2 = eco.dev.install_firmware(fw2, image2, [eco.mcrt], "slot=0")
    eco.store.register("installation", inst2)
    verdict = run_exchange(eco.store, rolled_back, rng)
    notes = ["update registered, then the device was rolled back to the old image"]
    return verdict, notes


def _scenario_ta03(rng) -> tuple[TrustVerdict, list[str]]:
    """Exploit attempt: attacker answers the challenge with crafted garbage."""
    eco = _build_ecosystem(rng)
    junk = crypto.random_bytes(128, rng)
    verdict = run_exchange(eco.store, eco.dev, rng, respond=lambda ch: junk)
    notes = ["unverified response rejected before any app-level processing"]
    return verdict, notes


def _scenario_ta04(rng) -> tuple[TrustVerdict, list[str]]:
    """Reprogrammed device: on-device refusal, then a forced reflash."""
    eco = _build_ecosystem(rng)
    _, _, rogue_mcrt, rogue_msk = _attacker_toolkit(rng)
    rogue_image = crypto.random_bytes(256, rng)
    rogue_fw = documents.sign_firmware(rogue_image, "trojan v2", rogue_msk, rogue_mcrt)
    notes = []
    try:
        eco.dev.install_firmware(rogue_fw, rogue_image, [rogue_mcrt], "slot=0")
        raise ScenarioError("device accepted firmware outside its chain of trust")
    except ChainInvalid:
        notes.append("on-device install of untrusted firmware refused (secure boot held)")
    _force_reflash(eco.dev, rogue_fw, "slot=0")
    notes.append("flash forcibly rewritten; installed-firmware proof missing from store")
    verdict = run_exchange(eco.store, eco.dev, rng)
    return verdict, notes


def _scenario_ta05(rng) -> tuple[TrustVerdict, list[str]]:
    """Impostor device built on a self-made chain the store has never seen."""
    eco = _build_ecosystem(rng)
    rogue_root, rogue_ask, rogue_mcrt, rogue_msk = _attacker_toolkit(rng)
    impostor, _ = device_birth(rogue_mcrt, rogue_msk, rogue_root, "lock-9000 smart lock", rng)
    image = crypto.random_bytes(256, rng)
    fake_fw = documents.sign_firmware(image, "lock-9000 v1.0", rogue_msk, rogue_mcrt)
    impostor.install_firmware(fake_fw, image, [rogue_mcrt], "slot=0")
    verdict = run_exchange(eco.store, impostor, rng)
    notes = ["impostor UUID has no registered certificate"]

    # Cloning the honest UUID does not help: the key is still untrusted.
    clone = copy.deepcopy(impostor)
    clone.uuid = eco.dev.uuid
    clone_verdict = run_exchange(eco.store, clone, rng)
    if clone_verdict.state_check != StateCheck.BAD_SIGNATURE or clone_verdict.gate:
        raise ScenarioError("cloned-UUID impostor was not rejected on signature")
    notes.append("cloned-UUID probe rejected: bad_signature")
    return verdict, notes


def _scenario_ta06(rng) -> tuple[TrustVerdict, list[str]]:
    """Reconfigured device: state change never proven to the store."""
    eco = _build_ecosystem(rng)
    cfg = eco.dev.apply_configuration(b'{"telemetry": "everything"}', 1)
    # attacker (or sloppy installer) never registers the configuration proof
    verdict = run_exchange(eco.store, eco.dev, rng)
    notes = ["configuration applied on the device but absent from the store"]
    return verdict, notes


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    title: str
    expected_states: tuple[StateCheck, ...]
    expected_gate: bool
    controls: tuple[str, ...]
    run: object


_SCENARIOS = {
    "CTRL": Scenario(
        "CTRL", "honest-device control", (StateCheck.VERIFIED_CURRENT,), True, ("C06",), _scenario_ctrl
    ),
    "TA01": Scenario(
        "TA01", "biometric-harvesting device", (StateCheck.UNKNOWN_STATE,), False, ("C06",), _scenario_ta01
    ),
    "TA02": Scenario(
        "TA02", "credential-collecting rollback", (StateCheck.VERIFIED_STALE,), False, ("C06",), _scenario_ta02
    ),
    "TA03": Scenario(
        "TA03", "app-exploit response", (StateCheck.BAD_SIGNATURE,), False, ("C06",), _scenario_ta03
    ),
    "TA04": Scenario(
        "TA04", "reprogrammed device",
        (StateCheck.UNKNOWN_STATE,), False, ("C02", "C04", "C06"), _scenario_ta04,
    ),
    "TA05": Scenario(
        "TA05", "impostor device",
        (StateCheck.UNKNOWN_DEVICE, StateCheck.BAD_SIGNATURE), False, ("C06",), _scenario_ta05,
    ),
    "TA06": Scenario(
        "TA06", "unregistered reconfiguration",
        (StateCheck.UNKNOWN_STATE,), False, ("C05", "C06"), _scenario_ta06,
    ),
}


def run_scenario(scenario_id: str, seed: int | None = None) -> ScenarioReport:
    """Execute one scenario; ScenarioError only for harness setup failures."""
    scenario = _SCENARIOS.get(scenario_id)
    if scenario is None:
        raise ScenarioError(f"unknown scenario {scenario_id!r}")
    rng = crypto.SeededRandomSource(seed) if seed is not None else None
    verdict, notes = scenario.run(rng)
    passed = verdict.state_check in scenario.expected_states and verdict.gate == scenario.expected_gate
    expected = tuple(s.value for s in scenario.expected_states)
    return ScenarioReport(
        scenario_id=scenario.scenario_id,
        title=scenario.title,
        passed=passed,
        expected_states=expected,
        state_check=verdict.state_check.value,
        gate=verdict.gate,
        controls_fired=scenario.controls,
        notes=notes + [f"verdict: {verdict.render()}"],
    )


def run_all(seed: int | None = None) -> list[ScenarioReport]:
    return [run_scenario(sid, seed) for sid in SCENARIO_IDS]
