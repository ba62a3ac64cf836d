"""Command-line tools for each actor, plus the threat harness.

Subcommands:

    tlt authority init      create an authority key, root certificate, store
    tlt mfr register        register a manufacturer with the authority
    tlt mfr sign-fw         sign a firmware image into a firmware document
    tlt device birth        provision a simulated device and register it
    tlt device install      verify and install signed firmware on a device
    tlt device configure    apply a configuration to a device
    tlt device advertise    print the device's advertising frame
    tlt device respond      answer a challenge with a signed attestation
    tlt store serve         serve read-only lookups until interrupted (Ctrl-C)
    tlt store dump          print a human-readable record summary
    tlt verify scan         extract a UUID from an advertising frame
    tlt verify challenge    one exchange with a device (verifier.run_exchange)
    tlt verify decide       turn a VERDICT line into an accept/reject
    tlt threats run         replay threat scenarios TA01..TA06 (+ control)

The store path defaults to the TLT_STORE environment variable. `--seed`
builds one deterministic randomness source that main() hands to every draw
(keys, ids, nonces) for reproducible runs; without it draws come from the OS.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path

from . import crypto, documents, netstore, threats, transport
from . import device as device_mod
from . import store as store_mod
from . import verifier as verifier_mod
from .errors import MissingFragment, TltError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_store_arg(sp, required=True):
    sp.add_argument(
        "--store",
        default=os.environ.get("TLT_STORE"),
        help="store log path (default: $TLT_STORE)" + ("" if required else ", optional"),
    )


def _need_store(args) -> Path:
    if not args.store:
        raise UsageError("--store is required (or set TLT_STORE)")
    return Path(args.store)


def _register(store_path, kind: str, doc, st=None) -> int:
    """Admit doc into the store at store_path (st when already loaded) and persist it."""
    if st is None:
        st = store_mod.load_store(store_path)
    seq = st.register(kind, doc)
    st.persist(store_path)
    return seq


def _new_files(command: str, *paths: Path) -> None:
    """Refuse outputs that exist or have no directory, before anything is drawn or written."""
    for path in paths:
        if path.exists():
            raise UsageError(f"{path} already exists; {command} never overwrites")
        if not path.parent.is_dir():
            raise UsageError(f"{path.parent} is not a directory")


def _port(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) <= 0xFFFF):
        raise argparse.ArgumentTypeError(f"port must be 0..65535, not {text!r}")
    return int(text)


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", _port(port)


def build_parser() -> _Parser:
    p = _Parser(prog="tlt", description="Touch-less trust tooling for IoT devices")
    p.add_argument("--seed", type=int, help="deterministic randomness seed")
    p.add_argument("--trace-frames", action="store_true", help="hex-dump frames to stderr")
    sub = p.add_subparsers(dest="actor", metavar="ACTOR")

    authority = sub.add_parser("authority", help="trust authority operations")
    asub = authority.add_subparsers(dest="command", metavar="CMD")
    init = asub.add_parser("init", help="create authority key, root certificate and store")
    _add_store_arg(init)
    init.add_argument("--key", required=True, help="authority secret key output path (.tltkey)")
    init.add_argument("--info", default="TLT Root Authority", help="authority identifying text")

    mfr = sub.add_parser("mfr", help="manufacturer operations")
    msub = mfr.add_subparsers(dest="command", metavar="CMD")
    mreg = msub.add_parser("register", help="create manufacturer keys and register with the store")
    _add_store_arg(mreg)
    mreg.add_argument("--authority-key", required=True, help="authority secret key path")
    mreg.add_argument("--key", required=True, help="manufacturer secret key output path")
    mreg.add_argument("--cert-out", help="certificate output path (default: key path + .tltdoc)")
    mreg.add_argument("--info", required=True, help="manufacturer identifying text")
    msf = msub.add_parser("sign-fw", help="sign a firmware image into a firmware document")
    _add_store_arg(msf, required=False)
    msf.add_argument("--key", required=True, help="manufacturer secret key path")
    msf.add_argument("--cert", required=True, help="manufacturer certificate path")
    msf.add_argument("--image", required=True, help="firmware image file")
    msf.add_argument("--meta", required=True, help="firmware version/model text")
    msf.add_argument("--out", required=True, help="firmware document output path")

    dev = sub.add_parser("device", help="simulated device operations")
    dsub = dev.add_subparsers(dest="command", metavar="CMD")
    birth = dsub.add_parser("birth", help="provision a device and register its certificate")
    _add_store_arg(birth)
    birth.add_argument("--mfr-key", required=True, help="manufacturer secret key path")
    birth.add_argument("--mfr-cert", required=True, help="manufacturer certificate path")
    birth.add_argument("--info", required=True, help="device model/info text")
    birth.add_argument("--out", required=True, help="device state output path (.tltdev)")
    install = dsub.add_parser("install", help="verify and install signed firmware")
    _add_store_arg(install, required=False)
    install.add_argument("--device", required=True, help="device state path")
    install.add_argument("--key", help="device secret key path (default: sibling .tltkey)")
    install.add_argument("--fw", required=True, help="firmware document path")
    install.add_argument("--image", required=True, help="firmware image file")
    install.add_argument("--mfr-cert", required=True, help="manufacturer certificate path")
    install.add_argument("--instinfo", default="slot=0", help="installation detail text")
    configure = dsub.add_parser("configure", help="apply a configuration payload")
    _add_store_arg(configure, required=False)
    configure.add_argument("--device", required=True, help="device state path")
    configure.add_argument("--key", help="device secret key path")
    configure.add_argument("--config", required=True, help="configuration payload file")
    configure.add_argument("--seq", required=True, type=int, help="configuration sequence number")
    adv = dsub.add_parser("advertise", help="print the advertising frame as hex")
    adv.add_argument("--device", required=True, help="device state path")
    adv.add_argument("--key", help="device secret key path")
    resp = dsub.add_parser("respond", help="answer a challenge (nonce hex or frame hex)")
    resp.add_argument("--device", required=True, help="device state path")
    resp.add_argument("--key", help="device secret key path")
    resp.add_argument("--challenge", required=True, help="challenge nonce or challenge frame, hex")

    st = sub.add_parser("store", help="trust store operations")
    ssub = st.add_subparsers(dest="command", metavar="CMD")
    serve = ssub.add_parser("serve", help="serve DEV/STATE lookups over TCP until interrupted")
    _add_store_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=7345, help="TCP port, 0..65535")
    dump = ssub.add_parser("dump", help="print a summary of every record")
    _add_store_arg(dump)

    ver = sub.add_parser("verify", help="user-side verification")
    vsub = ver.add_subparsers(dest="command", metavar="CMD")
    scan = vsub.add_parser("scan", help="extract the UUID from an advertising frame")
    scan.add_argument("--frame", required=True, help="advertising frame hex")
    challenge = vsub.add_parser("challenge", help="scan, challenge and judge a device")
    _add_store_arg(challenge, required=False)
    challenge.add_argument("--connect", type=_address, help="query a served store at HOST:PORT instead of --store")
    challenge.add_argument("--device", required=True, help="device state path of the peer")
    challenge.add_argument("--key", help="device secret key path")
    challenge.add_argument("--auto-accept", action="store_true", help="accept on an open gate without prompting")
    decide = vsub.add_parser("decide", help="accept/reject from a VERDICT line")
    decide.add_argument("--line", help="VERDICT line (default: first line of stdin)")
    decide.add_argument("--auto-accept", action="store_true")

    threat = sub.add_parser("threats", help="threat-scenario harness")
    tsub = threat.add_subparsers(dest="command", metavar="CMD")
    trun = tsub.add_parser("run", help="run all scenarios, or one by id (TA01..TA06, CTRL)")
    trun.add_argument("scenario", nargs="?", help="scenario id; all when omitted")

    return p


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_authority_init(args) -> int:
    store_path = _need_store(args)
    _new_files("authority init", store_path, Path(args.key), Path(args.key).with_suffix(crypto.PUBLIC_KEY_EXT))
    pk, sk = crypto.generate_keypair(args.rng)
    root = documents.make_root_certificate(args.info, pk, sk)
    st = store_mod.Store(root)
    st.persist(store_path)
    crypto.save_secret_key(sk, args.key)
    crypto.save_public_key(pk, Path(args.key).with_suffix(crypto.PUBLIC_KEY_EXT))
    print(f"root={documents.doc_digest(root).hex()}")
    print(f"store={store_path}")
    return 0


def _cmd_mfr_register(args) -> int:
    store_path = _need_store(args)
    cert_out = Path(args.cert_out) if args.cert_out else Path(args.key).with_suffix(documents.DOC_FILE_EXT)
    _new_files("mfr register", Path(args.key), cert_out)
    authority_sk = crypto.load_secret_key(args.authority_key)
    pk, sk = crypto.generate_keypair(args.rng)
    mcrt = documents.make_manufacturer_certificate(args.info, pk, authority_sk, args.rng)
    seq = _register(store_path, "manufacturer", mcrt)
    crypto.save_secret_key(sk, args.key)
    documents.save_document(mcrt, cert_out)
    print(f"mfr_id={mcrt.field(documents.MFR_ID).hex()}")
    print(f"seq={seq}")
    print(f"cert={cert_out}")
    return 0


def _cmd_mfr_sign_fw(args) -> int:
    _new_files("mfr sign-fw", Path(args.out))
    sk = crypto.load_secret_key(args.key)
    mcrt = documents.load_document(args.cert)
    image = Path(args.image).read_bytes()
    fw_doc = documents.sign_firmware(image, args.meta, sk, mcrt)
    if args.store:
        _register(args.store, "firmware", fw_doc)
    documents.save_document(fw_doc, args.out)
    print(f"fw_doc={documents.doc_digest(fw_doc).hex()}")
    return 0


def _cmd_device_birth(args) -> int:
    store_path = _need_store(args)
    out = Path(args.out)
    _new_files("device birth", out, out.with_suffix(crypto.SECRET_KEY_EXT))
    st = store_mod.load_store(store_path)
    mfr_sk = crypto.load_secret_key(args.mfr_key)
    mcrt = documents.load_document(args.mfr_cert)
    dev, dcrt = device_mod.device_birth(mcrt, mfr_sk, st.root, args.info, args.rng)
    _register(store_path, "device", dcrt, st)
    device_mod.save_device(dev, out)
    crypto.save_secret_key(dev.secret_key, out.with_suffix(crypto.SECRET_KEY_EXT))
    print(f"uuid={dev.uuid.hex()}")
    print(f"device={out}")
    return 0


def _load_device(args) -> device_mod.DeviceState:
    return device_mod.load_device(args.device, key_path=args.key, rng=args.rng)


def _cmd_device_install(args) -> int:
    dev = _load_device(args)
    fw_doc = documents.load_document(args.fw)
    image = Path(args.image).read_bytes()
    mcrt = documents.load_document(args.mfr_cert)
    inst = dev.install_firmware(fw_doc, image, [mcrt], args.instinfo)
    if args.store:
        _register(args.store, "installation", inst)
    device_mod.save_device(dev, args.device)
    print(f"state={dev.compute_state_digest().hex()}")
    return 0


def _cmd_device_configure(args) -> int:
    dev = _load_device(args)
    payload = Path(args.config).read_bytes()
    cfg = dev.apply_configuration(payload, args.seq)
    if args.store:
        _register(args.store, "configuration", cfg)
    device_mod.save_device(dev, args.device)
    print(f"state={dev.compute_state_digest().hex()}")
    return 0


def _cmd_device_advertise(args) -> int:
    dev = _load_device(args)
    print(dev.advertise().hex())
    return 0


def _cmd_device_respond(args) -> int:
    dev = _load_device(args)
    raw = bytes.fromhex(args.challenge)
    if len(raw) == crypto.NONCE_LEN:
        nonce = raw
    else:
        frame = transport.parse_data_frame(raw)
        if frame.frag_total != 1:
            raise MissingFragment("a challenge frame must carry the whole challenge")
        nonce = frame.payload
    print(dev.handle_challenge(nonce).hex())
    return 0


def _cmd_store_serve(args) -> int:
    st = store_mod.load_store(_need_store(args))
    with netstore.StoreServer(st, args.host, args.port) as server, contextlib.suppress(KeyboardInterrupt):
        host, port = server.address
        print(f"serving {args.store} on {host}:{port}", flush=True)
        threading.Event().wait()  # the main thread only waits for Ctrl-C; stop() runs on the way out
    return 0


def _cmd_store_dump(args) -> int:
    st = store_mod.load_store(_need_store(args))
    for seq, doc in enumerate(st.records):
        kind = documents.DOC_TYPE_NAMES[doc.doc_type]
        if kind == "root":
            detail = doc.field(documents.ROOT_INFO).decode(errors="replace")
        elif kind == "manufacturer":
            detail = doc.field(documents.MFR_INFO).decode(errors="replace")
        elif kind == "device":
            detail = f"{documents.subject_uuid(doc).hex()} {doc.field(documents.DEV_INFO).decode(errors='replace')}"
        elif kind == "firmware":
            detail = doc.field(documents.FW_META).decode(errors="replace")
        elif kind == "installation":
            detail = documents.subject_uuid(doc).hex()
        else:
            detail = f"{documents.subject_uuid(doc).hex()} seq={documents.config_seq(doc)}"
        print(f"{seq}\t{kind}\t{documents.doc_digest(doc).hex()[:16]}\t{detail}")
    return 0


def _cmd_verify_scan(args) -> int:
    uuid = verifier_mod.scan(bytes.fromhex(args.frame))
    print(uuid.hex())
    return 0


def _cmd_verify_challenge(args) -> int:
    store_view = netstore.StoreClient(*args.connect) if args.connect else store_mod.load_store(_need_store(args))
    with store_view if args.connect else contextlib.nullcontext():
        verdict = verifier_mod.run_exchange(store_view, _load_device(args), args.rng)
    print(verdict.render())
    accepted = verifier_mod.trust_decision(verdict, args.auto_accept)
    print("ACCEPT" if accepted else "REJECT")
    return 0


def _cmd_verify_decide(args) -> int:
    line = args.line if args.line else sys.stdin.readline()
    verdict = verifier_mod.parse_verdict_line(line)
    accepted = verifier_mod.trust_decision(verdict, args.auto_accept)
    print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def _cmd_threats_run(args) -> int:
    reports = [threats.run_scenario(args.scenario, args.seed)] if args.scenario else threats.run_all(args.seed)
    for report in reports:
        print(report.render())
        for note in report.notes:
            print(f"  - {note}")
    failed = [r.scenario_id for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} scenarios passed")
    return 0 if not failed else 1


_HANDLERS = {
    ("authority", "init"): _cmd_authority_init,
    ("mfr", "register"): _cmd_mfr_register,
    ("mfr", "sign-fw"): _cmd_mfr_sign_fw,
    ("device", "birth"): _cmd_device_birth,
    ("device", "install"): _cmd_device_install,
    ("device", "configure"): _cmd_device_configure,
    ("device", "advertise"): _cmd_device_advertise,
    ("device", "respond"): _cmd_device_respond,
    ("store", "serve"): _cmd_store_serve,
    ("store", "dump"): _cmd_store_dump,
    ("verify", "scan"): _cmd_verify_scan,
    ("verify", "challenge"): _cmd_verify_challenge,
    ("verify", "decide"): _cmd_verify_decide,
    ("threats", "run"): _cmd_threats_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.actor is None or getattr(args, "command", None) is None:
            raise UsageError("missing subcommand")
        handler = _HANDLERS.get((args.actor, args.command))
        if handler is None:
            raise UsageError(f"unknown subcommand {args.actor} {args.command}")
        args.rng = crypto.SeededRandomSource(args.seed) if args.seed is not None else None
        if args.trace_frames:
            transport.set_frame_trace(
                lambda direction, data: print(f"FRAME {direction} {data.hex()}", file=sys.stderr)
            )
        return handler(args)
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return exc.code or 0
    except TltError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.set_frame_trace(None)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
