"""Command-line tools for each actor, plus the threat harness (`tlt --help` lists the commands).

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
from .errors import FileUnreadable, FileUnwritable, ParseError, StoreUnavailable, TltError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_store_arg(sp, required=True):
    sp.add_argument(
        "--store",
        default=os.environ.get("TLT_STORE"),
        type=_text,
        help="store log path (default: $TLT_STORE)" + ("" if required else ", optional"),
    )


def _need_store(args) -> Path:
    if not args.store:
        raise UsageError("--store is required (or set TLT_STORE)")
    return Path(args.store)


@contextlib.contextmanager
def _committing(store_path, replace=()):
    """Yield (store, files): the store at store_path, locked (None without a path), and a dict for the block's new
    files and those in replace; if the block ends normally, one staged write places them, with a store its log first."""
    with store_mod.locked(store_path) if store_path else contextlib.nullcontext():
        st = store_mod.load_store(store_path) if store_path else None
        files = {}
        yield st, files
        st.persist(store_path, files, replace) if st else documents.write_files(files, replace)


def _new_files(command: str, *paths: Path) -> None:
    """Refuse outputs that exist or have no directory, before anything is drawn or written."""
    for path in paths:
        try:
            path.lstat()
        except (FileNotFoundError, NotADirectoryError):
            if not path.parent.is_dir():
                raise UsageError(f"{path.parent} is not a directory") from None
        except OSError as exc:  # such as a name too long
            raise FileUnwritable(f"{path}: {exc.strerror}") from None
        else:
            raise UsageError(f"{path} already exists; {command} never overwrites")


def _text(text: str) -> str:
    """Text for a document or for stdout, so it must encode as UTF-8 (argv that is not decodes to surrogates)."""
    try:
        text.encode()
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8: {text!r}") from None
    return text


def _output(text: str) -> Path:
    path = Path(_text(text))
    if not path.name:
        raise argparse.ArgumentTypeError(f"no file name in {text!r}")
    return path


def _port(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) <= 0xFFFF):
        raise argparse.ArgumentTypeError(f"port must be 0..65535, not {text!r}")
    return int(text)


def _hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not hex: {text!r}") from None


def _host(text: str) -> str:
    try:
        text.encode("idna")  # as the socket module encodes it
    except UnicodeError:
        raise argparse.ArgumentTypeError(f"not a host name: {text!r}") from None
    return text


def _address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return _host(host) or "127.0.0.1", _port(port)


def _actor(sub, name: str, help: str):
    """The subparsers of one actor's commands."""
    return sub.add_parser(name, help=help).add_subparsers(metavar="CMD")


def _command(sub, name: str, help: str, run) -> _Parser:
    """One command's parser; main() calls run(args) when it is chosen."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(run=run)
    return sp


def _add_device_args(sp) -> None:
    sp.add_argument("--device", required=True, help="device state path (.tltdev)")
    sp.add_argument("--key", help="device secret key path (default: sibling .tltkey)")


def build_parser() -> _Parser:
    p = _Parser(prog="tlt", description="Touch-less trust tooling for IoT devices")
    p.add_argument("--seed", type=int, help="deterministic randomness seed")
    p.add_argument("--trace-frames", action="store_true", help="hex-dump frames to stderr")
    sub = p.add_subparsers(metavar="ACTOR")

    asub = _actor(sub, "authority", "trust authority operations")
    init = _command(asub, "init", "create authority key, root certificate and store", _cmd_authority_init)
    _add_store_arg(init)
    init.add_argument("--key", required=True, type=_output, help="authority secret key output path (.tltkey)")
    init.add_argument("--info", default="TLT Root Authority", type=_text, help="authority identifying text")

    msub = _actor(sub, "mfr", "manufacturer operations")
    mreg = _command(msub, "register", "create manufacturer keys and register with the store", _cmd_mfr_register)
    _add_store_arg(mreg)
    mreg.add_argument("--authority-key", required=True, help="authority secret key path")
    mreg.add_argument("--key", required=True, type=_output, help="manufacturer secret key output path")
    mreg.add_argument("--cert-out", type=_output, help="certificate output path (default: key path + .tltdoc)")
    mreg.add_argument("--info", required=True, type=_text, help="manufacturer identifying text")
    msf = _command(msub, "sign-fw", "sign a firmware image into a firmware document", _cmd_mfr_sign_fw)
    _add_store_arg(msf, required=False)
    msf.add_argument("--key", required=True, help="manufacturer secret key path")
    msf.add_argument("--cert", required=True, help="manufacturer certificate path")
    msf.add_argument("--image", required=True, help="firmware image file")
    msf.add_argument("--meta", required=True, type=_text, help="firmware version/model text")
    msf.add_argument("--out", required=True, type=_output, help="firmware document output path")

    dsub = _actor(sub, "device", "simulated device operations")
    birth = _command(dsub, "birth", "provision a device and register its certificate", _cmd_device_birth)
    _add_store_arg(birth)
    birth.add_argument("--mfr-key", required=True, help="manufacturer secret key path")
    birth.add_argument("--mfr-cert", required=True, help="manufacturer certificate path")
    birth.add_argument("--info", required=True, type=_text, help="device model/info text")
    birth.add_argument("--out", required=True, type=_output, help="device state output path (.tltdev)")
    install = _command(dsub, "install", "verify and install signed firmware", _cmd_device_install)
    _add_store_arg(install, required=False)
    _add_device_args(install)
    install.add_argument("--fw", required=True, help="firmware document path")
    install.add_argument("--image", required=True, help="firmware image file")
    install.add_argument("--mfr-cert", required=True, help="manufacturer certificate path")
    install.add_argument("--instinfo", default="slot=0", type=_text, help="installation detail text")
    configure = _command(dsub, "configure", "apply a configuration payload", _cmd_device_configure)
    _add_store_arg(configure, required=False)
    _add_device_args(configure)
    configure.add_argument("--config", required=True, help="configuration payload file")
    configure.add_argument("--seq", required=True, type=int, help="configuration sequence number")
    _add_device_args(_command(dsub, "advertise", "print the advertising frame as hex", _cmd_device_advertise))
    resp = _command(dsub, "respond", "answer a challenge (nonce hex or frame hex)", _cmd_device_respond)
    _add_device_args(resp)
    resp.add_argument("--challenge", required=True, type=_hex, help="challenge nonce or challenge frame, hex")

    ssub = _actor(sub, "store", "trust store operations")
    serve = _command(ssub, "serve", "serve DEV/STATE lookups over TCP until interrupted", _cmd_store_serve)
    _add_store_arg(serve)
    serve.add_argument("--host", default="127.0.0.1", type=_host)
    serve.add_argument("--port", type=_port, default=7345, help="TCP port, 0..65535")
    _add_store_arg(_command(ssub, "dump", "print a summary of every record", _cmd_store_dump))

    vsub = _actor(sub, "verify", "user-side verification")
    scan = _command(vsub, "scan", "extract the UUID from an advertising frame", _cmd_verify_scan)
    scan.add_argument("--frame", required=True, type=_hex, help="advertising frame hex")
    challenge = _command(vsub, "challenge", "scan, challenge and judge a device", _cmd_verify_challenge)
    _add_store_arg(challenge, required=False)
    challenge.add_argument("--connect", type=_address, help="query a served store at HOST:PORT instead of --store")
    _add_device_args(challenge)
    challenge.add_argument("--auto-accept", action="store_true", help="accept on an open gate without prompting")
    decide = _command(vsub, "decide", "accept/reject from a VERDICT line", _cmd_verify_decide)
    decide.add_argument("--line", help="VERDICT line (default: first line of stdin)")
    decide.add_argument("--auto-accept", action="store_true")

    tsub = _actor(sub, "threats", "threat-scenario harness")
    trun = _command(tsub, "run", "run all scenarios, or one by id (TA01..TA06, CTRL)", _cmd_threats_run)
    trun.add_argument("scenario", nargs="?", help="scenario id; all when omitted")

    return p


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_authority_init(args) -> int:
    store_path = _need_store(args)
    pub_path = args.key.with_suffix(crypto.PUBLIC_KEY_EXT)
    _new_files("authority init", store_path, args.key, pub_path)
    pk, sk = crypto.generate_keypair(args.rng)
    root = documents.make_root_certificate(args.info, pk, sk)
    with store_mod.locked(store_path):
        _new_files("authority init", store_path)  # one of concurrent inits wins; the others write nothing
        store_mod.Store(root).persist(store_path, {args.key: crypto.key_bytes(sk), pub_path: crypto.key_bytes(pk)})
    print(f"root={documents.doc_digest(root).hex()}")
    print(f"store={store_path}")
    return 0


def _cmd_mfr_register(args) -> int:
    store_path = _need_store(args)
    cert_out = args.cert_out or args.key.with_suffix(documents.DOC_FILE_EXT)
    _new_files("mfr register", args.key, cert_out)
    authority_sk = crypto.load_secret_key(args.authority_key)
    pk, sk = crypto.generate_keypair(args.rng)
    mcrt = documents.make_manufacturer_certificate(args.info, pk, authority_sk, args.rng)
    with _committing(store_path) as (st, files):
        seq = st.register("manufacturer", mcrt)
        files[args.key] = crypto.key_bytes(sk)
        files[cert_out] = documents.encode_canonical(mcrt)
    print(f"mfr_id={mcrt.field(documents.MFR_ID).hex()}")
    print(f"seq={seq}")
    print(f"cert={cert_out}")
    return 0


def _cmd_mfr_sign_fw(args) -> int:
    _new_files("mfr sign-fw", args.out)
    sk = crypto.load_secret_key(args.key)
    mcrt = documents.load_document(args.cert)
    image = crypto.read_file(args.image)
    fw_doc = documents.sign_firmware(image, args.meta, sk, mcrt)
    with _committing(args.store) as (st, files):
        if st:
            st.register("firmware", fw_doc)
        files[args.out] = documents.encode_canonical(fw_doc)
    print(f"fw_doc={documents.doc_digest(fw_doc).hex()}")
    return 0


def _cmd_device_birth(args) -> int:
    store_path = _need_store(args)
    _new_files("device birth", args.out, args.out.with_suffix(crypto.SECRET_KEY_EXT))
    mfr_sk = crypto.load_secret_key(args.mfr_key)
    mcrt = documents.load_document(args.mfr_cert)
    with _committing(store_path) as (st, files):
        dev, dcrt = device_mod.device_birth(mcrt, mfr_sk, st.root, args.info, args.rng)
        st.register("device", dcrt)
        files[args.out.with_suffix(crypto.SECRET_KEY_EXT)] = crypto.key_bytes(dev.secret_key)  # placed before the .tltdev
        files[args.out] = device_mod.encode_device(dev)
    print(f"uuid={dev.uuid.hex()}")
    print(f"device={args.out}")
    return 0


def _load_device(args) -> device_mod.DeviceState:
    return device_mod.load_device(args.device, key_path=args.key, rng=args.rng)


def _record_on_device(args, dev, doc) -> int:
    """Register doc when --store is given and replace the device's state file, all or nothing; print its state."""
    with _committing(args.store, replace={args.device}) as (st, files):
        if st:
            st.register(documents.DOC_TYPE_NAMES[doc.doc_type], doc)
        files[args.device] = device_mod.encode_device(dev)
        state = dev.compute_state_digest()  # NotOperational for a failed device, before anything is written
    print(f"state={state.hex()}")
    return 0


def _cmd_device_install(args) -> int:
    dev = _load_device(args)
    fw_doc = documents.load_document(args.fw)
    image = crypto.read_file(args.image)
    mcrt = documents.load_document(args.mfr_cert)
    return _record_on_device(args, dev, dev.install_firmware(fw_doc, image, [mcrt], args.instinfo))


def _cmd_device_configure(args) -> int:
    dev = _load_device(args)
    payload = crypto.read_file(args.config)
    return _record_on_device(args, dev, dev.apply_configuration(payload, args.seq))


def _cmd_device_advertise(args) -> int:
    dev = _load_device(args)
    print(dev.advertise().hex())
    return 0


def _cmd_device_respond(args) -> int:
    dev = _load_device(args)
    nonce = args.challenge
    if len(nonce) != crypto.NONCE_LEN:  # a challenge frame, which must carry the whole challenge
        nonce = transport.receive([nonce], transport.MSG_CHALLENGE)
    print(dev.handle_challenge(nonce).hex())
    return 0


def _cmd_store_serve(args) -> int:
    st = store_mod.load_store(_need_store(args))
    try:
        server = netstore.StoreServer(st, args.host, args.port)
    except OSError as exc:  # the port is taken, or the host is not ours
        raise StoreUnavailable(f"serve on {args.host}:{args.port}: {exc}") from None
    with server, contextlib.suppress(KeyboardInterrupt):
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
    uuid = verifier_mod.scan(args.frame)
    print(uuid.hex())
    return 0


def _cmd_verify_challenge(args) -> int:
    store_view = netstore.StoreClient(*args.connect) if args.connect else store_mod.load_store(_need_store(args))
    with store_view if args.connect else contextlib.nullcontext():
        verdict = verifier_mod.run_exchange(store_view, _load_device(args), args.rng)
    print(verdict.render())
    _accepted(verdict, args)
    return 0


def _cmd_verify_decide(args) -> int:
    line = args.line if args.line else _from_stdin(sys.stdin.readline)
    return 0 if _accepted(verifier_mod.parse_verdict_line(line), args) else 1


def _from_stdin(read, *args) -> str:
    try:
        return read(*args)
    except EOFError:  # end of stdin is an empty answer, so a "no"
        return ""
    except UnicodeDecodeError as exc:
        raise ParseError(f"stdin is not {exc.encoding}") from None
    except OSError as exc:
        raise FileUnreadable(f"<stdin>: {exc.strerror}") from None


def _accepted(verdict, args) -> bool:
    """The trust decision (asked on stdin unless --auto-accept), printed as ACCEPT or REJECT."""
    accepted = verifier_mod.trust_decision(verdict, args.auto_accept, lambda question: _from_stdin(input, question))
    print("ACCEPT" if accepted else "REJECT")
    return accepted


def _cmd_threats_run(args) -> int:
    reports = [threats.run_scenario(args.scenario, args.seed)] if args.scenario else threats.run_all(args.seed)
    for report in reports:
        print(report.render())
        for note in report.notes:
            print(f"  - {note}")
    failed = [r.scenario_id for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} scenarios passed")
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "run"):
            raise UsageError("missing subcommand")
        args.rng = crypto.SeededRandomSource(args.seed) if args.seed is not None else None
        if args.trace_frames:
            transport.set_frame_trace(
                lambda direction, data: print(f"FRAME {direction} {data.hex()}", file=sys.stderr)
            )
        try:
            code = args.run(args)
            sys.stdout.flush()  # so a closed stdout fails here, not at exit
        except OSError as exc:  # each file, stdin and socket maps its own OSError, so what is left is stdout's
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what is left buffered goes nowhere
            raise FileUnwritable(f"<stdout>: {exc.strerror}") from None
        return code
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return exc.code or 0
    except TltError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.set_frame_trace(None)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
