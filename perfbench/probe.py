"""Probes installed around pqbfl's public calls from outside the package.

`RoundClock` is always on: it timestamps `Server.publish_round` and
`Server.feedback`, which is all the end-to-end round metrics need.

`Tracer` is installed only for traced simulations.  It wraps every public
function and public method of the pqbfl modules, records one span per call
(site, start, end, parent span, round, measured size, exception name) and
restores the originals on `uninstall`.  A module-level function is replaced
under every name a pqbfl module binds it to (`ratchet` imports `hkdf` by
name, `harness` imports `payload_size` by name), and a method is replaced on
its class, so no caller keeps reaching the unwrapped original.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter, perf_counter_ns

MODULES = ("mlkem", "crypto", "ratchet", "ledger", "protocol", "fl", "harness")

# the benchmark times these itself or calls them only to check results
NOT_TRACED = {"harness.run_simulation", "harness.verify_transcripts"}

GROUPS = {
    "mlkem.keygen": "mlkem.keygen",
    "mlkem.encaps": "mlkem.encaps",
    "mlkem.decaps": "mlkem.decaps",
    "crypto.sign": "crypto.sign",
    "crypto.verify": "crypto.verify",
    "crypto.dh_keygen": "crypto.dh",
    "crypto.dh_agree": "crypto.dh",
    "crypto.aead_seal": "crypto.aead",
    "crypto.aead_open": "crypto.aead",
    "crypto.digest": "crypto.digest",
    "crypto.hkdf": "crypto.hkdf",
    "ratchet.advance_symmetric": "ratchet.symmetric",
    "ratchet.init_root": "ratchet.asymmetric",
    "ratchet.advance_asymmetric": "ratchet.asymmetric",
    "ledger.Ledger.register_project": "ledger.tx",
    "ledger.Ledger.register_client": "ledger.tx",
    "ledger.Ledger.publish_task": "ledger.tx",
    "ledger.Ledger.update_model": "ledger.tx",
    "ledger.Ledger.feedback_model": "ledger.tx",
    "ledger.Ledger.finish_project": "ledger.tx",
    "ledger.Subscription.poll": "ledger.poll",
    "ledger.Ledger.export": "ledger.export",
    "fl.local_train": "fl.train",
    "fl.aggregate": "fl.aggregate",
    "fl.serialize_model": "fl.codec",
    "fl.deserialize_model": "fl.codec",
    "harness.write_outputs": "harness.outputs",
    "harness.Channel.scan_for_leak": "harness.leak_scan",
}
for _cls in ("SignedEnvelope", "KeyAnnouncement", "KeyResponse", "TaskPayload", "UpdatePayload"):
    for _m in ("encode", "decode"):
        GROUPS[f"protocol.{_cls}.{_m}"] = "protocol.codec"
GROUPS["protocol.SignedEnvelope.signing_bytes"] = "protocol.codec"

HANDLERS = {
    "protocol.Server.handle_key_response", "protocol.Server.handle_update",
    "protocol.Participant.handle_keys", "protocol.Participant.handle_task",
}
ENVELOPE_ENCODE = "protocol.SignedEnvelope.encode"


# sizes recorded per call: bytes hashed, sealed, encoded or decoded
def _arg0(args, out, state):
    return len(args[0])


def _arg1(args, out, state):
    return len(args[1])


def _arg3(args, out, state):
    return len(args[3])


def _out(args, out, state):
    return len(out)


def _poll(args, out, cursor_before):
    # (events returned, events scanned): poll filters the whole log tail
    return len(out), args[0]._cursor - cursor_before


SIZES = {
    "crypto.digest": _arg0,
    "crypto.aead_seal": _arg3,
    "crypto.aead_open": _arg3,
    "fl.serialize_model": _out,
    "fl.deserialize_model": _arg0,
    "ledger.Subscription.poll": _poll,
}
BEFORE = {"ledger.Subscription.poll": lambda args: args[0]._cursor}
for _site, _group in GROUPS.items():
    if _group == "protocol.codec":
        SIZES[_site] = _arg1 if _site.endswith(".decode") else _out


class RoundClock:
    """Set-up end and round latencies, from timestamps at public server calls.

    A round runs from `Server.publish_round` to the end of its last
    `Server.feedback`.  `on_round` is told each new round number.
    """

    def __init__(self, on_round=None):
        self.on_round = on_round
        self.reset()

    def reset(self) -> None:
        self.first_publish = None
        self.rounds: list[float] = []
        self._start = None
        self._last_feedback = None

    def finish(self) -> None:
        """Close the open round, if any."""
        if self._start is not None and self._last_feedback is not None:
            self.rounds.append(self._last_feedback - self._start)
        self._start = self._last_feedback = None

    def install(self, protocol) -> None:
        publish, feedback = protocol.Server.publish_round, protocol.Server.feedback
        clock = self

        def publish_round(server, *args, **kwargs):
            now = perf_counter()
            clock.finish()
            if clock.first_publish is None:
                clock.first_publish = now
            clock._start = now
            if clock.on_round is not None:
                clock.on_round(len(clock.rounds) + 1)
            return publish(server, *args, **kwargs)

        def feedback_done(server, *args, **kwargs):
            out = feedback(server, *args, **kwargs)
            clock._last_feedback = perf_counter()
            return out

        self._originals = (protocol.Server, publish, feedback)
        protocol.Server.publish_round = publish_round
        protocol.Server.feedback = feedback_done

    def uninstall(self) -> None:
        server, server.publish_round, server.feedback = self._originals


class _EcProxy:
    """Stands in for `cryptography...asymmetric.ec` inside `pqbfl.crypto` only,
    counting private-key objects built from raw scalars."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def derive_private_key(self, value, curve, *rest):
        self._tracer.ec_builds += 1
        self._tracer.ec_keys.add((value, curve.name))
        return self._real.derive_private_key(value, curve, *rest)


class Tracer:
    """Span recorder over the public pqbfl API; see the module docstring.

    A span is (site id, start ns, end ns, parent span index or -1, round,
    size, exception class name or None).  Round 0 is set-up.
    """

    def __init__(self):
        self.sites: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()
        self.begin()

    def begin(self) -> None:
        """Drop the spans and counts of the previous simulation."""
        self.spans: list = []
        self._stack: list[int] = []
        self.round = 0
        self.ec_builds = 0
        self.ec_keys: set = set()
        self.channels: list = []

    def set_round(self, number: int) -> None:
        self.round = number

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # wrappers are built once, from the unwrapped package --------------------

    def _wrap(self, fn, name: str):
        self.sites.append(name)
        sid = len(self.sites) - 1
        size = SIZES.get(name)
        before = BEFORE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            state = before(args) if before is not None else None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (sid, t0, perf_counter_ns(), parent, tracer.round, 0,
                              type(exc).__name__)
                stack.pop()
                raise
            t1 = perf_counter_ns()
            stack.pop()
            spans[idx] = (sid, t0, t1, parent, tracer.round,
                          size(args, out, state) if size is not None else 0, None)
            return out
        return traced

    def _add(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], wrapped))

    def _build(self) -> None:
        mods = {m: importlib.import_module(f"pqbfl.{m}") for m in MODULES}
        holders = [importlib.import_module(f"pqbfl.{m}") for m in MODULES + ("cli",)]
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{short}.{name}"
                if inspect.isfunction(obj) and qual not in NOT_TRACED:
                    wrapped = self._wrap(obj, qual)
                    for holder in holders:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                self._add(holder, bound, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._build_class(obj, qual)
        self._add(mods["crypto"], "ec", _EcProxy(mods["crypto"].ec, self))
        channel_init = mods["harness"].Channel.__init__

        def remember_channel(channel, *args, **kwargs):
            channel_init(channel, *args, **kwargs)
            self.channels.append(channel)
        self._add(mods["harness"].Channel, "__init__", remember_channel)

    def _build_class(self, cls, qual: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(raw, classmethod):
                self._add(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._add(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._add(cls, attr, self._wrap(raw, name))

    # per-simulation summary ------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Raw sums over this simulation's spans (times in ns)."""
        sites, spans = self.sites, self.spans
        group = [GROUPS.get(s, s.split(".")[0] + ".other") for s in sites]
        layer = [s.split(".")[0] for s in sites]
        child = [0] * len(spans)
        for sid, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        windows: dict[int, list[int]] = {}
        roots = []
        for idx, (sid, t0, t1, parent, rnd, size, err) in enumerate(spans):
            g, dur, site = group[sid], t1 - t0, sites[sid]
            add(f"{g}.calls", 1)
            up = parent
            while up >= 0 and group[spans[up][0]] != g:
                up = spans[up][3]
            if up < 0:   # outermost span of its group: busy time counts once
                add(f"{g}.busy_ns", dur)
                if rnd >= 1:
                    add(f"round.{g}.busy_ns", dur)
            if g == "ledger.poll":
                add("ledger.poll.returned", size[0])
                add("ledger.poll.events_scanned", size[1])
            elif size:
                add(f"{g}.bytes", size)
            own = dur - child[idx]
            add(f"{layer[sid]}.self_ns", own)
            if site.startswith("protocol.Server."):
                add("protocol.server.self_ns", own)
            elif site.startswith("protocol.Participant."):
                add("protocol.participant.self_ns", own)
            if site in HANDLERS:
                add("deliveries", 1)
                if err is not None:
                    add("rejected", 1)
                    add(f"protocol.rejected.{err}", 1)
            elif site == ENVELOPE_ENCODE:
                add("envelope_encodes", 1)
            if site == "protocol.Server.publish_round":
                windows[rnd] = [t0, t0]
            elif site == "protocol.Server.feedback" and rnd in windows:
                windows[rnd][1] = max(windows[rnd][1], t1)
            if parent < 0 and rnd >= 1:
                roots.append((rnd, t0, t1))
        for rnd, t0, t1 in roots:
            start, end = windows.get(rnd, (0, -1))
            if start <= t0 and t1 <= end:
                add("round_covered_ns", t1 - t0)
        add("round_wall_ns", sum(end - start for start, end in windows.values()))
        add("ec_builds", self.ec_builds)
        add("ec_keys", len(self.ec_keys))
        add("captured_bytes", sum(len(b) for ch in self.channels for b in ch.captured))
        self.channels = []   # captured envelopes are large; do not keep them alive
        return out
