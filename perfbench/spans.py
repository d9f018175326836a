"""Reader for the span files a traced tb_perfbench run writes.

Each row is `name start_ns end_ns parent id value` (see
src/tracing.h). Spans of one request share its id; `port.recv_batch`
rows carry id -1 and the batch size as value. The reader joins each
request's spans, checks that their stamps are in the order causality
demands (a span joined to the wrong request breaks it), splits the
sojourn into five consecutive legs, computes each span's self time (its
duration minus what its children cover), and derives the per-layer
metrics.

    python3 perfbench/spans.py SPANS.tsv   # prints the breakdown
"""

import sys

LEGS = ("wake", "send", "inbound", "service", "outbound")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return float(sorted_values[k])


def read(path):
    """Returns ({id: {name: (start, end, value)}}, [(start, end, size)])."""
    requests = {}
    batches = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            name, start, end, _parent, rid, value = line.rstrip("\n").split("\t")
            if name == "port.recv_batch":
                batches.append((int(start), int(end), int(value)))
                continue
            requests.setdefault(int(rid), {})[name] = (int(start), int(end), int(value))
    return requests, batches


def analyze(path):
    """Per-request legs, self times and per-layer metrics of one file."""
    requests, batches = read(path)
    legs = {leg: [] for leg in LEGS}
    sojourn, gen, process, overrun, recv = [], [], [], [], []
    self_ns = {"req": 0, "server.service": 0, "apps.process": 0, "client.send": 0}
    misordered = 0
    for spans in requests.values():
        req_s, req_e, _ = spans["req"]
        send_s, send_e, _ = spans["client.send"]
        svc_s, svc_e, _ = spans["server.service"]
        proc_s, proc_e, model = spans["apps.process"]
        recv_e = spans["client.recv"][1]
        # Scheduled send <= send entry <= send exit; the service cannot
        # start before the send was entered; startNs <= process start <=
        # process end <= endNs <= receipt of the response.
        if not (
            req_s <= send_s <= send_e
            and send_s <= svc_s <= proc_s <= proc_e <= req_e <= recv_e
        ):
            misordered += 1
        parts = {
            "wake": send_s - req_s,
            "send": send_e - send_s,
            "inbound": svc_s - send_e,
            "service": svc_e - svc_s,
            "outbound": req_e - svc_e,
        }
        for leg, v in parts.items():
            legs[leg].append(v)
        sojourn.append(req_e - req_s)
        gen.append(spans["apps.gen"][1] - spans["apps.gen"][0])
        process.append(proc_e - proc_s)
        overrun.append(proc_e - proc_s - model)
        recv.append(spans["client.recv"][1] - spans["client.recv"][0])
        self_ns["req"] += (req_e - req_s) - (send_e - send_s) - (svc_e - svc_s)
        self_ns["client.send"] += send_e - send_s
        self_ns["server.service"] += (svc_e - svc_s) - (proc_e - proc_s)
        self_ns["apps.process"] += proc_e - proc_s
    n = len(sojourn)
    for v in (*legs.values(), sojourn, gen, process, overrun, recv):
        v.sort()
    served = [b for b in batches if b[2] > 0]
    idle = sorted(e - s for s, e, _ in served)

    def us(values, q):
        return percentile(values, q) / 1e3

    metrics = {
        "apps.gen_ns.p50": (percentile(gen, 0.50), "ns"),
        "apps.process_us.p50": (us(process, 0.50), "us"),
        "apps.process_us.p99": (us(process, 0.99), "us"),
        "apps.overrun_us.p99": (us(overrun, 0.99), "us"),
        "client.wake_lag_us.p50": (us(legs["wake"], 0.50), "us"),
        "client.wake_lag_us.p99": (us(legs["wake"], 0.99), "us"),
        "client.send_us.p50": (us(legs["send"], 0.50), "us"),
        "client.send_us.p99": (us(legs["send"], 0.99), "us"),
        "req.inbound_us.p50": (us(legs["inbound"], 0.50), "us"),
        "req.inbound_us.p99": (us(legs["inbound"], 0.99), "us"),
        "resp.outbound_us.p50": (us(legs["outbound"], 0.50), "us"),
        "resp.outbound_us.p99": (us(legs["outbound"], 0.99), "us"),
        "client.recv_us.p50": (us(recv, 0.50), "us"),
        # The ServerPort decorator sits only on the in-process port;
        # TcpServer owns its port, so loopback reports 0 here.
        "port.batch.mean": (sum(b[2] for b in served) / len(served) if served else 0.0, "count"),
        "port.idle_us.p50": (percentile(idle, 0.50) / 1e3, "us"),
    }
    means = {leg: (sum(v) / n / 1e3 if n else 0.0) for leg, v in legs.items()}
    summary = {
        "requests": n,
        "misordered": misordered,
        "mean_sojourn_us": sum(sojourn) / n / 1e3 if n else 0.0,
        "mean_leg_us": means,
        "mean_self_us": {k: (v / n / 1e3 if n else 0.0) for k, v in self_ns.items()},
    }
    return metrics, summary


def describe(label, summary):
    """Report lines: leg means beside the mean sojourn, then self times."""
    legs = summary["mean_leg_us"]
    total = sum(legs.values())
    lines = [
        "legs %s n %d  %s  sum %.2f us  mean sojourn %.2f us  misordered %d"
        % (
            label,
            summary["requests"],
            "  ".join("%s %.2f" % (k, v) for k, v in legs.items()),
            total,
            summary["mean_sojourn_us"],
            summary["misordered"],
        ),
        "self %s  %s"
        % (label, "  ".join("%s %.2f us" % kv for kv in summary["mean_self_us"].items())),
    ]
    return lines


if __name__ == "__main__":
    for p in sys.argv[1:]:
        m, s = analyze(p)
        print("\n".join(describe(p, s)))
        for k, (v, unit) in m.items():
            print("%-26s %.4g %s" % (k, v, unit))
