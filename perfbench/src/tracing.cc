#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "util/clock.h"

namespace tb::perfbench {

TraceStore::TraceStore(size_t requests, uint64_t warmupRequests)
    : warmup(warmupRequests),
      genStart(requests),
      genEnd(requests),
      sendEntry(requests),
      sendExit(requests),
      payloadHash(requests),
      recvStart(requests),
      recvEnd(requests),
      timing(requests),
      received(requests),
      process(requests),
      // A worker's last recvReqBatch returns 0; a few spare slots cover
      // those end-of-stream calls.
      batches(requests + 64)
{
}

uint64_t
payloadHash(std::string_view payload)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
TracedApp::genRequest(util::Rng& rng)
{
    const int64_t t0 = util::monotonicNs();
    std::string payload = inner_.genRequest(rng);
    const int64_t t1 = util::monotonicNs();
    const uint64_t id = next_id_++;
    if (id < store_.genStart.size()) {
        store_.genStart[id] = t0;
        store_.genEnd[id] = t1;
    }
    return payload;
}

uint64_t
TracedApp::process(std::string_view request)
{
    const int64_t t0 = util::monotonicNs();
    const uint64_t checksum = inner_.process(request);
    const int64_t t1 = util::monotonicNs();
    const size_t slot =
        store_.processCount.fetch_add(1, std::memory_order_relaxed);
    if (slot < store_.process.size()) {
        TraceStore::ProcessSpan& s = store_.process[slot];
        s.hash = payloadHash(request);
        s.start = t0;
        s.end = t1;
        s.modelNs = inner_.serviceNsFor(request);
    }
    return checksum;
}

void
TracedTransport::sendRequest(core::Request&& req)
{
    const uint64_t id = req.id;
    const uint64_t hash = payloadHash(req.payload.view());
    const int64_t t0 = util::monotonicNs();
    inner_.sendRequest(std::move(req));
    const int64_t t1 = util::monotonicNs();
    if (id < store_.sendEntry.size()) {
        store_.sendEntry[id] = t0;
        store_.sendExit[id] = t1;
        store_.payloadHash[id] = hash;
    }
}

bool
TracedTransport::recvResponse(core::Response& out)
{
    const int64_t t0 = util::monotonicNs();
    const bool ok = inner_.recvResponse(out);
    const int64_t t1 = util::monotonicNs();
    if (ok && out.id < store_.recvStart.size()) {
        store_.recvStart[out.id] = t0;
        store_.recvEnd[out.id] = t1;
        store_.timing[out.id] = out.timing;
        store_.received[out.id] = 1;
    }
    return ok;
}

size_t
TracedPort::recvReqBatch(std::vector<core::Request>& out, size_t max)
{
    const int64_t t0 = util::monotonicNs();
    const size_t n = inner_.recvReqBatch(out, max);
    const int64_t t1 = util::monotonicNs();
    const size_t slot =
        store_.batchCount.fetch_add(1, std::memory_order_relaxed);
    if (slot < store_.batches.size())
        store_.batches[slot] = {t0, t1, static_cast<uint32_t>(n)};
    return n;
}

CheckingTransport::CheckingTransport(core::Transport& inner,
                                     uint64_t warmup, uint64_t total)
    : inner_(inner), warmup_(warmup), seen_(total, 0)
{
}

void
CheckingTransport::sendRequest(core::Request&& req)
{
    if (first_gen_ns_ == 0)
        first_gen_ns_ = req.genNs;
    inner_.sendRequest(std::move(req));
}

bool
CheckingTransport::recvResponse(core::Response& out)
{
    if (!inner_.recvResponse(out))
        return false;
    if (out.id >= seen_.size()) {
        unknown_ids_++;
        return true;
    }
    if (seen_[out.id] < 255)
        seen_[out.id]++;
    const core::RequestTiming& t = out.timing;
    if (out.id >= warmup_ &&
        !(t.genNs <= t.startNs && t.startNs <= t.endNs))
        misordered_++;
    return true;
}

uint64_t
CheckingTransport::failures() const
{
    uint64_t bad = unknown_ids_ + misordered_;
    for (size_t id = warmup_; id < seen_.size(); id++)
        if (seen_[id] != 1)
            bad++;
    return bad;
}

bool
DropOneTransport::recvResponse(core::Response& out)
{
    bool ok = inner_.recvResponse(out);
    if (ok && !dropped_ && out.id == victim_) {
        dropped_ = true;
        ok = inner_.recvResponse(out);
    }
    return ok;
}

uint64_t
writeSpans(const TraceStore& s, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return s.timing.size();
    std::fprintf(f, "# name\tstart_ns\tend_ns\tparent\tid\tvalue\n");

    // Join App::process spans to ids by payload hash. Payloads carry a
    // 64-bit nonce, so a repeated hash is a repeated payload; those
    // ids take the spans in arrival order.
    std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
    const size_t nproc =
        std::min(s.processCount.load(), s.process.size());
    by_hash.reserve(nproc);
    for (size_t i = 0; i < nproc; i++)
        by_hash[s.process[i].hash].push_back(i);
    std::unordered_map<uint64_t, size_t> used;

    uint64_t unjoined = 0;
    for (size_t id = 0; id < s.timing.size(); id++) {
        const auto it = by_hash.find(s.payloadHash[id]);
        const TraceStore::ProcessSpan* p = nullptr;
        if (it != by_hash.end()) {
            size_t& k = used[s.payloadHash[id]];
            if (k < it->second.size())
                p = &s.process[it->second[k++]];
        }
        if (id < s.warmup)
            continue;
        if (!s.received[id] || p == nullptr) {
            unjoined++;
            continue;
        }
        const core::RequestTiming& t = s.timing[id];
        const auto row = [&](const char* name, int64_t a, int64_t b,
                             const char* parent, int64_t value) {
            std::fprintf(f, "%s\t%lld\t%lld\t%s\t%zu\t%lld\n", name,
                         static_cast<long long>(a),
                         static_cast<long long>(b), parent, id,
                         static_cast<long long>(value));
        };
        row("req", t.genNs, t.endNs, "-", 0);
        row("apps.gen", s.genStart[id], s.genEnd[id], "-", 0);
        row("client.send", s.sendEntry[id], s.sendExit[id], "req", 0);
        row("server.service", t.startNs, p->end, "req", 0);
        row("apps.process", p->start, p->end, "server.service",
            p->modelNs);
        row("client.recv", s.recvStart[id], s.recvEnd[id], "-", 0);
    }
    const size_t nbatch =
        std::min(s.batchCount.load(), s.batches.size());
    for (size_t i = 0; i < nbatch; i++) {
        const TraceStore::BatchSpan& b = s.batches[i];
        std::fprintf(f, "port.recv_batch\t%lld\t%lld\t-\t-1\t%u\n",
                     static_cast<long long>(b.start),
                     static_cast<long long>(b.end), b.size);
    }
    std::fclose(f);
    return unjoined;
}

}  // namespace tb::perfbench
